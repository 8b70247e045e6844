"""The scripts under scripts/ run to completion on small arguments."""

import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(name, *args):
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / name), *args], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    return proc.stdout.splitlines()


def test_osgood_table():
    lines = run_script("osgood_table.py", "3", "4", "3")
    assert lines[0] == "K range 3..4, relation degree searched up to 3"
    assert [line.split()[:2] for line in lines[2:]] == [["3", "2"], ["4", "2"]]


def test_random_regularity():
    lines = run_script("random_regularity.py", "3", "1")
    assert len(lines) == 4 and all(" ok " in line for line in lines[:3])
    assert lines[-1] == "all regular"
