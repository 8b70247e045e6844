"""The scripts under scripts/ run to completion on small arguments."""

import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"


def run_script(name, *args, code=0, scripts=SCRIPTS):
    proc = subprocess.run(
        [sys.executable, str(scripts / name), *args], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == code, proc.stderr
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


def test_regen_golden_check(tmp_path):
    assert run_script("regen_golden.py", "--check") == ["all 14 golden reports match"]
    # on a copy of the tree with one golden report altered: named, exit 1, nothing written
    (tmp_path / "scripts").mkdir()
    shutil.copy(SCRIPTS / "regen_golden.py", tmp_path / "scripts")
    shutil.copytree(ROOT / "fixtures", tmp_path / "fixtures")
    (tmp_path / "src").symlink_to(ROOT / "src")
    altered = tmp_path / "fixtures" / "golden" / "sphere_sys__hcdim.json"
    altered.write_text("{}\n", encoding="utf-8")
    lines = run_script("regen_golden.py", "--check", code=1, scripts=tmp_path / "scripts")
    assert lines == ["differs: sphere_sys__hcdim.json"]
    assert altered.read_text(encoding="utf-8") == "{}\n"
