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


def test_sweep_writes_every_report_with_its_exit_code(tmp_path):
    # on a tree holding the fixtures only, so no hard-tier input is swept
    tree = tmp_path / "tree"
    (tree / "scripts").mkdir(parents=True)
    shutil.copy(SCRIPTS / "sweep.py", tree / "scripts")
    shutil.copytree(ROOT / "fixtures", tree / "fixtures")
    (tree / "src").symlink_to(ROOT / "src")
    out = tmp_path / "out"
    lines = run_script("sweep.py", str(out), scripts=tree / "scripts")
    files = {path.name: path.read_text(encoding="utf-8") for path in out.iterdir()}
    assert lines == [f"wrote {len(files)} reports to {out}"]
    assert all(text.startswith("exit ") for text in files.values())
    assert len(files) == 2 * len({name.rsplit(".", 1)[0] for name in files})
    assert not any(name.startswith("bench-") for name in files)
    # each golden command's JSON report is the golden file
    goldens = sorted((ROOT / "fixtures" / "golden").glob("*.json"))
    for golden in goldens:
        stem, command = golden.stem.rsplit("__", 1)
        fixture = ".".join(stem.rsplit("_", 1))
        [name] = [n for n in files if n.startswith(f"{fixture}__{command}") and n.endswith(".json")]
        assert files[name] == "exit 0\n" + golden.read_text(encoding="utf-8"), name
    assert len(goldens) == 14
    exits = {name: int(text.split("\n", 1)[0].split()[1]) for name, text in files.items()}
    assert exits["error-missing-file.txt"] == 2
    assert "cannot read input 'fixtures/missing.sys'" in files["error-missing-file.txt"]
    assert exits["error-budget-flag.json"] == 2 and "stderr:\nusage: " in files["error-budget-flag.json"]
    assert exits["error-unknown-flag.txt"] == 2
    assert files["error-unknown-flag.txt"].split("stderr:\n", 1)[1].startswith("usage: holoclosure [-h]\n")
    assert exits["help-groebner.txt"] == 0
    assert files["help-groebner.txt"].split("\n", 2)[1].startswith("usage: holoclosure groebner [-h]")
    assert exits["error-pair-budget.json"] == 3
    assert exits["error-exponent-limit.txt"] == 3
    assert exits["error-off-the-set.txt"] == 4
    assert exits["stdin-sphere.json"] == 0
    assert files["stdin-sphere.json"].split("\n", 1)[1] == files["sphere.sys__hcdim.json"].split("\n", 1)[1]
    # a second sweep into the same directory is refused and writes nothing
    run_script("sweep.py", str(out), code=1, scripts=tree / "scripts")
    assert len(list(out.iterdir())) == len(files)
