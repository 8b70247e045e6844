"""CLI behavior: golden reports, exit codes, determinism."""

import io
import json
import sys

import pytest

from conftest import FIXTURES
from holoclosure import groebner
from holoclosure.cli import (
    EXIT_INVARIANT,
    EXIT_OK,
    EXIT_PARSE_ERROR,
    EXIT_RESOURCE_LIMIT,
    EXIT_SEMANTIC,
    run,
)

GOLDEN = FIXTURES / "golden"


def invoke(argv):
    out = io.StringIO()
    code = run(argv, stdout=out)
    return code, out.getvalue()


def golden_cases():
    cases = []
    for path in sorted(GOLDEN.glob("*.json")):
        stem, command = path.stem.rsplit("__", 1)
        fixture = stem.rsplit("_", 1)
        fixture_name = f"{fixture[0]}.{fixture[1]}"
        cases.append((fixture_name, command, path))
    return cases


EXTRA_FLAGS = {
    "crdim": ["--point", "1+2*i, 2"],
    "probe": ["--jets", "3,5,7", "--maxdeg", "2"],
}


@pytest.mark.parametrize("fixture,command,path", golden_cases())
def test_golden_reports(fixture, command, path):
    argv = [command, str(FIXTURES / fixture)] + EXTRA_FLAGS.get(command, [])
    argv += ["--json", "--seed", "0"]
    code, out = invoke(argv)
    assert code == EXIT_OK
    assert out == path.read_text(encoding="utf-8")


def test_byte_stable_across_runs():
    argv = ["ranks", str(FIXTURES / "whitney.map"), "--json", "--seed", "0"]
    first = invoke(argv)
    second = invoke(argv)
    assert first == second


def test_seed_changes_witness_not_answer():
    code0, out0 = invoke(["ranks", str(FIXTURES / "whitney.map"), "--json", "--seed", "1"])
    assert code0 == EXIT_OK
    payload = json.loads(out0)
    assert payload["results"]["r1"] == 2 and payload["results"]["r3"] == 2


def test_parse_error_exit_code(tmp_path):
    bad = tmp_path / "bad.sys"
    bad.write_text("vars z1\neq z9\n", encoding="utf-8")
    code, out = invoke(["hcdim", str(bad), "--json"])
    assert code == EXIT_PARSE_ERROR
    payload = json.loads(out)
    assert any("unknown identifier" in d for d in payload["diagnostics"])


def test_resource_limit_exit_code(tmp_path):
    f = tmp_path / "hard.sys"
    f.write_text(
        "realvars x1 y1 x2 y2\neq x2*(x1^2+y1^2)-x1^3\neq y2\n", encoding="utf-8"
    )
    code, out = invoke(["hcdim", str(f), "--max-pairs", "0", "--json"])
    assert code == EXIT_RESOURCE_LIMIT
    payload = json.loads(out)
    assert any("resource limit" in d for d in payload["diagnostics"])


def test_semantic_error_exit_codes(tmp_path):
    # point off the set
    code, _ = invoke([
        "crdim", str(FIXTURES / "sphere.sys"), "--point", "2, 0", "--json",
    ])
    assert code == EXIT_SEMANTIC
    # empty set
    empty = tmp_path / "empty.sys"
    empty.write_text("vars z1\neq 1\n", encoding="utf-8")
    code2, _ = invoke(["hcdim", str(empty), "--json"])
    assert code2 == EXIT_SEMANTIC
    # non-smooth point
    code3, _ = invoke([
        "crdim", str(FIXTURES / "umbrella.sys"), "--point", "0, 1", "--json",
    ])
    assert code3 == EXIT_SEMANTIC


def test_realdim_reports_empty(tmp_path):
    empty = tmp_path / "empty.sys"
    empty.write_text("vars z1\neq 1\n", encoding="utf-8")
    code, out = invoke(["realdim", str(empty), "--json"])
    assert code == EXIT_OK
    assert json.loads(out)["results"]["real_dimension"] == "empty"


def test_groebner_command_orders():
    code, out = invoke([
        "groebner", str(FIXTURES / "sphere.sys"), "--order", "lex", "--json",
    ])
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["results"]["order"] == "lex"
    assert payload["results"]["basis"]
    code2, out2 = invoke(["groebner", str(FIXTURES / "sphere.sys"), "--json"])
    assert json.loads(out2)["results"]["order"] == "grevlex"


def test_eliminate_command_zeta_and_map():
    code, out = invoke(["eliminate", str(FIXTURES / "paraboloid.sys"), "--json"])
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["results"]["block"] == "zetabar"
    assert payload["results"]["variables"] == ["z1", "z2"]
    code2, out2 = invoke(["eliminate", str(FIXTURES / "whitney.map"), "--json"])
    payload2 = json.loads(out2)
    assert payload2["results"]["block"] == "param"
    assert payload2["results"]["generators"] == ["z2^2 - z1*z3"]


def test_probe_osgood_matches_user_probe():
    _, out1 = invoke(["probe-osgood", "--jets", "3,5", "--maxdeg", "2", "--json"])
    _, out2 = invoke([
        "probe", str(FIXTURES / "osgood.jets"), "--jets", "3,5", "--maxdeg", "2", "--json",
    ])
    table1 = json.loads(out1)["results"]["table"]
    table2 = json.loads(out2)["results"]["table"]
    assert table1 == table2


def test_verify_dm_command():
    code, out = invoke([
        "verify-dm", str(FIXTURES / "sphere.sys"),
        "--point", "1, 0", "--point", "3/5, 4/5", "--point", "0, i", "--json",
    ])
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["results"]["all_agree"] is True
    assert payload["results"]["hc_dimension"] == 2


def test_strata_command():
    code, out = invoke([
        "strata", str(FIXTURES / "complex_line_c2.sys"), "--k", "1", "--json",
    ])
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["results"]["k"] == 1
    assert payload["results"]["generators"] == ["x2", "y2"]


def test_text_report_format():
    code, out = invoke(["hcdim", str(FIXTURES / "sphere.sys")])
    assert code == EXIT_OK
    assert out.startswith("command: hcdim\n")
    assert "hc_dimension: 2" in out
    assert "real_dimension: 3" in out


def test_stdin_input(monkeypatch):
    import sys
    monkeypatch.setattr(sys, "stdin", io.StringIO("vars z1 z2\neq z2\n"))
    code, out = invoke(["hcdim", "-", "--json"])
    assert code == EXIT_OK
    assert json.loads(out)["results"]["hc_dimension"] == 1


def test_param_hcdim_command():
    code, out = invoke([
        "param-hcdim", str(FIXTURES / "surface_param.par"), "--json",
    ])
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["results"]["hc_dimension"] == 2
    assert payload["results"]["real_dimension"] == 2
    assert payload["results"]["hc_ideal"] == ["z1*z2 - z3"]


def test_wrong_document_kind_is_semantic_error():
    code, _ = invoke(["ranks", str(FIXTURES / "sphere.sys"), "--json"])
    assert code == EXIT_SEMANTIC
    code2, _ = invoke(["param-hcdim", str(FIXTURES / "whitney.map"), "--json"])
    assert code2 == EXIT_SEMANTIC


def test_invariant_violation_exit_code(monkeypatch):
    # a dimension reader claiming h > n trips the closure bound check
    monkeypatch.setattr(groebner.GroebnerBasis, "dimension", lambda self, variables: (99, None))
    code, out = invoke(["hcdim", str(FIXTURES / "sphere.sys"), "--json"])
    assert code == EXIT_INVARIANT == 5
    diagnostics = json.loads(out)["diagnostics"]
    assert any(d.startswith("internal invariant violated: ") for d in diagnostics)
    assert "Traceback" not in out


def _count_buchberger(monkeypatch):
    """Replace buchberger at every binding site; returns the list of order names used."""
    calls = []
    original = groebner.buchberger

    def counting(I, order, config=groebner.DEFAULT_CONFIG):
        calls.append(type(order).__name__)
        return original(I, order, config)

    for name, module in list(sys.modules.items()):
        if name == "holoclosure" or name.startswith("holoclosure."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counting)
    return calls


@pytest.mark.parametrize("fixture", [f for f, c, _ in golden_cases() if c == "hcdim"])
def test_hcdim_computes_one_basis(monkeypatch, fixture):
    calls = _count_buchberger(monkeypatch)
    code, _ = invoke(["hcdim", str(FIXTURES / fixture), "--json"])
    assert code == EXIT_OK
    assert calls == ["BlockElimination"]


def test_param_hcdim_and_verify_dm_compute_one_basis(monkeypatch):
    calls = _count_buchberger(monkeypatch)
    assert invoke(["param-hcdim", str(FIXTURES / "surface_param.par"), "--json"])[0] == EXIT_OK
    assert calls == ["BlockElimination"]
    calls.clear()
    code, _ = invoke([
        "verify-dm", str(FIXTURES / "sphere.sys"),
        "--point", "1, 0", "--point", "3/5, 4/5", "--point", "0, i", "--json",
    ])
    assert code == EXIT_OK
    assert calls == ["BlockElimination"]


def test_ranks_computes_the_kernel_once(monkeypatch):
    calls = _count_buchberger(monkeypatch)
    assert invoke(["ranks", str(FIXTURES / "whitney.map"), "--json", "--seed", "0"])[0] == EXIT_OK
    assert calls.count("BlockElimination") == 1
