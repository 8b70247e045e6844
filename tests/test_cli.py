"""CLI behavior: golden reports, exit codes, determinism."""

import argparse
import importlib.util
import io
import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from pathlib import Path
from typing import Callable

import pytest

import holoclosure
from conftest import FIXTURES, parse_polynomial, run_cli_child
from holoclosure import groebner, jets
from holoclosure.cli import (
    EXIT_INVARIANT,
    EXIT_OK,
    EXIT_PARSE_ERROR,
    EXIT_RESOURCE_LIMIT,
    EXIT_SEMANTIC,
    run,
)
from holoclosure.complexify import System, complexify_ideal
from holoclosure.poly import GREVLEX, LEX, z_context
from holoclosure.syntax import parse

GOLDEN = FIXTURES / "golden"
DATA = Path(__file__).resolve().parent / "data"


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


SPHERE = str(FIXTURES / "sphere.sys")
NOT_UTF8 = DATA / "not_utf8.sys"  # "eq z1" then bytes ff fe
PROBE_SECONDS = 2.0


def _claim_h_above_n(monkeypatch):
    # a dimension reader claiming h > n trips the closure bound check
    monkeypatch.setattr(groebner.GroebnerBasis, "dimension", lambda self: (99, None))


def _constant_relation(monkeypatch):
    # a relation on the constant column alone, reported for the first degree-1 column,
    # is a degree-0 witness at degree 1
    monkeypatch.setattr(
        jets.linalg, "relations",
        lambda columns: ((j, {0: Fraction(1)}) for j, _ in enumerate(columns) if j == 1),
    )


@dataclass(frozen=True)
class ExitCase:
    argv: tuple
    code: int
    diagnostic: str  # a fragment of one report diagnostic, or of the report when it exits 0
    stdin: str | bytes = ""  # read as the "-" input
    patch: Callable | None = None  # monkeypatches a defect into the toolkit
    bounded: bool = False  # run in a child process under PROBE_SECONDS and a memory cap
    usage: bool = False  # the command line is refused: usage on stderr, no report


EXIT_CASES = [
    # command lines read as argparse reads them
    ExitCase(("hcdim", SPHERE, "--js"), EXIT_OK, '"hc_dimension": 2'),
    ExitCase(("hcdim", SPHERE, "--seed=3"), EXIT_OK, '"hc_dimension": 2'),
    ExitCase(("hcdim", "--", SPHERE), EXIT_OK, '"hc_dimension": 2'),
    ExitCase(("crdim", SPHERE, "--point", "-1, 0"), EXIT_OK, '"smooth": true'),
    ExitCase(("hcdim", SPHERE, "--json=1"), EXIT_PARSE_ERROR,
             "argument --json: ignored explicit argument '1'", usage=True),
    ExitCase(("hcdim", SPHERE, "--max", "3"), EXIT_PARSE_ERROR,
             "ambiguous option: --max could match --max-pairs, --max-degree", usage=True),
    ExitCase(("crdim", SPHERE, "--point"), EXIT_PARSE_ERROR,
             "argument --point: expected one argument", usage=True),
    ExitCase(("hcdim", "-"), EXIT_PARSE_ERROR, "unknown identifier", "vars z1\neq z9\n"),
    ExitCase(("hcdim", "-"), EXIT_PARSE_ERROR, "nested deeper",
             "vars z1\neq " + "(" * 3000 + "z1" + ")" * 3000 + "\n"),
    ExitCase(("hcdim", "-"), EXIT_PARSE_ERROR, "nested deeper", "vars z1\neq " + "-" * 3000 + "z1\n"),
    ExitCase(("hcdim", "-"), EXIT_PARSE_ERROR, "nested deeper",
             "vars z1\neq " + "conj(" * 2000 + "z1" + ")" * 2000 + "\n"),
    ExitCase(("crdim", SPHERE, "--point", "1" * 5000 + ", 0"), EXIT_PARSE_ERROR,
             "line 1, column 1: integer literal of 5000 digits"),
    ExitCase(("hcdim", "-"), EXIT_PARSE_ERROR, "line 2, column 7: integer literal of 5000 digits",
             "vars z1\neq z1^" + "9" * 5000 + "\n"),
    ExitCase(("hcdim", str(FIXTURES / "missing.sys")), EXIT_PARSE_ERROR,
             "cannot read input '" + str(FIXTURES / "missing.sys") + "': No such file"),
    ExitCase(("hcdim", str(FIXTURES)), EXIT_PARSE_ERROR, "cannot read input"),
    ExitCase(("hcdim", str(NOT_UTF8)), EXIT_PARSE_ERROR,
             "cannot read input '" + str(NOT_UTF8) + "': 'utf-8' codec can't decode byte 0xff"),
    ExitCase(("hcdim", "-"), EXIT_PARSE_ERROR,
             "cannot read input '-': 'utf-8' codec can't decode byte 0xff", NOT_UTF8.read_bytes()),
    ExitCase(("groebner", SPHERE, "--max-pairs", "-1"), EXIT_PARSE_ERROR,
             "argument --max-pairs: must be at least 1, got -1", usage=True),
    ExitCase(("groebner", SPHERE, "--max-pairs", "0"), EXIT_PARSE_ERROR,
             "argument --max-pairs: must be at least 1, got 0", usage=True),
    ExitCase(("groebner", SPHERE, "--max-degree", "-5"), EXIT_PARSE_ERROR,
             "argument --max-degree: must be at least 1, got -5", usage=True),
    ExitCase(("groebner", SPHERE, "--max-degree", "0"), EXIT_PARSE_ERROR,
             "argument --max-degree: must be at least 1, got 0", usage=True),
    ExitCase(("probe-osgood", "--jets", "3", "--maxdeg", "0"), EXIT_PARSE_ERROR,
             "argument --maxdeg: must be at least 1, got 0", usage=True),
    ExitCase(("probe-osgood", "--jets", "3", "--maxdeg", "-2"), EXIT_PARSE_ERROR,
             "argument --maxdeg: must be at least 1, got -2", usage=True),
    ExitCase(("probe-osgood", "--jets", "0", "--maxdeg", "2"), EXIT_PARSE_ERROR,
             "argument --jets: must be at least 1, got 0", usage=True),
    ExitCase(("probe-osgood", "--jets", "", "--maxdeg", "2"), EXIT_PARSE_ERROR,
             "argument --jets: expects a comma-separated list of orders, got ''", usage=True),
    ExitCase(("probe-osgood", "--jets", "-1", "--maxdeg", "2"), EXIT_PARSE_ERROR,
             "argument --jets: must be at least 1, got -1", usage=True),
    ExitCase(("probe-osgood", "--jets", "3,x", "--maxdeg", "2"), EXIT_PARSE_ERROR,
             "argument --jets: invalid int value: 'x'", usage=True),
    ExitCase(("probe", str(FIXTURES / "osgood.jets"), "--jets", "3,0", "--maxdeg", "2"),
             EXIT_PARSE_ERROR, "argument --jets: must be at least 1, got 0", usage=True),
    ExitCase(("probe", str(FIXTURES / "osgood.jets"), "--jets", "3", "--maxdeg", "0"),
             EXIT_PARSE_ERROR, "argument --maxdeg: must be at least 1, got 0", usage=True),
    ExitCase(("hcdim", str(FIXTURES / "paraboloid.sys"), "--max-pairs", "1"), EXIT_RESOURCE_LIMIT,
             "S-pair budget of 1 exceeded"),
    ExitCase(("groebner", "-", "--max-degree", "1"), EXIT_RESOURCE_LIMIT,
             "intermediate degree 2 exceeds budget 1", "vars z1 z2\neq z1^2+z2-1\neq z1*z2-1\n"),
    # the first element added, z1 + z2^3 - z2^2 + z2 under lex, has a degree-1 lead:
    # the budget reads every term, where a lead-only check would trip later at degree 4
    ExitCase(("groebner", "-", "--order", "lex", "--max-degree", "2"), EXIT_RESOURCE_LIMIT,
             "intermediate degree 3 exceeds budget 2", "vars z1 z2\neq z1*z2-z2^2-1\neq z1^2-z2\n"),
    ExitCase(("hcdim", "-"), EXIT_RESOURCE_LIMIT,
             "line 2, column 19: power ^60 of 3 terms may exceed the input budget of 1000 terms",
             "vars z1 z2\neq (z1+conj(z2)+1)^60\n", bounded=True),
    ExitCase(("hcdim", "-"), EXIT_RESOURCE_LIMIT,
             "line 2, column 6: power ^99999999999999999999 exceeds the input degree budget",
             "vars z1\neq z1^99999999999999999999\n", bounded=True),
    ExitCase(("hcdim", "-"), EXIT_RESOURCE_LIMIT,
             "line 2, column 13: 1681 terms exceed the input budget of 1000",
             "vars z1 z2\neq (z1+1)^40*(z2+1)^40\n"),
    ExitCase(("hcdim", "-"), EXIT_RESOURCE_LIMIT,
             "line 2, column 23: 1921 terms exceed the input budget of 1000",
             "vars z1 z2\neq (z1+1)^30*(z2+1)^30+(conj(z1)+1)^30*(conj(z2)+1)^30\n"),
    # lex reduction by z1 - z2^1000 turns z1^33 into z2^33000, past the packed exponent field
    ExitCase(("groebner", "-", "--order", "lex", "--max-degree", "100000"), EXIT_RESOURCE_LIMIT,
             "normal form: a product exponent exceeds the packed exponent limit of 32767",
             "vars z1 z2\neq z1-z2^1000\neq z1^33-1\n", bounded=True),
    ExitCase(("probe-osgood", "--jets", "100000", "--maxdeg", "1"), EXIT_RESOURCE_LIMIT,
             "exceeds the probe budget", bounded=True),
    ExitCase(("probe", str(FIXTURES / "osgood.jets"), "--jets", "100000", "--maxdeg", "1"),
             EXIT_RESOURCE_LIMIT, "exceeds the probe budget", bounded=True),
    ExitCase(("crdim", SPHERE, "--point", "2, 0"), EXIT_SEMANTIC, "does not satisfy the system"),
    ExitCase(("hcdim", "-"), EXIT_SEMANTIC, "empty set", "vars z1\neq 1\n"),
    ExitCase(("ranks", "-"), EXIT_SEMANTIC, "no rational point found",
             "mapvars u v\nmap u\nmap v\neq u^2 - 2\n"),
    ExitCase(("crdim", str(FIXTURES / "umbrella.sys"), "--point", "0, 1"), EXIT_SEMANTIC,
             "Jacobian rank"),
    ExitCase(("param-hcdim", "-"), EXIT_SEMANTIC, "collide with target variables: w1",
             "params w1 t\nmap w1\nmap w1*t\n"),
    ExitCase(("hcdim", SPHERE), EXIT_INVARIANT, "closure dimension 99", patch=_claim_h_above_n),
    ExitCase(("probe-osgood", "--jets", "3", "--maxdeg", "2"), EXIT_INVARIANT, "witness degree",
             patch=_constant_relation),
]

# a command given the wrong kind of document
WRONG_KIND_CASES = [
    ExitCase(("ranks", SPHERE), EXIT_SEMANTIC, "needs a map document"),
    ExitCase(("param-hcdim", str(FIXTURES / "whitney.map")), EXIT_SEMANTIC,
             "needs a parametrization document"),
]

DIAGNOSTIC_PREFIX = {
    EXIT_PARSE_ERROR: "parse error: ",
    EXIT_RESOURCE_LIMIT: "resource limit: ",
    EXIT_SEMANTIC: "error: ",
    EXIT_INVARIANT: "internal invariant violated: ",
}


def _run_bounded(argv, stdin="", timeout=PROBE_SECONDS):
    """The CLI in a child process: without its budget checks a probe of this
    size would exhaust memory, which must not happen in the test process."""
    return run_cli_child(argv, stdin, timeout)


def test_cli_import_freezes_its_objects_out_of_the_collector():
    src = Path(holoclosure.__file__).resolve().parent.parent
    code = "import gc, holoclosure.cli; print(gc.get_freeze_count())"
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=str(src)),
    )
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) > 0


def _check_exit_codes(monkeypatch, code):
    """Every case of the table with this exit code."""
    _check_cases(monkeypatch, [case for case in EXIT_CASES if case.code == code])


def _stdin(data):
    """A stand-in for the process's stdin: text over a byte buffer, as the interpreter builds it."""
    if isinstance(data, str):
        data = data.encode("utf-8")
    return io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", errors="surrogateescape")


def _check_cases(monkeypatch, cases):
    """Each case returns its exit code and diagnostic, without a traceback."""
    assert cases
    for case in cases:
        argv = [case.argv[0], "--json", *case.argv[1:]]  # before any "--"
        if case.bounded:
            got, out, err = _run_bounded(argv, case.stdin)
        else:
            stderr = io.StringIO()
            with monkeypatch.context() as m:
                m.setattr(sys, "stdin", _stdin(case.stdin))
                m.setattr(sys, "stderr", stderr)
                if case.patch:
                    case.patch(m)
                try:
                    got, out = invoke(argv)
                except SystemExit as exc:  # the exit on a refused command line
                    got, out = exc.code, ""
            err = stderr.getvalue()
        assert got == case.code, case.argv
        assert "Traceback" not in out + err, case.argv
        if case.usage:
            assert out == "" and err.startswith("usage: ") and case.diagnostic in err, err
            continue
        if case.code == EXIT_OK:
            assert case.diagnostic in out, (case.argv, out)
            continue
        diagnostics = json.loads(out)["diagnostics"]
        assert any(d.startswith(DIAGNOSTIC_PREFIX[case.code]) and case.diagnostic in d
                   for d in diagnostics), (case.argv, diagnostics)


def test_accepted_command_lines_exit_0(monkeypatch):
    _check_exit_codes(monkeypatch, EXIT_OK)


def test_parse_error_exit_code(monkeypatch):
    _check_exit_codes(monkeypatch, EXIT_PARSE_ERROR)


def test_resource_limit_exit_code(monkeypatch):
    _check_exit_codes(monkeypatch, EXIT_RESOURCE_LIMIT)


def test_semantic_error_exit_codes(monkeypatch):
    _check_exit_codes(monkeypatch, EXIT_SEMANTIC)


def test_wrong_document_kind_is_semantic_error(monkeypatch):
    _check_cases(monkeypatch, WRONG_KIND_CASES)


def test_invariant_violation_exit_code(monkeypatch):
    _check_exit_codes(monkeypatch, EXIT_INVARIANT)
    assert EXIT_INVARIANT == 5


def test_probe_degree_far_above_the_first_relation():
    # candidates are built only up to the degree searched, so this stops at degree 2
    code, out, err = _run_bounded(["probe-osgood", "--jets", "3", "--maxdeg", "3000", "--json"])
    assert code == EXIT_OK and "Traceback" not in err
    _, small = invoke(["probe-osgood", "--jets", "3", "--maxdeg", "3", "--json"])
    assert json.loads(out)["results"] == json.loads(small)["results"]


def test_realdim_of_a_point_in_c12_answers_in_a_child():
    # 24 pure-power leading monomials: the staircase search skips every variable
    # instead of trying all 2^24 subsets
    names = " ".join(f"z{j}" for j in range(1, 13))
    equations = "".join(f"eq z{j}\n" for j in range(1, 13))
    code, out, err = _run_bounded(["realdim", "-", "--json"], f"vars {names}\n{equations}")
    assert code == EXIT_OK and "Traceback" not in err
    assert json.loads(out)["results"]["real_dimension"] == 0


@pytest.mark.parametrize("command, answers", [
    ("realdim", {"real_dimension": 999}),
    ("hcdim", {"real_dimension": 999, "hc_dimension": 500}),
])
def test_a_hypersurface_over_1000_ring_variables_answers_in_a_child(command, answers):
    # the staircase search keeps its own stack: one recursion level per
    # variable would pass the interpreter's limit here and end in exit 1
    names = " ".join(f"z{j}" for j in range(1, 501))
    code, out, err = run_cli_child([command, "-", "--json"], f"vars {names}\neq z1*conj(z1) - 1\n", 60)
    assert code == EXIT_OK and "Traceback" not in err
    results = json.loads(out)["results"]
    assert {key: results[key] for key in answers} == answers


@pytest.mark.parametrize("command, answers", [
    ("realdim", {"real_dimension": 1999}),
    ("hcdim", {"real_dimension": 1999, "hc_dimension": 1000, "hc_ideal": []}),
])
def test_a_hypersurface_over_2000_ring_variables_answers_within_5_seconds(command, answers):
    # each order's key weights take time quadratic in the variable count; added
    # bit by bit they took about 8 s of hcdim on a 2-vCPU x86-64 VM, now under 1 s
    names = " ".join(f"z{j}" for j in range(1, 1001))
    code, out, err = run_cli_child([command, "-", "--json"], f"vars {names}\neq z1*conj(z1) - 1\n", 5)
    assert code == EXIT_OK and "Traceback" not in err
    results = json.loads(out)["results"]
    assert {key: results[key] for key in answers} == answers


def test_realdim_of_products_of_pairs_answers_in_a_child():
    # leading monomials z1*z2, z3*z4, ...: no variable is a pure power, so the
    # staircase search must cut branches instead of walking the subsets
    names = " ".join(f"z{j}" for j in range(1, 13))
    equations = "".join(f"eq z{j}*z{j + 1}\n" for j in range(1, 13, 2))
    code, out, err = _run_bounded(["realdim", "-", "--json"], f"vars {names}\n{equations}")
    assert code == EXIT_OK and "Traceback" not in err
    assert json.loads(out)["results"]["real_dimension"] == 12


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


def test_probe_osgood_matches_the_benchmark_reference():
    # bench/refs/osgood_probe.json is computed by sympy; witnesses compare as polynomials
    ref_path = FIXTURES.parent / "bench" / "refs" / "osgood_probe.json"
    ref = json.loads(ref_path.read_text(encoding="utf-8"))
    code, out = invoke(["probe-osgood", "--jets", "20,24", "--maxdeg", "10", "--json"])
    assert code == ref["exit"] == EXIT_OK
    ours, theirs = json.loads(out)["results"]["table"], ref["results"]["table"]
    assert [row["jet_order"] for row in ours] == [row["jet_order"] for row in theirs] == [20, 24]
    z = z_context(3)
    for row, expected in zip(ours, theirs):
        assert row["min_relation_degree"] == expected["min_relation_degree"] == 5
        assert parse_polynomial(row["witness"], z) == parse_polynomial(expected["witness"], z)


BENCH = FIXTURES.parent / "bench"

# the benchmark's hard-tier commands: reference name -> command line, input under bench/inputs
HARD_TIER = {
    "cubic_hcdim": ("hcdim", "cubic.sys"),
    "ladder30_hcdim": ("hcdim", "ladder30.sys"),
    "katsura4_groebner": ("groebner", "katsura4.sys"),
    "cyclic5_groebner": ("groebner", "cyclic5.sys"),
    "katsura3_groebner_lex": ("groebner", "katsura3.sys", "--order", "lex"),
}


def _bench_module(name):
    """The module ``bench/<name>.py``, loaded by path, as the benchmark runs it."""
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bench_check():
    """bench/check.py, which compares polynomials with a parser of its own."""
    return _bench_module("check")


def permute_equations(text: str, seed: int) -> str:
    """The document with its ``eq`` lines last, in a seeded random order, as the benchmark feeds it."""
    lines = text.splitlines()
    is_eq = [ln.lstrip().startswith("eq ") for ln in lines]
    eqs = [ln for ln, e in zip(lines, is_eq) if e]
    random.Random(seed).shuffle(eqs)
    return "\n".join([ln for ln, e in zip(lines, is_eq) if not e] + eqs) + "\n"


@pytest.mark.parametrize("ref", HARD_TIER)
def test_hard_tier_matches_the_benchmark_reference(ref, tmp_path):
    # a wrong basis fails here before it fails a benchmark run, which permutes
    # each input's equations afresh on every pass: so file order and two permutations
    command, name, *flags = HARD_TIER[ref]
    reference = json.loads((BENCH / "refs" / f"{ref}.json").read_text(encoding="utf-8"))
    text = (BENCH / "inputs" / name).read_text(encoding="utf-8")
    for seed in (None, 1, 2):
        document = text if seed is None else permute_equations(text, seed)
        # each seed moves the equations of every input that has more than one
        assert (document == text) == (seed is None or text.count("\neq ") == 1)
        path = tmp_path / name
        path.write_text(document, encoding="utf-8")
        code, out = invoke([command, str(path), *flags, "--json"])
        assert _bench_check().check_output(reference, code, out) == [], f"seed {seed}"


# two quartic CR equations in C^2: under the normal pair strategy hcdim found
# no answer in 600 s
Q2 = "vars z1 z2\neq z1^2*conj(z1)^2+z2*conj(z2)^3-1\neq z1*conj(z2)+conj(z1)*z2^2-2\n"


def test_q2_hcdim_answers_in_a_child_and_matches_sympy():
    # tests/data/q2_hcdim.json holds sympy's answer: groebner over QQ_I under
    # ProductOrder (w block first, grevlex inside each block), via bench/make_refs.py
    code, out, err = _run_bounded(["hcdim", "-", "--json"], Q2, timeout=30)
    assert code == EXIT_OK and "Traceback" not in err
    results = json.loads(out)["results"]
    assert results["real_dimension"] == 0
    assert results["hc_dimension"] == 0
    assert len(results["hc_ideal"]) == 8
    reference = json.loads((DATA / "q2_hcdim.json").read_text(encoding="utf-8"))
    assert _bench_check().check_output(reference, code, out) == []


# the hard tier of ROADMAP item 1 that answers in under a second
CYCLIC6 = "vars x1 x2 x3 x4 x5 x6\n" + "".join(
    "eq " + " + ".join("*".join(f"x{(j + t) % 6 + 1}" for t in range(d)) for j in range(6)) + "\n"
    for d in range(1, 6)) + "eq x1*x2*x3*x4*x5*x6 - 1\n"
C3B = "vars z1 z2 z3\neq z1*conj(z1)^2+z2^2*conj(z2)-z3*conj(z3)^2-1\neq z1^2+conj(z2)*z3-2*conj(z1)\n"


def _assert_groebner_basis_of(basis, generators, order):
    """Buchberger's criterion by unbounded normal forms, and every generator reducing to 0."""
    packing = order.packing(basis[0].context.size)
    leads = [g.packed_terms(order).lead_pack for g in basis]
    for (f, a), (g, b) in combinations(zip(basis, leads), 2):
        if packing.lcm(a, b) != a + b:
            assert groebner.normal_form(groebner.s_polynomial(f, g, order), basis, order).is_zero
    assert all(groebner.normal_form(f, basis, order).is_zero for f in generators)


def test_cyclic6_answers_in_a_child_with_a_groebner_basis_of_its_ideal():
    code, out, err = _run_bounded(["groebner", "-", "--json"], CYCLIC6, timeout=20)
    assert code == EXIT_OK and "Traceback" not in err
    system = System.from_document(parse(CYCLIC6))
    basis = [parse_polynomial(g, system.context) for g in json.loads(out)["results"]["basis"]]
    assert len(basis) == 45
    _assert_groebner_basis_of(basis, system.ideal().generators, GREVLEX)


def test_c3b_hcdim_answers_in_a_child_with_its_hc_ideal_inside_the_ideal():
    # the block basis behind the answer has about 800 terms an element, and
    # Buchberger's criterion on it takes over a minute; the grevlex basis of the
    # same ideal is checked instead, and the hc ideal's generator must lie in it
    code, out, err = _run_bounded(["hcdim", "-", "--json"], C3B, timeout=20)
    assert code == EXIT_OK and "Traceback" not in err
    results = json.loads(out)["results"]
    assert (results["real_dimension"], results["hc_dimension"], len(results["hc_ideal"])) == (2, 2, 1)
    ideal = complexify_ideal(System.from_document(parse(C3B)))
    basis = groebner.buchberger(ideal, GREVLEX).basis
    _assert_groebner_basis_of(basis, ideal.generators, GREVLEX)
    generator = parse_polynomial(results["hc_ideal"][0], z_context(3)).embed(ideal.context)
    assert groebner.normal_form(generator, basis, GREVLEX).is_zero


def test_realdim_of_the_cubic_is_2():
    # a signature-based loop that rewrote by add order ("newest wins") and dropped
    # singular remainders reported 3 here
    code, out = invoke(["realdim", str(BENCH / "inputs" / "cubic.sys")])
    assert code == EXIT_OK and "real_dimension: 2\n" in out


def _s_pairs_and_zero_remainders(monkeypatch, argv):
    """S-polynomials one command forms and normal forms that come out zero,
    counted through the module globals that buchberger calls."""
    spairs, zeros = [], []
    s_polynomial, normal_form = groebner.s_polynomial, groebner.normal_form

    def counted_normal_form(*args):
        r = normal_form(*args)
        zeros.append(r.is_zero)
        return r

    monkeypatch.setattr(groebner, "s_polynomial", lambda *args: spairs.append(1) or s_polynomial(*args))
    monkeypatch.setattr(groebner, "normal_form", counted_normal_form)
    code, _ = invoke(argv)
    assert code == EXIT_OK
    return len(spairs), sum(zeros)


def test_katsura3_lex_reduces_17_s_pairs(monkeypatch):
    # the signature-based loop's count in file order: no S-pair reduces to zero
    argv = ["groebner", str(BENCH / "inputs" / "katsura3.sys"), "--order", "lex", "--json"]
    assert _s_pairs_and_zero_remainders(monkeypatch, argv) == (17, 0)


@pytest.mark.parametrize("argv,counts", [
    (["groebner", str(BENCH / "inputs" / "katsura3.sys"), "--order", "lex", "--json"],
     {"groebner.spairs_reduced": 17, "groebner.zero_reductions": 0, "groebner.nonzero_remainders": 17}),
    # one jet product per column past the constant, up to the first relation
    (["probe-osgood", "--jets", "20", "--maxdeg", "6", "--json"], {"jets.jet_mul.calls": 53}),
], ids=["katsura3-lex", "probe-osgood-20"])
def test_the_benchmark_tracer_binds_the_engine_and_changes_no_report(argv, counts):
    # bench/spans.py wraps engine functions and methods by name, so a rename
    # in src would break the benchmark's traced run without this
    code, untraced = invoke(argv)
    assert code == EXIT_OK
    normal_form, jet_mul = groebner.normal_form, jets.Jet.__dict__["__mul__"]
    tracer = _bench_module("spans").Tracer()
    tracer.install()
    try:
        code, traced = invoke(argv)
    finally:
        tracer.uninstall()
    assert groebner.normal_form is normal_form and jets.Jet.__dict__["__mul__"] is jet_mul
    assert code == EXIT_OK and traced == untraced
    assert {name: tracer.counts[name] for name in counts} == counts


# the pair trajectory in file order: a reducer search that chose another reducer
# could change which remainders vanish
@pytest.mark.parametrize("argv,counts", [
    (["hcdim", "cubic.sys"], (31, 2)),
    (["groebner", "cyclic5.sys"], (44, 5)),
    (["groebner", "katsura4.sys"], (10, 1)),
])
def test_hard_tier_s_pairs_and_zero_remainders(monkeypatch, argv, counts):
    command, name = argv
    assert _s_pairs_and_zero_remainders(monkeypatch, [command, str(BENCH / "inputs" / name)]) == counts


def test_katsura4_lex_answers_in_a_child_and_spans_the_grevlex_ideal():
    # 31 s before division went fraction-free over Z[i], about 1.5 s after, and
    # about 0.3 s under the signature-based pair loop
    path = BENCH / "inputs" / "katsura4.sys"
    code, out, err = _run_bounded(["groebner", str(path), "--order", "lex", "--json"], timeout=20)
    assert code == EXIT_OK and "Traceback" not in err
    system = System.from_document(parse(path.read_text(encoding="utf-8")))
    lex = [parse_polynomial(g, system.context) for g in json.loads(out)["results"]["basis"]]
    # every S-pair reducing to 0 makes it a lex basis of the ideal it spans, and
    # the two bases reducing each other's elements to 0 make that ideal katsura-4's
    for f, g in combinations(lex, 2):
        assert groebner.normal_form(groebner.s_polynomial(f, g, LEX), lex, LEX).is_zero
    grevlex = groebner.buchberger(system.ideal(), GREVLEX).basis
    assert all(groebner.normal_form(g, grevlex, GREVLEX).is_zero for g in lex)
    assert all(groebner.normal_form(g, lex, LEX).is_zero for g in grevlex)


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


# Known wrong answers (README, scope notes): the reported dimensions are the
# complexification's, so a presentation that is not real reads wrong with
# exit 0.  These assert the true answers, and flip once the real dimension is
# certified by a real witness point.
KNOWN_WRONG = "the reported dimension is the complexification's, not the real set's"


@pytest.mark.xfail(strict=True, reason=KNOWN_WRONG)
@pytest.mark.parametrize("text", [
    "realvars x y\neq x^2+y^2\n",
    "vars z1 z2\neq z1*conj(z1)+z2*conj(z2)\n",
], ids=["x^2+y^2", "z1*conj(z1)+z2*conj(z2)"])
def test_a_set_that_is_one_point_has_real_dimension_0(monkeypatch, text):
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    code, out = invoke(["realdim", "-", "--json"])
    assert code == EXIT_OK
    assert json.loads(out)["results"]["real_dimension"] == 0


@pytest.mark.xfail(strict=True, reason=KNOWN_WRONG)
def test_an_empty_real_set_exits_4(monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO("realvars x y\neq x^2+y^2+1\n"))
    assert invoke(["hcdim", "-"])[0] == EXIT_SEMANTIC


def test_param_hcdim_command():
    code, out = invoke([
        "param-hcdim", str(FIXTURES / "surface_param.par"), "--json",
    ])
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["results"]["hc_dimension"] == 2
    assert payload["results"]["real_dimension"] == 2
    assert payload["results"]["hc_ideal"] == ["z1*z2 - z3"]


def _count_buchberger(monkeypatch, ideals=None):
    """Replace buchberger at every binding site; returns the list of order names used.

    Each call's ideal is appended to ``ideals`` when a list is given.
    """
    calls = []
    original = groebner.buchberger

    def counting(I, order, config=groebner.DEFAULT_CONFIG):
        calls.append(type(order).__name__)
        if ideals is not None:
            ideals.append(I)
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


def test_ranks_computes_the_source_basis_once(monkeypatch):
    text = "mapvars u v\nmap u\nmap u*v\neq u^2 - v\n"
    ideals = []
    calls = _count_buchberger(monkeypatch, ideals)
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    assert invoke(["ranks", "-", "--json", "--seed", "0"])[0] == EXIT_OK
    source = parse(text).equations
    assert [order for order, I in zip(calls, ideals) if I.generators == source] == ["Grevlex"]


@pytest.mark.parametrize("equation, roots", [
    (f"u^2 - {10**14}", ("10000000", "-10000000")),  # above 10^12, all its factors small
    # above 10^12, trial division leaves the square of two primes above its bound
    (f"u^2 - {(3 * 65537 * 65539) ** 2}", (str(3 * 65537 * 65539), str(-3 * 65537 * 65539))),
    ("(u - 65537)*(u - 65539)", ("65537", "65539")),  # two primes above the trial bound
    ("(720720*u - 1)*(u + 720720)", ("-720720", "1/720720")),  # 240 * 240 divisor pairs
], ids=["smooth", "square-cofactor", "two-large-primes", "many-divisors"])
def test_ranks_finds_a_rational_root(monkeypatch, equation, roots):
    monkeypatch.setattr(sys, "stdin", io.StringIO(f"mapvars u v\nmap u\nmap v\neq {equation}\n"))
    code, out = invoke(["ranks", "-", "--json"])
    assert code == EXIT_OK
    assert json.loads(out)["results"]["fibre_witness"][0] in roots


@pytest.mark.parametrize("constant", [
    36**2570,  # a square, but its 5141^2 divisors are past the candidate cap
    10**3999 + 7,  # factors past the trial primes stay one cofactor
], ids=["square", "cofactor"])
def test_ranks_on_a_4000_digit_constant_ends_in_exit_4_in_a_child(constant):
    assert len(str(constant)) == 4000
    code, out, err = _run_bounded(["ranks", "-"], f"mapvars u v\nmap u\nmap v\neq u^2 - {constant}\n",
                                  timeout=30)
    assert code == EXIT_SEMANTIC and "Traceback" not in err
    assert "note: error: no rational point found" in out


def _argparse_surface(argv):
    """(exit code, stdout, stderr) of one run; argparse writes help to sys.stdout."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = out, err
    try:
        code = run(argv, stdout=out)
    except SystemExit as exc:
        code = exc.code
    finally:
        sys.stdout, sys.stderr = saved
    return code, out.getvalue(), err.getvalue()


def test_argparse_help_and_errors_replay_byte_for_byte(monkeypatch):
    """Help, usage and argparse errors as recorded with the 12-parser build on every call."""
    pinned = json.loads((DATA / "cli_argparse.json").read_text(encoding="utf-8"))
    monkeypatch.setenv("COLUMNS", str(pinned["columns"]))
    # argparse's wording and wrapping change between Python minor versions
    same_python = pinned["python"] == "%d.%d" % sys.version_info[:2]
    for case in pinned["cases"]:
        code, out, err = _argparse_surface(case["argv"])
        assert code == case["exit"], case["argv"]
        if same_python:
            assert (out, err) == (case["stdout"], case["stderr"]), case["argv"]


BENCHMARK_LINES = [
    ("mixed_graph.sys", ["crdim", "-", "--point", "1+2*i, 2", "--json", "--seed", "0"]),
    ("sphere.sys", ["verify-dm", "-", "--point", "1, 0", "--point", "0, i", "--point", "3/5, 4/5*i"]),
    ("osgood.jets", ["probe", "-", "--jets", "3,5,7", "--maxdeg", "2"]),
    ("umbrella.sys", ["groebner", "-", "--order", "lex", "--json"]),
    ("sphere.sys", ["strata", "-", "--k", "1"]),
]


def test_a_command_line_builds_only_its_own_subparser(monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    assert invoke(["realdim", str(FIXTURES / "sphere.sys")])[0] == EXIT_OK
    assert len(built) == 0
    # each shape of line the benchmark runs, reading its fixture from stdin
    for fixture, argv in BENCHMARK_LINES:
        monkeypatch.setattr(sys, "stdin", io.StringIO((FIXTURES / fixture).read_text(encoding="utf-8")))
        assert invoke(argv)[0] == EXIT_OK, argv
    assert len(built) == 0
    built.clear()
    assert _argparse_surface(["-h"])[0] == 0
    assert len(built) == 12


def test_a_valid_command_loads_neither_argparse_nor_gettext_nor_locale():
    # the modules the import and one command add, so the test holds whatever site loaded before it
    argv = ["realdim", str(FIXTURES / "sphere.sys")]
    code = (
        "import io, sys; before = set(sys.modules); import holoclosure.cli; "
        f"holoclosure.cli.run({argv!r}, stdout=io.StringIO()); "
        "forbidden = {'argparse', 'gettext', 'locale', 'fractions', 'decimal', 'numbers'}; "
        "print(' '.join(sorted(forbidden & (set(sys.modules) - before))))"
    )
    src = Path(holoclosure.__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=str(src)),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []
