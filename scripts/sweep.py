#!/usr/bin/env python3
"""Write every report of the CLI sweep to a directory, one file per invocation.

Two commits are compared by sweeping each and diffing the directories:

    python scripts/sweep.py OUTDIR
    diff -r OUTDIR_A OUTDIR_B

The sweep runs every fixture under every command (the commands a fixture's
kind does not take end in their error report), the hard-tier inputs under
``bench/inputs`` under hcdim, realdim and groebner in both orders, the
relation probe at the sizes of the benchmark's jet workload, inputs
read from stdin (among them the wide cases ``stdin-wide-hcdim`` and
``stdin-wide-groebner-lex``: 200 declared variables, so 400 ring
variables under grevlex, lex and a two-group block order; powers of
Gaussian, binomial and dense bases; generators whose conjugate is and is
not a scalar multiple of themselves; cyclic-6 under groebner and the c3b
and q2 CR systems under hcdim, which take seconds at commits before the
signature-based pair loop; ``stdin-ranks-rational-roots``, whose sampler
finds a point through the rational roots of a cubic), and the error
paths: unreadable and malformed input (each rule a document kind sets on
its statements and on ``i``, ``conj`` and ``exp``), a refused command
line (a bad flag value, an unknown flag, an unknown command or none), each
budget, semantic failures and a sampler that finds no rational point, the
top-level and a subcommand's help, and command lines in argparse's less
common forms (abbreviated and ``=`` flags, ``--``, a negative point).
Among these, an explicit ``--flag=--``, written in full and as a prefix,
and a repeated flag:

    strata fixtures/sphere.sys --k=--
    groebner fixtures/sphere.sys --max-p=--
    crdim --poi=-- -- fixtures/sphere.sys
    hcdim fixtures/sphere.sys --seed 1 --seed 2

Each invocation runs in this process through ``holoclosure.cli.run``, once
as text and once with ``--json``.  A file holds ``exit <code>``, then what
went to stdout (the report, or the help), then what went to stderr,
if anything, after a ``stderr:`` line.  Help and usage are wrapped at 80
columns whatever the terminal.
Paths are given relative to the repository root, so the reports of two
checkouts can be equal byte for byte.  OUTDIR must be new or empty.
"""

import argparse
import io
import os
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from holoclosure.cli import run  # noqa: E402

FIXTURE_COMMANDS = [
    ["hcdim"],
    ["realdim"],
    ["param-hcdim"],
    ["ranks"],
    ["groebner"],
    ["groebner", "--order", "lex"],
    ["eliminate"],
    ["strata", "--k", "0"],
    ["strata", "--k", "1"],
    ["probe", "--jets", "3,5,7", "--maxdeg", "2"],
]

# points on a fixture's set, for crdim at each and verify-dm at all of them
POINTS = {
    "sphere.sys": ["1, 0", "3/5, 4/5", "0, i"],
    "mixed_graph.sys": ["1+2*i, 2"],
    "umbrella.sys": ["0, 1"],
}

HARD_COMMANDS = [["hcdim"], ["realdim"], ["groebner"], ["groebner", "--order", "lex"]]

# the relation probe at jet orders up to 24 and candidate degrees up to 10
PROBE_CASES = {
    "probe-osgood": ["probe-osgood", "--jets", "3,5", "--maxdeg", "2"],
    "probe-osgood-20,24": ["probe-osgood", "--jets", "20,24", "--maxdeg", "10"],
    "probe-osgood.jets-12,16": ["probe", "fixtures/osgood.jets", "--jets", "12,16", "--maxdeg", "5"],
}

# one equation over 200 declared variables, so 400 ring variables
WIDE = ("vars " + " ".join(f"z{j}" for j in range(1, 201)) + "\neq z1*conj(z1) - 1\n").encode()

# the hard tier of ROADMAP item 1, whose pair trajectories a change to the pair loop moves most
CYCLIC6 = ("vars x1 x2 x3 x4 x5 x6\n" + "".join(
    "eq " + " + ".join("*".join(f"x{(j + t) % 6 + 1}" for t in range(d)) for j in range(6)) + "\n"
    for d in range(1, 6)) + "eq x1*x2*x3*x4*x5*x6 - 1\n").encode()
C3B = b"vars z1 z2 z3\neq z1*conj(z1)^2+z2^2*conj(z2)-z3*conj(z3)^2-1\neq z1^2+conj(z2)*z3-2*conj(z1)\n"
Q2 = b"vars z1 z2\neq z1^2*conj(z1)^2+z2*conj(z2)^3-1\neq z1*conj(z2)+conj(z1)*z2^2-2\n"

STDIN_CASES = {
    "stdin-sphere": (["hcdim", "-"], (ROOT / "fixtures" / "sphere.sys").read_bytes()),
    "stdin-groebner": (["groebner", "-"], b"vars z1 z2\neq z1^2+z2-1\neq z1*z2-1\n"),
    "stdin-empty": (["hcdim", "-"], b""),
    "stdin-probe": (["probe", "-", "--jets", "4,6", "--maxdeg", "3"],
                    b"params v w\njet 1/2*v*exp(w)^3 - w\njet v^2*exp(v)\njet v*w\n"),
    "stdin-wide-hcdim": (["hcdim", "-"], WIDE),
    "stdin-wide-groebner-lex": (["groebner", "-", "--order", "lex"], WIDE),
    # powers expanded by the multinomial theorem: Gaussian coefficients, a long
    # binomial, and a dense base at the edge of the term budget
    "stdin-gaussian-ladder": (["hcdim", "-"], b"vars z1 z2\neq ((1+2*i)*z1 - 3/5*conj(z2) + i)^40 - 1\n"),
    "stdin-binomial-999": (["groebner", "-"], b"vars z1\neq (1+z1)^999\n"),
    "stdin-dense-power": (["groebner", "-"], b"vars z1\neq (1+z1+z1^2+z1^3+z1^4)^9\n"),
    # a generator whose conjugate is -i times itself, and one whose conjugate is new
    "stdin-conjugate-multiple": (["hcdim", "-"], b"vars z1\neq z1 + i*conj(z1)\n"),
    "stdin-conjugate-new": (["hcdim", "-"], b"vars z1 z2\neq z1 + conj(z2)\n"),
    "stdin-cyclic6-groebner": (["groebner", "-"], CYCLIC6),
    "stdin-c3b-hcdim": (["hcdim", "-"], C3B),
    "stdin-q2-hcdim": (["hcdim", "-"], Q2),
    # the sampler's rational roots over Q: a cubic cleared to integer coefficients
    "stdin-ranks-rational-roots": (["ranks", "-"], b"mapvars v t\nmap v*t\nmap t\neq 6*v^3 - 5*v^2 - 2*v + 1\n"),
}

ERROR_CASES = {
    "error-unknown-identifier": (["hcdim", "-"], b"vars z1\neq z9\n"),
    "error-nesting": (["hcdim", "-"], b"vars z1\neq " + b"(" * 3000 + b"z1" + b")" * 3000 + b"\n"),
    "error-missing-file": (["hcdim", "fixtures/missing.sys"], b""),
    "error-directory": (["hcdim", "fixtures"], b""),
    "error-not-utf8": (["hcdim", "-"], b"vars z1\neq z1\n\xff\xfe"),
    "error-budget-flag": (["groebner", "fixtures/sphere.sys", "--max-pairs", "0"], b""),
    "error-jets-flag": (["probe-osgood", "--jets", "0", "--maxdeg", "2"], b""),
    "error-probe-budget": (["probe-osgood", "--jets", "2000", "--maxdeg", "1"], b""),
    "error-pair-budget": (["hcdim", "fixtures/paraboloid.sys", "--max-pairs", "1"], b""),
    "error-degree-budget": (["groebner", "-", "--max-degree", "1"],
                            b"vars z1 z2\neq z1^2+z2-1\neq z1*z2-1\n"),
    # under lex the first element added has a degree-1 lead and total degree 3
    "error-degree-budget-lex": (["groebner", "-", "--order", "lex", "--max-degree", "2"],
                                b"vars z1 z2\neq z1*z2-z2^2-1\neq z1^2-z2\n"),
    "error-term-budget": (["hcdim", "-"], b"vars z1 z2\neq (z1+1)^40*(z2+1)^40\n"),
    "error-exponent-limit": (["groebner", "-", "--order", "lex", "--max-degree", "100000"],
                             b"vars z1 z2\neq z1-z2^1000\neq z1^33-1\n"),
    "error-off-the-set": (["crdim", "fixtures/sphere.sys", "--point", "2, 0"], b""),
    "error-empty-set": (["hcdim", "-"], b"vars z1\neq 1\n"),
    "error-no-rational-point": (["ranks", "-"], b"mapvars u v\nmap u\nmap v\neq u^2 - 2\n"),
    "error-real-imaginary-unit": (["hcdim", "-"], b"realvars x y\neq i*x\n"),
    "error-jet-imaginary-unit": (["probe", "-", "--jets", "3", "--maxdeg", "2"], b"params t\njet i*t\n"),
    "error-map-conj": (["ranks", "-"], b"mapvars u v\nmap conj(u)\nmap v\n"),
    "error-zeta-exp": (["hcdim", "-"], b"vars z1\neq exp(z1)\n"),
    "error-jet-undeclared-exp": (["probe", "-", "--jets", "3", "--maxdeg", "2"], b"params t\njet exp(s)\n"),
    "error-zeta-map": (["hcdim", "-"], b"vars z1\nmap z1\n"),
    "error-parametrization-eq": (["param-hcdim", "-"], b"params t\nmap t\neq t\n"),
    "error-params-map-and-jet": (["param-hcdim", "-"], b"params t\nmap t\njet t\n"),
    "error-realvars-odd": (["hcdim", "-"], b"realvars x1 y1 x2\neq x1\n"),
    "error-unknown-flag": (["hcdim", "fixtures/sphere.sys", "--bogus"], b""),
    "error-unknown-command": (["bogus"], b""),
    "error-no-command": ([], b""),
}

# command lines read as argparse reads them: accepted, or refused with its message
COMMAND_LINE_CASES = {
    "line-abbreviated-flag": (["hcdim", "fixtures/sphere.sys", "--js"], b""),
    "line-equals-value": (["hcdim", "fixtures/sphere.sys", "--seed=3"], b""),
    "line-double-dash": (["hcdim", "--", "fixtures/sphere.sys"], b""),
    "line-equals-on-a-switch": (["hcdim", "fixtures/sphere.sys", "--json=1"], b""),
    "line-ambiguous-prefix": (["hcdim", "fixtures/sphere.sys", "--max", "3"], b""),
    "line-missing-value": (["crdim", "fixtures/sphere.sys", "--point"], b""),
    "line-negative-point": (["crdim", "fixtures/sphere.sys", "--point", "-1, 0"], b""),
    "line-explicit-double-dash": (["strata", "fixtures/sphere.sys", "--k=--"], b""),
    "line-prefix-explicit-double-dash": (["groebner", "fixtures/sphere.sys", "--max-p=--"], b""),
    "line-prefix-double-dash-point": (["crdim", "--poi=--", "--", "fixtures/sphere.sys"], b""),
    "line-repeated-flag": (["hcdim", "fixtures/sphere.sys", "--seed", "1", "--seed", "2"], b""),
}

HELP_CASES = {
    "help-top": (["-h"], b""),
    "help-groebner": (["groebner", "-h"], b""),
}


def invocations():
    """(file stem, argv, stdin bytes) for every invocation of the sweep."""
    cases = []
    for path in sorted((ROOT / "fixtures").glob("*.*")):
        rel = f"fixtures/{path.name}"
        commands = [cmd[:1] + [rel] + cmd[1:] for cmd in FIXTURE_COMMANDS]
        points = POINTS.get(path.name, [])
        commands += [["crdim", rel, "--point", p] for p in points]
        if points:
            commands.append(["verify-dm", rel] + [a for p in points for a in ("--point", p)])
        cases += [(path.name + "__" + "_".join(cmd[:1] + cmd[2:]), cmd, b"") for cmd in commands]
    for path in sorted((ROOT / "bench" / "inputs").glob("*.sys")):
        cases += [(f"bench-{path.name}__" + "_".join(cmd), cmd[:1] + [f"bench/inputs/{path.name}"] + cmd[1:], b"")
                  for cmd in HARD_COMMANDS]
    cases += [(name, argv, b"") for name, argv in PROBE_CASES.items()]
    cases += [(name, argv, stdin) for name, (argv, stdin) in {**STDIN_CASES, **ERROR_CASES, **COMMAND_LINE_CASES, **HELP_CASES}.items()]
    return [(re.sub(r"[^A-Za-z0-9.,_+-]", "_", name), argv, stdin) for name, argv, stdin in cases]


def invoke(argv, stdin: bytes):
    """(exit code, stdout, stderr) of one in-process CLI run reading ``stdin``."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin, sys.stdout, sys.stderr
    # help goes to sys.stdout, not to the report's stream
    sys.stdin, sys.stdout, sys.stderr = io.TextIOWrapper(io.BytesIO(stdin), encoding="utf-8"), out, err
    try:
        code = run(argv, stdout=out)
    except SystemExit as exc:  # the exit on -h or a refused command line
        code = exc.code
    finally:
        sys.stdin, sys.stdout, sys.stderr = saved
    return code, out.getvalue(), err.getvalue()


def main(argv=None):
    parser = argparse.ArgumentParser(description="Write every report of the CLI sweep to OUTDIR.")
    parser.add_argument("outdir", type=Path)
    out = parser.parse_args(argv).outdir.resolve()
    if out.exists() and any(out.iterdir()):
        raise SystemExit(f"{out} is not empty")
    out.mkdir(parents=True, exist_ok=True)
    os.chdir(ROOT)
    os.environ["COLUMNS"] = "80"  # help and usage wrap to the terminal's width
    written = 0
    for stem, argv, stdin in invocations():
        for suffix, extra in (("txt", []), ("json", ["--json"])):
            code, report, err = invoke(argv + extra, stdin)
            text = f"exit {code}\n{report}" + (f"stderr:\n{err}" if err else "")
            (out / f"{stem}.{suffix}").write_text(text, encoding="utf-8")
            written += 1
    print(f"wrote {written} reports to {out}")


if __name__ == "__main__":
    main()
