"""CLI fuzz: generated small documents and command lines end in a documented exit code.

Most cases run in this process; a few run as ``python -m holoclosure.cli`` in
a child process with a timeout, so a hang fails the suite instead of stalling it.
Generated command lines are also read as argparse reads them.
"""

import io
import os
import sys
from unittest import mock

import pytest
from hypothesis import HealthCheck, Phase, example, given, settings
from hypothesis import strategies as st

from conftest import reference_parse_args, run_cli_child
from holoclosure import cli

EXIT_CODES = {0, 2, 3, 4, 5}
CHILD_SECONDS = 60  # each case takes well under a second; only a hang comes near this

# declaration keyword ->
#   (variable names, numbers of them, statement keyword, atom forms, coefficients)
DOCUMENT_KINDS = {
    "vars": (("z1", "z2", "z3"), (1, 2, 3), "eq", ("{}", "conj({})"), ("1", "-1", "1/2", "i")),
    "realvars": (("x1", "y1"), (2,), "eq", ("{}",), ("1", "-1", "1/2", "3")),
    "mapvars": (("v", "t", "u"), (1, 2, 3), "map", ("{}",), ("1", "-1", "1/2", "3")),
    "params": (("t1", "t2", "t3"), (1, 2, 3), "jet", ("{}", "exp({})"), ("1", "-1", "1/2", "3")),
}

# the flags each command needs, beyond the input and the budgets
COMMAND_FLAGS = {
    "hcdim": st.just([]),
    "realdim": st.just([]),
    "param-hcdim": st.just([]),
    "ranks": st.just([]),
    "crdim": st.sampled_from(["0, 0", "1, 0", "0, 1, i"]).map(lambda p: ["--point", p]),
    "strata": st.integers(0, 3).map(lambda k: ["--k", str(k)]),
    "verify-dm": st.sampled_from(["0, 0", "1, i"]).map(lambda p: ["--point", p]),
    "groebner": st.sampled_from([[], ["--order", "lex"]]),
    "eliminate": st.just([]),
    "probe-osgood": st.just(["--jets", "3,4", "--maxdeg", "2"]),
    "probe": st.just(["--jets", "2,3", "--maxdeg", "2"]),
}

GARBAGE = st.text(alphabet="z1xyt^*+-/()#,i =eqvars\t", max_size=20)


@st.composite
def documents(draw):
    """At most 3 variables and 3 statements of degree at most 3, with garbage lines mixed in."""
    keyword = draw(st.sampled_from(sorted(DOCUMENT_KINDS)))
    names, counts, statement, forms, coefficients = DOCUMENT_KINDS[keyword]
    names = names[:draw(st.sampled_from(counts))]
    atom = st.builds(str.format, st.sampled_from(forms), st.sampled_from(names))
    term = st.builds(
        lambda c, atoms: "*".join([c] + atoms),
        st.sampled_from(coefficients),
        st.lists(atom, max_size=3),
    )
    expression = st.lists(term, min_size=1, max_size=3).map(" + ".join)
    lines = [f"{statement} {e}" for e in draw(st.lists(expression, min_size=1, max_size=3))]
    # most documents carry no garbage line, so that commands get past the parser
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2]))):
        lines.insert(draw(st.integers(0, len(lines))), draw(GARBAGE))
    return "\n".join([f"{keyword} {' '.join(names)}"] + lines) + "\n"


def _command_line(command, data) -> list:
    """``command`` reading its document from stdin, with its flags and small budgets."""
    argv = [command] if command == "probe-osgood" else [command, "-"]
    argv += data.draw(COMMAND_FLAGS[command])
    argv += ["--max-pairs", "200", "--max-degree", "12"]
    argv += data.draw(st.sampled_from([[], ["--json"]]))
    return argv


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(documents(), st.sampled_from(sorted(cli._COMMANDS)), st.data())
def test_cli_ends_in_a_documented_exit_code(document, command, data):
    argv = _command_line(command, data)
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.object(sys, "stdin", io.StringIO(document)), \
            mock.patch.object(sys, "stderr", err):
        try:
            code = cli.run(argv, stdout=out)
        except SystemExit as exc:  # the exit on a refused command line
            code = exc.code
    assert code in EXIT_CODES, (argv, document)
    assert "Traceback" not in out.getvalue() + err.getvalue()


# no shrinking: a hanging case would be rerun for each shrink step
@settings(max_examples=10, deadline=None, phases=[Phase.generate],
          suppress_health_check=[HealthCheck.too_slow])
@given(documents(), st.sampled_from(sorted(cli._COMMANDS)), st.data())
def test_cli_child_process_ends_in_time(document, command, data):
    argv = _command_line(command, data)
    code, out, err = run_cli_child(argv, document, CHILD_SECONDS)
    assert code in EXIT_CODES, (argv, document)
    assert "Traceback" not in out + err


ROWS = [row for _, _, arguments in cli._COMMANDS.values() for row in cli._COMMON + arguments]
FLAGS = sorted({name for name, _ in ROWS if name[0] == "-"} | {"-h", "--help"})
# a flag as written: in full, or cut to a prefix (unique or ambiguous)
FLAG_FORMS = st.sampled_from(FLAGS).flatmap(
    lambda flag: st.sampled_from([flag[:n] for n in range(min(3, len(flag)), len(flag) + 1)]))
VALUES = ["3", "0", "-1", "-2.5", "1e3", "1, 0", "-1, 0", "lex", "grevlex", "3,5", "3,x", "x", "",
          "-", "h", "fixtures/sphere.sys"]
ODD_WORDS = ["--", "-h", "-hh", "-hx", "-hhx", "-h=", "-h=h", "--help=", "--he=1", "-i", "---",
             "--bogus", "--=1", "-5", "--max", "--m", "--j", "HCDIM", *cli._COMMANDS]
# "--flag=--" is left out: its value is "--" here, where argparse 3.11 stores []
# (test_an_explicit_double_dash_is_the_value)
WORDS = st.one_of(
    FLAG_FORMS, st.sampled_from(VALUES), st.sampled_from(ODD_WORDS),
    st.builds("{}={}".format, FLAG_FORMS, st.sampled_from(VALUES)),
)


@st.composite
def command_lines(draw):
    """A command line with each of its command's arguments given or left out, then stray words
    inserted anywhere, before the command too."""
    command = draw(st.sampled_from([*cli._COMMANDS, "bogus", None]))
    line = [] if command is None else [command]
    for name, keywords in cli._COMMON + cli._COMMANDS.get(command, (None, None, ()))[2]:
        if draw(st.integers(0, 3)) == 0:
            continue
        # mostly a value the flag takes, so that some lines are accepted
        value = draw(st.sampled_from(keywords.get("choices", ["3"]) if draw(st.integers(0, 3))
                                     else VALUES))
        if name[0] != "-":  # the input, with a "--" before or after it at times
            line += draw(st.sampled_from([[value], ["--", value], [value, "--"]]))
        elif keywords.get("action") == "store_true":
            line.append(draw(st.sampled_from([name, name[:4]])))
        elif draw(st.booleans()):
            line += [name, value]
        else:
            line.append(f"{draw(st.sampled_from([name, name[:-1]]))}={value}")
    for _ in range(draw(st.integers(0, 3))):
        line.insert(draw(st.integers(0, len(line))), draw(WORDS))
    return line


def _parsed(parse, argv):
    """(values, exit code, stdout, stderr) of reading one command line; values None on exit."""
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.object(sys, "stdout", out), mock.patch.object(sys, "stderr", err):
        try:
            values, code = vars(parse(argv)), None
        except SystemExit as exc:
            values, code = None, exc.code
    return values, code, out.getvalue(), err.getvalue()


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(command_lines())
@example([])
@example(["--"])
@example(["--json", "--"])
@example(["--", "hcdim"])
@example(["hcdim", "--", "x"])
@example(["hcdim", "x", "--"])
@example(["hcdim", "x", "--", "--json"])
@example(["hcdim", "-hhx", "x"])
@example(["verify-dm", "x", "--point", "1, 0", "--po=-1, 0"])
@example(["hcdim", "x", "y"])
@example(["hcdim", "x", "--json", "--json"])
@example(["groebner", "x", "--order=lex"])
@example(["groebner", "x", "--order", "LEX"])
@example(["strata", "x", "--k", "-1"])
@example(["verify-dm", "x", "--point", "1, 0", "--point", "0, i"])
@example(["probe-osgood", "--jets", "3,x", "--maxdeg", "0"])  # two bad values: the first is reported
def test_command_lines_read_as_argparse_reads_them(argv):
    with mock.patch.dict(os.environ, {"COLUMNS": "80"}):
        ours = _parsed(cli._parse_args, argv)
        reference = _parsed(reference_parse_args, argv)
    assert ours[:2] == reference[:2], argv
    # argparse's wording and wrapping change between Python minor versions
    if sys.version_info[:2] == (3, 11):
        assert ours[2:] == reference[2:], argv


@pytest.mark.parametrize("argv, outcome", [
    (["crdim", "x", "--point=--"], {"point": "--"}),
    (["strata", "x", "--k=--"], "argument --k: invalid int value: '--'"),
    (["groebner", "x", "--order=--"], "argument --order: invalid choice: '--'"),
    # a prefix sends the line to argparse, which must read the "--" too
    (["ranks", "x", "--se=--"], "argument --seed: invalid int value: '--'"),
    (["probe-osgood", "--jet=--", "--maxdeg", "2"], "argument --jets: invalid int value: '--'"),
    (["crdim", "--poi=--", "--", "x"], {"point": "--"}),
    (["verify-dm", "x", "--po=--", "--js"], {"point": ["--"]}),
])
def test_an_explicit_double_dash_is_the_value(argv, outcome):
    # argparse 3.11 stores [] for it, which ended strata in a traceback
    values, code, _, err = _parsed(cli._parse_args, argv)
    if isinstance(outcome, dict):
        assert code is None and outcome.items() <= values.items()
    else:
        assert code == 2 and outcome in err
