"""CLI fuzz: generated small documents and command lines end in a documented exit code.

Most cases run in this process; a few run as ``python -m holoclosure.cli`` in
a child process with a timeout, so a hang fails the suite instead of stalling it.
"""

import io
import sys
from unittest import mock

from hypothesis import HealthCheck, Phase, given, settings
from hypothesis import strategies as st

from conftest import run_cli_child
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
        except SystemExit as exc:  # argparse's exit on a bad command line
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

