"""Grammar, diagnostics with positions, and round-trip printing."""

import random

import pytest

from conftest import ALL_FIXTURES, load_fixture, parse_polynomial, rand_poly
from holoclosure.arith import GaussianRational, gq
from holoclosure.poly import (
    Polynomial,
    polynomial_to_text,
    zeta_context,
    zw_context,
)
from holoclosure.syntax import (
    ParseError,
    parse,
    parse_point,
    print_document,
)


def test_parse_sphere():
    doc = parse("vars z1 z2\neq z1*conj(z1)+z2*conj(z2)-1")
    assert doc.kind == "system-zeta"
    assert doc.declared == ("z1", "z2")
    assert len(doc.equations) == 1


def test_parse_umbrella():
    doc = parse("realvars x1 y1 x2 y2\neq x2*(x1^2+y1^2)-x1^3\neq y2")
    assert doc.kind == "system-real"
    assert len(doc.equations) == 2


def test_parse_constant_equation_accepted():
    # an inconsistent equation parses fine; emptiness is a downstream semantic
    doc = parse("vars z1\neq i")
    assert doc.kind == "system-zeta"
    assert doc.equations[0] == Polynomial.constant(doc.context, GaussianRational(0, 1))


def test_comments_and_blank_lines():
    doc = parse("# heading\n\nvars z1  # trailing\n\neq z1 # another\n")
    assert doc.declared == ("z1",)


@pytest.mark.parametrize(
    "text,fragment,line,col",
    [
        ("vars z1\neq z9", "unknown identifier", 2, 4),
        ("realvars x1 y1\neq conj(x1)", "only allowed in zeta-form", 2, 4),
        ("realvars x1 y1\neq i*x1", "imaginary unit", 2, 4),
        ("vars z1\neq z1^-1", "exponent must be", 2, 7),
        ("vars z1\neq z1 @", "unexpected character", 2, 7),
        ("vars z1\nvars z2\neq z1", "duplicate declaration", 2, 1),
        ("eq z1\nvars z1", "statement before declaration", 1, 1),
        ("realvars x1 y1 x2\neq x1", "even number", 1, 1),
        ("params t\nmap t\njet t", "not both", 1, 1),
        ("vars z1\neq exp(z1)", "only allowed in jet components", 2, 4),
        ("vars z1", "no statements", 1, 1),
        ("mapvars v\neq v", "at least one map statement", 1, 1),
        ("vars z1\neq (z1", "expected ')'", 2, 7),
        ("vars z1\neq 1/0", "zero denominator", 2, 6),
        ("vars i\neq 1", "reserved identifier", 1, 6),
    ],
)
def test_diagnostics_carry_positions(text, fragment, line, col):
    with pytest.raises(ParseError) as err:
        parse(text)
    assert fragment in err.value.message
    assert (err.value.line, err.value.col) == (line, col)


# One valid document of each kind over the names z and t, and the keyword of
# its own statements.
KIND_BASES = {
    "system-zeta": ("vars z t\neq z", "eq"),
    "system-real": ("realvars z t\neq z", "eq"),
    "map": ("mapvars z t\nmap z", "map"),
    "parametrization": ("params z t\nmap z", "map"),
    "jet-components": ("params z t\njet z", "jet"),
}

_NOT_BOTH = ("a params document takes either map or jet statements, not both", 1, 1)
_CONJ = "conj(...) is only allowed in zeta-form systems"
_EXP = "exp(...) is only allowed in jet components"

# (kind, third line) -> the kind parsed, or (message, line, column)
KIND_RULES = {
    ("system-zeta", "eq z"): "system-zeta",
    ("system-zeta", "map z"): ("'map' statement not allowed in a system-zeta document", 3, 1),
    ("system-zeta", "jet z"): ("'jet' statement not allowed in a system-zeta document", 3, 1),
    ("system-zeta", "eq i"): "system-zeta",
    ("system-zeta", "eq conj(z)"): "system-zeta",
    ("system-zeta", "eq exp(t)"): (_EXP, 3, 4),
    ("system-zeta", "eq exp(s)"): (_EXP, 3, 4),
    ("system-real", "eq z"): "system-real",
    ("system-real", "map z"): ("'map' statement not allowed in a system-real document", 3, 1),
    ("system-real", "jet z"): ("'jet' statement not allowed in a system-real document", 3, 1),
    ("system-real", "eq i"): ("the imaginary unit is not allowed in real-form input", 3, 4),
    ("system-real", "eq conj(z)"): (_CONJ, 3, 4),
    ("system-real", "eq exp(t)"): (_EXP, 3, 4),
    ("system-real", "eq exp(s)"): (_EXP, 3, 4),
    ("map", "eq z"): "map",
    ("map", "map z"): "map",
    ("map", "jet z"): ("'jet' statement not allowed in a map document", 3, 1),
    ("map", "map i"): "map",
    ("map", "map conj(z)"): (_CONJ, 3, 5),
    ("map", "map exp(t)"): (_EXP, 3, 5),
    ("map", "map exp(s)"): (_EXP, 3, 5),
    ("parametrization", "eq z"): ("'eq' statement not allowed in a parametrization document", 3, 1),
    ("parametrization", "map z"): "parametrization",
    ("parametrization", "jet z"): _NOT_BOTH,
    ("parametrization", "map i"): "parametrization",
    ("parametrization", "map conj(z)"): (_CONJ, 3, 5),
    ("parametrization", "map exp(t)"): (_EXP, 3, 5),
    ("parametrization", "map exp(s)"): (_EXP, 3, 5),
    ("jet-components", "eq z"): ("'eq' statement not allowed in a jet-components document", 3, 1),
    ("jet-components", "map z"): _NOT_BOTH,
    ("jet-components", "jet z"): "jet-components",
    ("jet-components", "jet i"): ("jet components must have rational coefficients", 3, 5),
    ("jet-components", "jet conj(z)"): (_CONJ, 3, 5),
    ("jet-components", "jet exp(t)"): "jet-components",
    ("jet-components", "jet exp(s)"): ("exp(...) takes a declared parameter", 3, 9),
}


# each kind under each statement keyword, and under i, conj(z), exp(t) and
# an undeclared exp(s) in a statement of its own keyword
KIND_PROBES = [(kind, f"{kw} z") for kind in KIND_BASES for kw in ("eq", "map", "jet")] + [
    (kind, f"{kw} {expr}") for kind, (_, kw) in KIND_BASES.items()
    for expr in ("i", "conj(z)", "exp(t)", "exp(s)")
]


@pytest.mark.parametrize("kind, line", KIND_PROBES)
def test_each_kind_admits_or_rejects_each_rule_at_its_position(kind, line):
    text = f"{KIND_BASES[kind][0]}\n{line}\n"
    expected = KIND_RULES[kind, line]
    if isinstance(expected, str):
        assert parse(text).kind == expected
        return
    with pytest.raises(ParseError) as err:
        parse(text)
    assert (err.value.message, err.value.line, err.value.col) == expected


@pytest.mark.parametrize("text, expected", [
    ("conj(1)", (_CONJ, 1, 1)),
    ("exp(t)", (_EXP, 1, 1)),
    ("1, exp(1)", (_EXP, 1, 4)),
    ("t", ("unknown identifier 't'", 1, 1)),
])
def test_parse_point_rejects_conj_exp_and_names_at_their_position(text, expected):
    with pytest.raises(ParseError) as err:
        parse_point(text)
    assert (err.value.message, err.value.line, err.value.col) == expected


def test_parse_point_admits_the_imaginary_unit():
    assert parse_point("i, -i") == (GaussianRational(0, 1), GaussianRational(0, -1))


def test_parse_never_panics_on_malformed_input():
    bad = ["", "vars", "eq", "vars z1\neq *", "vars z1\neq z1 z1", "foo bar"]
    for text in bad:
        with pytest.raises(ParseError):
            parse(text)


@pytest.mark.parametrize("name", ALL_FIXTURES)
def test_fixture_round_trip(name):
    doc = parse(load_fixture(name))
    assert parse(print_document(doc)) == doc


def test_random_polynomial_round_trip():
    rng = random.Random(271828)
    contexts = [zeta_context(("z1", "z2")), zw_context(2), zw_context(3)]
    for k in range(100):
        ctx = contexts[k % len(contexts)]
        f = rand_poly(rng, ctx, max_terms=4, max_deg=4)
        assert parse_polynomial(polynomial_to_text(f), ctx) == f


def test_zero_polynomial_prints_as_zero():
    ctx = zw_context(1)
    assert polynomial_to_text(Polynomial.zero(ctx)) == "0"
    assert parse_polynomial("0", ctx).is_zero


def test_parse_point():
    pt = parse_point("1/2+i, 0, -3", 3)
    assert pt[0] == gq(1) / gq(2) + GaussianRational(0, 1)
    assert pt[1] == gq(0)
    assert pt[2] == gq(-3)


def test_parse_point_count_mismatch():
    with pytest.raises(ParseError):
        parse_point("1, 2", 3)


def test_parse_point_rejects_variables():
    with pytest.raises(ParseError):
        parse_point("z1, 0")
