"""Shared fixtures and seeded random generators for the test suite."""

import argparse
import os
import resource
import subprocess
import sys
from fractions import Fraction
from itertools import combinations, product
from pathlib import Path

import pytest
from hypothesis import strategies as st

import holoclosure
from holoclosure import cli, linalg
from holoclosure.arith import GaussianRational
from holoclosure.complexify import ZETA_FORM, System
from holoclosure.groebner import ideal_membership
from holoclosure.poly import GREVLEX, Block, Polynomial, VariableContext, z_context
from holoclosure.syntax import parse

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

SYSTEM_FIXTURES = [
    "totally_real_r1.sys",
    "totally_real_r2.sys",
    "totally_real_r3.sys",
    "complex_line_c2.sys",
    "complex_hyperplane_c3.sys",
    "sphere.sys",
    "line_times_real.sys",
    "umbrella.sys",
    "umbrella_stick_germ.sys",
    "paraboloid.sys",
    "mixed_graph.sys",
]

ALL_FIXTURES = SYSTEM_FIXTURES + ["whitney.map", "osgood.jets", "surface_param.par"]


@pytest.fixture
def fixtures_dir():
    return FIXTURES


def run_cli_child(argv, stdin, timeout):
    """(exit code, stdout, stderr) of ``python -m holoclosure.cli`` in a child process.

    The child has ``timeout`` seconds and 1 GiB of address space, so neither a
    hang nor a runaway computation can stall or starve the test process.
    """
    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))

    src = Path(holoclosure.__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, "-m", "holoclosure.cli", *argv], input=stdin, capture_output=True,
        text=True, timeout=timeout, env=dict(os.environ, PYTHONPATH=str(src)), preexec_fn=cap_memory,
    )
    return proc.returncode, proc.stdout, proc.stderr


def _reference_budget(text):
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _reference_jet_orders(text):
    orders = [_reference_budget(part) for part in text.split(",") if part.strip()]
    if not orders:
        raise argparse.ArgumentTypeError(f"expects a comma-separated list of orders, got {text!r}")
    return orders


def reference_parse_args(argv):
    """The namespace argparse gives ``argv`` with the CLI's table, for ``cli._parse_args``.

    The top-level parser holds every subparser, or only the one ``argv[0]``
    names, as the CLI built them when argparse read its command lines.
    """
    command = argv[0] if argv and argv[0] in cli._COMMANDS else None
    parser = argparse.ArgumentParser(
        prog="holoclosure",
        description="holomorphic closure dimension, CR strata, and Gabrielov ranks "
                    "for real algebraic subsets of C^n",
    )
    metavar = None if command is None else "{" + ",".join(cli._COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    types = {cli._budget: _reference_budget, cli._jet_orders: _reference_jet_orders}
    for name in cli._COMMANDS if command is None else (command,):
        _, help_text, arguments = cli._COMMANDS[name]
        sp = sub.add_parser(name, help=help_text)
        for flag, keywords in cli._COMMON + arguments:
            if "type" in keywords:
                keywords = dict(keywords, type=types.get(keywords["type"], keywords["type"]))
            sp.add_argument(flag, **keywords)
    return parser.parse_args(argv)


def load_fixture(name):
    return (FIXTURES / name).read_text(encoding="utf-8")


def system_from_text(text):
    return System.from_document(parse(text))


def system_fixture(name):
    return system_from_text(load_fixture(name))


def parse_polynomial(text, ctx):
    """One expression over ``ctx``, read through the document parser.

    A zeta context is declared by its zeta names (``vars``), a real one by
    all its names (``realvars``); any other is parsed over parameters named
    like its variables (``mapvars``) and embedded.
    """
    blocks = set(ctx.blocks)
    if Block.ZETA in blocks:
        names = [v for v, b in zip(ctx.names, ctx.blocks) if b is Block.ZETA]
        return parse(f"vars {' '.join(names)}\neq {text}\n").equations[0]
    if blocks == {Block.REAL}:
        return parse(f"realvars {' '.join(ctx.names)}\neq {text}\n").equations[0]
    doc = parse(f"mapvars {' '.join(ctx.names)}\nmap {text}\n")
    return doc.map_components[0].embed(ctx)


def evaluate_system(system, point):
    """Values of every generator at a point given by n complex coordinates."""
    if system.form == ZETA_FORM:
        coords = [*point, *(c.conjugate() for c in point)]
    else:
        coords = [part for c in point for part in (c.real_part(), c.imag_part())]
    values = dict(zip(system.context.names, coords))
    return [g.evaluate(values) for g in system.generators]


def rand_fraction(rng, bound=5, den=3):
    return Fraction(rng.randint(-bound, bound), rng.randint(1, den))


def rand_gq(rng, bound=5, den=3):
    return GaussianRational(rand_fraction(rng, bound, den), rand_fraction(rng, bound, den))


def rand_exponents(rng, nvars, max_deg):
    total = rng.randint(0, max_deg)
    m = []
    rest = total
    for _ in range(nvars - 1):
        e = rng.randint(0, rest)
        m.append(e)
        rest -= e
    m.append(rest)
    return tuple(m)


def rand_poly(rng, ctx, max_terms=3, max_deg=3, real=False):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        c = GaussianRational(rand_fraction(rng)) if real else rand_gq(rng)
        if c:
            terms[rand_exponents(rng, ctx.size, max_deg)] = c
    return Polynomial(ctx, terms)


def rand_nonzero_poly(rng, ctx, max_terms=3, max_deg=3, real=False):
    while True:
        f = rand_poly(rng, ctx, max_terms, max_deg, real)
        if not f.is_zero:
            return f


# small nonzero Gaussian rationals for hypothesis-built polynomials
GAUSSIAN_COEFFS = st.builds(
    lambda a, b, c, d: GaussianRational(Fraction(a, c), Fraction(b, d)),
    st.integers(-3, 3), st.integers(-3, 3), st.integers(1, 3), st.integers(1, 3),
).filter(bool)


def reference_gq_text(a):
    """The canonical scalar syntax of a Gaussian rational, built from its Fraction views."""
    def frac(q):
        return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"

    re, im = a.re, a.im
    if im == 0:
        return frac(re)
    im_text = "i" if im == 1 else "-i" if im == -1 else f"{frac(im)}*i"
    if re == 0:
        return im_text
    return f"{frac(re)}{'+' if im > 0 else ''}{im_text}"


def param_ctx(names):
    return VariableContext(tuple(names), (Block.PARAM,) * len(names))


def is_swap_symmetric(ideal):
    """Whether the ideal is closed under conjugation composed with the z/w swap."""
    swap = {Block.Z: Block.W}
    return all(ideal_membership(g.conjugate(swap), ideal) for g in ideal.generators)


def monomial_mul(a, b):
    return tuple(x + y for x, y in zip(a, b))


def monomial_divides(a, b):
    return all(x <= y for x, y in zip(a, b))


def monomial_div(a, b):
    return tuple(x - y for x, y in zip(a, b))


def staircase_dimension_brute_force(monomials, nvars):
    """Independent oracle: subset search directly on monomial generators."""
    supports = [frozenset(k for k, e in enumerate(m) if e) for m in monomials]
    if any(not s for s in supports):
        return None
    for size in range(nvars, -1, -1):
        for S in combinations(range(nvars), size):
            s_set = set(S)
            if not any(sup <= s_set for sup in supports):
                return size
    return None


def reference_relation_probe(components, order, max_degree):
    """(minimal relation degree, witness) of jets of ``order``, or (None, None), on term maps.

    Each candidate monomial of F, in ascending grevlex, is composed by one
    ``Polynomial`` product truncated at the order, from the candidate lowered
    at its first nonzero exponent, and its term map of ``GaussianRational``
    coefficients goes to ``linalg.relations`` as one column.
    """
    polys = [jet.poly for jet in components]
    ctx, r = polys[0].context, len(polys)
    candidates, composed = [], {}

    def columns():
        for degree in range(max_degree + 1):
            alphas = (m for m in product(range(degree + 1), repeat=r) if sum(m) == degree)
            for alpha in sorted(alphas, key=GREVLEX.key):
                if degree:
                    k = next(i for i, e in enumerate(alpha) if e)
                    f = composed[alpha[:k] + (alpha[k] - 1,) + alpha[k + 1:]] * polys[k]
                    f = Polynomial(ctx, {m: c for m, c in f.terms.items() if sum(m) <= order})
                else:
                    f = Polynomial.constant(ctx, 1)
                composed[alpha] = f
                candidates.append(alpha)
                yield f.terms

    for j, relation in linalg.relations(columns()):
        return sum(candidates[j]), Polynomial(z_context(r), {candidates[i]: c for i, c in relation.items()})
    return None, None
