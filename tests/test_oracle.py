"""Reduced Groebner bases, elimination ideals, staircase dimensions,
kernels and the sampler's rational roots checked against sympy.

sympy is an independent implementation over the same field Q(i)
(``domain=QQ_I``).  It is a test-only dependency, so the module is skipped
where sympy is not installed.
"""

from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import GAUSSIAN_COEFFS, param_ctx, staircase_dimension_brute_force
from holoclosure import linalg
from holoclosure.arith import GaussianRational, gq
from holoclosure.closure import _factor, _rational_roots
from holoclosure.groebner import Ideal, buchberger
from holoclosure.poly import GREVLEX, LEX, BlockElimination, Polynomial

sympy = pytest.importorskip("sympy")
from sympy.polys.domains import QQ, QQ_I  # noqa: E402
from sympy.polys.orderings import ProductOrder, grevlex  # noqa: E402

ORDERS = [(GREVLEX, "grevlex"), (LEX, "lex")]


def _fraction(q) -> Fraction:
    return Fraction(int(q.numerator), int(q.denominator))


def _to_sympy(f: Polynomial, gens):
    terms = {
        m: QQ_I(QQ(c.re.numerator, c.re.denominator), QQ(c.im.numerator, c.im.denominator))
        for m, c in f.terms.items()
    }
    return sympy.Poly.from_dict(terms, *gens, domain=QQ_I)


def _from_sympy(p, ctx, dropped=0) -> Polynomial:
    """Our polynomial over ``ctx``; the first ``dropped`` exponents must be 0 and are cut."""
    terms = p.as_dict(native=True)
    return Polynomial(ctx, {
        m[dropped:]: GaussianRational(_fraction(c.x), _fraction(c.y)) for m, c in terms.items()
    })


@st.composite
def small_ideals(draw):
    """2-4 variables, 1-4 nonzero generators of degree <= 3 and <= 3 terms."""
    n = draw(st.integers(2, 4))
    ctx = param_ctx([f"x{k}" for k in range(1, n + 1)])
    monomial = st.lists(st.integers(0, 3), min_size=n, max_size=n).filter(
        lambda e: sum(e) <= 3
    ).map(tuple)
    generator = st.dictionaries(monomial, GAUSSIAN_COEFFS, min_size=1, max_size=3)
    gens = draw(st.lists(generator, min_size=1, max_size=4))
    return ctx, [Polynomial(ctx, terms) for terms in gens]


@settings(max_examples=150, deadline=None)
@given(small_ideals())
def test_reduced_bases_and_dimension_match_sympy(ideal):
    ctx, gens = ideal
    xs = sympy.symbols(" ".join(ctx.names))
    sympy_gens = [_to_sympy(g, xs) for g in gens]
    for order, name in ORDERS:
        ours = buchberger(Ideal.from_polys(ctx, gens), order)
        theirs = sympy.groebner(sympy_gens, *xs, order=name, domain=QQ_I)
        assert {g.monic(order) for g in ours.basis} == {
            _from_sympy(p, ctx).monic(order) for p in theirs.polys
        }
        sympy_leads = [p.monoms(order=name)[0] for p in theirs.polys]
        assert ours.dimension()[0] == staircase_dimension_brute_force(
            sympy_leads, ctx.size
        )


@settings(max_examples=150, deadline=None)
@given(small_ideals(), st.data())
def test_block_elimination_ideal_matches_sympy(ideal, data):
    # the first k variables form the eliminated group, as w does for hcdim
    ctx, gens = ideal
    k = data.draw(st.integers(1, ctx.size - 1))
    order = BlockElimination((tuple(range(k)), tuple(range(k, ctx.size))))
    ours = buchberger(Ideal.from_polys(ctx, gens), order).elimination(1)
    xs = sympy.symbols(" ".join(ctx.names))
    product = ProductOrder((grevlex, lambda m: m[:k]), (grevlex, lambda m: m[k:]))
    theirs = sympy.groebner([_to_sympy(g, xs) for g in gens], *xs, order=product, domain=QQ_I)
    free = [p for p in theirs.polys if not any(any(m[:k]) for m in p.monoms())]
    assert ours.order == GREVLEX
    assert {g.monic(GREVLEX) for g in ours.basis} == {
        _from_sympy(p, ours.context, k).monic(GREVLEX) for p in free
    }


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 6), st.integers(1, 7), st.data())
def test_nullspace_matches_sympy_rref_kernel(nrows, ncols, data):
    cell = st.one_of(st.just(Fraction(0)), st.builds(Fraction, st.integers(-5, 5), st.integers(1, 4)))
    rows = [data.draw(st.lists(cell, min_size=ncols, max_size=ncols)) for _ in range(nrows)]
    matrix = sympy.Matrix(nrows, ncols, [sympy.Rational(x.numerator, x.denominator)
                                         for row in rows for x in row])
    theirs = []
    for v in matrix.nullspace():  # built from matrix.rref(): one vector per free column
        first = next(x for x in v if x != 0)
        theirs.append([_fraction(x / first) for x in v])
    assert linalg.nullspace(rows, ncols) == theirs


def _is_square(n: int) -> bool:
    return n >= 0 and isqrt(n) ** 2 == n


@st.composite
def products_with_an_irreducible_quadratic(draw):
    """c * x^k * (x^2 + b*x + e) * prod(q*x - p) over Q, as a sympy polynomial.

    One p may be a prime above 10^12, which puts the constant term above
    10^12 and leaves that prime after trial division by the small primes.
    """
    x = sympy.Symbol("x")
    b, e = draw(st.tuples(st.integers(-6, 6), st.integers(-12, 12)).filter(
        lambda be: not _is_square(be[0] ** 2 - 4 * be[1])))
    f = sympy.Rational(draw(st.integers(-9, 9).filter(bool)), draw(st.integers(1, 9)))
    f *= x ** draw(st.integers(0, 2)) * (x ** 2 + b * x + e)
    roots = draw(st.lists(st.tuples(st.integers(-12, 12), st.integers(1, 12)), max_size=4))
    large = st.integers(10**12, 10**15).map(sympy.nextprime)
    roots += draw(st.lists(st.tuples(large, st.integers(1, 12)), max_size=1))
    for p, q in roots:
        f *= q * x - p
    return sympy.Poly(f, x, domain=QQ)


@settings(max_examples=40, deadline=None)
@given(st.one_of(
    st.integers(1, 10**12),
    st.tuples(st.integers(2**16, 10**6), st.integers(2**16, 10**6)).map(
        lambda ab: sympy.nextprime(ab[0]) * sympy.nextprime(ab[1])).filter(lambda n: n <= 10**12),
))
def test_factor_splits_a_constant_up_to_10_12_into_primes(n):
    factors = _factor(n)
    assert {p: e for p, e in factors} == sympy.factorint(n)
    assert len(factors) == len({p for p, _ in factors})


@settings(max_examples=60, deadline=None)
@given(products_with_an_irreducible_quadratic())
def test_rational_roots_match_sympy(poly):
    coeffs = [GaussianRational(_fraction(c)) for c in reversed(poly.all_coeffs())]
    roots = set()
    for factor, _ in poly.factor_list()[1]:
        if factor.degree() == 1:
            a1, a0 = factor.all_coeffs()
            roots.add(-a0 / a1)
    assert _rational_roots(coeffs) == [GaussianRational(_fraction(r)) for r in sorted(roots)]


@settings(max_examples=60, deadline=None)
@given(st.lists(st.one_of(st.just(gq(0)), GAUSSIAN_COEFFS), min_size=1, max_size=5).filter(
    lambda cs: not all(c.is_real() for c in cs)))
def test_rational_roots_of_a_non_real_input_come_only_from_a_linear_one(coeffs):
    degree = max(k for k, c in enumerate(coeffs) if c)
    roots = _rational_roots(list(coeffs))
    if degree == 1:
        assert len(roots) == 1 and coeffs[0] + coeffs[1] * roots[0] == 0
    else:
        assert roots == []
