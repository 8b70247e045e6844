"""Monomial orders, polynomial arithmetic, substitution, conjugation."""

import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import param_ctx, rand_nonzero_poly, rand_poly
from holoclosure.arith import GaussianRational, gq
from holoclosure.poly import (
    Block,
    BlockElimination,
    GREVLEX,
    LEX,
    Polynomial,
    VariableContext,
    param_context,
    polynomial_to_text,
    zeta_context,
    zw_context,
)

ZW2 = zw_context(2)
ZETA2 = zeta_context(("z1", "z2"))


def P(ctx, text_terms):
    return Polynomial(ctx, {m: gq(c) for m, c in text_terms.items()})


def var(ctx, name):
    return Polynomial.variable(ctx, name)


# -- orders ------------------------------------------------------------------


def test_grevlex_tie_break():
    # x^2*y > x*y^2 at equal degree
    assert GREVLEX.key((2, 1)) > GREVLEX.key((1, 2))


def test_lex_degree_blind():
    # x > y^5 under lex with x > y
    assert LEX.key((1, 0)) > LEX.key((0, 5))


def test_elimination_block_dominates():
    # order on (z, w) eliminating w: w > z^100
    order = BlockElimination(((1,), (0,)))
    assert order.key((0, 1)) > order.key((100, 0))
    # three groups: x > y^100 > z^100, each group dominating the later ones
    three = BlockElimination(((0,), (1,), (2,)))
    assert three.key((1, 0, 0)) > three.key((0, 100, 0)) > three.key((0, 0, 100))


def test_compare_context_mismatch():
    ctx3 = param_context(("a", "b", "c"))
    with pytest.raises(ValueError):
        var(ZW2, "z1") - var(ctx3, "a")


exponents3 = st.tuples(*(st.integers(0, 6),) * 3)
orders = st.sampled_from([
    GREVLEX,
    LEX,
    BlockElimination(((0, 1), (2,))),
    BlockElimination(((2,), (0,), (1,))),
])


def _cmp(order, a, b):
    ka, kb = order.key(a), order.key(b)
    return (ka > kb) - (ka < kb)


@given(orders, exponents3, exponents3, exponents3)
def test_order_is_total_and_multiplicative(order, a, b, c):
    assert _cmp(order, a, b) == -_cmp(order, b, a)
    assert (_cmp(order, a, b) == 0) == (a == b)
    if _cmp(order, a, b) == -1:
        ac = tuple(x + y for x, y in zip(a, c))
        bc = tuple(x + y for x, y in zip(b, c))
        assert _cmp(order, ac, bc) == -1


@given(orders, exponents3, exponents3)
def test_heap_key_reverses_the_order(order, a, b):
    # a min-heap under heap_key pops the largest monomial first
    assert (order.heap_key(a) < order.heap_key(b)) == (_cmp(order, a, b) == 1)


@given(orders, exponents3)
def test_order_well_ordering(order, m):
    one = (0, 0, 0)
    assert _cmp(order, one, m) in (-1, 0)


# -- ring arithmetic ----------------------------------------------------------


def test_difference_of_squares():
    z1, w1 = var(ZW2, "z1"), var(ZW2, "w1")
    assert (z1 + w1) * (z1 - w1) == z1 * z1 - w1 * w1


def test_additive_identity():
    rng = random.Random(7)
    f = rand_poly(rng, ZW2)
    assert f + Polynomial.zero(ZW2) == f


def test_binomial_cube_coefficients():
    z1, w1 = var(ZW2, "z1"), var(ZW2, "w1")
    f = ((z1 + w1).scale(Fraction(1, 2))) ** 3
    expected = {
        (3, 0, 0, 0): Fraction(1, 8),
        (2, 0, 1, 0): Fraction(3, 8),
        (1, 0, 2, 0): Fraction(3, 8),
        (0, 0, 3, 0): Fraction(1, 8),
    }
    assert f == Polynomial(ZW2, {m: gq(c) for m, c in expected.items()})


# -- substitution --------------------------------------------------------------


def test_substitute_zeta_to_zw():
    # zeta1 * conj(zeta1) with zeta1 -> z1, conj(zeta1) -> w1 gives z1*w1
    f = var(ZETA2, "z1") * var(ZETA2, "conj(z1)")
    images = {
        "z1": var(ZW2, "z1"),
        "conj(z1)": var(ZW2, "w1"),
    }
    assert f.substitute(ZW2, images) == var(ZW2, "z1") * var(ZW2, "w1")


def test_substitute_real_part_formula():
    rctx = param_context(("x1",))
    f = var(rctx, "x1")
    half = (var(ZETA2, "z1") + var(ZETA2, "conj(z1)")).scale(Fraction(1, 2))
    assert f.substitute(ZETA2, {"x1": half}) == half


def test_substitute_missing_image():
    f = var(ZW2, "z1")
    with pytest.raises(KeyError):
        f.substitute(ZW2, {})


def test_substitute_is_ring_homomorphism():
    rng = random.Random(11)
    ctx = param_ctx(("a", "b"))
    target = param_ctx(("u", "v"))
    for _ in range(25):
        f = rand_poly(rng, ctx, max_deg=2)
        g = rand_poly(rng, ctx, max_deg=2)
        images = {
            "a": rand_poly(rng, target, max_terms=2, max_deg=1),
            "b": rand_poly(rng, target, max_terms=2, max_deg=1),
        }
        assert (f * g).substitute(target, images) == f.substitute(target, images) * g.substitute(
            target, images
        )


def test_substitute_identity_images():
    rng = random.Random(13)
    images = {name: var(ZW2, name) for name in ZW2.names}
    for _ in range(20):
        f = rand_poly(rng, ZW2)
        assert f.substitute(ZW2, images) == f


# -- conjugation ----------------------------------------------------------------


ZETA_SWAP = {Block.ZETA: Block.ZETABAR}
ZW_SWAP = {Block.Z: Block.W}


def test_conjugate_paraboloid_equation():
    # zeta2 - zeta1*conj(zeta1)  ->  conj(zeta2) - conj(zeta1)*zeta1
    f = var(ZETA2, "z2") - var(ZETA2, "z1") * var(ZETA2, "conj(z1)")
    expected = var(ZETA2, "conj(z2)") - var(ZETA2, "conj(z1)") * var(ZETA2, "z1")
    assert f.conjugate(ZETA_SWAP) == expected


def test_conjugate_i_z1_under_zw_swap():
    f = var(ZW2, "z1").scale(GaussianRational(0, 1))
    assert f.conjugate(ZW_SWAP) == var(ZW2, "w1").scale(GaussianRational(0, -1))


def test_conjugate_involution():
    rng = random.Random(17)
    for _ in range(30):
        f = rand_poly(rng, ZETA2)
        assert f.conjugate(ZETA_SWAP).conjugate(ZETA_SWAP) == f


def test_conjugate_fixes_real_symmetric_combinations():
    rng = random.Random(19)
    for _ in range(20):
        f = rand_poly(rng, ZETA2)
        h = f + f.conjugate(ZETA_SWAP)
        assert h.conjugate(ZETA_SWAP) == h
    # and moves polynomials that define non-real conditions
    f = var(ZETA2, "z1")
    assert f.conjugate(ZETA_SWAP) != f


def test_conjugate_block_size_mismatch():
    ctx = VariableContext(("a", "b", "c"), (Block.ZETA, Block.ZETA, Block.ZETABAR))
    f = Polynomial.variable(ctx, "a")
    with pytest.raises(ValueError):
        f.conjugate(ZETA_SWAP)


# -- calculus, printing, misc -----------------------------------------------------


def test_derivative():
    z1 = var(ZW2, "z1")
    f = z1 ** 3
    assert f.derivative("z1") == (z1 * z1).scale(3)
    assert f.derivative("w2").is_zero


def test_evaluate():
    f = var(ZW2, "z1") * var(ZW2, "w1") - Polynomial.constant(ZW2, 1)
    vals = {"z1": gq(2), "w1": gq(Fraction(1, 2)), "z2": gq(0), "w2": gq(0)}
    assert f.evaluate(vals) == gq(0)


def test_canonical_text():
    f = var(ZW2, "z1") ** 3 * var(ZW2, "w2") - var(ZW2, "z2").scale(Fraction(2, 3))
    assert polynomial_to_text(f) == "z1^3*w2 - 2/3*z2"
    assert polynomial_to_text(Polynomial.zero(ZW2)) == "0"
    g = var(ZW2, "z1").scale(GaussianRational(Fraction(1, 2), Fraction(3, 4)))
    assert polynomial_to_text(g) == "(1/2+3/4*i)*z1"


def test_context_validation():
    with pytest.raises(ValueError):
        VariableContext(("a", "a"), (Block.PARAM, Block.PARAM))
    with pytest.raises(ValueError):
        VariableContext(("a",), (Block.PARAM, Block.PARAM))


def test_ring_operators():
    f, g = var(ZW2, "z1"), var(ZW2, "w1")
    assert f + g == P(ZW2, {(1, 0, 0, 0): 1, (0, 0, 1, 0): 1})
    assert f - g == P(ZW2, {(1, 0, 0, 0): 1, (0, 0, 1, 0): -1})
    assert f * g == P(ZW2, {(1, 0, 1, 0): 1})
    with pytest.raises(TypeError):
        f / g
