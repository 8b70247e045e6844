"""Monomial orders, polynomial arithmetic, substitution, conjugation."""

import random
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import monomial_divides, monomial_mul, param_ctx, rand_nonzero_poly, rand_poly, reference_gq_text
from holoclosure import arith, poly
from holoclosure.arith import GaussianRational, gq
from holoclosure.errors import ResourceLimitError
from holoclosure.poly import (
    Block,
    BlockElimination,
    FIELD_BITS,
    GREVLEX,
    LEX,
    MAX_EXPONENT,
    Packing,
    Polynomial,
    VariableContext,
    ZETA_SWAP,
    param_context,
    polynomial_to_text,
    zeta_context,
    zw_context,
)
from holoclosure.syntax import parse

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


def _grevlex_reference(m):
    return (sum(m), tuple(-e for e in reversed(m)))


# each order beside a tuple sort key that defines it independently
PACKED_ORDERS = [
    (LEX, lambda m: m),
    (GREVLEX, _grevlex_reference),
    (BlockElimination(((1, 3), (0,), (2, 4))),
     lambda m: (_grevlex_reference((m[1], m[3])), m[0], _grevlex_reference((m[2], m[4])))),
]
packed_orders = st.sampled_from(PACKED_ORDERS)
# exponents mostly small, some near the top of a packed field
exponent = st.one_of(st.integers(0, 4), st.integers(0, MAX_EXPONENT))
exponents5 = st.tuples(*(exponent,) * 5)
half_exponents5 = st.tuples(*(st.integers(0, MAX_EXPONENT // 2),) * 5)


@given(packed_orders, exponents5, exponents5)
def test_int_key_agrees_with_the_tuple_reference_order(order_ref, a, b):
    order, ref = order_ref
    assert (order.key(a) < order.key(b)) == (ref(a) < ref(b))
    assert (order.key(a) == order.key(b)) == (a == b)


@given(packed_orders, half_exponents5, half_exponents5)
def test_int_key_adds_under_multiplication(order_ref, a, b):
    order, _ = order_ref
    assert order.key(monomial_mul(a, b)) == order.key(a) + order.key(b)


@given(packed_orders, exponents5, exponents5, exponents5, exponents5)
# x2^32768*x4^32768 against x0 under the block order: the row x2+x4 reaches 2^16
@example(PACKED_ORDERS[2], (0, 0, MAX_EXPONENT, 0, MAX_EXPONENT), (0, 0, 1, 0, 1),
         (1, 0, 0, 0, 0), (0, 0, 0, 0, 0))
def test_key_sums_order_products_past_the_field_width(order_ref, a, b, c, d):
    # division adds the keys of two packable monomials before it checks the
    # exponents, so a key field must hold the row sums of such a product
    order, ref = order_ref
    ab, cd = monomial_mul(a, b), monomial_mul(c, d)
    ka, kc = order.key(a) + order.key(b), order.key(c) + order.key(d)
    assert (ka < kc) == (ref(ab) < ref(cd))
    assert (ka == kc) == (ab == cd)


def pack(packing, m):
    """The packed exponents of m, the fields ``PackedRows`` holds."""
    return sum(e << poly.FIELD_BITS * k for k, e in enumerate(m))


@given(packed_orders, exponents5)
def test_pack_round_trips(order_ref, m):
    packing = order_ref[0].packing(5)
    assert packing.unpack(pack(packing, m)) == m


@pytest.mark.parametrize("order", [LEX, GREVLEX, PACKED_ORDERS[2][0]])
def test_key_refuses_an_exponent_past_the_packed_field(order):
    packing = order.packing(5)
    assert packing.key((0, 0, MAX_EXPONENT, 0, 0)) == order.key((0, 0, MAX_EXPONENT, 0, 0))
    with pytest.raises(ResourceLimitError, match="exponent 32768 exceeds the packed exponent limit of 32767"):
        packing.key((0, 0, MAX_EXPONENT + 1, 0, 0))


@given(packed_orders, exponents5, exponents5, st.booleans())
def test_guard_bit_divisibility_matches_the_tuple_definition(order_ref, a, c, multiple):
    packing = order_ref[0].packing(5)
    # half the cases test a against a multiple of it, where the sum still packs
    b = tuple(min(x + y, MAX_EXPONENT) for x, y in zip(a, c)) if multiple else c
    divides = not (pack(packing, b) - pack(packing, a)) & packing.guard
    assert divides == monomial_divides(a, b)
    # a product packs to the sum of the packs; a guard bit marks an overflow
    product = pack(packing, a) + pack(packing, c)
    overflow = max(x + y for x, y in zip(a, c)) > MAX_EXPONENT
    assert bool(product & packing.guard) == overflow
    if not overflow:
        assert product == pack(packing, monomial_mul(a, c))


# sizes 1 to 12, fields often at 0 or MAX_EXPONENT
edge_monomial_pairs = st.integers(1, 12).flatmap(lambda n: st.tuples(*(
    st.lists(st.sampled_from([0, MAX_EXPONENT]) | st.integers(0, MAX_EXPONENT), min_size=n, max_size=n)
    .map(tuple) for _ in range(2)
)))


@given(st.sampled_from([LEX, GREVLEX]), edge_monomial_pairs)
@example(GREVLEX, ((MAX_EXPONENT,) * 12, (0,) * 12))
@example(GREVLEX, ((0, MAX_EXPONENT) * 6, (MAX_EXPONENT, 0) * 6))
@example(LEX, ((MAX_EXPONENT,), (MAX_EXPONENT,)))
def test_packed_lcm_and_its_degree_match_the_tuple_definition(order, pair):
    a, b = pair
    packing = order.packing(len(a))
    lcm = packing.lcm(pack(packing, a), pack(packing, b))
    assert lcm == pack(packing, tuple(map(max, a, b)))
    assert packing.lcm(pack(packing, b), pack(packing, a)) == lcm
    # buchberger reads a pair's degree off the packed lcm, field by field, so it
    # is exact past 2^16 (12 fields at MAX_EXPONENT), where adding packed fields would carry
    assert sum(map(max, a, b)) == sum(packing.unpack(lcm)) == packing.degree(lcm)


sized_monomials = st.integers(1, 12).flatmap(
    lambda n: st.lists(st.sampled_from([0, MAX_EXPONENT]) | st.integers(0, MAX_EXPONENT), min_size=n, max_size=n)
    .map(tuple))


@given(st.sampled_from(["grevlex", "lex", "block"]), sized_monomials)
@example("block", (MAX_EXPONENT,) * 12)
@example("lex", (MAX_EXPONENT,))
@example("grevlex", (0,) * 7)
def test_pack_degree_and_pack_key_read_the_unpacked_monomial(kind, m):
    n = len(m)
    # the block order ranks the odd-indexed variables above the even ones; one group if n is 1
    block = BlockElimination(tuple(g for g in (tuple(range(1, n, 2)), tuple(range(0, n, 2))) if g))
    packing = {"grevlex": GREVLEX, "lex": LEX, "block": block}[kind].packing(n)
    p = pack(packing, m)
    assert packing.unpack(p) == m
    assert packing.degree(p) == sum(packing.unpack(p))
    assert packing.pack_key(p) == packing.key(packing.unpack(p))


ctx5 = param_context(("a", "b", "c", "d", "e"))


@given(packed_orders, st.dictionaries(exponents5, st.integers(1, 5), max_size=8))
def test_sorted_terms_is_the_sort_by_the_order_key(order_ref, terms):
    order = order_ref[0]
    f = Polynomial(ctx5, terms)
    assert [m for m, _ in f.sorted_terms(order)] == sorted(terms, key=order.key, reverse=True)


@given(packed_orders, st.dictionaries(exponents5, st.builds(Fraction, st.integers(-5, 5), st.integers(1, 4)),
                                      max_size=8))
def test_sorted_terms_reads_a_cached_view_as_the_sort_orders_the_terms(order_ref, terms):
    order = order_ref[0]
    f = Polynomial(ctx5, terms)
    expected = f.sorted_terms(order)
    if f.is_zero:
        return
    f.packed_terms(order)
    assert f.sorted_terms(order) == expected
    # and a polynomial built from rows is read off them
    monic = f.monic(order)
    lead = expected[0][1]
    assert monic.sorted_terms(order) == [(m, c / lead) for m, c in expected]


def test_rendering_a_term_built_polynomial_with_a_cached_view_reuses_its_terms(monkeypatch):
    # a term-built polynomial holding a grevlex view, as each hc_ideal element
    # does once GroebnerBasis.dimension has read it
    ctx = param_context(["t1", "t2", "t3"])
    f = P(ctx, {(1, 0, 0): Fraction(3, 7), (0, 1, 0): 2, (0, 0, 1): -1, (0, 0, 0): Fraction(1, 5)}) ** 6
    expected = polynomial_to_text(f)
    f.packed_terms(GREVLEX)
    calls = []
    original = arith.from_numerator
    counting = lambda *args: calls.append(args) or original(*args)  # noqa: E731
    monkeypatch.setattr(arith, "from_numerator", counting)
    monkeypatch.setattr(poly, "from_numerator", counting)
    assert polynomial_to_text(f) == expected
    assert calls == []


def test_sorted_terms_over_no_variables():
    f = Polynomial.constant(VariableContext((), ()), 3)
    for order in (LEX, GREVLEX):
        assert f.sorted_terms(order) == [((), gq(3))]


def test_rendering_a_wide_polynomial_builds_no_packing(monkeypatch):
    # 1,234 variables, a size nothing else packs, so a Packing would be built afresh
    ctx = param_context([f"t{k}" for k in range(1234)])
    built = []
    original = Packing.__init__
    monkeypatch.setattr(Packing, "__init__", lambda self, groups, size: built.append(size) or original(self, groups, size))
    f = var(ctx, "t0") * var(ctx, "t1233") + var(ctx, "t5") ** 2 - Polynomial.constant(ctx, 3)
    block = BlockElimination((tuple(range(617, 1234)), tuple(range(617))))
    assert polynomial_to_text(f) == "t5^2 + t0*t1233 - 3"
    assert polynomial_to_text(f, LEX) == "t0*t1233 + t5^2 - 3"
    assert polynomial_to_text(f, block) == "t0*t1233 + t5^2 - 3"
    assert built == []


def _reference_key_weights(rows, size):
    """The key weights bit by bit: one shifted bit per row a variable is in."""
    width = FIELD_BITS + size.bit_length()
    weights = [0] * size
    for r, row in enumerate(rows):
        for k in row:
            weights[k] += 1 << (width * (len(rows) - 1 - r))
    return tuple(weights)


def _grevlex_rows(groups):
    """The 0/1 weight rows of ranked groups: each group's rows g[:len(g)], ..., g[:1], in rank order."""
    return tuple(g[:k] for g in groups for k in range(len(g), 0, -1))


@pytest.mark.parametrize("order, sizes", [
    (LEX, (1, 2, 5, 33, 200)),
    (GREVLEX, (1, 2, 5, 33, 200)),
    (BlockElimination(((0,),)), (1,)),
    (BlockElimination(((1, 3), (0, 2, 4))), (5,)),
    (BlockElimination(((1, 3), (0,), (2, 4))), (5,)),
    (BlockElimination.of_blocks(zw_context(40), Block.W), (80,)),
    (BlockElimination.of_blocks(param_context(["s", "t"]).concat(zw_context(3)), Block.PARAM, Block.W), (8,)),
    (BlockElimination((tuple(range(0, 60, 3)), tuple(range(1, 60, 3)), tuple(range(2, 60, 3)))), (60,)),
])
def test_key_weights_equal_the_bit_by_bit_sum(order, sizes):
    for size in sizes:
        groups = order.ranked_groups(size)
        expected = _reference_key_weights(_grevlex_rows(groups), size)
        assert Packing(groups, size).key_weights == expected


@pytest.mark.parametrize("groups, size", [
    (((1,), (0,)), 3),     # variable 2 left out
    (((0, 1), (1,)), 2),   # variable 1 twice, none missing from the union
    (((0, 1, 2),), 2),     # an index past the variables
    (((0, -1),), 2),       # a negative index
])
def test_packing_refuses_groups_that_do_not_partition_the_variables(groups, size):
    with pytest.raises(ValueError, match="do not partition the"):
        Packing(groups, size)


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


def reference_product(f, g):
    """f * g term by term over exponent tuples and GaussianRational arithmetic."""
    res = {}
    for m1, c1 in f.terms.items():
        for m2, c2 in g.terms.items():
            m = tuple(x + y for x, y in zip(m1, m2))
            res[m] = res.get(m, gq(0)) + c1 * c2
    return {m: c for m, c in res.items() if c}


def reference_power(f, e):
    result = Polynomial.constant(f.context, 1)
    for _ in range(e):
        result = Polynomial(f.context, reference_product(result, f))
    return result.terms


XYZ = param_context(("x", "y", "z"))
# coefficients with denominators and imaginary parts, and units (with zero),
# so that few terms often cancel
kernel_coeffs = st.one_of(
    st.builds(lambda a, b, c, d: GaussianRational(Fraction(a, c), Fraction(b, d)),
              st.integers(-4, 4), st.integers(-4, 4), st.integers(1, 6), st.integers(1, 6)),
    st.sampled_from([gq(0), gq(1), gq(-1), GaussianRational(0, 1), GaussianRational(0, -1)]),
)
kernel_polys = st.dictionaries(
    st.tuples(*(st.integers(0, 3),) * 3), kernel_coeffs, max_size=5
).map(lambda terms: Polynomial(XYZ, terms))


@settings(max_examples=200, deadline=None)
@given(kernel_polys, kernel_polys)
@example(P(XYZ, {(1, 0, 0): 1, (0, 1, 0): 1}), P(XYZ, {(1, 0, 0): 1, (0, 1, 0): -1}))
@example(P(XYZ, {(1, 0, 0): GaussianRational(0, 1), (0, 0, 0): 1}),
         P(XYZ, {(1, 0, 0): GaussianRational(0, 1), (0, 0, 0): -1}))
@example(Polynomial.zero(XYZ), P(XYZ, {(1, 2, 3): Fraction(1, 3)}))
@example(P(XYZ, {(0, 0, 0): Fraction(-2, 3)}), P(XYZ, {(0, 0, 0): GaussianRational(0, Fraction(3, 2))}))
@example(P(XYZ, {(0, 0, 0): Fraction(5, 7)}), P(XYZ, {(2, 0, 1): Fraction(1, 2), (0, 3, 0): 3}))
def test_product_matches_the_tuple_reference(f, g):
    assert (f * g).terms == reference_product(f, g)


@settings(max_examples=60, deadline=None)
@given(kernel_polys, st.integers(0, 4))
@example(P(XYZ, {(1, 0, 0): 1, (0, 1, 0): GaussianRational(0, 1)}), 4)
@example(Polynomial.zero(XYZ), 0)
@example(Polynomial.zero(XYZ), 3)
@example(P(XYZ, {(0, 0, 0): GaussianRational(Fraction(1, 2), Fraction(-1, 3))}), 4)
def test_power_matches_repeated_reference_products(f, e):
    assert (f ** e).terms == reference_power(f, e)


# bases over 0 to 4 variables, and dense univariate ones whose partial products collide
POWER_CONTEXTS = [param_context(tuple(f"t{k}" for k in range(n))) for n in range(5)]
power_bases = st.one_of(
    st.sampled_from(POWER_CONTEXTS).flatmap(lambda ctx: st.dictionaries(
        st.tuples(*(st.integers(0, 3),) * ctx.size), kernel_coeffs, max_size=4
    ).map(lambda terms: Polynomial(ctx, terms))),
    st.lists(kernel_coeffs.filter(bool), min_size=5, max_size=5).map(
        lambda cs: Polynomial(POWER_CONTEXTS[1], {(k,): c for k, c in enumerate(cs)})),
)


@settings(max_examples=150, deadline=None)
@given(power_bases, st.integers(0, 6))
@example(Polynomial.zero(POWER_CONTEXTS[0]), 0)
@example(Polynomial.zero(POWER_CONTEXTS[2]), 4)
@example(Polynomial.constant(POWER_CONTEXTS[0], GaussianRational(Fraction(1, 2), -3)), 6)
@example(Polynomial.constant(POWER_CONTEXTS[3], GaussianRational(0, Fraction(2, 3))), 5)
@example(P(POWER_CONTEXTS[1], {(k,): 1 for k in range(5)}), 6)
@example(P(POWER_CONTEXTS[1], {(1,): GaussianRational(Fraction(3, 7), Fraction(4, 7))}), 999)
@example(P(POWER_CONTEXTS[1], {(1,): Fraction(3, 7)}), 999)
def test_power_equals_the_product_of_e_copies(f, e):
    product = Polynomial.constant(f.context, 1)
    for _ in range(e):
        product = product * f
    assert f ** e == product


def test_powers_of_the_widest_legal_bases_need_no_recursion():
    # both are inside the parser's term budget, comb(e + t - 1, t - 1) <= 1000:
    # one composition per term of a 1,000-term base, and 990 of 2 over 44 terms
    wide = "1 + " + " + ".join(f"z1^{k}" for k in range(1, 1000))
    f, g = parse(f"vars z1\neq ({wide})^1\neq {wide}\n").equations
    assert len(f.terms) == 1000 and f == g
    base = " + ".join(f"{k + 1}*z1^{k}" for k in range(44))
    f, g = parse(f"vars z1\neq ({base})^2\neq {base}\n").equations
    assert f == g * g and len(f.terms) == 87


def test_product_has_no_exponent_limit():
    z1 = var(ZW2, "z1")
    assert z1 ** 40000 * z1 ** 40000 == z1 ** 80000
    assert (z1 ** 40000 * z1 ** 40000).terms == {(80000, 0, 0, 0): gq(1)}


def test_product_across_contexts_is_refused():
    with pytest.raises(ValueError):
        var(ZW2, "z1") * var(ZETA2, "z1")


def test_ladder_power_coefficients_are_multinomials():
    # independent oracle: (z1 + conj(z2) + 1)^30 = sum of 30!/(a! b! c!) z1^a conj(z2)^b
    f = parse("vars z1 z2\neq (z1+conj(z2)+1)^30\n").equations[0]
    a_at, b_at = f.context.index("z1"), f.context.index("conj(z2)")
    assert len(f.terms) == 496
    for m, c in f.terms.items():
        a, b = m[a_at], m[b_at]
        assert sum(m) == a + b <= 30
        assert c == factorial(30) // (factorial(a) * factorial(b) * factorial(30 - a - b))


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


def test_conjugate_without_swap_keeps_exponents_and_conjugates_coefficients():
    f = P(ZETA2, {(2, 0, 1, 0): GaussianRational(1, 2), (0, 1, 0, 0): GaussianRational(-3, 0),
                  (0, 0, 0, 0): GaussianRational(0, Fraction(1, 5))})
    expected = P(ZETA2, {(2, 0, 1, 0): GaussianRational(1, -2), (0, 1, 0, 0): GaussianRational(-3, 0),
                         (0, 0, 0, 0): GaussianRational(0, Fraction(-1, 5))})
    assert f.conjugate() == expected
    assert f.conjugate({}) == expected
    assert f.conjugate().context is ZETA2


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


def reference_polynomial_text(f):
    """polynomial_to_text's layout, with signs and factors read off the Fraction views."""
    chunks = []
    for m, c in f.sorted_terms(GREVLEX):
        neg = c.re < 0 or (c.re == 0 and c.im < 0)
        mag = -c if neg else c
        factor = reference_gq_text(mag)
        factor = f"({factor})" if mag.re != 0 and mag.im != 0 else factor
        mono = "*".join(
            name if e == 1 else f"{name}^{e}" for name, e in zip(f.context.names, m) if e
        )
        body = factor if not mono else mono if (mag.re, mag.im) == (1, 0) else f"{factor}*{mono}"
        chunks.append(("-" if neg else "") + body if not chunks else (" - " if neg else " + ") + body)
    return "".join(chunks) or "0"


@given(kernel_polys)
@example(P(XYZ, {(1, 0, 0): GaussianRational(Fraction(-1, 2), 1), (0, 0, 0): GaussianRational(0, -1)}))
def test_canonical_text_matches_the_fraction_reference(f):
    assert polynomial_to_text(f) == reference_polynomial_text(f)


def test_context_validation():
    with pytest.raises(ValueError, match="duplicate variable names"):
        VariableContext(("a", "a"), (Block.PARAM, Block.PARAM))
    with pytest.raises(ValueError, match="one block label per variable"):
        VariableContext(("a",), (Block.PARAM, Block.PARAM))


def test_ring_operators():
    f, g = var(ZW2, "z1"), var(ZW2, "w1")
    assert f + g == P(ZW2, {(1, 0, 0, 0): 1, (0, 0, 1, 0): 1})
    assert f - g == P(ZW2, {(1, 0, 0, 0): 1, (0, 0, 1, 0): -1})
    assert f * g == P(ZW2, {(1, 0, 1, 0): 1})
    with pytest.raises(TypeError):
        f / g
