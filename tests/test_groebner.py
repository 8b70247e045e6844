"""Normal forms, Buchberger, elimination, and staircase dimension."""

import copy
import random
from fractions import Fraction
from itertools import combinations, permutations
from operator import add
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import (
    GAUSSIAN_COEFFS,
    monomial_div,
    monomial_divides,
    param_ctx,
    parse_polynomial,
    rand_exponents,
    rand_gq,
    rand_nonzero_poly,
    staircase_dimension_brute_force,
    system_from_text,
)
from holoclosure import groebner
from holoclosure.arith import GaussianRational, gq
from holoclosure.complexify import complexify_ideal
from holoclosure.errors import ResourceLimitError
from holoclosure.groebner import (
    GroebnerBasis,
    GroebnerConfig,
    Ideal,
    buchberger,
    eliminate,
    ideal_dimension,
    ideal_membership,
    normal_form,
    s_polynomial,
)
from holoclosure.poly import (
    Block,
    BlockElimination,
    GREVLEX,
    LEX,
    MAX_EXPONENT,
    Polynomial,
    VariableContext,
    _RowsPolynomial,
    polynomial_to_text,
    zw_context,
)

XY = param_ctx(("x", "y"))
XYZ = param_ctx(("x", "y", "z"))
ZW2 = zw_context(2)


def pp(ctx, text):
    return parse_polynomial(text, ctx)


def test_normal_form_single_step():
    # x^2*y mod {x^2 - y} -> y^2
    r = normal_form(pp(XY, "x^2*y"), [pp(XY, "x^2 - y")], GREVLEX)
    assert r == pp(XY, "y^2")


def test_normal_form_by_no_reducers_is_the_dividend():
    f = pp(XYZ, "3*x^3*y - y*z^2 + 5")
    for order in (GREVLEX, LEX, BlockElimination(((2,), (0, 1)))):
        assert normal_form(f, [], order) == f
        assert normal_form(f, [Polynomial(XYZ, {})], order) == f


def test_normal_form_of_member_is_zero():
    G = [pp(XY, "x^2 - y"), pp(XY, "x*y - 1")]
    for g in G:
        assert normal_form(g, G, GREVLEX).is_zero


def test_normal_form_lex_hand_division():
    # x^3 - z = x*(x^2 - y) + x*y - z, and x*y - z is irreducible mod x^2
    r = normal_form(pp(XYZ, "x^3 - z"), [pp(XYZ, "x^2 - y")], LEX)
    assert r == pp(XYZ, "x*y - z")


def test_buchberger_hand_example():
    # S(xy-1, y^2-1) = x - y by hand; reduction leaves {x - y, y^2 - 1}
    I = Ideal.from_polys(XY, [pp(XY, "x*y - 1"), pp(XY, "y^2 - 1")])
    gb = buchberger(I, LEX)
    assert set(gb.basis) == {pp(XY, "x - y"), pp(XY, "y^2 - 1")}


def test_buchberger_coprime_leading_terms():
    I = Ideal.from_polys(ZW2, [pp(ZW2, "z2"), pp(ZW2, "w2")])
    gb = buchberger(I, GREVLEX)
    assert set(gb.basis) == {pp(ZW2, "z2"), pp(ZW2, "w2")}


def test_buchberger_principal_ideal():
    # one generator: inter-reduction divides it by an empty reducer list
    for text in ("2*x^2 - 4*y", "3*x^3*y - x*y^2 + 7*y - 1"):
        f = pp(XY, text)
        for order in (GREVLEX, LEX):
            gb = buchberger(Ideal.from_polys(XY, [f]), order)
            assert gb.basis == (f.monic(order),)


def test_buchberger_zero_ideal():
    gb = buchberger(Ideal(XY, ()), GREVLEX)
    assert gb.basis == ()


def test_eliminate_coordinate_block():
    I = Ideal.from_polys(ZW2, [pp(ZW2, "z2"), pp(ZW2, "w2")])
    out = eliminate(I, Block.W)
    assert [str(n) for n in out.context.names] == ["z1", "z2"]
    assert len(out.generators) == 1
    assert out.generators[0] == parse_polynomial("z2", out.context)


def test_eliminate_graph_of_identity():
    I = Ideal.from_polys(ZW2, [pp(ZW2, "w1 - z1"), pp(ZW2, "w2 - z2")])
    out = eliminate(I, Block.W)
    assert out.generators == ()


def _twisted_cubic_graph():
    ctx = VariableContext(
        ("v", "t", "z1", "z2", "z3"),
        (Block.PARAM, Block.PARAM, Block.Z, Block.Z, Block.Z),
    )
    gens = [pp(ctx, "z1 - v"), pp(ctx, "z2 - v*t"), pp(ctx, "z3 - v*t^2")]
    return ctx, Ideal.from_polys(ctx, gens)


def test_eliminate_twisted_cubic():
    ctx, I = _twisted_cubic_graph()
    out = eliminate(I, Block.PARAM)
    expected = parse_polynomial("z2^2 - z1*z3", out.context)
    assert list(out.generators) == [expected]
    # inclusion 1: the relation really lies in the graph ideal (substitution)
    sub_ctx = param_ctx(("v", "t"))
    images = {
        "z1": pp(sub_ctx, "v"),
        "z2": pp(sub_ctx, "v*t"),
        "z3": pp(sub_ctx, "v*t^2"),
    }
    assert expected.rename(ctx, [ctx.index(n) for n in out.context.names]).substitute(
        sub_ctx, {**images, "v": pp(sub_ctx, "v"), "t": pp(sub_ctx, "t")}
    ).is_zero
    # inclusion 2: every output generator is a member of the original ideal
    for g in out.generators:
        lifted = g.rename(ctx, [ctx.index(n) for n in out.context.names])
        assert ideal_membership(lifted, I)


def test_eliminate_keeps_generators_free_of_block():
    I = Ideal.from_polys(ZW2, [pp(ZW2, "z1^2 - z2"), pp(ZW2, "w1 - z1")])
    out = eliminate(I, Block.W)
    lift = lambda g: g.rename(ZW2, [ZW2.index(n) for n in out.context.names])
    assert any(lift(g) == pp(ZW2, "z1^2 - z2") for g in out.generators)
    for g in out.generators:
        assert ideal_membership(lift(g), I)


def test_dimension_zero_ideal():
    assert ideal_dimension(Ideal(ZW2, ())) == 4


def test_dimension_hypersurface():
    I = Ideal.from_polys(ZW2, [pp(ZW2, "z1*w1 + z2*w2 - 1")])
    assert ideal_dimension(I) == 3


def test_dimension_monomial_example():
    I = Ideal.from_polys(XY, [pp(XY, "x*y")])
    assert ideal_dimension(I) == 1


def test_dimension_unit_ideal_is_empty():
    I = Ideal.from_polys(XY, [pp(XY, "x"), pp(XY, "x - 1")])
    assert ideal_dimension(I) is None


def test_membership_examples():
    ctx, I = _twisted_cubic_graph()
    assert ideal_membership(pp(ctx, "z2^2 - z1*z3"), I)
    assert not ideal_membership(
        Polynomial.constant(XY, 1), Ideal.from_polys(XY, [pp(XY, "x")])
    )
    f, g, h = pp(XY, "x + y"), pp(XY, "x*y"), pp(XY, "y^2 - 1")
    assert ideal_membership(f, Ideal.from_polys(XY, [f * g + f * h, f]))


def test_all_s_polynomials_reduce_to_zero_random():
    rng = random.Random(2024)
    for _ in range(60):
        nv = rng.randint(1, 3)
        ctx = param_ctx([f"x{j}" for j in range(1, nv + 1)])
        gens = [rand_nonzero_poly(rng, ctx) for _ in range(rng.randint(1, 3))]
        gb = buchberger(Ideal.from_polys(ctx, gens), GREVLEX)
        for a in range(len(gb.basis)):
            for b in range(a + 1, len(gb.basis)):
                s = s_polynomial(gb.basis[a], gb.basis[b], GREVLEX)
                assert normal_form(s, gb.basis, GREVLEX).is_zero


def test_dimension_matches_brute_force_on_monomial_ideals():
    rng = random.Random(77)
    for _ in range(60):
        nv = rng.randint(1, 4)
        ctx = param_ctx([f"x{j}" for j in range(1, nv + 1)])
        monos = []
        for _ in range(rng.randint(1, 4)):
            m = rand_exponents(rng, nv, 4)
            if any(m):
                monos.append(m)
        if not monos:
            continue
        gens = [Polynomial(ctx, {m: 1}) for m in monos]
        assert ideal_dimension(Ideal.from_polys(ctx, gens)) == staircase_dimension_brute_force(
            monos, nv
        )


def test_dimension_invariant_under_generator_permutation():
    rng = random.Random(99)
    ctx = param_ctx(("x", "y", "z"))
    for _ in range(15):
        gens = [rand_nonzero_poly(rng, ctx) for _ in range(3)]
        reference = ideal_dimension(Ideal.from_polys(ctx, gens))
        shuffled = gens[:]
        rng.shuffle(shuffled)
        assert ideal_dimension(Ideal.from_polys(ctx, shuffled)) == reference


BLOCK_ORDERS = [
    BlockElimination(((0,), (1, 2, 3))),
    BlockElimination(((2, 3), (0, 1))),
    BlockElimination(((1,), (3,), (0, 2))),
    BlockElimination(((0, 1), (2,), (3,))),
]


def test_block_bases_give_grevlex_dimension_and_elimination_ideals():
    # the dimension is the same off any term order, and the part of a block
    # basis free of its leading groups is the reduced basis of that
    # elimination ideal under the order of the remaining groups
    rng = random.Random(4242)
    ctx = param_ctx(("a", "b", "c", "d"))
    for k in range(24):
        gens = [rand_nonzero_poly(rng, ctx, max_deg=2) for _ in range(rng.randint(1, 3))]
        I = Ideal.from_polys(ctx, gens)
        order = BLOCK_ORDERS[k % len(BLOCK_ORDERS)]
        gb = buchberger(I, order)
        assert gb.dimension()[0] == ideal_dimension(I)
        for count in range(1, len(order.groups)):
            part = gb.elimination(count)
            J = Ideal(part.context, part.basis)
            assert part.dimension()[0] == ideal_dimension(J)
            assert part.basis == buchberger(J, part.order).basis
            if count == len(order.groups) - 1:
                assert part.order == GREVLEX
                assert part.basis == buchberger(J, GREVLEX).basis
                # the same ideal off a two-group order ranking all leading groups as one
                merged = tuple(sorted(k for g in order.groups[:count] for k in g))
                two = buchberger(I, BlockElimination((merged, order.groups[-1])))
                assert two.elimination(1).basis == part.basis


@pytest.mark.parametrize("order", [GREVLEX, LEX, BlockElimination(((0,), (1, 2)))])
def test_redundant_generators_give_the_same_basis(order):
    # repeats, scalar multiples and monomial multiples of generators, shuffled,
    # put duplicate and non-minimal leads into the basis inter-reduction reads
    rng = random.Random(2323)
    sizes = set()
    for _ in range(12):
        gens = []
        for _ in range(rng.randint(2, 3)):
            terms = {}
            while len(terms) < 3:
                m = rand_exponents(rng, 3, 3)
                if any(m):
                    terms[m] = rand_gq(rng)
            gens.append(Polynomial(XYZ, terms))
        expected = buchberger(Ideal.from_polys(XYZ, gens), order).basis
        monomial = Polynomial(XYZ, {rand_exponents(rng, 3, 2): gq(1)})
        scaled = gens[-1].scale(GaussianRational(Fraction(-3, 2), 1))
        redundant = gens + [gens[0], scaled, gens[0] * monomial, gens[-1] * monomial]
        rng.shuffle(redundant)
        assert buchberger(Ideal.from_polys(XYZ, redundant), order).basis == expected
        sizes.add(len(expected))
    assert max(sizes) >= 4  # not only principal ideals and the unit ideal


def test_inter_reduction_divides_each_kept_element_once_through_one_table(monkeypatch):
    x, y = pp(XYZ, "x"), pp(XYZ, "y")
    B = buchberger(Ideal.from_polys(XYZ, [pp(XYZ, "x^2 - y"), pp(XYZ, "x*y - z")]), GREVLEX).basis
    assert len(B) >= 3
    # each element past the first keeps its lead but has a tail term its predecessor's lead divides
    unreduced = [B[i] + B[i - 1].scale(5) for i in range(1, len(B))]
    kept = [B[0], *unreduced]
    dropped = [B[0].scale(3), B[-1] * x, unreduced[0] * y, B[0]]
    calls = []
    original = groebner.normal_form
    monkeypatch.setattr(
        groebner, "normal_form",
        lambda f, G, order, table=None: calls.append((f, table)) or original(f, G, order, table),
    )
    # the sort is stable, so of two equal leads the first listed is kept
    assert groebner._reduce_basis([*kept[::-1], *dropped], GREVLEX) == B
    # the first kept element has no reduced element before it to divide by
    assert len(calls) == len(kept) - 1
    assert all(f is g for (f, _), g in zip(calls, kept[1:]))
    assert calls[0][1] is not None and all(table is calls[0][1] for _, table in calls)


def test_buchberger_keeps_the_least_lead_of_its_basis_without_a_normal_form(monkeypatch):
    calls = []
    original = groebner.normal_form
    monkeypatch.setattr(
        groebner, "normal_form",
        lambda f, G, order, table=None: calls.append(f) or original(f, G, order, table),
    )
    f = pp(XYZ, "2*x^3 - y*z + 1")
    assert buchberger(Ideal.from_polys(XYZ, [f]), GREVLEX).basis == (f.monic(GREVLEX),)
    assert calls == []
    # the ladder and its conjugate have coprime leads: no S-pair is reduced, and of
    # the two elements only the second is divided, by the first
    ladder = (Path(__file__).resolve().parent.parent / "bench" / "inputs" / "ladder30.sys").read_text()
    basis = buchberger(complexify_ideal(system_from_text(ladder)), GREVLEX).basis
    assert len(basis) == 2 and len(calls) == 1


def test_is_unit_reads_a_lead_pack_and_no_term_map(monkeypatch):
    unit = buchberger(Ideal.from_polys(XY, [pp(XY, "x*y - 2"), pp(XY, "x*y - 1")]), LEX)
    proper = buchberger(Ideal.from_polys(XY, [pp(XY, "x^2 - y"), pp(XY, "x*y - 1")]), LEX)
    assert [type(g) for g in unit.basis] == [_RowsPolynomial]
    assert _RowsPolynomial in {type(g) for g in proper.basis}
    unpacked = []
    original = _RowsPolynomial.__getattr__
    monkeypatch.setattr(_RowsPolynomial, "__getattr__", lambda self, name: unpacked.append(self) or original(self, name))
    assert unit.is_unit and not proper.is_unit
    assert unpacked == []
    assert not GroebnerBasis(XY, LEX, ()).is_unit


def test_pair_budget_exhaustion():
    I = Ideal.from_polys(XYZ, [pp(XYZ, "x^2 - y*z"), pp(XYZ, "y^2 - x*z"), pp(XYZ, "z^2 - x*y")])
    with pytest.raises(ResourceLimitError):
        buchberger(I, LEX, GroebnerConfig(max_pairs=1, max_degree=60))


def test_degree_budget_exhaustion():
    I = Ideal.from_polys(XY, [pp(XY, "x^3 - y"), pp(XY, "x*y^3 - x - 1")])
    with pytest.raises(ResourceLimitError):
        buchberger(I, LEX, GroebnerConfig(max_pairs=50_000, max_degree=2))


def test_exponent_past_the_packed_field_width_is_a_resource_limit():
    # x*y^e reduced by x - y^5000 (lead x under lex) multiplies out to y^(e + 5000)
    reducer = Polynomial(XY, {(1, 0): gq(1), (0, 5000): gq(-1)})
    at_limit = Polynomial(XY, {(1, MAX_EXPONENT - 5000): 1})
    assert normal_form(at_limit, [reducer], LEX) == Polynomial(XY, {(0, MAX_EXPONENT): 1})
    past_limit = Polynomial(XY, {(1, MAX_EXPONENT - 4999): 1})
    with pytest.raises(ResourceLimitError, match="packed exponent limit of 32767"):
        normal_form(past_limit, [reducer], LEX)
    # an exponent that does not fit its field is refused before any arithmetic
    too_wide = Polynomial(XY, {(MAX_EXPONENT + 1, 0): 1})
    with pytest.raises(ResourceLimitError, match="exponent 32768 exceeds"):
        normal_form(too_wide, [reducer], LEX)
    with pytest.raises(ResourceLimitError, match="exponent 32768 exceeds"):
        too_wide.leading(GREVLEX)


def test_determinism():
    rng = random.Random(5)
    ctx = param_ctx(("x", "y", "z"))
    gens = [rand_nonzero_poly(rng, ctx) for _ in range(3)]
    a = buchberger(Ideal.from_polys(ctx, gens), GREVLEX)
    b = buchberger(Ideal.from_polys(ctx, gens), GREVLEX)
    assert a.basis == b.basis


def first_independent_set(monomials, nvars):
    """Model: every subset, largest first and in combinations order, with no pruning."""
    supports = [frozenset(k for k, e in enumerate(m) if e) for m in monomials]
    if any(not s for s in supports):
        return None, None
    for size in range(nvars, -1, -1):
        for S in combinations(range(nvars), size):
            if not any(sup <= set(S) for sup in supports):
                return size, frozenset(S)


def test_dimension_witness_matches_the_unpruned_subset_search():
    # leading monomials that are pure powers are the variables the search skips
    rng = random.Random(31)
    for _ in range(300):
        nv = rng.randint(1, 6)
        ctx = param_ctx([f"x{j}" for j in range(1, nv + 1)])
        monos = set()
        for _ in range(rng.randint(0, 5)):
            if rng.random() < 0.4:
                m = [0] * nv
                m[rng.randrange(nv)] = rng.randint(1, 3)
                monos.add(tuple(m))
            else:
                monos.add(rand_exponents(rng, nv, 3))
        basis = tuple(Polynomial(ctx, {m: 1}) for m in sorted(monos))
        assert GroebnerBasis(ctx, GREVLEX, basis).dimension() == first_independent_set(monos, nv)


def test_basis_is_fully_reduced():
    rng = random.Random(616)
    for _ in range(40):
        nv = rng.randint(1, 3)
        ctx = param_ctx([f"x{j}" for j in range(1, nv + 1)])
        gens = [rand_nonzero_poly(rng, ctx) for _ in range(rng.randint(1, 3))]
        gb = buchberger(Ideal.from_polys(ctx, gens), GREVLEX)
        leads = [g.leading(GREVLEX) for g in gb.basis]
        for i, g in enumerate(gb.basis):
            assert leads[i][1] == gq(1)
            for j, (lm, _) in enumerate(leads):
                if i == j:
                    continue
                assert not any(monomial_divides(lm, m) for m in g.terms)


def test_normal_form_postconditions():
    # dual route: the division remainder differs from f by an ideal member,
    # and no remainder term is divisible by a basis leading monomial
    rng = random.Random(31)
    for _ in range(15):
        ctx = param_ctx(("x", "y"))
        gens = [rand_nonzero_poly(rng, ctx, max_deg=2) for _ in range(2)]
        I = Ideal.from_polys(ctx, gens)
        gb = buchberger(I, GREVLEX)
        f = rand_nonzero_poly(rng, ctx)
        r = normal_form(f, gb.basis, GREVLEX)
        assert ideal_membership(f - r, I)
        lms = [g.leading(GREVLEX)[0] for g in gb.basis]
        for m in r.terms:
            assert not any(monomial_divides(lm, m) for lm in lms)


def test_cyclic3_lex_basis():
    # classic benchmark; the reduced lex basis is known in closed form
    ctx = param_ctx(("x", "y", "z"))
    gens = [pp(ctx, t) for t in ("x+y+z", "x*y+y*z+z*x", "x*y*z-1")]
    gb = buchberger(Ideal.from_polys(ctx, gens), LEX)
    assert list(gb.basis) == [
        pp(ctx, "z^3 - 1"),
        pp(ctx, "y^2 + y*z + z^2"),
        pp(ctx, "x + y + z"),
    ]


# -- the heap-ordered division loop against the textbook one ---------------

X4 = param_ctx(("a", "b", "c", "d"))
DIVISION_ORDERS = [LEX, GREVLEX, BlockElimination(((2, 3), (0,), (1,)))]


def reference_normal_form(f, G, order, allowed=lambda i, m: True):
    """Division as written in the textbook: re-read the leading term of the
    whole dividend after every step, subtracting one whole reducer multiple;
    reducer i is tried on monomial m only if ``allowed(i, m)``."""
    reducers = [(i, g.leading(order), g) for i, g in enumerate(G) if not g.is_zero]
    remainder = {}
    p = f
    while not p.is_zero:
        m, c = p.leading(order)
        for i, (lm, lc), g in reducers:
            if monomial_divides(lm, m) and allowed(i, m):
                p = p.sub_scaled(g, monomial_div(m, lm), c / lc)
                break
        else:
            remainder[m] = c
            p = Polynomial(p.context, {k: v for k, v in p.terms.items() if k != m})
    return Polynomial(f.context, remainder)


monomials4 = st.tuples(*(st.integers(0, 3),) * 4)


def polys4(max_terms):
    return st.dictionaries(monomials4, GAUSSIAN_COEFFS, max_size=max_terms).map(
        lambda terms: Polynomial(X4, terms)
    )


nonzero_polys4 = polys4(6).filter(lambda f: not f.is_zero)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(DIVISION_ORDERS), polys4(8), st.lists(polys4(4), max_size=3))
def test_normal_form_matches_textbook_division(order, f, G):
    assert normal_form(f, G, order) == reference_normal_form(f, G, order)


small_monomials4 = st.tuples(*(st.integers(0, 1),) * 4)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(DIVISION_ORDERS), polys4(8), st.lists(nonzero_polys4, min_size=1, max_size=3), st.data())
def test_a_signature_bound_passes_over_each_reducer_whose_multiple_is_not_below_it(order, f, G, data):
    # as in a regular reduction: reducer i, of signature ratio (key(u_i) << 2) | index_i,
    # reduces a term of key k only while (k << 2) + ratio_i lies below S = (key(top) << 2) | index;
    # top is a term of f times a small monomial, so that some reducers pass and some do not
    ratios = [order.key(data.draw(small_monomials4)) << 2 | data.draw(st.integers(0, 3)) for _ in G]
    top = data.draw(st.sampled_from(sorted(f.terms) or [(0,) * 4]))
    top = tuple(map(add, top, data.draw(small_monomials4)))
    S = order.key(top) << 2 | data.draw(st.integers(0, 3))
    expected = reference_normal_form(f, G, order, lambda i, m: (order.key(m) << 2) + ratios[i] < S)
    assert normal_form(f, G, order, None, (S, 2, ratios)) == expected


def test_a_signature_bound_takes_the_first_divisor_below_it_after_the_memos():
    # a*b's first divisor is a - c, whose multiple ties S's key at a larger index;
    # the next divisor, a - d, has a lower index, so a*b reduces to b*d
    G = [pp(X4, "a - c"), pp(X4, "a - d")]
    S = GREVLEX.key((1, 1, 0, 0)) << 2 | 1
    assert normal_form(pp(X4, "a*b"), G, GREVLEX, None, (S, 2, [2, 0])) == pp(X4, "b*d")
    assert normal_form(pp(X4, "a*b"), G, GREVLEX, None, (S, 2, [2, 1])) == pp(X4, "a*b")


# leading coefficients the fraction-free step handles apart from a positive
# integer: off the real axis and not a unit, negative real, and a unit
AWKWARD_LEADS = [
    GaussianRational(Fraction(2, 5), Fraction(3, 5)),
    GaussianRational(-3),
    GaussianRational(Fraction(-1, 2)),
    GaussianRational(0, Fraction(7, 3)),
    GaussianRational(0, -1),
]


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(DIVISION_ORDERS), polys4(8),
    st.lists(st.tuples(nonzero_polys4, st.sampled_from(AWKWARD_LEADS)), min_size=1, max_size=3),
)
def test_normal_form_matches_textbook_division_under_awkward_leads(order, f, scaled):
    G = [g.scale(c / g.leading(order)[1]) for g, c in scaled]
    assert [g.leading(order)[1] for g in G] == [c for _, c in scaled]
    assert normal_form(f, G, order) == reference_normal_form(f, G, order)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(DIVISION_ORDERS), st.lists(polys4(8), min_size=1, max_size=4),
       st.lists(nonzero_polys4, min_size=1, max_size=4))
# a*b meets no divisor among [c], then b arrives: the memo's "none among the
# first 1" must resume at row 1
@example(GREVLEX, [pp(X4, "a*b")], [pp(X4, "c"), pp(X4, "b")])
def test_a_reducer_table_shared_across_a_growing_basis_gives_fresh_remainders(order, fs, gs):
    # as buchberger shares one table: G grows at its end, its rows are appended
    G, table = [], ([], {})
    for g in gs:
        G.append(g)
        table[0].append(g.packed_terms(order))
        for f in fs:
            assert normal_form(f, G, order, table) == normal_form(f, G, order)
    assert table[1] or all(f.is_zero for f in fs)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(DIVISION_ORDERS), polys4(8), st.lists(polys4(4), max_size=3), GAUSSIAN_COEFFS)
def test_normal_form_commutes_with_scalars(order, f, G, c):
    assert normal_form(f.scale(c), G, order) == normal_form(f, G, order).scale(c)


def _views(f, order):
    return dict(f.terms), list(f.sorted_terms(order)), copy.deepcopy(f.packed_terms(order))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(DIVISION_ORDERS), polys4(8), st.lists(polys4(4), max_size=3))
def test_normal_form_leaves_every_cached_view_as_it_was(order, f, G):
    # the kernel scales its dividend in place: a row it shared with f or with a
    # reducer would change that polynomial; reducers built from rows, as
    # basis elements are, and from term maps
    G = G + [normal_form(g, [], order).monic(order) for g in G]
    before = [_views(g, order) for g in [f, *G]]
    normal_form(f, G, order)
    assert [_views(g, order) for g in [f, *G]] == before
    assert [_views(g, order) for g in [f, *G]] == [_views(Polynomial(g.context, g.terms), order)
                                                   for g in [f, *G]]


def test_normal_form_sorts_each_reducer_once_at_most(monkeypatch):
    G = [pp(XYZ, "x^2 - y*z + 1"), pp(XYZ, "y^2 - x*z"), pp(XYZ, "z^3 - x - y")]
    f = pp(XYZ, "x^5*y^3 + x^4*z^4 - y^6*z + 3*x*y*z")
    expected = reference_normal_form(f, G, GREVLEX)
    sorts = []
    original = Polynomial.sorted_terms
    monkeypatch.setattr(
        Polynomial, "sorted_terms", lambda self, order: sorts.append(self) or original(self, order)
    )
    builds = []
    original_packed = Polynomial.packed_terms

    def packed_terms(self, order):
        if order not in self._packed:
            builds.append(self)
        return original_packed(self, order)

    monkeypatch.setattr(Polynomial, "packed_terms", packed_terms)
    # fresh copies, so no view is cached from the reference run; the second
    # division reuses the reducers' views
    reducers = [Polynomial(XYZ, g.terms) for g in G]
    r = normal_form(Polynomial(XYZ, f.terms), reducers, GREVLEX)
    assert r == expected
    assert normal_form(Polynomial(XYZ, f.terms), reducers, GREVLEX) == expected
    assert len(sorts) <= len(G)
    assert all(sum(b is g for b in builds) <= 1 for g in reducers)


ORDERED_READS = {
    "sorted_terms": lambda f, order: f.sorted_terms(order),
    "leading": lambda f, order: f.leading(order),
    "monic": lambda f, order: f.monic(order),
    "text": lambda f, order: polynomial_to_text(f, order),
}


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from(DIVISION_ORDERS), st.sampled_from(DIVISION_ORDERS), polys4(8),
    st.lists(polys4(4), max_size=3), st.permutations(sorted(ORDERED_READS)),
)
def test_a_remainder_read_under_another_order_matches_its_term_map(order, other, f, G, reads):
    # a nonzero remainder holds rows under ``order`` alone, and its term map
    # is unpacked from them only when first read; here the first read is
    # under ``other``, whichever of the reads comes first
    r = normal_form(f, G, order)
    assume(not r.is_zero)
    with pytest.raises(AttributeError):
        Polynomial.terms.__get__(r)
    got = {name: ORDERED_READS[name](r, other) for name in reads}
    fresh = Polynomial(r.context, r.terms)
    assert got == {name: ORDERED_READS[name](fresh, other) for name in reads}


# -- S-polynomials merged on packed views, and the views results carry ------


def reference_s_polynomial(f, g, order):
    """lcm/lt(f) * f - lcm/lt(g) * g by products and a difference over exponent tuples."""
    (mf, cf), (mg, cg) = f.leading(order), g.leading(order)
    lcm = tuple(map(max, mf, mg))
    a = Polynomial(f.context, {monomial_div(lcm, mf): gq(1) / cf}) * f
    b = Polynomial(g.context, {monomial_div(lcm, mg): gq(1) / cg}) * g
    return a - b


def assert_views_are_fresh(f, order):
    """The views a result carries equal those an equal polynomial builds."""
    fresh = Polynomial(f.context, f.terms)
    assert f.sorted_terms(order) == fresh.sorted_terms(order)
    assert f.packed_terms(order) == fresh.packed_terms(order)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(DIVISION_ORDERS), nonzero_polys4, nonzero_polys4, st.booleans())
def test_s_polynomial_matches_the_tuple_definition(order, f, g, monic):
    if monic:
        f, g = f.monic(order), g.monic(order)
        assert_views_are_fresh(f, order)
    s = s_polynomial(f, g, order)
    assert s == reference_s_polynomial(f, g, order)
    assert_views_are_fresh(s, order)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(DIVISION_ORDERS), polys4(8), st.lists(polys4(4), max_size=3))
def test_remainder_and_its_monic_form_carry_fresh_views(order, f, G):
    r = normal_form(f, G, order)
    assert_views_are_fresh(r, order)
    if not r.is_zero:
        m = r.monic(order)
        assert m == r.scale(gq(1) / r.leading(order)[1])
        assert_views_are_fresh(m, order)
        assert m.monic(order) is m


def test_s_polynomial_exponent_past_the_packed_field_width_is_a_resource_limit():
    # under lex the cofactor y^20000 of x^2 - y^20000 lifts its tail to y^40000
    f = Polynomial(XY, {(2, 0): gq(1), (0, 20000): gq(-1)})
    g = Polynomial(XY, {(1, 20000): gq(1), (0, 0): gq(1)})
    with pytest.raises(ResourceLimitError, match="S-polynomial: a product exponent exceeds"):
        s_polynomial(f, g, LEX)


def _bench_system(name):
    return system_from_text((Path(__file__).resolve().parent.parent / "bench" / "inputs" / name).read_text(encoding="utf-8"))


def _cubic_block_basis():
    ideal = complexify_ideal(_bench_system("cubic.sys"))
    return buchberger(ideal, BlockElimination.of_blocks(ideal.context, Block.W))


def _generator_orders(ideal, count, seed):
    orders = list(permutations(ideal.generators))
    if count < len(orders):
        orders = random.Random(seed).sample(orders, count)
    return [Ideal(ideal.context, gens) for gens in orders]


# signatures tie by generator index, so each order of the generators is another
# run; a loop that put the inputs into the basis without queueing them at e_i, or
# that ordered signatures by degree first, gave wrong katsura-3 lex bases
@pytest.mark.parametrize("name,count", [("cubic", 24), ("katsura3-lex", 24), ("cyclic5", 40)])
def test_every_generator_order_gives_the_file_order_basis(name, count):
    if name == "cubic":
        ideal = complexify_ideal(_bench_system("cubic.sys"))
        order = BlockElimination.of_blocks(ideal.context, Block.W)
    else:
        ideal = _bench_system(name.removesuffix("-lex") + ".sys").ideal()
        order = LEX if name.endswith("-lex") else GREVLEX
    expected = buchberger(ideal, order).basis
    orders = _generator_orders(ideal, count, 28)
    assert len(orders) == count and len(set(orders)) == count
    for permuted in orders:
        assert buchberger(permuted, order).basis == expected


def test_elimination_builds_no_dropped_elements_term_map(monkeypatch):
    gb = _cubic_block_basis()
    unpacked = []
    original = _RowsPolynomial.__getattr__
    monkeypatch.setattr(_RowsPolynomial, "__getattr__", lambda self, name: unpacked.append(self) or original(self, name))
    part = gb.elimination(1)
    monkeypatch.undo()
    dropped = [g for g in gb.basis if g.used_indices() & set(gb.order.groups[0])]
    assert len(gb.basis) == 29 and len(part.basis) == 1 and len(dropped) == 28
    # the kept element, least by lead, has the term map inter-reduction kept it with;
    # the dropped ones are built from rows, so reading theirs would pass the hook
    assert all(type(d) is _RowsPolynomial for d in dropped)
    assert not any(g is d for g in unpacked for d in dropped)


@pytest.mark.parametrize("order", [BlockElimination(((2, 3), (0, 1))), BlockElimination(((1,), (3,), (0, 2)))])
def test_elimination_keeps_the_elements_free_of_the_leading_groups(order):
    rng = random.Random(2424)
    ctx = param_ctx(("a", "b", "c", "d"))
    for _ in range(12):
        gens = [rand_nonzero_poly(rng, ctx, max_deg=2) for _ in range(rng.randint(1, 3))]
        gb = buchberger(Ideal.from_polys(ctx, gens), order)
        for count in range(1, len(order.groups)):
            dropped = {k for g in order.groups[:count] for k in g}
            kept = [g for g in gb.basis if not g.used_indices() & dropped]
            assert [g.embed(ctx) for g in gb.elimination(count).basis] == kept


def test_a_basis_run_and_its_rendering_unpack_no_term_map(monkeypatch):
    text = (Path(__file__).resolve().parent.parent / "bench" / "inputs" / "katsura4.sys").read_text(encoding="utf-8")
    ideal = system_from_text(text).ideal()
    unpacked = []
    original = _RowsPolynomial.__getattr__
    monkeypatch.setattr(_RowsPolynomial, "__getattr__", lambda self, name: unpacked.append(self) or original(self, name))
    gb = buchberger(ideal, GREVLEX)
    added = [g for g in gb.basis if type(g) is _RowsPolynomial]
    texts = [polynomial_to_text(g, GREVLEX) for g in gb.basis]
    monkeypatch.undo()
    # the degree budget, signatures and rendering read packs: no element the
    # run adds and no rendered element builds its term map
    assert len(gb.basis) == 13 and len(added) == 12
    assert unpacked == []
    assert texts == [polynomial_to_text(Polynomial(g.context, g.terms), GREVLEX) for g in gb.basis]
