"""Jet arithmetic, composition, and the relation-degree probe."""

import operator
from fractions import Fraction
from math import comb, factorial, gcd

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import FIXTURES, parse_polynomial, reference_relation_probe
from holoclosure import jets, linalg
from holoclosure.arith import ONE, ZERO, GaussianRational, gq
from holoclosure.errors import ResourceLimitError
from holoclosure.jets import (
    Jet,
    jet_compose,
    jet_exp,
    jet_from_symbolic,
    osgood_components,
    osgood_probe,
    relation_probe,
)
from holoclosure.poly import GREVLEX, param_context, z_context
from holoclosure.syntax import parse

VW = param_context(("v", "w"))
VT = param_context(("v", "t"))


# -- jet arithmetic against a term-by-term truncated model ------------------------


def _model(terms, order):
    return {m: gq(c) for m, c in terms.items() if c and sum(m) <= order}


def _model_add(a, b):
    res = dict(a)
    for m, c in b.items():
        s = res.get(m, ZERO) + c
        if s:
            res[m] = s
        else:
            res.pop(m, None)
    return res


def _model_mul(a, b, order):
    res = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            if sum(m1) + sum(m2) > order:
                continue
            m = tuple(x + y for x, y in zip(m1, m2))
            s = res.get(m, ZERO) + c1 * c2
            if s:
                res[m] = s
            else:
                res.pop(m, None)
    return res


REAL_COEFFS = st.builds(lambda a, d: Fraction(a, d), st.integers(-3, 3), st.integers(1, 3))


@st.composite
def jet_operands(draw):
    """An order, two term maps over v, w reaching one degree past it, and a power."""
    order = draw(st.integers(0, 4))
    terms = st.dictionaries(st.tuples(st.integers(0, order + 1), st.integers(0, order + 1)),
                            REAL_COEFFS, max_size=6)
    return order, draw(terms), draw(terms), draw(st.integers(0, 3))


@given(jet_operands())
@example((0, {(0, 0): 2, (1, 0): 5}, {(0, 0): Fraction(-1, 3), (0, 1): 1}, 3))
@example((2, {(1, 1): 1, (0, 0): 1}, {(2, 0): 1, (0, 0): -1, (0, 3): 2}, 2))
@example((1, {(1, 0): 1}, {(1, 0): -1}, 2))
def test_jet_arithmetic_matches_the_truncated_model(case):
    order, ta, tb, e = case
    a, b = Jet(VW, order, ta), Jet(VW, order, tb)
    ma, mb = _model(ta, order), _model(tb, order)
    assert a.coeffs == ma and b.coeffs == mb
    power = {(0, 0): ONE}
    for _ in range(e):
        power = _model_mul(power, ma, order)
    for got, want in ((a + b, _model_add(ma, mb)), (a * b, _model_mul(ma, mb, order)), (a ** e, power)):
        assert got.order == order
        assert got.coeffs == want
        assert got == Jet(VW, order, want)
        _assert_canonical(got)
    _assert_canonical(a)
    for low in range(order + 1):
        got = (a * b).truncate(low)
        assert got.order == low and got.coeffs == _model(_model_mul(ma, mb, order), low)
        _assert_canonical(got)


def _assert_canonical(jet):
    """Nonzero rows, ascending by pack and by degree up to the order, over a positive
    denominator that shares no factor with all of them; the view lists the rows' terms."""
    d, packs, numerators = jet.denominator, [p for p, _ in jet.rows], [n for _, n in jet.rows]
    assert d > 0 and gcd(d, *numerators) == 1 and all(numerators)
    assert packs == sorted(set(packs))
    terms = list(jet.coeffs.items())
    assert [c * d for _, c in terms] == numerators
    degrees = [sum(m) for m, _ in terms]
    assert degrees == sorted(degrees) and all(k <= jet.order for k in degrees)


def test_jet_operations_refuse_other_contexts_and_orders():
    a = Jet.variable(VW, 3, "v")
    for b in (Jet.variable(VW, 4, "v"), Jet.variable(VT, 3, "v")):
        for op in (operator.add, operator.mul):
            with pytest.raises(ValueError):
                op(a, b)


def test_jet_equality_and_hash_include_the_order_and_context():
    a = Jet.constant(VW, 2, 1)
    assert a == Jet.constant(VW, 2, 1) and hash(a) == hash(Jet.constant(VW, 2, 1))
    higher = Jet.constant(VW, 3, 1)
    assert higher.coeffs == a.coeffs
    assert higher != a and hash(higher) != hash(a)
    assert Jet.constant(VT, 2, 1) != a
    assert len({a, higher, Jet.constant(VW, 2, 1)}) == 2


def test_jet_rejects_a_non_real_coefficient_where_it_enters():
    with pytest.raises(ValueError):
        Jet(VW, 2, {(1, 0): GaussianRational(0, 1)})
    with pytest.raises(ValueError):
        Jet.constant(VW, 2, GaussianRational(1, 1))
    assert Jet(VW, 2, {(1, 0): GaussianRational(2)}) == Jet.variable(VW, 2, "v") + Jet.variable(VW, 2, "v")


def test_truncate_lowers_the_order_only():
    v2 = Jet.variable(VW, 3, "v") ** 2
    assert v2.truncate(3) == v2
    assert v2.truncate(1) == Jet(VW, 1, {})
    with pytest.raises(ValueError):
        v2.truncate(4)


def test_relation_probe_refuses_components_below_the_probed_order():
    # order-3 components would answer degree 2 with a witness that fails at order 10
    assert relation_probe(osgood_components(10), 10, 6).min_relation_degree == 3
    with pytest.raises(ValueError):
        relation_probe(osgood_components(3), 10, 6)


def test_jet_exp_order_zero():
    assert jet_exp(VW, "w", 0) == Jet.constant(VW, 0, 1)


def test_jet_exp_order_two():
    e = jet_exp(VW, "w", 2)
    assert e.coeffs == {
        (0, 0): Fraction(1),
        (0, 1): Fraction(1),
        (0, 2): Fraction(1, 2),
    }


def test_jet_exp_square_is_exp_of_double():
    # coefficients of e^w * e^w must be 2^j / j!
    K = 7
    sq = jet_exp(VW, "w", K) * jet_exp(VW, "w", K)
    for j in range(K + 1):
        m = (0, j)
        assert sq.coeffs.get(m, Fraction(0)) == Fraction(2**j, factorial(j))


def test_jet_compose_whitney_relation():
    K = 6
    v = Jet.variable(VT, K, "v")
    t = Jet.variable(VT, K, "t")
    comps = [v, v * t, v * t * t]
    F = parse_polynomial("z1*z3 - z2^2", z_context(3))
    assert jet_compose(F, comps, K).poly.is_zero


def test_jet_compose_projection_and_constant():
    K = 4
    comps = osgood_components(K)
    F1 = parse_polynomial("z1", z_context(3))
    assert jet_compose(F1, comps, K) == comps[0].truncate(K)
    Fc = parse_polynomial("1", z_context(3))
    assert jet_compose(Fc, comps, K) == Jet.constant(VW, K, 1)


def test_jet_compose_order_mismatch():
    comps = osgood_components(3)
    with pytest.raises(ValueError):
        jet_compose(parse_polynomial("z1", z_context(3)), comps, 5)


def test_jet_complex_coefficients_rejected():
    with pytest.raises(ValueError):
        jet_compose(parse_polynomial("i*z1", z_context(3)), osgood_components(3), 3)


def test_relation_probe_whitney():
    K = 6
    v = Jet.variable(VT, K, "v")
    t = Jet.variable(VT, K, "t")
    comps = [v, v * t, v * t * t]
    res = relation_probe(comps, K, 2)
    assert res.min_relation_degree == 2
    # witness is proportional to z2^2 - z1*z3 (normalized leading coefficient 1)
    assert res.witness == parse_polynomial("z1*z3 - z2^2", z_context(3))
    assert jet_compose(res.witness, comps, K).poly.is_zero


def test_relation_probe_osgood_no_linear_relation():
    # needs K >= 3: at K = 2 the truncation of v*w*e^w collapses to v*w and
    # the linear relation z3 - z2 is genuinely present
    for K in (3, 4, 5):
        res = relation_probe(osgood_components(K), K, 1)
        assert res.min_relation_degree is None
        assert res.witness is None
    res2 = relation_probe(osgood_components(2), 2, 1)
    assert res2.min_relation_degree == 1


def test_relation_probe_repeated_component():
    K = 3
    v = Jet.variable(VT, K, "v")
    comps = [v, v, v]
    res = relation_probe(comps, K, 1)
    assert res.min_relation_degree == 1
    assert res.witness.total_degree() == 1
    assert jet_compose(res.witness, comps, K).poly.is_zero


def test_relation_probe_makes_one_jet_product_per_new_column(monkeypatch):
    comps = osgood_components(24)
    calls = []
    original = Jet.__mul__

    def counting(a, b):
        calls.append(1)
        return original(a, b)

    monkeypatch.setattr(Jet, "__mul__", counting)
    assert relation_probe(comps, 24, 5).min_relation_degree == 5
    # the candidates are the monomials of degree <= 5 in z1, z2, z3; the constant needs none
    assert len(calls) <= comb(5 + 3, 3) - 1


def test_relation_probe_eliminates_each_candidate_column_once(monkeypatch):
    original = linalg.relations
    fed = []

    def counting(columns):
        def tally():
            for col in columns:
                fed.append(col)
                yield col
        return original(tally())

    monkeypatch.setattr(jets.linalg, "relations", counting)
    res = relation_probe(osgood_components(24), 24, 5)
    assert res.min_relation_degree == 5
    # one column per monomial of degree <= 5 in z1, z2, z3 (C(8, 3) = 56), fed once each in
    # ascending grevlex up to the first dependent one, z1^4*z2: z1^5, the last, is never built
    assert len(fed) == comb(5 + 3, 3) - 1
    assert res.witness.leading(GREVLEX)[0] == (4, 1, 0)


def test_probe_budget(monkeypatch):
    monkeypatch.setattr(jets, "MAX_PROBE_ENTRIES", 10)
    with pytest.raises(ResourceLimitError):
        relation_probe(osgood_components(4), 4, 3)


# frozen regression table from the nullspace oracle: minimal relation degree
# of the Osgood truncations for K = 3..8 searched up to degree 5
OSGOOD_TABLE = {3: 2, 4: 2, 5: 2, 6: 2, 7: 3, 8: 3}


def test_osgood_probe_table():
    results = osgood_probe(sorted(OSGOOD_TABLE), 5)
    degrees = {r.jet_order: r.min_relation_degree for r in results}
    assert degrees == OSGOOD_TABLE


def test_osgood_min_degree_non_decreasing():
    results = osgood_probe(range(3, 9), 5)
    degrees = [r.min_relation_degree for r in results]
    assert degrees == sorted(degrees)
    for r in results:
        if r.witness is not None:
            assert jet_compose(r.witness, osgood_components(r.jet_order), r.jet_order).poly.is_zero


def test_osgood_fixed_degree_eventually_excluded():
    # evidence for ker = 0: degree-2 relations disappear by K = 7
    res = relation_probe(osgood_components(7), 7, 2)
    assert res.min_relation_degree is None


def test_osgood_probe_at_order_40():
    # the minimal degree at a size where the elimination's numerators grow large
    comps = osgood_components(40)
    res = relation_probe(comps, 40, 12)
    assert res.min_relation_degree == 7
    assert jet_compose(res.witness, comps, 40).poly.is_zero


def test_osgood_probe_empty_range():
    assert osgood_probe([], 3) == []


def test_jet_from_symbolic_matches_builtin_osgood():
    doc = parse("params v w\njet v\njet v*w\njet v*w*exp(w)\n")
    K = 5
    built = [jet_from_symbolic(f, K) for f in doc.jet_components]
    assert built == osgood_components(K)


@pytest.mark.parametrize("K", range(2, 17))
def test_relation_probe_matches_the_term_map_route_on_osgood(K):
    comps = osgood_components(K)
    res = relation_probe(comps, K, 8)
    assert (res.min_relation_degree, res.witness) == reference_relation_probe(comps, K, 8)


@pytest.mark.parametrize("K", range(3, 13))
def test_relation_probe_matches_the_term_map_route_on_the_jets_fixture(K):
    doc = parse((FIXTURES / "osgood.jets").read_text(encoding="utf-8"))
    comps = [jet_from_symbolic(f, K) for f in doc.jet_components]
    res = relation_probe(comps, K, 8)
    assert (res.min_relation_degree, res.witness) == reference_relation_probe(comps, K, 8)
