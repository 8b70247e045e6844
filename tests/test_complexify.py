"""Coordinate conversion, conjugation closure, complexification, real dimension."""

import random
from fractions import Fraction

import pytest

from conftest import (
    evaluate_system,
    is_swap_symmetric,
    parse_polynomial,
    rand_fraction,
    rand_nonzero_poly,
    system_fixture,
    system_from_text,
)
from holoclosure import poly
from holoclosure.arith import GaussianRational, gq
from holoclosure.complexify import (
    System,
    complexify_complex_set,
    complexify_ideal,
    conjugation_closure,
    real_dimension,
    real_to_zeta,
    zeta_to_real,
)
from holoclosure.groebner import Ideal, ideal_dimension, ideal_membership
from holoclosure.poly import Block, Polynomial, z_context, zeta_context

ZETA2 = zeta_context(("z1", "z2"))


def test_real_to_zeta_imaginary_part():
    S = system_from_text("realvars x1 y1 x2 y2\neq y2\n")
    out = real_to_zeta(S)
    expected = parse_polynomial("-1/2*i*z2 + 1/2*i*conj(z2)", out.context)
    assert list(out.generators) == [expected]


def test_real_to_zeta_modulus_square():
    S = system_from_text("realvars x1 y1\neq x1^2 + y1^2\n")
    out = real_to_zeta(S)
    expected = parse_polynomial("z1*conj(z1)", out.context)
    assert list(out.generators) == [expected]


def test_real_to_zeta_umbrella_pointwise():
    # the converted system takes exactly the same values at real points
    S = system_fixture("umbrella.sys")
    out = real_to_zeta(S)
    rng = random.Random(321)
    for _ in range(20):
        point = tuple(
            GaussianRational(rand_fraction(rng, 9, 7), rand_fraction(rng, 9, 7))
            for _ in range(S.n)
        )
        assert evaluate_system(S, point) == evaluate_system(out, point)


def test_conjugation_closure_adds_missing_conjugate():
    S = system_from_text("vars z1 z2\neq z2 - z1*conj(z1)\n")
    out = conjugation_closure(S)
    assert conjugation_closure(out) == out
    expected = parse_polynomial("conj(z2) - conj(z1)*z1", out.context)
    assert list(out.generators) == [S.generators[0], expected]


def test_conjugation_closure_self_conjugate():
    S = system_from_text("vars z1\neq z1*conj(z1) - 1\n")
    assert conjugation_closure(S).generators == S.generators


def test_conjugation_closure_already_closed_pair():
    S = system_from_text("vars z1 z2\neq z2\neq conj(z2)\n")
    assert conjugation_closure(S).generators == S.generators


def test_conjugation_closure_keeps_a_generator_whose_conjugate_is_a_multiple():
    # the conjugate of z1 + i*conj(z1) is conj(z1) - i*z1, -i times itself
    S = system_from_text("vars z1\neq z1 + i*conj(z1)\n")
    assert conjugation_closure(S).generators == S.generators


def test_conjugation_closure_adds_a_conjugate_on_a_new_support():
    S = system_from_text("vars z1 z2\neq z1 + conj(z2)\n")
    expected = parse_polynomial("conj(z1) + z2", S.context)
    assert conjugation_closure(S).generators == (S.generators[0], expected)


def test_conjugation_closure_of_a_wide_system_builds_no_packing(monkeypatch):
    # 1,000 declared variables: a grevlex Packing would have 2,000 fields
    names = " ".join(f"z{j}" for j in range(1, 1001))
    S = system_from_text(f"vars {names}\neq z1*conj(z1)+z2-1\n")
    requested = []
    original = poly._packing
    monkeypatch.setattr(poly, "_packing", lambda order, size: requested.append(size) or original(order, size))
    out = conjugation_closure(S)
    assert len(out.generators) == 2
    assert requested == []


def test_complexify_sphere():
    S = system_fixture("sphere.sys")
    ci = complexify_ideal(S)
    expected = parse_polynomial("z1*w1 + z2*w2 - 1", ci.context)
    assert list(ci.generators) == [expected]


def test_complexify_paraboloid_pair():
    S = system_fixture("paraboloid.sys")
    ci = complexify_ideal(S)
    ctx = ci.context
    assert list(ci.generators) == [
        parse_polynomial("z2 - z1*w1", ctx),
        parse_polynomial("w2 - w1*z1", ctx),
    ]


def test_complexify_totally_real():
    S = system_from_text("vars z1 z2\neq z1 - conj(z1)\neq z2 - conj(z2)\n")
    ci = complexify_ideal(S)
    ctx = ci.context
    assert list(ci.generators) == [
        parse_polynomial("z1 - w1", ctx),
        parse_polynomial("z2 - w2", ctx),
    ]


def test_complexify_complex_set_line():
    ctx = z_context(2)
    out = complexify_complex_set([parse_polynomial("z2", ctx)])
    assert list(out.generators) == [
        parse_polynomial("z2", out.context),
        parse_polynomial("w2", out.context),
    ]
    assert ideal_dimension(out) == 2


def test_complexify_complex_set_parabola():
    ctx = z_context(2)
    out = complexify_complex_set([parse_polynomial("z2 - z1^2", ctx)])
    assert ideal_dimension(out) == 2


def test_complexify_complex_set_unit_coefficient():
    ctx = z_context(1)
    out = complexify_complex_set([parse_polynomial("i*z1", ctx)])
    assert list(out.generators) == [
        parse_polynomial("z1", out.context),
        parse_polynomial("w1", out.context),
    ]


def test_complexify_complex_set_doubles_dimension():
    rng = random.Random(55)
    for _ in range(10):
        nv = rng.randint(1, 3)
        ctx = z_context(nv)
        f = rand_nonzero_poly(rng, ctx)
        while f.total_degree() == 0:
            f = rand_nonzero_poly(rng, ctx)
        single = ideal_dimension(Ideal.from_polys(ctx, [f]))
        doubled = ideal_dimension(complexify_complex_set([f]))
        assert doubled == 2 * single


def test_real_dimension_sphere():
    assert real_dimension(system_fixture("sphere.sys")) == 3


@pytest.mark.parametrize("name,expected", [
    ("totally_real_r1.sys", 1),
    ("totally_real_r2.sys", 2),
    ("totally_real_r3.sys", 3),
])
def test_real_dimension_totally_real(name, expected):
    assert real_dimension(system_fixture(name)) == expected


def test_real_dimension_complex_line():
    S = system_from_text("vars z1 z2\neq z2\neq conj(z2)\n")
    assert real_dimension(S) == 2


def test_real_dimension_empty():
    S = system_from_text("vars z1\neq 1\n")
    assert real_dimension(S) is None


def test_swap_symmetry_of_complexification():
    for name in (
        "sphere.sys",
        "paraboloid.sys",
        "umbrella.sys",
        "totally_real_r2.sys",
        "complex_line_c2.sys",
        "umbrella_stick_germ.sys",
    ):
        ci = complexify_ideal(system_fixture(name))
        assert is_swap_symmetric(ci), name


def test_zeta_to_real_round_trip_values():
    S = system_fixture("sphere.sys")
    out = zeta_to_real(S)
    assert out.form == "real"
    rng = random.Random(99)
    for _ in range(10):
        point = tuple(
            GaussianRational(rand_fraction(rng, 9, 7), rand_fraction(rng, 9, 7))
            for _ in range(S.n)
        )
        zeta_vals = evaluate_system(S, point)
        real_vals = evaluate_system(out, point)
        # real-form generators are the real and imaginary parts of the originals
        assert all(v.im == 0 for v in real_vals)
        nonzero = any(bool(v) for v in zeta_vals)
        assert nonzero == any(bool(v) for v in real_vals)


def test_real_form_rejects_complex_coefficients():
    ctx = system_fixture("totally_real_r1.sys").context
    bad = Polynomial.constant(ctx, GaussianRational(0, 1))
    with pytest.raises(ValueError):
        System(ctx, "real", (bad,))


def test_real_to_zeta_generators_are_self_conjugate():
    # real-valued functions are fixed by coefficient conjugation + block swap
    for name in (
        "totally_real_r2.sys",
        "line_times_real.sys",
        "umbrella.sys",
        "umbrella_stick_germ.sys",
        "mixed_graph.sys",
    ):
        converted = real_to_zeta(system_fixture(name))
        for g in converted.generators:
            assert g.conjugate({Block.ZETA: Block.ZETABAR}) == g
