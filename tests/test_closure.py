"""Holomorphic closure dimension, parametrized images, Gabrielov ranks."""

import random

import pytest

from conftest import param_ctx, parse_polynomial, rand_gq, system_fixture, system_from_text
from holoclosure.closure import (
    gabrielov_r1,
    gabrielov_r3,
    hc_dimension_parametrized,
    holomorphic_closure,
    pullback_kernel,
    sample_point_on_variety,
)
from holoclosure.complexify import complexify_complex_set
from holoclosure.errors import EmptySetError
from holoclosure.groebner import Ideal, dimension_and_witness, eliminate, ideal_dimension
from holoclosure.poly import Block, Polynomial, z_context
from holoclosure.syntax import parse


def components_from_text(text):
    return parse(text).map_components


@pytest.mark.parametrize("name,n", [
    ("totally_real_r1.sys", 1),
    ("totally_real_r2.sys", 2),
    ("totally_real_r3.sys", 3),
])
def test_totally_real_closure_is_ambient(name, n):
    hc = holomorphic_closure(system_fixture(name))
    assert hc.hc_ideal.generators == ()
    assert hc.hc_dimension == n
    assert hc.real_dimension == n


def test_complex_line_is_its_own_closure():
    hc = holomorphic_closure(system_fixture("complex_line_c2.sys"))
    assert hc.hc_dimension == 1
    assert list(hc.hc_ideal.generators) == [parse_polynomial("z2", hc.hc_ideal.context)]
    assert hc.real_dimension == 2


def test_umbrella_global_closure():
    hc = holomorphic_closure(system_fixture("umbrella.sys"))
    assert hc.hc_dimension == 2
    assert hc.real_dimension == 2


def test_umbrella_stick_germ_closure():
    hc = holomorphic_closure(system_fixture("umbrella_stick_germ.sys"))
    assert hc.hc_dimension == 1
    assert hc.real_dimension == 1
    assert list(hc.hc_ideal.generators) == [parse_polynomial("z1", hc.hc_ideal.context)]


def test_sphere_closure_dominates():
    hc = holomorphic_closure(system_fixture("sphere.sys"))
    assert hc.hc_ideal.generators == ()
    assert hc.hc_dimension == 2
    assert hc.real_dimension == 3


def test_empty_system_raises():
    with pytest.raises(EmptySetError):
        holomorphic_closure(system_from_text("vars z1\neq 1\n"))


def test_closure_bounds_on_fixtures():
    for name in (
        "sphere.sys",
        "umbrella.sys",
        "umbrella_stick_germ.sys",
        "complex_line_c2.sys",
        "complex_hyperplane_c3.sys",
        "line_times_real.sys",
        "paraboloid.sys",
        "mixed_graph.sys",
    ):
        S = system_fixture(name)
        hc = holomorphic_closure(S)
        assert (hc.real_dimension + 1) // 2 <= hc.hc_dimension <= S.n, name


def test_closure_of_complex_set_is_itself():
    rng = random.Random(1001)
    ctx = z_context(2)
    line = parse_polynomial("z2", ctx)
    cases = [[line]]
    for _ in range(5):
        f = Polynomial(ctx, {(1, 0): rand_gq(rng), (0, 1): rand_gq(rng), (2, 0): rand_gq(rng)})
        if not f.is_zero and f.total_degree() > 0:
            cases.append([f])
    for gens in cases:
        doubled = complexify_complex_set(gens)
        projected = eliminate(doubled, Block.W)
        assert ideal_dimension(projected) == ideal_dimension(Ideal.from_polys(ctx, gens))


# -- parametrized images -------------------------------------------------------


def test_parametrized_complex_line_factor():
    comps = components_from_text("params t1 t2\nmap t1 + i*t2\nmap 0\n")
    hc = hc_dimension_parametrized(comps)
    assert hc.hc_dimension == 1
    assert hc.real_dimension == 2
    assert list(hc.hc_ideal.generators) == [parse_polynomial("z2", hc.hc_ideal.context)]


def test_parametrized_parabola():
    comps = components_from_text("params t\nmap t\nmap t^2\n")
    hc = hc_dimension_parametrized(comps)
    assert hc.hc_dimension == 1
    assert hc.real_dimension == 1
    assert list(hc.hc_ideal.generators) == [
        parse_polynomial("z1^2 - z2", hc.hc_ideal.context)
    ]


def test_parametrized_product_surface():
    comps = components_from_text("params t1 t2\nmap t1\nmap t2\nmap t1*t2\n")
    hc = hc_dimension_parametrized(comps)
    assert hc.hc_dimension == 2
    assert hc.real_dimension == 2
    assert list(hc.hc_ideal.generators) == [
        parse_polynomial("z1*z2 - z3", hc.hc_ideal.context)
    ]


def test_parametrized_totally_real_identity():
    comps = components_from_text("params t1 t2\nmap t1\nmap t2\n")
    hc = hc_dimension_parametrized(comps)
    assert hc.hc_dimension == 2
    assert hc.real_dimension == 2
    assert hc.hc_ideal.generators == ()


# -- Gabrielov ranks -------------------------------------------------------------


def test_r3_whitney():
    comps = components_from_text("mapvars v t\nmap v\nmap v*t\nmap v*t^2\n")
    assert gabrielov_r3(comps) == 2
    kernel = pullback_kernel(comps)
    assert list(kernel.generators) == [
        parse_polynomial("z2^2 - z1*z3", kernel.context)
    ]


def test_r3_identity():
    comps = components_from_text("mapvars v t\nmap v\nmap t\n")
    assert gabrielov_r3(comps) == 2


def test_r3_diagonal_line():
    comps = components_from_text("mapvars v t\nmap v\nmap v\nmap v\n")
    assert gabrielov_r3(comps) == 1


def test_r1_whitney():
    comps = components_from_text("mapvars v t\nmap v\nmap v*t\nmap v*t^2\n")
    rr = gabrielov_r1(comps, seed=0)
    assert (rr.r1, rr.r3, rr.lam, rr.regular) == (2, 2, 0, True)


def test_r1_constant_map():
    comps = components_from_text("mapvars v t\nmap 1\nmap 2\n")
    rr = gabrielov_r1(comps, seed=0)
    assert (rr.r1, rr.lam, rr.r3) == (0, 2, 0)
    assert rr.regular


def test_r1_projection_on_diagonal():
    doc = parse("mapvars u v\nmap u\neq u - v\n")
    source = Ideal.from_polys(doc.context, doc.equations)
    rr = gabrielov_r1(doc.map_components, source, seed=0)
    assert (rr.r1, rr.lam) == (1, 0)
    assert rr.regular


def test_rank_report_determinism():
    comps = components_from_text("mapvars v t\nmap v\nmap v*t\nmap v*t^2\n")
    a = gabrielov_r1(comps, seed=3)
    b = gabrielov_r1(comps, seed=3)
    assert a == b


def test_r1_r3_chevalley_on_random_maps():
    rng = random.Random(808)
    ctx = param_ctx(("v", "t"))
    for k in range(12):
        comps = []
        for _ in range(3):
            terms = {}
            for _ in range(rng.randint(1, 2)):
                d = rng.randint(0, 3)
                a = rng.randint(0, d)
                c = rand_gq(rng)
                if c:
                    terms[(a, d - a)] = c
            comps.append(Polynomial(ctx, terms))
        if any(f.is_zero for f in comps):
            continue
        rr = gabrielov_r1(comps, seed=k)
        assert rr.r1 == rr.r3
        assert rr.regular


def test_r1_le_r3_on_degenerate_inputs():
    for text in (
        "mapvars v t\nmap v\nmap v\nmap v\n",
        "mapvars v t\nmap 0\nmap v*t\n",
        "mapvars v t\nmap v^2\nmap v*t\nmap t^2\n",
    ):
        comps = components_from_text(text)
        rr = gabrielov_r1(comps, seed=1)
        assert rr.r1 <= rr.r3


def test_sample_point_lands_on_variety():
    doc = parse("mapvars u v\nmap u\neq u^2 - v\n")
    source = Ideal.from_polys(doc.context, doc.equations)
    _, indep = dimension_and_witness(source)
    rng = random.Random(42)
    point = sample_point_on_variety(source, indep, rng)
    values = dict(zip(doc.context.names, point))
    assert all(not g.evaluate(values) for g in source.generators)


def test_torus_is_totally_real():
    S = system_from_text(
        "vars z1 z2\neq z1*conj(z1) - 1\neq z2*conj(z2) - 1\n"
    )
    hc = holomorphic_closure(S)
    assert hc.real_dimension == 2
    assert hc.hc_dimension == 2
    assert hc.hc_ideal.generators == ()


def test_paraboloid_agrees_across_both_pipelines():
    # zeta2 = |zeta1|^2 described as equations, and parametrized as
    # t -> (t1 + i*t2, t1^2 + t2^2): both routes must report the same
    # real and closure dimensions
    from_system = holomorphic_closure(system_fixture("paraboloid.sys"))
    comps = components_from_text("params t1 t2\nmap t1 + i*t2\nmap t1^2 + t2^2\n")
    from_param = hc_dimension_parametrized(comps)
    assert from_param.real_dimension == from_system.real_dimension == 2
    assert from_param.hc_dimension == from_system.hc_dimension == 2
    assert from_param.hc_ideal.generators == from_system.hc_ideal.generators == ()
