"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines live.
Every numeric target is exact (integer equality); no tolerances apply.
"""

import io
import json
import random

from conftest import (
    ALL_FIXTURES,
    evaluate_system,
    is_swap_symmetric,
    load_fixture,
    param_ctx,
    parse_polynomial,
    rand_exponents,
    rand_fraction,
    rand_gq,
    rand_nonzero_poly,
    rand_poly,
    staircase_dimension_brute_force,
    system_fixture,
    FIXTURES,
    SYSTEM_FIXTURES,
)
from holoclosure.arith import GaussianRational
from holoclosure.cli import EXIT_OK, run
from holoclosure.closure import gabrielov_r1, holomorphic_closure, pullback_kernel
from holoclosure.complexify import (
    complexify_complex_set,
    complexify_ideal,
    real_to_zeta,
)
from holoclosure.crgeom import verify_d_minus_m
from holoclosure.groebner import (
    GREVLEX,
    Ideal,
    buchberger,
    ideal_dimension,
    normal_form,
    s_polynomial,
)
from holoclosure.jets import jet_compose, osgood_components, osgood_probe, relation_probe
from holoclosure.poly import Polynomial, polynomial_to_text, z_context, zeta_context, zw_context
from holoclosure.syntax import parse, parse_point, print_document


def check(label, ok):
    print(f"{label}: {'PASS' if ok else 'FAIL'}")
    assert ok, label
    return ok


def test_ac1_cartan_umbrella():
    glob = holomorphic_closure(system_fixture("umbrella.sys"))
    stick = holomorphic_closure(system_fixture("umbrella_stick_germ.sys"))
    stick_ideal = [polynomial_to_text(g) for g in stick.hc_ideal.generators]
    check(
        "AC1 Cartan umbrella hc dimensions (global=2, stick=1, stick ideal (z1))",
        glob.hc_dimension == 2 and stick.hc_dimension == 1 and stick_ideal == ["z1"],
    )


AC2_FIXTURES = {
    "totally_real_r1.sys": ("0", "1", "-3/7"),
    "totally_real_r2.sys": ("0, 0", "1, -2", "1/2, 3"),
    "totally_real_r3.sys": ("0, 0, 0", "1, 2, 3", "-1/2, 1/3, 5"),
    "complex_line_c2.sys": ("0, 0", "1, 0", "i, 0"),
    "complex_hyperplane_c3.sys": ("0, 0, 0", "1, i, 0", "1/2, 2, 0"),
    "sphere.sys": ("1, 0", "3/5, 4/5", "0, i"),
    "line_times_real.sys": ("i, 0", "1+2*i, 3", "0, -1/2"),
}


def test_ac2_cr_consistency_suite():
    ok = True
    for name, point_texts in AC2_FIXTURES.items():
        system = system_fixture(name)
        points = [parse_point(t, system.n) for t in point_texts]
        dm = verify_d_minus_m(system, points)
        ok = ok and dm.all_agree and len(dm.entries) >= 3
    check("AC2 h = d - m at >= 3 smooth rational points on 7 fixtures", ok)


def test_ac3_sphere():
    system = system_fixture("sphere.sys")
    hc = holomorphic_closure(system)
    points = ["1, 0", "3/5, 4/5", "0, i", "3/5, 4/5*i", "1/2+1/2*i, 1/2+1/2*i"]
    dm = verify_d_minus_m(system, [parse_point(t, 2) for t in points])
    check(
        "AC3 sphere S^3: real dim 3, hc dim 2 with ideal (0), m = 1 at 5 points",
        hc.real_dimension == 3
        and hc.hc_dimension == 2
        and hc.hc_ideal.generators == ()
        and all(e.m == 1 for e in dm.entries),
    )


def _random_map(rng, ctx):
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
    return comps


def test_ac4_polynomial_regularity():
    rng = random.Random(20260808)
    ctx = param_ctx(("v", "t"))
    regular = 0
    count = 0
    while count < 20:
        comps = _random_map(rng, ctx)
        if any(f.is_zero for f in comps):
            continue
        count += 1
        rr = gabrielov_r1(comps, seed=count)
        if rr.r1 == rr.r3:
            regular += 1
        assert rr.r1 <= rr.r3
    degenerate = [
        "mapvars v t\nmap v\nmap v\nmap v\n",
        "mapvars v t\nmap 0\nmap v*t\n",
        "mapvars v t\nmap 1\nmap 2\n",
        "mapvars v t\nmap v^2\nmap v*t\nmap t^2\n",
    ]
    bounded = all(
        (lambda rr: rr.r1 <= rr.r3)(gabrielov_r1(parse(t).map_components, seed=9))
        for t in degenerate
    )
    check("AC4 r1 = r3 on 20 seeded random maps C^2 -> C^3, r1 <= r3 everywhere",
          regular == 20 and bounded)


def test_ac5_whitney_map():
    comps = parse(load_fixture("whitney.map")).map_components
    rr = gabrielov_r1(comps, seed=0)
    kernel = pullback_kernel(comps)
    kernel_text = [polynomial_to_text(g) for g in kernel.generators]
    check(
        "AC5 Whitney map: r1 = r3 = 2, kernel (z2^2 - z1*z3)",
        rr.r1 == 2 and rr.r3 == 2 and kernel_text == ["z2^2 - z1*z3"],
    )


# frozen by the nullspace oracle (scripts/osgood_table.py regenerates it)
OSGOOD_DEGREES = [2, 2, 2, 2, 3, 3]  # K = 3..8, searched up to degree 5


def test_ac6_osgood_probe():
    results = osgood_probe(range(3, 9), 5)
    degrees = [r.min_relation_degree for r in results]
    monotone = degrees == sorted(degrees)
    excluded = any(
        relation_probe(osgood_components(k), k, 2).min_relation_degree is None
        for k in range(3, 9)
    )
    witnesses_recompose = all(
        jet_compose(r.witness, osgood_components(r.jet_order), r.jet_order).poly.is_zero
        for r in results
        if r.witness is not None
    )
    check(
        "AC6 Osgood probe: frozen degree table, non-decreasing, degree 2 excluded by K <= 8",
        degrees == OSGOOD_DEGREES and monotone and excluded and witnesses_recompose,
    )


def test_ac7_groebner_engine_properties():
    rng = random.Random(4242)
    checked = 0
    while checked < 500:
        nv = rng.randint(1, 3)
        ctx = param_ctx([f"x{j}" for j in range(1, nv + 1)])
        gens = [rand_nonzero_poly(rng, ctx) for _ in range(rng.randint(1, 3))]
        gb = buchberger(Ideal.from_polys(ctx, gens), GREVLEX)
        for a in range(len(gb.basis)):
            for b in range(a + 1, len(gb.basis)):
                s = s_polynomial(gb.basis[a], gb.basis[b], GREVLEX)
                assert normal_form(s, gb.basis, GREVLEX).is_zero
        checked += 1
    rng2 = random.Random(7007)
    dims = 0
    while dims < 200:
        nv = rng2.randint(1, 4)
        ctx = param_ctx([f"x{j}" for j in range(1, nv + 1)])
        monos = [m for m in (rand_exponents(rng2, nv, 4) for _ in range(rng2.randint(1, 4))) if any(m)]
        if not monos:
            continue
        gens = [Polynomial(ctx, {m: 1}) for m in monos]
        assert ideal_dimension(Ideal.from_polys(ctx, gens)) == staircase_dimension_brute_force(monos, nv)
        dims += 1
    check("AC7 Groebner engine: 500 S-polynomial checks, 200 dimension oracles", True)


REAL_FORM_FIXTURES = [
    "totally_real_r1.sys",
    "totally_real_r2.sys",
    "totally_real_r3.sys",
    "line_times_real.sys",
    "umbrella.sys",
    "umbrella_stick_germ.sys",
    "mixed_graph.sys",
]


def test_ac8_complexification_properties():
    symmetric = all(
        is_swap_symmetric(complexify_ideal(system_fixture(name)))
        for name in SYSTEM_FIXTURES
    )
    rng = random.Random(606)
    preserved = True
    for name in REAL_FORM_FIXTURES:
        system = system_fixture(name)
        converted = real_to_zeta(system)
        for _ in range(20):
            point = tuple(
                GaussianRational(rand_fraction(rng, 9, 7), rand_fraction(rng, 9, 7))
                for _ in range(system.n)
            )
            if evaluate_system(system, point) != evaluate_system(converted, point):
                preserved = False
    rng2 = random.Random(909)
    doubled = True
    produced = 0
    while produced < 10:
        nv = rng2.randint(1, 3)
        ctx = z_context(nv)
        f = rand_nonzero_poly(rng2, ctx)
        if f.total_degree() == 0:
            continue
        produced += 1
        single = ideal_dimension(Ideal.from_polys(ctx, [f]))
        if ideal_dimension(complexify_complex_set([f])) != 2 * single:
            doubled = False
    check(
        "AC8 complexification: swap symmetry, zero-set preservation, dimension doubling",
        symmetric and preserved and doubled,
    )


def test_ac9_parser_round_trip_and_stability():
    docs_ok = all(
        parse(print_document(parse(load_fixture(name)))) == parse(load_fixture(name))
        for name in ALL_FIXTURES
    )
    rng = random.Random(314159)
    contexts = [zeta_context(("z1", "z2")), zw_context(2), zw_context(3)]
    polys_ok = True
    for k in range(100):
        ctx = contexts[k % len(contexts)]
        f = rand_poly(rng, ctx, max_terms=4, max_deg=4)
        if parse_polynomial(polynomial_to_text(f), ctx) != f:
            polys_ok = False
    runs = []
    for _ in range(2):
        out = io.StringIO()
        code = run(["ranks", str(FIXTURES / "whitney.map"), "--json", "--seed", "0"], stdout=out)
        assert code == EXIT_OK
        runs.append(out.getvalue())
    stable = runs[0] == runs[1]
    check(
        "AC9 parser round-trip on fixtures and 100 random polynomials; byte-stable output",
        docs_ok and polys_ok and stable,
    )
