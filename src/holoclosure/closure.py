"""Holomorphic closure dimension and Gabrielov ranks via elimination.

The holomorphic closure ideal of a system is the w-block elimination of its
complexification: the smallest complex algebraic set through the projection
of the complexified variety.  One w > z elimination basis gives both
dimensions: d off its staircase, the closure ideal and h off its w-free
part (parametrized images: one basis under parameters > w > z).  For maps,
the kernel of the pullback is the source-block elimination of the graph
ideal (giving the rank r3), while r1 is recovered from generic fibre
dimension: r1 = dim A - lambda, with lambda sampled at seeded random
rational points of the source variety.  Fibre dimension is
upper-semicontinuous, so the minimum over samples is the generic value with
overwhelming probability, and r1 <= r3 holds for every sample outcome.
"""

from __future__ import annotations

import random
from functools import lru_cache
from itertools import islice
from math import isqrt
from typing import NamedTuple, Sequence

from holoclosure.arith import GaussianRational, gq, numerators
from holoclosure.complexify import System, complexify_ideal
from holoclosure.errors import EmptySetError, InvariantError, SamplingError
from holoclosure.groebner import (
    DEFAULT_CONFIG,
    GroebnerBasis,
    GroebnerConfig,
    Ideal,
    buchberger,
    dimension_and_witness,
    eliminate,
    ideal_dimension,
)
from holoclosure.poly import (
    Block,
    BlockElimination,
    GREVLEX,
    LEX,
    Polynomial,
    VariableContext,
    z_context,
    zw_context,
)


class HCReport(NamedTuple):
    """Holomorphic closure ideal over the z variables, with both dimensions."""

    hc_ideal: Ideal
    hc_dimension: int
    real_dimension: int


class RankReport(NamedTuple):
    """Gabrielov ranks of a polynomial map restricted to a source variety.

    ``lam`` is the generic fibre dimension; regular means r1 == r3.  The
    fibre witness is the sampled source point realizing the minimal fibre.
    ``kernel`` is the pullback kernel, whose staircase gives r3.
    """

    r1: int
    r3: int
    lam: int
    regular: bool
    fibre_witness: tuple
    kernel: Ideal


def _closure_report(gb: GroebnerBasis, n: int) -> HCReport:
    """Read d off a (w > z) elimination basis, and the closure ideal and h off its w-free part."""
    real_dim, _ = gb.dimension()
    if real_dim is None:
        raise EmptySetError("the system defines the empty set")
    closure = gb.elimination(1)
    hc_dim, _ = closure.dimension()
    if not (real_dim + 1) // 2 <= hc_dim <= n:
        raise InvariantError(
            f"holomorphic closure dimension {hc_dim} violates bounds for d={real_dim}, n={n}"
        )
    return HCReport(Ideal(closure.context, closure.basis), hc_dim, real_dim)


def holomorphic_closure(system: System, config: GroebnerConfig = DEFAULT_CONFIG) -> HCReport:
    """Eliminate the w block of the complexification; report both dimensions."""
    ideal = complexify_ideal(system)
    gb = buchberger(ideal, BlockElimination.of_blocks(ideal.context, Block.W), config)
    return _closure_report(gb, system.n)


def _validate_map(components: Sequence[Polynomial], target: VariableContext) -> VariableContext:
    """The source context of the map's components, checked against the target variables."""
    if not components:
        raise ValueError("a map needs at least one component")
    src = components[0].context
    for f in components:
        if f.context != src:
            raise ValueError("map components over different contexts")
    if any(b is not Block.PARAM for b in src.blocks):
        raise ValueError("map source variables must form a parameter block")
    clash = [name for name in src.names if name in target.names]
    if clash:
        raise ValueError(f"source variable names collide with target variables: {', '.join(clash)}")
    return src


def hc_dimension_parametrized(
    components: Sequence[Polynomial], config: GroebnerConfig = DEFAULT_CONFIG
) -> HCReport:
    """Holomorphic closure data of the image of a polynomial parametrization.

    The parameters are complexified: the graph of (phi, conj-coefficient phi)
    gets one basis under parameters > w > z.  Its parameter-free part is a
    basis of the complexification of the real image in C[z,w] (giving the
    real dimension), and its part free of parameters and w is the closure of
    the image of phi itself in C[z].
    """
    n = len(components)
    target = zw_context(n)
    src = _validate_map(components, target)
    big = src.concat(target)
    gens = []
    for j, f in enumerate(components):
        zj = Polynomial.variable(big, f"z{j + 1}")
        wj = Polynomial.variable(big, f"w{j + 1}")
        gens.append(zj - f.embed(big))
        gens.append(wj - f.conjugate().embed(big))
    order = BlockElimination.of_blocks(big, Block.PARAM, Block.W)
    gb = buchberger(Ideal.from_polys(big, gens), order, config)
    return _closure_report(gb.elimination(1), n)


def pullback_kernel(
    components: Sequence[Polynomial],
    source: Ideal | None = None,
    config: GroebnerConfig = DEFAULT_CONFIG,
) -> Ideal:
    """Kernel of the pullback along the map restricted to V(source).

    This is the elimination of the source block from the graph ideal; its
    zero set is the Zariski closure of the image.
    """
    target = z_context(len(components))
    src = _validate_map(components, target)
    big = src.concat(target)
    gens = []
    if source is not None:
        if source.context != src:
            raise ValueError("source ideal over a different context than the map")
        gens.extend(g.embed(big) for g in source.generators)
    for j, f in enumerate(components):
        gens.append(Polynomial.variable(big, f"z{j + 1}") - f.embed(big))
    return eliminate(Ideal.from_polys(big, gens), Block.PARAM, config)


def _kernel_dimension(kernel: Ideal) -> int:
    # the generators ``eliminate`` returns are the kernel's reduced grevlex basis
    basis = GroebnerBasis(kernel.context, GREVLEX, kernel.generators)
    dim, _ = basis.dimension()
    if dim is None:
        raise EmptySetError("pullback kernel is the unit ideal")
    return dim


def gabrielov_r3(
    components: Sequence[Polynomial],
    source: Ideal | None = None,
    config: GroebnerConfig = DEFAULT_CONFIG,
) -> int:
    """Krull dimension of the target coordinate ring modulo the pullback kernel."""
    return _kernel_dimension(pullback_kernel(components, source, config))


# -- rational point sampling -------------------------------------------------

FIBRE_SAMPLES = 5  # seeded fibre draws per rank report
SAMPLE_RETRIES = 25  # random slices tried per sample point
TRIAL_BOUND = 2**16  # rational roots: trial divisors of a constant above 10^12 stay below this
FULL_FACTOR_BOUND = 10**12  # rational roots: constants up to this are factored completely
MAX_ROOT_CANDIDATES = 150_000  # rational roots: numerator-denominator pairs tried at most


def _random_rational(rng: random.Random) -> GaussianRational:
    return gq(rng.randint(-100, 100)) / rng.randint(1, 100)


def _factor(n: int) -> list:
    """Pairs (p, e) with prod p^e = |n| != 0, each p a prime or one cofactor.

    Trial division runs up to the square root of what is left while that is
    at most FULL_FACTOR_BOUND, so at most 5 * 10^5 odd steps, and otherwise
    stops at TRIAL_BOUND.  What it leaves above FULL_FACTOR_BOUND is kept as
    one factor, or the square of one, which hides any other divisors.
    """
    n, factors, k = abs(n), [], 2
    while k * k <= n and (k < TRIAL_BOUND or n <= FULL_FACTOR_BOUND):
        e = 0
        while n % k == 0:
            n, e = n // k, e + 1
        if e:
            factors.append((k, e))
        k += 1 if k == 2 else 2
    if n > 1:
        r = isqrt(n)
        factors.append((r, 2) if r * r == n else (n, 1))
    return factors


def _divisors(factors: list):
    """The divisors prod p^k (0 <= k <= e) of a factorization, one at a time."""
    exponents, d = [0] * len(factors), 1
    while True:
        yield d
        for i, (p, e) in enumerate(factors):
            if exponents[i] < e:
                exponents[i] += 1
                d *= p
                break
            exponents[i] = 0
            d //= p**e
        else:
            return


def _univariate_coeffs(f: Polynomial, index: int) -> list:
    """Dense coefficient list (ascending degree) of a univariate polynomial."""
    deg = max(m[index] for m in f.terms)
    coeffs = [gq(0)] * (deg + 1)
    for m, c in f.terms.items():
        coeffs[m[index]] = c
    return coeffs


def _rational_roots(coeffs: list) -> list:
    """Roots in Q(i) found exactly: linear always, higher degree over Q only.

    A real polynomial is cleared to integer coefficients c_0..c_n, its root 0
    split off, and the rest found by ``_scaled_roots``.  Every root times
    |c_n| is an integer, which orders the roots ascending.
    """
    while len(coeffs) > 1 and not coeffs[-1]:
        coeffs.pop()
    if len(coeffs) <= 1:
        return []
    if len(coeffs) == 2:
        return [-coeffs[0] / coeffs[1]]
    pairs, _ = numerators(coeffs)
    if any(b for _, b in pairs):
        return []
    ints = [a for a, _ in pairs]
    low = next(k for k, c in enumerate(ints) if c)
    ints = ints[low:]
    scale = abs(ints[-1])
    scaled_roots = {0} if low else set()
    if len(ints) == 2:
        scaled_roots.add(-ints[0] * scale // ints[1])
    else:
        scaled_roots |= _scaled_roots(tuple(ints))
    return [gq(r) / scale for r in sorted(scaled_roots)]


@lru_cache(maxsize=64)  # the sampler retries slices whose univariate is the same
def _scaled_roots(ints: tuple) -> frozenset:
    """The rational roots times |c_n| of c_0 + ... + c_n x^n over Z, c_0 != 0.

    Each candidate p/q of the rational root theorem is kept when q^n f(p/q)
    vanishes.  At most MAX_ROOT_CANDIDATES pairs p, q are tried, and none
    with a p or q that ``_factor`` hides; a root past them is missed, and the
    sampler may then end in its "no rational point found" error.
    """
    scale = abs(ints[-1])
    ps, qs = _factor(ints[0]), _factor(scale)
    pairs = ((p, q) for p in _divisors(ps) for q in _divisors(qs))
    roots = set()
    for p, q in islice(pairs, MAX_ROOT_CANDIDATES):
        for n in (p, -p):
            val, qk = 0, 1
            for c in reversed(ints):
                val = val * n + c * qk
                qk *= q
            if not val:
                roots.add(n * (scale // q))
    return frozenset(roots)


def _substitute_value(gens, ctx, index, value):
    """Plug a constant into one variable; generators move to the smaller context."""
    sub = ctx.subcontext([k for k in range(ctx.size) if k != index])
    images = {name: Polynomial.constant(sub, value) if k == index else Polynomial.variable(sub, name)
              for k, name in enumerate(ctx.names)}
    return [g.substitute(sub, images) for g in gens], sub


def _find_rational_point(I: Ideal, rng: random.Random, config: GroebnerConfig):
    """Solve a (generically zero-dimensional) system by triangular descent."""
    ctx = I.context
    if ctx.size == 0:
        return {} if all(g.is_zero for g in I.generators) else None
    if I.is_zero:
        return {name: _random_rational(rng) for name in ctx.names}
    gb = buchberger(I, LEX, config)
    if gb.is_unit:
        return None
    last = ctx.size - 1
    univariate = None
    touched = False
    for g in gb.basis:
        used = g.used_indices()
        if last in used:
            touched = True
            if used <= {last}:
                univariate = g
                break
    if univariate is None:
        if touched:
            return None  # not triangular in the last variable; try another slice
        value = _random_rational(rng)
        gens, sub = _substitute_value(gb.basis, ctx, last, value)
        rest = _find_rational_point(Ideal.from_polys(sub, gens), rng, config)
        if rest is None:
            return None
        rest[ctx.names[last]] = value
        return rest
    for root in _rational_roots(_univariate_coeffs(univariate, last)):
        gens, sub = _substitute_value(gb.basis, ctx, last, root)
        rest = _find_rational_point(Ideal.from_polys(sub, gens), rng, config)
        if rest is not None:
            rest[ctx.names[last]] = root
            return rest
    return None


def sample_point_on_variety(
    source: Ideal,
    indep: frozenset,
    rng: random.Random,
    config: GroebnerConfig = DEFAULT_CONFIG,
) -> tuple:
    """A random exact point of V(source), found by random slicing.

    Random rational values are assigned to ``indep``, a maximal independent
    set of the nonempty variety from ``dimension_and_witness``, and the rest
    solved triangularly; only rational (linear) or rational-root solvable
    slices succeed, so after SAMPLE_RETRIES slices without one the sampler
    gives up with a SamplingError.
    """
    ctx = source.context
    if source.is_zero:
        return tuple(_random_rational(rng) for _ in ctx.names)
    dim = len(indep)
    for attempt in range(SAMPLE_RETRIES):
        # slice the staircase independent set first; on later attempts try
        # other coordinate subsets (a set can be unlucky, e.g. forcing square
        # roots, while another admits a triangular rational solve)
        if attempt == 0:
            sliced = sorted(indep, reverse=True)
        else:
            sliced = sorted(rng.sample(range(ctx.size), dim), reverse=True)
        values = {}
        gens = list(source.generators)
        work_ctx = ctx
        for k in sliced:
            name = ctx.names[k]
            values[name] = _random_rational(rng)
            idx = work_ctx.index(name)
            gens, work_ctx = _substitute_value(gens, work_ctx, idx, values[name])
        solved = _find_rational_point(Ideal.from_polys(work_ctx, gens), rng, config)
        if solved is None:
            continue
        values.update(solved)
        point = tuple(values[name] for name in ctx.names)
        check = {name: values[name] for name in ctx.names}
        if all(not g.evaluate(check) for g in source.generators):
            return point
    raise SamplingError(
        f"no rational point found on the source variety in {SAMPLE_RETRIES} random slices"
    )


def gabrielov_r1(
    components: Sequence[Polynomial],
    source: Ideal | None = None,
    seed: int = 0,
    config: GroebnerConfig = DEFAULT_CONFIG,
) -> RankReport:
    """Rank report from fibre-dimension sampling plus the elimination rank.

    r1 = dim V(source) - min fibre dimension over ``FIBRE_SAMPLES`` seeded
    draws; one grevlex basis of the source gives dim V(source) and the slices.
    """
    src = _validate_map(components, z_context(len(components)))
    if source is None:
        source = Ideal(src, ())
    elif source.context != src:
        raise ValueError("source ideal over a different context than the map")
    dim_a, indep = dimension_and_witness(source, config=config)
    if dim_a is None:
        raise EmptySetError("the source variety is empty")
    rng = random.Random(seed)
    best_lam = None
    best_point = None
    for _ in range(FIBRE_SAMPLES):
        point = sample_point_on_variety(source, indep, rng, config)
        values = dict(zip(src.names, point))
        fibre_gens = list(source.generators)
        for f in components:
            fibre_gens.append(f - Polynomial.constant(src, f.evaluate(values)))
        lam = ideal_dimension(Ideal.from_polys(src, fibre_gens), config=config)
        if lam is None:
            raise InvariantError("sampled fibre is empty despite containing the sample")
        if best_lam is None or lam < best_lam:
            best_lam = lam
            best_point = point
    r1 = dim_a - best_lam
    kernel = pullback_kernel(components, source, config)
    r3 = _kernel_dimension(kernel)
    return RankReport(r1, r3, best_lam, r1 == r3, best_point, kernel)
