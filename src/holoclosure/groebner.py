"""Buchberger's algorithm, normal forms, elimination ideals, Krull dimension.

The engine is deliberately plain: normal pair-selection strategy plus the
coprime and chain criteria, full inter-reduction at the end, and a hard
pair/degree budget so adversarial input fails deterministically instead of
looping.  Division reduces in one mutable term map keyed by the order's
additive int key, each key sitting once in a min-heap (negated), so no step
re-sorts a polynomial (a heap where Yan's geobuckets, JSC 26, 1998, keep
buckets); exponents travel packed beside the keys, so a divisibility test
is one subtraction and one mask and a product is two additions (Monagan
and Pearce, JSC 46, 2011).  The popped largest monomial goes to the first
reducer in list order that divides it, so remainders are deterministic.
Dimension is the combinatorial one, read off the leading-term staircase of
a basis in any term order: R/I and R/in(I) have the same Krull dimension
(Kredel and Weispfenning, JSC 6, 1988), and it agrees with the dimension of
the radical, so no radical computation is needed.  The part of a
block-elimination basis free of its leading groups is the reduced basis of
the elimination ideal, so one basis answers every dimension and elimination
question about an ideal and its projections.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Iterable, Sequence

from holoclosure.arith import gq
from holoclosure.errors import ResourceLimitError
from holoclosure.poly import (
    MAX_EXPONENT,
    Block,
    BlockElimination,
    GREVLEX,
    MonomialOrder,
    Polynomial,
    VariableContext,
    monomial_degree,
    monomial_div,
    monomial_divides,
    monomial_lcm,
)


@dataclass(frozen=True)
class GroebnerConfig:
    """Deterministic failure budget for basis computations."""

    max_pairs: int = 50_000
    max_degree: int = 60


DEFAULT_CONFIG = GroebnerConfig()


@dataclass(frozen=True)
class Ideal:
    """An ideal presented by generators (the object is the ideal, not the list)."""

    context: VariableContext
    generators: tuple

    @classmethod
    def from_polys(cls, context: VariableContext, polys: Iterable[Polynomial]) -> "Ideal":
        kept = []
        for f in polys:
            if f.context != context:
                raise ValueError("generator over a different variable context")
            if not f.is_zero:
                kept.append(f)
        return cls(context, tuple(kept))

    @property
    def is_zero(self) -> bool:
        return not self.generators


@dataclass(frozen=True)
class GroebnerBasis:
    """The reduced Groebner basis of an ideal over ``context`` under ``order``."""

    context: VariableContext
    order: MonomialOrder
    basis: tuple

    @property
    def is_unit(self) -> bool:
        return any(not f.is_zero and f.total_degree() == 0 for f in self.basis)

    def leading_monomials(self) -> list:
        return [f.leading(self.order)[0] for f in self.basis]

    def dimension(self):
        """(Krull dimension, maximal independent set) of the quotient ring.

        An empty basis is the zero ideal (every variable independent);
        (None, None) means the unit ideal, the empty set.  A variable that
        is the whole support of a leading monomial lies in no independent
        set, so the search skips it.  The search is a branch and bound over
        the other variables in index order, each tried in before out; a
        branch is cut once it cannot beat the largest set found so far, so
        the first largest set it meets is the lexicographically first one,
        the set ``combinations`` gives first, largest size first.
        """
        supports = [frozenset(k for k, e in enumerate(m) if e) for m in self.leading_monomials()]
        if any(not s for s in supports):
            return None, None  # a constant leads the staircase: unit ideal
        powers = {k for s in supports if len(s) == 1 for k in s}
        variables = [k for k in range(self.context.size) if k not in powers]
        supports = sorted((s for s in supports if not s & powers), key=len)
        containing = {k: [s for s in supports if k in s] for k in variables}
        chosen = set()
        best = [-1, None]

        def upper_bound(pos: int) -> int:
            # every support whose decided variables are all chosen loses one of
            # its undecided ones; disjoint undecided parts lose one each
            first = variables[pos] if pos < len(variables) else self.context.size
            lost, taken = 0, set()
            for s in supports:
                if all(k in chosen for k in s if k < first):
                    undecided = {k for k in s if k >= first}
                    if not undecided & taken:
                        taken |= undecided
                        lost += 1
            return len(chosen) + len(variables) - pos - lost

        def search(pos: int):
            if upper_bound(pos) <= best[0]:
                return
            if pos == len(variables):
                best[:] = [len(chosen), frozenset(chosen)]
                return
            v = variables[pos]
            chosen.add(v)
            if not any(s <= chosen for s in containing[v]):
                search(pos + 1)
            chosen.discard(v)
            search(pos + 1)

        search(0)
        return tuple(best)

    def elimination(self, count: int) -> "GroebnerBasis":
        """The elements free of the first ``count`` groups of a block order.

        They move to the context without those variables.  For a reduced
        basis this is the reduced basis of the elimination ideal, under the
        order of the remaining groups.
        """
        dropped = {k for g in self.order.groups[:count] for k in g}
        kept = [k for k in range(self.context.size) if k not in dropped]
        target = self.context.subcontext(kept)
        new_index = {old: new for new, old in enumerate(kept)}
        index_map = [new_index.get(k, 0) for k in range(self.context.size)]
        part = tuple(
            g.rename(target, index_map) for g in self.basis if not g.used_indices() & dropped
        )
        return GroebnerBasis(target, self.order.after(count), part)


def normal_form(f: Polynomial, G: Sequence[Polynomial], order: MonomialOrder) -> Polynomial:
    """Remainder of multivariate division of f by G.

    No term of the result is divisible by any leading monomial of G, and
    f - result lies in the ideal generated by G.  Division runs on the
    polynomials' packed views: the dividend is one mutable map from order
    key to coefficient, with the packed exponents of each key beside it, and
    a min-heap holds each key once, negated, so every step pops the largest
    live monomial without re-sorting.  A monomial whose coefficient
    cancelled stays in the map at zero until it is popped and skipped.  A
    reducer divides when ``(e - lm) & guard`` is 0, and the quotient times
    a reducer term is one int addition for the key and one for the
    exponents; a product that sets a guard bit raises ResourceLimitError.
    The largest monomial is reduced by the first reducer in list order whose
    leading monomial divides it, so the result is deterministic; the
    reducer's leading term is skipped, since it cancels exactly.  Only the
    remainder is unpacked into exponent tuples.
    """
    packing = order.packing(f.context.size)
    guard = packing.guard
    reducers = []
    for g in G:
        if not g.is_zero:
            (lp, lk, lc), *rest = g.packed_terms(order)
            reducers.append((lp, lk, lc, rest))
    dividend = f.packed_terms(order)
    coeffs = {k: c for _, k, c in dividend}
    exps = {k: p for p, k, _ in dividend}
    heap = [-k for k in coeffs]
    heapq.heapify(heap)
    push, pop = heapq.heappush, heapq.heappop
    remainder = {}
    while heap:
        k = -pop(heap)
        c = coeffs.pop(k)
        p = exps.pop(k)
        if not c:
            continue
        for lp, lk, lc, rest in reducers:
            q = p - lp
            if not q & guard:
                qk = k - lk
                s = -(c / lc)
                for p2, k2, c2 in rest:
                    t = qk + k2
                    old = coeffs.get(t)
                    if old is None:
                        # a live key's exponents already fit, so only a new one is checked
                        e = q + p2
                        if e & guard:
                            raise ResourceLimitError(
                                f"normal form: a product exponent exceeds the packed "
                                f"exponent limit of {MAX_EXPONENT}"
                            )
                        coeffs[t] = s * c2
                        exps[t] = e
                        push(heap, -t)
                    else:
                        coeffs[t] = old + s * c2
                break
        else:
            remainder[packing.unpack(p)] = c
    return Polynomial(f.context, remainder)


def s_polynomial(f: Polynomial, g: Polynomial, order: MonomialOrder) -> Polynomial:
    mf, cf = f.leading(order)
    mg, cg = g.leading(order)
    lcm = monomial_lcm(mf, mg)
    one = gq(1)
    a = Polynomial.from_monomial(f.context, monomial_div(lcm, mf), one / cf) * f
    b = Polynomial.from_monomial(g.context, monomial_div(lcm, mg), one / cg) * g
    return a - b


def _reduce_basis(G: list, order: MonomialOrder) -> tuple:
    """Minimalize then fully inter-reduce; output monic, sorted by ascending LM."""
    G = sorted((g for g in G if not g.is_zero), key=lambda g: order.key(g.leading(order)[0]))
    minimal = []
    for g in G:
        lm = g.leading(order)[0]
        if not any(monomial_divides(h.leading(order)[0], lm) for h in minimal):
            minimal.append(g)
    reduced = []
    for i, g in enumerate(minimal):
        others = minimal[:i] + minimal[i + 1:]
        r = normal_form(g, others, order)
        reduced.append(r.monic(order))
    reduced.sort(key=lambda g: order.key(g.leading(order)[0]))
    return tuple(reduced)


def buchberger(I: Ideal, order: MonomialOrder, config: GroebnerConfig = DEFAULT_CONFIG) -> GroebnerBasis:
    """Reduced Groebner basis of I; deterministic for a fixed generator order."""
    gens = [g for g in I.generators if not g.is_zero]
    if not gens:
        return GroebnerBasis(I.context, order, ())
    G = [g.monic(order) for g in gens]
    lead = [g.leading(order)[0] for g in G]
    # the leads packed, for the coprime and chain tests
    packing = order.packing(I.context.size)
    guard = packing.guard
    packed = [g.packed_terms(order)[0][0] for g in G]

    heap = []
    pending = set()

    def push_pairs(j):
        for i in range(j):
            lcm = monomial_lcm(lead[i], lead[j])
            heapq.heappush(heap, (monomial_degree(lcm), i, j, packing.pack(lcm)))
            pending.add((i, j))

    for j in range(len(G)):
        push_pairs(j)

    processed = 0
    while heap:
        _, i, j, lcm = heapq.heappop(heap)
        pending.discard((i, j))
        processed += 1
        if processed > config.max_pairs:
            raise ResourceLimitError(f"S-pair budget of {config.max_pairs} exceeded")
        # coprime leading terms reduce to zero
        if lcm == packed[i] + packed[j]:
            continue
        # chain criterion: a third element dividing the lcm whose pairs with
        # i and j are both settled makes this pair redundant
        skip = False
        for k in range(len(G)):
            if k == i or k == j:
                continue
            if not (lcm - packed[k]) & guard:
                pik = (min(i, k), max(i, k))
                pjk = (min(j, k), max(j, k))
                if pik not in pending and pjk not in pending:
                    skip = True
                    break
        if skip:
            continue
        h = normal_form(s_polynomial(G[i], G[j], order), G, order)
        if h.is_zero:
            continue
        if h.total_degree() > config.max_degree:
            raise ResourceLimitError(
                f"intermediate degree {h.total_degree()} exceeds budget {config.max_degree}"
            )
        G.append(h.monic(order))
        lead.append(h.leading(order)[0])
        packed.append(G[-1].packed_terms(order)[0][0])
        push_pairs(len(G) - 1)

    return GroebnerBasis(I.context, order, _reduce_basis(G, order))


def ideal_membership(f: Polynomial, I: Ideal, config: GroebnerConfig = DEFAULT_CONFIG) -> bool:
    gb = buchberger(I, GREVLEX, config)
    return normal_form(f, gb.basis, gb.order).is_zero


def eliminate(I: Ideal, block: Block, config: GroebnerConfig = DEFAULT_CONFIG) -> Ideal:
    """Generators of I intersected with the subring omitting ``block``.

    They are the reduced grevlex basis of that ideal, read off a
    block-elimination basis; the result context drops the block.
    """
    part = buchberger(I, BlockElimination.of_blocks(I.context, block), config).elimination(1)
    return Ideal(part.context, part.basis)


def dimension_and_witness(I: Ideal, config: GroebnerConfig = DEFAULT_CONFIG):
    """(Krull dimension, maximal independent set) or (None, None) if 1 in I."""
    if I.is_zero:
        return GroebnerBasis(I.context, GREVLEX, ()).dimension()
    return buchberger(I, GREVLEX, config).dimension()


def ideal_dimension(I: Ideal, config: GroebnerConfig = DEFAULT_CONFIG):
    """Krull dimension of the quotient ring; None means the unit ideal (empty)."""
    dim, _ = dimension_and_witness(I, config)
    return dim
