"""Buchberger's algorithm, normal forms, elimination ideals, Krull dimension.

The engine is deliberately plain: the sugar pair-selection strategy plus
the coprime and chain criteria, full inter-reduction at the end, and a hard
pair/degree budget so adversarial input fails deterministically instead of
looping.  Division reduces in one mutable term map keyed by the order's
additive int key, each key sitting once in a min-heap (negated), so no step
re-sorts a polynomial (a heap where Yan's geobuckets, JSC 26, 1998, keep
buckets); exponents travel packed beside the keys, so a divisibility test
is one subtraction and one mask and a product is two additions (Monagan
and Pearce, JSC 46, 2011).  The popped largest monomial goes to the first
reducer in list order that divides it, so remainders are deterministic.
An S-polynomial is merged from its parents' packed terms, each shifted by
int additions, and hands division that packed view; a remainder comes back
with its views filled, so a new basis element is keyed once.
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

from holoclosure.arith import MINUS_ONE, ONE
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
    reducer's leading term is skipped, since it cancels exactly, and the
    step's multiplier is the coefficient times the reducer's negated
    leading-coefficient inverse, formed once per call.  Only the
    remainder is unpacked into exponent tuples; its terms are popped in
    descending order, so it comes back with both views under ``order``.
    """
    packing = order.packing(f.context.size)
    guard, unpack = packing.guard, packing.unpack
    reducers = []
    for g in G:
        if not g.is_zero:
            (lp, lk, lc), *rest = g.packed_terms(order)
            # a monic reducer, the usual case, needs no division
            reducers.append((lp, lk, MINUS_ONE if lc == ONE else -(ONE / lc), rest))
    dividend = f.packed_terms(order)
    coeffs = {k: c for _, k, c in dividend}
    exps = {k: p for p, k, _ in dividend}
    heap = [-k for k in coeffs]
    heapq.heapify(heap)
    push, pop = heapq.heappush, heapq.heappop
    items, remainder = [], []
    while heap:
        k = -pop(heap)
        c = coeffs.pop(k)
        p = exps.pop(k)
        if not c:
            continue
        for lp, lk, ninv, rest in reducers:
            q = p - lp
            if not q & guard:
                qk = k - lk
                s = c * ninv
                for p2, k2, c2 in rest:
                    t = qk + k2
                    old = coeffs.get(t)
                    if old is None:
                        # a live key's exponents already fit, so only a new one is checked
                        e = q + p2
                        if e & guard:
                            _exponent_overflow("normal form")
                        coeffs[t] = s * c2
                        exps[t] = e
                        push(heap, -t)
                    else:
                        coeffs[t] = old + s * c2
                break
        else:
            items.append((unpack(p), c))
            remainder.append((p, k, c))
    return Polynomial.with_views(f.context, order, items, remainder)


def _exponent_overflow(phase: str):
    raise ResourceLimitError(
        f"{phase}: a product exponent exceeds the packed exponent limit of {MAX_EXPONENT}"
    )


def _shifted_tail(terms: list, dp: int, dk: int, a) -> list:
    """``terms`` without the leading one, times ``a`` and the monomial of pack dp and key dk."""
    if a == ONE:  # a monic parent: no coefficient arithmetic
        return [(p + dp, k + dk, c) for p, k, c in terms[1:]]
    return [(p + dp, k + dk, c * a) for p, k, c in terms[1:]]


def s_polynomial(f: Polynomial, g: Polynomial, order: MonomialOrder) -> Polynomial:
    """lcm/lt(f) * f - lcm/lt(g) * g, formed on the packed views under ``order``.

    Each tail is shifted by its cofactor, one int addition for the key and
    one for the exponents, and the two shifted tails, both descending, are
    merged in one pass; the leading terms cancel and are skipped.  The
    result carries its views under ``order``, so ``normal_form`` neither
    keys nor sorts it.  A shifted exponent that sets a guard bit raises
    ResourceLimitError.
    """
    packing = order.packing(f.context.size)
    F, G = f.packed_terms(order), g.packed_terms(order)
    (pf, kf, cf), (pg, kg, cg) = F[0], G[0]
    lcm = monomial_lcm(packing.unpack(pf), packing.unpack(pg))
    lp, lk = packing.pack(lcm), packing.key(lcm)
    A = _shifted_tail(F, lp - pf, lk - kf, ONE / cf)
    B = _shifted_tail(G, lp - pg, lk - kg, ONE / cg)
    merged = []
    i, j = 0, 0
    while i < len(A) and j < len(B):
        a, b = A[i], B[j]
        if a[1] > b[1]:
            merged.append(a)
            i += 1
        elif b[1] > a[1]:
            merged.append((b[0], b[1], -b[2]))
            j += 1
        else:
            c = a[2] - b[2]
            if c:
                merged.append((a[0], a[1], c))
            i += 1
            j += 1
    merged += A[i:]
    merged += [(p, k, -c) for p, k, c in B[j:]]
    seen = 0
    for p, _, _ in merged:
        seen |= p
    if seen & packing.guard:
        _exponent_overflow("S-polynomial")
    unpack = packing.unpack
    items = [(unpack(p), c) for p, _, c in merged]
    return Polynomial.with_views(f.context, order, items, merged)


def _reduce_basis(G: list, order: MonomialOrder) -> tuple:
    """Minimalize then fully inter-reduce; output monic, sorted by ascending LM."""
    guard = order.packing(G[0].context.size).guard

    def lead(g):
        return g.packed_terms(order)[0]

    G = sorted((g for g in G if not g.is_zero), key=lambda g: lead(g)[1])
    minimal = []
    for g in G:
        lp = lead(g)[0]
        if all((lp - lead(h)[0]) & guard for h in minimal):
            minimal.append(g)
    reduced = []
    for i, g in enumerate(minimal):
        others = minimal[:i] + minimal[i + 1:]
        r = normal_form(g, others, order)
        reduced.append(r.monic(order))
    reduced.sort(key=lambda g: lead(g)[1])
    return tuple(reduced)


def buchberger(I: Ideal, order: MonomialOrder, config: GroebnerConfig = DEFAULT_CONFIG) -> GroebnerBasis:
    """Reduced Groebner basis of I; deterministic for a fixed generator order.

    Pairs are taken by the sugar strategy (Giovini, Mora, Niesi, Robbiano
    and Traverso, ISSAC 1991): an input generator's sugar is its total
    degree, the sugar of a pair (i, j) is
    ``max(sugar_i + deg lcm - deg lm_i, sugar_j + deg lcm - deg lm_j)``,
    its remainder inherits it, and the heap pops the least
    ``(sugar, deg lcm, i, j)``.  Sugar is the degree the S-polynomial
    would have were the input homogenized, so under lex and block orders,
    where a leading monomial's degree can lie far below its polynomial's,
    pairs still come in nearly ascending degree.
    """
    gens = [g for g in I.generators if not g.is_zero]
    if not gens:
        return GroebnerBasis(I.context, order, ())
    G = [g.monic(order) for g in gens]
    sugar = [g.total_degree() for g in G]
    lead = [g.leading(order)[0] for g in G]
    degree = [monomial_degree(m) for m in lead]
    # the leads packed, for the coprime and chain tests
    packing = order.packing(I.context.size)
    guard = packing.guard
    packed = [g.packed_terms(order)[0][0] for g in G]

    heap = []
    pending = set()

    def push_pairs(j):
        for i in range(j):
            lcm = monomial_lcm(lead[i], lead[j])
            d = monomial_degree(lcm)
            s = max(sugar[i] + d - degree[i], sugar[j] + d - degree[j])
            heapq.heappush(heap, (s, d, i, j, packing.pack(lcm)))
            pending.add((i, j))

    for j in range(len(G)):
        push_pairs(j)

    processed = 0
    while heap:
        s, _, i, j, lcm = heapq.heappop(heap)
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
        h = h.monic(order)
        G.append(h)
        sugar.append(s)
        lead.append(h.leading(order)[0])
        degree.append(monomial_degree(lead[-1]))
        packed.append(h.packed_terms(order)[0][0])
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
