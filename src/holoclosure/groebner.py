"""Buchberger's algorithm, normal forms, elimination ideals, Krull dimension.

The engine is a signature-based Buchberger loop (the RB family of Eder and
Faugere's survey, JSC 80, 2017; Roune and Stillman, ISSAC 2012), which skips
most S-pairs that would reduce to zero by a syzygy or rewrite criterion,
inter-reduction at the end in one pass by ascending leading monomial, and
two budgets: ``max_pairs`` bounds the queue entries popped, ``max_degree``
the total degree of an element added to the basis, every term and not the
lead alone.  Neither bounds the time of one normal form, so an input can
run for minutes without tripping either.  The engine reads each polynomial
through its cached ``PackedRows`` view, built once:
Gaussian-integer numerators over one denominator, exponents packed beside the
order's additive int key, so a divisibility test is one subtraction and one
mask and a product is two additions (Monagan and Pearce, JSC 46, 2011).
Division is fraction-free over Z[i], as in Singular, in one mutable term map
whose keys sit once in a min-heap, so no step re-sorts a polynomial (a heap
where Yan's geobuckets, JSC 26, 1998, keep buckets).  A Buchberger run's
normal forms share one reducer table, its basis's rows and a memo of each
monomial's first divisor, so a monomial that recurs in a later S-pair is not
searched again (where Singular filters with short exponent vectors, Bachmann
and Schoenemann, ISSAC 1998); inter-reduction shares one table the same way.
S-polynomials and remainders are built from rows; their terms are
canonicalized only if read.  Pair lcms, signatures and the degree budget
are read off packs too, so no element the run adds unpacks its terms.
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
from math import gcd, lcm
from typing import Iterable, NamedTuple, Sequence

from holoclosure.arith import inverse_numerator
from holoclosure.errors import ResourceLimitError
from holoclosure.poly import (
    Block,
    BlockElimination,
    GREVLEX,
    MonomialOrder,
    Polynomial,
    VariableContext,
    raise_exponent_overflow,
)


class GroebnerConfig(NamedTuple):
    """Deterministic failure budget for basis computations."""

    max_pairs: int = 50_000
    max_degree: int = 60


DEFAULT_CONFIG = GroebnerConfig()


class Ideal(NamedTuple):
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


class GroebnerBasis(NamedTuple):
    """The reduced Groebner basis of an ideal over ``context`` under ``order``."""

    context: VariableContext
    order: MonomialOrder
    basis: tuple

    @property
    def is_unit(self) -> bool:
        """A reduced basis is the unit ideal exactly when it is (1): read off its lead pack."""
        return len(self.basis) == 1 and not self.basis[0].packed_terms(self.order).lead_pack

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
        best = (-1, None)

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

        # an explicit stack, as one recursion level per variable would pass the
        # interpreter's limit on wide inputs; (pos, True) resumes pos after its in-branch
        stack = [(0, False)]
        while stack:
            pos, resumed = stack.pop()
            if resumed:
                chosen.discard(variables[pos])
                pos += 1
            if upper_bound(pos) <= best[0]:
                continue
            if pos == len(variables):
                best = (len(chosen), frozenset(chosen))
                continue
            v = variables[pos]
            chosen.add(v)
            stack.append((pos, True))
            if not any(s <= chosen for s in containing[v]):
                stack.append((pos + 1, False))
        return best

    def elimination(self, count: int) -> "GroebnerBasis":
        """The elements free of the first ``count`` ranked groups of the order.

        They move to the context without those variables, under the
        remaining groups renumbered from 0 (grevlex if one is left).  For a
        reduced basis this is the reduced basis of the elimination ideal.
        """
        groups = self.order.ranked_groups(self.context.size)
        dropped = {k for g in groups[:count] for k in g}
        kept = [k for k in range(self.context.size) if k not in dropped]
        target = self.context.subcontext(kept)
        new_index = {old: new for new, old in enumerate(kept)}
        index_map = [new_index.get(k, 0) for k in range(self.context.size)]
        # the dropped variables' fields of a pack: read off rows, only kept elements build term maps
        mask = self.order.packing(self.context.size).fields_mask(dropped)
        part = tuple(g.rename(target, index_map) for g in self.basis
                     if not any(r[0] & mask for r in g.packed_terms(self.order).rows()))
        rest = tuple(tuple(new_index[k] for k in g) for g in groups[count:])
        return GroebnerBasis(target, GREVLEX if len(rest) == 1 else BlockElimination(rest), part)


def normal_form(f: Polynomial, G: Sequence[Polynomial], order: MonomialOrder, table: tuple | None = None,
                bound: tuple | None = None) -> Polynomial:
    """Remainder of multivariate division of f by G.

    No term of the result is divisible by any leading monomial of G, and
    f - result lies in the ideal generated by G.  Division is fraction-free
    over Z[i] on the cached ``PackedRows`` views, which it never changes:
    the dividend maps each order key to ``[packed exponents, a, b]``, a
    numerator over one ``scale``, and a min-heap holds each key once,
    negated.  The popped monomial is reduced by the first reducer whose
    leading monomial divides it (``(e - lm) & guard`` is 0), so the result
    is deterministic.  That reducer is found in a table ``(rows, memo)``:
    G's nonzero ``PackedRows``, and a map from a packed monomial to the
    index of its first divisor in ``rows``, or to ``~n`` when none of the
    first n rows divides it (a missing entry reads as ``~0``).
    ``buchberger`` and ``_reduce_basis`` each pass one table for their run
    and only append rows, so an index stays valid and a ``~n`` resumes at
    row n; other calls get a fresh table.  With popped numerator c and lead
    numerator L (if L is not a positive integer, c is first multiplied by
    the numerator of 1/L and L becomes its denominator) and g = gcd(c, L),
    the dividend and
    ``scale`` are multiplied by L/g and (c/g) times the quotient monomial
    times the reducer's tail is subtracted.  A product exponent that sets a
    guard bit raises ResourceLimitError.  Scaling changes neither the terms
    nor the reducer chosen, so the remainder, each term over the scale of
    its step, is the Q(i) one.  ``bound = (S, shift, ratios)``, as
    ``buchberger`` passes it, makes the division regular: a reducer is
    used at key k only if its multiple's signature ``(k << shift) +
    ratios[i]`` lies below S, so the first such divisor after the memo's
    is taken and a term that has none is left in the remainder.
    """
    if f.is_zero:
        return f
    guard = order.packing(f.context.size).guard
    rows, memo = table or ([r for g in G if (r := g.packed_terms(order))], {})
    if bound is not None:
        S, shift, ratios = bound
    view = f.packed_terms(order)
    scale = view.denominator
    live = {k: [p, a, b] for p, k, a, b in view.rows()}
    heap = [-k for k in live]
    heapq.heapify(heap)
    push, pop = heapq.heappush, heapq.heappop
    remainder = []
    while heap:
        k = -pop(heap)
        p, a, b = live.pop(k)
        if not (a or b):
            continue
        i = memo.get(p, -1)
        if i < 0:
            for i in range(~i, len(rows)):
                if not (p - rows[i][0]) & guard:
                    break
            else:
                memo[p] = ~len(rows)
                remainder.append((p, k, a, b, scale))
                continue
            memo[p] = i
        if bound is not None and ratios[i] >= (lim := S - (k << shift)):
            for i in range(i + 1, len(rows)):
                if ratios[i] < lim and not (p - rows[i][0]) & guard:
                    break
            else:
                remainder.append((p, k, a, b, scale))
                continue
        lp, lk, La, Lb, tail, _ = rows[i]
        q = p - lp
        if Lb or La < 0:
            ua, ub, L = inverse_numerator(La, Lb)
            a, b = a * ua - b * ub, a * ub + b * ua
        else:
            L = La
        if L != 1:
            g = gcd(a, b, L)
            if g != L:
                m = L // g
                scale *= m
                for t in live.values():
                    t[1] *= m
                    t[2] *= m
            if g != 1:
                a //= g
                b //= g
        qk = k - lk
        for p2, k2, a2, b2 in tail:
            t = qk + k2
            da = a * a2 - b * b2
            db = a * b2 + b * a2
            old = live.get(t)
            if old is None:
                # a live key's exponents already fit, so only a new one is checked
                e = q + p2
                if e & guard:
                    raise_exponent_overflow("normal form: a product exponent")
                live[t] = [e, -da, -db]
                push(heap, -t)
            else:
                old[1] -= da
                old[2] -= db
    rows = [(p, k, a * (scale // s), b * (scale // s)) for p, k, a, b, s in remainder]
    return Polynomial.from_rows(f.context, order, rows, scale)


def _shifted_tail(view, dp: int, dk: int, wa: int, wb: int) -> list:
    """The tail of ``view`` times wa + wb*i and the monomial of pack dp and key dk."""
    return [(p + dp, k + dk, a * wa - b * wb, a * wb + b * wa) for p, k, a, b in view.tail]


def s_polynomial(f: Polynomial, g: Polynomial, order: MonomialOrder) -> Polynomial:
    """lcm/lt(f) * f - lcm/lt(g) * g, formed on the rows under ``order``.

    Each tail, divided by its lead numerator, is shifted by its cofactor
    (one int addition for the key and one for the exponents), and the two,
    over one denominator and both descending, are merged in one pass; the
    leading terms cancel.  The result is built from these rows, so
    ``normal_form`` neither keys nor sorts it.  A shifted exponent that sets
    a guard bit raises ResourceLimitError.
    """
    packing = order.packing(f.context.size)
    F, G = f.packed_terms(order), g.packed_terms(order)
    lp = packing.lcm(F.lead_pack, G.lead_pack)
    lk = packing.pack_key(lp)
    fa, fb, nf = inverse_numerator(F.lead_a, F.lead_b)
    ga, gb, ng = inverse_numerator(G.lead_a, G.lead_b)
    n = lcm(nf, ng)
    A = _shifted_tail(F, lp - F.lead_pack, lk - F.lead_key, fa * (n // nf), fb * (n // nf))
    B = _shifted_tail(G, lp - G.lead_pack, lk - G.lead_key, -ga * (n // ng), -gb * (n // ng))
    merged = []
    i, j = 0, 0
    while i < len(A) and j < len(B):
        x, y = A[i], B[j]
        if x[1] > y[1]:
            merged.append(x)
            i += 1
        elif y[1] > x[1]:
            merged.append(y)
            j += 1
        else:
            a, b = x[2] + y[2], x[3] + y[3]
            if a or b:
                merged.append((x[0], x[1], a, b))
            i += 1
            j += 1
    merged += A[i:]
    merged += B[j:]
    seen = 0
    for p, _, _, _ in merged:
        seen |= p
    if seen & packing.guard:
        raise_exponent_overflow("S-polynomial: a product exponent")
    return Polynomial.from_rows(f.context, order, merged, n)


def _reduce_basis(G: list, order: MonomialOrder) -> tuple:
    """The reduced basis of a Groebner basis G: monic, by ascending leading monomial.

    One pass by ascending lead drops an element whose lead a kept lead
    divides (an equal one too) and divides any other by the reduced ones
    before it, through one reducer table that grows as in ``buchberger``.
    Only a smaller lead divides a term below an element's own, so each
    remainder is fully reduced, and the first element is kept as it is.
    """
    guard = order.packing(G[0].context.size).guard
    reduced, rows = [], []
    table = (rows, {})
    for g in sorted(G, key=lambda g: g.packed_terms(order).lead_key):
        lp = g.packed_terms(order).lead_pack
        if any(not (lp - r.lead_pack) & guard for r in rows):
            continue
        r = (normal_form(g, reduced, order, table) if reduced else g).monic(order)
        reduced.append(r)
        rows.append(r.packed_terms(order))
    return tuple(reduced)


def buchberger(I: Ideal, order: MonomialOrder, config: GroebnerConfig = DEFAULT_CONFIG) -> GroebnerBasis:
    """Reduced Groebner basis of I; deterministic for a fixed generator order.

    Every element carries a signature t*e_i, the term of the syzygy module
    it stands for, under the Schreyer order of the input leads: t*e_i
    compares as ``(key(t * lm f_i), i)``, one int ``key << shift | i``.  An
    element's ``ratio`` is its signature minus ``key(lm) << shift``, so a
    multiple u*g has signature ``key(u * lm g) << shift`` plus g's ratio,
    and an S-pair takes the larger multiple's, its generator's.  Input i
    is queued at e_i and the queue pops the least signature S.  An entry is
    skipped when a known syzygy signature divides S (the Koszul one of
    every pair of elements, and that of each zero remainder), when S was
    just taken, or when its generator is not S's canonical rewriter: of the
    elements whose signature divides S, the one whose multiple has the
    least lead, the largest ratio, the newest on a tie.  A kept pair's
    S-polynomial is reduced regularly (``normal_form``'s ``bound``); an
    input is reduced so only if its lead is regularly reducible, otherwise
    it joins G as it is.  A zero remainder adds the syzygy S, and a lead
    that some element's multiple of signature exactly S divides is dropped
    as redundant.  ``max_pairs`` counts every entry popped, inputs too,
    and ``max_degree`` reads every term of each remainder added, never an
    input's.  Pairs with coprime leads or equal multiples' signatures are
    never queued.
    """
    F = [g.monic(order) for g in I.generators if not g.is_zero]
    if not F:
        return GroebnerBasis(I.context, order, ())
    packing = order.packing(I.context.size)
    guard, degree = packing.guard, packing.degree
    shift = len(F).bit_length()
    mask = (1 << shift) - 1
    G, rows, ratios, sigs = [], [], [], []
    table = (rows, {})  # G's reducer table, which every normal form of the run shares
    syzygies = [[] for _ in F]  # for input i, the packs t of known syzygy signatures t*e_i
    members = [[] for _ in F]  # for input i, the elements whose signature has index i
    queue = [(F[i].packed_terms(order).lead_key << shift | i, -1, i, 0) for i in range(len(F))]
    heapq.heapify(queue)
    popped, last = 0, -1
    while queue:
        S, a, b, s = heapq.heappop(queue)
        popped += 1
        if popped > config.max_pairs:
            raise ResourceLimitError(f"S-pair budget of {config.max_pairs} exceeded")
        i = S & mask
        if S == last or any(not (s - t) & guard for t in syzygies[i]):
            continue
        if a < 0:
            # an input joins G as it is unless a multiple below e_i divides its lead
            h = F[i]
            lp = h.packed_terms(order).lead_pack
            if any(ratios[k] < i and not (lp - rows[k].lead_pack) & guard for k in range(len(G))):
                h = normal_form(h, G, order, table, (S, shift, ratios))
        else:
            # S's canonical rewriter: the largest ratio, the newest on a tie
            if max((ratios[k], k) for k in members[i] if not (s - sigs[k]) & guard)[1] != a:
                continue
            h = normal_form(s_polynomial(G[a], G[b], order), G, order, table, (S, shift, ratios))
        last = S
        if h.is_zero:
            syzygies[i].append(s)
            continue
        h = h.monic(order)
        view = h.packed_terms(order)
        lp, lk = view.lead_pack, view.lead_key
        r = S - (lk << shift)
        # a lead that a multiple of signature exactly S divides is redundant
        if a >= 0 and any(ratios[k] == r and not (lp - rows[k].lead_pack) & guard for k in members[i]):
            continue
        if h is not F[i] and (d := max([degree(t[0]) for t in view.rows()])) > config.max_degree:
            raise ResourceLimitError(f"intermediate degree {d} exceeds budget {config.max_degree}")
        k = len(G)
        for j in range(k):
            lj, rj = rows[j].lead_pack, ratios[j]
            if rj == r:
                continue  # both multiples have one signature: a singular pair
            m = packing.lcm(lj, lp)
            # the generator is the element whose multiple has the larger signature, of pack t
            g, rg, t = (j, rj, sigs[j] + m - lj) if rj > r else (k, r, s + m - lp)
            syz = syzygies[rg & mask]
            if any(not (t - y) & guard for y in syz):
                continue
            # the Koszul syzygy's signature is gcd(lm_j, lm_h) * t
            z = t + lj + lp - m
            if z == t or not any(not (z - y) & guard for y in syz):
                syz.append(z)
            if m != lj + lp:
                heapq.heappush(queue, ((packing.pack_key(m) << shift) + rg, g, j + k - g, t))
        G.append(h)
        rows.append(view)
        ratios.append(r)
        sigs.append(s)
        members[i].append(k)

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
