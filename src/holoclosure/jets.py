"""Truncated power series (jets) and the relation-degree probe.

A jet is a power series truncated at a fixed total degree K: its terms of
degree <= K as rows (pack, integer numerator) over one positive denominator
with no common factor.  A pack is ``poly``'s Kronecker layout for exponents
up to K, the first variable's most significant, under one more field, on
top, holding the degree: every variable's weight adds the degree field's.
So the rows ascend by degree and a product's pack is a sum.  Sums,
products and powers work on the rows: a product's inner loop stops at the
first partner whose degree would pass K.  ``coeffs`` and ``poly`` are views,
and composition F(components) is the loop ``poly.compose`` that
substitution also runs.

The relation probe looks for a nonzero polynomial F of bounded degree with
F(components) = 0 up to degree K: the coefficients of F satisfy an exact
linear system over Q, one column per candidate monomial of F, the numerator
rows of its jet.  The columns go to ``linalg.relations`` in ascending
grevlex, lowest degree first, and the search stops at the first column that
depends on earlier ones, so each column is eliminated once.  Each candidate
is composed with one jet product, from a candidate of one degree less.
Applied to the truncations
of the map (v,w) -> (v, vw, vw*e^w), the probe exhibits how the minimal
relation degree grows with K while any fixed degree is eventually excluded
- one-sided evidence (not proof) that the components satisfy no analytic
relation at all.  Relations are sought over Q: a jet coefficient is a real
element of Q(i), checked where it enters a jet, and for such components a
relation with Gaussian rational coefficients exists iff one with rational
coefficients does (take real or imaginary parts).
"""

from __future__ import annotations

from math import comb, factorial, gcd
from typing import Mapping, NamedTuple, Sequence

from holoclosure import linalg
from holoclosure.arith import ONE, GaussianRational, power
from holoclosure.errors import InvariantError, ResourceLimitError
from holoclosure.poly import (
    Block,
    GREVLEX,
    Monomial,
    Polynomial,
    VariableContext,
    compose,
    kronecker_layout,
    pack_terms,
    param_context,
    unpack_polynomial,
    z_context,
)

MAX_PROBE_ENTRIES = 2_000_000  # rows x cols bound for the relation system


class Jet:
    """Power series truncated at total degree ``order``: ``rows`` over ``denominator``.

    A row (pack, n) is the term n/denominator times the packed monomial.
    The coefficients are real elements of Q(i), checked where they enter,
    by ``Jet(...)`` and ``Jet.constant``; the ring operations keep them real.
    """

    __slots__ = ("context", "order", "rows", "denominator")

    def __init__(self, context: VariableContext, order: int, coeffs: Mapping[Monomial, GaussianRational]):
        shifts, weights = kronecker_layout(context.size + 1, order)  # the degree field, then the exponents'
        rows, d = pack_terms(coeffs, [weights[0] + w for w in weights[1:]])
        if any(b for _, _, b in rows):
            raise ValueError("jet coefficients must be rational (real)")
        if order < 0:
            raise ValueError("jet order must be non-negative")
        limit = (order + 1) << shifts[0]  # a pack at or above it is of degree above the order
        _fill(self, context, order, {p: a for p, a, _ in rows if p < limit}, d)

    def __setattr__(self, name, value):
        raise AttributeError("Jet is immutable")

    @classmethod
    def constant(cls, context: VariableContext, order: int, c) -> "Jet":
        return cls(context, order, {(0,) * context.size: c})

    @classmethod
    def variable(cls, context: VariableContext, order: int, name: str) -> "Jet":
        return cls(context, order, Polynomial.variable(context, name).terms)

    @property
    def coeffs(self) -> dict:
        """The term map monomial -> nonzero coefficient, in row order."""
        return self.poly.terms

    @property
    def poly(self) -> Polynomial:
        shifts = kronecker_layout(self.context.size + 1, self.order)[0][1:]  # the exponents', not the degree's
        return unpack_polynomial(self.context, ((p, n, 0) for p, n in self.rows), shifts, self.denominator)

    def _require_compatible(self, other: "Jet"):
        if self.context != other.context or self.order != other.order:
            raise ValueError("jets with different contexts or orders")

    def __add__(self, other: "Jet") -> "Jet":
        self._require_compatible(other)
        d1, d2 = self.denominator, other.denominator
        acc = {p: n * d2 for p, n in self.rows}
        for p, n in other.rows:
            acc[p] = acc.get(p, 0) + n * d1
        return _fill(object.__new__(Jet), self.context, self.order, acc, d1 * d2)

    def __mul__(self, other: "Jet") -> "Jet":
        self._require_compatible(other)
        limit = (self.order + 1) << kronecker_layout(self.context.size + 1, self.order)[0][0]
        acc = {}
        get, ys = acc.get, other.rows
        for p1, n1 in self.rows:
            top = limit - p1  # a partner packed at top or above passes the order
            for p2, n2 in ys:
                if p2 >= top:
                    break
                p = p1 + p2
                acc[p] = get(p, 0) + n1 * n2
        return _fill(object.__new__(Jet), self.context, self.order, acc, self.denominator * other.denominator)

    def __pow__(self, e: int) -> "Jet":
        if e < 0:
            raise ValueError("negative jet power")
        return power(self, e, Jet.constant(self.context, self.order, 1))

    def truncate(self, order: int) -> "Jet":
        """The jet at a lower or equal order; a higher one is not known from this jet."""
        if order > self.order:
            raise ValueError(f"cannot raise a jet's order from {self.order} to {order}")
        return self if order == self.order else Jet(self.context, order, self.coeffs)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Jet):
            return NotImplemented
        return (self.order, self.denominator, self.rows, self.context) == (
            other.order, other.denominator, other.rows, other.context)

    def __hash__(self):
        return hash((self.order, self.denominator, self.rows, self.context))

    def __repr__(self):
        return f"<Jet order={self.order} {sorted(self.coeffs.items())!r}>"


def _fill(jet: Jet, context: VariableContext, order: int, acc: dict, d: int) -> Jet:
    """``jet`` set to the sum of acc[p]/d times the monomial packed as p, over no common factor."""
    rows = sorted(t for t in acc.items() if t[1])
    g = gcd(d, *[n for _, n in rows])
    rows = tuple([(p, n // g) for p, n in rows] if g != 1 else rows)
    for name, value in zip(Jet.__slots__, (context, order, rows, d // g)):
        object.__setattr__(jet, name, value)
    return jet


def jet_exp(context: VariableContext, name: str, order: int) -> Jet:
    """Truncation of e^t for the named variable: sum of t^j / j! for j <= K."""
    (m,) = Polynomial.variable(context, name).terms
    return Jet(context, order, {tuple([j * e for e in m]): ONE / factorial(j) for j in range(order + 1)})


def jet_compose(F: Polynomial, components: Sequence[Jet], order: int) -> Jet:
    """Exact composition F(components) truncated at total degree ``order``."""
    comps = _components_at(components, order)
    if F.context.size != len(comps):
        raise ValueError("polynomial arity does not match component count")
    ctx = comps[0].context
    return compose(F, comps, lambda c: Jet.constant(ctx, order, c))


def _components_at(components: Sequence[Jet], order: int) -> list:
    """The components, over one context and of order at least ``order``, truncated at it."""
    if not components:
        raise ValueError("need at least one component")
    ctx = components[0].context
    if any(jet.context != ctx for jet in components):
        raise ValueError("components over different parameter contexts")
    return [jet.truncate(order) for jet in components]  # refuses a jet of lower order


def jet_from_symbolic(f: Polynomial, order: int) -> Jet:
    """Evaluate a polynomial over a PARAM+EXP context into a jet.

    Each EXP variable named ``exp(t)`` becomes the exponential jet of its
    parameter; PARAM variables become themselves.
    """
    src = f.context
    ctx = param_context([src.names[k] for k in src.indices(Block.PARAM)])
    images = [Jet.variable(ctx, order, name) if block is Block.PARAM
              else jet_exp(ctx, name[4:-1], order)  # exp(<param>)
              for name, block in zip(src.names, src.blocks)]
    return jet_compose(f, images, order)


class ProbeResult(NamedTuple):
    """Outcome of a relation search: minimal witness degree, or none <= D."""

    jet_order: int
    max_degree: int
    min_relation_degree: int | None
    witness: Polynomial | None


def _monomials_of_degree(nvars: int, degree: int) -> list:
    """All exponent tuples of total degree ``degree``, ascending grevlex."""
    out = [()]
    for _ in range(nvars - 1):
        out = [m + (e,) for m in out for e in range(degree + 1 - sum(m))]
    return sorted((m + (degree - sum(m),) for m in out), key=GREVLEX.key)


def _require_budget(equations: int, cols: int):
    if equations * cols > MAX_PROBE_ENTRIES:
        raise ResourceLimitError(f"relation system {equations}x{cols} exceeds the probe budget")


def _check_probe_request(params: int, components: int, order: int, max_degree: int):
    """Reject a probe whose degree-1 system is over budget, before any jet is built.

    That system has C(order + params, params) equations and components + 1 columns.
    """
    if order < 1 or max_degree < 1:
        raise ValueError("probe needs order >= 1 and max_degree >= 1")
    _require_budget(comb(order + params, params), components + 1)


def relation_probe(components: Sequence[Jet], order: int, max_degree: int) -> ProbeResult:
    """Minimal degree of a nonzero polynomial relation visible at this order.

    Unknowns are coefficients of F with deg F <= D; one linear equation per
    parameter monomial of total degree <= K in the composed jet.  Each
    candidate monomial of F is one column, its composed jet's numerator
    rows, built by one jet product from a candidate of one degree less and
    fed to ``linalg.relations`` in ascending grevlex only as far as the
    search goes.  The first dependent column fixes the degree; its relation,
    scaled by the jets' denominators to a first coefficient 1, is the witness.
    """
    comps = _components_at(components, order)
    r = len(comps)
    ctx = comps[0].context
    _check_probe_request(ctx.size, r, order, max_degree)
    equations = comb(order + ctx.size, ctx.size)
    one = (0,) * r
    candidates = [one]  # the monomial of each column, in the order fed
    composed = {one: Jet.constant(ctx, order, 1)}

    def columns():
        yield dict(composed[one].rows)
        for degree in range(1, max_degree + 1):
            _require_budget(equations, comb(degree + r, r))
            for alpha in _monomials_of_degree(r, degree):
                # alpha lowered at its first nonzero exponent came a degree earlier
                k = next(i for i, e in enumerate(alpha) if e)
                parent = alpha[:k] + (alpha[k] - 1,) + alpha[k + 1:]
                composed[alpha] = composed[parent] * comps[k]
                candidates.append(alpha)
                yield dict(composed[alpha].rows)

    for j, relation in linalg.relations(columns()):
        degree = sum(candidates[j])
        # column i is jet i times its denominator d_i: scale by d_i over the first one
        d = {i: composed[candidates[i]].denominator for i in relation}
        witness = Polynomial(z_context(r), {candidates[i]: c * d[i] / d[min(d)] for i, c in relation.items()})
        if witness.total_degree() != degree:
            raise InvariantError("witness degree inconsistent with search level")
        return ProbeResult(order, max_degree, degree, witness)
    return ProbeResult(order, max_degree, None, None)


def osgood_components(order: int) -> list:
    """Jets of the map (v, w) -> (v, v*w, v*w*e^w) at the given order."""
    ctx = param_context(("v", "w"))
    v = Jet.variable(ctx, order, "v")
    w = Jet.variable(ctx, order, "w")
    return [v, v * w, v * w * jet_exp(ctx, "w", order)]


def osgood_probe(orders: Sequence[int], max_degree: int) -> list:
    """Relation probe on the Osgood map at each truncation order."""
    for k in orders:
        _check_probe_request(2, 3, k, max_degree)  # parameters v, w; three components
    return [relation_probe(osgood_components(k), k, max_degree) for k in orders]


def symbolic_probe(polys: Sequence[Polynomial], orders: Sequence[int], max_degree: int) -> list:
    """Relation probe on jet components given over a PARAM+EXP context, at each order."""
    params = len(polys[0].context.indices(Block.PARAM))
    for k in orders:
        _check_probe_request(params, len(polys), k, max_degree)
    return [
        relation_probe([jet_from_symbolic(f, k) for f in polys], k, max_degree)
        for k in orders
    ]
