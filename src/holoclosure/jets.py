"""Truncated power series (jets) and the relation-degree probe.

A jet is a power series truncated at a fixed total degree K: a
``Polynomial`` of its terms of degree <= K.  Its sums, products and powers
are ``Polynomial``'s arithmetic, truncated again at K, and composition
F(components) is the loop ``poly.compose`` that substitution also runs.

The relation probe looks for a nonzero polynomial F of bounded degree with
F(components) = 0 up to degree K: the coefficients of F satisfy an exact
linear system over Q, one column per candidate monomial of F.  The columns
go to ``linalg.relations`` in ascending grevlex, lowest degree first, and
the search stops at the first column that depends on earlier ones, so each
column is eliminated once.  Each candidate is composed with one jet
product, from a candidate of one degree less.  Applied to the truncations
of the map (v,w) -> (v, vw, vw*e^w), the probe exhibits how the minimal
relation degree grows with K while any fixed degree is eventually excluded
- one-sided evidence (not proof) that the components satisfy no analytic
relation at all.  Relations are sought over Q: a jet coefficient is a real
element of Q(i), checked where it enters a jet, and for such components a
relation with Gaussian rational coefficients exists iff one with rational
coefficients does (take real or imaginary parts).
"""

from __future__ import annotations

from math import comb
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
    param_context,
    z_context,
)

MAX_PROBE_ENTRIES = 2_000_000  # rows x cols bound for the relation system


class Jet:
    """Power series truncated at total degree ``order``: ``poly``, its terms of degree <= order.

    Sums, products and powers are ``Polynomial``'s, truncated again at the
    order.  The coefficients are real elements of Q(i), checked where they
    enter, by ``Jet(...)`` and ``Jet.constant``; the ring operations keep
    them real.
    """

    __slots__ = ("order", "poly")

    def __init__(self, context: VariableContext, order: int, coeffs: Mapping[Monomial, GaussianRational]):
        f = Polynomial(context, coeffs)
        if not all(c.is_real() for c in f.terms.values()):
            raise ValueError("jet coefficients must be rational (real)")
        jet = _truncated(f, order)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "poly", jet.poly)

    def __setattr__(self, name, value):
        raise AttributeError("Jet is immutable")

    @classmethod
    def constant(cls, context: VariableContext, order: int, c) -> "Jet":
        return cls(context, order, Polynomial.constant(context, c).terms)

    @classmethod
    def variable(cls, context: VariableContext, order: int, name: str) -> "Jet":
        return _truncated(Polynomial.variable(context, name), order)

    @property
    def context(self) -> VariableContext:
        return self.poly.context

    @property
    def coeffs(self) -> dict:
        """The term map monomial -> nonzero coefficient."""
        return self.poly.terms

    def _require_compatible(self, other: "Jet"):
        if self.context != other.context or self.order != other.order:
            raise ValueError("jets with different contexts or orders")

    def __add__(self, other: "Jet") -> "Jet":
        self._require_compatible(other)
        return _truncated(self.poly + other.poly, self.order)

    def __mul__(self, other: "Jet") -> "Jet":
        self._require_compatible(other)
        return _truncated(self.poly * other.poly, self.order)

    def __pow__(self, e: int) -> "Jet":
        if e < 0:
            raise ValueError("negative jet power")
        return power(self, e, Jet.constant(self.context, self.order, 1))

    def truncate(self, order: int) -> "Jet":
        """The jet at a lower or equal order; a higher one is not known from this jet."""
        if order > self.order:
            raise ValueError(f"cannot raise a jet's order from {self.order} to {order}")
        return _truncated(self.poly, order)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Jet):
            return NotImplemented
        return self.order == other.order and self.poly == other.poly

    def __hash__(self):
        return hash((self.order, self.poly))

    def __repr__(self):
        return f"<Jet order={self.order} {sorted(self.coeffs.items())!r}>"


def _truncated(f: Polynomial, order: int) -> Jet:
    """The jet of the terms of ``f`` of total degree <= ``order``; f's coefficients are real."""
    if order < 0:
        raise ValueError("jet order must be non-negative")
    kept = {m: c for m, c in f.terms.items() if sum(m) <= order}
    jet = object.__new__(Jet)
    object.__setattr__(jet, "order", order)
    object.__setattr__(jet, "poly", f if len(kept) == len(f.terms) else Polynomial(f.context, kept))
    return jet


def jet_exp(context: VariableContext, name: str, order: int) -> Jet:
    """Truncation of e^t for the named variable: sum of t^j / j! for j <= K."""
    idx = context.index(name)
    coeffs = {}
    factorial = 1
    for j in range(order + 1):
        if j:
            factorial *= j
        e = [0] * context.size
        e[idx] = j
        coeffs[tuple(e)] = ONE / factorial
    return Jet(context, order, coeffs)


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
    images = []
    for name, block in zip(src.names, src.blocks):
        if block is Block.PARAM:
            images.append(Jet.variable(ctx, order, name))
        else:
            images.append(jet_exp(ctx, name[4:-1], order))  # exp(<param>)
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
        raise ResourceLimitError(
            f"relation system {equations}x{cols} exceeds the probe budget"
        )


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
    candidate monomial of F is one column, its composed jet's coefficient
    map, built by one jet product from a candidate of one degree less and
    fed to ``linalg.relations`` in ascending grevlex only as far as the
    search goes.  The first dependent column fixes the degree; its relation,
    with first nonzero coefficient 1 in that order, is the witness.
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
        yield composed[one].coeffs
        for degree in range(1, max_degree + 1):
            _require_budget(equations, comb(degree + r, r))
            for alpha in _monomials_of_degree(r, degree):
                # alpha lowered at its first nonzero exponent came a degree earlier
                k = next(i for i, e in enumerate(alpha) if e)
                parent = alpha[:k] + (alpha[k] - 1,) + alpha[k + 1:]
                composed[alpha] = composed[parent] * comps[k]
                candidates.append(alpha)
                yield composed[alpha].coeffs

    for j, relation in linalg.relations(columns()):
        degree = sum(candidates[j])
        witness = Polynomial(z_context(r), {candidates[i]: c for i, c in relation.items()})
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
