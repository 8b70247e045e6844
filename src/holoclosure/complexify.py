"""Coordinate conversion, conjugation closure, and complexification ideals.

A ``System`` describes a real algebraic subset of C^n either in zeta form
(variables zeta_1..zeta_n and their formal conjugates, Q(i) coefficients) or
in real form (variables x_1,y_1,...,x_n,y_n, rational coefficients).  The
complexification replaces zeta_j by z_j and conj(zeta_j) by w_j after the
system has been closed under conjugation; the resulting ideal in C[z,w] has
Krull dimension equal to the real dimension of the described set, and the
elimination of its w block (w > z) is the holomorphic closure ideal.

Everything here is ideal-theoretic (Zariski-global): germ-level answers at
special points require the caller to supply generators of the local germ.
"""

from __future__ import annotations

from typing import Sequence

from holoclosure.arith import HALF, I as IMAG
from holoclosure.groebner import (
    DEFAULT_CONFIG,
    GroebnerConfig,
    Ideal,
    ideal_dimension,
)
from holoclosure.poly import (
    Block,
    GREVLEX,
    Polynomial,
    VariableContext,
    ZETA_SWAP,
    real_context,
    zeta_context,
    zw_context,
)
from holoclosure.syntax import KIND_SYSTEM_REAL, KIND_SYSTEM_ZETA

ZETA_FORM = "zeta"
REAL_FORM = "real"
_FORM_OF_KIND = {KIND_SYSTEM_ZETA: ZETA_FORM, KIND_SYSTEM_REAL: REAL_FORM}


class System:
    """Defining equations of a real set, in zeta or real coordinates."""

    __slots__ = ("context", "form", "generators")

    def __init__(self, context: VariableContext, form: str, generators: tuple):
        if form == ZETA_FORM:
            nz = len(context.indices(Block.ZETA))
            nb = len(context.indices(Block.ZETABAR))
            if nz == 0 or nz != nb:
                raise ValueError("zeta-form context needs paired zeta/zetabar blocks")
        elif form == REAL_FORM:
            nr = len(context.indices(Block.REAL))
            if nr == 0 or nr % 2 != 0:
                raise ValueError("real-form context needs interleaved x,y pairs")
            for g in generators:
                if not all(c.is_real() for c in g.terms.values()):
                    raise ValueError("real-form generators must have real coefficients")
        else:
            raise ValueError(f"unknown system form {form!r}")
        for g in generators:
            if g.context != context:
                raise ValueError("generator over a different context")
        object.__setattr__(self, "context", context)
        object.__setattr__(self, "form", form)
        object.__setattr__(self, "generators", generators)

    def __setattr__(self, name, value):
        raise AttributeError("System is immutable")

    def __eq__(self, other) -> bool:
        if not isinstance(other, System):
            return NotImplemented
        return (self.context, self.form, self.generators) == (other.context, other.form, other.generators)

    def __hash__(self):
        return hash((self.context, self.form, self.generators))

    def __repr__(self):
        return f"System(context={self.context!r}, form={self.form!r}, generators={self.generators!r})"

    @property
    def n(self) -> int:
        return self.context.size // 2

    def ideal(self) -> Ideal:
        return Ideal.from_polys(self.context, self.generators)

    @classmethod
    def from_document(cls, doc) -> "System":
        """Build from a parsed input document of a system kind."""
        form = _FORM_OF_KIND.get(doc.kind)
        if form is None:
            raise ValueError(f"document kind {doc.kind!r} is not a system")
        return cls(doc.context, form, doc.equations)


def real_to_zeta(system: System) -> System:
    """Substitute x_j -> (zeta_j + conj)/2, y_j -> (zeta_j - conj)/(2i).

    The resulting zeta-form system defines the same real set; since real
    functions are fixed by conjugation, it is conjugation-closed already.
    """
    if system.form != REAL_FORM:
        raise ValueError("real_to_zeta expects a real-form system")
    n = system.n
    zctx = zeta_context([f"z{j}" for j in range(1, n + 1)])
    images = {}
    minus_i_half = -IMAG * HALF
    for j in range(n):
        zeta = Polynomial.variable(zctx, zctx.names[j])
        zbar = Polynomial.variable(zctx, zctx.names[n + j])
        images[system.context.names[2 * j]] = (zeta + zbar).scale(HALF)
        images[system.context.names[2 * j + 1]] = (zeta - zbar).scale(minus_i_half)
    gens = tuple(g.substitute(zctx, images) for g in system.generators)
    return System(zctx, ZETA_FORM, gens)


def zeta_to_real(system: System) -> System:
    """Substitute zeta_j -> x_j + i*y_j and split into real and imaginary parts."""
    if system.form != ZETA_FORM:
        raise ValueError("zeta_to_real expects a zeta-form system")
    n = system.n
    names = [v for j in range(1, n + 1) for v in (f"x{j}", f"y{j}")]
    rctx = real_context(names)
    images = {}
    for j in range(n):
        x = Polynomial.variable(rctx, names[2 * j])
        y = Polynomial.variable(rctx, names[2 * j + 1])
        images[system.context.names[j]] = x + y.scale(IMAG)
        images[system.context.names[n + j]] = x - y.scale(IMAG)
    gens = []
    for g in system.generators:
        h = g.substitute(rctx, images)
        re_part = Polynomial(rctx, {m: c.real_part() for m, c in h.terms.items()})
        im_part = Polynomial(rctx, {m: c.imag_part() for m, c in h.terms.items()})
        for part in (re_part, im_part):
            if not part.is_zero and part not in gens:
                gens.append(part)
    return System(rctx, REAL_FORM, tuple(gens))


def conjugation_closure(system: System) -> System:
    """Append each generator's conjugate unless a scalar multiple is present.

    The ideal is I + conj(I) either way, so no membership test is needed.
    A self-conjugate generator, such as every output of ``real_to_zeta``,
    is skipped before any scalar comparison, which reads no monomial order.
    """
    if system.form == REAL_FORM:
        return system
    gens = list(system.generators)
    for g in system.generators:
        gbar = g.conjugate(ZETA_SWAP)
        if gbar != g and not any(_is_multiple(h, gbar) for h in gens):
            gens.append(gbar)
    return System(system.context, ZETA_FORM, tuple(gens))


def _is_multiple(h: Polynomial, g: Polynomial) -> bool:
    """Whether h = c*g for a scalar c (g nonzero): one support, and h[m]*g[m0] = g[m]*h[m0] at every m."""
    m0 = next(iter(g.terms))
    return h.terms.keys() == g.terms.keys() and all(
        h.terms[m] * g.terms[m0] == c * h.terms[m0] for m, c in g.terms.items())


def complexify_ideal(system: System) -> Ideal:
    """The ideal of the complexification in C[z,w], by literal substitution."""
    if system.form == REAL_FORM:
        system = real_to_zeta(system)
    system = conjugation_closure(system)
    n = system.n
    zw = zw_context(n)
    identity = list(range(2 * n))
    gens = tuple(g.rename(zw, identity) for g in system.generators)
    return Ideal.from_polys(zw, gens)


def complexify_complex_set(generators: Sequence[Polynomial]) -> Ideal:
    """For a complex set X given by g_k(z)=0, the ideal of X_z meet X_w.

    Adjoins the coefficient-conjugated copy of each generator rewritten in
    the w variables; the dimension doubles.  Generators are normalized to
    monic form.
    """
    if not generators:
        raise ValueError("need at least one generator")
    ctx = generators[0].context
    if any(b is not Block.Z for b in ctx.blocks):
        raise ValueError("complex-set generators must involve only z variables")
    n = ctx.size
    zw = zw_context(n)
    z_map = list(range(n))
    w_map = [n + k for k in range(n)]
    gens = []
    for g in generators:
        if g.context != ctx:
            raise ValueError("generators over different contexts")
        gens.append(g.rename(zw, z_map).monic(GREVLEX))
    for g in generators:
        gens.append(g.conjugate().rename(zw, w_map).monic(GREVLEX))
    return Ideal.from_polys(zw, gens)


def real_dimension(system: System, config: GroebnerConfig = DEFAULT_CONFIG):
    """dim_R of the described set = Krull dimension of the complexification.

    Returns None when the equations are inconsistent (empty set).
    """
    return ideal_dimension(complexify_ideal(system), config=config)
