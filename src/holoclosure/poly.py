"""Multivariate polynomials over Q(i) with named, block-structured variables.

A ``VariableContext`` fixes an ordered list of variable names, each assigned
to one block (ambient zeta coordinates, their formal conjugates, the
complexified z/w pair, interleaved real coordinates, parameters, or formal
exp symbols).  Monomials are dense exponent tuples against that context.
Polynomials are immutable term maps monomial -> nonzero coefficient, so two
polynomials are equal exactly when they are mathematically equal.

Block structure is what makes the geometric constructions mechanical: the
conjugation swap pairs the zeta/zetabar (or z/w) blocks positionally, and
elimination orders rank every monomial touching an eliminated block above
all monomials free of it.

Every monomial order here is a list of ranked variable groups with grevlex
inside each: lex is one group per variable, grevlex one group of all, and a
block elimination order its blocks.  So it is one additive int key: each
group's grevlex exponent sums, packed side by side, first most significant.
Division works on that key, on the exponents packed into guarded int fields
(``Packing``) and on Gaussian-integer numerators (``PackedRows``).  No other
module knows a layout: ``pack_terms`` packs by per-variable weights, and one
unguarded Kronecker layout (``kronecker_layout``, ``unpack_polynomial``)
serves products, powers and jets.  Only the term maps keep exponent tuples,
which the parser and the jets' views share; the renderer unpacks the rows
of a polynomial built from them instead.
"""

from __future__ import annotations

import sys
from enum import Enum
from functools import lru_cache
from itertools import accumulate, chain
from math import comb, gcd
from operator import add, itemgetter, mul
from typing import Mapping, NamedTuple, Sequence

from holoclosure.arith import (ONE, GaussianRational, from_numerator, gq, gq_is_negative, gq_to_factor_text,
                               inverse_numerator, numerators)
from holoclosure.errors import ResourceLimitError

Monomial = tuple  # dense exponent tuple, one entry per context variable


class Block(Enum):
    ZETA = "zeta"        # ambient coordinates of C^n
    ZETABAR = "zetabar"  # their formal conjugates
    Z = "z"              # first factor of the complexified C^2n
    W = "w"              # second factor of the complexified C^2n
    REAL = "real"        # interleaved x1,y1,...,xn,yn
    PARAM = "param"      # map source / parametrization variables
    EXP = "exp"          # formal exp(t) symbols used by jet components


ZETA_SWAP = {Block.ZETA: Block.ZETABAR}  # the block swap of formal conjugation


class VariableContext:
    """Ordered variable names partitioned into labeled blocks."""

    __slots__ = ("names", "blocks")

    def __init__(self, names: tuple, blocks: tuple):
        if len(names) != len(blocks):
            raise ValueError("one block label per variable required")
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate variable names in {names}")
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "blocks", blocks)

    def __setattr__(self, name, value):
        raise AttributeError("VariableContext is immutable")

    def __eq__(self, other) -> bool:
        if not isinstance(other, VariableContext):
            return NotImplemented
        return self is other or (self.names == other.names and self.blocks == other.blocks)

    def __hash__(self):
        return hash((self.names, self.blocks))

    def __repr__(self):
        return f"VariableContext(names={self.names!r}, blocks={self.blocks!r})"

    @property
    def size(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise KeyError(f"unknown variable {name!r}") from None

    def indices(self, block: Block) -> tuple:
        return tuple(k for k, b in enumerate(self.blocks) if b is block)

    def subcontext(self, indices: Sequence[int]) -> "VariableContext":
        """Context of the variables at ``indices``, in that order."""
        return VariableContext(
            tuple(self.names[k] for k in indices),
            tuple(self.blocks[k] for k in indices),
        )

    def concat(self, other: "VariableContext") -> "VariableContext":
        return VariableContext(self.names + other.names, self.blocks + other.blocks)

    def swap_permutation(self, swap: Mapping[Block, Block]) -> tuple:
        """Involutive index permutation pairing swapped blocks positionally."""
        perm = list(range(self.size))
        for src, dst in swap.items():
            a, b = self.indices(src), self.indices(dst)
            if len(a) != len(b):
                raise ValueError(f"blocks {src} and {dst} differ in size")
            for i, j in zip(a, b):
                perm[i] = j
                perm[j] = i
        return tuple(perm)


def zeta_context(names: Sequence[str]) -> VariableContext:
    """Ambient context for n declared zeta variables plus their conjugates."""
    names = tuple(names)
    conj_names = tuple(f"conj({v})" for v in names)
    return VariableContext(
        names + conj_names,
        (Block.ZETA,) * len(names) + (Block.ZETABAR,) * len(names),
    )


def zw_context(n: int) -> VariableContext:
    names = tuple(f"z{j}" for j in range(1, n + 1)) + tuple(f"w{j}" for j in range(1, n + 1))
    return VariableContext(names, (Block.Z,) * n + (Block.W,) * n)


def z_context(n: int) -> VariableContext:
    return VariableContext(tuple(f"z{j}" for j in range(1, n + 1)), (Block.Z,) * n)


def real_context(names: Sequence[str]) -> VariableContext:
    """Interleaved real coordinates x1,y1,...,xn,yn (even count required)."""
    names = tuple(names)
    if len(names) % 2 != 0:
        raise ValueError("real context needs an even number of variables (x,y pairs)")
    return VariableContext(names, (Block.REAL,) * len(names))


def param_context(names: Sequence[str]) -> VariableContext:
    return VariableContext(tuple(names), (Block.PARAM,) * len(names))


# -- monomial orders --------------------------------------------------------

# A packed exponent vector holds one FIELD_BITS-wide field per variable,
# variable k in the bits from FIELD_BITS * k up; each field's top bit is a
# guard that stays clear while the exponent is at most MAX_EXPONENT.
FIELD_BITS = 16
MAX_EXPONENT = (1 << (FIELD_BITS - 1)) - 1


def raise_exponent_overflow(what: str):
    """Refuse ``what``, an exponent past MAX_EXPONENT, with a ResourceLimitError."""
    raise ResourceLimitError(f"{what} exceeds the packed exponent limit of {MAX_EXPONENT}")


class Packing:
    """Monomials in ``size`` variables as ints, under one monomial order.

    A monomial's pack is its exponent vector with one guarded field per
    variable, exponent k times ``weights[k]``, so a product is the sum
    of the packs and a divides b exactly when ``(pack(b) - pack(a)) & guard
    == 0`` (Monagan and Pearce, JSC 46, 2011).
    ``key`` gives the order in one int, built from its ranked groups, which
    must partition the variables: each group of g variables contributes g
    grevlex rows, the exponent sums over its first g, g-1, ..., 1 variables,
    and the ``size`` row sums are packed side by side, first row most
    significant.  So comparing keys is the order and key(a*b) = key(a) +
    key(b).  A key field is FIELD_BITS + size.bit_length() bits wide, so even
    the product of two packable monomials cannot overflow one.  A monomial
    with an exponent above MAX_EXPONENT is refused with a ResourceLimitError.
    ``unpack``, ``degree`` and ``pack_key`` read the fields in C, as the
    16-bit words of the pack's bytes.
    """

    __slots__ = ("weights", "guard", "key_weights", "_word_weights")

    def __init__(self, groups: tuple, size: int):
        if sorted(chain.from_iterable(groups)) != list(range(size)):
            raise ValueError(f"the ranked groups do not partition the {size} variables")
        self.weights = tuple([1 << FIELD_BITS * k for k in range(size)])
        self.guard = sum(self.weights) << (FIELD_BITS - 1)
        # ``top`` counts the rows from a group's first one to the last row.
        # The variable at position j of a group g is in its first len(g) - j
        # rows, so its weight, the sum of 2^(width*(size-1-row)) over them,
        # is a geometric sum.
        width = FIELD_BITS + size.bit_length()
        ratio = (1 << width) - 1
        weights = [0] * size
        top = size
        for g in groups:
            for j, k in enumerate(g):
                weights[k] = ((1 << width * top) - (1 << width * (top - len(g) + j))) // ratio
            top -= len(g)
        self.key_weights = tuple(weights)
        self._word_weights = self.key_weights[::1 if sys.byteorder == "little" else -1]

    def key(self, m: Monomial) -> int:
        if m and max(m) > MAX_EXPONENT:  # no ``default`` keyword: it costs more than the sum
            raise_exponent_overflow(f"exponent {max(m)}")
        return sum(map(mul, m, self.key_weights))

    def fields_mask(self, indices) -> int:
        """The bits of the fields of the variables at ``indices``."""
        return sum(((1 << FIELD_BITS) - 1) * self.weights[k] for k in indices)

    def unpack(self, p: int) -> Monomial:
        """The exponents of pack p, off its words: variable 0 last on a big-endian host."""
        words = memoryview(p.to_bytes(2 * len(self.weights), sys.byteorder)).cast("H")
        return tuple(words) if sys.byteorder == "little" else tuple(words[::-1])

    def degree(self, p: int) -> int:
        """``sum(unpack(p))``, unpacking nothing."""
        return sum(memoryview(p.to_bytes(2 * len(self.weights), sys.byteorder)).cast("H"))

    def pack_key(self, p: int) -> int:
        """``key(unpack(p))``, off the same words."""
        words = memoryview(p.to_bytes(2 * len(self.weights), sys.byteorder)).cast("H")
        return sum(map(mul, words, self._word_weights))

    def lcm(self, a: int, b: int) -> int:
        """The pack of the lcm of packed monomials a and b.  A field of d, 2^15 + a_k - b_k,
        borrows from no other and keeps its guard bit exactly when a_k >= b_k."""
        d = (a | self.guard) - b
        m = d & self.guard
        return b + (d & (m - (m >> (FIELD_BITS - 1))))


@lru_cache(maxsize=256)
def _packing(order: "MonomialOrder", size: int) -> Packing:
    return Packing(order.ranked_groups(size), size)


class MonomialOrder:
    """Total, multiplicative well-order on monomials, given by ranked variable groups.

    ``ranked_groups(n)`` partitions the n variable indices into ascending
    tuples, most significant first: a monomial is compared by its grevlex
    order on the first group, then on the second, and so on.  ``key``
    packs that comparison into one int that grows with the monomial and
    adds under multiplication.  An order without parameters equals every
    instance of its class and hashes by its class.
    """

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __eq__(self, other) -> bool:
        return True if type(other) is type(self) else NotImplemented

    def __hash__(self):
        return hash(type(self))

    def __repr__(self):
        return f"{type(self).__name__}()"

    def ranked_groups(self, n: int) -> tuple:
        raise NotImplementedError

    def packing(self, n: int) -> Packing:
        return _packing(self, n)

    def key(self, m: Monomial) -> int:
        return self.packing(len(m)).key(m)


class Lex(MonomialOrder):
    """One group per variable: the exponents e1, ..., en compared in turn."""

    __slots__ = ()

    def ranked_groups(self, n: int) -> tuple:
        return tuple((k,) for k in range(n))


class Grevlex(MonomialOrder):
    """One group of every variable: degree, then the smaller last exponent."""

    __slots__ = ()

    def ranked_groups(self, n: int) -> tuple:
        return (tuple(range(n)),)


class BlockElimination(MonomialOrder):
    """The ranked groups given, each dominating all later ones; grevlex inside each.

    ``groups`` is a tuple of ascending index tuples partitioning the
    variables, and is what ``ranked_groups`` returns.  The hash of the
    groups is taken once: every cached view of a polynomial is looked up by
    its order.
    """

    __slots__ = ("groups", "_hash")

    def __init__(self, groups: tuple):
        object.__setattr__(self, "groups", groups)
        object.__setattr__(self, "_hash", hash(groups))

    def __eq__(self, other) -> bool:
        if type(other) is not BlockElimination:
            return NotImplemented
        return self is other or self.groups == other.groups

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"BlockElimination(groups={self.groups!r})"

    @classmethod
    def of_blocks(cls, context: VariableContext, *blocks: Block) -> "BlockElimination":
        """One group per block in the order given, then one group of every other variable."""
        groups = []
        for block in blocks:
            if block not in context.blocks:
                raise ValueError(f"context has no {block} block")
            groups.append(context.indices(block))
        ranked = {k for g in groups for k in g}
        groups.append(tuple(k for k in range(context.size) if k not in ranked))
        return cls(tuple(groups))

    def ranked_groups(self, n: int) -> tuple:
        return self.groups


GREVLEX = Grevlex()
LEX = Lex()


# -- polynomials ------------------------------------------------------------


def pack_terms(terms: Mapping, weights: Sequence) -> tuple:
    """Rows (pack, a, b), (a + b*i)/D times the monomial m packed as sum(m[k] * weights[k]), and D."""
    pairs, D = numerators(terms.values())
    rows = []
    for m, (a, b) in zip(terms, pairs):
        rows.append((sum(map(mul, m, weights)), a, b))
    return rows, D


@lru_cache(maxsize=256)
def kronecker_layout(size: int, top: int) -> tuple:
    """(shifts, weights) of ``size`` fields for exponents up to ``top``, stepping down from the first."""
    width = top.bit_length() or 1
    shifts = range(width * (size - 1), -1, -width)
    return shifts, tuple([1 << s for s in shifts])


def unpack_polynomial(context: VariableContext, rows, shifts: range, d: int) -> Polynomial:
    """The sum of rows (pack, a, b), (a + b*i)/d times the exponents at ``shifts``, each canonicalized once."""
    mask = (1 << -shifts.step) - 1
    f = object.__new__(Polynomial)
    object.__setattr__(f, "context", context)
    object.__setattr__(f, "terms", {tuple([(p >> s) & mask for s in shifts]): from_numerator(a, b, d)
                                    for p, a, b in rows if a or b})
    object.__setattr__(f, "_packed", {})
    return f


class PackedRows(NamedTuple):
    """A nonzero polynomial under one order as rows (pack, key, a, b), keys descending.

    A row is the term (a + b*i)/denominator times the monomial of packed
    exponents ``pack`` and order key ``key``; the leading row is held in the
    ``lead_*`` fields.  ``denominator`` is the lcm of the coefficients'
    denominators, so the rows are a function of the polynomial.
    """

    lead_pack: int
    lead_key: int
    lead_a: int
    lead_b: int
    tail: list
    denominator: int

    def rows(self):
        """Every row, the leading one first."""
        return chain(((self.lead_pack, self.lead_key, self.lead_a, self.lead_b),), self.tail)


class Polynomial:
    """Immutable multivariate polynomial over Q(i).

    ``terms`` maps exponent tuples to nonzero coefficients.  The one view
    kept per monomial order object, since a polynomial is read under several
    orders, is ``PackedRows``: leading terms and ``monic`` read it, and so
    does ``sorted_terms``, which rendering uses, on a polynomial built from
    rows.  ``sorted_terms`` builds no view: otherwise it sorts the term map.
    """

    __slots__ = ("context", "terms", "_packed")

    def __init__(self, context: VariableContext, terms: Mapping[Monomial, GaussianRational]):
        pruned = {}
        for m, c in terms.items():
            c = gq(c)
            if c:
                pruned[m] = c
        object.__setattr__(self, "context", context)
        object.__setattr__(self, "terms", pruned)
        object.__setattr__(self, "_packed", {})

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, context: VariableContext) -> "Polynomial":
        return cls(context, {})

    @classmethod
    def constant(cls, context: VariableContext, c) -> "Polynomial":
        return cls(context, {(0,) * context.size: gq(c)})

    @classmethod
    def variable(cls, context: VariableContext, name: str) -> "Polynomial":
        e = [0] * context.size
        e[context.index(name)] = 1
        return cls(context, {tuple(e): gq(1)})

    @classmethod
    def from_rows(cls, context: VariableContext, order: MonomialOrder, rows: list, scale: int) -> "Polynomial":
        """The sum of (a + b*i)/scale times each monomial, for rows (pack, key, a, b).

        The keys strictly descend under ``order``, no row is zero, and
        ``scale`` > 0.  Their common factor divided out, the rows are the
        ``packed_terms`` view.
        """
        if not rows:
            return cls.zero(context)
        if scale != 1:
            g = gcd(scale, *[r[2] for r in rows], *[r[3] for r in rows])
            if g != 1:
                rows = [(p, k, a // g, b // g) for p, k, a, b in rows]
                scale //= g
        f = object.__new__(_RowsPolynomial)
        object.__setattr__(f, "context", context)
        object.__setattr__(f, "_packed", {order: PackedRows(*rows[0], rows[1:], scale)})
        return f

    # -- structure ---------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def total_degree(self) -> int:
        """Max term degree; -1 for the zero polynomial."""
        return max(map(sum, self.terms), default=-1)

    def used_indices(self) -> set:
        return {k for m in self.terms for k, e in enumerate(m) if e}

    def sorted_terms(self, order: MonomialOrder) -> list:
        """Terms as (monomial, coeff), descending in ``order``; builds no view.

        The term map is sorted with no ``Packing``: with the groups laid end
        to end, a monomial's key holds its running exponent sums, each group's
        longest first: the rows ``Packing.key`` packs, each plus the earlier
        groups' sum, equal once earlier rows tie.
        """
        groups = order.ranked_groups(self.context.size)
        flat = [k for g in groups for k in g]
        rows, end = [0], 0  # the empty sum first, so itemgetter gets an index with no variables too
        for g in groups:
            end += len(g)
            rows += range(end, end - len(g), -1)
        sums = itemgetter(*rows)
        return sorted(self.terms.items(), reverse=True,
                      key=lambda t: sums(list(accumulate(map(t[0].__getitem__, flat), initial=0))))

    def packed_terms(self, order: MonomialOrder) -> PackedRows | None:
        """The ``PackedRows`` view under ``order``; None for the zero polynomial."""
        cached = self._packed.get(order)
        if cached is None:
            if self.is_zero:
                return None
            packing = order.packing(self.context.size)
            xs, d = pack_terms(self.terms, packing.weights)
            rows = [(p, packing.key(m), a, b) for m, (p, a, b) in zip(self.terms, xs)]
            rows.sort(key=itemgetter(1), reverse=True)
            cached = PackedRows(*rows[0], rows[1:], d)
            self._packed[order] = cached
        return cached

    def leading(self, order: MonomialOrder) -> tuple:
        view = self.packed_terms(order)
        if view is None:
            raise ValueError("zero polynomial has no leading term")
        monomial = order.packing(self.context.size).unpack(view.lead_pack)
        return monomial, from_numerator(view.lead_a, view.lead_b, view.denominator)

    # -- ring operations ----------------------------------------------------

    def _require_same_context(self, other: "Polynomial"):
        if self.context != other.context:
            raise ValueError("polynomials from different variable contexts")

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._require_same_context(other)
        res = dict(self.terms)
        for m, c in other.terms.items():
            s = res.get(m)
            res[m] = c if s is None else s + c  # a zero sum is pruned by the constructor
        return Polynomial(self.context, res)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + -other

    def __neg__(self) -> "Polynomial":
        return Polynomial(self.context, {m: -c for m, c in self.terms.items()})

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        """The product, by one packed kernel over Gaussian-integer numerators.

        Each operand's exponents are packed into int fields wide enough for
        the product's exponents (Kronecker substitution), so a monomial
        product is one int addition with no exponent limit, and each operand
        is put over the lcm of its denominators, so a coefficient product is
        an int pair accumulated under its packed exponent.  Each surviving
        term is canonicalized once and only the result's monomials are
        unpacked.
        """
        self._require_same_context(other)
        if not self.terms or not other.terms:
            return Polynomial.zero(self.context)
        shifts, weights = kronecker_layout(self.context.size, max(chain.from_iterable(self.terms), default=0)
                                           + max(chain.from_iterable(other.terms), default=0))
        xs, d1 = pack_terms(self.terms, weights)
        ys, d2 = pack_terms(other.terms, weights)
        re, im = {}, {}  # keys taken in one order, so zip pairs them
        re_get, im_get = re.get, im.get
        for p1, a1, b1 in xs:
            for p2, a2, b2 in ys:
                p = p1 + p2
                re[p] = re_get(p, 0) + a1 * a2 - b1 * b2
                im[p] = im_get(p, 0) + a1 * b2 + b1 * a2
        return unpack_polynomial(self.context, zip(re, re.values(), im.values()), shifts, d1 * d2)

    def __pow__(self, e: int) -> "Polynomial":
        """``self ** e`` by the multinomial theorem, accumulated as in ``__mul__``.

        A power of t terms c_j x^(m_j) sums e!/(k_1! ... k_t!) times the
        product of the c_j^(k_j) x^(k_j m_j) over the compositions
        k_1 + ... + k_t = e (Fateman, Stud. Appl. Math. 53, 1974).  They are
        walked term by term on an explicit stack, so the depth does not grow
        with t, each prefix carrying its binomial-weighted numerator and its
        packed monomial, over each term's numerator powers tabled once; a
        one-term base raises its coefficient by square-and-multiply.
        """
        if e < 0:
            raise ValueError("negative polynomial power")
        if not self.terms:
            return Polynomial.constant(self.context, 1) if e == 0 else self
        if len(self.terms) == 1:
            (m, c), = self.terms.items()
            return Polynomial(self.context, {tuple([e * k for k in m]): c ** e})
        shifts, weights = kronecker_layout(self.context.size, e * max(map(max, self.terms)))  # two terms, so a variable
        xs, d = pack_terms(self.terms, weights)
        powers = []  # per term, its pack and the numerator pairs of its powers 0, ..., e
        for p, a, b in xs:
            row = [(1, 0)]
            for _ in range(e):
                x, y = row[-1]
                row.append((x * a - y * b, x * b + y * a))
            powers.append((p, row))
        re, im = {}, {}
        last = len(xs) - 1
        stack = [(0, e, 1, 0, 0)]  # (term, exponent left, numerator a, b, pack) of a prefix
        while stack:
            j, r, a, b, p = stack.pop()
            q, row = powers[j]
            for k in range(r + 1) if j < last else (r,):
                x, y = row[k]
                c = comb(r, k)
                na, nb, np = c * (a * x - b * y), c * (a * y + b * x), p + k * q
                if k == r:  # the later terms take exponent 0
                    re[np] = re.get(np, 0) + na
                    im[np] = im.get(np, 0) + nb
                else:
                    stack.append((j + 1, r - k, na, nb, np))
        return unpack_polynomial(self.context, zip(re, re.values(), im.values()), shifts, d ** e)

    def scale(self, c) -> "Polynomial":
        c = gq(c)
        return Polynomial(self.context, {m: k * c for m, k in self.terms.items()})  # c = 0: pruned to zero

    def monic(self, order: MonomialOrder) -> "Polynomial":
        """Scaled to leading coefficient 1 row by row under ``order``; itself if monic or zero."""
        view = self.packed_terms(order)
        if view is None or (not view.lead_b and view.lead_a == view.denominator):
            return self
        ua, ub, n = inverse_numerator(view.lead_a, view.lead_b)
        rows = [(p, k, a * ua - b * ub, a * ub + b * ua) for p, k, a, b in view.rows()]
        return Polynomial.from_rows(self.context, order, rows, n)

    def sub_scaled(self, other: "Polynomial", m: Monomial, c: GaussianRational) -> "Polynomial":
        """self - c * x^m * other, the reduction step of the division algorithm."""
        res = dict(self.terms)
        for m2, c2 in other.terms.items():
            key = tuple(map(add, m, m2))
            delta = c * c2
            s = res.get(key)
            res[key] = -delta if s is None else s - delta  # a zero is pruned by the constructor
        return Polynomial(self.context, res)

    # -- substitution, conjugation, calculus ---------------------------------

    def substitute(self, target: VariableContext, images: Mapping[str, "Polynomial"]) -> "Polynomial":
        """Ring homomorphism sending each used variable to its image over target."""
        image_list = [None] * self.context.size
        for k in self.used_indices():
            name = self.context.names[k]
            if name not in images:
                raise KeyError(f"no image for variable {name!r}")
            img = images[name]
            if img.context != target:
                raise ValueError(f"image of {name!r} is not over the target context")
            image_list[k] = img
        return compose(self, image_list, lambda c: Polynomial.constant(target, c))

    def rename(self, target: VariableContext, index_map: Sequence[int]) -> "Polynomial":
        """Transport to ``target``, old index k becoming ``index_map[k]``."""
        res = {}
        zero = [0] * target.size
        for m, c in self.terms.items():
            e = zero[:]
            for k, exp in enumerate(m):
                if exp:
                    e[index_map[k]] += exp
            res[tuple(e)] = c
        return Polynomial(target, res)

    def embed(self, target: VariableContext) -> "Polynomial":
        """Transport to a larger context containing all of this one's names."""
        index_map = [target.index(v) for v in self.context.names]
        return self.rename(target, index_map)

    def conjugate(self, swap: Mapping[Block, Block] | None = None) -> "Polynomial":
        """Coefficient conjugation composed with a positional block swap."""
        conjugated = Polynomial(self.context, {m: c.conjugate() for m, c in self.terms.items()})
        if not swap:
            return conjugated
        return conjugated.rename(self.context, self.context.swap_permutation(swap))

    def derivative(self, name: str) -> "Polynomial":
        k = self.context.index(name)
        # lowering exponent k is one to one on the terms that have it
        return Polynomial(self.context, {m[:k] + (m[k] - 1,) + m[k + 1:]: c * gq(m[k])
                                         for m, c in self.terms.items() if m[k]})

    def evaluate(self, values: Mapping[str, GaussianRational]) -> GaussianRational:
        point = [None] * self.context.size
        for k in self.used_indices():
            name = self.context.names[k]
            if name not in values:
                raise KeyError(f"no value for variable {name!r}")
            point[k] = gq(values[name])
        return compose(self, point, gq)

    # -- protocol ------------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.context == other.context and self.terms == other.terms

    def __hash__(self):
        return hash((self.context, frozenset(self.terms.items())))

    def __repr__(self):
        return f"<Polynomial {polynomial_to_text(self)}>"


def compose(f: Polynomial, images: Sequence, constant):
    """The sum over the terms c*x^m of ``f`` of constant(c) * images[0]^m[0] * ...

    ``images`` holds a ring element per variable ``f`` uses, and ``constant``
    maps a coefficient into that ring: substitution, evaluation and composition with jets.
    """
    result = constant(0)
    for m, c in f.terms.items():
        term = constant(c)
        for k, e in enumerate(m):
            if e:
                term = term * (images[k] ** e if e > 1 else images[k])
        result = result + term
    return result


class _RowsPolynomial(Polynomial):
    """A nonzero polynomial built ``from_rows``, whose term map is unpacked when first read.

    The engine reads most of them only through their rows; until ``terms`` is
    read, they have only the view they were built with.  A subclass keeps
    the ``__getattr__`` hook, which slows every attribute read, off term-built
    polynomials.
    """

    __slots__ = ()
    is_zero = False

    def __getattr__(self, name):
        # only the unset terms slot lands here
        if name != "terms":
            raise AttributeError(name)
        (order, _), = self._packed.items()
        object.__setattr__(self, "terms", dict(self.sorted_terms(order)))
        return self.terms

    def sorted_terms(self, order: MonomialOrder) -> list:
        """Read off the view under ``order`` when there is one, so the term map stays unbuilt."""
        view = self._packed.get(order)
        if view is None:
            return super().sorted_terms(order)
        unpack, d = order.packing(self.context.size).unpack, view.denominator
        return [(unpack(p), from_numerator(a, b, d)) for p, _, a, b in view.rows()]


def _pow_text(name: str, e: int) -> str:
    return name if e == 1 else f"{name}^{e}"


def _monomial_to_text(context: VariableContext, m: Monomial) -> str:
    parts = [_pow_text(context.names[k], e) for k, e in enumerate(m) if e]
    return "*".join(parts)


def polynomial_to_text(f: Polynomial, order: MonomialOrder = GREVLEX) -> str:
    """Canonical text: terms descending in ``order``, reparseable exactly."""
    if f.is_zero:
        return "0"
    chunks = []
    for m, c in f.sorted_terms(order):
        neg = gq_is_negative(c)
        mag = -c if neg else c
        mono = _monomial_to_text(f.context, m)
        if not mono:
            body = gq_to_factor_text(mag)
        elif mag == ONE:
            body = mono
        else:
            body = f"{gq_to_factor_text(mag)}*{mono}"
        if not chunks:
            chunks.append(f"-{body}" if neg else body)
        else:
            chunks.append(f" - {body}" if neg else f" + {body}")
    return "".join(chunks)
