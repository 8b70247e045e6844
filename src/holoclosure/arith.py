"""Exact arithmetic over the Gaussian rationals Q(i).

``GaussianRational`` is the field Q(i), the one scalar type of this package:
polynomial coefficients, jet coefficients, matrix entries, sampled points
and parsed literals are all its elements, and a rational number is a real
element.  It is closed under the coefficient conjugation that the
complexification step needs.  An element is one triple of Python ints
``(a, b, d)`` meaning ``(a + b*i)/d``, kept canonical: ``d > 0`` and
``gcd(a, b, d) == 1``, so zero is ``(0, 0, 1)`` and structural equality is
mathematical equality.  A field operation forms the integer numerator pair
and the denominator and divides out one three-argument gcd (none when the
denominator is 1); a sum over equal denominators skips the cross products,
and negation and conjugation need no gcd at all.  ``real_part`` and
``imag_part`` are elements of Q(i) again.  ``fractions.Fraction`` appears
only at the edges: the constructor accepts it, equality and hashing agree
with it, and ``re`` and ``im`` are read-only ``Fraction`` views, but the
module loads without ``fractions``: it looks the class up only once loaded.
No other module reads the triple: ``numerators`` gives Gaussian-integer pairs
over one denominator, and ``from_numerator``, the canonicalizer, goes back.
"""

from __future__ import annotations

import sys
from math import gcd, lcm


def _is_fraction(x) -> bool:
    return isinstance(x, getattr(sys.modules.get("fractions"), "Fraction", ()))


def _ratio(x) -> tuple:
    """(numerator, denominator) of an int or a ``Fraction``."""
    if isinstance(x, int) or _is_fraction(x):
        return x.numerator, x.denominator
    raise TypeError(f"cannot interpret {x!r} as an exact rational")


class GaussianRational:
    """An element (a + b*i)/d of Q(i), immutable and canonical."""

    __slots__ = ("_a", "_b", "_d")

    def __new__(cls, re=0, im=0):
        (p, q), (r, s) = _ratio(re), _ratio(im)
        return from_numerator(p * s, r * q, q * s)

    def __setattr__(self, name, value):
        raise AttributeError("GaussianRational is immutable")

    @property
    def re(self):
        from fractions import Fraction
        return Fraction(self._a, self._d)

    @property
    def im(self):
        from fractions import Fraction
        return Fraction(self._b, self._d)

    # -- field operations -------------------------------------------------

    def __add__(self, other) -> "GaussianRational":
        if not isinstance(other, GaussianRational):
            other = gq(other)
        d1, d2 = self._d, other._d
        if d1 == d2:
            return from_numerator(self._a + other._a, self._b + other._b, d1)
        return from_numerator(self._a * d2 + other._a * d1, self._b * d2 + other._b * d1, d1 * d2)

    def __sub__(self, other) -> "GaussianRational":
        if not isinstance(other, GaussianRational):
            other = gq(other)
        d1, d2 = self._d, other._d
        if d1 == d2:
            return from_numerator(self._a - other._a, self._b - other._b, d1)
        return from_numerator(self._a * d2 - other._a * d1, self._b * d2 - other._b * d1, d1 * d2)

    def __mul__(self, other) -> "GaussianRational":
        if not isinstance(other, GaussianRational):
            other = gq(other)
        a1, b1, a2, b2 = self._a, self._b, other._a, other._b
        return from_numerator(a1 * a2 - b1 * b2, a1 * b2 + b1 * a2, self._d * other._d)

    def __truediv__(self, other) -> "GaussianRational":
        if not isinstance(other, GaussianRational):
            other = gq(other)
        a1, b1, a2, b2, d2 = self._a, self._b, other._a, other._b, other._d
        n = a2 * a2 + b2 * b2
        if not n:
            raise ZeroDivisionError("division by zero in Q(i)")
        # multiply through by the conjugate a2 - b2*i; the norm is positive
        return from_numerator(d2 * (a1 * a2 + b1 * b2), d2 * (b1 * a2 - a1 * b2), self._d * n)

    __radd__ = __add__
    __rmul__ = __mul__

    def __rsub__(self, other):
        return gq(other) - self

    def __rtruediv__(self, other):
        return gq(other) / self

    def __neg__(self) -> "GaussianRational":
        return _canonical(-self._a, -self._b, self._d)

    def __pow__(self, e: int) -> "GaussianRational":
        if e < 0:
            return ONE / self ** (-e)
        return power(self, e, ONE)

    def conjugate(self) -> "GaussianRational":
        return _canonical(self._a, -self._b, self._d)

    def real_part(self) -> "GaussianRational":
        return from_numerator(self._a, 0, self._d)

    def imag_part(self) -> "GaussianRational":
        return from_numerator(self._b, 0, self._d)

    # -- predicates and protocol ------------------------------------------

    def is_real(self) -> bool:
        return not self._b

    def __bool__(self) -> bool:
        return self._a != 0 or self._b != 0

    def __eq__(self, other) -> bool:
        if isinstance(other, GaussianRational):
            return self._a == other._a and self._b == other._b and self._d == other._d
        # a canonical real value (a, 0, d) has gcd(a, d) == 1, as a Fraction does
        if isinstance(other, int):
            return not self._b and self._d == 1 and self._a == other
        if _is_fraction(other):
            return not self._b and self._a == other.numerator and self._d == other.denominator
        return NotImplemented

    def __hash__(self):
        if self._b:
            return hash((self._a, self._b, self._d))
        if self._d == 1:
            return hash(self._a)
        # a Fraction's hash: |a|/d modulo the prime P, inf if P divides d, and -1 read as -2
        a, P = self._a, sys.hash_info.modulus
        h = hash(hash(abs(a)) * pow(self._d, -1, P)) if self._d % P else sys.hash_info.inf
        return h if a >= 0 else -h if h != 1 else -2

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"

    def __str__(self):
        return gq_to_text(self)


_new = object.__new__
_set_a = GaussianRational._a.__set__
_set_b = GaussianRational._b.__set__
_set_d = GaussianRational._d.__set__


def _canonical(a: int, b: int, d: int) -> GaussianRational:
    """The element (a + b*i)/d of a triple already in canonical form."""
    x = _new(GaussianRational)
    _set_a(x, a)
    _set_b(x, b)
    _set_d(x, d)
    return x


def from_numerator(a: int, b: int, d: int) -> GaussianRational:
    """The element (a + b*i)/d for any d > 0, its common factor divided out."""
    if d != 1:
        g = gcd(a, b, d)
        if g != 1:
            a //= g
            b //= g
            d //= g
    return _canonical(a, b, d)


ZERO = _canonical(0, 0, 1)
ONE = _canonical(1, 0, 1)
I = _canonical(0, 1, 1)
HALF = _canonical(1, 0, 2)


def inverse_numerator(a: int, b: int) -> tuple:
    """(u_a, u_b, n) with n > 0 and (u_a + u_b*i)/n == 1/(a + b*i), for a nonzero Gaussian integer.

    A real value needs only its sign; any other has the norm a^2 + b^2 as n.
    """
    if not b:
        return (1, 0, a) if a > 0 else (-1, 0, -a)
    return a, -b, a * a + b * b


def power(base, e: int, one):
    """``base`` to the power ``e`` >= 0 by square-and-multiply; no product is by the unit ``one``."""
    result = None
    while e:
        if e & 1:
            result = base if result is None else result * base
        base = base * base if e > 1 else base
        e >>= 1
    return one if result is None else result


def gq(x) -> GaussianRational:
    """Coerce an int, Fraction, or GaussianRational into Q(i)."""
    if isinstance(x, GaussianRational):
        return x
    n, d = (int(x), 1) if isinstance(x, int) else _ratio(x)  # a Fraction is in lowest terms
    return _canonical(n, 0, d)


def numerators(values) -> tuple:
    """Pairs (a, b) over the lcm D of the denominators, and D; an int x is (x * D, 0), building no element."""
    xs, D = [], 1
    for x in values:
        if type(x) is not int:
            x = x if type(x) is GaussianRational else gq(x)
            D = lcm(D, x._d)
        xs.append(x)
    pairs = []  # plain loops: a comprehension costs more than the one to three values most calls pass
    for x in xs:
        pairs.append((x * D, 0) if type(x) is int else (x._a * (D // x._d), x._b * (D // x._d)))
    return pairs, D


# -- textual form ----------------------------------------------------------
#
# Canonical scalar syntax, which ``syntax.parse_point`` reads back exactly:
#   0        -> "0"
#   3/7      -> "3/7"          (denominator omitted when 1)
#   i, -i    -> "i", "-i"
#   -2/5*i   -> "-2/5*i"
#   1/2-3*i  -> "1/2-3*i"      (real part first, then signed imaginary part)


def _ratio_to_text(n: int, d: int) -> str:
    """The rational n/d, d > 0, in lowest terms."""
    g = gcd(n, d)
    if g != d:
        return f"{n // g}/{d // g}"
    return str(n // g)


def gq_is_negative(x: GaussianRational) -> bool:
    """Whether the text of x starts with a minus sign."""
    return x._a < 0 or (not x._a and x._b < 0)


def gq_to_factor_text(x: GaussianRational) -> str:
    """x as a multiplicative prefix; a value with both parts gets parentheses."""
    return f"({gq_to_text(x)})" if x._a and x._b else gq_to_text(x)


def gq_to_text(x: GaussianRational) -> str:
    a, b, d = x._a, x._b, x._d
    if not b:
        return _ratio_to_text(a, d)
    if b == d:
        im = "i"
    elif b == -d:
        im = "-i"
    else:
        im = f"{_ratio_to_text(b, d)}*i"
    if not a:
        return im
    sign = "+" if b > 0 else ""
    return f"{_ratio_to_text(a, d)}{sign}{im}"
