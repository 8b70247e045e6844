"""Exact arithmetic over Q and the Gaussian rationals Q(i).

Rational numbers are ``fractions.Fraction`` (arbitrary-precision, always
stored with positive denominator and gcd-reduced, so structural equality is
mathematical equality).  ``GaussianRational`` is the field Q(i) built as
pairs of rationals; it is the coefficient field of every polynomial in this
package and is closed under the coefficient conjugation that the
complexification step needs.
"""

from __future__ import annotations

from fractions import Fraction

Rational = Fraction


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"cannot interpret {x!r} as an exact rational")


class GaussianRational:
    """An element re + im*i of Q(i), immutable and canonical."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", _as_fraction(re))
        object.__setattr__(self, "im", _as_fraction(im))

    def __setattr__(self, name, value):
        raise AttributeError("GaussianRational is immutable")

    # -- field operations -------------------------------------------------

    def __add__(self, other) -> "GaussianRational":
        other = gq(other)
        return GaussianRational(self.re + other.re, self.im + other.im)

    def __sub__(self, other) -> "GaussianRational":
        other = gq(other)
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __mul__(self, other) -> "GaussianRational":
        other = gq(other)
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def __truediv__(self, other) -> "GaussianRational":
        other = gq(other)
        n = other.re * other.re + other.im * other.im
        if n == 0:
            raise ZeroDivisionError("division by zero in Q(i)")
        return GaussianRational(
            (self.re * other.re + self.im * other.im) / n,
            (self.im * other.re - self.re * other.im) / n,
        )

    __radd__ = __add__
    __rmul__ = __mul__

    def __rsub__(self, other):
        return gq(other) - self

    def __rtruediv__(self, other):
        return gq(other) / self

    def __neg__(self) -> "GaussianRational":
        return GaussianRational(-self.re, -self.im)

    def __pow__(self, e: int) -> "GaussianRational":
        if e < 0:
            return ONE / self ** (-e)
        return power(self, e, ONE)

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def inverse(self) -> "GaussianRational":
        return ONE / self

    # -- predicates and protocol ------------------------------------------

    def is_real(self) -> bool:
        return self.im == 0

    def __bool__(self) -> bool:
        return bool(self.re) or bool(self.im)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = GaussianRational(other)
        if not isinstance(other, GaussianRational):
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        if self.im == 0:
            return hash(self.re)
        return hash((self.re, self.im))

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"

    def __str__(self):
        return gq_to_text(self)


ZERO = GaussianRational(0)
ONE = GaussianRational(1)
I = GaussianRational(0, 1)
HALF = GaussianRational(Fraction(1, 2))


def power(base, e: int, one):
    """``base`` to the power ``e`` >= 0 by square-and-multiply; ``one`` is the ring's unit."""
    result = one
    while e:
        if e & 1:
            result = result * base
        base = base * base if e > 1 else base
        e >>= 1
    return result


def gq(x) -> GaussianRational:
    """Coerce an int, Fraction, or GaussianRational into Q(i)."""
    if isinstance(x, GaussianRational):
        return x
    return GaussianRational(_as_fraction(x))


# -- textual form ----------------------------------------------------------
#
# Canonical scalar syntax, the exact inverse of parsing:
#   0        -> "0"
#   3/7      -> "3/7"          (denominator omitted when 1)
#   i, -i    -> "i", "-i"
#   -2/5*i   -> "-2/5*i"
#   1/2-3*i  -> "1/2-3*i"      (real part first, then signed imaginary part)


def _frac_to_text(q: Fraction) -> str:
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def gq_to_text(a: GaussianRational) -> str:
    if a.im == 0:
        return _frac_to_text(a.re)
    if a.im == 1:
        im = "i"
    elif a.im == -1:
        im = "-i"
    else:
        im = f"{_frac_to_text(a.im)}*i"
    if a.re == 0:
        return im
    sign = "+" if a.im > 0 else ""
    return f"{_frac_to_text(a.re)}{sign}{im}"


def _frac_from_text(s: str) -> Fraction:
    s = s.strip()
    if "/" in s:
        num, den = s.split("/", 1)
        return Fraction(int(num), int(den))
    return Fraction(int(s))


def gq_from_text(s: str) -> GaussianRational:
    """Parse the canonical scalar syntax produced by :func:`gq_to_text`."""
    s = s.strip().replace(" ", "")
    if not s:
        raise ValueError("empty Gaussian rational literal")
    # split off an imaginary tail if present
    if s.endswith("i"):
        body = s[:-1]
        # find the sign that separates real and imaginary parts, skipping a
        # leading sign of the real part
        split = -1
        for k in range(1, len(body)):
            if body[k] in "+-" and body[k - 1] not in "+-/*":
                split = k
                break
        if split == -1:
            re_part, im_part = "0", body
        else:
            re_part, im_part = body[:split], body[split:]
        im_part = im_part.rstrip("*")
        if im_part in ("", "+"):
            im = Fraction(1)
        elif im_part == "-":
            im = Fraction(-1)
        else:
            im = _frac_from_text(im_part)
        return GaussianRational(_frac_from_text(re_part), im)
    return GaussianRational(_frac_from_text(s))
