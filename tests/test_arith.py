"""Field axioms and canonical form of the Gaussian rationals."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from holoclosure.arith import GaussianRational, gq, gq_from_text, gq_to_text

fractions = st.builds(Fraction, st.integers(-30, 30), st.integers(1, 12))
gaussians = st.builds(GaussianRational, fractions, fractions)
nonzero_gaussians = gaussians.filter(bool)


def G(re, im=0):
    return GaussianRational(Fraction(re), Fraction(im))


def test_product_of_conjugate_pair():
    # (1/2 + i)(1/2 - i) = 1/4 + 1 = 5/4
    a = GaussianRational(Fraction(1, 2), Fraction(1))
    assert a * a.conjugate() == G(Fraction(5, 4))


def test_additive_identity():
    assert G(0) + GaussianRational(Fraction(3, 7)) == GaussianRational(Fraction(3, 7))


def test_division_example():
    # (1+i)/(1-i) = i, verified by back-multiplication
    num, den = G(1, 1), G(1, -1)
    q = num / den
    assert q == G(0, 1)
    assert q * den == num


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        G(1) / G(0)


def test_conjugate_examples():
    a = GaussianRational(Fraction(2, 3), Fraction(1, 5))
    assert a.conjugate() == GaussianRational(Fraction(2, 3), Fraction(-1, 5))
    assert G(0, 1).conjugate() == G(0, -1)


@given(gaussians)
def test_conjugate_involution(a):
    assert a.conjugate().conjugate() == a


@given(gaussians, gaussians)
def test_conjugate_is_ring_homomorphism(a, b):
    assert (a * b).conjugate() == a.conjugate() * b.conjugate()
    assert (a + b).conjugate() == a.conjugate() + b.conjugate()


@given(gaussians, gaussians, gaussians)
def test_field_laws(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    assert a * b == b * a


@given(nonzero_gaussians)
def test_multiplicative_inverse(a):
    assert a * a.inverse() == G(1)


@given(gaussians)
def test_additive_inverse(a):
    assert a + (-a) == G(0)


@given(gaussians)
def test_canonical_form_equality_and_hash(a):
    # same value reached along a different arithmetic path has identical parts
    b = (a + G(1)) - G(1)
    assert a == b
    assert hash(a) == hash(b)
    assert (a.re, a.im) == (b.re, b.im)


@given(gaussians)
def test_text_round_trip(a):
    assert gq_from_text(gq_to_text(a)) == a


@pytest.mark.parametrize(
    "value,text",
    [
        (G(0), "0"),
        (GaussianRational(Fraction(3, 7)), "3/7"),
        (G(0, 1), "i"),
        (G(0, -1), "-i"),
        (GaussianRational(Fraction(0), Fraction(-2, 5)), "-2/5*i"),
        (GaussianRational(Fraction(1, 2), Fraction(-3)), "1/2-3*i"),
        (GaussianRational(Fraction(-1, 2), Fraction(1)), "-1/2+i"),
    ],
)
def test_text_examples(value, text):
    assert gq_to_text(value) == text
    assert gq_from_text(text) == value


def test_pow():
    assert G(0, 1) ** 2 == G(-1)
    assert G(2) ** -1 == GaussianRational(Fraction(1, 2))
    assert G(3, 1) ** 0 == G(1)


def test_coercion_and_is_real():
    assert gq(3) == G(3)
    assert gq(Fraction(1, 2)).is_real()
    assert not G(0, 1).is_real()
