"""Field axioms and canonical form of the Gaussian rationals."""

import ast
import os
import subprocess
import sys
from fractions import Fraction
from math import gcd, lcm
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import holoclosure
from holoclosure import arith
from conftest import reference_gq_text
from holoclosure.arith import GaussianRational, from_numerator, gq, gq_to_text, numerators, power
from holoclosure.syntax import parse_point

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
    assert a * (1 / a) == G(1)


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
    assert parse_point(gq_to_text(a)) == (a,)


wide_gaussians = st.builds(
    GaussianRational,
    st.builds(Fraction, st.integers(-10**6, 10**6), st.integers(1, 60)),
    st.builds(Fraction, st.integers(-10**6, 10**6), st.integers(1, 60)),
)


@given(st.one_of(gaussians, wide_gaussians))
def test_text_matches_the_fraction_reference(a):
    text = gq_to_text(a)
    assert text == reference_gq_text(a)
    assert parse_point(text) == (a,)


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
        (GaussianRational(Fraction(1, 2), Fraction(1)), "1/2+i"),
        (GaussianRational(Fraction(3, 4), Fraction(-5, 6)), "3/4-5/6*i"),
    ],
)
def test_text_examples(value, text):
    assert gq_to_text(value) == text
    assert parse_point(text) == (value,)


def test_pow():
    assert G(0, 1) ** 2 == G(-1)
    assert G(2) ** -1 == GaussianRational(Fraction(1, 2))
    assert G(3, 1) ** 0 == G(1)


def test_coercion_and_is_real():
    assert gq(3) == G(3)
    assert gq(Fraction(1, 2)).is_real()
    assert not G(0, 1).is_real()


# -- differential test against a reference model over pairs of Fractions ------
#
# Parts reach about 2**200, so gcd reduction does real work; parts that share
# a denominator exercise the equal-denominator sum, and small parts make
# cancellation and zero results likely.

BIG = 2**200
big_fractions = st.builds(Fraction, st.integers(-BIG, BIG), st.integers(1, BIG))
any_fractions = st.one_of(fractions, big_fractions)
pairs = st.one_of(
    st.tuples(any_fractions, any_fractions),
    st.builds(lambda a, b, d: (Fraction(a, d), Fraction(b, d)),
              st.integers(-BIG, BIG), st.integers(-BIG, BIG), st.sampled_from([1, 2, 6, BIG - 1])),
)


def ref_add(x, y):
    return x[0] + y[0], x[1] + y[1]


def ref_sub(x, y):
    return x[0] - y[0], x[1] - y[1]


def ref_mul(x, y):
    return x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0]


def ref_div(x, y):
    n = y[0] * y[0] + y[1] * y[1]
    return (x[0] * y[0] + x[1] * y[1]) / n, (x[1] * y[0] - x[0] * y[1]) / n


def assert_matches(z, ref):
    """z is in canonical form and has the reference value."""
    a, b, d = z._a, z._b, z._d
    assert all(type(part) is int for part in (a, b, d))
    assert d > 0 and gcd(a, b, d) == 1
    assert type(z.re) is Fraction and type(z.im) is Fraction
    assert (z.re, z.im) == ref
    assert (a, b, d) == _triple(ref)


def _triple(ref):
    """The canonical triple of a reference pair, computed independently."""
    re, im = ref
    d = lcm(re.denominator, im.denominator)
    return re.numerator * (d // re.denominator), im.numerator * (d // im.denominator), d


@given(pairs, pairs)
def test_operations_match_the_fraction_pair_model(x, y):
    gx, gy = GaussianRational(*x), GaussianRational(*y)
    assert_matches(gx, x)
    assert_matches(gx + gy, ref_add(x, y))
    assert_matches(gx - gy, ref_sub(x, y))
    assert_matches(gx * gy, ref_mul(x, y))
    assert_matches(-gx, (-x[0], -x[1]))
    assert_matches(gx.conjugate(), (x[0], -x[1]))
    if any(y):
        assert_matches(gx / gy, ref_div(x, y))
    assert (gx == gy) == (x == y)
    assert (gx == GaussianRational(*x)) and hash(gx) == hash(GaussianRational(*x))


@given(pairs, st.integers(0, 3), any_fractions)
def test_mixed_operands_and_powers_match_the_model(x, e, q):
    gx = GaussianRational(*x)
    for scalar in (q, q.numerator):
        s = (Fraction(scalar), Fraction(0))
        assert_matches(gx + scalar, ref_add(x, s))
        assert_matches(scalar - gx, ref_sub(s, x))
        assert_matches(scalar * gx, ref_mul(s, x))
        if scalar:
            assert_matches(gx / scalar, ref_div(x, s))
    expected = (Fraction(1), Fraction(0))
    for _ in range(e):
        expected = ref_mul(expected, x)
    assert_matches(gx ** e, expected)
    if any(x):
        assert_matches(gx ** -e, ref_div((Fraction(1), Fraction(0)), expected))


class _Counted:
    """An integer whose products are counted."""

    products = 0

    def __init__(self, value):
        self.value = value

    def __mul__(self, other):
        _Counted.products += 1
        return _Counted(self.value * other.value)


def test_power_never_multiplies_by_one():
    # e.bit_length() - 1 squarings, and one product per further set bit
    for e in [*range(1, 34), 64, 255, 256, 1000]:
        _Counted.products = 0
        assert power(_Counted(3), e, _Counted(1)).value == 3 ** e
        assert _Counted.products == e.bit_length() + bin(e).count("1") - 2, e


def test_power_zero_is_the_unit_itself():
    one = _Counted(1)
    _Counted.products = 0
    assert power(_Counted(3), 0, one) is one
    assert _Counted.products == 0


@given(pairs)
def test_zero_has_one_representation(x):
    gx = GaussianRational(*x)
    zeros = [gx - gx, gx * 0, gx + (-gx), GaussianRational(), GaussianRational(0, Fraction(0, 5)),
             gq(0), gq(Fraction(0)), -GaussianRational(0), GaussianRational(0).conjugate()]
    for z in zeros:
        assert (z._a, z._b, z._d) == (0, 0, 1)
        assert not z and z == 0 and hash(z) == hash(0)


@given(st.one_of(st.integers(-BIG, BIG), big_fractions, fractions))
def test_real_values_agree_with_int_and_fraction(q):
    for z in (gq(q), GaussianRational(q), GaussianRational(q, 0)):
        assert z == q and q == z
        assert hash(z) == hash(q)
        assert z.is_real() and z.re == q and z.im == 0
        assert z != q + 1 and z != GaussianRational(q, 1)


def test_only_arith_imports_fractions():
    """Q(i) is the package's one scalar: ``Fraction`` stays behind ``arith``."""
    importers = set()
    for path in sorted(Path(holoclosure.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            if any(m.split(".")[0] == "fractions" for m in modules):
                importers.add(path.name)
    assert importers == {"arith.py"}


HASH_MODULUS = sys.hash_info.modulus


@given(st.integers(-BIG, BIG),
       st.one_of(st.integers(1, BIG), st.integers(1, 4).map(lambda k: k * HASH_MODULUS)))
@example(1, HASH_MODULUS)
@example(-3, 2 * HASH_MODULUS)
@example(-(HASH_MODULUS + 2), 2)  # |a|/d is 1 modulo the prime: hash -1, which CPython makes -2
@example(HASH_MODULUS + 1, 3)
def test_a_real_hashes_as_its_fraction(n, d):
    q = Fraction(n, d)
    for z in (gq(q), GaussianRational(q), GaussianRational(q, 0)):
        assert hash(z) == hash(q)


def test_a_denominator_divisible_by_the_hash_prime_hashes_to_inf():
    q = Fraction(1, HASH_MODULUS)
    assert hash(gq(q)) == hash(q) == sys.hash_info.inf
    assert hash(gq(-q)) == hash(-q) == -sys.hash_info.inf


def test_fraction_input_and_views_keep_working():
    z = GaussianRational(Fraction(1, 3), 2)
    assert (z._a, z._b, z._d) == (1, 6, 3)
    assert z.re == Fraction(1, 3) and z.im == 2 and type(z.re) is Fraction and type(z.im) is Fraction
    assert gq(Fraction(4, 6)) == Fraction(2, 3) and Fraction(2, 3) == gq(Fraction(4, 6))
    assert gq(Fraction(4, 6)) != Fraction(2, 5) and z != Fraction(1, 3)
    assert repr(z) == "GaussianRational(Fraction(1, 3), Fraction(2, 1))"
    with pytest.raises(TypeError, match="cannot interpret 0.5 as an exact rational"):
        GaussianRational(0.5)


def test_arith_loads_without_fractions_and_takes_a_fraction_imported_later():
    code = (
        "import sys; import holoclosure.arith as a; loaded = 'fractions' in sys.modules; "
        "from fractions import Fraction; q = Fraction(1, 3); z = a.gq(q); "
        "print(loaded, z == q, hash(z) == hash(q), a.GaussianRational(q, 1), z.re)"
    )
    src = Path(holoclosure.__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=str(src)),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "True", "True", "1/3+i", "1/3"]


scalars = st.one_of(st.integers(-BIG, BIG), fractions, gaussians)


@given(st.lists(scalars, max_size=8))
@example([])
@example([3, Fraction(1, 2), GaussianRational(Fraction(1, 3), 2)])
def test_numerators_put_mixed_values_over_the_lcm_of_their_denominators(values):
    pairs, D = numerators(values)
    assert D == lcm(*[lcm(gq(x).re.denominator, gq(x).im.denominator) for x in values])
    assert len(pairs) == len(values)
    for (a, b), x in zip(pairs, values):
        assert type(a) is int and type(b) is int
        assert from_numerator(a, b, D) == gq(x)
    if all(type(x) is int for x in values):
        assert D == 1 and pairs == [(x, 0) for x in values]


def test_numerators_of_ints_build_no_gaussian_rational(monkeypatch):
    built = []
    original = arith._canonical
    monkeypatch.setattr(arith, "_canonical", lambda *args: built.append(args) or original(*args))
    assert numerators([4, -7, 0]) == ([(4, 0), (-7, 0), (0, 0)], 1)
    assert numerators([2, Fraction(1, 3)]) == ([(6, 0), (1, 0)], 3)
    assert built == [(1, 0, 3)]  # the Fraction's element alone
