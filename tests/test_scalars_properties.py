"""Boundary properties of the canonical form q^e * n/d of RationalFunction:
cancellation at either end of a Laurent polynomial, integer-denominator
gcds, mixed Laurent/general operands and hashing of equal values."""

import subprocess
import sys
from contextlib import contextmanager
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest

from qsphere import scalars
from qsphere.scalars import ONE, Q, ZERO, RationalFunction, _pgcd

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


def rf(num, den=(1,)):
    return RationalFunction(num, den)


def _canonical(x):
    """The invariants of the reduced fraction num/den."""
    num, den = x.num, x.den
    if not num:
        return den == (1,)
    return (num[-1] != 0 and den[-1] > 0 and (num[0] != 0 or den[0] != 0)
            and gcd(*num, *den) == 1 and len(_pgcd(num, den)) == 1)


_coeffs = st.lists(st.integers(-6, 6), min_size=1, max_size=4).filter(any)
_laurent = st.builds(lambda cs, e, c: rf(cs, (c,)) * Q ** e,
                     _coeffs, st.integers(-3, 3), st.integers(1, 6))
_general = st.builds(
    lambda n, d, e: rf(n, d) * Q ** e,
    _coeffs, st.lists(st.integers(-4, 4), min_size=2, max_size=3)
    .filter(lambda d: sum(1 for c in d if c) > 1), st.integers(-2, 2))
_scalars = st.one_of(_laurent, _general)
_settings = hypothesis.settings(max_examples=150, deadline=None)


@_settings
@hypothesis.given(_scalars)
def test_cancellation_to_zero(a):
    for z in (a + (-a), a - a, -a + a, a * 0):
        assert z == ZERO and not z and (z.num, z.den) == ((), (1,))


@_settings
@hypothesis.given(_laurent)
def test_cancelling_an_end_term_shifts_the_exponent(a):
    num, den = a.num, a.den
    terms = [rf((0,) * i + (c,), den) for i, c in enumerate(num) if c]
    for end in (terms[0], terms[-1]):
        rest = a - end
        assert _canonical(rest)
        assert rest + end == a
        if len(terms) > 1:
            assert rest == sum(t for t in terms if t is not end)


@_settings
@hypothesis.given(_coeffs, _coeffs, st.integers(1, 12))
def test_integer_denominator_gcd(n1, n2, c):
    a, b = rf(n1, (c,)), rf(n2, (c,))
    m = max(len(n1), len(n2))
    total = [x + y for x, y in zip(n1 + [0] * m, n2 + [0] * m)]
    s = a + b
    assert _canonical(s) and s == rf(total, (c,))
    assert a * c == rf(n1) and _canonical(a * c)


@_settings
@hypothesis.given(_laurent, _general)
def test_laurent_times_and_into_general(lau, gen):
    q0 = Fraction(7, 3)
    for x in (lau * gen, gen * lau, gen / lau, lau / gen):
        assert _canonical(x)
    assert (lau * gen) / lau == gen
    assert (gen / lau) * lau == gen
    assert (lau * gen).subs(q0) == lau.subs(q0) * gen.subs(q0)
    assert (gen / lau).subs(q0) == gen.subs(q0) / lau.subs(q0)


@_settings
@hypothesis.given(_scalars, _scalars)
def test_equal_values_hash_equal(a, b):
    pairs = [(a * b, b * a), (a + b, b + a), ((a + b) - b, a),
             (rf(a.num, a.den), a)]
    if b:
        pairs.append(((a * b) / b, a))
    for x, y in pairs:
        assert x == y and hash(x) == hash(y)
        assert hash(x) == hash((x.num, x.den))


# -- the packed form of integer Laurent polynomials ---------------------------
# scalars packs q^e * n(q) with integer coefficients as the int n(2^_K);
# _digits switches the digit width, and with pack=False nothing is packed,
# so every value takes the tuple route.

@contextmanager
def _digits(k, pack=True):
    names = ("_K", "_LIMIT", "_DIGIT", "_HALF")
    saved = [getattr(scalars, n) for n in names]
    new = (k, k - 2 if pack else 0, (1 << k) - 1, 1 << (k - 1))
    for n, v in zip(names, new):
        setattr(scalars, n, v)
    try:
        yield
    finally:
        for n, v in zip(names, saved):
            setattr(scalars, n, v)


def _packed(x):
    return type(x._n) is int


def test_the_digit_constants_derive_from_the_width():
    assert scalars._LIMIT == scalars._K - 2
    assert scalars._DIGIT == (1 << scalars._K) - 1
    assert scalars._HALF == 1 << (scalars._K - 1)


def _program(a, b, c):
    """Sums, products, negation and division of three Laurent operands
    (coefficient lists with an exponent), as reduced (num, den) tuples."""
    x, y, z = (rf(cs) * Q ** e for cs, e in (a, b, c))
    outs = [x + y, x - y, y - x, x * y, -x, x * y + z, (x + y) * (x - z),
            x * x * y, (x * y) ** 2, x + y * z - x, x * y - y * x]
    s = ZERO
    for t in (x, y, z, x * y, y * z) * 3:
        s = s + t                    # a chain of sums grows the bound
    outs.append(s)
    outs += [x / y, (x * y) / y, (x + z) / (y * z), ONE / x]
    return [(v.num, v.den) for v in outs]


_small = st.lists(st.integers(-40, 40), min_size=1, max_size=5).filter(any)
_wide = st.lists(st.integers(-2 ** 70, 2 ** 70), min_size=1,
                 max_size=3).filter(any)
_operand = st.tuples(st.one_of(_small, _small, _wide), st.integers(-4, 4))


@_settings
@hypothesis.given(_operand, _operand, _operand)
def test_packed_arithmetic_agrees_with_the_tuple_route(a, b, c):
    with _digits(64, pack=False):
        want = _program(a, b, c)
    assert _program(a, b, c) == want
    with _digits(8):        # coefficients above 2^5 leave the packed form
        assert _program(a, b, c) == want


@_settings
@hypothesis.given(_operand, _operand)
def test_packed_and_tuple_values_agree_on_eq_and_hash(a, b):
    with _digits(64, pack=False):
        tuples = [rf(cs) * Q ** e for cs, e in (a, b)]
    packed = [rf(cs) * Q ** e for cs, e in (a, b)]
    assert not any(map(_packed, tuples))
    for t, p in zip(tuples, packed):
        assert t == p and p == t and hash(t) == hash(p)
        assert t.render() == p.render() and (t.num, t.den) == (p.num, p.den)
    x, y = tuples[0] * packed[1], packed[0] * tuples[1]
    assert x == y and hash(x) == hash(y)
    assert tuples[0] + packed[1] == packed[0] + tuples[1]


def test_small_digits_force_the_tuple_fallback():
    with _digits(8):                        # packed: |coefficients| <= 2^5
        x = rf((5, -3, 7)) * Q ** -2        # bound 3
        y = rf((1, 1))
        assert _packed(x) and _packed(y)
        big, small = RationalFunction.from_int(100), RationalFunction.from_int(-32)
        assert not _packed(big) and _packed(small)
        assert big == rf((100,)) and big * small == rf((-3200,))
        z = x * x                           # bound 3 + 3 + 2 reaches K - 2
        assert not _packed(z)
        assert (z.num, z.den) == ((25, -30, 79, -42, 49), (0, 0, 0, 0, 1))
        w = y
        for _ in range(6):                  # (1 + q)^64, coefficients to 2^60
            w = w * w
        assert not _packed(w) and w.num[32] == 1832624140942590534
        total = ZERO
        for _ in range(30):                 # each sum adds one to the bound
            total = total + y
        assert _packed(total) and total == rf((30, 30))


def test_a_failing_property_is_a_test_failure(tmp_path):
    """Under the repo's pytest config (warnings are errors), a failing @given
    test reports `1 failed`: hypothesis' failure path imports libcst, whose
    mypy_extensions DeprecationWarning must not end the session in
    INTERNALERROR."""
    (tmp_path / "test_prop.py").write_text(
        "from hypothesis import given, settings, strategies as st\n\n\n"
        "@settings(database=None, derandomize=True)\n"
        "@given(st.integers())\n"
        "def test_small(n):\n"
        "    assert n < 10\n")
    config = Path(__file__).resolve().parents[1] / "pyproject.toml"
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(config), "--rootdir", str(tmp_path), "test_prop.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    out = proc.stdout + proc.stderr
    assert proc.returncode == 1, out
    assert "INTERNALERROR" not in out and "1 failed" in out, out
