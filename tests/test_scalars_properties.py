"""Boundary properties of the canonical form q^e * n/d of RationalFunction:
cancellation at either end of a Laurent polynomial, integer-denominator
gcds, mixed Laurent/general operands and hashing of equal values."""

from fractions import Fraction
from math import gcd

import pytest

from qsphere.scalars import Q, ZERO, RationalFunction, _pgcd

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
