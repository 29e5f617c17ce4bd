import random
from fractions import Fraction
from math import gcd, lcm

import pytest

from qsphere.scalars import (ONE, Q, ZERO, NumericField, RationalFunction,
                             SYMBOLIC, q_bracket, q_int_bracket,
                             signed_join, specialize)


def rf(num, den=(1,)):
    return RationalFunction(num, den)


def test_arith_examples():
    assert Q * Q == rf((0, 0, 1))
    assert rf((-1, 0, 1)) / rf((-1, 1)) == rf((1, 1))  # q+1
    lhs = (ONE + Q) / Q + (ONE - Q) / Q
    assert lhs == rf((2,), (0, 1))
    with pytest.raises(ZeroDivisionError):
        ONE / ZERO


def test_canonical_form_is_unique():
    a = rf((2, 2), (4,))
    b = rf((1, 1), (2,))
    assert a == b and hash(a) == hash(b)
    # denominator sign is normalised
    assert rf((1,), (-1, 1)) == rf((-1,), (1, -1))
    # common polynomial factors cancel
    assert rf((-1, 0, 1), (1, 1)) == rf((-1, 1))


def test_field_axioms_random():
    rng = random.Random(11)

    def rnd():
        num = tuple(rng.randint(-5, 5) for _ in range(rng.randint(1, 4)))
        den = tuple(rng.randint(-5, 5) for _ in range(rng.randint(1, 3)))
        return rf(num if any(num) else (1,), den if any(den) else (1,))

    for _ in range(300):
        a, b, c = rnd(), rnd(), rnd()
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + (-a) == ZERO
        if b != ZERO:
            assert (a / b) * b == a


def test_specialize_examples_and_homomorphism():
    assert specialize(Q * Q + ONE, 2) == 5
    assert specialize(ONE / Q, Fraction(1, 2)) == 2
    assert specialize((Q - 2) / (Q + 1), 2) == 0
    with pytest.raises(ValueError):
        specialize(Q, 0)
    with pytest.raises(ValueError):
        specialize(Q, 1)
    with pytest.raises(ZeroDivisionError):
        specialize(ONE / (Q - 2), 2)
    rng = random.Random(5)
    q0 = Fraction(5, 3)
    for _ in range(100):
        a = rf(tuple(rng.randint(-4, 4) for _ in range(3)) or (1,))
        b = rf(tuple(rng.randint(-4, 4) for _ in range(3)) or (1,))
        if not a.num:
            a = ONE
        if not b.num:
            b = ONE
        assert specialize(a * b, q0) == specialize(a, q0) * specialize(b, q0)
        assert specialize(a + b, q0) == specialize(a, q0) + specialize(b, q0)


def test_q_bracket_values():
    assert q_bracket(2, 1) == ONE + Q ** 2
    assert q_bracket(3, 1) == ONE + Q ** 2 + Q ** 4
    # the value at (4, 2) is fixed by the reduction oracle (see
    # test_koszul/test_acceptance); the two readings diverge exactly here
    assert q_bracket(4, 2) == rf((1, 0, 1, 0, 2, 0, 1, 0, 1))
    assert q_int_bracket(4, 2) == rf((1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1))
    assert q_bracket(4, 2) != q_int_bracket(4, 2)


def test_q_bracket_trivial_ends_and_errors():
    for j in range(9):
        assert q_bracket(j, 0) == ONE
        assert q_bracket(j, j) == ONE
    with pytest.raises(ValueError):
        q_bracket(2, 3)
    with pytest.raises(ValueError):
        q_bracket(-1, 0)


def test_q_bracket_coefficients_nonnegative():
    # values are polynomials in q^2 with coefficients in {0, 1, ...}
    for j in range(7):
        for r in range(j + 1):
            v = q_bracket(j, r)
            assert v.den == (1,)
            assert all(c >= 0 for c in v.num)
            assert all(c == 0 for i, c in enumerate(v.num) if i % 2 == 1)


def test_signed_join_shows_a_leading_minus_only():
    # the one join behind RationalFunction.render and NCPoly.render
    assert signed_join([]) == "0"
    assert signed_join([("+", "q")]) == "q"
    assert signed_join([("-", "2*q"), ("+", "1"), ("-", "y0")]) == \
        "-2*q + 1 - y0"


def test_render_roundtrip_styles():
    assert (Q ** -2).render() == "q^-2"
    assert (ONE + Q).render() == "q + 1"
    assert ((ONE + Q) / Q).render() == "1 + q^-1"
    assert (ONE / (ONE + Q)).render() == "1/(q + 1)"
    assert ZERO.render() == "0"


def test_numeric_field_guards():
    f = NumericField(Fraction(3, 2))
    assert f.q_power(-1) == Fraction(2, 3)
    with pytest.raises(ValueError):
        NumericField(0)
    with pytest.raises(ValueError):
        NumericField(-1)
    assert SYMBOLIC.q_power(2) == Q * Q


@pytest.mark.parametrize("num, den, text", [
    ((1,), (0, 2), "1/2*q"),
    ((1, 1), (2,), "(q + 1)/2"),
    ((0, 0, 1, 1), (6,), "(q^3 + q^2)/6"),
    ((1,), (0, 0, 3), "1/3*q^2"),
    ((0, 1), (1, 1), "q/(q + 1)"),
    ((1,), (0, 1, 1), "1/(q^2 + q)"),
    ((-3, 0, 1), (0, 0, 2), "(q^2 - 3)/2*q^2"),
    ((1, 1), (0, 2), "(q + 1)/2*q"),
    ((-1,), (1,), "-1"),
    ((0, -1), (2,), "(-q)/2"),
])
def test_render_golden(num, den, text):
    # every branch of render(), pinned byte for byte
    assert rf(num, den).render() == text


def test_num_den_are_the_reduced_fraction():
    x = rf((0, 0, 2, 2), (0, 4))  # (2q^2 + 2q^3)/(4q) = q(1 + q)/2
    assert (x.num, x.den) == ((0, 1, 1), (2,))
    y = rf((3,), (0, 0, -6, 6))  # 3/(6q^3 - 6q^2) = 1/(2q^3 - 2q^2)
    assert (y.num, y.den) == ((1,), (0, 0, -2, 2))
    assert (ZERO.num, ZERO.den) == ((), (1,))
    assert hash(x) == hash((x.num, x.den))


def test_cancellation_at_the_ends_and_in_the_content():
    # equality is structural, so equal to a canonical value means canonical
    q_inv = ONE / Q
    assert (Q + 1) + (-Q) == ONE
    assert q_inv + (1 - q_inv) == ONE
    assert rf((1, 1), (2,)) + rf((-1, 1), (2,)) == Q
    assert (Q ** 3 + Q) - Q ** 3 == Q  # the top term cancels
    assert (Q ** -2 + Q) - Q ** -2 == Q  # the bottom term cancels
    assert (Q + Fraction(1, 2)) - Q == rf((1,), (2,))
    assert ((Q - Q).num, (Q - Q).den) == ((), (1,))


# -- differential test against sympy ----------------------------------------

def _random_operand(rng, shape):
    coeffs = [rng.randint(-5, 5) for _ in range(rng.randint(1, 4))]
    coeffs[rng.randrange(len(coeffs))] = rng.choice((-3, -1, 1, 2, 5))
    e = rng.randint(-3, 3)
    if shape == "monomial":
        value = rf((rng.choice((-3, -1, 1, 2, 5)),), (rng.randint(1, 6),))
    elif shape == "laurent":
        value = rf(coeffs, (rng.randint(1, 6),))
    else:
        den = [rng.randint(-4, 4) for _ in range(rng.randint(2, 3))]
        den[-1] = den[-1] or 1
        den[0] = den[0] or -2
        value = rf(coeffs, den)
    return value * Q ** e


def test_differential_against_sympy():
    sympy = pytest.importorskip("sympy")
    q = sympy.Symbol("q")

    def to_sympy(x):
        num = sum(c * q ** i for i, c in enumerate(x.num))
        den = sum(c * q ** i for i, c in enumerate(x.den))
        return num / den

    def canonical_tuples(expr):
        # sympy.cancel, scaled to integer coefficients with no common
        # content and a positive leading coefficient of the denominator
        num, den = sympy.fraction(sympy.cancel(expr))
        if num == 0:
            return (), (1,)
        pn = sympy.Poly(num, q, domain="QQ").all_coeffs()[::-1]
        pd = sympy.Poly(den, q, domain="QQ").all_coeffs()[::-1]
        cs = [Fraction(int(c.p), int(c.q)) for c in pn + pd]
        scale = lcm(*(c.denominator for c in cs))
        ints = [int(c * scale) for c in cs]
        g = gcd(*ints) if ints[-1] > 0 else -gcd(*ints)
        ints = [c // g for c in ints]
        return tuple(ints[:len(pn)]), tuple(ints[len(pn):])

    rng = random.Random(20081)
    shapes = ("monomial", "laurent", "general")
    q0 = Fraction(7, 3)
    for i in range(90):
        a = _random_operand(rng, shapes[i % 3])
        b = _random_operand(rng, shapes[(i // 3) % 3])
        sa, sb = to_sympy(a), to_sympy(b)
        k = rng.randint(-3, 3)
        cases = [(a + b, sa + sb), (a - b, sa - sb), (a * b, sa * sb),
                 (a / b, sa / sb), (a ** k, sa ** k)]
        for got, expr in cases:
            assert (got.num, got.den) == canonical_tuples(expr), expr
            want = expr.subs(q, sympy.Rational(q0.numerator, q0.denominator))
            assert got.subs(q0) == Fraction(int(want.p), int(want.q))
