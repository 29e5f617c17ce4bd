"""QValue, the element type of NumericField, against fractions.Fraction.

A QValue at q0 = a/b is n / (d * D^s) with D = |a*b|; values built without
division have d = 1 and add and multiply with no gcd.  Every operation must
give the value, hash, str and truth of the equal Fraction, mixed with int
and Fraction operands from either side, and the mode built on it must
agree with the symbolic one."""

import random
from fractions import Fraction
from math import gcd
from operator import add, mul, sub, truediv

import pytest

from qsphere import scalars
from qsphere.hopf import _cop_word
from qsphere.ncalg import QSL2, Context, filtration_basis, get_algebra, qsl2_word
from qsphere.scalars import SYMBOLIC, NumericField, QValue, specialize

Q0S = [Fraction(3, 2), Fraction(-2), Fraction(5), Fraction(1, 3),
       Fraction(-7, 4)]
_OPS = {"+": add, "-": sub, "*": mul, "/": truediv}


def _agree(x, fx):
    """x is a well-formed QValue with the value, hash, str and truth of fx."""
    assert type(x) is QValue
    assert x.s >= 0 and x.d > 0 and gcd(x.d, x.D) == 1
    assert Fraction(x.n, x.d * x.D ** x.s) == fx
    assert x == fx and fx == x and not x != fx and not fx != x
    if fx.denominator == 1:
        assert x == int(fx) and int(fx) == x
    assert x != fx + 1 and fx + 1 != x
    assert hash(x) == hash(fx) and str(x) == str(fx) and bool(x) == bool(fx)


def _operand(field, q0, kind, v):
    """(operand, its Fraction, built without division): a raw int or
    Fraction, or a QValue power of q."""
    if kind == "int":
        return v, Fraction(v), True
    if kind == "frac":
        return Fraction(v, 7), Fraction(v, 7), False
    return field.q_power(v), q0 ** v, True


def _run(q0, program):
    """Interpret program, a list of (op, rev, i, kind, v) steps, on QValues
    and on Fractions side by side; each step appends op(register i,
    operand) (reversed when rev) to the registers and checks it."""
    field = NumericField(q0)
    regs = [(field.one, Fraction(1), True), (field.q_power(1), q0, True),
            (field.zero, Fraction(0), True)]
    for op, rev, i, kind, v in program:
        x, fx, plain = regs[i % len(regs)]
        if op == "**":
            if v < 0 and not fx:
                continue
            z, fz, plain = x ** v, fx ** v, plain and v >= 0
        else:
            if kind == "reg":
                y, fy, yplain = regs[v % len(regs)]
            else:
                y, fy, yplain = _operand(field, q0, kind, v)
            if rev:
                x, fx, y, fy = y, fy, x, fx
            if op == "/" and not fy:
                with pytest.raises(ZeroDivisionError):
                    _OPS[op](x, y)
                continue
            z, fz = _OPS[op](x, y), _OPS[op](fx, fy)
            plain = plain and yplain and op != "/"
        _agree(z, fz)
        assert z.d == 1 or not plain
        for r, fr, _ in regs[-4:]:   # QValue against QValue, any s and d
            assert (z == r) == (r == z) == (fz == fr)
        regs.append((z, fz, plain))


def _random_program(rng, n):
    steps = []
    for _ in range(n):
        op = rng.choice(["+", "-", "*", "/", "**"])
        kind = rng.choice(["int", "frac", "q", "reg", "reg"])
        v = (rng.randint(-3, 3) if op == "**" or kind == "q"
             else rng.randint(-9, 9))
        steps.append((op, rng.random() < 0.5, rng.randrange(64), kind, v))
    return steps


@pytest.mark.parametrize("q0", Q0S, ids=str)
def test_agrees_with_fraction_on_seeded_programs(q0):
    rng = random.Random(f"qvalue:{q0}")
    for _ in range(40):
        _run(q0, _random_program(rng, 14))


def test_agrees_with_fraction_on_drawn_programs():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    step = st.tuples(st.sampled_from(["+", "-", "*", "/", "**"]), st.booleans(),
                     st.integers(0, 63),
                     st.sampled_from(["int", "frac", "q", "reg"]),
                     st.integers(-4, 4))

    @hypothesis.settings(max_examples=150, deadline=None)
    @hypothesis.given(st.sampled_from(Q0S), st.lists(step, max_size=16))
    def check(q0, program):
        _run(q0, program)

    check()


@pytest.mark.parametrize("q0", Q0S, ids=str)
def test_field_elements(q0):
    field = NumericField(q0)
    assert field.D == abs(q0.numerator * q0.denominator)
    for k in range(-6, 7):
        _agree(field.q_power(k), q0 ** k)
        _agree(field.from_int(k), Fraction(k))
        assert field.q_power(k).d == 1
    assert field.is_zero(field.zero) and not field.is_zero(field.one)
    assert field.is_zero(field.q_power(3) - field.q_power(1) ** 3)
    assert field.render(field.one / field.from_int(-12)) == "-1/12"
    # q0 itself and what specialize returns stay Fractions
    assert type(field.q0) is Fraction
    assert type(specialize(scalars.Q, q0)) is Fraction


def test_sums_rescale_the_smaller_exponent():
    field = NumericField(Fraction(3, 2))    # D = 6
    q, qi = field.q_power(1), field.q_power(-1)
    assert (q.n, q.s) == (9, 1) and (qi.n, qi.s) == (4, 1)
    one = q * qi                            # 36 / 6^2, not rewritten as 1
    assert (one.n, one.s, one.d) == (36, 2, 1) and one == 1
    assert one == field.one and field.one == one and one != q
    assert hash(one) == hash(field.one) == 1 and str(one) == "1"
    for x, y in ((one, q), (q, one), (one, field.one)):
        z = x + y
        assert z.s == max(x.s, y.s) and z == x.fraction() + y.fraction()
    assert (q - q).n == 0 and not q - q and q - q == 0


def test_values_with_a_denominator_prime_to_D_take_the_fraction_route():
    field = NumericField(Fraction(3, 2))
    x = field.one / field.from_int(35)      # 1/35: d = 35
    assert (x.d, x.s) == (35, 0)
    y = field.q_power(2) / field.from_int(10)   # 9/40 = 243 / (5 * 6^3)
    assert (y.n, y.s, y.d) == (243, 3, 5)
    _agree(x * y + field.q_power(-1), Fraction(1, 35) * Fraction(9, 40)
           + Fraction(2, 3))
    assert (x * field.from_int(35)).d == 1


@pytest.mark.parametrize("q0", Q0S, ids=str)
def test_coproducts_specialize_the_symbolic_ones(q0):
    sym, num = get_algebra(QSL2, SYMBOLIC), Context(NumericField(q0)).A
    for w in filtration_basis(sym, 4):
        want = {k: specialize(c, q0) for k, c in _cop_word(sym, w).items()}
        got = _cop_word(num, w)
        assert got.keys() == want.keys(), w
        for k, c in got.items():
            _agree(c, want[k])


def test_coproduct_fill_at_q0_constructs_no_fraction(monkeypatch):
    ctx = Context(NumericField(Fraction(3, 2)))
    made = []

    class Counted(Fraction):
        def __new__(cls, *args, **kwargs):
            made.append(args)
            return super().__new__(cls, *args, **kwargs)

    monkeypatch.setattr(scalars, "Fraction", Counted)
    for w in (qsl2_word(2, 3, 3), qsl2_word(-3, 2, 3)):
        assert len(w) == 8 and w not in ctx.A._cop_cache
        assert _cop_word(ctx.A, w)
    assert made == []
    # the counter sees the Fraction route when it is taken
    assert ctx.field.one / ctx.field.from_int(7) and made
