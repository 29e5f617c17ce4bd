"""Exact arithmetic in the field Q(q) of rational functions in the
deformation parameter q.

Every computation in this package is exact.  A scalar is stored as
q^e * n(q)/d(q) with an integer exponent e and integer-coefficient
polynomials n and d that q does not divide, reduced so that equality of
values is equality of representations (see RationalFunction).  Almost
every scalar the checks meet is a Laurent polynomial, d a positive
integer, and its arithmetic needs no polynomial gcd.  There is no floating
point mode; the fast mode replaces q by an exact rational q0 = a/b, which
stays exact as well: its QValues n / (d * |a*b|^s) add and multiply with
no gcd (see NumericField).

Polynomials are stored little-endian as tuples of Python ints, so
(1, 0, -2) means 1 - 2*q^2.  An integer Laurent polynomial (d = 1) is
packed instead (Kronecker substitution): n is the one int n(2^64), whose
signed base-2^64 digits are the coefficients, so a product is one int
product and a sum a shift and an add.  Each packed value carries a bound
on its coefficients; where the bound would no longer keep the digits
apart, the arithmetic falls back to the tuples (see RationalFunction).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from operator import add, mul, not_, truediv


# ---------------------------------------------------------------------------
# integer polynomial helpers (little-endian int tuples)
# ---------------------------------------------------------------------------

def _ptrim(cs):
    n = len(cs)
    while n and cs[n - 1] == 0:
        n -= 1
    return tuple(cs[:n])


def _pneg(a):
    return tuple(-c for c in a)


def _pmul(a, b):
    # product of nonzero polynomials with nonzero leading coefficients
    if len(b) == 1:
        a, b = b, a
    if len(a) == 1:
        c = a[0]
        if c == 1:
            return b
        return (c * b[0],) if len(b) == 1 else tuple([c * cb for cb in b])
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b, i):
                if cb:
                    out[j] += ca * cb
    return tuple(out)


def _pcontent(a, g=0):
    # gcd of g and the coefficients of a (1 if that is 0)
    for c in a:
        g = gcd(g, c)
        if g == 1:
            return 1
    return g or 1


def _pdiv_int(a, n):
    return tuple(c // n for c in a)


def _pprim(a):
    if not a:
        return ()
    g = _pcontent(a)
    a = _pdiv_int(a, g) if g > 1 else a
    return _pneg(a) if a[-1] < 0 else tuple(a)


def _prem(a, b):
    # pseudo-remainder of a by b (lc(b)^k * a mod b), both nonzero, deg a >= deg b
    a = list(a)
    db, lb = len(b) - 1, b[-1]
    while len(_ptrim(a)) - 1 >= db and _ptrim(a):
        a = _ptrim(a)
        da, la = len(a) - 1, a[-1]
        a = [c * lb for c in a]
        shift = da - db
        for i, c in enumerate(b):
            a[i + shift] -= la * c
        a = list(_ptrim(a))
    return _ptrim(a)


def _pgcd(a, b):
    # primitive gcd via a primitive pseudo-remainder sequence
    a, b = _pprim(a), _pprim(b)
    if not a:
        return b
    if not b:
        return a
    if len(a) < len(b):
        a, b = b, a
    while b:
        r = _pprim(_prem(a, b))
        a, b = b, r
    return a


def _pdivexact(a, b):
    # exact quotient a / b; caller guarantees divisibility
    if not a:
        return ()
    q = [0] * (len(a) - len(b) + 1)
    rem = list(a)
    lb = b[-1]
    for i in range(len(q) - 1, -1, -1):
        c = rem[i + len(b) - 1]
        if c % lb != 0:
            raise ArithmeticError("inexact polynomial division")
        q[i] = c // lb
        if q[i]:
            for j, cb in enumerate(b):
                rem[i + j] -= q[i] * cb
    if any(rem):
        raise ArithmeticError("inexact polynomial division")
    return _ptrim(q)


def _peval(a, x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(a):
        acc = acc * x + c
    return acc


def _pterms(a, shift=0):
    # render as "c*q^k" term list, highest power first
    parts = []
    for e in range(len(a) - 1, -1, -1):
        c = a[e]
        if c == 0:
            continue
        k = e + shift
        if k == 0:
            body = str(abs(c))
        elif abs(c) == 1:
            body = "q" if k == 1 else f"q^{k}"
        else:
            body = f"{abs(c)}*q" if k == 1 else f"{abs(c)}*q^{k}"
        parts.append(("-" if c < 0 else "+", body))
    return signed_join(parts)


def signed_join(parts):
    """(sign, body) pairs as "a - b + c", the first sign shown only when
    it is "-"; "0" for no pairs."""
    if not parts:
        return "0"
    (sign, body), rest = parts[0], parts[1:]
    return ("-" if sign == "-" else "") + body + "".join(
        f" {sign} {body}" for sign, body in rest)


# ---------------------------------------------------------------------------
# Scalar: q^e * n(q)/d(q) over Z[q]
# ---------------------------------------------------------------------------

# The packed form: digits of _K bits.  A packed value's bound B, with every
# |coefficient| <= 2^B, stays below _LIMIT, so the coefficients of the sum
# of two packed values stay below 2^(_K - 1) and are its digits.
_K = 64
_LIMIT = _K - 2
_DIGIT = (1 << _K) - 1
_HALF = 1 << (_K - 1)


class RationalFunction:
    """An element q^e * n(q)/d(q) of Q(q) in canonical form.

    Invariants: n and d are integer polynomials with nonzero constant and
    leading coefficients (zero is e = 0, n = 0, d = 1); n and d are coprime,
    content included; and the leading coefficient of d is positive.
    Equality is therefore structural.  The value is a Laurent polynomial
    exactly when d is a constant.  The polynomial gcd runs only when both
    sides it would cancel have more than one term.

    Packed form.  When d = 1 and every coefficient of n is at most
    2^(K - 3) in absolute value (K = _K = 64), n is stored as the int
    n(2^K), whose signed base-2^K digits are the coefficients (Kronecker
    substitution), and the slot of d holds a bound B with every
    |coefficient| <= 2^B.  A product is one int product, with bound
    B(a) + B(b) + ceil(log2 m) for m the shorter length, read off the
    ints' bit lengths; a sum is a shift, an add and a strip of zero low
    digits, with bound max(B(a), B(b)) + 1.  A result whose bound would
    reach K - 2 is unpacked: a product is computed again on coefficient
    tuples, the route of every other value, and a sum's digits are read
    off as they are.  Either result is packed again, with its exact bound,
    if it fits.  So every d = 1 value whose coefficients fit is packed;
    the others keep int tuples n and d, with an integer gcd when d is an
    integer other than 1.

    `num` and `den` give the same value as one reduced fraction of int
    tuples, with q^e moved into the numerator (e > 0) or the denominator
    (e < 0); hash, render and str read them, whatever the form.
    """

    __slots__ = ("_e", "_n", "_d", "_hash")

    def __new__(cls, num, den=(1,)):
        return _rf(*_canon(num, den))

    def _tuples(self):
        """(e, n, d) with n and d int tuples, whatever the form."""
        n = self._n
        if type(n) is int:
            return self._e, _unpack(n), (1,)
        return self._e, n, self._d

    @property
    def num(self):
        e, n, _ = self._tuples()
        return (0,) * e + n if e > 0 else n

    @property
    def den(self):
        e, _, d = self._tuples()
        return (0,) * -e + d if e < 0 else d

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_int(n):
        bits = (abs(n) - 1).bit_length()
        if bits < _LIMIT:
            return _new(0, +n, bits)        # +n: an int, for a bool too
        return _rf(0, (n,) if n else (), (1,))

    @staticmethod
    def q_power(k):
        return _new(k, 1, 0)

    @staticmethod
    def from_fraction(fr):
        fr = Fraction(fr)
        return _rf(0, (fr.numerator,) if fr.numerator else (),
                   (fr.denominator,))

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        if type(other) is not RationalFunction:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        n1, n2 = self._n, other._n
        if type(n1) is not int or type(n2) is not int:
            return _add_tuples(self, other)
        if not n1:
            return other
        if not n2:
            return self
        e1, e2 = self._e, other._e
        if e1 > e2:
            n1, n2, e1, e2 = n2, n1, e2, e1
        s = n1 + (n2 << _K * (e2 - e1))
        if not s:
            return ZERO
        if not s & _DIGIT:      # e1 == e2: else the constant digit is n1's
            t = ((s & -s).bit_length() - 1) // _K
            s >>= _K * t
            e1 += t
        bits = self._d if self._d > other._d else other._d
        if bits + 1 < _LIMIT:
            out = _object_new(RationalFunction)     # _new, inlined
            out._e, out._n, out._d = e1, s, bits + 1
            return out
        # both bounds are below _LIMIT, so the digits of s are the sum's
        return _rf(e1, _unpack(s), (1,))

    __radd__ = __add__

    def __neg__(self):
        n = self._n
        return _new(self._e, -n if type(n) is int else _pneg(n), self._d)

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return _coerce(other) - self

    def __mul__(self, other):
        if type(other) is not RationalFunction:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        n1, n2 = self._n, other._n
        if type(n1) is int and type(n2) is int:
            if not n1 or not n2:
                return ZERO
            # a coefficient of the product sums at most m products, m the
            # shorter length; m <= bit_length // K + 1 of the smaller int
            if -_HALF < n1 < _HALF or -_HALF < n2 < _HALF:
                bits = self._d + other._d
            else:
                bits = self._d + other._d + (
                    min(n1.bit_length(), n2.bit_length()) // _K).bit_length()
            if bits < _LIMIT:
                out = _object_new(RationalFunction)     # _new, inlined
                out._e = self._e + other._e
                # a factor 1 shares the other's int, as cached values do
                out._n = n2 if n1 == 1 else n1 if n2 == 1 else n1 * n2
                out._d = bits
                return out
        return _mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        e, n, d = other._tuples()
        if not n:
            raise ZeroDivisionError("division by the zero rational function")
        if n[-1] < 0:
            n, d = _pneg(n), _pneg(d)
        return _mul(self, _rf(-e, d, n))

    def __rtruediv__(self, other):
        return _coerce(other) / self

    def __pow__(self, k):
        if k < 0:
            return ONE / self ** (-k)
        out = ONE
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    # -- structure ----------------------------------------------------------

    def __bool__(self):
        return bool(self._n)

    def __eq__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if type(self._n) is int and type(other._n) is int:
            return self._e == other._e and self._n == other._n
        return self._tuples() == other._tuples()

    def __hash__(self):
        # the hash of the reduced fraction (num, den): the iteration order
        # of any set or dict keyed by scalars depends on it; _hash stays
        # unset until the first call
        try:
            return self._hash
        except AttributeError:
            self._hash = hash((self.num, self.den))
            return self._hash

    def __repr__(self):
        return f"RationalFunction({self.render()!r})"

    def render(self):
        e, n, d = self._tuples()
        if not n:
            return "0"
        if d == (1,):
            # a Laurent polynomial with integer coefficients
            return _pterms(n, shift=e)
        num = _pterms(n, shift=max(e, 0))
        den = _pterms(d, shift=max(-e, 0))
        num = f"({num})" if (" " in num or num.startswith("-")) else num
        den = f"({den})" if " " in den else den
        return f"{num}/{den}"

    def subs(self, q0: Fraction) -> Fraction:
        den = _peval(self.den, q0)
        if den == 0:
            raise ZeroDivisionError(f"denominator vanishes at q = {q0}")
        return _peval(self.num, q0) / den


_object_new = object.__new__


def _new(e, n, d):
    """The RationalFunction with the slots _e, _n, _d given as they are."""
    out = _object_new(RationalFunction)
    out._e, out._n, out._d = e, n, d
    return out


def _rf(e, n, d):
    """The RationalFunction q^e * n/d for canonical int tuples (e, n, d),
    packed when d = (1,) and the coefficients fit."""
    if d == (1,):
        bits = (max(map(abs, n), default=1) - 1).bit_length()
        if bits < _LIMIT:
            v = 0
            for c in reversed(n):       # v = n(2^_K)
                v = (v << _K) + c
            return _new(e, v, bits)
    return _new(e, n, d)


def _unpack(v):
    """The coefficient tuple of a packed int: its signed base-2^_K digits."""
    out = []
    while v:
        c = ((v + _HALF) & _DIGIT) - _HALF
        out.append(c)
        v = (v - c) >> _K
    return tuple(out)


def _coerce(x):
    if isinstance(x, RationalFunction):
        return x
    if isinstance(x, int):
        return RationalFunction.from_int(x)
    if isinstance(x, Fraction):
        return RationalFunction.from_fraction(x)
    return NotImplemented


def _add_tuples(x, y):
    """x + y on coefficient tuples, for operands not both packed."""
    e1, n1, d1 = x._tuples()
    e2, n2, d2 = y._tuples()
    if not n1:
        return y
    if not n2:
        return x
    if d1 == d2:
        e, n = _shifted_sum(n1, e1, n2, e2)
    else:
        e, n = _shifted_sum(_pmul(n1, d2), e1, _pmul(n2, d1), e2)
        d1 = _pmul(d1, d2)
    if not n:
        return ZERO
    if d1 != (1,):
        n, d1 = _coprime(n, d1)
    return _rf(e, n, d1)


def _mul(x, y):
    """x * y on coefficient tuples: cancel each numerator against the other
    denominator; the products of the cancelled factors are then canonical."""
    e1, n1, d1 = x._tuples()
    e2, n2, d2 = y._tuples()
    if not n1 or not n2:
        return ZERO
    if d2 != (1,):
        n1, d2 = _coprime(n1, d2)
    if d1 != (1,):
        n2, d1 = _coprime(n2, d1)
        d2 = _pmul(d1, d2)
    return _rf(e1 + e2, _pmul(n1, n2), d2)


def _shifted_sum(a, ea, b, eb):
    """(e, s) with q^ea * a + q^eb * b == q^e * s, where s is () or has
    nonzero constant and leading coefficients."""
    if ea > eb:
        a, ea, b, eb = b, eb, a, ea
    shift = eb - ea
    out = list(a)
    top = shift + len(b)
    if top > len(out):
        out += [0] * (top - len(out))
    for i, c in enumerate(b, shift):
        out[i] += c
    hi = len(out)
    while hi and not out[hi - 1]:
        hi -= 1
    if not hi:
        return 0, ()
    lo = 0
    while not out[lo]:
        lo += 1
    return ea + lo, tuple(out[lo:hi])


def _canon(num, den):
    """The canonical (e, n, d) of num/den, for int sequences num and den
    that may have zero coefficients at either end."""
    num, den = _ptrim(num), _ptrim(den)
    if not den:
        raise ZeroDivisionError("zero denominator")
    if not num:
        return 0, (), (1,)
    tn = td = 0
    while not num[tn]:
        tn += 1
    while not den[td]:
        td += 1
    n, d = _coprime(num[tn:], den[td:])
    return tn - td, n, d


def _coprime(n, d):
    """n/d in lowest terms with a positive leading coefficient of d, for
    nonzero n and d with nonzero constant and leading coefficients.

    No power of q divides either side, so a one-term side leaves only the
    integer content to cancel; the polynomial gcd is for two longer sides.
    """
    if len(d) == 1:
        c = d[0]
        g = _pcontent(n, c)
        if g > 1:
            n, c = _pdiv_int(n, g), c // g
        return (_pneg(n), (-c,)) if c < 0 else (n, (c,))
    g = _pcontent(n, _pcontent(d))
    if g > 1:
        n, d = _pdiv_int(n, g), _pdiv_int(d, g)
    if len(n) > 1:
        h = _pgcd(n, d)
        if len(h) > 1:
            n, d = _pdivexact(n, h), _pdivexact(d, h)
    if d[-1] < 0:
        n, d = _pneg(n), _pneg(d)
    return n, d


ZERO = RationalFunction.from_int(0)
ONE = RationalFunction.from_int(1)
Q = RationalFunction.q_power(1)


# ---------------------------------------------------------------------------
# spec-level operations
# ---------------------------------------------------------------------------

def arith(a, b, op):
    """Field arithmetic dispatch: op in {'add','sub','mul','div'}."""
    if op == "add":
        return a + b
    if op == "sub":
        return a - b
    if op == "mul":
        return a * b
    if op == "div":
        return a / b
    raise ValueError(f"unknown op {op!r}")


def specialize(a: RationalFunction, q0) -> Fraction:
    """Evaluate a at an exact rational q0 (q0 nonzero, |q0| != 1)."""
    q0 = Fraction(q0)
    _check_q0(q0)
    return a.subs(q0)


def _check_q0(q0: Fraction):
    if q0 == 0:
        raise ValueError("q0 must be nonzero")
    if q0 == 1 or q0 == -1:
        raise ValueError("q0 must not be a root of unity (|q0| != 1)")


def q_bracket(j, r, field=None):
    """The q-coefficient written (j r)_q in the reduction formulas.

    This is the Gaussian binomial coefficient of (j, r) in the variable q^2,
    via the Pascal recurrence [j,r] = [j-1,r-1] + q^(2r)*[j-1,r].  The other
    reading of the same display, the q^2-integer of the ordinary binomial
    coefficient 1 + q^2 + ... + q^(2*C(j,r)-2), agrees for r in {0,1,j-1,j}
    but diverges first at (j,r) = (4,2); the brute-force reduction oracle in
    qsphere.koszul singles out the Gaussian form (see tests).
    """
    if r < 0 or j < 0 or r > j:
        raise ValueError(f"q_bracket requires 0 <= r <= j, got ({j}, {r})")
    field = field or SYMBOLIC
    row = [field.one]
    for n in range(1, j + 1):
        new = [field.one]
        for k in range(1, n):
            new.append(row[k - 1] + field.q_power(2 * k) * row[k])
        new.append(field.one)
        row = new
    return row[r]


def q_int_bracket(j, r, field=None):
    """The rival reading of (j r)_q: 1 + q^2 + ... + q^(2*C(j,r)-2).

    Kept only as the test foil; the reduction oracle rejects it at (4,2).
    """
    if r < 0 or j < 0 or r > j:
        raise ValueError(f"q_int_bracket requires 0 <= r <= j, got ({j}, {r})")
    field = field or SYMBOLIC
    c = 1
    for s in range(r):
        c = c * (j - s) // (s + 1)
    out = field.zero
    for s in range(c):
        out = out + field.q_power(2 * s)
    return out


# ---------------------------------------------------------------------------
# coefficient fields: symbolic Q(q) and exact specialization at q = q0
# ---------------------------------------------------------------------------

class SymbolicField:
    """Q(q) with RationalFunction elements."""

    name = "symbolic"

    zero = ZERO
    one = ONE
    from_int = staticmethod(RationalFunction.from_int)
    q_power = staticmethod(RationalFunction.q_power)
    is_zero = staticmethod(not_)
    render = staticmethod(RationalFunction.render)

    def __eq__(self, other):
        return isinstance(other, SymbolicField)

    def __hash__(self):
        return hash(SymbolicField)

    def __repr__(self):
        return "SymbolicField()"


class QValue:
    """n / (d * D^s), an element of NumericField at q0 = a/b: D = |a*b|,
    s >= 0 and d > 0 is prime to D.  Values built without division have
    d = 1; they add and multiply with no gcd and no canonical form.  Other
    operations go through Fraction.  hash and str are the equal Fraction's.
    """

    __slots__ = ("n", "s", "d", "D")

    def __init__(self, n, s, d, D):
        self.n, self.s, self.d, self.D = n, s, d, D

    def fraction(self):
        return Fraction(self.n, self.d * self.D ** self.s)

    def _via(self, o, op):
        if type(o) is QValue:
            o = o.fraction()
        elif not isinstance(o, (int, Fraction)):
            return NotImplemented
        return _split(op(self.fraction(), o), self.D)

    def __add__(self, o):
        if type(o) is not QValue or self.d != 1 or o.d != 1:
            return self._via(o, add)
        s, t = self.s, o.s
        if s >= t:
            return QValue(self.n + o.n * self.D ** (s - t), s, 1, self.D)
        return QValue(self.n * self.D ** (t - s) + o.n, t, 1, self.D)

    __radd__ = __add__

    def __neg__(self):
        return QValue(-self.n, self.s, self.d, self.D)

    def __sub__(self, o):
        return self + -o

    def __rsub__(self, o):
        return -self + o

    def __mul__(self, o):
        if type(o) is not QValue or self.d != 1 or o.d != 1:
            return self._via(o, mul)
        return QValue(self.n * o.n, self.s + o.s, 1, self.D)

    __rmul__ = __mul__

    def __truediv__(self, o):
        return self._via(o, truediv)

    def __rtruediv__(self, o):
        return self._via(o, lambda x, y: y / x)

    def __pow__(self, k):
        if k < 0 or self.d != 1:
            return _split(self.fraction() ** k, self.D)
        return QValue(self.n ** k, self.s * k, 1, self.D)

    def __bool__(self):
        return self.n != 0

    def __eq__(self, o):
        if type(o) is not QValue:
            return self.fraction() == o
        s, t, D = self.s, o.s, self.D
        return (self.n * o.d * D ** max(t - s, 0)
                == o.n * self.d * D ** max(s - t, 0))

    def __hash__(self):
        return hash(self.fraction())

    def __str__(self):
        return str(self.fraction())

    __repr__ = __str__


def _split(fr, D):
    """The Fraction fr as a QValue over D, with the least s."""
    d = r = fr.denominator
    while (g := gcd(d, D)) > 1:
        d //= g
    s, p, r = 0, 1, r // d      # r // d: the factor of r made of D's primes
    while p % r:
        s, p = s + 1, p * D
    return QValue(fr.numerator * (p // r), s, d, D)


class NumericField:
    """Q with q specialised to an exact rational q0 (never a root of unity),
    with QValue elements over D = |a*b| for q0 = a/b."""

    is_zero = staticmethod(not_)
    render = staticmethod(str)

    def __init__(self, q0):
        q0 = Fraction(q0)
        _check_q0(q0)
        self.q0 = q0
        self.name = f"q={q0}"
        self.D = D = abs(q0.numerator * q0.denominator)
        self.zero, self.one = QValue(0, 0, 1, D), QValue(1, 0, 1, D)
        self._q = _split(q0, D), _split(1 / q0, D)     # q0^1 and q0^-1

    def from_int(self, n):
        return QValue(n, 0, 1, self.D)

    def q_power(self, k):
        return self._q[k < 0] ** abs(k)

    def __eq__(self, other):
        return isinstance(other, NumericField) and self.q0 == other.q0

    def __hash__(self):
        return hash(self.q0)

    def __repr__(self):
        return f"NumericField({self.q0})"


SYMBOLIC = SymbolicField()
