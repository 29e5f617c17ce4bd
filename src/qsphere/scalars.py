"""Exact arithmetic in the field Q(q) of rational functions in the
deformation parameter q.

Every computation in this package is exact: scalars are reduced fractions
of integer-coefficient polynomials in q, canonicalised so that equality of
values is equality of representations.  There is no floating point mode;
the "fast" mode replaces q by an exact rational number (see NumericField),
which stays exact as well.

Polynomials are stored little-endian as tuples of Python ints, so
(1, 0, -2) means 1 - 2*q^2.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd


# ---------------------------------------------------------------------------
# integer polynomial helpers (little-endian int tuples)
# ---------------------------------------------------------------------------

def _ptrim(cs):
    n = len(cs)
    while n and cs[n - 1] == 0:
        n -= 1
    return tuple(cs[:n])


def _padd(a, b):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    return _ptrim(out)


def _pneg(a):
    return tuple(-c for c in a)


def _pmul(a, b):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                if cb:
                    out[i + j] += ca * cb
    return _ptrim(out)


def _pshift(a, k):
    # multiply by q^k, k >= 0
    if not a:
        return ()
    return (0,) * k + tuple(a)


def _pcontent(a):
    g = 0
    for c in a:
        g = gcd(g, abs(c))
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
    if not parts:
        return "0"
    sign, body = parts[0]
    out = ("-" if sign == "-" else "") + body
    for sign, body in parts[1:]:
        out += f" {sign} {body}"
    return out


# ---------------------------------------------------------------------------
# Scalar: reduced fraction num/den over Z[q]
# ---------------------------------------------------------------------------

class RationalFunction:
    """An element of Q(q) in canonical form.

    Invariants: den is nonzero, the fraction is reduced (no common content,
    no common polynomial factor, no common power of q) and the leading
    coefficient of den is positive.  Equality is therefore structural.
    """

    __slots__ = ("num", "den", "_hash", "_m")

    def __init__(self, num, den=(1,), _reduced=False):
        if not _reduced:
            num, den = _reduce(num, den)
        self.num = num
        self.den = den
        self._hash = None
        self._m = False  # False: unknown, None: not a monomial, else (cn, cd, exp)

    def _mono(self):
        """(cn, cd, e) when the value is (cn/cd)*q^e, else None (cached).

        Monomial values dominate every heavy loop, and their arithmetic
        reduces to integer gcds; see the fast paths below.
        """
        m = self._m
        if m is False:
            m = None
            if _nnz(self.num) == 1 and _nnz(self.den) == 1:
                en = next(i for i, c in enumerate(self.num) if c)
                ed = next(i for i, c in enumerate(self.den) if c)
                m = (self.num[en], self.den[ed], en - ed)
            self._m = m
        return m

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_int(n):
        return RationalFunction((n,) if n else (), (1,), _reduced=True)

    @staticmethod
    def q_power(k):
        if k >= 0:
            return RationalFunction(_pshift((1,), k), (1,), _reduced=True)
        return RationalFunction((1,), _pshift((1,), -k), _reduced=True)

    @staticmethod
    def from_fraction(fr):
        fr = Fraction(fr)
        return RationalFunction((fr.numerator,) if fr.numerator else (),
                                (fr.denominator,), _reduced=True)

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not self.num:
            return other
        if not other.num:
            return self
        ma, mb = self._mono(), other._mono()
        if ma and mb:
            cn1, cd1, e1 = ma
            cn2, cd2, e2 = mb
            if e1 == e2:
                return _from_mono(cn1 * cd2 + cn2 * cd1, cd1 * cd2, e1)
            lo = min(e1, e2)
            cd = cd1 * cd2
            a1, a2 = cn1 * cd2, cn2 * cd1
            g = gcd(gcd(abs(a1), abs(a2)), cd)
            if g > 1:
                a1, a2, cd = a1 // g, a2 // g, cd // g
            top = max(e1, e2) - min(lo, 0)
            num = [0] * (top + 1)
            num[e1 - min(lo, 0)] = a1
            num[e2 - min(lo, 0)] = a2
            den = (0,) * (-min(lo, 0)) + (cd,)
            return RationalFunction(tuple(num), den, _reduced=True)
        if self.den == other.den:
            return RationalFunction(_padd(self.num, other.num), self.den)
        return RationalFunction(
            _padd(_pmul(self.num, other.den), _pmul(other.num, self.den)),
            _pmul(self.den, other.den))

    __radd__ = __add__

    def __neg__(self):
        out = RationalFunction(_pneg(self.num), self.den, _reduced=True)
        m = self._m
        if m:
            out._m = (-m[0], m[1], m[2])
        return out

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return _coerce(other) - self

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not self.num or not other.num:
            return ZERO
        ma, mb = self._mono(), other._mono()
        if ma and mb:
            return _from_mono(ma[0] * mb[0], ma[1] * mb[1], ma[2] + mb[2])
        if ma:
            return _mul_mono(other, ma)
        if mb:
            return _mul_mono(self, mb)
        # cross-reduce; the factors are then pairwise coprime and the
        # product is canonical without a gcd on the full products
        n1, d2 = _reduce(self.num, other.den)
        n2, d1 = _reduce(other.num, self.den)
        return RationalFunction(_pmul(n1, n2), _pmul(d1, d2), _reduced=True)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not other.num:
            raise ZeroDivisionError("division by the zero rational function")
        if not self.num:
            return ZERO
        ma, mb = self._mono(), other._mono()
        if ma and mb:
            cn, cd = ma[0] * mb[1], ma[1] * mb[0]
            if cd < 0:
                cn, cd = -cn, -cd
            return _from_mono(cn, cd, ma[2] - mb[2])
        n1, n2 = _reduce(self.num, other.num)
        d2, d1 = _reduce(other.den, self.den)
        num, den = _pmul(n1, d2), _pmul(d1, n2)
        if den[-1] < 0:
            num, den = _pneg(num), _pneg(den)
        return RationalFunction(num, den, _reduced=True)

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
        return bool(self.num)

    def __eq__(self, other):
        if isinstance(other, int):
            other = RationalFunction.from_int(other)
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.num, self.den))
        return self._hash

    def __repr__(self):
        return f"RationalFunction({self.render()!r})"

    def render(self):
        if not self.num:
            return "0"
        # fold monomial denominators q^k into Laurent exponents
        nz = [i for i, c in enumerate(self.den) if c]
        if len(nz) == 1 and self.den[nz[0]] == 1:
            return _pterms(self.num, shift=-nz[0])
        num = _pterms(self.num)
        den = _pterms(self.den)
        num = f"({num})" if (" " in num or num.startswith("-")) else num
        den = f"({den})" if " " in den else den
        return f"{num}/{den}"

    def subs(self, q0: Fraction) -> Fraction:
        den = _peval(self.den, q0)
        if den == 0:
            raise ZeroDivisionError(f"denominator vanishes at q = {q0}")
        return _peval(self.num, q0) / den


def _coerce(x):
    if isinstance(x, RationalFunction):
        return x
    if isinstance(x, int):
        return RationalFunction.from_int(x)
    if isinstance(x, Fraction):
        return RationalFunction.from_fraction(x)
    return NotImplemented


def _from_mono(cn, cd, e):
    """(cn/cd)*q^e with cd > 0, as a canonical RationalFunction."""
    if cn == 0:
        return ZERO
    g = gcd(abs(cn), cd)
    if g > 1:
        cn //= g
        cd //= g
    if e >= 0:
        out = RationalFunction((0,) * e + (cn,), (cd,), _reduced=True)
    else:
        out = RationalFunction((cn,), (0,) * (-e) + (cd,), _reduced=True)
    out._m = (cn, cd, e)
    return out


def _mul_mono(x, m):
    """x * (cn/cd)*q^e for a general canonical x: integer scaling plus a
    shift of the q-power split between numerator and denominator."""
    cn, cd, e = m
    num, den = x.num, x.den
    if cn != 1 or cd != 1:
        g1 = gcd(abs(cn), _pcontent(den))
        g2 = gcd(cd, _pcontent(num))
        cn //= g1
        cd //= g2
        if cn != 1 or g2 > 1:
            num = tuple(c * cn // g2 for c in num)
        if cd != 1 or g1 > 1:
            den = tuple(c * cd // g1 for c in den)
        if den[-1] < 0:
            num, den = _pneg(num), _pneg(den)
    if e == 0:
        return RationalFunction(num, den, _reduced=True)
    tn = next(i for i, c in enumerate(num) if c)
    td = next(i for i, c in enumerate(den) if c)
    net = e + tn - td
    nn, dd = num[tn:], den[td:]
    if net >= 0:
        return RationalFunction((0,) * net + nn, dd, _reduced=True)
    return RationalFunction(nn, (0,) * (-net) + dd, _reduced=True)


def _nnz(p):
    return sum(1 for c in p if c)


def _reduce(num, den):
    num, den = _ptrim(num), _ptrim(den)
    if not den:
        raise ZeroDivisionError("zero denominator")
    if not num:
        return (), (1,)
    tn = next(i for i, c in enumerate(num) if c)
    td = next(i for i, c in enumerate(den) if c)
    t = min(tn, td)
    if t:
        num, den = num[t:], den[t:]
    g = gcd(_pcontent(num), _pcontent(den))
    if g > 1:
        num, den = _pdiv_int(num, g), _pdiv_int(den, g)
    # once the shared power of q and the content are gone, a monomial on
    # either side leaves nothing to cancel; the costly gcd is for the
    # genuinely polynomial case only
    if _nnz(den) > 1 and _nnz(num) > 1:
        h = _pgcd(num, den)
        if len(h) > 1:
            num, den = _pdivexact(num, h), _pdivexact(den, h)
    if den[-1] < 0:
        num, den = _pneg(num), _pneg(den)
    return num, den


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

    @staticmethod
    def from_int(n):
        return RationalFunction.from_int(n)

    @staticmethod
    def q_power(k):
        return RationalFunction.q_power(k)

    @staticmethod
    def is_zero(x):
        return not x

    @staticmethod
    def render(x):
        return x.render()

    def __repr__(self):
        return "SymbolicField()"


class NumericField:
    """Q with q specialised to an exact rational q0 (never a root of unity)."""

    def __init__(self, q0):
        q0 = Fraction(q0)
        _check_q0(q0)
        self.q0 = q0
        self.name = f"q={q0}"
        self.zero = Fraction(0)
        self.one = Fraction(1)

    @staticmethod
    def from_int(n):
        return Fraction(n)

    def q_power(self, k):
        return self.q0 ** k

    @staticmethod
    def is_zero(x):
        return x == 0

    @staticmethod
    def render(x):
        return str(x)

    def __eq__(self, other):
        return isinstance(other, NumericField) and self.q0 == other.q0

    def __hash__(self):
        return hash(self.q0)

    def __repr__(self):
        return f"NumericField({self.q0})"


SYMBOLIC = SymbolicField()
