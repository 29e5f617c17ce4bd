"""Hochschild cochain machinery for the quantum sphere.

Cochains are sparse multilinear maps: a finite table on tuples of sphere
basis monomials, zero outside the declared support, extended by
multilinearity through normal forms.  The coboundaries (standard b and the
adjoint-twisted d), the conjugating map xi and the character action all
return lazily evaluated cochains, so composites like b(xi(phi)) are exact
everywhere; identity checks compare values on explicit argument windows.
xi enumerates the first legs of its arguments' coproducts the same way for
every cochain, table-backed or lazy.

Carriers: 'B' (the sphere as a bimodule over itself), 'BxA' (the sphere
tensor the full quantized coordinate ring, left action on the first leg,
right action through the second) and 'A_twist' (the coordinate ring with
the right action twisted by an even antipode power, which carries the
twisted family omega(n, m) of duality).  The twisted coboundary and xi
need the right A-action and are not defined on 'B'.  h0_twisted_center
solves for the twisted centres of that family from rows read off cached
products with single generator words: each sphere generator embeds as one
word, which an even antipode power only rescales.  It poses the full
system, block by generator; the y0 rows come first and are single entries,
so they are presolved and pin most columns before the y-1 and y1 rows are
built.

character_action takes a torus character X_t (duality.Functional.char_A),
which acts on basis words by weight, X_t.w = w_(1) X_t(w_(2)) = t^wt(w) w;
that coproduct route is the tests' oracle.  sigma_map takes a sphere
character the same way, as a duality.Functional.char_B.
"""

from __future__ import annotations

import itertools

# unused _cop_word: perfbench's tracer test checks that it patches this name
from .hopf import (Tensor, _cop_word, antipode, b_coproduct_grouped,
                   b_coproduct_word, contract_left, leg_product)
from .linalg import axpy, kernel
from .ncalg import (PODLES, QSL2, Memo, NCPoly, embed_podles,
                    express_in_podles, filtration_basis, get_algebra,
                    podles_index, qsl2_index, qsl2_word)
from .scalars import SYMBOLIC


class Bimodule:
    """Coefficient bimodule descriptor for cochains.

    kinds: 'B' (the sphere over itself), 'BxA' (sphere (x) coordinate
    ring, actions leg-wise), and 'A_twist' (the coordinate ring with the
    right action twisted by S^(2*twist); twist is an int, 0 on the others).
    """

    def __init__(self, kind, field=SYMBOLIC, twist=0):
        if kind not in ("B", "BxA", "A_twist"):
            raise ValueError(f"unsupported carrier {kind!r}")
        if type(twist) is not int or twist and kind != "A_twist":  # not bool
            raise ValueError(f"twist must be an int, and 0 unless the carrier "
                             f"is A_twist; got {twist!r} on {kind}")
        self.kind = kind
        self.field = field
        self.twist = twist
        self.B = get_algebra(PODLES, field)
        self.A = self.B.ctx.A

    def zero(self):
        if self.kind == "B":
            return self.B.zero()
        if self.kind == "A_twist":
            return self.A.zero()
        return Tensor.zero(self.B, self.A)

    def is_zero(self, v):
        return v.is_zero()

    def left_word(self, w, v):
        """Left action of the sphere basis monomial w."""
        if self.kind == "BxA":
            return Tensor(self.B, self.A, {(w, ()): self.field.one}) * v
        m = NCPoly(self.B, {w: self.field.one})
        return (m if self.kind == "B" else embed_podles(m)) * v

    def right_word(self, v, w):
        """Right action of the sphere basis monomial w."""
        if self.kind == "B":
            return v * NCPoly(self.B, {w: self.field.one})
        return self.right_A(v, embed_podles(NCPoly(self.B, {w: self.field.one})))

    def right_A(self, v, a):
        """Right action of a QSL2 element (not defined on the 'B' carrier)."""
        if self.kind == "A_twist":
            return v * antipode(a, 2 * self.twist)
        if self.kind != "BxA":
            raise ValueError("right A-action needs the BxA or A_twist carrier")
        return v * Tensor(self.B, self.A,
                          {((), aw): c for aw, c in a.terms.items()})

    def ad_word(self, w, v):
        """Adjoint action ad(w)v = w_(1) v S(w_(2)), from ctx._ad_cache."""
        if self.kind == "B":
            raise ValueError("adjoint action needs a right A-action")
        B, A, terms = self.B, self.A, self.B.ctx._ad_cache[w]
        if self.kind == "BxA":    # right legs multiply as v_A * S(w_(2))
            return Tensor(B, A, leg_product(terms, v.terms, B.mul_words,
                          lambda r1, r2: A.mul_words(r2, r1), self.field))
        return sum((self.right_A(self.left_word(lw, v), NCPoly(A, {sw: c}))
                    for (lw, sw), c in terms.items()), self.zero())

    def random_value(self, rng):
        pool_b = filtration_basis(self.B, 2)
        pool_a = filtration_basis(self.A, 2)
        coeffs = [self.field.q_power(k) for k in (-2, -1, 0, 1, 2)]
        ints = [self.field.from_int(k) for k in (-2, -1, 1, 2)]
        out = self.zero()
        for _ in range(2):
            c = rng.choice(coeffs) * rng.choice(ints)
            if self.kind == "BxA":
                out.add_term(rng.choice(pool_b), rng.choice(pool_a), c)
            else:
                pool = pool_b if self.kind == "B" else pool_a
                out = out + NCPoly(out.alg, {rng.choice(pool): c})
        return out


# ---------------------------------------------------------------------------
# cochains
# ---------------------------------------------------------------------------

class Cochain:
    """Concrete sparse cochain: table on tuples of sphere basis words."""

    def __init__(self, degree, carrier, table):
        self.degree = degree
        self.carrier = carrier
        self.table = {k: v for k, v in table.items() if not carrier.is_zero(v)}

    def eval_words(self, words):
        v = self.table.get(tuple(words))
        return self.carrier.zero() if v is None else v


class LazyCochain:
    """Cochain defined by a formula; values memoised per argument tuple."""

    def __init__(self, degree, carrier, fn):
        self.degree = degree
        self.carrier = carrier
        self._memo = Memo(fn)

    def eval_words(self, words):
        return self._memo[tuple(words)]


def eval_cochain(phi, args):
    """Evaluate a cochain-like at NCPoly arguments by multilinearity."""
    slots = tuple(a.terms if isinstance(a, NCPoly) else tuple(a) for a in args)
    return eval_multi(phi, slots)


def eval_multi(phi, slots):
    """Evaluate phi at a tuple of slots, each a basis word or a sparse
    combination {word: coeff}, expanding multilinearly."""
    if not any(isinstance(s, dict) for s in slots):
        return phi.eval_words(tuple(slots))
    out = phi.carrier.zero()
    _add_multi(out.terms, phi, slots)
    return out


def _add(out, v, is_zero, c=None, negate=False):
    """Add c * v (v when c is None), negated when negate is set, to the
    sparse dict out in place; v is a carrier value."""
    items = v.terms.items()
    if negate:
        if c is None:
            items = ((k, -x) for k, x in items)
        else:
            c = -c
    axpy(out, items, is_zero, c)


def _add_multi(out, phi, slots, negate=False):
    """Add phi at slots as in eval_multi, negated when negate is set, to the
    sparse dict out in place, one term of the expansion at a time."""
    is_zero = phi.carrier.field.is_zero
    expand = [pos for pos, s in enumerate(slots) if isinstance(s, dict)]
    args = list(slots)
    for combo in itertools.product(*[slots[pos].items() for pos in expand]):
        coeff = None
        for pos, (w, c) in zip(expand, combo):
            args[pos] = w
            coeff = c if coeff is None else coeff * c
        _add(out, phi.eval_words(tuple(args)), is_zero, coeff, negate)


def _add_inner_faces(phi, ws, out):
    """Add sum_{i=1..n} (-1)^i phi(b^1, ..., b^i b^(i+1), ..., b^(n+1)), the
    faces both coboundaries share, to the sparse dict out in order of i."""
    mul = phi.carrier.B.mul_words
    for i in range(1, phi.degree + 1):
        merged = mul(ws[i - 1], ws[i])
        _add_multi(out, phi, ws[:i - 1] + (merged,) + ws[i + 1:], i % 2 == 1)


# The coboundaries add every term into the terms of their leading term's
# value, which a carrier action returns as a new object.

def hochschild_b(phi):
    """The standard Hochschild coboundary of phi (degree n -> n+1)."""
    n = phi.degree
    M = phi.carrier

    def fn(ws):
        val = M.left_word(ws[0], phi.eval_words(ws[1:]))
        _add_inner_faces(phi, ws, val.terms)
        _add(val.terms, M.right_word(phi.eval_words(ws[:n]), ws[n]),
             M.field.is_zero, negate=n % 2 == 0)    # sign (-1)^(n+1)
        return val

    return LazyCochain(n + 1, M, fn)


def twisted_d(phi):
    """The adjoint-twisted coboundary: leading term ad(b^1), trailing term
    scaled by the counit of the last argument (BxA carrier only)."""
    n = phi.degree
    M = phi.carrier
    if M.kind == "B":
        raise ValueError("the twisted coboundary needs a right A-action")

    def fn(ws):
        val = M.ad_word(ws[0], phi.eval_words(ws[1:]))
        _add_inner_faces(phi, ws, val.terms)
        if ws[n] == ():  # counit of a basis monomial is its constant part
            _add(val.terms, phi.eval_words(ws[:n]), M.field.is_zero,
                 negate=n % 2 == 0)
        return val

    return LazyCochain(n + 1, M, fn)


def xi(phi, inverse=False):
    """The conjugating isomorphism

        xi(phi)(b^1,...,b^n) = phi(b^1_(1),...,b^n_(1)) * (b^1_(2)...b^n_(2))

    with the inverse applying the antipode to the product of second legs.
    Degree 0 cochains are fixed (empty product of legs).
    """
    M = phi.carrier
    if M.kind == "B":
        raise ValueError("xi needs a right A-action")

    def fn(ws):
        groups = [b_coproduct_grouped(M.B, w) for w in ws]
        out = M.zero()
        for legs in itertools.product(*groups):
            val = phi.eval_words(legs)
            if M.is_zero(val):
                continue
            prod = M.A.one()
            for g, lw in zip(groups, legs):
                prod = prod * g[lw]
            if inverse:
                prod = antipode(prod, 1)
            _add(out.terms, M.right_A(val, prod), M.field.is_zero)
        return out

    return LazyCochain(phi.degree, M, fn)


# ---------------------------------------------------------------------------
# the action of torus characters on cochains
# ---------------------------------------------------------------------------

def _sphere_weight(w):
    return -2 * podles_index(w)[1]      # y0^i y+-1^j, j signed


def _qsl2_weight(w):
    l, m, n = qsl2_index(w)             # a^l b^m c^n, l = -k for d^k
    return l - m + n


class CharacterFunctional:
    """A torus character X_t (duality.Functional.char_A) acting on basis
    words by weight, X_t.w = t^wt(w) w (the coproduct route is the tests'
    oracle), t^k read as X(a^k) or X(d^-k); on_word, on_poly are X's own."""

    def __init__(self, X):
        if X.t is None:
            raise ValueError("the character action needs a torus "
                             "character (char_A)")
        self.X = X

    def on_word(self, w):
        return self.X.on_word(w)

    def on_poly(self, p):
        return self.X(p)

    def act_sphere_word(self, w):
        """X.m = t^wt(m) m for a sphere basis word, as {word: coeff}."""
        return {w: self.on_word(qsl2_word(_sphere_weight(w), 0, 0))}

    def act_qsl2_word(self, w):
        """X.a = t^wt(a) a for a QSL2 basis word, as {word: coeff}."""
        return {w: self.on_word(qsl2_word(_qsl2_weight(w), 0, 0))}


def character_action(X, phi):
    """The action of a character X on a BxA-valued cochain:

        (X phi)(b^1,...,b^n) =
            (S^2(X) (x) X) |> phi(S(X).b^1, ..., S(X).b^n)

    specialised to group-like functionals, whose Sweedler legs all equal X.
    X is a torus character (duality.Functional.char_A), for which
    S^2(X) = X o S^2 = X; any other functional raises ValueError.
    """
    M = phi.carrier
    if M.kind != "BxA":
        raise ValueError("character action needs the BxA carrier")
    X = CharacterFunctional(X)

    def fn(ws):
        shift = sum(map(_sphere_weight, ws))    # S(X).b = t^-wt(b) b
        return Tensor(M.B, M.A, {(lw, rw): c * X.on_word(qsl2_word(
            _sphere_weight(lw) + _qsl2_weight(rw) - shift, 0, 0))
            for (lw, rw), c in phi.eval_words(ws).terms.items()})

    return LazyCochain(phi.degree, M, fn)


# ---------------------------------------------------------------------------
# comparisons and random cochains
# ---------------------------------------------------------------------------

def cochains_equal(c1, c2, tuples):
    """Exact equality of two cochain-likes on the given argument tuples."""
    for ws in tuples:
        if c1.eval_words(ws) != c2.eval_words(ws):
            return False
    return True


def argument_window(degree, level, field=SYMBOLIC):
    """All degree-tuples of sphere basis words of length <= level."""
    pool = filtration_basis(get_algebra(PODLES, field), level)
    return list(itertools.product(pool, repeat=degree))


def random_cochain(rng, degree, carrier, support=3, entries=4):
    """A sparse random cochain with the given support filtration."""
    pool = filtration_basis(carrier.B, support)
    table = {}
    for _ in range(entries):
        key = tuple(rng.choice(pool) for _ in range(degree))
        table[key] = carrier.random_value(rng)
    return Cochain(degree, carrier, table)


def random_argument_tuples(rng, degree, level, count, field=SYMBOLIC):
    pool = filtration_basis(get_algebra(PODLES, field), level)
    return [tuple(rng.choice(pool) for _ in range(degree)) for _ in range(count)]


# ---------------------------------------------------------------------------
# twisted centers: degree-0 cohomology of the dualising family
# ---------------------------------------------------------------------------

def weight_basis_words(i, N):
    """QSL2 normal words of coaction weight i and length <= N."""
    words = []
    for l in range(-N, N + 1):
        for m in range(N - abs(l) + 1):
            n = l + m - i
            if 0 <= n <= N - abs(l) - m:
                words.append(qsl2_word(l, m, n))
    return words


def h0_twisted_center(i, j, N, field=SYMBOLIC):
    """Basis of {f in omega_{i,j} truncated at length N :
    y_k f = f S^(2j)(y_k) for k in {-1,0,1}}, by sparse exact elimination.

    The solver poses the full truncated system; it does not presuppose the
    reduction to the degree-0 part, which instead falls out of the
    y0-equation.  That block goes first: y0 w and w y0 are one word each,
    so each y0 row is one entry, and `kernel` pins its column to zero
    before it builds the y-1 and y1 rows of the columns left free.
    """
    if N < 2 * j + abs(i) + 2:
        raise ValueError(f"need N >= {2 * j + abs(i) + 2} for (i, j) = ({i}, {j})")
    A = get_algebra(QSL2, field)
    B = A.ctx.B
    mul, zero = A.mul_words, field.is_zero

    def block(k, name):
        # the generator embeds as c*g for one word g, and S^(2j)(c*g) =
        # c'*g, so the block of column w is c*(g*w) - c'*(w*g), keyed (k, v)
        gen = embed_podles(B.gen(name))
        (g, c), = gen.terms.items()
        minus_c2 = -antipode(gen, 2 * j).terms[g]
        return lambda w: axpy(
            axpy({}, (((k, v), x) for v, x in mul(g, w).items()), zero, c),
            (((k, v), x) for v, x in mul(w, g).items()), zero, minus_c2)

    blocks = [block(k, name) for k, name in ((1, "y0"), (0, "y-1"), (2, "y1"))]
    return [NCPoly(A, vec)
            for vec in kernel(field, weight_basis_words(i, N), *blocks)]


def h0_expected(i, j):
    """Dimension and representative word predicted by the closed form:
    one-dimensional with representative b^m c^n (m - n = i, m + n = 2j)
    iff i = 2(m - j) for some 0 <= m <= 2j."""
    if i % 2 == 0 and abs(i) <= 2 * j:
        m = j + i // 2
        n = j - i // 2
        return 1, qsl2_word(0, m, n)
    return 0, None


# ---------------------------------------------------------------------------
# the modular-type automorphism sigma
# ---------------------------------------------------------------------------

def validate_character_b(chi, field=SYMBOLIC):
    """chi: values on (y-1, y0, y1); must respect every rewriting rule of
    the sphere, chi(g1)*chi(g2) = sum c*chi(w) for g1 g2 -> sum c*w."""
    B = get_algebra(PODLES, field)
    vals = dict(zip((B.gen_index[g] for g in ("y-1", "y0", "y1")), chi))
    for (g1, g2), rhs in B.rules.items():
        residue = vals[g1] * vals[g2]
        for c, w in rhs:
            for g in w:
                c = c * vals[g]
            residue = residue - c
        if not field.is_zero(residue):
            raise ValueError("values do not define an algebra map on the "
                             "sphere")


def sigma_map(p, chi=None):
    """sigma(x) = chi(x_(1)) S^2(x_(2)) = S^2(chi(x_(1)) x_(2)), an algebra
    map from the sphere into the coordinate ring, for a sphere character
    chi over p's field built once by duality.Functional.char_B.

    For the counit (chi None) this is S^2 restricted to the sphere, scaling
    the basis ray e_{ij} by q^(-2j), and the result is returned over
    PODLES.  Other characters can leave the sphere (already sigma_chi(y1)
    picks up a d^2 term when chi(y1) != 0); the result is then returned
    over QSL2.
    """
    B = p.alg
    if B.id != PODLES or chi is not None and chi.alg is not B:
        raise ValueError("sigma_map expects a PODLES element and a "
                         "character of the sphere over its field")
    zero, one = B.field.zero, B.field.one    # the counit is 1 on () only
    f = chi.on_word if chi is not None else lambda w: zero if w else one
    out = antipode(NCPoly(B.ctx.A, contract_left(
        p.terms, lambda w: b_coproduct_word(B, w), f, B.field)), 2)
    try:
        return express_in_podles(out)
    except ValueError:
        return out
