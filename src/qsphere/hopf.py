"""Hopf-algebra structure maps on the presets and Sweedler tensor calculus.

Coproducts and counits are defined on generators and extended as algebra
maps; the antipode maps each basis word to one signed word in closed form,
with even powers diagonal on every preset's basis.  Tensors are kept fully
expanded over pairs of normal words, so identities are decided by comparing
canonical forms.  leg_product is the one leg-wise product of Sweedler
tensors: word coproducts and Tensor products (and through them the actions
on the BxA cochain carrier) multiply through it; contract_left is the one
contraction f(x_(1)) x_(2), read by sigma, its inverse and convolution.
The symmetry psi of QSL2 swaps a with d and b with c; it is an involutive
anti-algebra map and a coalgebra map, Delta o psi = (psi (x) psi) o Delta,
and maps each normal word to one word times a power of q (_psi_word).  So
a QSL2 word that begins with a takes its coproduct from the cached
coproduct of the d-word psi(w), one q-power product per term.  Every other
word's coproduct is split at its last run of equal letters,
Delta(u) * Delta(g^k), so the preset's _cop_cache holds runs and run-split
prefixes rather than every prefix.  The left coaction (pi (x) id) o Delta
is the coaction-weight grading, z^wt(w) (x) w on a normal word w, and
left_coaction builds no coproduct.  The sphere carries no intrinsic
coproduct; its Sweedler legs are computed through the closed-form
embedding into QSL2, and first legs land back in the sphere (the coideal
property), which b_coproduct certifies on every call.
"""

from __future__ import annotations

from .linalg import axpy
from .ncalg import (LAURENT, PODLES, QSL2, SMASH_Z2, NCPoly, _embed_word,
                    embed_podles, express_in_podles, laurent_exp,
                    laurent_word, qsl2_index, qsl2_weight, qsl2_word)


class Tensor:
    """A canonicalised sum of two-leg tensors over normal words.

    terms maps (left word, right word) to a nonzero coefficient; the legs
    may live in different presets (e.g. LAURENT x QSL2 for coactions).
    """

    __slots__ = ("left_alg", "right_alg", "terms")

    def __init__(self, left_alg, right_alg, terms):
        self.left_alg = left_alg
        self.right_alg = right_alg
        self.terms = terms

    @staticmethod
    def zero(left_alg, right_alg):
        return Tensor(left_alg, right_alg, {})

    @staticmethod
    def of(p, r):
        """Elementary tensor p (x) r of two NCPolys."""
        terms = (((w1, w2), c1 * c2) for w1, c1 in p.terms.items()
                 for w2, c2 in r.terms.items())
        return Tensor(p.alg, r.alg, axpy({}, terms, p.alg.field.is_zero))

    def _check(self, other):
        if self.left_alg is not other.left_alg or self.right_alg is not other.right_alg:
            raise ValueError("tensor leg algebra mismatch")

    def add_term(self, lw, rw, c):
        axpy(self.terms, (((lw, rw), c),), self.left_alg.field.is_zero)

    def __add__(self, other):
        self._check(other)
        return Tensor(self.left_alg, self.right_alg,
                      axpy(dict(self.terms), other.terms.items(),
                           self.left_alg.field.is_zero))

    def __neg__(self):
        return Tensor(self.left_alg, self.right_alg,
                      {k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        if isinstance(c, int):
            c = self.left_alg.field.from_int(c)
        if self.left_alg.field.is_zero(c):
            return Tensor.zero(self.left_alg, self.right_alg)
        return Tensor(self.left_alg, self.right_alg,
                      {k: c * v for k, v in self.terms.items()})

    def __mul__(self, other):
        self._check(other)
        L, R = self.left_alg, self.right_alg
        return Tensor(L, R, leg_product(self.terms, other.terms, L.mul_words,
                                        R.mul_words, L.field))

    def __eq__(self, other):
        return (isinstance(other, Tensor)
                and self.left_alg is other.left_alg
                and self.right_alg is other.right_alg
                and self.terms == other.terms)

    def __bool__(self):
        return bool(self.terms)

    def is_zero(self):
        return not self.terms

    def render_terms(self):
        """The terms as "(c) * left (x) right" strings (no coefficient when
        it is 1), sorted by leg; ["0"] for the zero tensor."""
        L, R = self.left_alg, self.right_alg
        parts = []
        for lw, rw in sorted(self.terms, key=lambda k: (L.sort_key(k[0]),
                                                        R.sort_key(k[1]))):
            cs = L.field.render(self.terms[(lw, rw)])
            body = f"{L.render_word(lw)} (x) {R.render_word(rw)}"
            parts.append(body if cs == "1" else f"({cs}) * {body}")
        return parts or ["0"]

    def render(self):
        return "  +  ".join(self.render_terms())

    def __repr__(self):
        return f"Tensor({self.render()})"


def leg_product(left, right, lmul, rmul, field):
    """The leg-wise product of two sparse tensors {(left word, right word):
    coeff}: sum of c1*c2 * lmul(l1, l2) (x) rmul(r1, r2), left terms outer.

    Multiplications by the field's one object are skipped and cancelled
    keys are dropped, so the result never stores a zero.
    """
    one, zero = field.one, field.is_zero
    out = {}
    # the `is one` skips pay: without them cochain-sym passes took 1.097
    # times the CPU (median of 20 alternating pairs' ratios, slower in 18;
    # sigma-q 1.036, slower in 7 of 12 with peak RSS up in 12; 2-CPU VM)
    for (l1, r1), c1 in left.items():
        for (l2, r2), c2 in right.items():
            c12 = c1 if c2 is one else c2 if c1 is one else c1 * c2
            rterms = rmul(r1, r2).items()
            for lw, cl in lmul(l1, l2).items():
                c = c12 if cl is one else c12 * cl
                for rw, cr in rterms:
                    v = c if cr is one else c * cr
                    k = (lw, rw)
                    acc = out.get(k)
                    if acc is not None:
                        v = acc + v
                        if zero(v):
                            del out[k]
                            continue
                    out[k] = v
    return out


def _extend(p, L, R, legs):
    """The linear extension sum c*legs(w) over the terms c*w of p, as a
    Tensor over L (x) R; legs(w) is a Sweedler dict {(l, r): cc}."""
    out = {}
    for w, c in p.terms.items():
        axpy(out, legs(w).items(), L.field.is_zero, c)
    return Tensor(L, R, out)


def contract_left(terms, legs, f, field):
    """The contraction f(x_(1)) x_(2) of x = sum c*w, given as {w: c},
    against the Sweedler terms {(l, r): cc} of legs(w): the sparse
    {r: sum c*cc*f(l)}, never storing a zero.  f maps left words to
    scalars, e.g. Functional.on_word."""
    is_zero = field.is_zero
    out = {}
    for w, c in terms.items():
        picked = []
        for (lw, rw), cc in legs(w).items():
            v = f(lw)
            # skip zero values: without this skip and Functional.__call__'s,
            # sigma-q passes took 1.101 times the CPU (median of 16 pairs'
            # ratios, slower in 13) and peak RSS rose 0.2 MB in all 16
            if not is_zero(v):
                picked.append((rw, cc * v))
        axpy(out, picked, is_zero, c)
    return out


# ---------------------------------------------------------------------------
# coproducts
# ---------------------------------------------------------------------------

_COP_GEN = {
    # QSL2 generator indices: a=0, d=1, b=2, c=3
    QSL2: {0: [((0,), (0,)), ((2,), (3,))],       # a -> a(x)a + b(x)c
           2: [((0,), (2,)), ((2,), (1,))],       # b -> a(x)b + b(x)d
           3: [((3,), (0,)), ((1,), (3,))],       # c -> c(x)a + d(x)c
           1: [((3,), (2,)), ((1,), (1,))]},      # d -> c(x)b + d(x)d
    LAURENT: {0: [((0,), (0,))], 1: [((1,), (1,))]},
    SMASH_Z2: {0: [((0,), (0,))],                 # x -> x(x)x
               1: [((), (1,)), ((1,), (0,))]},    # y -> 1(x)y + y(x)x
}

def coproduct(p):
    """Sweedler coproduct as a canonical Tensor.

    Sphere elements are embedded into QSL2 first; the result legs then live
    in QSL2 (x) QSL2.
    """
    if p.alg.id == PODLES:
        return coproduct(embed_podles(p))
    if p.alg.id not in _COP_GEN:
        raise ValueError(f"no coproduct on {p.alg.id}")
    return _extend(p, p.alg, p.alg, lambda w: _cop_word(p.alg, w))


def _cop_word(alg, w):
    """Delta(w) of a normal word as a dict {(left word, right word): coeff}
    (cached on the preset)."""
    return alg._cop_cache[w]


def _psi_word(ctx, w):
    """psi on a normal QSL2 word as (image word, e), psi(w) = q^e * image:
    psi(f_{l,m,n}) = q^(l(m+n)) f_{-l,n,m}, the image word taken from
    ctx._word_cache."""
    l, m, n = qsl2_index(w)
    return ctx._word_cache[-l, n, m], l * (m + n)


def _cop_word_of(alg, w):
    # a QSL2 word that begins with a is q^e psi(dw) for the d-word dw with
    # psi(w) = q^e dw, and psi is a coalgebra map, so Delta(w) is q^e times
    # (psi (x) psi) of the cached Delta(dw): one q-power product per term
    # and no recursion, since dw begins with d.  Any other word is split
    # at its last run of equal letters, Delta(w) = Delta(u) * Delta(g^k):
    # the leg_product of two cached coproducts (for a PBW word d^l b^m c^n
    # that is Delta(d^l b^m) * Delta(c^n)).  A single run g^k takes one
    # letter at a time, Delta(g^(k-1)) * Delta(g), so the cache holds the
    # runs and the run-split prefixes, not every prefix
    one = alg.field.one
    if not w:
        return {((), ()): one}
    if alg.id == QSL2 and w[0] == 0:
        ctx = alg.ctx
        dw, e = _psi_word(ctx, w)
        q_scale = ctx.q_scale
        out = {}
        # psi is injective on words, so no two terms collide
        for (lw, rw), c in _cop_word(alg, dw).items():
            pl, el = _psi_word(ctx, lw)
            pr, er = _psi_word(ctx, rw)
            out[pl, pr] = q_scale(c, e + el + er)
        return out
    k = len(w) - 1    # w[k:] is the last run
    while k and w[k - 1] == w[-1]:
        k -= 1
    if k:
        u, last = w[:k], _cop_word(alg, w[k:])
    else:
        u, last = w[:-1], dict.fromkeys(_COP_GEN[alg.id][w[-1]], one)
    return leg_product(_cop_word(alg, u), last, alg.mul_words,
                       alg.mul_words, alg.field)


def b_coproduct_word(B, w):
    """Coproduct of a sphere basis word with first legs re-expressed in the
    sphere: dict {(sphere word, QSL2 word): coeff} (cached on the context).

    First legs of Delta(B) lie in B (x) A; a first leg outside the weight-0
    span would falsify that and raises.
    """
    return B.ctx._bcop_cache[w]


def _b_coproduct_word_of(B, w):
    aw, e = _embed_word(w)
    ctx = B.ctx
    q_scale, express = ctx.q_scale, ctx._express_cache
    out = {}
    for (lw, rw), c in _cop_word(ctx.A, aw).items():
        # _express_word is injective, so no two terms collide; a first leg
        # of nonzero weight raises here and is not stored in the memo
        bw, e1 = express[lw]
        out[(bw, rw)] = q_scale(c, e + e1)
    return out


def _ad_terms_of(B, w):
    # {(w_(1), S(w_(2))): c}, which Bimodule.ad_word multiplies onto its
    # argument; S maps each word to one signed word, so no two terms collide
    return {(lw, sw): c for lw, right in b_coproduct_grouped(B, w).items()
            for sw, c in _antipode_once(right).terms.items()}


def b_coproduct(p):
    """Coproduct of a sphere element as a Tensor with legs PODLES (x) QSL2."""
    if p.alg.id != PODLES:
        raise ValueError("b_coproduct expects a PODLES element")
    return _extend(p, p.alg, p.alg.ctx.A,
                   lambda w: b_coproduct_word(p.alg, w))


def b_coproduct_grouped(B, w):
    """b_coproduct of a basis word grouped by first leg:
    dict {sphere word: NCPoly over QSL2 summing the matching right legs}."""
    A = B.ctx.A
    groups = {}
    for (lw, rw), c in b_coproduct_word(B, w).items():
        groups.setdefault(lw, {})[rw] = c
    return {lw: NCPoly(A, t) for lw, t in groups.items()}


# ---------------------------------------------------------------------------
# counit and antipode
# ---------------------------------------------------------------------------

_COUNIT_KILL = {QSL2: {2, 3}, PODLES: {0, 1, 2}, LAURENT: set(), SMASH_Z2: {1}}


def counit(p):
    """The counit, an algebra map killing b, c (and all sphere generators)."""
    kill = _COUNIT_KILL[p.alg.id]
    out = p.alg.field.zero
    for w, c in p.terms.items():
        if not any(g in kill for g in w):
            out = out + c
    return out


# S^2 is diagonal on basis words: S^2(w) = q^(sum of the exponents of w's
# letters) w, from S^2(b) = q^-2 b, S^2(c) = q^2 c on QSL2 and
# S^2(y0^i y1^j) = q^-2j y0^i y1^j, S^2(y0^i y-1^j) = q^2j y0^i y-1^j on the
# sphere; on the smash product S^2(y) = -y
_S2_EXP = {QSL2: (0, 0, -2, 2), LAURENT: (0, 0), PODLES: (0, -2, 2),
           SMASH_Z2: None}


def antipode(p, power=1):
    """S^power, an anti-algebra map for odd power, algebra map for even.

    Any integer power is accepted (even powers are diagonal on basis words
    and odd powers are S or S^-1 composed with them).  Sphere elements only
    admit even powers: S(B) is not contained in B, but S^2(B) = B.
    """
    if not isinstance(power, int):
        raise ValueError(f"antipode power must be an integer, got {power!r}")
    if p.alg.id == PODLES and power % 2 != 0:
        raise ValueError("odd antipode powers do not preserve the sphere")
    # power = 2*m + odd with odd in {0, 1}; S^-1 = S^-2 o S
    odd = power % 2
    m = (power - odd) // 2
    out = _antipode_even(p, m)
    if odd:
        out = _antipode_once(out)
    return out


def _antipode_even(p, m):
    if m == 0:
        return p
    alg = p.alg
    if alg.id == SMASH_Z2:
        # S^2: x -> x, y -> -y
        terms = {}
        for w, c in p.terms.items():
            n_y = sum(1 for g in w if g == 1)
            terms[w] = c if (n_y * m) % 2 == 0 else -c
        return NCPoly(alg, terms)
    exps = _S2_EXP[alg.id]
    q_scale = alg.ctx.q_scale
    terms = {}
    for w, c in p.terms.items():
        terms[w] = q_scale(c, sum(exps[g] for g in w) * m)
    return NCPoly(alg, terms)


def _s_word_qsl2(w):
    # S(f_{l,m,n}) = (-1)^(m+n) q^(n-m+l(m+n)) f_{-l,m,n}
    l, m, n = qsl2_index(w)
    return qsl2_word(-l, m, n), (m + n) % 2, n - m + l * (m + n)


def _s_word_laurent(w):
    # S(z^k) = z^-k
    return laurent_word(-laurent_exp(w)), 0, 0


def _s_word_smash(w):
    # S(x^e y^i) = (xy)^i x^e = (-1)^(i//2 + i*e) x^((i+e) % 2) y^i,
    # from S(x) = x, S(y) = xy and (xy)^2 = -y^2
    e = 1 if w and w[0] == 0 else 0
    i = len(w) - e
    return (0,) * ((i + e) % 2) + (1,) * i, (i // 2 + i * e) % 2, 0


# S on a basis word: (image word, 1 if the sign is negative, q-exponent)
_S_WORD = {QSL2: _s_word_qsl2, LAURENT: _s_word_laurent,
           SMASH_Z2: _s_word_smash}


def _antipode_once(p):
    alg = p.alg
    s_word = _S_WORD.get(alg.id)
    if s_word is None:
        raise ValueError(f"no antipode on {alg.id}")
    q_scale = alg.ctx.q_scale
    terms = {}
    for w, c in p.terms.items():
        sw, neg, e = s_word(w)
        c = q_scale(c, e)
        terms[sw] = -c if neg else c
    return NCPoly(alg, terms)


# ---------------------------------------------------------------------------
# the quotient pi: QSL2 -> LAURENT and the left coaction
# ---------------------------------------------------------------------------

def _pi_word(w):
    """pi on a normal QSL2 word: the Laurent word z^l of a^l or d^-l, and
    None for a word that pi kills (one holding b or c)."""
    l, m, n = qsl2_index(w)
    return laurent_word(l) if m == 0 and n == 0 else None


def project_pi(p):
    """pi(a)=z, pi(d)=z^-1, pi(b)=pi(c)=0; on basis words a Kronecker delta."""
    if p.alg.id != QSL2:
        raise ValueError("project_pi expects a QSL2 element")
    # pi is injective on the words it keeps, so no two terms collide
    return NCPoly(p.alg.ctx.C, {zw: c for w, c in p.terms.items()
                                if (zw := _pi_word(w)) is not None})


_coact_weight = qsl2_weight().of_word


def left_coaction(p):
    """(pi (x) id) o Delta, a Tensor with legs LAURENT (x) QSL2.

    It is an algebra map sending each generator g to z^wt(g) (x) g with
    coefficient one, so on a normal word w, the product of its letters, it
    is z^wt(w) (x) w, wt(f_{l,m,n}) = l + m - n; the full coproduct stays
    the tests' independent route.
    """
    if p.alg.id != QSL2:
        raise ValueError("left_coaction expects a QSL2 element")
    return Tensor(p.alg.ctx.C, p.alg,
                  {(laurent_word(_coact_weight(w)), w): c
                   for w, c in p.terms.items()})


def coideal_membership(p):
    """True iff left_coaction(p) = 1 (x) p, i.e. p lies in the sphere."""
    want = Tensor(p.alg.ctx.C, p.alg, {((), w): c for w, c in p.terms.items()})
    return left_coaction(p) == want


# ---------------------------------------------------------------------------
# the conjugation intertwiner rho on B (x) A
# ---------------------------------------------------------------------------

def rho(t, inverse=False):
    """rho(b (x) a) = b_(1) (x) a*S^2(b_(2)); inverse uses S instead of S^2."""
    if t.left_alg.id != PODLES or t.right_alg.id != QSL2:
        raise ValueError("rho acts on PODLES (x) QSL2 tensors")
    B, A = t.left_alg, t.right_alg
    out = Tensor.zero(B, A)
    for (bw, aw), c in t.terms.items():
        for b1, right in b_coproduct_grouped(B, bw).items():
            img = antipode(right, 1 if inverse else 2)
            for rw, rc in (NCPoly(A, {aw: A.field.one}) * img).terms.items():
                out.add_term(b1, rw, c * rc)
    return out


def rho_check(x, b, a, y, z):
    """Element-level check of the intertwining law

        rho(x_(1)*b*y (x) z*a*S(x_(2))) = x * rho(b (x) a) <| (y (x) z)

    with x, b sphere elements, a, z in QSL2 and y in QSL2 but lying in the
    sphere (it multiplies b on the right inside B).
    """
    B = x.alg
    A = a.alg
    y_b = express_in_podles(y) if y.alg.id == QSL2 else y
    # left-hand side
    lhs = Tensor.zero(B, A)
    for xw, xc in x.terms.items():
        for x1, right in b_coproduct_grouped(B, xw).items():
            left_leg = NCPoly(B, {x1: B.field.one}) * b * y_b
            right_leg = z * a * _antipode_once(right)
            lhs = lhs + Tensor.of(left_leg, right_leg).scale(xc)
    lhs = rho(lhs)
    # right-hand side
    rba = rho(Tensor.of(b, a))
    rhs = Tensor.zero(B, A)
    for yw, yc in y_b.terms.items():
        for y1, yright in b_coproduct_grouped(B, yw).items():
            s2 = antipode(yright, 2)
            for (uw, vw), c in rba.terms.items():
                u = x * NCPoly(B, {uw: B.field.one}) * NCPoly(B, {y1: B.field.one})
                v = z * NCPoly(A, {vw: A.field.one}) * s2
                rhs = rhs + Tensor.of(u, v).scale(yc * c)
    return lhs == rhs
