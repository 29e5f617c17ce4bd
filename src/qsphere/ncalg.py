"""Noncommutative polynomial arithmetic in the preset algebras.

Four presets are built in:

  QSL2      the quantized coordinate ring of SL(2): generators a, b, c, d
  PODLES    the standard Podles quantum sphere: generators y0, y1, y-1
  LAURENT   Laurent polynomials k[z, z^-1]
  SMASH_Z2  the smash product k[y] x Z_2: generators x, y with x^2=1, xy=-yx

Elements are kept in normal form: words over the generators rewritten until
no rule applies, which lands every element on its ordered-monomial basis
(a^l b^m c^n and d^k b^m c^n for QSL2, y0^i y1^j and y0^i y-1^j for the
sphere, grouplike monomials for LAURENT, x^e y^i for the smash product).
The rewriting systems are small and confluence is established by property
testing rather than a completion proof.  QSL2 products of normal words are
computed in closed form instead (q-commutation and the q-binomial
expansion of a^k d^k and d^k a^k, see _qsl2_product); rewriting stays the
independent oracle for them and computes the products of the other presets.
The embedding of the sphere into QSL2 and its inverse map each normal word
to one normal word times a power of q in closed form (_embed_word).

Words are tuples of generator indices; polynomials are sparse dicts mapping
normal words to nonzero field coefficients.  Bases are plain sequences of
normal words (filtration_basis returns a cached tuple).

One Context per coefficient field value holds the four presets (ctx.A,
ctx.B, ctx.C, ctx.Z2) and every cache of computed structure (listed in
the Context docstring); each preset reaches its companions through
preset.ctx, and get_algebra is the one lookup from a field to them.
"""

from __future__ import annotations

import re
from functools import partial

from .linalg import axpy
from .scalars import SYMBOLIC, q_bracket, signed_join

QSL2 = "QSL2"
PODLES = "PODLES"
LAURENT = "LAURENT"
SMASH_Z2 = "SMASH_Z2"


class Memo(dict):
    """A cache that fills a missing key with fn(key), stores the value and
    returns it; seed entries are never recomputed."""

    __slots__ = ("fn",)

    def __init__(self, fn, seed=()):
        super().__init__(seed)
        self.fn = fn

    def __missing__(self, key):
        value = self[key] = self.fn(key)
        return value


class Grading:
    """Integer degree assignment per generator, extended additively."""

    def __init__(self, name, degrees):
        self.name = name
        self.degrees = tuple(degrees)

    def of_word(self, word):
        return sum(self.degrees[g] for g in word)


class AlgebraPreset:
    """One of the built-in algebras, bound to a coefficient field.

    rules maps a 2-letter left-hand word to its normal replacement, a list
    of (coefficient, word) pairs.  Rewriting any occurrence of any left-hand
    side terminates and (by testing) is confluent, so normal forms do not
    depend on the reduction strategy.  Its caches are listed with the
    Context's.
    """

    def __init__(self, ctx, alg_id, gens, rules, sort_ranks):
        self.ctx = ctx
        self.id = alg_id
        self.gens = tuple(gens)
        self.field = ctx.field
        self.rules = rules
        self.sort_ranks = tuple(sort_ranks)
        self.gen_index = {g: i for i, g in enumerate(self.gens)}
        from .hopf import _cop_word_of
        self._mul_cache = Memo(partial(_qsl2_product, ctx) if alg_id == QSL2
                               else lambda k: self.reduce_terms(
                                   {k[0] + k[1]: self.field.one}))
        self._cop_cache = Memo(partial(_cop_word_of, self))
        self._basis_cache = Memo(partial(_filtration_words, self))

    def __repr__(self):
        return f"AlgebraPreset({self.id}, field={self.field.name})"

    # -- rewriting -----------------------------------------------------------

    def reduce_terms(self, terms, strategy="leftmost"):
        """Rewrite a dict {word: coeff} to normal form.

        strategy picks the redex position ('leftmost' or 'rightmost'); the
        result must not depend on it, which the confluence check exercises.
        """
        rules = self.rules
        irreducible = []
        stack = list(terms.items())
        while stack:
            word, coeff = stack.pop()
            pos = -1
            rng = range(len(word) - 1)
            if strategy == "rightmost":
                rng = range(len(word) - 2, -1, -1)
            for i in rng:
                if (word[i], word[i + 1]) in rules:
                    pos = i
                    break
            if pos < 0:
                irreducible.append((word, coeff))
                continue
            head, tail = word[:pos], word[pos + 2:]
            for rc, rw in rules[(word[pos], word[pos + 1])]:
                stack.append((head + rw + tail, coeff * rc))
        return axpy({}, irreducible, self.field.is_zero)

    def mul_words(self, w1, w2):
        """Normal form of the concatenation of two normal words (cached):
        in closed form for QSL2, by rewriting for the other presets."""
        return self._mul_cache[w1, w2]

    # -- element constructors --------------------------------------------------

    def poly(self, terms):
        return NCPoly(self, axpy({}, terms.items(), self.field.is_zero))

    def zero(self):
        return NCPoly(self, {})

    def one(self):
        return NCPoly(self, {(): self.field.one})

    def gen(self, name):
        if name not in self.gen_index:
            raise ValueError(f"unknown generator {name!r} in {self.id}")
        return NCPoly(self, {(self.gen_index[name],): self.field.one})

    def monomial(self, word):
        return NCPoly(self, {tuple(word): self.field.one})

    def scalar(self, c):
        if isinstance(c, int):
            c = self.field.from_int(c)
        return self.poly({(): c})

    def sort_key(self, word):
        return (len(word), tuple(self.sort_ranks[g] for g in word))

    def render_word(self, word):
        if not word:
            return "1"
        parts = []
        i = 0
        while i < len(word):
            j = i
            while j < len(word) and word[j] == word[i]:
                j += 1
            name = self.gens[word[i]]
            parts.append(name if j - i == 1 else f"{name}^{j - i}")
            i = j
        return "*".join(parts)


class NCPoly:
    """Sparse normal-form combination {normal word: nonzero coefficient}."""

    __slots__ = ("alg", "terms")

    def __init__(self, alg, terms):
        self.alg = alg
        self.terms = terms

    # -- ring operations -----------------------------------------------------

    def _check(self, other):
        if self.alg is not other.alg:
            raise ValueError(
                f"algebra mismatch: {self.alg.id} vs {other.alg.id}")

    def __add__(self, other):
        self._check(other)
        return NCPoly(self.alg, axpy(dict(self.terms), other.terms.items(),
                                     self.alg.field.is_zero))

    def __neg__(self):
        return NCPoly(self.alg, {w: -c for w, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, NCPoly):
            return self.scale(other)
        self._check(other)
        out = {}
        zero = self.alg.field.is_zero
        mul = self.alg.mul_words
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                axpy(out, mul(w1, w2).items(), zero, c1 * c2)
        return NCPoly(self.alg, out)

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, c):
        if isinstance(c, int):
            c = self.alg.field.from_int(c)
        if self.alg.field.is_zero(c):
            return NCPoly(self.alg, {})
        return NCPoly(self.alg, {w: c * v for w, v in self.terms.items()})

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            raise ValueError(
                f"exponent must be a nonnegative integer, got {k!r}")
        # repeated squaring: k sequential products made a^k quadratic in
        # time and memory, and stored k product-memo entries
        out, base = self.alg.one(), self
        while k:
            if k & 1:
                out = out * base
            k >>= 1
            if k:
                base = base * base
        return out

    def __eq__(self, other):
        return (isinstance(other, NCPoly) and self.alg is other.alg
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.alg.id, frozenset(self.terms.items())))

    def __bool__(self):
        return bool(self.terms)

    def is_zero(self):
        return not self.terms

    def length(self):
        """Largest word length in the support (filtration level)."""
        return max((len(w) for w in self.terms), default=0)

    def render(self):
        field = self.alg.field
        parts = []
        for word in sorted(self.terms, key=self.alg.sort_key, reverse=True):
            c = self.terms[word]
            cs = field.render(c)
            ms = self.alg.render_word(word)
            neg = cs.startswith("-") and _is_simple(cs[1:])
            if neg:
                cs = cs[1:]
            if ms == "1":
                body = cs if _is_simple(cs) else f"({cs})"
            elif cs == "1":
                body = ms
            else:
                if not _is_simple(cs):
                    cs = f"({cs})"
                body = f"{cs}*{ms}"
            parts.append(("-" if neg else "+", body))
        return signed_join(parts)

    def __repr__(self):
        return f"NCPoly[{self.alg.id}]({self.render()})"


def _is_simple(cs):
    # coefficient strings that can sit in front of '*' without parentheses
    return re.fullmatch(r"\d+(/\d+)?|q(\^-?\d+)?|\d+\*q(\^-?\d+)?", cs) is not None


# ---------------------------------------------------------------------------
# preset construction
# ---------------------------------------------------------------------------

class Context:
    """The four presets over one coefficient field: A = QSL2, B = PODLES,
    C = LAURENT and Z2 = SMASH_Z2, each pointing back here through .ctx.

    Every cache of a field is a Memo, unbounded and process-lifetime, and
    is filled by one function:

      preset._mul_cache    (w1, w2) -> w1*w2: _qsl2_product or rewriting
      preset._cop_cache    word -> its coproduct: hopf._cop_word_of
      preset._basis_cache  N -> filtration basis: _filtration_words
      ctx._word_cache      (l, m, n) -> the QSL2 word f_{lmn}: qsl2_word,
                           read by _qsl2_product and hopf._psi_word, so
                           equal product and psi words are one tuple
      ctx._express_cache   QSL2 word -> (sphere word, e): _express_word,
                           read by hopf._b_coproduct_word_of; a word of
                           nonzero weight raises and is not stored
      ctx._bcop_cache      sphere word -> hopf._b_coproduct_word_of
      ctx._ad_cache        sphere word -> w_(1) (x) S(w_(2)): hopf._ad_terms_of
      ctx._nu_cache        L -> echelon of B*z-1 in F_L, extending level
                           L-1's rows: koszul._nu_echelon_of
      ctx._nu_oracle_cache sphere word -> nu of it by rewriting:
                           koszul._nu_oracle_of
      ctx.q_power          e -> q^e, seeded with q^0 = the field's one
      ctx.gauss_row        k -> Gaussian binomials [k r] in q^2, r = 0..k

    hopf.leg_product skips multiplications by the field's own one object,
    so the places that build a one hand on that object: q_power[0], the
    end entries of each gauss_row, the generators' Sweedler terms (hopf),
    _qsl2_product, which passes those on unmultiplied, and Echelon's pivot
    entries.  q_scale returns c * q^e as computed, even when it equals one:
    comparing every scaled coefficient with one cost more than the skips
    it fed.
    """

    def __init__(self, field):
        from .hopf import _ad_terms_of, _b_coproduct_word_of
        from .koszul import _nu_echelon_of, _nu_oracle_of
        self.field = field
        one = field.one
        qp = field.q_power
        # generators a=0 d=1 b=2 c=3; normal words are a^l b^m c^n and
        # d^k b^m c^n.  Putting a and d in front makes them adjacent in any
        # sorted word, so the ad/da rules always fire and the two are
        # mutually exclusive in normal form.
        self.A = AlgebraPreset(self, QSL2, ("a", "d", "b", "c"), {
            (2, 0): [(qp(-1), (0, 2))],            # ba -> q^-1 ab
            (3, 0): [(qp(-1), (0, 3))],            # ca -> q^-1 ac
            (3, 2): [(one, (2, 3))],               # cb -> bc
            (2, 1): [(qp(1), (1, 2))],             # bd -> q db
            (3, 1): [(qp(1), (1, 3))],             # cd -> q dc
            (0, 1): [(one, ()), (qp(1), (2, 3))],  # ad -> 1 + q bc
            (1, 0): [(one, ()), (qp(-1), (2, 3))], # da -> 1 + q^-1 bc
        }, (0, 3, 1, 2))
        # generators y0=0 y1=1 y-1=2; normal words are y0^i y1^j / y0^i y-1^j
        self.B = AlgebraPreset(self, PODLES, ("y0", "y1", "y-1"), {
            (1, 0): [(qp(-2), (0, 1))],
            (2, 0): [(qp(2), (0, 2))],
            (1, 2): [(qp(-2), (0, 0)), (qp(-1), (0,))],
            (2, 1): [(qp(2), (0, 0)), (qp(1), (0,))],
        }, (1, 2, 0))
        self.C = AlgebraPreset(self, LAURENT, ("z", "zinv"), {
            (0, 1): [(one, ())],
            (1, 0): [(one, ())],
        }, (0, 1))
        self.Z2 = AlgebraPreset(self, SMASH_Z2, ("x", "y"), {
            (0, 0): [(one, ())],
            (1, 0): [(field.from_int(-1), (0, 1))],
        }, (0, 1))
        self.presets = {a.id: a for a in (self.A, self.B, self.C, self.Z2)}
        self._word_cache = Memo(lambda lmn: qsl2_word(*lmn))
        self._express_cache = Memo(_express_word)
        self._bcop_cache = Memo(partial(_b_coproduct_word_of, self.B))
        self._ad_cache = Memo(partial(_ad_terms_of, self.B))
        self._nu_cache = Memo(partial(_nu_echelon_of, self.B))
        self._nu_oracle_cache = Memo(partial(_nu_oracle_of, self.B))
        self.q_power = Memo(qp, {0: one})
        self.gauss_row = Memo(
            lambda k: [q_bracket(k, r, field) for r in range(k + 1)])

    def q_scale(self, c, e):
        """c * q^e, with c itself at e = 0."""
        return c * self.q_power[e] if e else c


_CONTEXTS = Memo(Context)


def get_algebra(alg_id, field=SYMBOLIC):
    """The preset algebra bound to a coefficient field.  There is one
    Context per field value, so equal fields share presets and caches and
    their elements mix."""
    alg = _CONTEXTS[field].presets.get(alg_id)
    if alg is None:
        raise ValueError(f"unknown algebra preset {alg_id!r}")
    return alg


# ---------------------------------------------------------------------------
# normal form of free expressions
# ---------------------------------------------------------------------------

def normal_form(expr, alg, strategy="leftmost"):
    """Normal form of a formal combination of generator words.

    expr may be an NCPoly, or a dict mapping words (tuples of generator
    names or indices) to coefficients.  An NCPoly must belong to alg.
    """
    if isinstance(expr, NCPoly):
        if expr.alg is not alg:
            raise ValueError(f"algebra mismatch: {expr.alg.id} vs {alg.id}")
        return alg.poly(alg.reduce_terms(expr.terms, strategy))
    pairs = []
    for word, coeff in expr.items():
        idx = []
        for g in word:
            if isinstance(g, str):
                if g not in alg.gen_index:
                    raise ValueError(f"unknown generator {g!r} in {alg.id}")
                idx.append(alg.gen_index[g])
            else:
                if not 0 <= g < len(alg.gens):
                    raise ValueError(f"unknown generator index {g} in {alg.id}")
                idx.append(g)
        if isinstance(coeff, int):
            coeff = alg.field.from_int(coeff)
        pairs.append((tuple(idx), coeff))
    terms = axpy({}, pairs, alg.field.is_zero)
    return alg.poly(alg.reduce_terms(terms, strategy))


def multiply(p, r):
    """Product of two NCPolys over the same preset."""
    if p.alg is not r.alg:
        raise ValueError(f"algebra mismatch: {p.alg.id} vs {r.alg.id}")
    return p * r


# ---------------------------------------------------------------------------
# gradings
# ---------------------------------------------------------------------------

def podles_degree():
    return Grading("podles-degree", (0, 1, -1))


def qsl2_degree():
    # deg f_{lmn} = l (generator order a, d, b, c); the y0-commutation
    # characterisation is y0*f = q^(-2l)*f*y0 on basis monomials
    return Grading("qsl2-degree", (1, -1, 0, 0))


def qsl2_weight():
    # left coaction weight: coact(f) = z^w (x) f with w = l + m - n
    return Grading("qsl2-weight", (1, -1, 1, -1))


def grade_decompose(p, grading):
    """Split p into homogeneous components {degree: NCPoly}."""
    buckets = {}
    for w, c in p.terms.items():
        buckets.setdefault(grading.of_word(w), {})[w] = c
    return {d: NCPoly(p.alg, t) for d, t in sorted(buckets.items())}


# ---------------------------------------------------------------------------
# filtration bases
# ---------------------------------------------------------------------------

def filtration_basis(alg, N):
    """All normal words of length <= N as a tuple, deterministically ordered
    (cached on the preset)."""
    if N < 0:
        raise ValueError("N must be >= 0")
    return alg._basis_cache[N]


def _filtration_words(alg, N):
    if alg.id == LAURENT:
        # in exponent order z^-N, ..., z^N rather than by sort_key
        return tuple(laurent_word(k) for k in range(-N, N + 1))
    words = []
    if alg.id == PODLES:
        for i in range(N + 1):
            for j in range(-(N - i), N - i + 1):
                words.append(podles_word(i, j))
    elif alg.id == QSL2:
        for l in range(-N, N + 1):
            for m in range(N - abs(l) + 1):
                for n in range(N - abs(l) - m + 1):
                    words.append(qsl2_word(l, m, n))
    else:
        for e in (0, 1):
            for i in range(N - e + 1):
                words.append((0,) * e + (1,) * i)
    words.sort(key=alg.sort_key)
    return tuple(words)


def podles_word(i, j):
    """The basis monomial y0^i y1^j (j >= 0) or y0^i y-1^(-j) (j < 0)."""
    if j >= 0:
        return (0,) * i + (1,) * j
    return (0,) * i + (2,) * (-j)


def podles_index(word):
    """(i, j) for a normal sphere word."""
    count = word.count
    return count(0), count(1) - count(2)


def qsl2_word(l, m, n):
    """The normal word of the basis monomial f_{lmn}: a^l b^m c^n for
    l >= 0 and d^(-l) b^m c^n for l < 0."""
    if l >= 0:
        return (0,) * l + (2,) * m + (3,) * n
    return (1,) * (-l) + (2,) * m + (3,) * n


def qsl2_index(word):
    """(l, m, n) for a normal QSL2 word."""
    count = word.count
    return count(0) - count(1), count(2), count(3)


def _qsl2_product(ctx, words):
    """f_{l1,m1,n1} * f_{l2,m2,n2} in normal form, from exponent vectors,
    for words = (w1, w2).

    b and c pass a^l2 (d^-l2 when l2 < 0) at q^(-l2(m1+n1)) and commute with
    each other, so only a^l1 a^l2 can make a sum.  With opposite signs it
    holds a^k d^k or d^k a^k, k = min(|l1|, |l2|), which expand by the
    q-binomial theorem as

        a^k d^k = prod_{s<k} (1 + q^(2s+1) bc) = sum_r q^(r^2) [k r] (bc)^r
        d^k a^k = prod_{s<k} (1 + q^-(2s+1) bc) = sum_r q^(r^2-2rk) [k r] (bc)^r

    with [k r] the Gaussian binomial in q^2.  The leftover power a^l or d^-l
    (l = l1 + l2) sits right of (bc)^r when |l2| > |l1|, and (bc)^r passes
    it at q^(-2rl).  Terms come in descending r, the order reduce_terms
    produces.  The product words come from ctx._word_cache, so equal words
    are one tuple object.
    """
    l1, m1, n1 = qsl2_index(words[0])
    l2, m2, n2 = qsl2_index(words[1])
    l, m, n = l1 + l2, m1 + m2, n1 + n2
    e = -l2 * (m1 + n1)
    qp, word = ctx.q_power, ctx._word_cache
    if l1 * l2 >= 0:
        return {word[l, m, n]: qp[e]}
    k = min(abs(l1), abs(l2))
    row = ctx.gauss_row[k]
    one = ctx.field.one
    shift = -2 * l if abs(l2) > abs(l1) else 0
    if l1 < 0:
        shift -= 2 * k
    out = {}
    for r in range(k, -1, -1):
        c, g = qp[e + r * r + shift * r], row[r]
        # an unmultiplied one keeps its identity for leg_product's skips:
        # multiplying it raised sigma-q's peak RSS 27.72 -> 28.56 MB in 12
        # of 12 alternating pairs, CPU 1.029 (slower in 9)
        out[word[l, m + r, n + r]] = (
            c if g is one else g if c is one else c * g)
    return out


def laurent_word(k):
    return (0,) * k if k >= 0 else (1,) * (-k)


def laurent_exp(word):
    return sum(1 if g == 0 else -1 for g in word)


# ---------------------------------------------------------------------------
# the sphere inside QSL2: y-1 = ca, y0 = bc, y1 = bd
# ---------------------------------------------------------------------------

def _embed_word(w):
    """Image of a normal sphere word as (QSL2 word, q-exponent e), in
    closed form:

        y0^i y1^j  -> q^(j(j+1)/2 + 2ij) d^j b^(i+j) c^i
        y0^i y-1^j -> q^-(j(j+1)/2 + 2ij) a^j b^i c^(i+j)
    """
    i, j = podles_index(w)
    k = abs(j)
    e = k * (k + 1) // 2 + 2 * i * k
    if j >= 0:
        return qsl2_word(-k, i + k, i), e
    return qsl2_word(k, i, i + k), -e


def _express_word(w):
    """Inverse of _embed_word: (sphere word, e) with w = q^e * embed(sphere
    word).  a^l b^m c^(m+l) comes from y0^m y-1^l and d^k b^(n+k) c^n from
    y0^n y1^k; a word of nonzero weight is no image and raises ValueError."""
    l, m, n = qsl2_index(w)
    if l + m - n != 0:
        raise ValueError(f"element is not in the sphere subalgebra: "
                         f"monomial of weight {l + m - n}")
    ew = podles_word(m if l >= 0 else n, -l)
    return ew, -_embed_word(ew)[1]


def _map_words(p, target, word_map):
    # word_map is injective on normal words, so no two terms collide
    q_scale = p.alg.ctx.q_scale
    terms = {}
    for w, c in p.terms.items():
        mw, e = word_map(w)
        terms[mw] = q_scale(c, e)
    return NCPoly(target, terms)


def embed_podles(p):
    """Algebra embedding of the sphere into QSL2."""
    if p.alg.id != PODLES:
        raise ValueError("embed_podles expects a PODLES element")
    return _map_words(p, p.alg.ctx.A, _embed_word)


def express_in_podles(p):
    """Inverse of embed_podles on its image.

    Raises ValueError when some monomial of p lies outside the subalgebra
    (every weight-0 normal word is in the image, so the check is the weight).
    """
    if p.alg.id != QSL2:
        raise ValueError("express_in_podles expects a QSL2 element")
    return _map_words(p, p.alg.ctx.B, _express_word)


# ---------------------------------------------------------------------------
# plain-text expression grammar
# ---------------------------------------------------------------------------

def parse_expr(text, alg):
    """Parse "y1*y-1 + q^-2*y0^2" style input into an NCPoly.

    Atoms are generators of the preset (longest match, so y-1 lexes as one
    symbol where it exists), integers, integer fractions n/m, and the
    deformation parameter q; operators are + - * ^ and parentheses.
    """
    tokens = _tokenize(text, alg)
    poly, pos = _parse_sum(tokens, 0, alg)
    if pos != len(tokens):
        raise ValueError(f"trailing input at token {tokens[pos]!r}")
    return poly


def _tokenize(text, alg):
    gens = sorted(alg.gens, key=len, reverse=True)
    out = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        matched = None
        for g in gens:
            if text.startswith(g, i):
                matched = g
                break
        if matched:
            out.append(("gen", alg.gen_index[matched]))
            i += len(matched)
            continue
        if ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            out.append(("int", int(text[i:j])))
            i = j
            continue
        if ch == "q":
            out.append(("q", None))
            i += 1
            continue
        if ch in "+-*^()/":
            out.append((ch, None))
            i += 1
            continue
        raise ValueError(f"unexpected character {ch!r} in expression")
    return out


def _parse_sum(tokens, pos, alg):
    # each term follows a run of signs, which only the first may lack
    acc = None
    while acc is None or pos < len(tokens) and tokens[pos][0] in "+-":
        sign = 1
        while pos < len(tokens) and tokens[pos][0] in "+-":
            if tokens[pos][0] == "-":
                sign = -sign
            pos += 1
        term, pos = _parse_product(tokens, pos, alg)
        term = term if sign > 0 else -term
        acc = term if acc is None else acc + term
    return acc, pos


def _parse_product(tokens, pos, alg):
    acc, pos = _parse_power(tokens, pos, alg)
    while pos < len(tokens) and tokens[pos][0] in ("*", "/"):
        op = tokens[pos][0]
        factor, pos = _parse_power(tokens, pos + 1, alg)
        if op == "*":
            acc = acc * factor
        else:
            acc = acc * _invert_poly(factor)
    return acc, pos


def _parse_power(tokens, pos, alg):
    base, pos = _parse_atom(tokens, pos, alg)
    if pos < len(tokens) and tokens[pos][0] == "^":
        pos += 1
        sign = 1
        if pos < len(tokens) and tokens[pos][0] == "-":
            sign = -1
            pos += 1
        if pos >= len(tokens) or tokens[pos][0] != "int":
            raise ValueError("expected an integer exponent after '^'")
        k = sign * tokens[pos][1]
        pos += 1
        if k >= 0:
            base = base ** k
        else:
            base = _invert_poly(base) ** (-k)
    return base, pos


def _parse_atom(tokens, pos, alg):
    if pos >= len(tokens):
        raise ValueError("unexpected end of expression")
    kind, val = tokens[pos]
    if kind == "(":
        inner, pos = _parse_sum(tokens, pos + 1, alg)
        if pos >= len(tokens) or tokens[pos][0] != ")":
            raise ValueError("missing closing parenthesis")
        return inner, pos + 1
    if kind == "gen":
        return NCPoly(alg, {(val,): alg.field.one}), pos + 1
    if kind == "int":
        return alg.scalar(val), pos + 1
    if kind == "q":
        return alg.poly({(): alg.field.q_power(1)}), pos + 1
    raise ValueError(f"unexpected token {kind!r}")


def _invert_poly(p):
    """Inverse of a scalar multiple of 1 or of a single LAURENT monomial."""
    if not p.terms:
        raise ValueError("division by zero")
    if len(p.terms) != 1:
        raise ValueError("can only invert scalars and grouplike monomials")
    (w, c), = p.terms.items()
    inv_c = p.alg.field.one / c
    if not w:
        return p.alg.poly({(): inv_c})
    if p.alg.id == LAURENT:
        return p.alg.poly({laurent_word(-laurent_exp(w)): inv_c})
    raise ValueError("generators of this preset are not invertible")
