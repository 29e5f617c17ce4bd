"""The Koszul resolution of the counit module of the quantum sphere.

The two elements z1 = y1 + y0 and z-1 = y-1 + y0 satisfy
z-1*z1 = q^2*z1*z-1 and generate the augmentation ideal, giving the length-2
free resolution

    0 -> B -> B (+) B -> B -> k,   a |-> (a*z-1, -q^2*a*z1),
                                   (b, c) |-> b*z1 + c*z-1.

This module verifies the complex and its exactness in filtration
truncations, computes the reduction calculus of the quotient B/B*z-1 two
independent ways (row reduction against the ideal's truncated column space,
whose echelon at level L extends the one at level L-1, and an iterated
single-step rewriting oracle, memoised per sphere word and never touching
the echelon), assembles the matrix of the multiplication map
zeta: nu(a) |-> nu(a*z1) on the quotient, and computes
the truncated Ext of the counit module from the Hom-dual Hom_B(K, B), with
coboundaries f |-> (z1*f, z-1*f) and (f, g) |-> z-1*f - q^2*z1*g.  Both
complexes come from _multiplication_maps, multiplication by the generator
images of (d2, d1) on the right for K and of (d1, d2) on the left for its
dual, and both are counted by _truncated_defects, which reads all three
degrees of a three-term complex off two long-pivot-first echelons, one per
map, plus the rank of the middle map on S, the short-pivot rows of the
boundary echelon.

A fact the calculus hinges on: in B/B*z-1 the trailing-generator rule is
nu(b*y-1) = -nu(b*y0), and the minus sign propagates.  Reducing
y0^i*y1^j therefore carries an overall (-1)^j, and the zeta matrix has
-q (not q) on the y0-block diagonal with a vanishing subdiagonal; the
explicit witness is y0*z1 + q*y0 = q^2*y1*z-1.  See the zeta_matrix report
fields and the tests.
"""

from __future__ import annotations

from .linalg import Echelon, axpy, determinant, rank
from .ncalg import (PODLES, filtration_basis, get_algebra, podles_index,
                    podles_word)
from .scalars import SYMBOLIC, q_bracket


class KoszulComplex:
    """The complex K: 0 -> B -> B(+)B -> B with lam = q^2."""

    def __init__(self, field=SYMBOLIC):
        self.field = field
        B = get_algebra(PODLES, field)
        self.B = B
        self.z1 = z1 = B.gen("y1") + B.gen("y0")
        self.zm1 = zm1 = B.gen("y-1") + B.gen("y0")
        self.lam = field.q_power(2)
        self.relation = zm1 * z1 - (z1 * zm1).scale(self.lam)  # zero in B

    def d2(self, a):
        return (a * self.zm1, (a * self.z1).scale(-self.lam))

    def d1(self, pair):
        b, c = pair
        return b * self.z1 + c * self.zm1


def koszul_d2_d1_zero(maxlen=6, field=SYMBOLIC):
    """d1 o d2 = 0: symbolically on the commutation relation and on every
    basis monomial of length <= maxlen."""
    K = KoszulComplex(field)
    if not K.relation.is_zero():
        return False
    for w in filtration_basis(K.B, maxlen):
        if not K.d1(K.d2(K.B.monomial(w))).is_zero():
            return False
    return True


# ---------------------------------------------------------------------------
# truncated exactness
# ---------------------------------------------------------------------------

def _truncated_defects(field, B, N, top, middle):
    """((dim ker top, dim ker middle, outside, coker), middle echelon) for
    maps top: words -> pair vectors and middle: (tag, word) columns -> B,
    counted in one walk over F_{N+1} that feeds two echelons, both pivoting
    on words longer than N first: one of top(F_{N+1}), one of
    middle(F_{N+1} (+) F_{N+1}).  filtration_basis is sorted by length, so
    F_N is a prefix of the walk, and the ranks of top(F_N) and
    middle(F_N (+) F_N) are read off the two echelons where the walk
    leaves it.

    The short-pivot rows of the first echelon span S = top(F_{N+1}) cap
    (F_N (+) F_N), and `outside`, the dimension of ker middle modulo
    top(F_{N+1}), is dim ker middle - (dim S - rank middle(S)); the larger
    level keeps spurious boundary defects out.  The short-pivot rows of the
    second span middle(F_{N+1} (+) F_{N+1}) cap F_N, and `coker` is the
    dimension of F_N modulo that.  All are ranks; no kernel basis is
    built."""
    words = filtration_basis(B, N + 1)
    n = len(filtration_basis(B, N))
    image = Echelon(field, column_order=lambda col: len(col[1]) <= N)
    coker = Echelon(field, column_order=lambda w: (len(w) <= N, -len(w), w))
    mid = {}  # middle on F_N (+) F_N, for the rank on S
    for k, w in enumerate(words):
        if k == n:  # sorted by length, so words[:n] is F_N
            top_rank, mid_rank = image.rank, coker.rank
        image.add(top(w))
        for col in ((0, w), (1, w)):
            img = middle(col)
            coker.add(img)
            if k < n:
                mid[col] = img
    ker_dim = 2 * n - mid_rank
    S = [row for piv, row in image.rows.items() if len(piv[1]) <= N]
    on_S = rank(field, (axpy({}, ((k, c * v) for col, c in row.items()
                                  for k, v in mid[col].items()),
                             field.is_zero) for row in S))
    inside = sum(1 for piv in coker.rows if len(piv) <= N)
    return (n - top_rank, ker_dim, ker_dim - (len(S) - on_S),
            n - inside), coker


def _multiplication_maps(K, left):
    """(top, middle) for _truncated_defects: multiplication by the generator
    images d2(1) = (z-1, -q^2*z1) and d1(1, 0), d1(0, 1) = (z1, z-1), read
    through K.  By (d2, d1) on the right it is K; by (d1, d2) on the left,
    its Hom-dual Hom_B(K, B), whose cohomology is Ext_B(k, B)."""
    B = K.B
    one, zero = B.one(), B.zero()
    d1 = (K.d1((one, zero)), K.d1((zero, one)))
    top_gens, mid_gens = (d1, K.d2(one)) if left else (K.d2(one), d1)

    def mul(g, w):
        p = B.monomial(w)
        return (g * p if left else p * g).terms

    def top(w):
        return {(t, v): c for t, g in enumerate(top_gens)
                for v, c in mul(g, w).items()}

    def middle(col):
        return mul(mid_gens[col[0]], col[1])

    return top, middle


def exactness_check(N, field=SYMBOLIC):
    """Truncated homology of the Koszul complex.

    H2: kernel of d2 on F_N (must be zero).  H1: kernel of d1 on
    F_N (+) F_N, checked for containment in d2(F_{N+1}).  H0: F_N modulo
    d1(F_{N+1} (+) F_{N+1}), spanned by the class of 1 (dimension 1).
    """
    if N < 2:
        raise ValueError("exactness_check needs N >= 2")
    K = KoszulComplex(field)
    (h2_defect, kernel_dim, h1_defect, h0), _ = _truncated_defects(
        field, K.B, N, *_multiplication_maps(K, left=False))
    return {"N": N, "H0_dim": h0, "H1_defect_dim": h1_defect,
            "H2_defect_dim": h2_defect, "kernel_dim": kernel_dim,
            "image_source_level": N + 1}


# ---------------------------------------------------------------------------
# the quotient B/B*z-1 and its reduction calculus
# ---------------------------------------------------------------------------

def _is_quotient_word(word):
    i, j = podles_index(word)
    return j == 0 or i == 0 and j > 0


def _nu_echelon(field, L):
    """Echelon of B*z-1 within filtration L, pivoted on reducible words
    (cached on the context)."""
    return get_algebra(PODLES, field).ctx._nu_cache[L]


def _nu_order(word):
    return (1 if _is_quotient_word(word) else 0, len(word), word)


def _nu_echelon_of(B, L):
    """Level L extends level L-1: a shallow copy of its rows (stored rows
    are never mutated) plus the rows of w*z-1 for the words w of length
    L-1.  filtration_basis is sorted by length, so the rows and their order
    are those of a fresh build over F_(L-1)."""
    ech = Echelon(B.field, column_order=_nu_order)
    if L >= 1:
        ech.rows.update(B.ctx._nu_cache[L - 1].rows)
        zm1 = KoszulComplex(B.field).zm1
        for w in filtration_basis(B, L - 1):
            if len(w) == L - 1:
                ech.add((B.monomial(w) * zm1).terms)
    return ech


def nu_reduce(p):
    """Coordinates of nu(p) in the quotient basis {nu(y0^(i+1)), nu(y1^i),
    nu(1)} of B/B*z-1.

    Computed by row reduction of p against the column space of the left
    ideal inside the filtration F_L, L the length of p (never by the closed
    forms, which are this operation's independent test targets).  The
    returned dict maps the representing sphere words to coefficients.
    """
    if p.alg.id != PODLES:
        raise ValueError("nu_reduce expects a PODLES element")
    rem = _nu_echelon(p.alg.field, p.length()).reduce(p.terms)
    if not all(_is_quotient_word(w) for w in rem):
        raise AssertionError("reduction left a pivot")
    return rem


def nu_reduce_oracle(i, j, field=SYMBOLIC):
    """nu(y0^i y1^j) (j >= 0) or nu(y0^i y-1^(-j)) (j < 0) by iterated
    single-step rewriting at the rightmost position.

    Structurally independent of nu_reduce: each step either replaces a
    trailing y-1 by -y0, or commutes one y0 to the right end
    (y0^i y1^j = q^(2j) y0^(i-1) y1^j y0) and replaces it by -y-1,
    multiplying out with the defining relations.  nu of each sphere word is
    memoised on the context (ctx._nu_oracle_cache); the caller gets a copy.
    """
    if i < 0:
        raise ValueError(f"oracle needs i >= 0, got i = {i}")
    if i + abs(j) > 12:
        raise ValueError("oracle limited to i + |j| <= 12")
    return dict(get_algebra(PODLES, field).ctx._nu_oracle_cache[
        podles_word(i, j)])


def _nu_oracle_of(B, w):
    """nu(w): w itself for a quotient word, else one rewriting step and the
    memoised nu of each word it yields.  Every step lowers |j|, so the
    recursion ends."""
    field = B.field
    if _is_quotient_word(w):
        return {w: field.one}
    wi, wj = podles_index(w)
    if wj < 0:
        # nu(b*y-1) = -nu(b*y0)
        head = B.monomial(podles_word(wi, wj + 1))
        step = (head * B.gen("y0")).scale(-field.one)
    else:
        # nu(y0^i y1^j) = -q^(2j) nu(y0^(i-1) y1^j y-1)
        head = B.monomial(podles_word(wi - 1, wj))
        step = (head * B.gen("y-1")).scale(-field.q_power(2 * wj))
    memo = B.ctx._nu_oracle_cache
    out = {}
    for v, c in step.terms.items():
        axpy(out, memo[v].items(), field.is_zero, c)
    return out


def nu_closed_form(i, j, field=SYMBOLIC):
    """The closed forms for nu on basis monomials.

    j <= 0 (with J = -j):  (-1)^J q^((J-1)J) nu(y0^(i+J)).
    j > 0, i >= 1:  (-1)^j sum_r q^((-2r+1)j + r^2) (j r)_q nu(y0^(i+r)),
    where (j r)_q is the Gaussian binomial in q^2 (scalars.q_bracket) and
    the overall sign is forced by nu(b*y0) = -nu(b*y-1).
    j > 0, i = 0: nu(y1^j) is already a basis vector.
    """
    if i < 0:
        raise ValueError(f"closed forms need i >= 0, got i = {i}")
    if j == 0 or (j > 0 and i == 0):
        return {podles_word(i, j): field.one}
    if j < 0:
        J = -j
        sign = field.one if J % 2 == 0 else -field.one
        return {podles_word(i + J, 0): sign * field.q_power((J - 1) * J)}
    out = {}
    sign = field.one if j % 2 == 0 else -field.one
    for r in range(j + 1):
        c = sign * field.q_power((-2 * r + 1) * j + r * r) * q_bracket(j, r, field)
        out[podles_word(i + r, 0)] = c
    return out


# ---------------------------------------------------------------------------
# the zeta matrix
# ---------------------------------------------------------------------------

class TruncatedMap:
    """A linear map between truncated graded pieces, with explicit bases.

    columns[c] is the image of domain_basis[c] as a sparse dict
    {codomain word: nonzero coefficient}; construction verifies that every
    image lies in the span of the codomain basis.
    """

    def __init__(self, field, domain_basis, codomain_basis, images):
        self.field = field
        self.domain_basis = list(domain_basis)
        self.codomain_basis = list(codomain_basis)
        self.columns = [{w: c for w, c in img.items() if not field.is_zero(c)}
                        for img in images]
        span = set(self.codomain_basis)
        if any(w not in span for col in self.columns for w in col):
            raise ValueError("image leaves the codomain basis span")

    def column_rank(self):
        return rank(self.field, self.columns)


def quotient_level_basis(j):
    """The filtration piece V_j of B/B*z-1 as a list of the representing
    sphere words: [nu(y0), ..., nu(y0^(j+1)), nu(1), nu(y1), ..., nu(y1^j)]."""
    words = [podles_word(k, 0) for k in range(1, j + 2)]
    words.append(())
    words += [podles_word(0, k) for k in range(1, j + 1)]
    return words


def zeta_matrix(jmax, field=SYMBOLIC):
    """The matrix of zeta: nu(a) |-> nu(a*z1) from V_jmax to V_(jmax+1).

    Returns (map, report).  The report records the actual entry pattern of
    the y0-block (diagonal -q, zero subdiagonal: the sign witness is
    y0*z1 + q*y0 = q^2*y1*z-1), full column rank as the injectivity
    certificate, the determinant of the square block obtained by deleting
    the nu(y0) and nu(1) rows (which vanishes, since the nu(y0) column is
    -q*nu(y0) and dies there), and the determinant of the block with the
    nu(1) and nu(y0^(jmax+2)) rows deleted, which is ((-q)^(jmax+1)) and
    certifies injectivity by triangularity.
    """
    if jmax < 1:
        raise ValueError("zeta_matrix needs jmax >= 1")
    K = KoszulComplex(field)
    dom = quotient_level_basis(jmax)
    cod = quotient_level_basis(jmax + 1)
    images = [nu_reduce(K.B.monomial(w) * K.z1) for w in dom]
    tmap = TruncatedMap(field, dom, cod, images)
    cols, zero = tmap.columns, field.zero

    j1 = jmax + 1
    diag = [cols[k - 1].get(podles_word(k, 0), zero) for k in range(1, j1 + 1)]
    sub = [cols[k - 1].get(podles_word(k + 1, 0), zero)
           for k in range(1, j1 + 1)]
    rank = tmap.column_rank()

    def square_without(drop_words):
        return [[col.get(w, zero) for col in cols]
                for w in cod if w not in drop_words]

    det_drop_y0_one = determinant(field, square_without([podles_word(1, 0), ()]))
    det_drop_one_top = determinant(
        field, square_without([(), podles_word(jmax + 2, 0)]))
    # the upper-right block: the nu(y1^k) columns carry nonzero entries in
    # the rows nu(y0^1), ..., nu(y0^(k+1)), and the nu(1) column hits nu(y0)
    upper_right = podles_word(1, 0) in cols[j1] and all(
        podles_word(r, 0) in cols[j1 + k]
        for k in range(1, jmax + 1) for r in range(1, k + 2))
    report = {
        "jmax": jmax,
        "rank": rank,
        "full_column_rank": rank == len(dom),
        "y0_diagonal": [field.render(x) for x in diag],
        "y0_subdiagonal": [field.render(x) for x in sub],
        "y0_diagonal_is_q": all(x == field.q_power(1) for x in diag),
        "y0_subdiagonal_is_2": all(x == field.from_int(2) for x in sub),
        "det_rows_without_nu_y0_nu_1": field.render(det_drop_y0_one),
        "det_rows_without_nu_1_top": field.render(det_drop_one_top),
        "upper_right_block_nonzero": upper_right,
    }
    return tmap, report


# ---------------------------------------------------------------------------
# Ext of the counit module from the dualised complex
# ---------------------------------------------------------------------------

def ext_counit_module(N, field=SYMBOLIC):
    """Truncated Ext_B(k, B): the cohomology of the Hom-dual Hom_B(K, B),
    0 -> B -> B(+)B -> B with coboundaries f |-> (z1*f, z-1*f) and
    (f, g) |-> z-1*f - q^2*z1*g (_multiplication_maps on the left).

    Returns degree defect dimensions (expected (0, 0, 1)) and the character
    of the right B-action on the one-dimensional degree-2 cohomology,
    evaluated on the three generators (expected 0 = counit).
    """
    if N < 2:
        raise ValueError("ext_counit_module needs N >= 2")
    K = KoszulComplex(field)
    B = K.B
    # degree 2: B/(z-1*B + z1*B) truncated, read off the middle echelon
    (d0, _, d1, d2), ideal = _truncated_defects(
        field, B, N, *_multiplication_maps(K, left=True))

    # the class of 1 spans degree 2; right multiplication by the generators
    # gives the character, read off one coordinate of the residue of 1 and
    # checked against all of them
    character = {}
    one_rem = ideal.reduce({(): field.one})
    if not one_rem:
        raise AssertionError("class of 1 vanished in the truncated cokernel")
    piv = next(iter(one_rem))
    for g in ("y-1", "y0", "y1"):
        rem = ideal.reduce(B.gen(g).terms)
        ratio = rem.get(piv, field.zero) / one_rem[piv] if rem else field.zero
        scaled = ({} if field.is_zero(ratio)
                  else {w: ratio * c for w, c in one_rem.items()})
        if rem != scaled:
            raise AssertionError(f"the residue of {g} is not a multiple of "
                                 "the residue of 1")
        character[g] = ratio
    return {"N": N, "dims": (d0, d1, d2), "character": character}
