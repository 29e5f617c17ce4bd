"""The Koszul resolution of the counit module of the quantum sphere.

The two elements z1 = y1 + y0 and z-1 = y-1 + y0 satisfy
z-1*z1 = q^2*z1*z-1 and generate the augmentation ideal, giving the length-2
free resolution

    0 -> B -> B (+) B -> B -> k,   a |-> (a*z-1, -q^2*a*z1),
                                   (b, c) |-> b*z1 + c*z-1.

This module verifies the complex and its exactness in filtration
truncations, computes the reduction calculus of the quotient B/B*z-1 two
independent ways (row reduction against the ideal's truncated column space,
and an iterated single-step rewriting oracle), assembles the matrix of the
multiplication map zeta: nu(a) |-> nu(a*z1) on the quotient, and computes
the truncated Ext of the counit module from the dualised complex; it and
exactness share one defect count, _truncated_defects.

A fact the calculus hinges on: in B/B*z-1 the trailing-generator rule is
nu(b*y-1) = -nu(b*y0), and the minus sign propagates.  Reducing
y0^i*y1^j therefore carries an overall (-1)^j, and the zeta matrix has
-q (not q) on the y0-block diagonal with a vanishing subdiagonal; the
explicit witness is y0*z1 + q*y0 = q^2*y1*z-1.  See the zeta_matrix report
fields and the tests.
"""

from __future__ import annotations

from .linalg import Echelon, axpy, kernel
from .ncalg import (PODLES, filtration_basis, get_algebra, podles_index,
                    podles_word)
from .scalars import SYMBOLIC, q_bracket


class KoszulComplex:
    """The complex K: 0 -> B -> B(+)B -> B with lam = q^2."""

    def __init__(self, field=SYMBOLIC):
        self.field = field
        B = get_algebra(PODLES, field)
        self.B = B
        self.z1 = B.gen("y1") + B.gen("y0")
        self.zm1 = B.gen("y-1") + B.gen("y0")
        self.lam = field.q_power(2)

    def d2(self, a):
        return (a * self.zm1, (a * self.z1).scale(-self.lam))

    def d1(self, pair):
        b, c = pair
        return b * self.z1 + c * self.zm1


def koszul_d2_d1_zero(maxlen=6, field=SYMBOLIC):
    """d1 o d2 = 0: symbolically on the commutation relation and on every
    basis monomial of length <= maxlen."""
    K = KoszulComplex(field)
    rel = K.zm1 * K.z1 - (K.z1 * K.zm1).scale(K.lam)
    if not rel.is_zero():
        return False
    for w in filtration_basis(K.B, maxlen):
        if not K.d1(K.d2(K.B.monomial(w))).is_zero():
            return False
    return True


# ---------------------------------------------------------------------------
# truncated exactness
# ---------------------------------------------------------------------------

def _pair_vec(pair):
    out = {}
    for tag, p in enumerate(pair):
        for w, c in p.terms.items():
            out[(tag, w)] = c
    return out


def _truncated_defects(field, B, N, top, middle):
    """(dim ker top, dim ker middle, outside) for maps top: F_N -> pairs
    and middle: (tag, word) columns -> F_N, with `outside` the vectors of
    ker middle not in top(F_{N+1}), each joining the span once found (the
    larger level keeps spurious boundary defects out)."""
    basis = filtration_basis(B, N)
    top_dim = len(kernel(field, basis, top))
    ker = kernel(field, [(t, w) for t in (0, 1) for w in basis], middle)
    span = Echelon(field)
    for w in filtration_basis(B, N + 1):
        span.add(top(w))
    return top_dim, len(ker), sum(1 for v in ker if span.add(v) is not None)


def exactness_check(N, field=SYMBOLIC):
    """Truncated homology defects of the Koszul complex.

    H2: kernel of d2 on F_N (must be zero).  H1: kernel of d1 on
    F_N (+) F_N, checked for containment in d2(F_{N+1}).  Both defect
    dimensions are reported.
    """
    if N < 2:
        raise ValueError("exactness_check needs N >= 2")
    K = KoszulComplex(field)
    B = K.B

    def d2(w):
        return _pair_vec(K.d2(B.monomial(w)))

    def d1(col):
        t, w = col
        p = B.monomial(w)
        return (K.d1((p, B.zero())) if t == 0 else K.d1((B.zero(), p))).terms

    h2_defect, kernel_dim, h1_defect = _truncated_defects(field, B, N, d2, d1)
    return {"N": N, "H1_defect_dim": h1_defect, "H2_defect_dim": h2_defect,
            "kernel_dim": kernel_dim, "image_source_level": N + 1}


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


def _nu_echelon_of(B, L):
    zm1 = B.gen("y-1") + B.gen("y0")

    def order(word):
        return (1 if _is_quotient_word(word) else 0, len(word), word)

    ech = Echelon(B.field, column_order=order)
    for w in filtration_basis(B, L - 1) if L >= 1 else ():
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
    multiplying out with the defining relations.
    """
    if i + abs(j) > 12:
        raise ValueError("oracle limited to i + |j| <= 12")
    B = get_algebra(PODLES, field)
    pending = {podles_word(i, j): field.one}
    out = {}
    while pending:
        w, c = pending.popitem()
        wi, wj = podles_index(w)
        if _is_quotient_word(w):
            axpy(out, ((w, c),), field.is_zero)
            continue
        if wj < 0:
            # nu(b*y-1) = -nu(b*y0)
            head = B.monomial(podles_word(wi, wj + 1))
            step = (head * B.gen("y0")).scale(-field.one)
        else:
            # nu(y0^i y1^j) = -q^(2j) nu(y0^(i-1) y1^j y-1)
            head = B.monomial(podles_word(wi - 1, wj))
            step = (head * B.gen("y-1")).scale(-field.q_power(2 * wj))
        axpy(pending, step.terms.items(), field.is_zero, c)
    return out


def nu_closed_form(i, j, field=SYMBOLIC):
    """The closed forms for nu on basis monomials.

    j <= 0 (with J = -j):  (-1)^J q^((J-1)J) nu(y0^(i+J)).
    j > 0, i >= 1:  (-1)^j sum_r q^((-2r+1)j + r^2) (j r)_q nu(y0^(i+r)),
    where (j r)_q is the Gaussian binomial in q^2 (scalars.q_bracket) and
    the overall sign is forced by nu(b*y0) = -nu(b*y-1).
    j > 0, i = 0: nu(y1^j) is already a basis vector.
    """
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

    matrix[r][c] is the coefficient of codomain_basis[r] in the image of
    domain_basis[c]; construction verifies that every image lies in the
    span of the codomain basis.
    """

    def __init__(self, field, domain_basis, codomain_basis, images):
        self.field = field
        self.domain_basis = list(domain_basis)
        self.codomain_basis = list(codomain_basis)
        index = {w: r for r, w in enumerate(self.codomain_basis)}
        rows = len(self.codomain_basis)
        self.matrix = [[field.zero] * len(self.domain_basis) for _ in range(rows)]
        for c, img in enumerate(images):
            for w, coeff in img.items():
                if w not in index:
                    raise ValueError("image leaves the codomain basis span")
                self.matrix[index[w]][c] = coeff

    def column_rank(self):
        ech = Echelon(self.field)
        for c in range(len(self.domain_basis)):
            vec = {r: self.matrix[r][c] for r in range(len(self.codomain_basis))
                   if not self.field.is_zero(self.matrix[r][c])}
            ech.add(vec)
        return ech.rank


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
    B = get_algebra(PODLES, field)
    z1 = B.gen("y1") + B.gen("y0")
    dom = quotient_level_basis(jmax)
    cod = quotient_level_basis(jmax + 1)
    images = [nu_reduce(B.monomial(w) * z1) for w in dom]
    tmap = TruncatedMap(field, dom, cod, images)

    from .linalg import determinant
    rows = {w: r for r, w in enumerate(cod)}
    j1 = jmax + 1
    diag = [tmap.matrix[rows[podles_word(k, 0)]][k - 1] for k in range(1, j1 + 1)]
    sub = [tmap.matrix[rows[podles_word(k + 1, 0)]][k - 1] for k in range(1, j1 + 1)]
    rank = tmap.column_rank()

    def square_without(drop_words):
        drop = {rows[w] for w in drop_words}
        return [[tmap.matrix[r][c] for c in range(len(dom))]
                for r in range(len(cod)) if r not in drop]

    det_drop_y0_one = determinant(field, square_without([podles_word(1, 0), ()]))
    det_drop_one_top = determinant(
        field, square_without([(), podles_word(jmax + 2, 0)]))
    # the upper-right block: the nu(y1^k) columns carry nonzero entries in
    # the rows nu(y0^1), ..., nu(y0^(k+1)), and the nu(1) column hits nu(y0)
    upper_right = not field.is_zero(tmap.matrix[rows[podles_word(1, 0)]][j1])
    for k in range(1, jmax + 1):
        col = j1 + 1 + (k - 1)
        for r in range(1, k + 2):
            if field.is_zero(tmap.matrix[rows[podles_word(r, 0)]][col]):
                upper_right = False
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
    """Truncated cohomology of 0 <- B <- B(+)B <- B with coboundaries
    f |-> (z1*f, z-1*f) and (f, g) |-> q^-1*z-1*f - q*z1*g.

    Returns degree defect dimensions (expected (0, 0, 1)) and the character
    of the right B-action on the one-dimensional degree-2 cohomology,
    evaluated on the three generators (expected 0 = counit).
    """
    if N < 2:
        raise ValueError("ext_counit_module needs N >= 2")
    K = KoszulComplex(field)
    B = K.B
    z1, zm1 = K.z1, K.zm1
    qi = field.q_power(-1)
    q1 = field.q_power(1)

    def d0_image(w):
        p = B.monomial(w)
        return _pair_vec((z1 * p, zm1 * p))

    def d1_image(col):
        t, w = col
        p = B.monomial(w)
        return ((zm1 * p).scale(qi) if t == 0 else (z1 * p).scale(-q1)).terms

    # degree 0: kernel of f |-> (z1*f, z-1*f); degree 1: kernel of
    # (f,g) |-> q^-1*z-1*f - q*z1*g against the image from above
    d0, _, d1 = _truncated_defects(field, B, N, d0_image, d1_image)

    # degree 2: B/(z-1*B + z1*B) truncated; pivots prefer long words so the
    # echelon rows with short pivots give the intersection with F_N
    def order(word):
        return (0 if len(word) > N else 1, -len(word), word)

    ideal = Echelon(field, column_order=order)
    for w in filtration_basis(B, N + 1):
        p = B.monomial(w)
        ideal.add((zm1 * p).terms)
        ideal.add((z1 * p).terms)
    inside = sum(1 for piv in ideal.rows if len(piv) <= N)
    d2 = len(filtration_basis(B, N)) - inside

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
