"""The weight-graded twisted bimodule family over the sphere, functionals
and convolution, and the averaging projection onto the sphere.

omega(n, m) is the span of the basis monomials of coaction weight n inside
the coordinate ring, with the right action twisted by the (2m)-th antipode
power.  The family composes: the product x * S^(2m)(y) of members of
omega(n, m) and omega(i, j) lands in omega(n+i, m+j), and within a
truncation the products span the target.  All claims here are checked at
the element level against the honest coaction, never by index bookkeeping
alone.
"""

from __future__ import annotations

from .hopf import (Tensor, antipode, b_coproduct_grouped, counit, _cop_word,
                   left_coaction)
from .hochschild import (CharacterFunctional, sigma_map,
                         validate_character_b, weight_basis_words)
from .linalg import Echelon, axpy
from .ncalg import (LAURENT, PODLES, QSL2, NCPoly, embed_podles,
                    express_in_podles, filtration_basis, get_algebra,
                    laurent_word, podles_index)
from .scalars import SYMBOLIC


# ---------------------------------------------------------------------------
# the omega family
# ---------------------------------------------------------------------------

def omega_membership(x, n, m=0):
    """True iff the left coaction of x is z^n (x) x (m only labels the
    right-action twist and does not enter the condition)."""
    if x.alg.id != QSL2:
        raise ValueError("omega_membership expects a QSL2 element")
    zw = laurent_word(n)
    return left_coaction(x) == Tensor(x.alg.ctx.C, x.alg,
                                      {(zw, w): c for w, c in x.terms.items()})


def omega_basis(n, m, N, field=SYMBOLIC):
    """The normal words of the basis monomials f_{l,m',n'} with
    l + m' - n' = n of length <= N, as a sorted list, each certified by the
    honest membership check."""
    if N < 0:
        raise ValueError("N must be >= 0")
    A = get_algebra(QSL2, field)
    out = weight_basis_words(n, N)
    for w in out:
        if not omega_membership(A.monomial(w), n, m):
            raise AssertionError("index arithmetic disagrees with coaction")
    out.sort(key=A.sort_key)
    return out


class OmegaModule:
    """Truncated carrier of omega(n, m): weight-n monomials of length <= N
    with left action by multiplication and right action through S^(2m)."""

    def __init__(self, n, m, N, field=SYMBOLIC):
        self.n = n
        self.m = m
        self.N = N
        self.field = field
        self.A = get_algebra(QSL2, field)
        self.basis = omega_basis(n, m, N, field)

    def act_left(self, b, v):
        """Left action of a sphere element (membership-checked)."""
        out = embed_podles(b) * v
        if not out.is_zero() and not omega_membership(out, self.n):
            raise AssertionError("left action left the weight space")
        return out

    def act_right(self, v, b):
        """Right action of a sphere element, twisted by S^(2m)
        (membership-checked)."""
        out = v * antipode(embed_podles(b), 2 * self.m)
        if not out.is_zero() and not omega_membership(out, self.n):
            raise AssertionError("right action left the weight space")
        return out


def omega_product_check(n, m, i, j, N, field=SYMBOLIC):
    """Element-level instance of the composition law
    omega(n,m) (x)_B omega(i,j) -> omega(n+i, m+j).

    Every pairwise product x * S^(2m)(y) of truncated basis vectors must
    pass the membership test for weight n+i (counted as failures), and the
    products must span the truncated target up to the reported per-level
    defects (expected zero within the stable range, length <= N).
    """
    A = get_algebra(QSL2, field)
    left = omega_basis(n, m, N, field)
    right = omega_basis(i, j, N, field)
    failures = 0
    products = []
    for x in left:
        for y in right:
            p = A.monomial(x) * antipode(A.monomial(y), 2 * m)
            products.append(p)
            if not p.is_zero() and not omega_membership(p, n + i):
                failures += 1
    target = omega_basis(n + i, m + j, N, field)
    span = Echelon(field)
    for p in products:
        span.add(p.terms)
    defects = {}
    for level in range(N + 1):
        defect = 0
        for t in target:
            if len(t) <= level and not span.contains({t: field.one}):
                defect += 1
        defects[level] = defect
    return {"n": n, "m": m, "i": i, "j": j, "N": N,
            "membership_failures": failures,
            "pair_count": len(products),
            "spanning_defects": defects}


# ---------------------------------------------------------------------------
# functionals and convolution
# ---------------------------------------------------------------------------

class Functional:
    """A linear functional on one preset algebra.

    kinds: 'counit'; 'char_A' (the torus characters a -> t, d -> 1/t of the
    coordinate ring, evaluated by the CharacterFunctional in `values`);
    'char_B' (a character of the sphere given by its values on (y-1, y0,
    y1)); 'sparse' (explicit values on basis words, zero elsewhere);
    'gamma' (x |-> chi(beta(S^-1(x))) on the coordinate ring); 'conv'
    (convolution product phi * psi, evaluated through the coproduct).

    A 'gamma' functional memoises its value on each basis word in `table`,
    computed once by gamma_functional on first use, so the memo lives and
    dies with the object; __call__ extends the values linearly.  The
    presets of the field are reached through `ctx`.
    """

    def __init__(self, kind, alg_id, field=SYMBOLIC, *, values=None,
                 table=None, parts=None):
        self.kind = kind
        self.alg_id = alg_id
        self.field = field
        self.ctx = get_algebra(alg_id, field).ctx
        self.values = values
        self.table = table or {}
        self.parts = parts

    # -- constructors --------------------------------------------------------

    @staticmethod
    def counit(alg_id, field=SYMBOLIC):
        return Functional("counit", alg_id, field)

    @staticmethod
    def char_A(t, field=SYMBOLIC):
        return Functional("char_A", QSL2, field,
                          values=CharacterFunctional(t, field))

    @staticmethod
    def char_B(vm, v0, vp, field=SYMBOLIC):
        validate_character_b((vm, v0, vp), field)
        return Functional("char_B", PODLES, field, values=(vm, v0, vp))

    @staticmethod
    def sparse(alg_id, table, field=SYMBOLIC):
        return Functional("sparse", alg_id, field, table=dict(table))

    @staticmethod
    def gamma(chi=None, field=SYMBOLIC):
        """The functional x |-> chi(beta(S^-1(x))) on the coordinate ring."""
        return Functional("gamma", QSL2, field, values=chi)

    # -- evaluation ----------------------------------------------------------

    def on_word(self, alg_id, w):
        field = self.field
        if self.kind == "counit":
            return counit(self.ctx.presets[alg_id].monomial(w))
        if self.kind == "char_A":
            if alg_id != QSL2:
                raise ValueError("char_A is a functional on QSL2")
            return self.values.on_word(w)
        if self.kind == "char_B":
            if alg_id != PODLES:
                raise ValueError("char_B is a functional on PODLES")
            i, j = podles_index(w)
            vm, v0, vp = self.values
            out = field.one
            for _ in range(i):
                out = out * v0
            for _ in range(abs(j)):
                out = out * (vp if j > 0 else vm)
            return out
        if self.kind == "sparse":
            if alg_id != self.alg_id:
                raise ValueError("functional domain mismatch")
            return self.table.get(w, field.zero)
        if self.kind == "gamma":
            if alg_id != QSL2:
                raise ValueError("gamma is a functional on QSL2")
            v = self.table.get(w)
            if v is None:
                v = self.table[w] = gamma_functional(self.ctx.A.monomial(w),
                                                     self.values)
            return v
        if self.kind == "conv":
            return _conv_word(self, alg_id, w)
        raise ValueError(f"unknown functional kind {self.kind}")

    def __call__(self, p):
        out = self.field.zero
        for w, c in p.terms.items():
            v = self.on_word(p.alg.id, w)
            if not self.field.is_zero(v):
                out = out + c * v
        return out


def convolution(phi, psi):
    """(phi * psi)(a) = phi(a_(1)) psi(a_(2)).

    Evaluates on QSL2 through the coproduct and on the sphere through its
    coideal coproduct (first legs in the sphere, second legs in QSL2); phi
    must accept the first-leg algebra and psi the second-leg algebra.
    """
    if psi.alg_id not in (QSL2,):
        raise ValueError("the right factor must be a functional on QSL2")
    domain = phi.alg_id
    return Functional("conv", domain, phi.field, parts=(phi, psi))


def _conv_word(conv, alg_id, w):
    phi, psi = conv.parts
    field = conv.field
    out = field.zero
    if alg_id == PODLES:
        for lw, right in b_coproduct_grouped(conv.ctx.B, w).items():
            v1 = phi.on_word(PODLES, lw)
            if field.is_zero(v1):
                continue
            out = out + v1 * psi(right)
    elif alg_id == QSL2:
        for (lw, rw), c in _cop_word(conv.ctx.A, w).items():
            v1 = phi.on_word(QSL2, lw)
            if field.is_zero(v1):
                continue
            out = out + c * v1 * psi.on_word(QSL2, rw)
    else:
        raise ValueError("convolution evaluates on QSL2 or PODLES")
    return out


# ---------------------------------------------------------------------------
# the averaging projection beta and the left inverse of sigma
# ---------------------------------------------------------------------------

def haar_laurent(p):
    """The invariant functional on Laurent polynomials: h(z^k) = delta_k0."""
    if p.alg.id != LAURENT:
        raise ValueError("haar_laurent expects a LAURENT element")
    return p.terms.get((), p.alg.field.zero)


def beta_projection(x):
    """beta(x) = h(pi(x_(1))) x_(2), the projection of the coordinate ring
    onto the sphere along the coaction weight decomposition; the result is
    returned in the sphere basis."""
    if x.alg.id != QSL2:
        raise ValueError("beta_projection expects a QSL2 element")
    A = x.alg
    field = A.field
    acc = A.zero()
    for w, c in x.terms.items():
        # h(pi(x_(1))) picks the terms whose first leg is 1
        picked = axpy({}, ((rw, cc) for (lw, rw), cc in _cop_word(A, w).items()
                           if lw == ()), field.is_zero, c)
        acc = acc + NCPoly(A, picked)
    return express_in_podles(acc)


def gamma_functional(x, chi=None):
    """gamma(x) = chi(beta(S^-1(x))), a functional on the coordinate ring
    built from a character chi of the sphere (default: the counit)."""
    if x.alg.id != QSL2:
        raise ValueError("gamma_functional expects a QSL2 element")
    field = x.alg.field
    if chi is None:
        chi = Functional.counit(PODLES, field)
    return chi(beta_projection(antipode(x, -1)))


def transes_check(maxlen=5, chi=None, field=SYMBOLIC):
    """(chi * gamma)(b) = counit(b) for every sphere basis monomial with
    i + |j| <= maxlen, with gamma built from the same chi and the product
    the convolution restricted to the sphere."""
    B = get_algebra(PODLES, field)
    if chi is None:
        chi = Functional.counit(PODLES, field)
    product = convolution(chi, Functional.gamma(chi, field))
    failures = []
    for w in filtration_basis(B, maxlen):
        total = product.on_word(PODLES, w)
        if total != counit(B.monomial(w)):
            failures.append(B.render_word(w))
    return {"maxlen": maxlen, "failures": failures, "pass": not failures}


def sigma_inverse_check(N, field=SYMBOLIC):
    """The explicit left inverse of sigma:

        sigma_inv(a) = gamma(S^-2(a_(1))) S^-2(a_(2))

    must undo sigma on every sphere basis monomial with i + |j| <= N, and
    sigma itself must scale the basis ray e_{ij} by q^(-2j)."""
    if N < 1:
        raise ValueError("sigma_inverse_check needs N >= 1")
    B = get_algebra(PODLES, field)
    gamma = Functional.gamma(None, field)
    ray_failures = []
    roundtrip_failures = []
    for w in filtration_basis(B, N):
        e = B.monomial(w)
        s = sigma_map(e)
        i, j = podles_index(w)
        if s != e.scale(field.q_power(-2 * j)):
            ray_failures.append(B.render_word(w))
        back = sigma_inverse_apply(embed_podles(s), gamma)
        if back != e:
            roundtrip_failures.append(B.render_word(w))
    return {"N": N, "ray_failures": ray_failures,
            "roundtrip_failures": roundtrip_failures,
            "pass": not ray_failures and not roundtrip_failures}


def sigma_inverse_apply(x, gamma=None):
    """gamma(S^-2(x_(1))) S^-2(x_(2)) expressed back in the sphere.

    gamma is a Functional.gamma over x's field (default: built from the
    counit).  Its per-word memo is shared by every call that passes the
    same object, so a sweep computes gamma once per basis word.
    """
    if x.alg.id != QSL2:
        raise ValueError("sigma_inverse_apply expects a QSL2 element")
    A = x.alg
    field = A.field
    if gamma is None:
        gamma = Functional.gamma(None, field)
    acc = A.zero()
    for w, c in x.terms.items():
        for (lw, rw), cc in _cop_word(A, w).items():
            g = gamma(antipode(A.monomial(lw), -2))
            if field.is_zero(g):
                continue
            acc = acc + antipode(A.monomial(rw), -2).scale(c * cc * g)
    return express_in_podles(acc)
