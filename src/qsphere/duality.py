"""The weight-graded twisted bimodule family over the sphere, functionals
and convolution, and the averaging projection onto the sphere.

omega(n, m) is the span of the basis monomials of coaction weight n inside
the coordinate ring, with the right action twisted by the (2m)-th antipode
power (omega_membership and omega_basis take no m: the space does not
depend on it).  The family composes: the product x * S^(2m)(y) of members
of omega(n, m) and omega(i, j) lands in omega(n+i, m+j), and within a
truncation the products span the target.  The coaction is an algebra map
sending each generator g to z^wt(g) (x) g, so a normal word w, the product
of its letters, coacts as z^wt(w) (x) w, and omega(n, m) is spanned by the
words of weight n.  Membership reads hopf.left_coaction, whose oracle is
pi (x) id of the full coproduct (test_left_coaction_is_pi_of_the_coproduct
in tests/test_hopf.py).  OmegaModule is omega(n, m) as the carrier
hochschild.Bimodule("A_twist", twist=m), its actions checked for weight.

Functional is the one type for the counit, the characters of both
algebras, sparse tables, gamma and convolutions; its torus characters are
what hochschild.character_action takes.
"""

from __future__ import annotations

from .hopf import (Tensor, antipode, b_coproduct_word, contract_left, counit,
                   _cop_word, left_coaction)
from .hochschild import (Bimodule, sigma_map, validate_character_b,
                         weight_basis_words)
from .linalg import Echelon
from .ncalg import (LAURENT, PODLES, QSL2, Memo, NCPoly, embed_podles,
                    express_in_podles, filtration_basis, get_algebra,
                    laurent_word, podles_index, qsl2_index)
from .scalars import SYMBOLIC


# ---------------------------------------------------------------------------
# the omega family
# ---------------------------------------------------------------------------

def omega_membership(x, n):
    """True iff the left coaction of x is z^n (x) x: membership in
    omega(n, m) for every twist m, which acts on the right only."""
    if x.alg.id != QSL2:
        raise ValueError("omega_membership expects a QSL2 element")
    zw = laurent_word(n)
    return left_coaction(x) == Tensor(x.alg.ctx.C, x.alg,
                                      {(zw, w): c for w, c in x.terms.items()})


def omega_basis(n, N, field=SYMBOLIC):
    """The normal words of the basis monomials f_{l,m',n'} with
    l + m' - n' = n of length <= N, as a sorted list, each certified by
    omega_membership: a basis of omega(n, m) for every twist m."""
    if N < 0:
        raise ValueError("N must be >= 0")
    A = get_algebra(QSL2, field)
    out = weight_basis_words(n, N)
    for w in out:
        if not omega_membership(A.monomial(w), n):
            raise AssertionError("index arithmetic disagrees with coaction")
    out.sort(key=A.sort_key)
    return out


class OmegaModule(Bimodule):
    """omega(n, m) as the carrier Bimodule("A_twist", twist=m), with
    sphere elements acting and each result checked to stay in weight n."""

    def __init__(self, n, m, field=SYMBOLIC):
        super().__init__("A_twist", field, twist=m)
        self.n = n

    def act_left(self, b, v):
        """Left action of a sphere element (membership-checked)."""
        return self._in_weight(embed_podles(b) * v)

    def act_right(self, v, b):
        """Right action of a sphere element, twisted by S^(2m)
        (membership-checked)."""
        return self._in_weight(self.right_A(v, embed_podles(b)))

    def _in_weight(self, out):
        if not out.is_zero() and not omega_membership(out, self.n):
            raise AssertionError("the action left the weight space")
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
    left = omega_basis(n, N, field)
    right = omega_basis(i, N, field)
    failures = 0
    span = Echelon(field)
    for x in left:
        for y in right:
            p = A.monomial(x) * antipode(A.monomial(y), 2 * m)
            span.add(p.terms)
            if not p.is_zero() and not omega_membership(p, n + i):
                failures += 1
    target = omega_basis(n + i, N, field)
    missing = [len(t) for t in target if not span.contains({t: field.one})]
    defects = {level: sum(1 for n in missing if n <= level)
               for level in range(N + 1)}
    return {"n": n, "m": m, "i": i, "j": j, "N": N,
            "membership_failures": failures,
            "pair_count": len(left) * len(right),
            "spanning_defects": defects}


# ---------------------------------------------------------------------------
# functionals and convolution
# ---------------------------------------------------------------------------

class Functional:
    """A linear functional on the preset `alg`: a value function on basis
    words, memoised per word in the Memo `table` and extended linearly by
    __call__ to elements of `alg` only (not of another preset or field).

    A sparse functional is a table seeded in advance whose value function
    returns zero.  A torus character keeps its parameter in `t` (None
    otherwise) for the character action on cochains.  The memo lives and
    dies with the object.
    """

    def __init__(self, alg, value, table=None, t=None):
        self.alg = alg
        self.table = Memo(value, table or ())
        self.t = t

    # -- constructors --------------------------------------------------------

    @staticmethod
    def counit(alg_id, field=SYMBOLIC):
        alg = get_algebra(alg_id, field)
        return Functional(alg, lambda w: counit(alg.monomial(w)))

    @staticmethod
    def char_A(t, field=SYMBOLIC):
        """The torus character a |-> t, d |-> 1/t, b, c |-> 0 of the
        coordinate ring."""
        if field.is_zero(t):
            raise ValueError("character parameter must be nonzero")
        zero, inv = field.zero, field.one / t

        def value(w):
            l, m, n = qsl2_index(w)
            if m or n:
                return zero
            return t ** l if l >= 0 else inv ** (-l)

        return Functional(get_algebra(QSL2, field), value, t=t)

    @staticmethod
    def char_B(vm, v0, vp, field=SYMBOLIC):
        """The character of the sphere with values (vm, v0, vp) on
        (y-1, y0, y1)."""
        validate_character_b((vm, v0, vp), field)

        def value(w):
            i, j = podles_index(w)
            return v0 ** i * (vp if j > 0 else vm) ** abs(j)

        return Functional(get_algebra(PODLES, field), value)

    @staticmethod
    def sparse(alg_id, table, field=SYMBOLIC):
        """Explicit values on basis words, zero elsewhere."""
        alg = get_algebra(alg_id, field)
        return Functional(alg, lambda w: alg.field.zero, table)

    @staticmethod
    def gamma(chi=None, field=SYMBOLIC):
        """The functional x |-> chi(beta(S^-1(x))) on the coordinate ring."""
        A = get_algebra(QSL2, field)
        # gamma_functional is looked up when a word is first evaluated, so
        # the memo can be tested against the module-level oracle
        return Functional(A, lambda w: gamma_functional(A.monomial(w), chi))

    # -- evaluation ----------------------------------------------------------

    def on_word(self, w):
        return self.table[w]

    def __call__(self, p):
        if p.alg is not self.alg:
            raise ValueError(f"a functional on {self.alg!r} cannot take "
                             f"an element of {p.alg!r}")
        field = self.alg.field
        out = field.zero
        for w, c in p.terms.items():
            v = self.on_word(w)
            # skip zero values: without this skip alone, sigma-q's peak RSS
            # rose 27.75 -> 27.95 MB in 40 of 40 alternating pairs (a QValue
            # sum carries the larger D^s), CPU 1.02 (slower in 23 of 40)
            if not field.is_zero(v):
                out = out + c * v
        return out


def convolution(phi, psi):
    """(phi * psi)(a) = phi(a_(1)) psi(a_(2)).

    Evaluates on QSL2 through the coproduct and on the sphere through its
    coideal coproduct (first legs in the sphere, second legs in QSL2), so
    phi is a functional on QSL2 or PODLES and psi one on QSL2, over the
    same field.
    """
    ctx = phi.alg.ctx
    if psi.alg.ctx is not ctx:
        raise ValueError("convolution factors must share one field")
    if psi.alg is not ctx.A:
        raise ValueError("the right factor must be a functional on QSL2")
    legs = {ctx.A: _cop_word, ctx.B: b_coproduct_word}.get(phi.alg)
    if legs is None:
        raise ValueError("convolution evaluates on QSL2 or PODLES")
    field = ctx.field

    def value(w):
        return psi(NCPoly(ctx.A, contract_left(
            {w: field.one}, lambda u: legs(phi.alg, u), phi.on_word, field)))

    return Functional(phi.alg, value)


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
    returned in the sphere basis.

    beta is (h (x) id) applied to the left coaction (pi (x) id) o Delta,
    so it keeps the terms whose Laurent leg is 1, h(z^k) = delta_k0: the
    weight-0 part of x."""
    if x.alg.id != QSL2:
        raise ValueError("beta_projection expects a QSL2 element")
    return express_in_podles(NCPoly(x.alg, {
        w: c for (zw, w), c in left_coaction(x).terms.items() if not zw}))


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
        total = product.on_word(w)
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
    """gamma(S^-2(x_(1))) S^-2(x_(2)) expressed back in the sphere, read
    as gamma((S^-2 x)_(1)) (S^-2 x)_(2), since S^-2 is a coalgebra map.

    gamma is a Functional.gamma over x's field (default: built from the
    counit).  Its per-word memo is shared by every call that passes the
    same object, so a sweep computes gamma once per basis word.
    """
    if x.alg.id != QSL2:
        raise ValueError("sigma_inverse_apply expects a QSL2 element")
    A = x.alg
    if gamma is None:
        gamma = Functional.gamma(None, A.field)
    return express_in_podles(NCPoly(A, contract_left(
        antipode(x, -2).terms, lambda w: _cop_word(A, w), gamma.on_word,
        A.field)))
