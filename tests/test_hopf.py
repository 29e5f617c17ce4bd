import random
from fractions import Fraction

import pytest

from qsphere import hopf
from qsphere.hopf import (Tensor, antipode, b_coproduct, b_coproduct_grouped,
                          b_coproduct_word, coideal_membership,
                          contract_left, coproduct, counit, left_coaction,
                          project_pi, rho, rho_check, _COP_GEN, _cop_word,
                          _psi_word)
from qsphere.linalg import Echelon
from qsphere.ncalg import (LAURENT, PODLES, QSL2, SMASH_Z2, Context, Grading,
                           NCPoly, embed_podles, express_in_podles,
                           filtration_basis, get_algebra, podles_index,
                           podles_word, qsl2_word, _embed_word)
from qsphere.scalars import ONE, Q, SYMBOLIC, ZERO, NumericField

A = get_algebra(QSL2)
B = get_algebra(PODLES)
L = get_algebra(LAURENT)
S = get_algebra(SMASH_Z2)

FIELDS = pytest.mark.parametrize(
    "field", [SYMBOLIC, NumericField(Fraction(3, 2))], ids=["symbolic", "q=3/2"])


def mono(alg, w):
    return NCPoly(alg, {tuple(w): alg.field.one})


def test_coproduct_generators():
    t = coproduct(A.gen("a"))
    assert t == Tensor.of(A.gen("a"), A.gen("a")) + Tensor.of(A.gen("b"), A.gen("c"))
    assert coproduct(A.one()) == Tensor.of(A.one(), A.one())
    t = coproduct(S.gen("y"))
    assert t == Tensor.of(S.one(), S.gen("y")) + Tensor.of(S.gen("y"), S.gen("x"))
    assert coproduct(L.gen("z")) == Tensor.of(L.gen("z"), L.gen("z"))


def test_coproduct_y_minus_one_expansion():
    # Delta(ca) = ca(x)a^2 + bc(x)ac + (1 + q^-1 bc)(x)ca + q^-1 bd(x)c^2
    ca = A.gen("c") * A.gen("a")
    want = (Tensor.of(ca, A.gen("a") ** 2)
            + Tensor.of(A.gen("b") * A.gen("c"), A.gen("a") * A.gen("c"))
            + Tensor.of(A.one() + (A.gen("b") * A.gen("c")).scale(Q ** -1), ca)
            + Tensor.of((A.gen("b") * A.gen("d")).scale(Q ** -1), A.gen("c") ** 2))
    assert coproduct(B.gen("y-1")) == want


def _cop_word_by_tensors(alg, w):
    """Delta(w) as the letter-by-letter Tensor product of the generator
    coproducts."""
    one = alg.field.one
    out = Tensor(alg, alg, {((), ()): one})
    for g in w:
        out = out * Tensor(alg, alg, {pair: one for pair in _COP_GEN[alg.id][g]})
    return out.terms


def _psi_terms(ctx, terms, e=0):
    """q^e (psi (x) psi) of Sweedler terms {(left word, right word): c}."""
    out = {}
    for (lw, rw), c in terms.items():
        pl, el = _psi_word(ctx, lw)
        pr, er = _psi_word(ctx, rw)
        out[pl, pr] = ctx.q_scale(c, e + el + er)
    return out


def _psi(p):
    """psi applied to a QSL2 element, one word per term."""
    ctx, terms = p.alg.ctx, {}
    for w, c in p.terms.items():
        pw, e = _psi_word(ctx, w)
        terms[pw] = ctx.q_scale(c, e)
    return NCPoly(p.alg, terms)


def _assert_cop_word_pinned(alg, w):
    """_cop_word(alg, w) has the values of the letter-by-letter product.
    Its dict order is that product's on every word the run split builds;
    a QSL2 word that begins with a takes psi (x) psi of its d-word's
    pinned coproduct, in that order."""
    got = _cop_word(alg, w)
    want = _cop_word_by_tensors(alg, w)
    assert got == want, (alg.id, w)
    if alg.id == QSL2 and w[:1] == (0,):
        dw, e = _psi_word(alg.ctx, w)
        assert dw[:1] == (1,), w
        want = _psi_terms(alg.ctx, _cop_word_by_tensors(alg, dw), e)
    assert list(got.items()) == list(want.items()), (alg.id, w)


@FIELDS
def test_cop_word_matches_tensor_products(field):
    # same values on every basis word up to length 6, and the dict order
    # of the route that built it
    for alg_id in (QSL2, LAURENT, SMASH_Z2):
        alg = get_algebra(alg_id, field)
        for m in filtration_basis(alg, 6):
            _assert_cop_word_pinned(alg, m)


def test_cop_word_matches_tensor_products_on_sigma_inverse_words():
    # the long words sigma-inverse takes coproducts of: the embeddings of the
    # sphere words with i + |j| <= 8, d-words split at their letter runs and
    # a-words read from them through psi
    field = NumericField(Fraction(3, 2))
    A3, B3 = get_algebra(QSL2, field), get_algebra(PODLES, field)
    for m in filtration_basis(B3, 8):
        _assert_cop_word_pinned(A3, _embed_word(m)[0])


@FIELDS
def test_psi_is_an_involutive_anti_algebra_coalgebra_map(field):
    # psi swaps a with d and b with c, psi(f_{l,m,n}) = q^(l(m+n))
    # f_{-l,n,m}; _cop_word builds the coproduct of an a-word from its
    # d-word on these three properties
    A_ = get_algebra(QSL2, field)
    ctx, one = A_.ctx, A_.field.one
    for w in filtration_basis(A_, 6):
        assert _psi(_psi(mono(A_, w))) == mono(A_, w), w
    words = filtration_basis(A_, 3)
    for x in words:
        for y in words:
            assert (_psi(mono(A_, x) * mono(A_, y))
                    == _psi(mono(A_, y)) * _psi(mono(A_, x))), (x, y)
    for g in range(4):
        pw, e = _psi_word(ctx, (g,))
        assert len(pw) == 1 and e == 0
        want = dict.fromkeys(_COP_GEN[QSL2][pw[0]], one)
        assert _psi_terms(ctx, dict.fromkeys(_COP_GEN[QSL2][g], one)) == want
    for w in filtration_basis(A_, 7):
        assert _cop_word(A_, w) == _cop_word_by_tensors(A_, w), w


def test_express_memo_keeps_the_coideal_certificate():
    # a first leg of nonzero weight still raises through the express memo,
    # and the failing word is not stored; a context of its own keeps the
    # shared caches clean
    ctx = Context(NumericField(Fraction(5, 3)))
    w = podles_word(1, 1)
    aw = _embed_word(w)[0]
    bad = qsl2_word(1, 0, 0)
    cop = dict(_cop_word(ctx.A, aw))
    cop[bad, aw] = ctx.field.one
    ctx.A._cop_cache[aw] = cop
    for _ in range(2):
        with pytest.raises(ValueError, match="weight 1"):
            b_coproduct_word(ctx.B, w)
        assert bad not in ctx._express_cache and w not in ctx._bcop_cache
    assert ctx._express_cache


def _coaction_mismatches(A_, N):
    """The words of length <= N whose left_coaction differs from
    pi (x) id applied to the full coproduct."""
    C_ = A_.ctx.C
    bad = []
    for w in filtration_basis(A_, N):
        want = Tensor.zero(C_, A_)
        for (lw, rw), c in coproduct(A_.monomial(w)).terms.items():
            want = want + Tensor.of(project_pi(A_.monomial(lw)),
                                    A_.monomial(rw)).scale(c)
        if left_coaction(A_.monomial(w)) != want:
            bad.append(w)
    return bad


@FIELDS
def test_left_coaction_is_pi_of_the_coproduct(field):
    assert _coaction_mismatches(get_algebra(QSL2, field), 6) == []


def test_coaction_oracle_catches_a_wrong_generator_image(monkeypatch):
    # b coacting by z^-1 instead of z; a context of its own keeps the
    # shared caches clean
    mutant = Grading("b-weighted-minus-one", (1, -1, -1, -1)).of_word
    monkeypatch.setattr(hopf, "_coact_weight", mutant)
    bad = _coaction_mismatches(Context(NumericField(Fraction(5, 3))).A, 2)
    assert (2,) in bad and (0, 3) not in bad


@FIELDS
def test_one_valued_coefficients_are_the_fields_one(field):
    # leg_product skips multiplications by the one object, and the places
    # that build a one hand on the field's own: q_power[0], the ends of
    # each Gaussian row, the generators' Sweedler terms, the closed-form
    # QSL2 products that pass those on unmultiplied, and Echelon's pivots
    A_ = get_algebra(QSL2, field)
    ctx, one = A_.ctx, A_.field.one   # equal fields share one Context
    assert ctx.q_power[0] is one
    for k in range(6):
        assert ctx.gauss_row[k][0] is one and ctx.gauss_row[k][k] is one
    coeffs = []
    for g in range(4):
        coeffs += _cop_word(A_, (g,)).values()
    words = filtration_basis(A_, 3)
    for w1 in words:
        for w2 in words:
            coeffs += A_.mul_words(w1, w2).values()
    ones = [c for c in coeffs if c == one]
    assert len(ones) > 100
    assert all(c is one for c in ones)
    echelon = Echelon(A_.field)
    for vec in ({"x": field.from_int(3), "y": one},
                {"y": ctx.q_power[2], "z": field.from_int(-2)}):
        piv = echelon.add(vec)
        assert echelon.rows[piv][piv] is one


# ---------------------------------------------------------------------------
# contract_left against contractions of the full Sweedler tensors
# ---------------------------------------------------------------------------

def _random_element(alg, rng, maxlen):
    field = alg.field
    pool = filtration_basis(alg, maxlen)
    return alg.poly({rng.choice(pool): field.q_power(rng.randint(-2, 2))
                     * field.from_int(rng.choice((-2, -1, 1, 3)))
                     for _ in range(4)})


def _contract_oracle(t, f, field):
    """sum c * f(l) r over the terms c * (l (x) r) of the Tensor t."""
    out = {}
    for (lw, rw), c in t.terms.items():
        out[rw] = out.get(rw, field.zero) + c * f(lw)
    return {rw: c for rw, c in out.items() if not field.is_zero(c)}


@FIELDS
@pytest.mark.parametrize("route", ["coproduct", "b_coproduct"])
def test_contract_left_matches_the_contracted_tensor(field, route):
    Af = get_algebra(QSL2, field)
    Bf = Af.ctx.B
    alg, legs, tensor = {
        "coproduct": (Af, lambda w: _cop_word(Af, w), coproduct),
        "b_coproduct": (Bf, lambda w: b_coproduct_word(Bf, w), b_coproduct),
    }[route]

    def f(w):    # -1, 0 or 1, so the zero skip is exercised
        return field.from_int((len(w) + 2 * sum(w)) % 3 - 1)

    rng = random.Random(97)
    for _ in range(25):
        x = _random_element(alg, rng, 4)
        got = contract_left(x.terms, legs, f, field)
        assert got == _contract_oracle(tensor(x), f, field), x.render()
        assert not any(field.is_zero(c) for c in got.values())


@FIELDS
def test_contract_left_drops_a_cancelled_right_leg(field):
    # with f = 1 on every word, a and c both contract to a + c
    Af = get_algebra(QSL2, field)
    x = Af.gen("a") - Af.gen("c")

    def legs(w):
        return _cop_word(Af, w)

    got = contract_left(x.terms, legs, lambda w: field.one, field)
    assert got == {} == _contract_oracle(coproduct(x), lambda w: field.one,
                                         field)
    got = contract_left(Af.gen("a").terms, legs, lambda w: field.one, field)
    assert got == {(0,): field.one, (3,): field.one}


@FIELDS
def test_s_minus_two_is_a_coalgebra_map(field):
    # sigma_inverse_apply contracts Delta(S^-2 x) for (S^-2 (x) S^-2) Delta x
    Af = get_algebra(QSL2, field)
    words = filtration_basis(Af, 5)
    assert len(words) == 91
    for w in words:
        want = Tensor.zero(Af, Af)
        for (lw, rw), c in _cop_word(Af, w).items():
            want = want + Tensor.of(antipode(mono(Af, lw), -2),
                                    antipode(mono(Af, rw), -2)).scale(c)
        assert coproduct(antipode(mono(Af, w), -2)) == want, w


def test_counit():
    assert counit(A.gen("a")) == ONE
    assert counit(A.gen("b")) == ZERO
    assert counit(B.gen("y0")) == ZERO
    assert counit(B.one()) == ONE
    assert counit(S.gen("x")) == ONE
    assert counit(S.gen("y")) == ZERO


def test_antipode_examples():
    assert antipode(A.gen("b")) == A.gen("b").scale(-(Q ** -1))
    assert antipode(A.gen("a")) == A.gen("d")
    assert antipode(S.gen("y"), 2) == -S.gen("y")
    assert antipode(S.gen("y")) == -(S.gen("y") * S.gen("x"))
    assert antipode(B.gen("y-1"), 2) == B.gen("y-1").scale(Q ** 2)
    with pytest.raises(ValueError):
        antipode(B.gen("y0"), 1)


def test_antipode_rejects_non_integer_power():
    for power in (1.5, 2.0, "2", None):
        with pytest.raises(ValueError):
            antipode(A.gen("a"), power)
    with pytest.raises(ValueError):
        antipode(B.gen("y0"), 0.5)
    assert antipode(A.gen("a"), -3) == A.gen("d")


def test_antipode_inverse_composition():
    for alg in (A, S, L):
        for m in filtration_basis(alg, 3):
            p = mono(alg, m)
            assert antipode(antipode(p, 1), -1) == p
            assert antipode(antipode(p, -1), 1) == p
            assert antipode(antipode(p, 2), -2) == p


def test_antipode_is_antihomomorphism():
    for x, y in [(A.gen("a"), A.gen("b")), (A.gen("c"), A.gen("d")),
                 (S.gen("x"), S.gen("y"))]:
        assert antipode(x * y) == antipode(y) * antipode(x)
        assert antipode(x * y, 2) == antipode(x, 2) * antipode(y, 2)


def test_project_pi():
    assert project_pi(A.gen("a")) == L.gen("z")
    assert project_pi(A.gen("d")) == L.gen("zinv")
    assert project_pi(mono(A, qsl2_word(2, 1, 0))).is_zero()
    assert project_pi(A.gen("a") * A.gen("d")) == L.one()
    # pi(f_lmn) = delta_m0 delta_n0 z^l on the whole basis
    for m in filtration_basis(A, 4):
        img = project_pi(mono(A, m))
        from qsphere.ncalg import qsl2_index, laurent_word
        l, mm, nn = qsl2_index(m)
        if mm or nn:
            assert img.is_zero()
        else:
            assert img == mono(L, laurent_word(l))


def test_pi_is_coalgebra_map():
    # (pi (x) pi) Delta = Delta_C pi on basis words of length <= 4
    for m in filtration_basis(A, 4):
        lhs = {}
        for (lw, rw), c in _cop_word(A, m).items():
            pl = project_pi(mono(A, lw))
            pr = project_pi(mono(A, rw))
            t = Tensor.of(pl, pr).scale(c)
            for k, v in t.terms.items():
                lhs[k] = lhs.get(k, ZERO) + v
        lhs = {k: v for k, v in lhs.items() if v}
        rhs = {}
        for w, c in project_pi(mono(A, m)).terms.items():
            rhs[(w, w)] = c  # grouplike coproduct on the Laurent quotient
        assert lhs == rhs


def test_left_coaction_and_membership():
    assert left_coaction(A.gen("b")) == Tensor.of(L.gen("z"), A.gen("b"))
    bc = A.gen("b") * A.gen("c")
    assert left_coaction(bc) == Tensor.of(L.one(), bc)
    assert left_coaction(A.one()) == Tensor.of(L.one(), A.one())
    assert coideal_membership(bc)
    assert not coideal_membership(A.gen("b"))
    assert coideal_membership(A.one())


def test_coideal_property_of_sphere_basis():
    for m in filtration_basis(B, 5):
        assert coideal_membership(embed_podles(mono(B, m)))


def test_s2_stability_and_ray_scaling():
    for m in filtration_basis(B, 5):
        e = embed_podles(mono(B, m))
        for power in (2, -2):
            assert coideal_membership(antipode(e, power))
        i, j = podles_index(m)
        assert antipode(mono(B, m), 2) == mono(B, m).scale(
            SYMBOLIC.q_power(-2 * j))


def _triple(alg, w, side):
    out = {}
    for (lw, rw), c in _cop_word(alg, w).items():
        inner = _cop_word(alg, lw if side == "left" else rw)
        for (x, y), cc in inner.items():
            k = (x, y, rw) if side == "left" else (lw, x, y)
            acc = out.get(k, ZERO) + c * cc
            if acc:
                out[k] = acc
            else:
                out.pop(k, None)
    return out


def test_coassociativity_counit_antipode_laws():
    for alg, maxlen in ((A, 4), (L, 4), (S, 4)):
        for m in filtration_basis(alg, maxlen):
            assert _triple(alg, m, "left") == _triple(alg, m, "right")
            p = mono(alg, m)
            t = coproduct(p)
            left = alg.zero()
            right = alg.zero()
            s_left = alg.zero()
            s_right = alg.zero()
            for (lw, rw), c in t.terms.items():
                pl, pr = mono(alg, lw), mono(alg, rw)
                left = left + pr.scale(c * counit(pl))
                right = right + pl.scale(c * counit(pr))
                s_left = s_left + (antipode(pl) * pr).scale(c)
                s_right = s_right + (pl * antipode(pr)).scale(c)
            assert left == p and right == p
            eps = alg.poly({(): counit(p)})
            assert s_left == eps and s_right == eps


def test_b_coproduct_first_legs_in_sphere():
    # Delta(B) sits in B (x) A; the grouped table certifies it on each call
    for m in filtration_basis(B, 4):
        groups = b_coproduct_grouped(B, m)
        total = Tensor.zero(B, A)
        for lw, right in groups.items():
            total = total + Tensor.of(mono(B, lw), right)
        assert total == b_coproduct(mono(B, m))


def test_b_coproduct_coassociativity():
    # (Delta_B (x) id) Delta_B = (id (x) Delta) Delta_B as 3-leg tensors
    for m in filtration_basis(B, 3):
        lhs = {}
        rhs = {}
        for lw, right in b_coproduct_grouped(B, m).items():
            for lw2, right2 in b_coproduct_grouped(B, lw).items():
                for (rw2, rw), c in Tensor.of(right2, right).terms.items():
                    k = (lw2, rw2, rw)
                    acc = lhs.get(k, ZERO) + c
                    if acc:
                        lhs[k] = acc
                    else:
                        lhs.pop(k, None)
            for rw, c in right.terms.items():
                for (x, y), cc in _cop_word(A, rw).items():
                    k = (lw, x, y)
                    acc = rhs.get(k, ZERO) + c * cc
                    if acc:
                        rhs[k] = acc
                    else:
                        rhs.pop(k, None)
        assert lhs == rhs, B.render_word(m)


def test_rho_intertwines_and_inverts():
    t = Tensor.of(B.gen("y0"), A.gen("c"))
    assert rho(rho(t), inverse=True) == t
    assert rho(rho(t, inverse=True)) == t
    assert rho_check(B.one(), B.gen("y0"), A.gen("b"), A.one(), A.gen("c"))
    assert rho_check(B.gen("y0"), B.one(), A.one(), A.one(), A.one())
    assert rho_check(B.gen("y1"), B.gen("y0"), A.gen("a"),
                     embed_podles(B.gen("y-1")), A.gen("d"))
