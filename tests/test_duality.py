import random
from fractions import Fraction

import pytest

from qsphere import duality
from qsphere.duality import (Functional, OmegaModule, beta_projection,
                             convolution, gamma_functional, haar_laurent,
                             omega_basis, omega_membership,
                             omega_product_check, sigma_inverse_apply,
                             sigma_inverse_check, transes_check)
from qsphere.hochschild import Bimodule, h0_twisted_center, sigma_map
from qsphere.hopf import _cop_word, coproduct, project_pi
from qsphere.ncalg import (LAURENT, PODLES, QSL2, embed_podles,
                           express_in_podles, filtration_basis, get_algebra,
                           laurent_word, podles_word, qsl2_word)
from qsphere.scalars import ONE, Q, SYMBOLIC, ZERO, NumericField

FIELDS = pytest.mark.parametrize(
    "field", [SYMBOLIC, NumericField(Fraction(3, 2))], ids=["symbolic", "q=3/2"])

A = get_algebra(QSL2)
B = get_algebra(PODLES)


def test_omega_membership_examples():
    assert omega_membership(A.gen("b"), 1)
    assert omega_membership(A.gen("b") * A.gen("c"), 0)
    assert not omega_membership(A.gen("b"), 0)


def test_omega_basis_examples_and_counts():
    words = {A.render_word(m) for m in omega_basis(0, 2)}
    assert words == {"1", "b*c", "a*c", "d*b"}
    words = {A.render_word(m) for m in omega_basis(1, 1)}
    assert words == {"a", "b"}
    assert omega_basis(5, 1) == []
    for n in range(-3, 4):
        for N in range(5):
            count = sum(1 for l in range(-N, N + 1)
                        for m in range(N - abs(l) + 1)
                        for nn in range(N - abs(l) - m + 1)
                        if l + m - nn == n)
            assert len(omega_basis(n, N)) == count


def test_omega_module_actions_close():
    om = OmegaModule(1, 1)
    v = A.gen("b")
    assert omega_membership(v, 1)
    lv = om.act_left(B.gen("y0"), v)
    rv = om.act_right(v, B.gen("y0"))
    assert omega_membership(lv, 1)
    assert omega_membership(rv, 1)
    # omega(1, 1) is the A_twist carrier with twist 1 on weight-1 elements
    tw = Bimodule("A_twist", twist=1)
    assert lv == tw.left_word(podles_word(1, 0), v)
    assert rv == tw.right_word(v, podles_word(1, 0))


def test_omega_product_instances():
    r = omega_product_check(1, 0, -1, 0, 3)
    assert r["membership_failures"] == 0
    assert all(v == 0 for v in r["spanning_defects"].values())
    r = omega_product_check(0, 1, 0, 1, 3)
    assert r["membership_failures"] == 0
    # unit: products with 1 recover the left factor
    om = omega_basis(1, 2)
    for m in om:
        p = A.monomial(m) * A.one()
        assert omega_membership(p, 1)


def test_convolution_unit_and_characters():
    eps = Functional.counit(QSL2)
    phi = Functional.sparse(QSL2, {qsl2_word(1, 0, 0): ONE,
                                   qsl2_word(0, 1, 1): Q})
    for m in filtration_basis(A, 2):
        assert convolution(eps, phi).on_word(m) == phi.on_word(m)
        assert convolution(phi, eps).on_word(m) == phi.on_word(m)
    X1, X2 = Functional.char_A(Q), Functional.char_A(Q ** 2)
    conv = convolution(X1, X2)
    assert conv(A.gen("a")) == Q ** 3
    assert conv(A.gen("d")) == ONE / Q ** 3
    assert conv(A.gen("b")) == ZERO
    with pytest.raises(ValueError, match="must be nonzero"):
        Functional.char_A(ZERO)


def test_functional_rejects_an_element_of_another_field():
    Aq = get_algebra(QSL2, NumericField(Fraction(3, 2)))
    with pytest.raises(ValueError, match="cannot take"):
        Functional.char_A(Q)(Aq.gen("a") * Aq.gen("a"))


def test_functional_rejects_an_element_of_another_preset():
    with pytest.raises(ValueError, match="cannot take"):
        Functional.counit(LAURENT)(A.gen("a"))


def test_convolution_rejects_factors_over_different_fields():
    eps_q = Functional.counit(QSL2, NumericField(Fraction(3, 2)))
    with pytest.raises(ValueError, match="one field"):
        convolution(eps_q, Functional.char_A(Q))


def test_convolution_rejects_a_left_factor_off_qsl2_and_podles():
    with pytest.raises(ValueError, match="QSL2 or PODLES"):
        convolution(Functional.counit(LAURENT), Functional.char_A(Q))


def test_convolution_associativity_random():
    rng = random.Random(71)
    basis = [m for m in filtration_basis(A, 2)]

    def rnd():
        table = {rng.choice(basis): SYMBOLIC.q_power(rng.randint(-1, 1))
                 for _ in range(3)}
        return Functional.sparse(QSL2, table)

    for _ in range(10):
        f, g, h = rnd(), rnd(), rnd()
        lhs = convolution(convolution(f, g), h)
        rhs = convolution(f, convolution(g, h))
        for w in basis:
            assert lhs.on_word(w) == rhs.on_word(w)


def test_beta_examples_and_projection_laws():
    assert beta_projection(A.gen("a")).is_zero()
    assert beta_projection(A.gen("b") * A.gen("c")) == B.gen("y0")
    assert beta_projection(A.one()) == B.one()
    for m in filtration_basis(B, 5):
        e = B.monomial(m)
        assert beta_projection(embed_podles(e)) == e
    rng = random.Random(73)
    pool_a = filtration_basis(A, 3)
    pool_b = filtration_basis(B, 2)
    for _ in range(100):
        x = A.monomial(rng.choice(pool_a))
        b = B.monomial(rng.choice(pool_b))
        assert beta_projection(x * embed_podles(b)) == beta_projection(x) * b
    # idempotency through the embedding
    x = A.monomial(qsl2_word(1, 2, 0)) + A.gen("b") * A.gen("c")
    bx = beta_projection(x)
    assert beta_projection(embed_podles(bx)) == bx


@FIELDS
def test_beta_is_the_first_leg_one_slice_of_the_coproduct(field):
    # beta runs on the coaction; the full coproduct stays its oracle
    A_ = get_algebra(QSL2, field)
    for w in filtration_basis(A_, 6):
        picked = {rw: c for (lw, rw), c in _cop_word(A_, w).items() if lw == ()}
        assert beta_projection(A_.monomial(w)) == express_in_podles(
            A_.poly(picked)), w


@FIELDS
def test_haar_laurent_is_the_constant_term(field):
    L = get_algebra(LAURENT, field)
    for k in range(-3, 4):
        want = field.one if k == 0 else field.zero
        assert haar_laurent(L.monomial(laurent_word(k))) == want
    p = L.gen("z").scale(field.from_int(2)) + L.scalar(3)
    assert haar_laurent(p) == field.from_int(3)
    assert haar_laurent(L.zero()) == field.zero
    with pytest.raises(ValueError, match="LAURENT"):
        haar_laurent(get_algebra(QSL2, field).gen("a"))


@FIELDS
def test_beta_is_haar_tensor_id_on_the_coaction(field):
    # the expected value is (h o pi (x) id) of the full coproduct, a route
    # independent of the left_coaction that beta reads
    Af = get_algebra(QSL2, field)
    pool = filtration_basis(Af, 4)
    rng = random.Random(79)
    for _ in range(30):
        x = Af.poly({rng.choice(pool): field.q_power(rng.randint(-2, 2))
                     * field.from_int(rng.choice((-2, -1, 1, 3)))
                     for _ in range(4)})
        want = Af.zero()
        for (lw, rw), c in coproduct(x).terms.items():
            want = want + Af.monomial(rw).scale(
                c * haar_laurent(project_pi(Af.monomial(lw))))
        assert embed_podles(beta_projection(x)) == want, x.render()


def test_gamma_and_transes():
    assert gamma_functional(A.one()) == ONE
    r = transes_check(5)
    assert r["pass"], r
    # (chi gamma)(y0) = 0 = counit(y0) is part of the sweep


def test_transes_with_nontrivial_character():
    chi = Functional.char_B(ZERO, ZERO, Q)
    r = transes_check(3, chi)
    assert r["pass"], r


def test_sigma_inverse_roundtrip():
    r = sigma_inverse_check(4)
    assert r["pass"], r


@FIELDS
def test_gamma_memo_matches_gamma_functional(field, monkeypatch):
    Af = get_algebra(QSL2, field)
    gamma = Functional.gamma(None, field)
    words = [m for m in filtration_basis(Af, 4)]
    for w in words:
        assert gamma(Af.monomial(w)) == gamma_functional(Af.monomial(w)), w
    assert set(gamma.table) == set(words)
    x = (Af.gen("a") * Af.gen("d")).scale(field.from_int(3)) \
        - (Af.gen("b") * Af.gen("c")).scale(field.q_power(2)) + Af.one()
    want = gamma_functional(x)
    # every word of x is memoised: evaluating it computes no new gamma value
    monkeypatch.setattr(duality, "gamma_functional", None)
    assert gamma(x) == want
    assert len(gamma.table) == len(words)


@FIELDS
def test_sparse_functional_answers_its_seeded_words_from_the_table(field):
    Af = get_algebra(QSL2, field)
    seeded = {qsl2_word(1, 0, 0): field.q_power(2),
              qsl2_word(0, 1, 1): field.from_int(-3)}
    f = Functional.sparse(QSL2, seeded, field)
    asked = []
    zero = f.table.fn
    f.table.fn = lambda w: asked.append(w) or zero(w)
    for w, c in seeded.items():
        assert f.on_word(w) is c
    assert f(Af.gen("a") * Af.gen("a") + Af.gen("b") * Af.gen("c")) \
        == field.from_int(-3)
    assert asked == [qsl2_word(2, 0, 0)]
    # the seed is copied: the caller's dict gains no word
    assert set(seeded) == {qsl2_word(1, 0, 0), qsl2_word(0, 1, 1)}


@FIELDS
def test_sigma_inverse_check_both_fields(field):
    assert sigma_inverse_check(3, field) == {
        "N": 3, "ray_failures": [], "roundtrip_failures": [], "pass": True}
    # without a gamma argument, sigma_inverse_apply builds its own
    Bf = get_algebra(PODLES, field)
    e = Bf.gen("y0") * Bf.gen("y-1")
    assert sigma_inverse_apply(embed_podles(sigma_map(e))) == e


def test_final_identification_slice():
    # the twist-free slice: the twisted center of the weight family is a
    # line exactly at weight 0, eliminating every other candidate
    for n in range(-4, 5):
        sols = h0_twisted_center(-n, 0, abs(n) + 2)
        assert len(sols) == (1 if n == 0 else 0), n
