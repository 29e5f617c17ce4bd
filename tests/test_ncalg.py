import random

import pytest

from qsphere.ncalg import (LAURENT, PODLES, QSL2, SMASH_Z2, Memo, NCPoly,
                           embed_podles, express_in_podles, filtration_basis,
                           get_algebra, grade_decompose, multiply,
                           normal_form, parse_expr, podles_degree,
                           podles_word, qsl2_degree, qsl2_index,
                           qsl2_weight, qsl2_word)
from qsphere.scalars import ONE, Q, SYMBOLIC, NumericField

A = get_algebra(QSL2)
B = get_algebra(PODLES)
L = get_algebra(LAURENT)
S = get_algebra(SMASH_Z2)


def test_normal_form_examples():
    da = normal_form({("d", "a"): 1}, A)
    assert da == A.one() + (A.gen("b") * A.gen("c")).scale(Q ** -1)
    y1m1 = normal_form({("y1", "y-1"): 1}, B)
    assert y1m1 == (B.gen("y0") ** 2).scale(Q ** -2) + B.gen("y0").scale(Q ** -1)
    # z-1 z1 = q^2 z1 z-1 for z(+-1) = y(+-1) + y0
    z1 = B.gen("y1") + B.gen("y0")
    zm1 = B.gen("y-1") + B.gen("y0")
    assert (zm1 * z1 - (z1 * zm1).scale(Q ** 2)).is_zero()
    assert normal_form({(): 1}, A) == A.one()
    with pytest.raises(ValueError):
        normal_form({("w",): 1}, A)


def test_normal_form_refuses_another_presets_or_fields_element():
    with pytest.raises(ValueError, match="algebra mismatch"):
        normal_form(A.gen("c") * A.gen("b"), B)
    with pytest.raises(ValueError, match="algebra mismatch"):
        normal_form(B.gen("y0") * B.gen("y1"),
                    get_algebra(PODLES, NumericField("3/2")))


def test_memo_computes_each_key_once_and_keeps_its_seed():
    calls = []

    def square(k):
        calls.append(k)
        return k * k

    memo = Memo(square, {0: "seed"})
    assert memo[3] == 9 and memo[3] == 9 and memo[0] == "seed"
    assert calls == [3] and memo == {0: "seed", 3: 9}


def test_multiply_examples():
    assert B.gen("y0") * B.gen("y1") == B.monomial(podles_word(1, 1))
    assert A.gen("b") * A.gen("a") == (A.gen("a") * A.gen("b")).scale(Q ** -1)
    assert B.gen("y-1") * B.gen("y1") == \
        (B.gen("y0") ** 2).scale(Q ** 2) + B.gen("y0").scale(Q)
    with pytest.raises(ValueError):
        multiply(A.gen("a"), B.gen("y0"))


def test_confluence_random_strategies():
    rng = random.Random(23)
    for alg in (A, B, L, S):
        for _ in range(200):
            n = rng.randint(0, 8)
            word = tuple(rng.randrange(len(alg.gens)) for _ in range(n))
            coeff = SYMBOLIC.q_power(rng.randint(-2, 2))
            lt = alg.reduce_terms({word: coeff}, "leftmost")
            rt = alg.reduce_terms({word: coeff}, "rightmost")
            assert lt == rt, (alg.id, word)


def test_associativity_random():
    rng = random.Random(31)
    for alg in (A, B, S):
        basis = filtration_basis(alg, 2)
        for _ in range(40):
            p, r, s = (NCPoly(alg, {rng.choice(basis): SYMBOLIC.q_power(rng.randint(-1, 1)),
                                    rng.choice(basis): SYMBOLIC.one})
                       for _ in range(3))
            assert (p * r) * s == p * (r * s)


def test_pow_rejects_negative_and_non_integer_exponents():
    for k in (-1, -2, 1.5, 2.0, "2"):
        with pytest.raises(ValueError):
            A.gen("a") ** k
    assert A.gen("a") ** 0 == A.one()
    assert A.gen("a") ** 2 == A.monomial(qsl2_word(2, 0, 0))


def test_grade_decompose_examples():
    z1 = B.gen("y1") + B.gen("y0")
    comps = grade_decompose(z1, podles_degree())
    assert set(comps) == {0, 1}
    assert comps[1] == B.gen("y1") and comps[0] == B.gen("y0")
    assert grade_decompose(B.one(), podles_degree()) == {0: B.one()}
    f210 = A.monomial(qsl2_word(2, 1, 0))
    assert grade_decompose(f210, qsl2_degree()) == {2: f210}


def test_grading_compatibility_random():
    rng = random.Random(7)
    for grading, alg in ((podles_degree(), B), (qsl2_degree(), A),
                         (qsl2_weight(), A)):
        basis = filtration_basis(alg, 3)
        for _ in range(60):
            w1 = rng.choice(basis)
            w2 = rng.choice(basis)
            d1 = grading.of_word(w1)
            d2 = grading.of_word(w2)
            prod = alg.monomial(w1) * alg.monomial(w2)
            for w in prod.terms:
                assert grading.of_word(w) == d1 + d2


def test_filtration_basis_examples_and_counts():
    names = [B.render_word(m) for m in filtration_basis(B, 1)]
    assert names == ["1", "y-1", "y0", "y1"]
    assert len(filtration_basis(B, 2)) == 9
    for N in range(7):
        want = sum(1 for i in range(N + 1) for j in range(-N, N + 1)
                   if i + abs(j) <= N)
        assert len(filtration_basis(B, N)) == want == (N + 1) ** 2
    names = [L.render_word(m) for m in filtration_basis(L, 2)]
    assert names == ["zinv^2", "zinv", "1", "z", "z^2"]


def test_embed_express_roundtrip():
    assert embed_podles(B.gen("y0")) == A.gen("b") * A.gen("c")
    assert embed_podles(B.gen("y0") ** 2) == (A.gen("b") ** 2) * (A.gen("c") ** 2)
    assert embed_podles(B.one()) == A.one()
    rng = random.Random(3)
    basis = filtration_basis(B, 4)
    for _ in range(40):
        p = NCPoly(B, {rng.choice(basis): SYMBOLIC.q_power(rng.randint(-2, 2))})
        q = NCPoly(B, {rng.choice(basis): SYMBOLIC.one})
        x = p + q
        assert express_in_podles(embed_podles(x)) == x
    # multiplicativity of the embedding
    assert embed_podles(B.gen("y1") * B.gen("y-1")) == \
        embed_podles(B.gen("y1")) * embed_podles(B.gen("y-1"))
    with pytest.raises(ValueError):
        express_in_podles(A.gen("b"))


def test_degree_commutation_characterisation():
    # the degree-l monomials commute with y0 = bc by y0*f = q^(-2l)*f*y0;
    # the exponent sign is pinned by f = a: bc*a = q^(-2)*a*bc
    y0 = embed_podles(B.gen("y0"))
    for m in filtration_basis(A, 6):
        l, _, _ = qsl2_index(m)
        f = A.monomial(m)
        assert (y0 * f - (f * y0).scale(SYMBOLIC.q_power(-2 * l))).is_zero()


def test_parse_expr():
    assert parse_expr("y1*y-1", B) == B.gen("y1") * B.gen("y-1")
    assert parse_expr("q^-2*y0^2 + q^-1*y0", B) == \
        (B.gen("y0") ** 2).scale(Q ** -2) + B.gen("y0").scale(Q ** -1)
    assert parse_expr("(a + b)^2", A) == (A.gen("a") + A.gen("b")) ** 2
    assert parse_expr("z^-2", L) == L.monomial((1, 1))
    assert parse_expr("1/2 * y0", B) == B.gen("y0").scale(ONE / 2)
    assert parse_expr("-3", B) == B.scalar(-3)
    with pytest.raises(ValueError):
        parse_expr("y0 @ y1", B)
    with pytest.raises(ValueError):
        parse_expr("a^-1", A)


@pytest.mark.parametrize("text, terms", [
    ("--y0", [((0,), ONE)]),
    ("y0 - -y1", [((0,), ONE), ((1,), ONE)]),
    ("-(y1) + +y0", [((1,), -ONE), ((0,), ONE)]),
    ("- - -y0 + - y1 - + -q*y-1", [((0,), -ONE), ((1,), -ONE), ((2,), Q)]),
    ("-(-y0 - y1) - -(y1)", [((0,), ONE), ((1,), 2 * ONE)]),
    ("(--y1)*(-y0)", [((0, 1), -Q ** -2)]),
])
def test_parse_expr_sign_runs(text, terms):
    # every run of signs before a term folds to one sign; the terms and
    # their order are those of the two-loop parser this replaced
    assert list(parse_expr(text, B).terms.items()) == terms


@pytest.mark.parametrize("text", ["y0 -", "-", "+ -", ""])
def test_parse_expr_sign_run_needs_a_term(text):
    with pytest.raises(ValueError, match="unexpected end"):
        parse_expr(text, B)


def test_render_matches_grammar():
    p = (B.gen("y0") ** 2).scale(Q ** -2) + B.gen("y0").scale(Q ** -1)
    assert p.render() == "q^-2*y0^2 + q^-1*y0"
    assert parse_expr(p.render(), B) == p
    rng = random.Random(9)
    basis = filtration_basis(B, 3)
    for _ in range(30):
        p = NCPoly(B, {rng.choice(basis): SYMBOLIC.q_power(rng.randint(-2, 2)),
                       rng.choice(basis): SYMBOLIC.from_int(rng.choice([-2, 1, 3]))})
        assert parse_expr(p.render(), B) == p
