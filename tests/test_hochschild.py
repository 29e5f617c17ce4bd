import itertools
import random
from fractions import Fraction

import pytest

from qsphere.duality import Functional, OmegaModule, convolution
from qsphere.hochschild import (Bimodule, Cochain, CharacterFunctional,
                                LazyCochain, argument_window,
                                character_action, cochains_equal,
                                eval_cochain, eval_multi, h0_expected,
                                h0_twisted_center, hochschild_b,
                                random_argument_tuples, random_cochain,
                                sigma_map, twisted_d, xi)
from qsphere.hopf import Tensor, _cop_word, antipode, b_coproduct_grouped
from qsphere.linalg import kernel
from qsphere.ncalg import (PODLES, QSL2, embed_podles, filtration_basis,
                           get_algebra, podles_word, qsl2_word)
from qsphere.scalars import ONE, Q, SYMBOLIC, ZERO, NumericField

B = get_algebra(PODLES)
A = get_algebra(QSL2)
MB = Bimodule("B")
MT = Bimodule("BxA")


def test_b_on_constants():
    phi = Cochain(0, MB, {(): B.gen("y0")})
    v = hochschild_b(phi).eval_words((podles_word(0, 1),))
    assert v == B.monomial(podles_word(1, 1)).scale(Q ** -2 - ONE)
    one = Cochain(0, MB, {(): B.one()})
    bone = hochschild_b(one)
    for m in filtration_basis(B, 2):
        assert bone.eval_words((m,)).is_zero()


def test_multilinear_evaluation_at_polys():
    phi = Cochain(1, MB, {(podles_word(1, 0),): B.gen("y0"),
                          (podles_word(0, 1),): B.gen("y1")})
    arg = B.gen("y0").scale(Q) - B.gen("y1")
    got = eval_cochain(phi, (arg,))
    assert got == B.gen("y0").scale(Q) - B.gen("y1")
    # zero outside the declared support
    assert eval_cochain(phi, (B.gen("y-1"),)).is_zero()


def test_b_squared_zero():
    rng = random.Random(41)
    for k in range(8):
        deg = k % 2
        car = MB if k % 4 < 2 else MT
        phi = random_cochain(rng, deg, car, support=2, entries=3)
        bb = hochschild_b(hochschild_b(phi))
        for ws in argument_window(deg + 2, 1) + random_argument_tuples(rng, deg + 2, 2, 6):
            assert car.is_zero(bb.eval_words(ws))


def test_twisted_d_squared_zero_and_leading_term():
    rng = random.Random(43)
    for k in range(6):
        deg = k % 2
        phi = random_cochain(rng, deg, MT, support=2, entries=3)
        dd = twisted_d(twisted_d(phi))
        for ws in argument_window(deg + 2, 1) + random_argument_tuples(rng, deg + 2, 2, 6):
            assert MT.is_zero(dd.eval_words(ws))
    # degree 0 at the unit coefficient: the value is the Sweedler tensor
    # sum y0_(1) (x) S(y0_(2)), which is nonzero (legs do not multiply)
    one_t = Tensor(B, A, {((), ()): ONE})
    phi = Cochain(0, MT, {(): one_t})
    got = twisted_d(phi).eval_words((podles_word(1, 0),))
    want = Tensor.zero(B, A)
    for lw, right in b_coproduct_grouped(B, podles_word(1, 0)).items():
        for rw, c in antipode(right, 1).terms.items():
            want.add_term(lw, rw, c)
    assert got == want
    assert not got.is_zero()
    # at a counit-zero argument the trailing term drops, at 1 it survives
    got_unit = twisted_d(phi).eval_words(((),))
    assert got_unit.is_zero()  # ad(1) m - eps(1) m = m - m


def test_xi_degree0_identity_and_inverse():
    rng = random.Random(47)
    phi = random_cochain(rng, 0, MT, support=2, entries=2)
    assert xi(phi).eval_words(()) == phi.eval_words(())
    for deg in (0, 1, 2):
        phi = random_cochain(rng, deg, MT, support=2, entries=3)
        rt = xi(xi(phi), inverse=True)
        rt2 = xi(xi(phi, inverse=True))
        for ws in list(phi.table) + random_argument_tuples(rng, deg, 2, 5):
            assert rt.eval_words(ws) == phi.eval_words(ws)
            assert rt2.eval_words(ws) == phi.eval_words(ws)


def test_xi_degree1_explicit_value():
    # phi supported on y0 with value 1 (x) 1: xi(phi)(y0) sums the second
    # legs over the first-leg coefficient of y0 in Delta(y0)
    one_t = Tensor(B, A, {((), ()): ONE})
    phi = Cochain(1, MT, {(podles_word(1, 0),): one_t})
    got = xi(phi).eval_words((podles_word(1, 0),))
    want = Tensor.zero(B, A)
    groups = b_coproduct_grouped(B, podles_word(1, 0))
    for rw, c in groups[podles_word(1, 0)].terms.items():
        want.add_term((), rw, c)
    assert got == want


def test_xi_requires_right_action():
    phi = Cochain(1, MB, {(podles_word(1, 0),): B.one()})
    with pytest.raises(ValueError):
        xi(phi)
    with pytest.raises(ValueError):
        twisted_d(phi)


def test_conjugation_law_spot():
    rng = random.Random(53)
    for deg in (0, 1):
        phi = random_cochain(rng, deg, MT, support=2, entries=3)
        lhs = hochschild_b(xi(phi))
        rhs = xi(twisted_d(phi))
        win = argument_window(deg + 1, 1) + random_argument_tuples(rng, deg + 1, 2, 8)
        assert cochains_equal(lhs, rhs, win)


def test_character_unit_and_action_property():
    rng = random.Random(59)
    phi = random_cochain(rng, 1, MT, support=2, entries=3)
    eps = Functional.char_A(ONE)
    acted = character_action(eps, phi)
    for ws in argument_window(1, 2):
        assert acted.eval_words(ws) == phi.eval_words(ws)
    X = Functional.char_A(Q)
    Y = Functional.char_A(Q ** 2)
    XY = Functional.char_A(X.t * Y.t)
    lhs = character_action(XY, phi)
    rhs = character_action(X, character_action(Y, phi))
    for ws in argument_window(1, 2):
        assert lhs.eval_words(ws) == rhs.eval_words(ws)
    # the convolution of torus characters is the one at t = t_X t_Y = q^3
    assert XY.t == Q ** 3
    conv = convolution(X, Y)
    for w in filtration_basis(A, 3):
        assert conv.on_word(w) == XY.on_word(w), w
    with pytest.raises(ValueError):
        Functional.char_A(ZERO)


def test_character_action_needs_a_torus_character():
    phi = random_cochain(random.Random(59), 1, MT, support=2, entries=3)
    sparse = Functional.sparse(QSL2, {qsl2_word(1, 0, 0): Q})
    conv = convolution(Functional.char_A(Q), Functional.counit(QSL2))
    for X in (sparse, conv):
        with pytest.raises(ValueError, match="torus character"):
            character_action(X, phi)


def test_lazy_cochain_calls_its_formula_once_per_argument_tuple():
    calls = []

    def fn(ws):
        calls.append(ws)
        return MB.zero() + B.monomial(ws[0]) * B.monomial(ws[1])

    phi = LazyCochain(2, MB, fn)
    window = argument_window(2, 1)
    first = [phi.eval_words(ws) for ws in window]
    again = [phi.eval_words(list(ws)) for ws in reversed(window)]
    assert calls == [tuple(ws) for ws in window]
    assert all(a is b for a, b in zip(first, reversed(again)))


def test_character_value_computed_once_per_word(monkeypatch):
    # the value function (one qsl2_index and one power of t) runs once
    # per word, however often the action asks for that word
    X = Functional.char_A(Q * Q)
    calls = []
    value = X.table.fn
    monkeypatch.setattr(X.table, "fn", lambda w: calls.append(w) or value(w))
    phi = random_cochain(random.Random(61), 1, MT, support=2, entries=3)
    acted = character_action(X, hochschild_b(phi))
    for ws in argument_window(2, 1):
        acted.eval_words(ws)
    assert calls and len(calls) == len(set(calls)) == len(X.table)


@pytest.mark.parametrize("field", [SYMBOLIC, NumericField("3/2")],
                         ids=["symbolic", "q=3/2"])
def test_compose_S_is_precomposition_with_the_antipode(field):
    Af = get_algebra(QSL2, field)
    X = Functional.char_A(field.q_power(2) * field.from_int(-3), field)
    XS = X.compose_S()
    assert XS.t == field.one / X.t
    for w in filtration_basis(Af, 4):
        assert XS.on_word(w) == X(antipode(Af.monomial(w), 1)), w


def test_character_commutes_with_b_spot():
    rng = random.Random(61)
    X = Functional.char_A(Q * Q)
    phi = random_cochain(rng, 0, MT, support=2, entries=3)
    lhs = hochschild_b(character_action(X, phi))
    rhs = character_action(X, hochschild_b(phi))
    assert cochains_equal(lhs, rhs, argument_window(1, 3))


def test_twisted_carrier_bimodule():
    # the coordinate ring with a twisted right action is a valid carrier:
    # b^2 = 0, d^2 = 0 and the conjugation law hold on it as well
    rng = random.Random(71)
    MW = Bimodule("A_twist", twist=1)
    assert MW.right_word(A.one(), podles_word(0, 1)) == \
        antipode(MW.right_word(A.one(), podles_word(0, 1)), 0)
    phi = random_cochain(rng, 0, MW, support=2, entries=2)
    bb = hochschild_b(hochschild_b(phi))
    dd = twisted_d(twisted_d(phi))
    for ws in argument_window(2, 1) + random_argument_tuples(rng, 2, 2, 5):
        assert MW.is_zero(bb.eval_words(ws))
        assert MW.is_zero(dd.eval_words(ws))
    lhs = hochschild_b(xi(phi))
    rhs = xi(twisted_d(phi))
    win = argument_window(1, 2)
    assert cochains_equal(lhs, rhs, win)


def test_h0_examples():
    assert [s.render() for s in h0_twisted_center(0, 0, 2)] == ["1"]
    sols = h0_twisted_center(0, 1, 4)
    assert len(sols) == 1 and set(sols[0].terms) == {qsl2_word(0, 1, 1)}
    assert h0_twisted_center(1, 1, 5) == []
    sols = h0_twisted_center(2, 1, 6)
    assert len(sols) == 1 and set(sols[0].terms) == {qsl2_word(0, 2, 0)}
    with pytest.raises(ValueError):
        h0_twisted_center(2, 1, 3)


def _spy_h0_blocks(monkeypatch):
    """Route h0_twisted_center's kernel call through a spy; returns the
    list of (columns, blocks) of every call."""
    from qsphere import hochschild
    seen = []

    def spy(field, cols, *blocks):
        seen.append((cols, blocks))
        return kernel(field, cols, *blocks)

    monkeypatch.setattr(hochschild, "kernel", spy)
    return seen


@pytest.mark.parametrize("field", [SYMBOLIC, NumericField("3/2")],
                         ids=["symbolic", "q=3/2"])
def test_h0_rows_equal_the_ncpoly_commutators(monkeypatch, field):
    # every block on every column, keys in order, against g*p - p*S^(2j)(g)
    # built from NCPoly products, on the default h0-grid; the y0 block first
    Af = get_algebra(QSL2, field)
    gens = [embed_podles(Af.ctx.B.gen(g)) for g in ("y-1", "y0", "y1")]
    seen = _spy_h0_blocks(monkeypatch)
    for j in range(4):
        twisted = [(g, antipode(g, 2 * j)) for g in gens]
        for i in range(-6, 7):
            h0_twisted_center(i, j, 2 * j + abs(i) + 2, field)
            cols, blocks = seen.pop()
            assert len(blocks) == 3
            for k, image in zip((1, 0, 2), blocks):
                g, sg = twisted[k]
                for w in cols:
                    p = Af.monomial(w)
                    old = {(k, iw): c for iw, c in (g * p - p * sg).terms.items()}
                    assert list(image(w).items()) == list(old.items()), (i, j, k, w)


@pytest.mark.parametrize("field", [SYMBOLIC, NumericField("3/2")],
                         ids=["symbolic", "q=3/2"])
@pytest.mark.parametrize("imax, jmax", [(6, 3), (8, 5)])
def test_h0_vectors_equal_the_single_block_kernel(monkeypatch, field, imax,
                                                  jmax):
    # the presolve changes no vector: the kernel of all rows in one block,
    # ordered by generator as before, gives the same ones, keys in order
    seen = _spy_h0_blocks(monkeypatch)
    for j in range(jmax + 1):
        for i in range(-imax, imax + 1):
            sols = h0_twisted_center(i, j, 2 * j + abs(i) + 2, field)
            cols, (y0, ym1, y1) = seen.pop()
            whole = kernel(field, cols, lambda w: {**ym1(w), **y0(w), **y1(w)})
            assert [list(p.terms.items()) for p in sols] == [
                list(v.items()) for v in whole], (i, j)


def test_h0_center_is_constants():
    # weight 0, no twist: the commutant of the sphere inside weight 0
    sols = h0_twisted_center(0, 0, 4)
    assert len(sols) == 1
    assert sols[0] == A.one().scale(next(iter(sols[0].terms.values())))


def test_h0_expected_matches_parity():
    for j in range(4):
        for i in range(-7, 8):
            dim, rep = h0_expected(i, j)
            assert dim == (1 if i % 2 == 0 and abs(i) <= 2 * j else 0)
            if dim:
                l, m, n = 0, j + i // 2, j - i // 2
                assert rep == qsl2_word(l, m, n)


def test_sigma_examples_and_multiplicativity():
    assert sigma_map(B.gen("y1")) == B.gen("y1").scale(Q ** -2)
    assert sigma_map(B.gen("y0")) == B.gen("y0")
    assert sigma_map(B.gen("y-1")) == B.gen("y-1").scale(Q ** 2)
    p = B.gen("y0") * B.gen("y1")
    assert sigma_map(p) == p.scale(Q ** -2)
    rng = random.Random(67)
    basis = filtration_basis(B, 3)
    for _ in range(20):
        x = B.monomial(rng.choice(basis))
        y = B.monomial(rng.choice(basis))
        assert sigma_map(x * y) == sigma_map(x) * sigma_map(y)


def test_sigma_character_validation():
    with pytest.raises(ValueError):
        # chi(y0) = 1 breaks the relations
        sigma_map(B.gen("y0"), Functional.char_B(ZERO, ONE, ZERO))
    F = NumericField(Fraction(3, 2))
    with pytest.raises(ValueError, match="character of the sphere"):
        sigma_map(B.gen("y0"), Functional.char_B(F.zero, F.zero, F.zero, F))
    # chi(y1) = t is a genuine character; its sigma leaves the sphere, so
    # the value comes back over QSL2: q^-2*bd + t*d^2
    from qsphere.ncalg import embed_podles
    out = sigma_map(B.gen("y1"), Functional.char_B(ZERO, ZERO, Q))
    assert out.alg.id == QSL2
    want = embed_podles(B.gen("y1")).scale(Q ** -2) + \
        A.monomial(qsl2_word(-2, 0, 0)).scale(Q)
    assert out == want


# ---------------------------------------------------------------------------
# closed forms of the cochain operators against their coproduct routes
# ---------------------------------------------------------------------------

FIELDS = pytest.mark.parametrize("field", [SYMBOLIC, NumericField("3/2")],
                                 ids=["symbolic", "q=3/2"])


def _nonzero(field, pairs):
    """Sum (word, coeff) pairs into a dict without zero entries."""
    out = {}
    for w, c in pairs:
        out[w] = out[w] + c if w in out else c
    return {w: c for w, c in out.items() if not field.is_zero(c)}


def _act_by_coproduct(X, w, sphere):
    """X.w = w_(1) X(w_(2)) of a basis word, through the coproduct."""
    ctx, field = X.alg.ctx, X.alg.field
    if sphere:
        return _nonzero(field, ((lw, X(right)) for lw, right
                                in b_coproduct_grouped(ctx.B, w).items()))
    return _nonzero(field, ((lw, c * X.on_word(rw))
                            for (lw, rw), c in _cop_word(ctx.A, w).items()))


def _character_action_by_coproduct(X, phi):
    """The character action as (X (x) X) |> phi(S(X).b^1, ...), every
    action through the coproduct and phi expanded by eval_multi."""
    M, XS = phi.carrier, X.compose_S()

    def fn(ws):
        args = tuple(_act_by_coproduct(XS, w, True) for w in ws)
        out = M.zero()
        for (lw, rw), c in eval_multi(phi, args).terms.items():
            for w1, c1 in _act_by_coproduct(X, lw, True).items():
                for w2, c2 in _act_by_coproduct(X, rw, False).items():
                    out.add_term(w1, w2, c * c1 * c2)
        return out

    return LazyCochain(phi.degree, M, fn)


def _torus_parameters(field):
    q = field.q_power
    return [q(1) * field.from_int(2), q(-2) * field.from_int(-3), field.one]


@FIELDS
def test_characters_act_on_basis_words_by_weight(field):
    Bf, Af = get_algebra(PODLES, field), get_algebra(QSL2, field)
    cases = 0
    for t in _torus_parameters(field):
        X = CharacterFunctional(Functional.char_A(t, field))
        oracle = Functional.char_A(t, field)
        for w in filtration_basis(Bf, 6):
            assert X.act_sphere_word(w) == _act_by_coproduct(oracle, w, True), w
            cases += 1
        for w in filtration_basis(Af, 6):
            assert X.act_qsl2_word(w) == _act_by_coproduct(oracle, w, False), w
            cases += 1
    assert cases == 3 * (49 + 140)


@FIELDS
def test_character_action_matches_the_coproduct_formula(field):
    rng = random.Random(83)
    M = Bimodule("BxA", field)
    phi = hochschild_b(random_cochain(rng, 1, M, support=2, entries=4))
    window = argument_window(2, 1, field)
    assert any(not phi.eval_words(ws).is_zero() for ws in window)
    for t in _torus_parameters(field)[:2]:
        X = Functional.char_A(t, field)
        assert cochains_equal(character_action(X, phi),
                              _character_action_by_coproduct(X, phi), window)


def _ad_by_grouped_coproduct(M, w, v):
    """ad(w)v = sum over first legs lw of lw v S(sum of matching right legs)."""
    out = M.zero()
    for lw, right in b_coproduct_grouped(M.B, w).items():
        out = out + M.right_A(M.left_word(lw, v), antipode(right, 1))
    return out


@FIELDS
@pytest.mark.parametrize("kind, twist", [("BxA", 0), ("A_twist", 0),
                                         ("A_twist", 1)])
def test_ad_word_matches_the_grouped_coproduct_route(field, kind, twist):
    rng = random.Random(89)
    M = Bimodule(kind, field, twist=twist)
    for w in filtration_basis(M.B, 3):
        for _ in range(3):
            v = M.random_value(rng)
            assert M.ad_word(w, v) == _ad_by_grouped_coproduct(M, w, v), w


@pytest.mark.parametrize("kind, twist", [
    ("A_twist", 0.5), ("A_twist", 1.0), ("A_twist", True), ("BxA", 1),
    ("B", -1), ("BxA", None)])
def test_bimodule_rejects_a_bad_twist_at_construction(kind, twist):
    with pytest.raises(ValueError, match="twist"):
        Bimodule(kind, twist=twist)


def test_omega_module_rejects_a_fractional_twist():
    with pytest.raises(ValueError, match="twist"):
        OmegaModule(1, 0.5)


# -- the coboundaries and xi against copying arithmetic -----------------------
# hochschild_b, twisted_d, xi and eval_multi add every term into one sparse
# dict; these references build each term as a scaled value and add copies.

def _eval_multi_by_copies(phi, slots):
    expand = [pos for pos, s in enumerate(slots) if isinstance(s, dict)]
    if not expand:
        return phi.eval_words(tuple(slots))
    out = phi.carrier.zero()
    args = list(slots)
    for combo in itertools.product(*[slots[pos].items() for pos in expand]):
        coeff = None
        for pos, (w, c) in zip(expand, combo):
            args[pos] = w
            coeff = c if coeff is None else coeff * c
        out = out + phi.eval_words(tuple(args)).scale(coeff)
    return out


def _faces_by_copies(phi, ws, val):
    M = phi.carrier
    for i in range(1, phi.degree + 1):
        merged = M.B.mul_words(ws[i - 1], ws[i])
        sub = _eval_multi_by_copies(phi, ws[:i - 1] + (merged,) + ws[i + 1:])
        val = val + sub.scale(M.field.from_int((-1) ** i))
    return val


def _b_by_copies(phi):
    n, M = phi.degree, phi.carrier

    def fn(ws):
        val = _faces_by_copies(phi, ws, M.left_word(ws[0], phi.eval_words(ws[1:])))
        trail = M.right_word(phi.eval_words(ws[:n]), ws[n])
        return val + trail.scale(M.field.from_int((-1) ** (n + 1)))

    return LazyCochain(n + 1, M, fn)


def _twisted_d_by_copies(phi):
    n, M = phi.degree, phi.carrier

    def fn(ws):
        val = _faces_by_copies(phi, ws, M.ad_word(ws[0], phi.eval_words(ws[1:])))
        if ws[n] == ():
            val = val + phi.eval_words(ws[:n]).scale(
                M.field.from_int((-1) ** (n + 1)))
        return val

    return LazyCochain(n + 1, M, fn)


def _xi_by_copies(phi, inverse=False):
    M = phi.carrier

    def fn(ws):
        groups = [b_coproduct_grouped(M.B, w) for w in ws]
        out = M.zero()
        for legs in itertools.product(*groups):
            prod = M.A.one()
            for g, lw in zip(groups, legs):
                prod = prod * g[lw]
            if inverse:
                prod = antipode(prod, 1)
            out = out + M.right_A(phi.eval_words(legs), prod)
        return out

    return LazyCochain(phi.degree, M, fn)


@FIELDS
@pytest.mark.parametrize("kind, twist", [("B", 0), ("BxA", 0), ("A_twist", 0),
                                         ("A_twist", 1)])
def test_accumulating_operators_match_copying_arithmetic(field, kind, twist):
    rng = random.Random(97)
    M = Bimodule(kind, field, twist=twist)
    nonzero = 0
    for deg in (0, 1, 2):
        phi = random_cochain(rng, deg, M, support=2, entries=3)
        ops = [(hochschild_b(phi), _b_by_copies(phi))]
        if kind != "B":
            ops += [(twisted_d(phi), _twisted_d_by_copies(phi)),
                    (xi(phi), _xi_by_copies(phi)),
                    (xi(phi, inverse=True), _xi_by_copies(phi, inverse=True))]
        for got, want in ops:
            window = argument_window(got.degree, 2 if got.degree < 3 else 1,
                                     field)
            for ws in window:
                value = got.eval_words(ws)
                assert value == want.eval_words(ws), (kind, deg, ws)
                nonzero += not value.is_zero()
        polys = [M.B.poly({w: field.q_power(k) for k, w in enumerate(
            rng.sample(filtration_basis(M.B, 2), 3))}) for _ in range(deg)]
        slots = tuple(p.terms for p in polys)
        assert eval_multi(phi, slots) == _eval_multi_by_copies(phi, slots)
    assert nonzero >= 50     # the windows reach the support
