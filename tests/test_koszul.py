import os
import random
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from qsphere import checks, koszul
from qsphere.koszul import (KoszulComplex, TruncatedMap, exactness_check,
                            ext_counit_module, koszul_d2_d1_zero,
                            nu_closed_form, nu_reduce, nu_reduce_oracle,
                            quotient_level_basis, zeta_matrix)
from qsphere.ncalg import (PODLES, NCPoly, filtration_basis,
                           get_algebra, grade_decompose, podles_degree,
                           podles_index, podles_word)
from qsphere.linalg import Echelon, axpy, kernel, rank
from qsphere.scalars import ONE, Q, SYMBOLIC, NumericField

B = get_algebra(PODLES)
Q32 = NumericField("3/2")


def test_d2_d1_zero():
    assert koszul_d2_d1_zero(maxlen=6)
    K = KoszulComplex()
    assert K.d1(K.d2(B.one())).is_zero()
    assert K.d1(K.d2(B.gen("y0"))).is_zero()
    assert K.d1(K.d2(B.gen("y1") ** 2)).is_zero()


def test_exactness_small_levels():
    # H0 is the class of 1
    for N in range(2, 11):
        r = exactness_check(N)
        assert (r["H0_dim"], r["H1_defect_dim"], r["H2_defect_dim"]) == \
            (1, 0, 0), N
    with pytest.raises(ValueError):
        exactness_check(1)


def test_shared_defect_helper_kernel_dims():
    # both defect counts come from one helper; pin what it reports
    for N, dim in zip(range(3, 7), (9, 16, 25, 36)):
        r = exactness_check(N)
        assert r["kernel_dim"] == dim
        assert r["H1_defect_dim"] == 0 and r["H2_defect_dim"] == 0
        assert ext_counit_module(N)["dims"] == (0, 0, 1)


def _kernel_route(field, B, N, top, middle):
    """The defect quadruple from kernel bases: the kernels of top and
    middle, the kernel vectors that enlarge an incremental span of
    top(F_{N+1}), and F_N modulo middle(K), K the kernel of the long-word
    part of middle over F_{N+1} (+) F_{N+1}, so middle(K) = middle(F_{N+1}
    (+) F_{N+1}) cap F_N."""
    basis = filtration_basis(B, N)
    ker = kernel(field, [(t, w) for t in (0, 1) for w in basis], middle)
    span = Echelon(field)
    for w in filtration_basis(B, N + 1):
        span.add(top(w))
    long_ker = kernel(
        field, [(t, w) for t in (0, 1) for w in filtration_basis(B, N + 1)],
        lambda col: {w: c for w, c in middle(col).items() if len(w) > N})
    inside = rank(field, (axpy({}, ((w, c * v) for col, c in vec.items()
                                    for w, v in middle(col).items()),
                               field.is_zero) for vec in long_ker))
    return (len(kernel(field, basis, top)), len(ker),
            sum(1 for v in ker if span.add(v) is not None),
            len(basis) - inside)


def _record_defects(monkeypatch):
    """Route _truncated_defects through the kernel-basis oracle; returns the
    list of (args, quadruple) of every call."""
    calls = []
    by_rank = koszul._truncated_defects

    def checked(*args):
        got = by_rank(*args)
        assert got[0] == _kernel_route(*args), args[2]
        calls.append((args, got[0]))
        return got

    monkeypatch.setattr(koszul, "_truncated_defects", checked)
    return calls


@pytest.mark.parametrize("field", [SYMBOLIC, Q32], ids=["symbolic", "q=3/2"])
@pytest.mark.parametrize("N", range(2, 7))
def test_defects_by_rank_match_kernel_bases(monkeypatch, field, N):
    calls = _record_defects(monkeypatch)
    r = exactness_check(N, field)
    assert ext_counit_module(N, field)["dims"] == (0, 0, 1)
    assert len(calls) == 2
    assert calls[0][1] == (0, r["kernel_dim"], 0, r["H0_dim"])
    assert calls[0][1] == (0, N * N, 0, 1)
    ext_top_ker, _, ext_outside, ext_coker = calls[1][1]
    assert (ext_top_ker, ext_outside, ext_coker) == (0, 0, 1)


@pytest.mark.parametrize("N", range(2, 5))
def test_defect_ranks_match_sympy(monkeypatch, N):
    sympy = pytest.importorskip("sympy")
    calls = _record_defects(monkeypatch)
    exactness_check(N, Q32)
    ext_counit_module(N, Q32)
    for (_, alg, _, top, middle), (top_ker, mid_ker, _, _) in calls:
        basis = filtration_basis(alg, N)
        for cols, f, ker in ((basis, top, top_ker),
                             ([(t, w) for t in (0, 1) for w in basis],
                              middle, mid_ker)):
            images = [f(c) for c in cols]
            keys = sorted({k for img in images for k in img}, key=repr)
            m = sympy.Matrix([[sympy.Rational(str(img.get(k, 0)))
                               for img in images] for k in keys])
            assert m.rank() == len(cols) - ker


def test_exactness_and_confluence_read_one_z_relation(monkeypatch):
    init = KoszulComplex.__init__

    def bent(self, field=SYMBOLIC):
        init(self, field)
        self.relation = self.z1     # a nonzero stand-in for z-1*z1 - lam*z1*z-1

    assert KoszulComplex().relation.is_zero()
    monkeypatch.setattr(KoszulComplex, "__init__", bent)
    assert not koszul_d2_d1_zero(maxlen=0)
    rep = checks.check_confluence(trials=1, maxlen=0)
    assert rep["result"]["z_relation"] == (B.gen("y1") + B.gen("y0")).render()
    assert rep["pass"] is False


def _lam_q(monkeypatch):
    init = KoszulComplex.__init__

    def lam_q(self, field=SYMBOLIC):
        init(self, field)
        self.lam = field.q_power(1)

    monkeypatch.setattr(KoszulComplex, "__init__", lam_q)


def _d1_minus(monkeypatch):
    monkeypatch.setattr(KoszulComplex, "d1",
                        lambda self, pair: pair[0] * self.z1 - pair[1] * self.zm1)


@pytest.mark.parametrize("mutate", [_lam_q, _d1_minus], ids=["lam=q", "d1-minus"])
def test_koszul_mutants_leave_all_of_ker_d1_outside(monkeypatch, mutate):
    mutate(monkeypatch)
    calls = _record_defects(monkeypatch)
    assert not koszul_d2_d1_zero(maxlen=2)
    for N, dim in ((2, 4), (4, 16)):
        r = exactness_check(N)
        assert r["H1_defect_dim"] == r["kernel_dim"] == dim
    assert len(calls) == 2


def test_d1_through_z1_alone_leaves_a_growing_cokernel(monkeypatch):
    # d1(b, c) = b*z1 + c*z1: the image is B*z1 alone, so H0 = B/B*z1
    monkeypatch.setattr(KoszulComplex, "d1",
                        lambda self, pair: (pair[0] + pair[1]) * self.z1)
    calls = _record_defects(monkeypatch)
    for N, dim in ((2, 5), (4, 9), (6, 13)):
        assert exactness_check(N)["H0_dim"] == dim
    assert [got[3] for _, got in calls] == [5, 9, 13]


def _restated_ext_coboundaries(field):
    """Ext's coboundaries as ext_counit_module once wrote them out:
    f |-> (z1*f, z-1*f) and (f, g) |-> q^-1*z-1*f - q*z1*g, the oracle for
    the side and the order of _multiplication_maps(K, left=True)."""
    B = get_algebra(PODLES, field)
    z1 = B.gen("y1") + B.gen("y0")
    zm1 = B.gen("y-1") + B.gen("y0")
    qi, q1 = field.q_power(-1), field.q_power(1)

    def d0_image(w):
        p = B.monomial(w)
        return {(t, v): c for t, x in enumerate((z1 * p, zm1 * p))
                for v, c in x.terms.items()}

    def d1_image(col):
        t, w = col
        p = B.monomial(w)
        return ((zm1 * p).scale(qi) if t == 0 else (z1 * p).scale(-q1)).terms

    return d0_image, d1_image


def _ext_matches_restated_coboundaries(monkeypatch, field, N):
    """Whether ext_counit_module's count equals the oracle's: the same
    defect quadruple and an echelon with the same rows in the same order
    (the middle map is q times the oracle's, and rows are normalised)."""
    calls = []
    real = koszul._truncated_defects

    def recorded(*args):
        calls.append(real(*args))
        return calls[-1]

    monkeypatch.setattr(koszul, "_truncated_defects", recorded)
    ext_counit_module(N, field)
    (got, ech), = calls
    want, oracle = real(field, get_algebra(PODLES, field), N,
                        *_restated_ext_coboundaries(field))
    return got == want and list(ech.rows.items()) == list(oracle.rows.items())


@pytest.mark.parametrize("field", [SYMBOLIC, Q32], ids=["symbolic", "q=3/2"])
@pytest.mark.parametrize("N", range(2, 9))
def test_ext_is_left_multiplication_by_d1_then_d2(monkeypatch, field, N):
    assert _ext_matches_restated_coboundaries(monkeypatch, field, N)


def _resolution_order_on_the_left(K, left):
    # left multiplication, but by d2's images first and d1's second
    B = K.B
    one, zero = B.one(), B.zero()
    top_gens = K.d2(one)
    mid_gens = (K.d1((one, zero)), K.d1((zero, one)))
    return ((lambda w: {(t, v): c for t, g in enumerate(top_gens)
                        for v, c in (g * B.monomial(w)).terms.items()}),
            (lambda col: (mid_gens[col[0]] * B.monomial(col[1])).terms))


def _right_side(monkeypatch):
    real = koszul._multiplication_maps
    monkeypatch.setattr(koszul, "_multiplication_maps",
                        lambda K, left: real(K, left=False))


def _resolution_order(monkeypatch):
    monkeypatch.setattr(koszul, "_multiplication_maps",
                        _resolution_order_on_the_left)


@pytest.mark.parametrize("mutate", [_right_side, _resolution_order],
                         ids=["right-side", "resolution-order"])
def test_ext_side_mutants_are_caught(monkeypatch, mutate):
    mutate(monkeypatch)
    for field in (SYMBOLIC, Q32):
        assert not _ext_matches_restated_coboundaries(monkeypatch, field, 3)


def test_right_side_mutant_leaves_ext_reports_unchanged(monkeypatch):
    # the resolution's own homology also reads (0, 0, 1) with the counit
    # character, so only the side test above tells the two apart
    _right_side(monkeypatch)
    for field in (SYMBOLIC, Q32):
        r = ext_counit_module(4, field)
        assert r["dims"] == (0, 0, 1)
        assert all(not v for v in r["character"].values())


def test_nu_reduce_certificate_survives_python_O():
    # with an empty ideal echelon the reduction leaves a pivot word; the
    # certificate must raise even when asserts are stripped
    script = textwrap.dedent("""
        from qsphere import koszul
        from qsphere.linalg import Echelon
        from qsphere.ncalg import PODLES, get_algebra
        koszul._nu_echelon = lambda field, L: Echelon(field)
        B = get_algebra(PODLES)
        try:
            print(koszul.nu_reduce(B.gen("y0") * B.gen("y-1")))
        except AssertionError as exc:
            print("raised:", exc)
    """)
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-O", "-c", script],
                         env=dict(os.environ, PYTHONPATH=path),
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "raised: reduction left a pivot"


def test_nu_reduce_examples():
    # trailing y-1 powers collapse onto the y0 ray
    for i in (0, 1, 2, 3):
        red = nu_reduce(B.monomial(podles_word(i, -1)))
        assert red == {podles_word(i + 1, 0): -ONE}
    red = nu_reduce(B.monomial(podles_word(2, -2)))
    assert red == {podles_word(4, 0): Q ** 2}
    assert nu_reduce(B.one()) == {(): ONE}
    # mixed element
    red = nu_reduce(B.monomial(podles_word(1, 2)))
    assert red == nu_reduce_oracle(1, 2)


def test_nu_matches_oracle_and_closed_forms():
    for i in range(7):
        for j in range(-(6 - i), 6 - i + 1):
            red = nu_reduce(B.monomial(podles_word(i, j)))
            assert red == nu_reduce_oracle(i, j), (i, j)
            assert red == nu_closed_form(i, j), (i, j)


def test_nu_oracle_sign_on_y1_branch():
    # nu(y0*y1) = -nu(y0^2) - q*nu(y0): the overall sign is (-1)^j, the
    # witness being y0*z1 + q*y0 = q^2*y1*z-1
    red = nu_reduce_oracle(1, 1)
    assert red == {podles_word(2, 0): -ONE, podles_word(1, 0): -Q}
    z1 = B.gen("y1") + B.gen("y0")
    zm1 = B.gen("y-1") + B.gen("y0")
    witness = B.gen("y0") * z1 + B.gen("y0").scale(Q) - (B.gen("y1") * zm1).scale(Q ** 2)
    assert witness.is_zero()


def _pending_oracle(i, j, field):
    """nu(y0^i y1^j) by the rightmost rewriting loop over a dict of pending
    words, with no memo: the reference for the memoised nu_reduce_oracle."""
    B = get_algebra(PODLES, field)
    pending = {podles_word(i, j): field.one}
    out = {}
    while pending:
        w, c = pending.popitem()
        wi, wj = podles_index(w)
        if wj == 0 or wi == 0 and wj > 0:
            axpy(out, ((w, c),), field.is_zero)
            continue
        if wj < 0:
            head = B.monomial(podles_word(wi, wj + 1))
            step = (head * B.gen("y0")).scale(-field.one)
        else:
            head = B.monomial(podles_word(wi - 1, wj))
            step = (head * B.gen("y-1")).scale(-field.q_power(2 * wj))
        axpy(pending, step.terms.items(), field.is_zero, c)
    return out


@pytest.mark.parametrize("field", [SYMBOLIC, Q32], ids=["symbolic", "q=3/2"])
def test_memoised_oracle_equals_the_pending_loop(field):
    for i in range(13):
        for j in range(-(12 - i), 12 - i + 1):
            assert (nu_reduce_oracle(i, j, field)
                    == _pending_oracle(i, j, field)), (i, j)


def test_oracle_returns_a_copy_of_its_memo():
    red = nu_reduce_oracle(2, 3)
    red.clear()
    assert nu_reduce_oracle(2, 3) == _pending_oracle(2, 3, SYMBOLIC)


def test_oracle_never_calls_the_row_reduction(monkeypatch):
    def refuse(*args):
        raise AssertionError("the oracle reached the echelon")

    field = NumericField("-5/7")    # a context of its own: an empty memo
    get_algebra(PODLES, field)
    monkeypatch.setattr(koszul, "nu_reduce", refuse)
    monkeypatch.setattr(koszul, "_nu_echelon", refuse)
    monkeypatch.setattr(koszul, "_nu_echelon_of", refuse)
    assert nu_reduce_oracle(3, 4, field) == _pending_oracle(3, 4, field)


def test_negative_i_is_refused():
    # podles_word(-1, 0) is (), so a negative i would name another word
    with pytest.raises(ValueError, match="i >= 0"):
        nu_reduce_oracle(-3, 2)
    with pytest.raises(ValueError, match="i >= 0"):
        nu_closed_form(-1, -1)
    with pytest.raises(ValueError, match="i >= 0"):
        nu_closed_form(-2, 3, Q32)


@pytest.mark.parametrize("field", [SYMBOLIC, Q32], ids=["symbolic", "q=3/2"])
def test_nu_echelons_extend_the_level_below_like_a_fresh_build(field):
    # a fresh build adds w*z-1 for every w in F_(L-1); the cached level L
    # copies level L-1 and adds the words of length L-1
    from qsphere.koszul import _nu_echelon, _nu_order
    Bf = get_algebra(PODLES, field)
    zm1 = KoszulComplex(field).zm1
    fresh = Echelon(field, column_order=_nu_order)
    words = filtration_basis(Bf, 12)
    for L in range(13):
        if L:
            for w in words:
                if len(w) == L - 1:
                    fresh.add((Bf.monomial(w) * zm1).terms)
        cached = _nu_echelon(field, L)
        assert ([(p, list(r.items())) for p, r in cached.rows.items()]
                == [(p, list(r.items())) for p, r in fresh.rows.items()]), L


def test_residue_classes_linearly_independent():
    # the ideal's echelon never pivots on a quotient basis word, so the
    # residue classes stay independent: rank F_N - rank(ideal cap F_N) = 2N+1
    from qsphere.koszul import _nu_echelon
    for N in (4, 6, 8, 10):
        ech = _nu_echelon(SYMBOLIC, N)
        assert ech.rank == N * N
        assert len(filtration_basis(B, N)) - ech.rank == 2 * N + 1


def test_zeta_matrix_structure():
    tmap, rep = zeta_matrix(4)
    assert rep["full_column_rank"]
    assert [m for m in tmap.domain_basis] == \
        [m for m in quotient_level_basis(4)]
    # nu(1) column: zeta(nu(1)) = nu(y0) + nu(y1)
    col = tmap.domain_basis.index(())
    rows = {m: r for r, m in enumerate(tmap.codomain_basis)}
    assert tmap.matrix[rows[podles_word(1, 0)]][col] == ONE
    assert tmap.matrix[rows[podles_word(0, 1)]][col] == ONE
    # the actual y0-block: diagonal -q, vanishing subdiagonal
    assert rep["y0_diagonal"] == ["-q"] * 5
    assert rep["y0_subdiagonal"] == ["0"] * 5
    # deleting the nu(1) and top-y0 rows leaves determinant (-q)^(j+1)
    assert rep["det_rows_without_nu_1_top"] == (-Q).__pow__(5).render()
    # the composite used with rows nu(y0), nu(1) removed is singular
    assert rep["det_rows_without_nu_y0_nu_1"] == "0"


def test_zeta_images_stay_one_level_up():
    for j in range(1, 9):
        _, rep = zeta_matrix(j)
        assert rep["full_column_rank"]
        assert rep["upper_right_block_nonzero"]


def test_ext_larger_level():
    r = ext_counit_module(10)
    assert r["dims"] == (0, 0, 1)
    assert all(not v for v in r["character"].values())


def test_truncated_map_membership_guard():
    dom = quotient_level_basis(1)
    cod = quotient_level_basis(1)  # too small: zeta leaves it
    z1 = B.gen("y1") + B.gen("y0")
    images = [nu_reduce(B.monomial(m) * z1) for m in dom]
    with pytest.raises(ValueError):
        TruncatedMap(SYMBOLIC, dom, cod, images)


def test_ext_concentration_and_character():
    r = ext_counit_module(6)
    assert r["dims"] == (0, 0, 1)
    assert all(not v for v in r["character"].values())
    # the ideal identity behind degree 2: q*z1*y-1 - q^-1*z-1*y0 = y0
    z1 = B.gen("y1") + B.gen("y0")
    zm1 = B.gen("y-1") + B.gen("y0")
    lhs = (z1 * B.gen("y-1")).scale(Q) - (zm1 * B.gen("y0")).scale(Q ** -1)
    assert lhs == B.gen("y0")


def test_ext_rejects_a_residue_off_the_line_of_one(monkeypatch, capsys):
    from qsphere import linalg
    from qsphere.cli import main
    reduce = linalg.Echelon.reduce
    y0 = B.gen("y0").terms

    def skewed(self, vec):
        rem = reduce(self, vec)
        if vec == y0:
            rem[podles_word(9, 0)] = ONE
        return rem

    monkeypatch.setattr(linalg.Echelon, "reduce", skewed)
    with pytest.raises(AssertionError, match="residue of y0"):
        ext_counit_module(3)
    assert main(["ext", "--N", "3"]) == 3
    assert "internal error" in capsys.readouterr().err


def test_right_ideal_not_homogeneous():
    rng = random.Random(13)
    zm1 = B.gen("y-1") + B.gen("y0")
    basis = filtration_basis(B, 6)
    deg = podles_degree()
    for _ in range(40):
        terms = {}
        for _ in range(rng.randint(1, 3)):
            terms[rng.choice(basis)] = SYMBOLIC.q_power(rng.randint(-2, 2))
        a = B.poly(terms)
        if a.is_zero():
            continue
        comps = grade_decompose(a * zm1, deg)
        assert len(comps) >= 2
