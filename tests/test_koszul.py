import os
import random
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from qsphere.koszul import (KoszulComplex, TruncatedMap, exactness_check,
                            ext_counit_module, koszul_d2_d1_zero,
                            nu_closed_form, nu_reduce, nu_reduce_oracle,
                            quotient_level_basis, zeta_matrix)
from qsphere.ncalg import (PODLES, NCPoly, filtration_basis,
                           get_algebra, grade_decompose, podles_degree,
                           podles_word)
from qsphere.scalars import ONE, Q, SYMBOLIC

B = get_algebra(PODLES)


def test_d2_d1_zero():
    assert koszul_d2_d1_zero(maxlen=6)
    K = KoszulComplex()
    assert K.d1(K.d2(B.one())).is_zero()
    assert K.d1(K.d2(B.gen("y0"))).is_zero()
    assert K.d1(K.d2(B.gen("y1") ** 2)).is_zero()


def test_exactness_small_levels():
    for N in (2, 3, 4):
        r = exactness_check(N)
        assert r["H1_defect_dim"] == 0 and r["H2_defect_dim"] == 0
    with pytest.raises(ValueError):
        exactness_check(1)


def test_shared_defect_helper_kernel_dims():
    # both defect counts come from one helper; pin what it reports
    for N, dim in zip(range(3, 7), (9, 16, 25, 36)):
        r = exactness_check(N)
        assert r["kernel_dim"] == dim
        assert r["H1_defect_dim"] == 0 and r["H2_defect_dim"] == 0
        assert ext_counit_module(N)["dims"] == (0, 0, 1)


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
