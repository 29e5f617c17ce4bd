import random

import pytest

from qsphere.linalg import Echelon, axpy, determinant, nullspace, rank
from qsphere.scalars import ONE, Q, SYMBOLIC, ZERO, NumericField


def test_rank_and_containment():
    v1 = {0: ONE, 1: Q}
    v2 = {0: Q, 1: Q * Q}          # Q * v1
    v3 = {1: ONE, 2: ONE}
    assert rank(SYMBOLIC, [v1, v2]) == 1
    assert rank(SYMBOLIC, [v1, v2, v3]) == 2
    ech = Echelon(SYMBOLIC)
    ech.add(v1)
    ech.add(v3)
    assert ech.contains({0: Q, 1: Q * Q + ONE, 2: ONE})
    assert not ech.contains({2: ONE})
    coords = ech.coordinates({0: Q, 1: Q * Q + ONE, 2: ONE})
    assert coords is not None and len(coords) == 2


def test_nullspace_solves_the_system():
    rng = random.Random(19)
    cols = list(range(6))
    for _ in range(20):
        rows = []
        for _ in range(4):
            row = {c: SYMBOLIC.q_power(rng.randint(-2, 2))
                   for c in rng.sample(cols, rng.randint(1, 4))}
            rows.append(row)
        basis = nullspace(SYMBOLIC, rows, cols)
        ech = Echelon(SYMBOLIC)
        for r in rows:
            ech.add(dict(r))
        assert len(basis) == len(cols) - ech.rank
        for vec in basis:
            for row in rows:
                s = ZERO
                for c, coeff in row.items():
                    if c in vec:
                        s = s + coeff * vec[c]
                assert s == ZERO


def test_determinant_exact():
    m = [[Q, ONE], [ONE, Q]]
    assert determinant(SYMBOLIC, m) == Q * Q - ONE
    m = [[ZERO, ONE], [ZERO, Q]]
    assert determinant(SYMBOLIC, m) == ZERO
    # row swaps flip the sign
    m = [[ZERO, ONE], [ONE, ZERO]]
    assert determinant(SYMBOLIC, m) == -ONE


def test_axpy_drops_cancelled_keys_and_keeps_insertion_order():
    zero = SYMBOLIC.is_zero
    out = {"a": ONE, "b": Q}
    assert axpy(out, [("a", -ONE), ("c", Q)], zero) is out
    assert out == {"b": Q, "c": Q} and "a" not in out
    # a cancelled key that comes back goes to the end
    axpy(out, [("a", Q * Q)], zero)
    assert list(out) == ["b", "c", "a"]
    # zero values are never stored, whether the key is new or cancels
    axpy(out, [("d", ZERO), ("b", -Q)], zero)
    assert list(out) == ["c", "a"]
    # c scales each value before it is added
    axpy(out, [("c", ONE), ("e", Q)], zero, c=Q)
    assert out == {"c": Q + Q, "a": Q * Q, "e": Q * Q}
    assert axpy({}, [("x", ONE)], zero, c=ZERO) == {}


@pytest.mark.parametrize("field", [SYMBOLIC, NumericField("3/2")],
                         ids=["symbolic", "q=3/2"])
def test_pivot_entry_is_the_fields_own_one(field):
    q = field.q_power(1)
    ech = Echelon(field)
    for vec in ({0: q, 1: field.from_int(3)}, {0: q * q, 2: q + field.one},
                {1: field.from_int(-2), 3: q}):
        piv = ech.add(vec)
        assert ech.rows[piv][piv] is field.one
        # the other entries are divided by the pivot coefficient
        assert ech.reduce(vec) == {}
