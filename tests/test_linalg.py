import random

import pytest

from qsphere.linalg import Echelon, axpy, determinant, kernel, nullspace, rank
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


def _planted_system(field, rng):
    """Three blocks of sparse rows {key: {col: coeff}} over eight shuffled
    columns, with the cases blockwise pinning must get right planted in
    block 0: a singleton row, a singleton whose entry cancelled to zero
    (pins nothing), and a row of two entries one of whose columns has no
    other block-0 entry (its image has one entry; it pins nothing)."""
    cols = [f"c{k}" for k in range(8)]
    rng.shuffle(cols)

    def coeff():
        return field.from_int(rng.choice((-2, -1, 1, 3))) * field.q_power(
            rng.randint(-2, 2))

    single, cancelled, lone, other = rng.sample(cols, 4)
    rest = [c for c in cols if c not in (single, cancelled, lone)]
    x = coeff()
    blocks = [{("s",): {single: coeff()}, ("z",): {cancelled: x - x},
               ("two",): {lone: coeff(), other: coeff()}}]
    blocks[0].update({(0, r): {c: coeff() for c in rng.sample(rest, 2)}
                      for r in range(rng.randint(0, 2))})
    for b in (1, 2):
        blocks.append({(b, r): {c: coeff() for c in rng.sample(
            cols, rng.randint(1, 3))} for r in range(rng.randint(1, 3))})
    # the cancelled and the lone column must matter to later blocks
    blocks[1][(1, "z")] = {cancelled: coeff(), single: coeff(),
                           rng.choice(rest): coeff()}
    blocks[2][(2, "lone")] = {lone: coeff(), rng.choice(cols): coeff()}
    return cols, blocks


def _image(rows):
    return lambda col: {key: row[col] for key, row in rows.items() if col in row}


@pytest.mark.parametrize("field", [SYMBOLIC, NumericField("3/2")],
                         ids=["symbolic", "q=3/2"])
def test_blockwise_kernel_equals_the_single_block_kernel(field):
    rng = random.Random(2201)
    for _ in range(60):
        cols, blocks = _planted_system(field, rng)
        got = kernel(field, cols, *map(_image, blocks))
        whole = {key: row for rows in blocks for key, row in rows.items()}
        want = kernel(field, cols, _image(whole))
        assert [list(v.items()) for v in got] == [list(v.items()) for v in want]
        # and both solve the system: the equations with the zero dropped
        eqs = [{c: v for c, v in row.items() if not field.is_zero(v)}
               for row in whole.values()]
        assert len(got) == len(cols) - rank(field, eqs)
        for vec in got:
            for row in eqs:
                s = field.zero
                for c, v in row.items():
                    if c in vec:
                        s = s + v * vec[c]
                assert field.is_zero(s)


def test_kernel_pins_by_row_and_evaluates_later_blocks_on_free_columns():
    one, q = SYMBOLIC.one, SYMBOLIC.q_power(1)
    seen = []

    def later(col):
        seen.append(col)
        return {"y": -one} if col == "c" else {"y": one}

    # "a" is pinned; "b"'s image has one entry but its row has three
    first = {"a": {"p": q, "x": one}, "b": {"x": one}, "c": {"x": -one}}
    assert kernel(SYMBOLIC, ["a", "b", "c"], first.get, later) == [
        {"c": one, "b": one}]
    assert seen == ["b", "c"]
    # a zero value is no entry: a cancelled singleton pins nothing
    seen.clear()
    zero_first = {"a": {"p": q - q}, "b": {}, "c": {}}
    assert len(kernel(SYMBOLIC, ["a", "b", "c"], zero_first.get, later)) == 2
    assert seen == ["a", "b", "c"]
