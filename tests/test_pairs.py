"""The summary statistics and the run order of tools/pairs.py."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "pairs.py"
_spec = importlib.util.spec_from_file_location("pairs", _PATH)
pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(pairs)


def test_quartiles_are_inclusive():
    assert pairs.quartiles([5.0, 1.0, 3.0, 2.0, 4.0]) == (3.0, 2.0, 4.0)
    assert pairs.quartiles([1.0, 2.0, 3.0, 4.0]) == (2.5, 1.75, 3.25)
    assert pairs.quartiles([0.7]) == (0.7, 0.7, 0.7)


def test_summary_counts_pairs_won_in_the_better_direction():
    a = [1.0, 2.0, 3.0, 4.0, 5.0]
    b = [0.5, 2.5, 1.0, 4.0, 2.0]     # lower in pairs 0, 2 and 4; a tie
    s = pairs.summarize(a, b, "lower")
    assert s["A"] == (3.0, 2.0, 4.0)
    assert s["B"] == (2.0, 1.0, 2.5)
    assert s["ratio"] == pytest.approx(2.0 / 3.0)
    assert (s["B_won"], s["pairs"]) == (3, 5)
    assert pairs.summarize(a, b, "higher")["B_won"] == 1
    with pytest.raises(ValueError):
        pairs.summarize(a, b[:4])
    with pytest.raises(ValueError):
        pairs.summarize([], [])


def test_schedule_gives_each_pair_its_own_seed_and_alternates_the_first_side():
    plan = pairs.schedule(4, 2101)
    assert [seed for seed, _ in plan] == [2101, 2102, 2103, 2104]
    assert [order for _, order in plan] == [("A", "B"), ("B", "A")] * 2


def test_clear_bytecode_removes_every_cache(tmp_path):
    for sub in ("src/pkg/__pycache__", "perfbench/__pycache__",
                "src/pkg/__pycache__/nested"):
        (tmp_path / sub).mkdir(parents=True, exist_ok=True)
        (tmp_path / sub / "m.cpython-311.pyc").write_bytes(b"")
    (tmp_path / "src/pkg/m.py").write_text("")
    pairs.clear_bytecode(tmp_path)
    assert not list(tmp_path.rglob("__pycache__"))
    assert (tmp_path / "src/pkg/m.py").is_file()
