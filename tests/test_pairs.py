"""The summary statistics and the run order of tools/pairs.py."""

import importlib.util
import json
import math
import shutil
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
    assert s["pair_ratio"] == pytest.approx(0.5)   # of 0.5, 1.25, 1/3, 1, 0.4
    assert (s["B_won"], s["pairs"]) == (3, 5)
    assert pairs.summarize(a, b, "higher")["B_won"] == 1
    with pytest.raises(ValueError):
        pairs.summarize(a, b[:4])
    with pytest.raises(ValueError):
        pairs.summarize([], [])


def test_pair_ratio_follows_the_pairs_when_the_host_changes_pace():
    # the host speeds up after two pairs: B is slower in four pairs of five,
    # but A's median falls in the slow phase and B's in the fast one
    a, b = [1.0, 1.0, 2.0, 2.0, 2.0], [1.1, 1.1, 1.1, 2.1, 2.1]
    s = pairs.summarize(a, b)
    assert s["ratio"] == pytest.approx(1.1 / 2.0)     # B reads 45 % lower
    assert s["pair_ratio"] == pytest.approx(1.05)     # 1.1, 1.1, 0.55, 1.05, 1.05
    assert s["B_won"] == 1
    assert "B/A 0.550 (per pair 1.050)" in pairs.metric_line("run_s", s)
    assert math.isnan(pairs.summarize([0.0, 1.0], [1.0, 1.0])["pair_ratio"])


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


def test_a_run_that_is_not_correct_fails_the_comparison():
    # a failed set-up pass reports correct false with no failed check
    good = {"correct": True, "failed": 0}
    runs = {"A": [good, good], "B": [good, {"correct": False, "failed": 0}]}
    counts = pairs.tally(runs)
    assert counts == {"failed": {"A": 0, "B": 0},
                      "incorrect": {"A": 0, "B": 1}}
    assert pairs.exit_status(counts, same=True) == 1
    clean = pairs.tally({"A": [good], "B": [good]})
    assert pairs.exit_status(clean, same=True) == 0
    assert pairs.exit_status(clean, same=False) == 1
    failed = pairs.tally({"A": [{"correct": False, "failed": 2}], "B": [good]})
    assert failed["failed"] == {"A": 2, "B": 0}
    assert pairs.exit_status(failed, same=True) == 1


def test_setup_passes_alternate_the_first_side_and_are_summarized():
    calls = []
    times = {"A": iter([0.150, 0.140, 0.160, 0.155]),
             "B": iter([0.145, 0.150, 0.130, 0.150])}

    def measure(side):
        calls.append(side)
        return next(times[side])

    values = pairs.alternate(4, measure)
    assert "".join(calls) == "ABBAABBA"
    assert values == {"A": [0.150, 0.140, 0.160, 0.155],
                      "B": [0.145, 0.150, 0.130, 0.150]}
    s = pairs.summarize(values["A"], values["B"])
    assert (s["B_won"], s["pairs"]) == (3, 4)
    assert s["ratio"] == pytest.approx(0.1475 / 0.1525)
    line = pairs.metric_line("setup direct", s)
    assert "B better in 3/4" in line and "B/A 0.967" in line


def _tree(tmp_path, names):
    (tmp_path / "perfbench").mkdir(parents=True)
    (tmp_path / "perfbench" / "workloads.json").write_text(json.dumps(
        {"workloads": {n: {"checks": {}} for n in names}}))
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(
        {"run_seconds": 1, "end_to_end": [{"name": "run_s", "better": "lower"}]}))
    return tmp_path


def test_workload_all_names_every_declared_workload_in_file_order(tmp_path):
    tree = _tree(tmp_path, ["resolution-sym", "cochain-sym", "sigma-q"])
    assert pairs.workload_names(tree, "all") == ["resolution-sym",
                                                 "cochain-sym", "sigma-q"]
    assert pairs.workload_names(tree, "sigma-q") == ["sigma-q"]
    with pytest.raises(ValueError, match="unknown workload"):
        pairs.workload_names(tree, "sigma")


def test_workload_all_runs_each_workload_on_the_same_seeds(tmp_path, monkeypatch,
                                                           capsys):
    src = _tree(tmp_path / "src", ["w1", "w2"])
    calls = []

    def bench(tree, workload, seed, seconds):
        calls.append((tree.name, workload, seed))
        value = 1.0 if tree.name == "A" else 0.5
        return {"correct": True, "failed": 0,
                "metrics": {"run_s": {"value": value}}}

    monkeypatch.setattr(pairs, "export",
                        lambda rev, dest: shutil.copytree(src, dest))
    monkeypatch.setattr(pairs, "bench", bench)
    status = pairs.main(["HEAD~1", "HEAD", "--workload", "all", "--pairs", "2",
                         "--seed0", "7"])
    assert status == 0
    assert calls == [("A", "w1", 7), ("B", "w1", 7), ("B", "w1", 8),
                     ("A", "w1", 8), ("A", "w2", 7), ("B", "w2", 7),
                     ("B", "w2", 8), ("A", "w2", 8)]
    lines = capsys.readouterr().out.splitlines()
    summaries = [json.loads(line) for line in lines if line.startswith("{")]
    assert [s["workload"] for s in summaries] == ["w1", "w2"]
    for s in summaries:
        assert s["seeds"] == [7, 8]
        assert s["metrics"]["run_s"]["B_won"] == 2
    assert lines[-1].startswith('{"workload": "w2"')
