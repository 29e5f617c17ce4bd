"""Tests of the benchmark itself, on tiny workloads (a few seconds in all).

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402

TINY = {
    "tiny-sym": {
        "why": "test",
        "field": "symbolic",
        "presets": ["PODLES"],
        "checks": {"confluence": {"trials": 5, "maxlen": 3},
                   "nu-closed-forms": {"maxtotal": 2, "bracket_max": 1},
                   "zeta-injectivity": {"jmax": 2}},
    },
    "tiny-q": {
        "why": "test",
        "field": "3/2",
        "presets": ["QSL2"],
        "checks": {"convolution-transes": {"maxlen": 1},
                   "omega-products": {"N": 1}},
    },
}


@pytest.fixture(scope="module")
def references():
    refs = {}
    for name, spec in TINY.items():
        _, out = run.run_worker(spec, run.REFERENCE_SEED, "run")
        refs[name] = out["reports"] + "\n"
    return refs


@pytest.fixture
def tiny(monkeypatch, tmp_path, references):
    refs = dict(references)
    monkeypatch.setattr(run, "load_workloads", lambda: TINY)
    monkeypatch.setattr(run, "load_reference", lambda name: refs[name])
    monkeypatch.setattr(run, "SPANS_DIR", tmp_path)
    return refs


def declared(kind):
    with open(HERE.parent / "BENCHMARK.json") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def result(capsys, *args):
    assert run.main(list(args)) == 0
    return json.loads(capsys.readouterr().out.splitlines()[-1])


@pytest.mark.parametrize("trace, kind", [("0", "end_to_end"), ("1", "per_layer")])
def test_output_names_every_declared_metric(tiny, capsys, trace, kind):
    res = result(capsys, "--workload", "tiny-sym", "--seed", "7",
                 "--seconds", "0", "--trace", trace)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    units = {k: v["unit"] for k, v in res["metrics"].items()}
    assert units == declared(kind)
    assert all(isinstance(v["value"], (int, float)) for v in res["metrics"].values())


def test_corrupted_report_counts_in_failed_ratio(tiny, capsys):
    tiny["tiny-q"] = tiny["tiny-q"].replace('"membership_failures": 0',
                                            '"membership_failures": 1', 1)
    res = result(capsys, "--workload", "tiny-q", "--seed", "42",
                 "--seconds", "0", "--trace", "0")
    assert not res["correct"]
    assert res["attempted"] == 2 and res["failed"] == 1


def test_failed_checks_rules(references):
    spec, ref = TINY["tiny-sym"], references["tiny-sym"]
    assert run.failed_checks(ref.rstrip("\n"), ref, spec) == []
    reports = json.loads(ref)
    # a crash after the first check fails it and every later check
    assert run.failed_checks(worker.render(reports[:1]), ref, spec) == [
        "nu-closed-forms", "zeta-injectivity"]
    # another seed: verdicts must match, other result values may differ
    reseeded = json.loads(ref)
    reseeded[0]["params"]["seed"] = 7
    assert run.failed_checks(worker.render(reseeded), ref, spec) == []
    reseeded[0]["pass"] = False
    assert run.failed_checks(worker.render(reseeded), ref, spec) == ["confluence"]
    # the deliberate red check turning green is a failure
    green = json.loads(ref)
    green[2]["result"]["pattern_diag_q_subdiag_2"] = True
    assert run.failed_checks(worker.render(green), ref, spec) == ["zeta-injectivity"]


def test_layer_self_times_within_traced_wall():
    tr = tracer.Tracer()
    out = worker.run_pass(TINY["tiny-sym"], 1, tr)
    assert not out["crashed"] and tr.absent == []
    layer_s = [v for k, v in tr.layer_metrics().items() if k.endswith(".self_s")]
    assert all(s >= 0 for s in layer_s)
    assert 0 < sum(layer_s) <= out["run_s"]
    assert tr.calls["checks.check_confluence"] == 1
    assert all(parent < sid for sid, parent, *_ in tr.spans)


def test_tracer_patches_every_reference_and_restores():
    from qsphere import duality, hochschild, hopf
    orig = hopf._cop_word
    tr = tracer.Tracer()
    tr.install()
    try:
        assert hopf._cop_word is not orig
        assert hochschild._cop_word is hopf._cop_word is duality._cop_word
    finally:
        tr.uninstall()
    assert hopf._cop_word is orig and hochschild._cop_word is orig


def test_absent_entry_point_is_reported(monkeypatch):
    entries = dict(tracer.ENTRY_POINTS)
    entries["hopf"] = entries["hopf"] + ("removed_function", "Tensor.removed")
    monkeypatch.setattr(tracer, "ENTRY_POINTS", entries)
    tr = tracer.Tracer()
    out = worker.run_pass(TINY["tiny-q"], 1, tr)
    assert not out["crashed"]
    assert tr.absent == ["hopf.removed_function", "hopf.Tensor.removed"]


def test_workloads_match_benchmark_json():
    with open(HERE.parent / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    workloads = run.load_workloads()
    assert [w["name"] for w in bench["workloads"]] == list(workloads)
    assert all(w["why"] == workloads[w["name"]]["why"] for w in bench["workloads"])
    checks = {c for spec in workloads.values() for c in spec["checks"]}
    assert {f"checks.{c}.s" for c in checks} <= set(declared("per_layer"))


def test_refuses_to_run_without_source(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sigma-q",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
