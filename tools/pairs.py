"""Alternating benchmark pairs between two revisions of this repository.

    python3 tools/pairs.py REV_A REV_B --workload W [--pairs N]
                           [--seed0 K] [--setup M] [--bytes]

Both revisions are exported with `git archive` into a temporary directory,
so only committed files are measured.  Pair k runs
`perfbench/run.py --workload W --seed K+k --seconds S --trace 0` once on
each side, one side after the other, with S the run_seconds of side B's
BENCHMARK.json; side A goes first in even pairs and side B in odd ones.
Every run starts from an export with no __pycache__, as a fresh checkout
does (a valid bytecode cache lowers peak_rss_mb by about 1 MB).

For each end-to-end metric the output gives the median [Q1, Q3] of each
side, the ratio B/A of the medians, the median of the per-pair ratios B/A
(`pair_ratio`: a fast or slow phase of the host moves the ratio of
medians, while each pair's ratio compares two runs made one after the
other) and the number of pairs in which B was better, and per side the
failed checks and the runs that did not report `correct` (a failed set-up
pass counts there, not as a failed check).  The exit status is 1 when any
of them is nonzero.  Each summary ends with the same summary as JSON on
one line.

--workload all runs every workload of side B's perfbench/workloads.json in
turn, in file order and on the same seeds, and prints one summary per
workload after the last run.

--setup M also alternates M pairs of `perfbench/worker.py --mode setup`
passes directly on the two exports, after one untimed pass per side that
compiles the bytecode, and gives the same statistics for their CPU seconds
(user + system).  setup_s samples a perfbench run in two bursts per round,
so it follows the host's drift and cannot resolve a change of under about
10 % in 10 pairs; the direct alternation can.

--bytes also compares `qsphere --seed 42 --no-timing verify-all` at full
trials, symbolic and at --q 3/2, between the two exports.
"""

from __future__ import annotations

import argparse
import difflib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BYTES_MODES = ((), ("--q", "3/2"))


def export(rev, dest):
    """Extract the committed files of rev into dest."""
    tar = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev],
                         capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as tf:
        if hasattr(tarfile, "data_filter"):
            tf.extractall(dest, filter="data")
        else:
            tf.extractall(dest)


def clear_bytecode(tree):
    for cache in sorted(Path(tree).rglob("__pycache__"), reverse=True):
        shutil.rmtree(cache)


def schedule(pairs, seed0):
    """(seed, sides in running order) per pair: a distinct seed per pair,
    and the side that goes first alternates."""
    return [(seed0 + k, ("A", "B") if k % 2 == 0 else ("B", "A"))
            for k in range(pairs)]


def _env(tree):
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("QSPHERE_") and k != "PYTHONPATH"}
    env["PYTHONPATH"] = str(Path(tree) / "src")
    return env


def bench(tree, workload, seed, seconds):
    """The final JSON line of one untraced perfbench run in tree."""
    clear_bytecode(tree)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, env=_env(tree), capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"perfbench exited with code {proc.returncode} in {tree}")
    return json.loads(proc.stdout.splitlines()[-1])


def setup_time(tree, spec):
    """CPU seconds (user + system) of one `worker.py --mode setup` pass:
    a fresh interpreter that imports qsphere and builds spec's presets."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    proc = subprocess.run(
        [sys.executable, "perfbench/worker.py", "--spec", json.dumps(spec),
         "--seed", "0", "--mode", "setup"],
        cwd=tree, env=dict(_env(tree), PYTHONHASHSEED="0"),
        capture_output=True, text=True)
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"setup pass exited with code {proc.returncode} in {tree}")
    return (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)


def alternate(pairs, measure):
    """{side: [measure(side) per pair]}, the first side alternating as in
    schedule."""
    values = {"A": [], "B": []}
    for _, order in schedule(pairs, 0):
        for side in order:
            values[side].append(measure(side))
    return values


def quartiles(values):
    """(median, Q1, Q3), with inclusive quartiles."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return med, q1, q3


def summarize(a, b, better="lower"):
    """Per-metric summary of paired runs: a[k] and b[k] come from pair k."""
    if len(a) != len(b) or not a:
        raise ValueError("need the same positive number of runs per side")
    wins = sum((y < x) if better == "lower" else (y > x) for x, y in zip(a, b))
    med_a, med_b = quartiles(a), quartiles(b)
    return {"A": med_a, "B": med_b,
            "ratio": med_b[0] / med_a[0] if med_a[0] else float("nan"),
            "pair_ratio": (statistics.median(y / x for x, y in zip(a, b))
                           if all(a) else float("nan")),
            "B_won": wins, "pairs": len(a)}


def tally(runs):
    """Failed checks and runs not `correct`, per side."""
    return {"failed": {side: sum(r["failed"] for r in rs)
                       for side, rs in runs.items()},
            "incorrect": {side: sum(not r["correct"] for r in rs)
                          for side, rs in runs.items()}}


def exit_status(counts, same):
    """1 when the bytes differ or a run failed a check or was not correct."""
    return 0 if same and not any(n for c in counts.values()
                                 for n in c.values()) else 1


def metric_line(name, s):
    return (f"{name:<12} A {s['A'][0]:.4f} [{s['A'][1]:.4f}, {s['A'][2]:.4f}]"
            f"  B {s['B'][0]:.4f} [{s['B'][1]:.4f}, {s['B'][2]:.4f}]"
            f"  B/A {s['ratio']:.3f} (per pair {s['pair_ratio']:.3f})"
            f"  B better in {s['B_won']}/{s['pairs']}")


def verify_all(tree, mode):
    proc = subprocess.run(
        [sys.executable, "-c", "import sys; from qsphere.cli import main; "
         "sys.exit(main())", "--seed", "42", "--no-timing", *mode,
         "verify-all"], cwd=tree, env=_env(tree), capture_output=True,
        text=True)
    return proc.returncode, proc.stdout


def compare_bytes(trees):
    """True when full-trial verify-all prints the same bytes on both sides,
    in every mode."""
    same = True
    for mode in BYTES_MODES:
        (code_a, out_a), (code_b, out_b) = (verify_all(t, mode) for t in trees)
        name = " ".join(mode) or "symbolic"
        if not out_a or not out_b:
            same = False
            print(f"verify-all {name}: no report (exit {code_a} vs {code_b})")
            continue
        if (code_a, out_a) == (code_b, out_b):
            print(f"verify-all {name}: identical ({len(out_a)} bytes, "
                  f"exit {code_a})")
            continue
        same = False
        print(f"verify-all {name}: DIFFERENT (exit {code_a} vs {code_b})")
        diff = difflib.unified_diff(out_a.splitlines(), out_b.splitlines(),
                                    "A", "B", lineterm="")
        for line in list(diff)[:40]:
            print(line)
    return same


def workload_names(tree, name):
    """[name], or for "all" every workload of tree's workloads.json in file
    order."""
    with open(Path(tree) / "perfbench" / "workloads.json") as fh:
        declared = list(json.load(fh)["workloads"])
    if name == "all":
        return declared
    if name not in declared:
        raise ValueError(f"unknown workload {name!r}; declared: "
                         f"{', '.join(declared)} or all")
    return [name]


def compare_workload(trees, workload, args, declared, run_seconds):
    """Run the pairs and set-up alternations of one workload; returns its
    summary."""
    runs = {"A": [], "B": []}
    for seed, order in schedule(args.pairs, args.seed0):
        for side in order:
            runs[side].append(bench(trees[side], workload, seed, run_seconds))
        print(f"{workload} seed {seed} ({order[0]} first): " + "  ".join(
            f"{m['name']} {runs['A'][-1]['metrics'][m['name']]['value']:.4f}"
            f" -> {runs['B'][-1]['metrics'][m['name']]['value']:.4f}"
            for m in declared), flush=True)
    setup = {}
    if args.setup:
        specs = {}
        for side, tree in trees.items():
            clear_bytecode(tree)
            with open(tree / "perfbench" / "workloads.json") as fh:
                specs[side] = json.load(fh)["workloads"][workload]
            setup_time(tree, specs[side])  # compiles the bytecode
        setup = alternate(args.setup,
                          lambda side: setup_time(trees[side], specs[side]))
    summary = {"workload": workload, "A": args.rev_a, "B": args.rev_b,
               "seeds": ([args.seed0, args.seed0 + args.pairs - 1]
                         if args.pairs else []),
               **tally(runs), "metrics": {}}
    for m in declared if args.pairs else ():
        name = m["name"]
        summary["metrics"][name] = summarize(
            *([r["metrics"][name]["value"] for r in runs[side]] for side in "AB"),
            better=m["better"])
    if setup:
        summary["setup_direct"] = summarize(setup["A"], setup["B"])
    return summary


def print_summary(summary):
    print(f"== {summary['workload']}")
    for name, s in summary["metrics"].items():
        print(metric_line(name, s))
    if "setup_direct" in summary:
        print(metric_line("setup direct", summary["setup_direct"]))
    print(f"failed checks: A {summary['failed']['A']}, B {summary['failed']['B']};"
          f" runs not correct: A {summary['incorrect']['A']},"
          f" B {summary['incorrect']['B']}")
    print(json.dumps(summary))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("rev_a")
    ap.add_argument("rev_b")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=0)
    ap.add_argument("--seed0", type=int, default=2101)
    ap.add_argument("--setup", type=int, default=0)
    ap.add_argument("--bytes", action="store_true")
    args = ap.parse_args(argv)
    if args.pairs < 0 or args.setup < 0 or not args.pairs + args.setup:
        ap.error("--pairs and --setup must be >= 0, and one of them >= 1")

    with tempfile.TemporaryDirectory(prefix="qsphere-pairs-") as tmp:
        trees = {side: Path(tmp) / side for side in "AB"}
        for side, rev in zip("AB", (args.rev_a, args.rev_b)):
            export(rev, trees[side])
        try:
            names = workload_names(trees["B"], args.workload)
        except ValueError as exc:
            ap.error(str(exc))
        with open(trees["B"] / "BENCHMARK.json") as fh:
            benchmark = json.load(fh)
        summaries = [compare_workload(trees, name, args, benchmark["end_to_end"],
                                      benchmark["run_seconds"])
                     for name in names]
        same = compare_bytes([trees["A"], trees["B"]]) if args.bytes else True

    for summary in summaries:
        print_summary(summary)
    return max(exit_status({k: s[k] for k in ("failed", "incorrect")}, same)
               for s in summaries)


if __name__ == "__main__":
    sys.exit(main())
