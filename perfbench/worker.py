"""One benchmark pass, in a fresh interpreter so every qsphere cache starts
cold, as it does on each `qsphere verify-all` run.

    python3 perfbench/worker.py --spec JSON --seed N --mode {setup,run,trace}
                                [--spans PATH]

The spec is one workload from workloads.json: its field, presets and the
checks with their sizes.  `setup` imports qsphere and builds the presets,
then exits.  `run` also calls the checks in name order and times them from
outside.  `trace` does the same with the layer entry points wrapped by
tracer.Tracer, and writes the spans to PATH when the pass ends.

The last stdout line is one JSON object: run_s and cpu_s (wall and process
CPU seconds from the first check call to the last return), per-check
seconds, peak RSS in KiB, the reports in the `qsphere --no-timing` JSON
form, whether a check raised, and for `trace` the per-layer metrics and
absent entry points.
"""

from __future__ import annotations

import argparse
import inspect
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def setup(spec):
    """Import qsphere and build the workload's presets in its field; returns
    the field the checks must use (presets are cached per field object)."""
    from fractions import Fraction

    from qsphere import ncalg
    from qsphere.scalars import SYMBOLIC, NumericField

    field = SYMBOLIC if spec["field"] == "symbolic" else NumericField(Fraction(spec["field"]))
    for preset in spec["presets"]:
        ncalg.get_algebra(getattr(ncalg, preset), field)
    return field


def check_calls(spec, seed):
    """(name, function, kwargs) per check in name order.  The run seed goes to
    every check that takes one, unless the spec pins it."""
    from qsphere import checks

    calls = []
    for name in sorted(spec["checks"]):
        fn = checks.CHECKS[name]
        kwargs = dict(spec["checks"][name])
        if "seed" in inspect.signature(fn).parameters:
            kwargs.setdefault("seed", seed)
        calls.append((name, fn, kwargs))
    return calls


def render(reports):
    """Reports as `qsphere --format json --no-timing` prints them."""
    for r in reports:
        r["elapsed_ms"] = 0
    return json.dumps(reports, indent=2, default=str)


def run_pass(spec, seed, tracer=None):
    field = setup(spec)
    if tracer is not None:
        tracer.install()
    try:
        calls = check_calls(spec, seed)
        reports, check_s, crashed = [], {}, False
        t_first, c_first = time.perf_counter(), time.process_time()
        for name, fn, kwargs in calls:
            t = time.perf_counter()
            try:
                reports.append(fn(field=field, **kwargs))
            except Exception:  # a crash fails this and every later check
                traceback.print_exc()
                crashed = True
                break
            check_s[name] = time.perf_counter() - t
        run_s = time.perf_counter() - t_first
        cpu_s = time.process_time() - c_first
    finally:
        if tracer is not None:
            tracer.uninstall()
    return {"run_s": run_s, "cpu_s": cpu_s, "check_s": check_s,
            "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            "reports": render(reports), "crashed": crashed}


def write_spans(path, tracer, spec, seed, run_s):
    """Spans as [id, parent id, entry, start us, end us], times relative to
    the first span; written once, after the pass."""
    t0 = min((s[3] for s in tracer.spans), default=0.0)
    doc = {"seed": seed, "spec": spec, "traced_s": run_s,
           "python": sys.version.split()[0], "cpu_count": os.cpu_count(),
           "self_s": tracer.self_s, "calls": tracer.calls,
           "absent": tracer.absent,
           "spans": [[sid, parent, name, round((a - t0) * 1e6, 1),
                      round((b - t0) * 1e6, 1)]
                     for sid, parent, name, a, b in tracer.spans]}
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(doc, fh, separators=(",", ":"))


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--spec", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    ap.add_argument("--spans")
    args = ap.parse_args(argv)
    spec = json.loads(args.spec)
    if args.mode == "setup":
        setup(spec)
        return 0
    tracer = None
    if args.mode == "trace":
        from tracer import Tracer
        tracer = Tracer()
    out = run_pass(spec, args.seed, tracer)
    if tracer is not None:
        out["layers"] = tracer.layer_metrics()
        out["absent"] = tracer.absent
        if args.spans:
            write_spans(Path(args.spans), tracer, spec, args.seed, out["run_s"])
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
