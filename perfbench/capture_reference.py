"""Write reference/<workload>.json: each workload's reports for seed 42 in
the `qsphere --format json --no-timing` form, from the qsphere in src/.

    python3 perfbench/capture_reference.py

Run it only on a commit whose reports are known good: run.py counts every
later report that differs from these files as a failed check.
"""

from __future__ import annotations

import sys

from run import HERE, REFERENCE_SEED, load_workloads, run_worker


def main():
    for name, spec in load_workloads().items():
        _, out = run_worker(spec, REFERENCE_SEED, "run")
        if out is None or out["crashed"]:
            print(f"error: {name} did not complete", file=sys.stderr)
            return 1
        path = HERE / "reference" / f"{name}.json"
        path.parent.mkdir(exist_ok=True)
        path.write_text(out["reports"] + "\n")
        print(f"wrote {path.relative_to(HERE.parent)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
