"""Every narrative script in demos/ runs to completion and prints exactly
its golden output, tests/golden/demos/<name>.txt.

The demos print no timings, so their stdout is deterministic.  To refresh a
golden after an intended change of output, run the demo from the
repository root with PYTHONPATH=src and redirect its stdout to the file.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
GOLDEN = ROOT / "tests" / "golden" / "demos"


def test_demos_are_found():
    assert DEMOS
    assert sorted(p.stem for p in GOLDEN.glob("*.txt")) == \
        [p.stem for p in DEMOS]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_exits_zero(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(demo)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    golden = (GOLDEN / f"{demo.stem}.txt").read_text()
    assert proc.stdout == golden
