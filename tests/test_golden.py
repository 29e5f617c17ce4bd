"""`qsphere --seed 42 --trials 5 --no-timing verify-all` is byte-identical
to the stored reports, in symbolic mode and at q = 3/2.

The goldens under tests/golden/ are the stdout of that command (with
`--q 3/2` for the second); a change that alters any report must regenerate
them and say why.
"""

from pathlib import Path

import pytest

from qsphere.cli import main

GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("name, mode", [("verify_all_symbolic.json", []),
                                        ("verify_all_q3_2.json", ["--q", "3/2"])])
def test_verify_all_matches_golden(capsys, name, mode):
    code = main(["--seed", "42", "--trials", "5", "--no-timing", *mode,
                 "verify-all"])
    # exit 1: zeta-injectivity is red by design
    assert code == 1
    assert capsys.readouterr().out == (GOLDEN / name).read_text()
