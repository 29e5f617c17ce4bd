from qsphere import checks
from qsphere.scalars import SYMBOLIC


def test_run_all_passes_seed_and_trials_by_signature(monkeypatch):
    seen = {}

    def takes_both(seed=0, trials=1, field=SYMBOLIC):
        seen["both"] = (seed, trials)
        return {"pass": True}

    def takes_seed(seed=0, field=SYMBOLIC):
        seen["seed"] = seed
        return {"pass": True}

    def takes_neither(field=SYMBOLIC):
        seen["neither"] = field
        return {"pass": True}

    monkeypatch.setattr(checks, "CHECKS", {"fake-both": takes_both,
                                           "fake-seed": takes_seed,
                                           "fake-neither": takes_neither})
    reports, ok = checks.run_all(seed=7, trials=3)
    assert ok and len(reports) == 3
    assert seen == {"both": (7, 3), "seed": 7, "neither": SYMBOLIC}
    # without trials each check keeps its own default
    checks.run_all(seed=8)
    assert seen["both"] == (8, 1)
