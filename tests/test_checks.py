import inspect
from fractions import Fraction

import pytest

from qsphere import checks, duality, hochschild
from qsphere.scalars import SYMBOLIC, NumericField


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


def test_pass_is_result_agreeing_with_expected_on_its_keys(monkeypatch):
    monkeypatch.setattr(checks, "CHECKS", {})

    @checks.check("fake-agrees")
    def agrees(n=2, field=SYMBOLIC):
        return {"count": n, "extra": "ignored"}, {"count": 2}

    @checks.check("fake-contradicts")
    def contradicts(field=SYMBOLIC):
        return {"count": 1}, {"count": 0}

    assert checks.CHECKS == {"fake-agrees": agrees,
                             "fake-contradicts": contradicts}
    rep = agrees()
    assert rep["check"] == "fake-agrees" and rep["params"] == {"n": 2}
    assert rep["pass"] and rep["result"]["extra"] == "ignored"
    assert not agrees(3)["pass"]
    assert not contradicts()["pass"]
    reports, ok = checks.run_all()
    assert not ok and [r["check"] for r in reports] == ["fake-agrees",
                                                        "fake-contradicts"]


# small sizes for every registered check; the rest are defaults
SMALL = {"character-action": {"trials": 1},
         "confluence": {"trials": 1, "maxlen": 2},
         "conjugation-law": {"trials": 1},
         "convolution-transes": {"maxlen": 1},
         "ext-concentration": {"N": 2},
         "h0-grid": {"imax": 0, "jmax": 0},
         "koszul-exactness": {"levels": (2,)},
         "nu-closed-forms": {"maxtotal": 0, "bracket_max": 1},
         "omega-products": {"N": 1},
         "sigma-inverse": {"N": 1, "membership_len": 1},
         "zeta-injectivity": {"jmax": 1}}


def test_every_check_reports_its_arguments_as_params():
    assert sorted(checks.CHECKS) == sorted(SMALL)
    for name, fn in checks.CHECKS.items():
        assert getattr(checks, fn.__name__) is fn  # one object to patch
        sig = inspect.signature(fn).parameters
        want = {k: SMALL[name].get(k, p.default) for k, p in sig.items()
                if k != "field"}
        rep = fn(**SMALL[name])
        assert rep["check"] == name
        assert list(rep["params"].items()) == list(want.items())


def test_checks_taking_trials_reject_fewer_than_one():
    taking = [fn for fn in checks.CHECKS.values()
              if "trials" in inspect.signature(fn).parameters]
    assert len(taking) == 3
    for fn in taking:
        for bad in (0, -2):
            with pytest.raises(ValueError, match="trials must be >= 1"):
                fn(trials=bad)


def test_size_guards_refuse_a_check_with_nothing_to_check():
    # at these sizes the loops are empty and the report would pass
    with pytest.raises(ValueError, match="jmax"):
        checks.check_zeta_injectivity(jmax=0)
    with pytest.raises(ValueError, match="maxtotal"):
        checks.check_nu_closed_forms(maxtotal=-1)


@pytest.mark.parametrize("fn, kwargs, name", [
    (checks.check_confluence, {"maxlen": -1}, "maxlen"),
    (checks.check_koszul_exactness, {"levels": ()}, "levels"),
    (checks.check_sigma, {"membership_len": -1}, "membership_len"),
    (checks.check_convolution_transes, {"maxlen": -1}, "maxlen"),
    # the exactness defects need N >= 2
    (checks.check_koszul_exactness, {"levels": (-1,)}, "levels"),
    (checks.check_koszul_exactness, {"levels": (0,)}, "levels"),
    (checks.check_koszul_exactness, {"levels": (1,)}, "levels"),
    (checks.check_koszul_exactness, {"levels": (2, 1)}, "levels"),
])
def test_size_errors_name_their_argument(fn, kwargs, name):
    with pytest.raises(ValueError, match=name):
        fn(**kwargs)


def test_sigma_relations_catch_a_linear_map_that_is_not_multiplicative(
        monkeypatch):
    real = hochschild.sigma_map

    def double_y0(p, chi=None):
        out = real(p, chi)
        return out.alg.poly({w: c + c if w == (0,) else c
                             for w, c in out.terms.items()})

    small = {"N": 1, "membership_len": 1}
    assert checks.check_sigma(**small)["result"]["relations_preserved"]
    monkeypatch.setattr(hochschild, "sigma_map", double_y0)
    assert not checks.check_sigma(**small)["result"]["relations_preserved"]


def test_check_sigma_validates_no_character(monkeypatch):
    # sigma_map takes its character built once, so the counit sweep of
    # check_sigma never rebuilds (and revalidates) one per call
    calls = []
    real = hochschild.validate_character_b

    def counting(chi, field=SYMBOLIC):
        calls.append(chi)
        return real(chi, field)

    for module in (hochschild, duality):
        monkeypatch.setattr(module, "validate_character_b", counting)
    rep = checks.check_sigma(N=8, field=NumericField(Fraction(3, 2)))
    assert rep["pass"] and calls == []
