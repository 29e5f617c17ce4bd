"""The verification suite: every headline identity as a structured check.

A check is a function decorated with `@check(name)`: its body computes and
returns (result, expected), and the decorator registers it in CHECKS and
turns that pair into the report dict

    {check, params, result, expected, pass, elapsed_ms}

where params are the bound arguments less field, and pass holds iff result
equals expected on every key of expected.  Values are exact and rendered as
text, so a run is machine-diffable.  run_all executes every check in name
order with per-check seeded randomness and is deterministic for a fixed
configuration.

One check is expected to stay red: zeta-injectivity asserts the y0-block
entry pattern (diagonal q, subdiagonal 2) and the 2^j composite determinant
that the verified reduction calculus contradicts; the matrix honestly has
diagonal -q and subdiagonal 0 (witness: y0*z1 + q*y0 = q^2*y1*z-1), its
full column rank does hold, and that composite determinant is 0.  The
report carries both the asserted and the actual values.
"""

from __future__ import annotations

import functools
import inspect
import random
import time

from . import duality, hochschild, koszul
from .hopf import antipode, coideal_membership
from .ncalg import (PODLES, QSL2, embed_podles, filtration_basis,
                    get_algebra, podles_word)
from .scalars import SYMBOLIC, q_bracket, q_int_bracket


CHECKS = {}


def _report(check, params, result, expected, t0):
    """The report of one check; it passes iff result agrees with expected
    on every key of expected (result may carry more keys)."""
    return {"check": check, "params": params, "result": result,
            "expected": expected,
            "pass": all(result[k] == v for k, v in expected.items()),
            "elapsed_ms": int((time.perf_counter() - t0) * 1000)}


def check(name):
    """Register a check under name.  The body returns (result, expected);
    the wrapper rejects trials < 1, times the body and builds the report."""
    def register(body):
        sig = inspect.signature(body)

        @functools.wraps(body)
        def wrapper(*args, **kwargs):
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            params = {k: v for k, v in bound.arguments.items() if k != "field"}
            if params.get("trials", 1) < 1:
                raise ValueError(f"trials must be >= 1, got {params['trials']}")
            t0 = time.perf_counter()
            return _report(name, params, *body(*bound.args, **bound.kwargs), t0)

        CHECKS[name] = wrapper
        return wrapper
    return register


def _rng(seed, name):
    return random.Random(f"{seed}:{name}")


# ---------------------------------------------------------------------------

@check("confluence")
def check_confluence(seed=42, trials=1000, maxlen=8, field=SYMBOLIC):
    """Random words reduce to strategy-independent normal forms, and
    z-1*z1 - q^2*z1*z-1 normal-forms to zero."""
    if maxlen < 0:
        raise ValueError(f"maxlen must be >= 0, got {maxlen}")
    rng = _rng(seed, "confluence")
    mismatches = {}
    ctx = get_algebra(PODLES, field).ctx
    for alg in (ctx.A, ctx.B, ctx.C, ctx.Z2):
        bad = 0
        for _ in range(trials):
            n = rng.randint(0, maxlen)
            word = tuple(rng.randrange(len(alg.gens)) for _ in range(n))
            coeff = field.q_power(rng.randint(-2, 2)) * field.from_int(
                rng.choice([-3, -2, -1, 1, 2, 3]))
            left = alg.reduce_terms({word: coeff}, "leftmost")
            right = alg.reduce_terms({word: coeff}, "rightmost")
            if left != right:
                bad += 1
        mismatches[alg.id] = bad
    rel = koszul.KoszulComplex(field).relation
    return ({"mismatches": mismatches, "z_relation": rel.render()},
            {"mismatches": {a: 0 for a in mismatches}, "z_relation": "0"})


@check("koszul-exactness")
def check_koszul_exactness(levels=(2, 6, 10), field=SYMBOLIC):
    """d1 o d2 = 0 symbolically and vanishing truncated homology defects."""
    if not levels:
        raise ValueError("levels must name at least one filtration level")
    if min(levels) < 2:
        raise ValueError(f"levels must all be >= 2, got {min(levels)}")
    sym = koszul.koszul_d2_d1_zero(max(levels), field)
    defects = {}
    for N in levels:
        r = koszul.exactness_check(N, field)
        defects[N] = (r["H1_defect_dim"], r["H2_defect_dim"])
    return ({"d1_d2_zero": sym,
             "defects": {str(k): v for k, v in defects.items()}},
            {"d1_d2_zero": True, "defects": {str(k): (0, 0) for k in levels}})


@check("ext-concentration")
def check_ext_concentration(N=8, field=SYMBOLIC):
    """Truncated Ext of the counit module: dims (0, 0, 1), character 0."""
    r = koszul.ext_counit_module(N, field)
    char = {k: field.render(v) for k, v in r["character"].items()}
    return ({"dims": list(r["dims"]), "character": char},
            {"dims": [0, 0, 1], "character": {"y-1": "0", "y0": "0", "y1": "0"}})


@check("nu-closed-forms")
def check_nu_closed_forms(maxtotal=10, bracket_max=6, field=SYMBOLIC):
    """nu_reduce against the closed forms and the independent oracle, and
    the bracket coefficient pinned by the oracle."""
    if maxtotal < 0:
        raise ValueError(f"maxtotal must be >= 0, got {maxtotal}")
    B = get_algebra(PODLES, field)
    ym1_failures = []
    oracle_failures = []
    for i in range(maxtotal + 1):
        for j in range(-(maxtotal - i), maxtotal - i + 1):
            red = koszul.nu_reduce(B.monomial(podles_word(i, j)))
            if red != koszul.nu_reduce_oracle(i, j, field):
                oracle_failures.append((i, j))
            if j <= 0 and red != koszul.nu_closed_form(i, j, field):
                ym1_failures.append((i, j))
    # extract the bracket from the oracle: the coefficient of nu(y0^(1+r))
    # in nu(y0*y1^j) equals (-1)^j q^((-2r+1)j + r^2) * (j r)_q
    bracket_failures = []
    rival_rejected = False
    for j in range(1, bracket_max + 1):
        red = koszul.nu_reduce_oracle(1, j, field)
        for r in range(j + 1):
            c = red.get(podles_word(1 + r, 0), field.zero)
            pre = field.q_power((-2 * r + 1) * j + r * r)
            if j % 2:
                pre = -pre
            extracted = c / pre
            if extracted != q_bracket(j, r, field):
                bracket_failures.append((j, r))
            if extracted != q_int_bracket(j, r, field):
                rival_rejected = True
    return ({"ym1_closed_form_failures": ym1_failures,
             "oracle_failures": oracle_failures,
             "bracket_failures": bracket_failures,
             "rival_candidate_rejected": rival_rejected},
            {"ym1_closed_form_failures": [], "oracle_failures": [],
             "bracket_failures": [], "rival_candidate_rejected": True})


@check("zeta-injectivity")
def check_zeta_injectivity(jmax=8, field=SYMBOLIC):
    """Full column rank of zeta for every level, plus the asserted entry
    pattern (diagonal q, subdiagonal 2, composite determinant 2^j).

    The rank assertion holds.  The pattern and determinant assertions
    contradict the reduction calculus (diagonal is -q, subdiagonal 0, that
    determinant 0) and this check reports them honestly as failed; the
    actual values and the certifying nonzero determinant are included.
    """
    if jmax < 1:
        raise ValueError(f"jmax must be >= 1, got {jmax}")
    ranks_ok = True
    details = {}
    pattern_ok = True
    det_ok = True
    for j in range(1, jmax + 1):
        _, rep = koszul.zeta_matrix(j, field)
        ranks_ok = ranks_ok and rep["full_column_rank"]
        pattern_ok = pattern_ok and rep["y0_diagonal_is_q"] and rep["y0_subdiagonal_is_2"]
        want_det = field.render(field.from_int(2) ** j)
        det_ok = det_ok and rep["det_rows_without_nu_y0_nu_1"] == want_det
        details[str(j)] = {
            "rank": rep["rank"],
            "y0_diagonal": rep["y0_diagonal"][0],
            "y0_subdiagonal": rep["y0_subdiagonal"][0],
            "composite_det": rep["det_rows_without_nu_y0_nu_1"],
            "expected_composite_det": want_det,
            "injectivity_det": rep["det_rows_without_nu_1_top"],
        }
    return ({"full_column_rank": ranks_ok,
             "pattern_diag_q_subdiag_2": pattern_ok,
             "composite_det_2j": det_ok, "levels": details},
            {"full_column_rank": True, "pattern_diag_q_subdiag_2": True,
             "composite_det_2j": True})


@check("h0-grid")
def check_h0_grid(imax=6, jmax=3, field=SYMBOLIC):
    """Twisted-center dimensions and representatives over the full grid,
    including the j = 0 slice (nonzero only at i = 0)."""
    if imax < 0 or jmax < 0:
        raise ValueError(f"imax and jmax must be >= 0, got {imax} and {jmax}")
    A = get_algebra(QSL2, field)
    grid = {}
    ok = True
    for j in range(jmax + 1):
        for i in range(-imax, imax + 1):
            N = 2 * j + abs(i) + 2
            sols = hochschild.h0_twisted_center(i, j, N, field)
            dim_want, rep_want = hochschild.h0_expected(i, j)
            cell_ok = len(sols) == dim_want
            if cell_ok and dim_want == 1:
                cell_ok = (len(sols[0].terms) == 1
                           and set(sols[0].terms) == {rep_want})
            ok = ok and cell_ok
            grid[f"{i},{j}"] = {
                "dim": len(sols), "dim_expected": dim_want,
                "representative": (A.render_word(next(iter(sols[0].terms)))
                                   if sols else None),
                "ok": cell_ok}
    slice_ok = all(grid[f"{i},0"]["dim"] == (1 if i == 0 else 0)
                   for i in range(-imax, imax + 1))
    return ({"all_cells_ok": ok, "j0_slice_nonzero_only_at_0": slice_ok,
             "grid": grid},
            {"all_cells_ok": True, "j0_slice_nonzero_only_at_0": True})


def _identity_window(rng, degree, field):
    """Argument tuples for a degree-(n+1) cochain identity: the full grid at
    a small filtration level, seeded samples one level up, and one deep
    spot tuple."""
    arity = degree + 1
    if arity == 1:
        return (hochschild.argument_window(1, 2, field)
                + hochschild.random_argument_tuples(rng, 1, 3, 2, field))
    if arity == 2:
        return (hochschild.argument_window(2, 1, field)
                + hochschild.random_argument_tuples(rng, 2, 2, 20, field)
                + hochschild.random_argument_tuples(rng, 2, 3, 1, field))
    return (hochschild.argument_window(3, 1, field)
            + hochschild.random_argument_tuples(rng, 3, 2, 1, field))


@check("conjugation-law")
def check_conjugation_law(seed=42, trials=100, field=SYMBOLIC):
    """b o xi = xi o d on seeded random BxA-valued cochains of degree <= 2
    and support filtration <= 3."""
    rng = _rng(seed, "conjugation")
    M = hochschild.Bimodule("BxA", field)
    failures = 0
    for k in range(trials):
        degree = k % 3
        phi = hochschild.random_cochain(rng, degree, M, support=3, entries=3)
        lhs = hochschild.hochschild_b(hochschild.xi(phi))
        rhs = hochschild.xi(hochschild.twisted_d(phi))
        win = _identity_window(rng, degree, field)
        if not hochschild.cochains_equal(lhs, rhs, win):
            failures += 1
    return {"failures": failures}, {"failures": 0}


@check("character-action")
def check_character_action(seed=42, trials=50, field=SYMBOLIC):
    """b(X phi) = X(b phi) for seeded random characters and cochains of
    degree <= 1 with support filtration <= 3."""
    rng = _rng(seed, "character")
    M = hochschild.Bimodule("BxA", field)
    failures = 0
    for k in range(trials):
        degree = k % 2
        t = field.q_power(rng.randint(-2, 2)) * field.from_int(
            rng.choice([1, 2, 3, -1, -2]))
        X = duality.Functional.char_A(t, field)
        phi = hochschild.random_cochain(rng, degree, M, support=3, entries=3)
        lhs = hochschild.hochschild_b(hochschild.character_action(X, phi))
        rhs = hochschild.character_action(X, hochschild.hochschild_b(phi))
        win = _identity_window(rng, degree, field)
        if not hochschild.cochains_equal(lhs, rhs, win):
            failures += 1
    return {"failures": failures}, {"failures": 0}


@check("sigma-inverse")
def check_sigma(N=8, membership_len=5, field=SYMBOLIC):
    """sigma scales the basis ray e_{ij} by q^(-2j) (i + |j| <= N), the
    explicit left inverse undoes it, sigma preserves the defining
    relations, and S^(+-2) keeps sphere monomials in the sphere."""
    if membership_len < 0:
        raise ValueError(f"membership_len must be >= 0, got {membership_len}")
    B = get_algebra(PODLES, field)
    inv = duality.sigma_inverse_check(N, field)
    # relation preservation: sigma(g1)*sigma(g2) = sum c*sigma(w) for each
    # rewriting rule g1 g2 -> sum c*w of the sphere
    s = hochschild.sigma_map
    rel_ok = all(
        s(B.monomial(lhs[:1])) * s(B.monomial(lhs[1:]))
        == sum((s(B.monomial(w)).scale(c) for c, w in rhs), B.zero())
        for lhs, rhs in B.rules.items())
    stab_failures = []
    for w in filtration_basis(B, membership_len):
        e = embed_podles(B.monomial(w))
        for power in (2, -2):
            if not coideal_membership(antipode(e, power)):
                stab_failures.append((B.render_word(w), power))
    return ({"ray_failures": inv["ray_failures"],
             "roundtrip_failures": inv["roundtrip_failures"],
             "relations_preserved": rel_ok,
             "s2_stability_failures": stab_failures},
            {"ray_failures": [], "roundtrip_failures": [],
             "relations_preserved": True, "s2_stability_failures": []})


@check("convolution-transes")
def check_convolution_transes(maxlen=5, seed=42, field=SYMBOLIC):
    """(chi * gamma) = counit on sphere basis monomials, and the averaging
    map beta is an idempotent right-linear projection onto the sphere."""
    if maxlen < 0:
        raise ValueError(f"maxlen must be >= 0, got {maxlen}")
    rng = _rng(seed, "transes")
    A = get_algebra(QSL2, field)
    B = A.ctx.B
    tr = duality.transes_check(maxlen, None, field)
    idem_failures = []
    for w in filtration_basis(B, maxlen):
        e = B.monomial(w)
        if duality.beta_projection(embed_podles(e)) != e:
            idem_failures.append(B.render_word(w))
    lin_failures = 0
    pool_a = filtration_basis(A, 3)
    pool_b = filtration_basis(B, 2)
    for _ in range(100):
        x = A.monomial(rng.choice(pool_a))
        b = B.monomial(rng.choice(pool_b))
        if duality.beta_projection(x * embed_podles(b)) != duality.beta_projection(x) * b:
            lin_failures += 1
    return ({"transes_failures": tr["failures"],
             "beta_identity_failures": idem_failures,
             "beta_linearity_failures": lin_failures},
            {"transes_failures": [], "beta_identity_failures": [],
             "beta_linearity_failures": 0})


@check("omega-products")
def check_omega_products(N=4, field=SYMBOLIC):
    """Zero membership failures among all pairwise products of truncated
    omega bases for weights in {-1,0,1} and twists in {0,1}."""
    failures = {}
    total = 0
    for n in (-1, 0, 1):
        for m in (0, 1):
            for i in (-1, 0, 1):
                for j in (0, 1):
                    r = duality.omega_product_check(n, m, i, j, N, field)
                    total += r["membership_failures"]
                    if r["membership_failures"]:
                        failures[f"({n},{m})x({i},{j})"] = r["membership_failures"]
    return ({"membership_failures": total, "failing_cells": failures},
            {"membership_failures": 0, "failing_cells": {}})


# ---------------------------------------------------------------------------

def run_all(seed=42, field=SYMBOLIC, trials=None):
    """Run every check in name order, passing seed (and trials, when given)
    to each check whose signature takes it; returns (reports, all_pass)."""
    given = {"seed": seed, "trials": trials}
    reports = []
    for name in sorted(CHECKS):
        fn = CHECKS[name]
        takes = inspect.signature(fn).parameters
        reports.append(fn(field=field, **{k: v for k, v in given.items()
                                           if k in takes and v is not None}))
    return reports, all(r["pass"] for r in reports)
