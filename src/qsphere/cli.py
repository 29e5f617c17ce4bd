"""Command-line front end: normal forms, Hopf structure maps, the homology
checks, and the full verification suite.

Exit codes: 0 all requested checks pass, 1 a check failed, 2 usage error,
3 internal error.  Flags can also be set through QSPHERE_* environment
variables (QSPHERE_SEED, QSPHERE_N, QSPHERE_Q, ...); explicit flags win.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
import time
from fractions import Fraction

from . import checks, duality, hochschild, koszul
from .hopf import antipode, coideal_membership, coproduct, left_coaction, project_pi
from .ncalg import (LAURENT, PODLES, QSL2, SMASH_Z2, get_algebra, parse_expr)
from .scalars import SYMBOLIC, NumericField

_ALG_NAMES = {"qsl2": QSL2, "podles": PODLES, "laurent": LAURENT,
              "smash": SMASH_Z2}


def _env_default(name, cast, fallback, choices=None):
    raw = os.environ.get(f"QSPHERE_{name}")
    if raw is None:
        return fallback
    try:
        value = cast(raw)
    except ValueError:
        raise ValueError(f"QSPHERE_{name}={raw!r} is not a valid "
                         f"{cast.__name__}") from None
    if choices is not None and value not in choices:
        raise ValueError(f"QSPHERE_{name}={raw!r} is not one of "
                         f"{', '.join(choices)}")
    return value


def build_parser():
    p = argparse.ArgumentParser(
        prog="qsphere",
        description="exact computations on the quantized SL(2) ring and the "
                    "standard Podles sphere")
    p.add_argument("--q", default=_env_default("Q", str, None),
                   help="run in specialized mode with q = this exact rational")
    p.add_argument("--seed", type=int,
                   default=_env_default("SEED", int, 42))
    p.add_argument("--trials", type=int,
                   default=_env_default("TRIALS", int, None))
    formats = ("json", "csv", "text")
    p.add_argument("--format", choices=formats,
                   default=_env_default("FORMAT", str, "json", formats))
    p.add_argument("--out", default=_env_default("OUT", str, None),
                   help="write the report to this path instead of stdout")
    p.add_argument("--no-timing", action="store_true",
                   help="zero out elapsed_ms fields for byte-identical output")
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser("nf", help="normal form of an expression")
    s.add_argument("--algebra", choices=sorted(_ALG_NAMES), default="podles")
    s.add_argument("expr")

    s = sub.add_parser("delta", help="coproduct of an expression")
    s.add_argument("--algebra", choices=sorted(_ALG_NAMES), default="qsl2")
    s.add_argument("expr")

    s = sub.add_parser("antipode", help="antipode power of an expression")
    s.add_argument("--algebra", choices=sorted(_ALG_NAMES), default="qsl2")
    s.add_argument("--power", type=int, default=1)
    s.add_argument("expr")

    s = sub.add_parser("pi", help="project to the Laurent quotient")
    s.add_argument("expr")

    s = sub.add_parser("member", help="coideal membership of a QSL2 expression")
    s.add_argument("expr")

    s = sub.add_parser("koszul-verify", help="complex and truncated exactness")
    s.add_argument("--N", type=int, default=_env_default("N", int, 6))

    s = sub.add_parser("ext", help="truncated Ext of the counit module")
    s.add_argument("--N", type=int, default=_env_default("N", int, 8))

    s = sub.add_parser("zeta", help="the multiplication matrix on the quotient")
    s.add_argument("--jmax", type=int, default=4)

    s = sub.add_parser("h0-table", help="twisted-center dimension grid")
    s.add_argument("--imax", type=int, default=6)
    s.add_argument("--jmax", type=int, default=3)

    s = sub.add_parser("xi-check", help="conjugation law on random cochains")
    s.add_argument("--trials", type=int, default=None, dest="xi_trials")

    s = sub.add_parser("sigma", help="apply the modular-type automorphism")
    s.add_argument("--apply", required=True, metavar="EXPR")
    s.add_argument("--chi", default=None,
                   help="character values 'v(y-1),v(y0),v(y1)' (default counit)")

    s = sub.add_parser("omega-basis", help="truncated basis of omega(n, m)")
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--m", type=int, default=0)
    s.add_argument("--N", type=int, default=_env_default("N", int, 4))

    s = sub.add_parser("fridge-check", help="composition law membership check")
    s.add_argument("--N", type=int, default=_env_default("N", int, 4))

    s = sub.add_parser("beta", help="apply the averaging projection")
    s.add_argument("--apply", required=True, metavar="EXPR")

    s = sub.add_parser("transes-check", help="chi * gamma = counit instances")
    s.add_argument("--N", type=int, default=_env_default("N", int, 5))

    s = sub.add_parser("sigma-inv-check", help="left inverse of sigma")
    s.add_argument("--N", type=int, default=_env_default("N", int, 5))

    sub.add_parser("verify-all", help="run the whole verification suite")
    return p


def _field(args):
    if args.q is None:
        return SYMBOLIC
    try:
        q0 = Fraction(args.q)
    except ZeroDivisionError:
        raise ValueError(f"--q {args.q}: division by zero") from None
    return NumericField(q0)


def _emit(args, payload):
    reports = payload if isinstance(payload, list) else [payload]
    if args.no_timing:
        for r in reports:
            if "elapsed_ms" in r:
                r["elapsed_ms"] = 0
    if args.format == "json":
        text = json.dumps(payload, indent=2, default=str)
    elif args.format == "csv":
        buf = io.StringIO()
        w = csv.writer(buf)
        if "check" in reports[0]:
            w.writerow(["check", "pass", "elapsed_ms", "params", "result",
                        "expected"])
            for r in reports:
                w.writerow([r.get("check"), r.get("pass"), r.get("elapsed_ms"),
                            json.dumps(r.get("params"), default=str),
                            json.dumps(r.get("result"), default=str),
                            json.dumps(r.get("expected"), default=str)])
        else:
            # a plain payload: its own keys, each value JSON-encoded
            w.writerow(payload)
            w.writerow([json.dumps(v, default=str) for v in payload.values()])
        text = buf.getvalue().rstrip("\n")
    else:
        lines = []
        for r in reports:
            if "check" in r:
                lines.append(f"{'PASS' if r.get('pass') else 'FAIL'}  "
                             f"{r.get('check')}  ({r.get('elapsed_ms')} ms)")
                lines.append(f"  result:   {json.dumps(r.get('result'), default=str)}")
                lines.append(f"  expected: {json.dumps(r.get('expected'), default=str)}")
            else:
                lines.append(json.dumps(r, default=str))
        text = "\n".join(lines)
    print(text, file=args.out)  # the open --out file, or None for stdout


def _parse_chi(raw, field):
    if raw is None:
        return None
    parts = raw.split(",")
    if len(parts) != 3:
        raise ValueError("--chi wants three comma-separated scalar values")
    B = get_algebra(PODLES, field)
    vals = []
    for part in parts:
        p = parse_expr(part.strip() or "0", B)
        if any(w for w in p.terms):
            raise ValueError("--chi values must be scalars")
        vals.append(p.terms.get((), field.zero))
    return tuple(vals)


def run(args):
    t0 = time.perf_counter()
    field = _field(args)
    cmd = args.command

    if cmd == "nf":
        alg = get_algebra(_ALG_NAMES[args.algebra], field)
        _emit(args, {"result": parse_expr(args.expr, alg).render()})
        return 0

    if cmd == "delta":
        alg = get_algebra(_ALG_NAMES[args.algebra], field)
        t = coproduct(parse_expr(args.expr, alg))
        _emit(args, {"result": t.render_terms()})
        return 0

    if cmd == "antipode":
        alg = get_algebra(_ALG_NAMES[args.algebra], field)
        p = antipode(parse_expr(args.expr, alg), args.power)
        _emit(args, {"result": p.render()})
        return 0

    if cmd == "pi":
        alg = get_algebra(QSL2, field)
        _emit(args, {"result": project_pi(parse_expr(args.expr, alg)).render()})
        return 0

    if cmd == "member":
        alg = get_algebra(QSL2, field)
        p = parse_expr(args.expr, alg)
        member = coideal_membership(p)
        _emit(args, {"result": member,
                     "coaction": left_coaction(p).render_terms()})
        return 0

    if cmd == "koszul-verify":
        rep = checks.check_koszul_exactness(levels=(args.N,), field=field)
        rep["result"]["d1_d2_levels"] = args.N
        _emit(args, rep)
        return 0 if rep["pass"] else 1

    if cmd == "ext":
        r = koszul.ext_counit_module(args.N, field)
        # stable: one more filtration level leaves the dims unchanged
        nxt = koszul.ext_counit_module(args.N + 1, field)
        rep = checks._report("ext", {"N": args.N}, {
            "dims": list(r["dims"]),
            "character": {k: field.render(v) for k, v in r["character"].items()},
            "stable": r["dims"] == nxt["dims"]}, {"dims": [0, 0, 1]}, t0)
        _emit(args, rep)
        return 0 if rep["pass"] else 1

    if cmd == "zeta":
        _, r = koszul.zeta_matrix(args.jmax, field)
        rep = checks._report("zeta", {"jmax": args.jmax}, r,
                             {"full_column_rank": True}, t0)
        _emit(args, rep)
        return 0 if rep["pass"] else 1

    if cmd == "h0-table":
        rep = checks.check_h0_grid(args.imax, args.jmax, field)
        _emit(args, rep)
        return 0 if rep["pass"] else 1

    if cmd == "xi-check":
        trials = args.xi_trials
        if trials is None:
            trials = 100 if args.trials is None else args.trials
        rep = checks.check_conjugation_law(seed=args.seed, trials=trials,
                                           field=field)
        _emit(args, rep)
        return 0 if rep["pass"] else 1

    if cmd == "sigma":
        B = get_algebra(PODLES, field)
        p = parse_expr(getattr(args, "apply"), B)
        chi = _parse_chi(args.chi, field)
        _emit(args, {"result": hochschild.sigma_map(p, chi).render()})
        return 0

    if cmd == "omega-basis":
        A = get_algebra(QSL2, field)
        basis = duality.omega_basis(args.n, args.N, field)
        _emit(args, {"result": [A.render_word(w) for w in basis],
                     "params": {"n": args.n, "m": args.m, "N": args.N}})
        return 0

    if cmd == "fridge-check":
        rep = checks.check_omega_products(N=args.N, field=field)
        _emit(args, rep)
        return 0 if rep["pass"] else 1

    if cmd == "beta":
        A = get_algebra(QSL2, field)
        p = parse_expr(getattr(args, "apply"), A)
        _emit(args, {"result": duality.beta_projection(p).render()})
        return 0

    if cmd == "transes-check":
        r = duality.transes_check(args.N, None, field)
        rep = checks._report("transes", {"maxlen": args.N},
                             {"failures": r["failures"]}, {"failures": []}, t0)
        _emit(args, rep)
        return 0 if rep["pass"] else 1

    if cmd == "sigma-inv-check":
        r = duality.sigma_inverse_check(args.N, field)
        rep = checks._report(
            "sigma-inv", {"N": args.N},
            {"ray_failures": r["ray_failures"],
             "roundtrip_failures": r["roundtrip_failures"]},
            {"ray_failures": [], "roundtrip_failures": []}, t0)
        _emit(args, rep)
        return 0 if rep["pass"] else 1

    if cmd == "verify-all":
        reports, ok = checks.run_all(seed=args.seed, field=field,
                                     trials=args.trials)
        _emit(args, reports)
        return 0 if ok else 1

    raise AssertionError(f"unhandled command {cmd}")


def main(argv=None):
    try:
        # QSPHERE_* defaults are read while the parser is built, so a bad
        # value is a usage error like a bad flag
        args = build_parser().parse_args(argv)
        if args.out is None:
            return run(args)
        # open --out before the computation, as a shell redirection does, so
        # an unwritable path is a usage error that costs no computation
        try:
            fh = open(args.out, "w")
        except OSError as exc:
            raise ValueError(f"cannot write --out {args.out}: "
                             f"{exc.strerror or exc}") from None
        with fh:
            args.out = fh
            return run(args)
    except (ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - distinct internal-failure code
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
