"""Command-line experiment runner.

Subcommands: gen, fool, hyperconc, mollifier, stats, verify, battery.
All randomness derives from --seed; reports carry no timestamps, so a run is
reproducible byte-for-byte.  Invalid inputs (for instance a Monte Carlo size
below 2) end the run with a one-line error and exit status 1.
"""

from __future__ import annotations

import argparse
import json
import sys

from .battery import (BatteryConfig, _fooling_groups, builtin_suite,
                      fooling_report, run_battery)
from .hermite import HermitePoly, random_poly
from .hyperlab import (carbery_wright_check, zoom_ratio_check,
                       local_hyperconc_experiment)
from .mollifier import analysis_checks_eval_batch, mollifier_eval_batch
from .prg import choose_params, generate_batch
from .seeding import substream
from .statgrid import PolySampler, StatGrid, grid_csv

FORMATS = ("csv", "json")


def build_parser():
    ap = argparse.ArgumentParser(
        prog="ptfprg",
        description="Pseudorandom generator for low-degree polynomial "
                    "threshold functions over Gaussian space, with its "
                    "verification batteries.")
    sub = ap.add_subparsers(dest="cmd", required=True)

    def common(p, d_default=2):
        p.add_argument("--n", type=int, default=4)
        p.add_argument("--d", type=int, default=d_default)
        p.add_argument("--eps", type=float, default=0.2)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--trials", type=int, default=2000)
        p.add_argument("--format", choices=FORMATS, default="csv")
        p.add_argument("--out", default=None)
        p.add_argument("--lambda-exp", type=float, default=None,
                       help="exponent in lambda_bar = c_lambda (eps/d)^e")
        p.add_argument("--c-lambda", type=float, default=1.0)
        p.add_argument("--k-mult", type=int, default=16,
                       help="k_indep = k_mult * d")
        p.add_argument("--M", type=int, default=None,
                       help="bits per discretized uniform word")
        p.add_argument("--R-bar", type=float, default=91.0)
        p.add_argument("--K", type=int, default=100,
                       help="denominator constant in delta_horz = 1/(K d D)")
        p.add_argument("--coupling", choices=("prg", "analysis"),
                       default=None)
        p.add_argument("--print-params", action="store_true")
        return p

    common(sub.add_parser("gen", help="emit generator samples"), d_default=1)
    fp = common(sub.add_parser("fool", help="sign-expectation gap vs Gaussian"))
    fp.add_argument("--polys", default=None,
                    help="JSON file with a list of polynomial objects")
    fp.add_argument("--samples", type=int, default=20_000)

    hp = common(sub.add_parser("hyperconc",
                               help="local hyperconcentration experiments"),
                d_default=3)
    hp.add_argument("--x-trials", type=int, default=500)
    hp.add_argument("--R", type=float, default=2.0)
    hp.add_argument("--beta", type=float, default=0.1)
    hp.add_argument("--inner-eps", type=float, default=0.3)
    hp.add_argument("--c-couple", type=float, default=0.01)

    mp = common(sub.add_parser("mollifier",
                               help="per-point mollifier and analysis checks"))
    mp.add_argument("--x-trials", type=int, default=100)
    mp.add_argument("--polys", default=None)

    sp = common(sub.add_parser("stats", help="dump the statistics grid"))
    sp.add_argument("--x-trials", type=int, default=5)
    sp.add_argument("--cols", type=int, default=None,
                    help="restrict to columns 0..cols")
    sp.add_argument("--polys", default=None)

    common(sub.add_parser("verify", help="deterministic exact battery"))

    bp = common(sub.add_parser("battery", help="full verification battery"))
    bp.add_argument("--only", default=None, help="run a single named check")
    bp.add_argument("--inject-fault", default=None,
                    help="negative-test hook (e.g. 'jigsaw')")
    return ap


def resolve_params(args, default_lambda_exp=4.0, default_coupling="prg"):
    return choose_params(
        args.n, args.d, args.eps,
        lambda_exp=args.lambda_exp if args.lambda_exp is not None
        else default_lambda_exp,
        c_lambda=args.c_lambda, k_mult=args.k_mult, M=args.M,
        R_bar=args.R_bar, K=args.K,
        coupling=args.coupling or default_coupling)


def _emit(args, text):
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _json(doc):
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _print_params(args, doc):
    if args.print_params:  # the parameters the command runs, to stderr
        sys.stderr.write(_json(doc))


def _load_polys(path):
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if isinstance(doc, dict):
        doc = [doc]
    out = []
    for idx, entry in enumerate(doc):
        try:
            poly = HermitePoly.from_json_dict(entry)
        except (KeyError, ValueError, TypeError) as exc:
            raise SystemExit(f"polynomial #{idx}: {exc}")
        out.append({"poly_id": f"{idx:02d}-file", "n": poly.n,
                    "d": poly.degree(), "poly": poly})
    return out


def cmd_gen(args):
    params = resolve_params(args)
    _print_params(args, params.describe())
    Z = generate_batch(params, args.seed, args.trials)
    header = params.describe()
    if args.format == "json":
        _emit(args, _json({"params": header,
                           "samples": [list(map(float, row)) for row in Z]}))
        return 0
    lines = ["# " + json.dumps(header, sort_keys=True)]
    lines.append(",".join(f"z{i}" for i in range(params.n)))
    for row in Z:
        lines.append(",".join(repr(float(v)) for v in row))
    _emit(args, "\n".join(lines) + "\n")
    return 0


def cmd_fool(args):
    if args.polys:
        suite = _load_polys(args.polys)
        bad = [e for e in suite if e["d"] > args.d]
        if bad:
            raise SystemExit(
                f"polynomial {bad[0]['poly_id']} has degree {bad[0]['d']} "
                f"above the requested bound {args.d}")
    else:
        suite = builtin_suite(args.seed)
    # full theoretical lambda_bar makes L astronomically large; the fooling
    # experiment defaults to the lambda_exp = 2 sweep point
    knobs = {"lambda_exp": 2.0 if args.lambda_exp is None else args.lambda_exp,
             "M": 16 if args.M is None else args.M, "k_mult": args.k_mult}
    _print_params(args, [params.describe() for params, _ in
                         _fooling_groups(suite, args.eps, **knobs)])
    rep = fooling_report(suite, args.eps, samples=args.samples,
                         master_seed=args.seed, **knobs)
    if args.format == "json":
        _emit(args, _json(rep))
    else:
        lines = ["poly_id,n,d,est_prg,est_true,diff,stderr,seed_bits,pass"]
        for r in rep["rows"]:
            lines.append(
                f"{r['poly_id']},{r['n']},{r['d']},{r['est_prg']!r},"
                f"{r['est_true']!r},{r['diff']!r},{r['stderr']!r},"
                f"{r['seed_bits']},{int(r['pass'])}")
        _emit(args, "\n".join(lines) + "\n")
    return 0 if rep["pass"] else 1


def cmd_hyperconc(args):
    rng = substream(args.seed, "cli-hyperconc")
    d = args.d
    lam = args.c_couple * args.inner_eps * args.beta / (args.R * d**4.5)
    runs = []
    for t in range(5):
        p = random_poly(args.n, d, rng)
        rep = local_hyperconc_experiment(
            PolySampler(p), R=args.R, eps=args.inner_eps, beta=args.beta,
            lam=lam, x_trials=args.x_trials, master_seed=args.seed + t)
        runs.append(rep)
    g = random_poly(args.n, d, rng)
    doc = {
        "lam": lam,
        "local_hyperconcentration": runs,
        "carbery_wright": carbery_wright_check(
            g, 0.3, trials=max(args.trials * 5, 10_000),
            master_seed=args.seed),
        "zoom_ratio": zoom_ratio_check(
            g, lam=1e-4, beta=args.beta,
            trials=max(args.trials * 5, 10_000), master_seed=args.seed),
    }
    _emit(args, _json(doc))
    return 0


def cmd_mollifier(args):
    params = resolve_params(args, default_coupling="analysis")
    _print_params(args, params.describe())
    if args.polys:
        entries = _load_polys(args.polys)
    else:
        entries = [{"poly_id": "00-random", "poly":
                    random_poly(args.n, args.d,
                                substream(args.seed, "cli-moll"))}]
    rows = []
    for e in entries:
        p = e["poly"]
        grid = StatGrid(p, params, master_seed=args.seed,
                        mc_trials=args.trials)
        X = substream(args.seed, "cli-moll-x").standard_normal(
            (args.x_trials, p.n))
        mvs = mollifier_eval_batch(p, params, X, grid=grid)
        reps = analysis_checks_eval_batch(p, params, X, grid=grid)
        for xi, (mv, rep) in enumerate(zip(mvs, reps)):
            rows.append({"poly_id": e["poly_id"], "x_id": xi,
                         "mollifier": mv.value, "sign": mv.sign,
                         "first_analysis_failure": rep.first_failure})
    _emit(args, _json({"params": params.describe(), "rows": rows}))
    return 0


def cmd_stats(args):
    params = resolve_params(args, default_coupling="analysis")
    _print_params(args, params.describe())
    if args.polys:
        p = _load_polys(args.polys)[0]["poly"]
    else:
        p = random_poly(args.n, args.d, substream(args.seed, "cli-stats"))
    grid = StatGrid(p, params, master_seed=args.seed, mc_trials=args.trials)
    X = substream(args.seed, "cli-stats-x").standard_normal(
        (args.x_trials, p.n))
    cols = range(args.cols + 1) if args.cols is not None else None
    _emit(args, grid_csv(grid, X, cols))
    return 0


def cmd_verify(args):
    cfg = BatteryConfig(n=args.n, d=args.d, eps=args.eps, seed=args.seed,
                        trials=args.trials)
    report = run_battery(cfg, kinds=("exact",))
    _emit(args, _json(report))
    return 0 if report["pass"] else 1


def cmd_battery(args):
    cfg = BatteryConfig(n=args.n, d=args.d, eps=args.eps, seed=args.seed,
                        trials=args.trials, fault=args.inject_fault)
    report = run_battery(cfg, only=args.only)
    if args.only and not report["checks"]:
        raise SystemExit(f"no check named {args.only!r}")
    _emit(args, _json(report))
    return 0 if report["pass"] else 1


COMMANDS = {
    "gen": cmd_gen,
    "fool": cmd_fool,
    "hyperconc": cmd_hyperconc,
    "mollifier": cmd_mollifier,
    "stats": cmd_stats,
    "verify": cmd_verify,
    "battery": cmd_battery,
}


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return COMMANDS[args.cmd](args)
    except ValueError as exc:
        raise SystemExit(f"ptfprg {args.cmd}: {exc}")


if __name__ == "__main__":
    sys.exit(main())
