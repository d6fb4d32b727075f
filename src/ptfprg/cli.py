"""Command-line experiment runner.

Subcommands: gen, fool, hyperconc, mollifier, stats, verify, battery.  Each
accepts exactly the flags it reads (SUBCOMMANDS names them from the one
table FLAGS); any other flag is an argparse usage error, exit status 2.
All randomness derives from --seed; reports carry no timestamps, so a run is
reproducible byte-for-byte.  Invalid inputs (for instance a Monte Carlo size
below 2) end the run with a one-line error and exit status 1.
"""

from __future__ import annotations

import argparse
import json
import sys

from .battery import (BatteryConfig, _fooling_groups, builtin_suite,
                      fooling_report, local_hyperconc_report, run_battery)
from .hermite import HermitePoly, random_poly
from .hyperlab import carbery_wright_check, zoom_ratio_check
from .mollifier import analysis_checks_eval_batch, mollifier_eval_batch
from .prg import choose_params, generate_batch
from .seeding import substream
from .statgrid import StatGrid, grid_csv

# Every flag of every subcommand, with its usual default.
FLAGS = {
    "--n": dict(type=int, default=4),
    "--d": dict(type=int, default=2),
    "--eps": dict(type=float, default=0.2),
    "--seed": dict(type=int, default=0),
    "--trials": dict(type=int, default=2000),
    "--format": dict(choices=("csv", "json"), default="csv"),
    "--out": dict(),
    "--lambda-exp": dict(type=float, default=4.0,
                         help="exponent in lambda_bar = c_lambda (eps/d)^e"),
    "--c-lambda": dict(type=float, default=1.0),
    "--k-mult": dict(type=int, default=16, help="k_indep = k_mult * d"),
    "--M": dict(type=int, help="bits per discretized uniform word"),
    "--R-bar": dict(type=float, default=91.0),
    "--K": dict(type=int, default=100, help="delta_horz = 1/(K d D)"),
    "--coupling": dict(choices=("prg", "analysis"), default="prg"),
    "--print-params": dict(action="store_true"),
    "--polys": dict(help="JSON file with a list of polynomial objects"),
    "--samples": dict(type=int, default=20_000),
    "--x-trials": dict(type=int),
    "--R": dict(type=float, default=2.0),
    "--beta": dict(type=float, default=0.1),
    "--inner-eps": dict(type=float, default=0.3),
    "--c-couple": dict(type=float, default=0.01),
    "--cols": dict(type=int, help="restrict to columns 0..cols"),
    "--only": dict(help="run a single named check"),
    "--inject-fault": dict(help="negative-test hook (e.g. 'jigsaw')"),
}

# the flags resolve_params passes to choose_params, and those of the grid
PARAMS = ("--n", "--d", "--eps", "--lambda-exp", "--c-lambda", "--k-mult",
          "--M", "--R-bar", "--K", "--coupling")
GRID = PARAMS + ("--seed", "--trials", "--out", "--print-params",
                 "--x-trials", "--polys")


def resolve_params(args):
    return choose_params(
        args.n, args.d, args.eps, lambda_exp=args.lambda_exp,
        c_lambda=args.c_lambda, k_mult=args.k_mult, M=args.M,
        R_bar=args.R_bar, K=args.K, coupling=args.coupling)


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


def _load_polys(path, d, n=None):
    """The polynomials of a JSON file, each of degree at most d and, when n
    is given, in n variables."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise SystemExit(f"polynomial file {path}: {exc.strerror}")
    except ValueError as exc:  # not JSON, or not UTF-8
        raise SystemExit(f"polynomial file {path}: {exc}")
    if isinstance(doc, dict):
        doc = [doc]
    if not isinstance(doc, list):
        raise SystemExit(f"polynomial file {path}: expected an object or a "
                         f"list of objects, got {type(doc).__name__}")
    if not doc:
        raise SystemExit(f"polynomial file {path}: holds no polynomial")
    out = []
    for idx, entry in enumerate(doc):
        if not isinstance(entry, dict):
            raise SystemExit(f"polynomial #{idx}: expected an object, got "
                             f"{type(entry).__name__}")
        try:
            poly = HermitePoly.from_json_dict(entry)
        except (KeyError, ValueError, TypeError) as exc:
            raise SystemExit(f"polynomial #{idx}: {exc}")
        poly_id = f"{idx:02d}-file"
        if poly.degree() > d:
            raise SystemExit(f"polynomial {poly_id} has degree "
                             f"{poly.degree()} above the requested bound {d}")
        if n is not None and poly.n != n:
            raise SystemExit(f"polynomial {poly_id} has n = {poly.n}, not "
                             f"the requested n = {n}")
        out.append({"poly_id": poly_id, "n": poly.n, "d": poly.degree(),
                    "poly": poly})
    return out


def cmd_gen(args):
    params = resolve_params(args)
    header = params.describe()
    _print_params(args, header)
    Z = generate_batch(params, args.seed, args.trials)
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
        suite = _load_polys(args.polys, args.d)
    else:
        suite = builtin_suite(args.seed)
    knobs = {"lambda_exp": args.lambda_exp, "M": args.M,
             "k_mult": args.k_mult}
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
    rep = local_hyperconc_report(
        rng, 5, args.x_trials, args.seed, n=args.n, d=args.d, R=args.R,
        eps=args.inner_eps, beta=args.beta, c=args.c_couple)
    g = random_poly(args.n, args.d, rng)
    trials = max(args.trials * 5, 10_000)
    doc = {
        "lam": rep["lam"],
        "local_hyperconcentration": rep["runs"],
        "carbery_wright": carbery_wright_check(
            g, 0.3, trials=trials, master_seed=args.seed),
        "zoom_ratio": zoom_ratio_check(
            g, lam=1e-4, beta=args.beta, trials=trials, master_seed=args.seed),
    }
    _emit(args, _json(doc))
    return 0


def cmd_mollifier(args):
    params = resolve_params(args)
    _print_params(args, params.describe())
    if args.polys:
        entries = _load_polys(args.polys, args.d, args.n)
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
    if args.cols is not None and args.cols < 0:
        raise ValueError(f"cols = {args.cols} is below 0")
    params = resolve_params(args)
    _print_params(args, params.describe())
    if args.polys:
        entries = _load_polys(args.polys, args.d, args.n)
        if len(entries) > 1:  # the CSV has no poly_id column
            raise SystemExit(f"polynomial file {args.polys}: holds "
                             f"{len(entries)} polynomials, stats takes one")
        p = entries[0]["poly"]
    else:
        p = random_poly(args.n, args.d, substream(args.seed, "cli-stats"))
    grid = StatGrid(p, params, master_seed=args.seed, mc_trials=args.trials)
    X = substream(args.seed, "cli-stats-x").standard_normal(
        (args.x_trials, p.n))
    cols = range(args.cols + 1) if args.cols is not None else None
    _emit(args, grid_csv(grid, X, cols))
    return 0


def cmd_verify(args):
    cfg = BatteryConfig(eps=args.eps, seed=args.seed, trials=args.trials)
    report = run_battery(cfg, kinds=("exact",))
    # only the settings verify takes; n and fault keep BatteryConfig defaults
    report["config"] = {"eps": cfg.eps, "seed": cfg.seed, "trials": cfg.trials}
    _emit(args, _json(report))
    return 0 if report["pass"] else 1


def cmd_battery(args):
    cfg = BatteryConfig(n=args.n, eps=args.eps, seed=args.seed,
                        trials=args.trials, fault=args.inject_fault)
    report = run_battery(cfg, only=args.only)
    if args.only and not report["checks"]:
        raise SystemExit(f"no check named {args.only!r}")
    _emit(args, _json(report))
    return 0 if report["pass"] else 1


# subcommand -> (runner, help, the flags it reads, its own defaults)
SUBCOMMANDS = {
    "gen": (cmd_gen, "emit generator samples",
            PARAMS + ("--seed", "--trials", "--format", "--out",
                      "--print-params"), {"--d": 1}),
    # full theoretical lambda_bar makes L astronomically large; the fooling
    # experiment defaults to the lambda_exp = 2 sweep point
    "fool": (cmd_fool, "sign-expectation gap vs Gaussian",
             ("--d", "--eps", "--lambda-exp", "--k-mult", "--M", "--seed",
              "--format", "--out", "--print-params", "--polys", "--samples"),
             {"--lambda-exp": 2.0, "--M": 16}),
    "hyperconc": (cmd_hyperconc, "local hyperconcentration experiments",
                  ("--n", "--d", "--seed", "--trials", "--out", "--x-trials",
                   "--R", "--beta", "--inner-eps", "--c-couple"),
                  {"--d": 3, "--x-trials": 500}),
    "mollifier": (cmd_mollifier, "per-point mollifier and analysis checks",
                  GRID, {"--coupling": "analysis", "--x-trials": 100}),
    "stats": (cmd_stats, "dump the statistics grid",
              GRID + ("--cols",), {"--coupling": "analysis", "--x-trials": 5}),
    "verify": (cmd_verify, "deterministic exact battery",
               ("--eps", "--seed", "--trials", "--out"), {}),
    "battery": (cmd_battery, "full verification battery",
                ("--n", "--eps", "--seed", "--trials", "--out", "--only",
                 "--inject-fault"), {}),
}


def build_parser():
    ap = argparse.ArgumentParser(
        prog="ptfprg",
        description="Pseudorandom generator for low-degree polynomial "
                    "threshold functions over Gaussian space, with its "
                    "verification batteries.")
    sub = ap.add_subparsers(dest="cmd", required=True)
    for cmd, (run, text, flags, defaults) in SUBCOMMANDS.items():
        p = sub.add_parser(cmd, help=text)
        for flag in flags:
            p.add_argument(flag, **FLAGS[flag])
        p.set_defaults(run=run, **{f[2:].replace("-", "_"): v
                                   for f, v in defaults.items()})
    return ap


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except ValueError as exc:
        raise SystemExit(f"ptfprg {args.cmd}: {exc}")


if __name__ == "__main__":
    sys.exit(main())
