"""Run the benchmark several times per workload and summarise every metric.

    python3 perfbench/summary.py --runs 10 --seed 1

For each workload of ``BENCHMARK.json`` it runs ``run.py`` once per seed
(``--seed`` onwards, one seed per run) with tracing off, then once more on
the first seed, whose report digests must equal the first run's.  It prints
each end-to-end metric, the raw figures ``wall_s``, ``work_per_s``,
``cal_s`` (the calibration kernel's median time), ``setup_cpu_s`` and
``setup_wall_s``, and
``failed_frac`` (gates failed / gates attempted), by name with its unit,
median, quartiles, spread (quartile distance over median, as a share) and
run count, next to the metric's bound from ``BENCHMARK.json``.
The exit code is non-zero when a run failed or the digests differ.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# raw times from the line before the result, which no bound covers
RAW = {"wall_s": "s", "work_per_s": "1/s", "cal_s": "s", "setup_cpu_s": "s",
       "setup_wall_s": "s"}


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    if len(lines) < 2:
        sys.stderr.write(proc.stderr)
        return None, None
    return json.loads(lines[-2])["perfbench"], json.loads(lines[-1])


def stats(values):
    med = statistics.median(values)
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "runs": len(values),
            "values": values}


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = ap.parse_args(argv)

    bounds = {m["name"]: m for m in spec["end_to_end"]}
    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        seeds = [args.seed + r for r in range(args.runs)] + [args.seed]
        runs = []
        for seed in seeds:
            info, res = run_once(workload, seed, args.seconds)
            if res is None or not res["correct"]:
                ok = False
                print(f"{workload} seed {seed}: run FAILED", flush=True)
            if res is not None:
                runs.append((info, res))
        first, repeat = runs[0][0], runs[-1][0]
        repeat_ok = (len(runs) == len(seeds)
                     and set(first["digests"]) == set(repeat["digests"]))
        ok &= repeat_ok
        rows = {}
        for name, m in bounds.items():
            rows[name] = dict(stats([r["metrics"][name]["value"]
                                     for _, r in runs]),
                              unit=m["unit"], bound=m["bound"])
        for name, unit in RAW.items():
            rows[name] = dict(stats([i[name] for i, _ in runs]),
                              unit=unit, bound=None)
        rows["failed_frac"] = dict(
            stats([r["failed"] / r["attempted"] for _, r in runs]),
            unit="ratio", bound=None)
        print(f"== {workload}  (repeat-seed digests equal: {repeat_ok})")
        print(f"  {'metric':<12} {'unit':<6} {'median':>12} {'q1':>12} "
              f"{'q3':>12} {'spread':>8} {'bound':>6} runs")
        for name, r in rows.items():
            bound = "-" if r["bound"] is None else f"{r['bound']:.2f}"
            print(f"  {name:<12} {r['unit']:<6} {r['median']:>12.6g} "
                  f"{r['q1']:>12.6g} {r['q3']:>12.6g} {r['spread']:>8.4f} "
                  f"{bound:>6} {r['runs']}", flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
