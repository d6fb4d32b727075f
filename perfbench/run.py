"""The ptfprg benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload fool --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  Every process runs single-threaded (BLAS/OpenMP pinned to one
thread), and each pass of the workload runs in a fresh process:

* set-up probes, each timing interpreter start, ``import ptfprg`` and input
  generation up to the first timed call;
* passes, one per process, on the same inputs, until their time adds up to
  ``--seconds`` (at least two passes); each reports its calls' wall times,
  its work, gates and report digest;
* with ``--trace 1``, passes until half of ``--seconds`` and then as many
  passes under the tracer.  Their report digests must equal the untraced
  ones, and the result holds the per-layer metrics instead of the
  end-to-end ones.

A pass's time (``wall_s``, printed on the line before the result) is the
sum over its calls of each call's median time over the passes.  On a shared
machine other tenants slow the whole machine down, by up to about two times,
from seconds to hours at a time, so that time does not repeat from run to
run.  The end-to-end metric ``pass_cal`` measures each call in units of a
fixed calibration kernel (``calibrate.py``) timed just before and just after
it: a pass's cost in kernel units, which a change to the program moves and
a busy neighbour mostly does not.  ``setup_s`` is the median CPU time of
set-up over all the run's processes (the probes and the passes), scaled the
same way: times ``CAL_REF_S`` over the kernel's median time in the run, so
it reads in seconds on a machine where the kernel takes ``CAL_REF_S``.

The metric names, units and bounds are those of ``BENCHMARK.json``.  The
last line of standard output is the result; the line before it records the
environment, the times and the digests.  Exit codes: 0 when every gate
passed and every digest check held; 1, with ``"correct": false``, when one
did not; 2, with no result, when a process crashed or the run could not
finish its passes within ``RUN_BUDGET_S``.  ``--fault jigsaw`` (battery
only) injects the battery's jigsaw fault, a negative control that must
fail.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 4
MIN_PASSES = 2
RUN_BUDGET_S = 170.0     # a run must end within 180 s
CAL_REF_S = 0.0075       # the kernel's typical time on a shared 2-CPU Xeon VM
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class WorkerFailed(Exception):
    pass


def worker_env():
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    return env


def run_worker(args, deadline, extra=()):
    """Start a worker; return (ready line, pass result or None, wall s)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload",
           args.workload, "--seed", str(args.seed), *extra]
    if args.fault:
        cmd += ["--fault", args.fault]
    started, wall_start = time.monotonic(), time.time()
    if deadline - started < 1.0:
        raise WorkerFailed("no time left in the run's budget")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=worker_env(),
                              capture_output=True, text=True,
                              timeout=deadline - started)
    except subprocess.TimeoutExpired as exc:
        raise WorkerFailed(f"worker timed out: {' '.join(cmd)}") from exc
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerFailed(f"worker exited {proc.returncode}: "
                           f"{' '.join(cmd)}\n{proc.stderr[-4000:]}")
    ready = dict(json.loads(lines[0]), started=wall_start)
    result = json.loads(lines[1]) if len(lines) > 1 else None
    return ready, result, time.monotonic() - started


def run_passes(args, deadline, seconds, minimum, extra=(), count=None):
    """Make passes, one per process: ``count`` of them, or else until their
    times add up to ``seconds`` and there are ``minimum``.  A pass is not
    started when the slowest process so far would not end by ``deadline``."""
    readies, passes, slowest = [], [], 0.0
    while len(passes) < (count or minimum) or (
            count is None
            and sum(sum(p["part_s"]) for p in passes) < seconds
            and time.monotonic() + 1.5 * slowest < deadline):
        ready, result, took = run_worker(args, deadline, extra)
        readies.append(ready)
        passes.append(result)
        slowest = max(slowest, took)
    return readies, passes


def gates(passes):
    """(attempted, failed) over the passes, plus the check that every pass,
    made on the same inputs, gave the same report digest."""
    attempted = sum(p["attempted"] for p in passes) + 1
    failed = sum(p["failed"] for p in passes)
    failed += len({p["digest"] for p in passes}) != 1
    return attempted, failed


def pass_time(passes):
    """Sum over the pass's calls of each call's median time."""
    return sum(map(statistics.median, zip(*(p["part_s"] for p in passes))))


def cal_time(passes):
    return statistics.median(c for p in passes for c in p["cal_s"])


def pass_cal(passes):
    """Sum over the pass's calls of each call's median time in kernel units:
    a call's time over the mean of the kernel's times just before and just
    after it, so that each call is scaled by the machine's speed while it
    ran."""
    def in_cal(p):
        c = p["cal_s"]
        return [t * 2 / (c[k] + c[k + 1]) for k, t in enumerate(p["part_s"])]
    return sum(map(statistics.median, zip(*map(in_cal, passes))))


def environment(ready):
    cpu_model = None
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        ).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    env = worker_env()
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": ready["python"], "numpy": ready["numpy"],
        "scipy": ready["scipy"], "git_commit": commit,
        "threads": {v: env[v] for v in THREAD_VARS},
        "PRG_THREADS": env.get("PRG_THREADS"),
    }


def end_to_end(passes, readies):
    """End-to-end metrics, plus the raw figures they are made from."""
    wall, cal = pass_time(passes), cal_time(passes)
    setup_cpu = statistics.median(r["setup_cpu_s"] for r in readies)
    metrics = {
        "pass_cal": pass_cal(passes),
        "setup_s": setup_cpu * CAL_REF_S / cal,
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }
    raw = {"wall_s": wall, "work_per_s": passes[0]["work"] / wall,
           "cal_s": cal, "setup_cpu_s": setup_cpu,
           "setup_wall_s": statistics.median(
               r["ready"] - r["started"] for r in readies)}
    return metrics, raw


def per_layer(names, passes, traced):
    """Per-pass layer metrics from the traced passes, by metric name.

    ``<function>.calls`` and ``<function>.self_s`` come from the tracer's
    totals, ``<module>.self_s`` sums a module's functions, work counters
    are read as counted, and ``battery.<check>.s`` is the check's span.
    Self time of the benchmark's own spans (``perfbench.*``) is not a
    layer: it counts as unattributed.
    """
    runs = len(traced)

    def summed(key):
        out = {}
        for t in traced:
            for name, value in t["trace"][key].items():
                if isinstance(value, list):
                    prev = out.get(name, [0, 0.0])
                    out[name] = [prev[0] + value[0], prev[1] + value[1]]
                else:
                    out[name] = out.get(name, 0.0) + value
        return out

    totals, counts, check_s = (summed("totals"), summed("counts"),
                               summed("check_s"))
    specs = {tuple(s) for t in traced for s in t["trace"]["table_specs"]}
    traced_wall = sum(sum(t["part_s"]) for t in traced)
    layer_self = sum(v[1] for k, v in totals.items()
                     if not k.startswith("perfbench."))
    soft_checks = counts["mollifier.soft_checks"]
    special = {
        "kwise.tables.mb": sum(k * n * 2 ** m * 2 for k, n, m in specs) / 1e6,
        "mollifier.band_ratio": (totals["mollifier.sigma"][0] / soft_checks
                                 if soft_checks else 0.0),
        "trace.overhead_frac": pass_cal(traced) / pass_cal(passes) - 1.0,
        "trace.unattributed_s": (traced_wall - layer_self) / runs,
    }
    out = {}
    for name in names:
        head, _, quantity = name.rpartition(".")
        if name in special:
            out[name] = special[name]
        elif name in counts:
            out[name] = counts[name] / runs
        elif head.startswith("battery.") and quantity == "s":
            out[name] = check_s[head.split(".", 1)[1]] / runs
        elif quantity in ("calls", "self_s"):
            col = quantity == "self_s"
            if "." in head:
                out[name] = totals[head][col] / runs
            else:
                out[name] = sum(v[col] for k, v in totals.items()
                                if k.startswith(head + ".")) / runs
        else:
            raise KeyError(f"no rule for per-layer metric {name!r}")
    return out


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--fault", choices=("jigsaw",), default=None,
                    help="battery only: inject a fault that must fail")
    args = ap.parse_args(argv)
    if args.fault and args.workload != "battery":
        ap.error("--fault applies to the battery workload only")
    if not (ROOT / "src" / "ptfprg" / "__init__.py").is_file():
        sys.exit(f"perfbench: no ptfprg source under {ROOT / 'src'}")
    deadline = time.monotonic() + RUN_BUDGET_S

    info = {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace}
    try:
        if args.trace:
            readies, passes = run_passes(args, deadline, args.seconds / 2, 1)
            out_dir = ROOT / ".perfbench"
            out_dir.mkdir(exist_ok=True)
            trace_file = out_dir / f"trace-{args.workload}-{args.seed}.json"
            _, traced = run_passes(args, deadline, 0, 1,
                                   ["--trace", str(trace_file)], len(passes))
            info["trace_file"] = str(trace_file.relative_to(ROOT))
        else:
            probes = [run_worker(args, deadline, ["--setup-only"])[0]
                      for _ in range(SETUP_PROBES)]
            readies, passes = run_passes(args, deadline, args.seconds,
                                         MIN_PASSES)
            readies += probes
    except WorkerFailed as exc:
        print(json.dumps({"perfbench": info}))
        print(f"perfbench: no result: {exc}", file=sys.stderr)
        return 2

    attempted, failed = gates(passes)
    if args.trace:
        t_attempted, t_failed = gates(traced)
        same = ({p["digest"] for p in traced}
                == {p["digest"] for p in passes})
        attempted += t_attempted + 1
        failed += t_failed + (not same)
        info["traced_digests_equal"] = same
        values = per_layer([m["name"] for m in spec["per_layer"]],
                           passes, traced)
    else:
        values, raw = end_to_end(passes, readies)
        info.update(raw)
    units = {m["name"]: m["unit"]
             for m in spec["per_layer" if args.trace else "end_to_end"]}
    info.update({
        "work_unit": readies[0]["work_unit"],
        "passes": len(passes),
        "pass_wall_s": [sum(p["part_s"]) for p in passes],
        "digests": [p["digest"] for p in passes],
        "failed_frac": failed / attempted,
        "env": environment(readies[0]),
    })
    correct = failed == 0
    print(json.dumps({"perfbench": info}))
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
