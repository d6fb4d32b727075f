"""One benchmark process: set up a workload, make one pass, report as JSON.

run.py starts this script in a fresh interpreter with the thread pins in its
environment and ``src`` on ``PYTHONPATH``:

    python3 perfbench/worker.py --workload fool --seed 1
    python3 perfbench/worker.py --workload fool --seed 1 --setup-only
    python3 perfbench/worker.py --workload fool --seed 1 --trace T.json

It prints one JSON line when set-up is done (the wall-clock time it was
ready, the CPU time set-up took, and library versions) and, unless
``--setup-only``, one JSON line with the pass's per-call wall times, work,
gates, report digest and peak memory, and the calibration kernel's time
before each call and after the last.  A pass is made once per process, so
every pass pays the program's one-off costs (table and cache builds) as a
single real run does, and no cache carries over from one pass to the next.
``--trace FILE`` makes the pass under the tracer and writes the full trace
to FILE.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from contextlib import nullcontext
from pathlib import Path


def cpu_seconds():
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", default=None)
    ap.add_argument("--fault", default=None)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    import numpy
    import scipy
    import ptfprg
    src = Path(__file__).resolve().parent.parent / "src"
    if Path(ptfprg.__file__).resolve().parent.parent != src:
        raise SystemExit(f"ptfprg imported from {ptfprg.__file__}, not {src}")
    import workloads

    kwargs = {"fault": args.fault} if args.fault else {}
    workload = workloads.WORKLOADS[args.workload](args.seed, **kwargs)
    print(json.dumps({"ready": time.time(), "setup_cpu_s": cpu_seconds(),
                      "python": sys.version.split()[0],
                      "numpy": numpy.__version__, "scipy": scipy.__version__,
                      "work_unit": workload.work_unit}), flush=True)
    if args.setup_only:
        return 0

    from calibrate import Calibration
    calibration = Calibration()
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install(callers=[workloads])

    def span(name, kind):
        return nullcontext() if tracer is None else tracer.span(name, kind)

    cal_s, part_s, outs = [], [], []
    try:
        with span("pass", "perfbench.pass"):
            for k, part in enumerate(workload.parts):
                cal_s.append(calibration.sample())
                t0 = time.perf_counter()
                with span(part, "perfbench.part"):
                    outs.append(workload.call(k))
                part_s.append(time.perf_counter() - t0)
            cal_s.append(calibration.sample())
            done = workload.finish(outs)
    finally:
        if tracer is not None:
            tracer.uninstall()

    result = {"part_s": part_s, "cal_s": cal_s, "work": done.work,
              "attempted": done.attempted, "failed": done.failed,
              "digest": workloads.digest(done.report),
              "peak_rss_mb": resource.getrusage(
                  resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if tracer is not None:
        doc = tracer.document()
        Path(args.trace).write_text(json.dumps(doc))
        from ptfprg.battery import CHECKS
        check_s = {name: 0.0 for name, _, _ in CHECKS}
        for _, name, _, start, end in tracer.spans:
            if name.startswith("battery.check:"):
                check_s[name.split(":", 1)[1]] += end - start
        result["trace"] = {"totals": tracer.totals(), "counts": tracer.counts,
                           "table_specs": doc["table_specs"],
                           "check_s": check_s}
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
