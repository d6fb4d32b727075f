"""The benchmark's workloads: inputs from the seed, the calls, their gates.

Each workload is one closed-loop caller that makes one call after another
into the same public entry points the acceptance suite and the CLI use.
A *pass* is the workload's unit of work, made of a fixed list of calls
("parts"); the benchmark makes each pass in a fresh process, on the same
inputs:

* ``fool``: one fooling run of the 20-polynomial built-in suite, made as
  one ``fooling_report`` call per (n, d) group (7 groups, 800 generator
  blocks).  ``kwise.expand_batch`` does most of the work.
* ``mollifier_map``: for each of four random polynomials, one ``StatGrid``
  at n=4, d=3 (analysis coupling, few Monte Carlo trials) read at many
  Gaussian centers, in batches, by ``mollifier_eval_batch``, then by
  ``analysis_checks_eval_batch``.  The per-center soft and hard checks and
  ``row_batch`` do most of the work.
* ``battery``: one full 30-check battery pass at criterion 9's seed and
  size, made as one ``run_battery(cfg, only=name)`` call per check.
  Small-object Hermite and zoom work dominates; it is the only workload
  that reaches ``verify`` and ``hyperlab``.

``finish`` turns a pass's call results into its report, the work done and
the gates attempted and failed.
"""

from __future__ import annotations

import hashlib
import json
import math

import numpy as np

from ptfprg.battery import (CHECKS, BatteryConfig, builtin_suite,
                            fooling_report, run_battery)
from ptfprg.hermite import random_poly
from ptfprg.mollifier import analysis_checks_eval_batch, mollifier_eval_batch
from ptfprg.prg import choose_params
from ptfprg.seeding import substream
from ptfprg.statgrid import StatGrid

EPS = 0.2
FOOL_SAMPLES = 500        # Z samples per (n, d) group and pass
MOLL_POLYS = 4            # random polynomials per pass
MOLL_CENTERS = 1000       # Gaussian centers per polynomial
MOLL_CHUNK = 500          # centers per call
MOLL_MC_TRIALS = 100      # Monte Carlo polynomials per grid row
BATTERY_SEED = 11         # criterion 9's battery run: seed 11, 400 trials
BATTERY_TRIALS = 400


def digest(doc) -> str:
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


class Pass:
    """Outcome of one pass: work done, gates attempted and failed, report."""

    def __init__(self, work, attempted, failed, report):
        self.work = work
        self.attempted = attempted
        self.failed = failed
        self.report = report


class Fool:
    work_unit = "Z samples"

    def __init__(self, seed):
        self.master = seed
        groups = {}
        for e in builtin_suite(seed):
            groups.setdefault((e["n"], e["d"]), []).append(e)
        self.groups = sorted(groups.items())
        self.parts = [f"fool.group:n{n}d{d}" for (n, d), _ in self.groups]

    def call(self, k):
        return fooling_report(self.groups[k][1], EPS, FOOL_SAMPLES,
                              self.master, lambda_exp=2.0, M=16)

    def finish(self, outs):
        rows = sorted((r for rep in outs for r in rep["rows"]),
                      key=lambda r: r["poly_id"])
        failed = sum(not r["pass"] for r in rows)
        report = {"rows": rows, "eps": EPS, "samples": FOOL_SAMPLES,
                  "pass": failed == 0}
        return Pass(FOOL_SAMPLES * len(self.groups), len(rows), failed, report)


class MollifierMap:
    """Mollifier maps of several random polynomials, one grid each.

    A map's cost depends on its polynomial (how many checks fall in the
    smooth band), so a pass averages over a few of them.
    """

    work_unit = "centers"
    chunks = MOLL_CENTERS // MOLL_CHUNK
    parts = [f"{kind}.batch:{i}.{c}" for i in range(MOLL_POLYS)
             for kind in ("mollifier", "analysis")
             for c in range(MOLL_CENTERS // MOLL_CHUNK)]

    def __init__(self, seed):
        self.params = choose_params(4, 3, EPS, coupling="analysis")
        rng = np.random.default_rng(seed)
        self.polys = [random_poly(4, 3, rng) for _ in range(MOLL_POLYS)]
        self.seeds = [seed * MOLL_POLYS + i for i in range(MOLL_POLYS)]
        # the centers battery.mollification_error_report draws for each seed
        self.X = [substream(s, "moll-x").standard_normal((MOLL_CENTERS, 4))
                  for s in self.seeds]

    def call(self, k):
        i, rest = divmod(k, 2 * self.chunks)
        analysis, c = divmod(rest, self.chunks)
        if rest == 0:  # the grid's Monte Carlo rows are part of the work
            self.grid = StatGrid(self.polys[i], self.params,
                                 master_seed=self.seeds[i],
                                 mc_trials=MOLL_MC_TRIALS)
        fn = analysis_checks_eval_batch if analysis else mollifier_eval_batch
        return fn(self.polys[i], self.params,
                  self.X[i][c * MOLL_CHUNK:(c + 1) * MOLL_CHUNK],
                  grid=self.grid)

    def finish(self, outs):
        maps, failed = [], 0
        for i in range(MOLL_POLYS):
            own = outs[2 * self.chunks * i:2 * self.chunks * (i + 1)]
            mvs = [mv for out in own[:self.chunks] for mv in out]
            reps = [r for out in own[self.chunks:] for r in out]
            values = [mv.value for mv in mvs]
            # criterion 6's mollification-error gate, as in
            # battery.mollification_error_report, which evaluates its own
            # grid in one call and returns no values; selftest.py checks that
            # the two agree on the same grid and centers.  Plus the range.
            frac = float(np.mean([v != 1.0 for v in values]))
            err = math.sqrt(max(frac * (1 - frac), 1e-12) / len(values))
            error_ok = frac <= self.params.eps / 4.0 + 4.0 * err
            range_ok = all(0.0 <= v <= 1.0 for v in values)
            failed += (not error_ok) + (not range_ok)
            maps.append({"values": values, "signs": [mv.sign for mv in mvs],
                         "first_failures": [r.first_failure for r in reps],
                         "fraction": frac, "pass": error_ok})
        return Pass(MOLL_POLYS * MOLL_CENTERS, 2 * MOLL_POLYS, failed,
                    {"maps": maps})


class Battery:
    """Criterion 9's battery run, whatever the seed.

    The battery's statistical checks fail on some seeds
    (``replacement_hybrid``'s KS test at p < 0.01 fails on 7 of seeds 0-299,
    about twice its nominal rate; seed 25 gives p = 0.0002), and a
    benchmark's operations must not fail, so every run makes the run the
    acceptance suite gates.
    """

    work_unit = "checks"
    parts = [f"battery.check:{name}" for name, _, _ in CHECKS]

    def __init__(self, seed, fault=None):
        self.cfg = BatteryConfig(seed=BATTERY_SEED, trials=BATTERY_TRIALS,
                                 fault=fault)

    def call(self, k):
        return run_battery(self.cfg, only=CHECKS[k][0])

    def finish(self, outs):
        checks = sorted((c for rep in outs for c in rep["checks"]),
                        key=lambda c: c["name"])
        failed = sum(not c["pass"] for c in checks)
        report = {"config": outs[0]["config"], "checks": checks,
                  "pass": failed == 0}
        return Pass(len(checks), len(checks), failed, report)


WORKLOADS = {"fool": Fool, "mollifier_map": MollifierMap, "battery": Battery}
