"""Acceptance criteria, one test per criterion, at the stated scales.

Each test prints a single PASS/FAIL line (run pytest with -s to stream them).
Statistical gates are four standard errors on top of the stated bounds; exact
gates carry their stated tolerances.  The fooling suite and the mollification
experiment run at the documented experiment defaults (lambda_exp = 2 / M = 16
for generation; the theorem-coupled zoom scale for the mollifier), which are
the CLI defaults of the corresponding subcommands.
"""

import json
import subprocess
import sys
import time

import pytest

from ptfprg.battery import (BatteryConfig, builtin_suite,
                            check_carbery_wright, check_clean_fraction,
                            check_derivative_degree, check_hermite_addition,
                            check_hypercontractivity, check_hypermarkov,
                            check_jigsaw, check_kwise_exhaustive,
                            check_lagrange_l0,
                            check_mollifier_scale_invariance,
                            check_noise_semigroup, check_tail_bound,
                            check_two_vs_one_norm, check_zoom_level_identity,
                            check_zoom_ratio, check_zoom_weight_identity,
                            fooling_report, local_hyperconc_report,
                            mollification_error_report,
                            neighbor_hypervariance_report)
from ptfprg.hermite import random_poly
from ptfprg.prg import choose_params
from ptfprg.seeding import substream

SEED = 20240817


def report(num, name, ok, detail=""):
    line = f"ACCEPTANCE {num} ({name}): {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    print(line, flush=True)
    assert ok, line


def battery_criterion(num, name, cfg, checks, limit=None):
    """Run battery checks at cfg; pass when all pass (within `limit` s)."""
    t0 = time.time()
    bad = [key for key, check in checks.items() if not check(cfg)["pass"]]
    elapsed = time.time() - t0
    ok = not bad and (limit is None or elapsed < limit)
    report(num, name, ok,
           f"{elapsed:.1f}s" + (f" failing={bad}" if bad else ""))


def test_criterion_1_exact_identity_battery():
    cfg = BatteryConfig(seed=SEED, trials=500)
    battery_criterion(1, "exact identity battery", cfg, {
        "zoom_weight": check_zoom_weight_identity,
        "zoom_level": check_zoom_level_identity,
        "semigroup": check_noise_semigroup,
        "addition": check_hermite_addition,
        "degree_drop": check_derivative_degree,
        "scale_invariance": check_mollifier_scale_invariance,
    }, limit=10.0)


def test_criterion_2_exact_rational_battery():
    battery_criterion(2, "exact rational battery", BatteryConfig(seed=SEED), {
        "clean_fraction": check_clean_fraction,
        "lagrange_l0": check_lagrange_l0,
        "jigsaw": check_jigsaw,
    }, limit=10.0)


def test_criterion_3_kwise_exhaustive_uniformity():
    battery_criterion(3, "k-wise exhaustive uniformity", BatteryConfig(seed=SEED),
                      {"kwise_exhaustive": check_kwise_exhaustive}, limit=30.0)


@pytest.mark.slow
def test_criterion_4_fooling_suite():
    t0 = time.time()
    suite = builtin_suite(SEED)
    assert len(suite) == 20
    assert max(e["n"] for e in suite) == 8
    assert max(e["d"] for e in suite) == 3
    rep = fooling_report(suite, eps=0.2, samples=200_000, master_seed=SEED,
                         lambda_exp=2.0, M=16)
    worst = max(r["diff"] - 4 * r["stderr"] for r in rep["rows"])
    elapsed = time.time() - t0
    report(4, "fooling suite 20 polynomials", rep["pass"],
           f"worst diff-4se={worst:.4f} vs eps=0.2, {elapsed:.0f}s")


def test_criterion_5_local_hyperconcentration():
    # 10 polynomials at n = 4, d = 3, 500 centers each; every failure
    # fraction within beta = 0.1 plus 4 se
    rep = local_hyperconc_report(substream(SEED, "acc5"), 10, 500, SEED)
    worst = max(r["failure_fraction"] for r in rep["runs"])
    report(5, "local hyperconcentration", rep["pass"],
           f"max fraction={worst:.3f} vs 0.1+4se")


def test_criterion_6_mollification_error():
    rng = substream(SEED, "acc6")
    worst = -1.0
    ok = True
    for d in (1, 2):
        params = choose_params(3, d, 0.2, coupling="analysis")
        for t in range(2):
            p = random_poly(3, d, rng)
            rep = mollification_error_report(p, params, x_count=500,
                                             master_seed=SEED + t,
                                             mc_trials=2000)
            ok &= rep["pass"]
            worst = max(worst, rep["fraction"])
    report(6, "mollification error", ok,
           f"worst fraction={worst:.3f} vs eps/4=0.05+4se")


def test_criterion_7_neighbor_hypervariance_bound():
    params = choose_params(3, 2, 0.2, lambda_exp=2.0)
    p = random_poly(3, 2, substream(SEED, "acc7"))
    rep = neighbor_hypervariance_report(p, params, x_count=20,
                                        master_seed=SEED,
                                        cols=list(range(params.D)),
                                        mc_trials=10_000)
    report(7, "neighbor hypervariance bound", rep["pass"],
           f"checked={rep['checked']} violations={len(rep['violations'])}")


def test_criterion_8_oracle_inequalities():
    # at trials = 10k every family draws 50k-100k samples per polynomial
    cfg = BatteryConfig(seed=SEED, trials=10_000)
    battery_criterion(8, "oracle inequalities", cfg, {
        "hypercontractivity": check_hypercontractivity,
        "two_vs_one": check_two_vs_one_norm,
        "tail_bound": check_tail_bound,
        "carbery_wright": check_carbery_wright,
        "zoom_ratio": check_zoom_ratio,
        "hyper_markov": check_hypermarkov,
    })


def test_criterion_9_battery_determinism(tmp_path):
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / f"battery-{tag}.json"
        r = subprocess.run(
            [sys.executable, "-m", "ptfprg.cli", "battery", "--seed", "11",
             "--trials", "400", "--out", str(out)],
            capture_output=True, text=True)
        assert r.returncode == 0, r.stdout[-2000:] + r.stderr[-2000:]
        outs.append(out.read_bytes())
    ok = outs[0] == outs[1]
    doc = json.loads(outs[0])
    report(9, "battery determinism",
           ok and doc["pass"] and len(doc["checks"]) >= 12,
           f"{len(doc['checks'])} checks, byte-identical={ok}")
