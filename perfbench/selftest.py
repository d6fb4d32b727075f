"""The benchmark's own tests (about four minutes on two CPUs).

    python3 perfbench/selftest.py

* negative control: the battery workload with the battery's injected
  ``jigsaw`` fault must report failed gates and exit non-zero, which shows
  the correctness check has power;
* the workloads' split calls (one ``fooling_report`` per group, one
  ``run_battery(only=...)`` per check) give the same report as the single
  calls the acceptance suite makes, and the mollifier map's copy of
  criterion 6's gate agrees with ``mollification_error_report``;
* traced runs of the mollifier map and of the battery are correct, their
  report digests equal the untraced runs', and they report every per-layer
  metric.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))


SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args):
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), *args],
                          cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    return (proc.returncode, json.loads(lines[-2])["perfbench"],
            json.loads(lines[-1]))


def test_jigsaw_fault_fails():
    code, _, res = bench("--workload", "battery", "--seed", "11",
                         "--seconds", "1", "--fault", "jigsaw")
    assert code != 0, code
    assert not res["correct"] and res["failed"] > 0, res


def test_split_calls_match_single_calls():
    import workloads
    from ptfprg.battery import builtin_suite, fooling_report, run_battery

    def one_pass(workload):
        outs = [workload.call(k) for k in range(len(workload.parts))]
        return workload.finish(outs).report

    whole = fooling_report(builtin_suite(3), workloads.EPS,
                           workloads.FOOL_SAMPLES, 3, lambda_exp=2.0, M=16)
    assert one_pass(workloads.Fool(3)) == whole
    battery = workloads.Battery(3)
    assert one_pass(battery) == run_battery(battery.cfg)


def test_mollifier_gate_matches_battery():
    import workloads
    from ptfprg.battery import mollification_error_report

    moll = workloads.MollifierMap(4)
    done = moll.finish([moll.call(k) for k in range(len(moll.parts))])
    for p, seed, got in zip(moll.polys, moll.seeds, done.report["maps"]):
        whole = mollification_error_report(
            p, moll.params, workloads.MOLL_CENTERS, seed,
            mc_trials=workloads.MOLL_MC_TRIALS)
        assert (got["fraction"], got["pass"]) == (whole["fraction"],
                                                  whole["pass"]), whole


def traced(workload, counter):
    code, info, res = bench("--workload", workload, "--seed", "2",
                            "--seconds", "1", "--trace", "1")
    assert code == 0 and res["correct"], res
    assert info["traced_digests_equal"]
    assert set(res["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    assert res["metrics"][counter]["value"] > 0
    print(f"  {workload}: trace.overhead_frac "
          f"{res['metrics']['trace.overhead_frac']['value']:.3f}, "
          f"trace.unattributed_s "
          f"{res['metrics']['trace.unattributed_s']['value']:.4f}")


def test_traced_mollifier_map_matches_untraced():
    traced("mollifier_map", "mollifier.soft_checks")


def test_traced_battery_matches_untraced():
    traced("battery", "hermite.init.calls")


def main():
    failed = 0
    for name, fn in list(globals().items()):
        if name.startswith("test_"):
            try:
                fn()
                print(f"PASS {name}", flush=True)
            except AssertionError as exc:
                failed += 1
                print(f"FAIL {name}: {exc}", flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
