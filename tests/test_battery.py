"""The battery's scipy.special statistics against scipy.stats, the guard
that no ptfprg code path imports scipy.stats (a cold import of it costs more
than the generator checks that once needed it), and negative controls for
the exhaustive k-wise check."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import chi2, kstest, kstwo

import ptfprg
from ptfprg import battery
from ptfprg.battery import (BatteryConfig, _block_is_uniform, _ks_norm,
                            _kstwo_sf, builtin_suite,
                            check_kwise_exhaustive, run_battery)
from ptfprg.kwise import KWiseSpec

SRC = Path(ptfprg.__file__).resolve().parent
KS_NS = (10_000, 20_000, 50_000)


def test_no_code_path_imports_scipy_stats():
    # a fresh interpreter: pytest's own process may hold scipy.stats already
    script = (
        "import sys\n"
        "from ptfprg.battery import (BatteryConfig, builtin_suite,\n"
        "                            fooling_report, run_battery)\n"
        "suite = builtin_suite(0)\n"
        "fooling_report(suite[:2], 0.2, 500, 0)\n"
        "assert run_battery(BatteryConfig(seed=11, trials=400))['pass']\n"
        "print('scipy.stats' in sys.modules)\n")
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    r = subprocess.run([sys.executable, "-c", script], capture_output=True,
                       text=True, env=env)
    assert r.returncode == 0, r.stderr[-2000:]
    assert r.stdout == "False\n"


def test_no_source_file_names_scipy_stats():
    named = [p.name for p in sorted(SRC.rglob("*.py"))
             if "scipy.stats" in p.read_text()]
    assert not named, named


@pytest.mark.parametrize("n", KS_NS)
def test_ks_norm_equals_kstest(n):
    # shifts 0.03 and 0.5 put the statistic in the smirnov and the p = 0
    # bands; most unshifted samples land in the Pelz-Good band
    for seed in range(20):
        x = np.random.default_rng(seed).standard_normal(n)
        for shift in (0.0, 0.03, 0.5):
            ref = kstest(x + shift, "norm")
            assert _ks_norm(x + shift) == (ref.statistic, ref.pvalue), \
                (seed, shift)


@pytest.mark.parametrize("n", KS_NS)
def test_kstwo_sf_branches_equal_scipy(n):
    # n d^1.5 in {0.5, 1, 1.4}, then n d^2 across and at each band edge
    durbin = [(c / n) ** (2 / 3) for c in (0.5, 1.0, 1.4)]
    banded = [np.sqrt(t / n) for t in (0.3, 1.0, 2.19, 2.2, 5.0, 20.0, 100.0,
                                       369.9, 370.0, 1000.0)]
    seen = set()
    for d in durbin + banded + [0.5, 0.6, 0.99, 1.0 - 1.0 / n]:
        nd2 = n * d * d
        if n * d ** 1.5 <= 1.4:  # scipy's Durbin-matrix corner
            assert abs(_kstwo_sf(n, d) - kstwo.sf(d, n)) <= 1e-12, d
            seen.add("durbin")
            continue
        assert _kstwo_sf(n, d) == kstwo.sf(d, n), d
        seen.add("zero" if nd2 >= 370 else "smirnov" if nd2 >= 2.2
                 else "pelz-good")
    assert seen == {"durbin", "pelz-good", "smirnov", "zero"}


def test_kstwo_sf_rejects_small_n():
    with pytest.raises(ValueError, match="9999"):
        _kstwo_sf(9_999, 0.01)
    with pytest.raises(ValueError, match="9999"):
        _ks_norm(np.zeros(9_999))


def test_hybrid_ks_pvalue_recorded():
    report = run_battery(BatteryConfig(seed=11, trials=400),
                         only="replacement_hybrid")
    assert report["checks"][0]["details"]["ks_pvalue"] == 0.8690597098574231


def test_chisq_suite_constant():
    (entry,) = [e for e in builtin_suite(0) if e["poly_id"].endswith("chisq-n2d2")]
    assert entry["poly"].coeffs[(0, 0)] == 1.0 - float(chi2.ppf(0.5, 1))


def test_kwise_check_rejects_a_lower_independence_block(monkeypatch):
    # without its top coefficient the block's polynomial has degree k - 2,
    # so its words are only (k - 1)-wise independent
    real = battery.expand_batch
    calls = []

    def drop_top(coeffs, spec):
        calls.append(spec)
        coeffs = coeffs.copy()
        coeffs[:, -1] = 0
        return real(coeffs, spec)

    monkeypatch.setattr(battery, "expand_batch", drop_top)
    assert check_kwise_exhaustive(BatteryConfig()) == {"pass": False}
    assert len(calls) == 24  # one expansion per (k, M, n) spec


@pytest.mark.parametrize("k", [1, 2, 3])
def test_kwise_block_is_exactly_k_wise(k):
    # 4^k coefficient rows cannot cover the 4^(k+1) joint values of k + 1
    # words, so some (k+1)-subset is not uniform
    spec = KWiseSpec(k=k, n=4, M=2)
    assert _block_is_uniform(spec, k)
    assert not _block_is_uniform(spec, k + 1)
