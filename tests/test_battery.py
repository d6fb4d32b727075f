"""The battery's statistics against scipy (its in-package normal CDF against
scipy.special.ndtr, its KS p-value and chi-square median against
scipy.stats), the guards that no ptfprg code path imports scipy.stats and
that set-up imports no scipy at all (a cold import of scipy.special costs
about half a process's set-up), the guard that a battery run loads no
mpmath, the zoom identity checks against their first Python-loop forms, and
negative controls for the exhaustive k-wise check."""

import ast
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.special import ndtr
from scipy.stats import chi2, kstest, kstwo

import ptfprg
from ptfprg import battery
from ptfprg.battery import (_MAXLOG, BatteryConfig, _block_is_uniform,
                            _ks_norm, _kstwo_sf, _ndtr, builtin_suite,
                            check_kwise_exhaustive, check_zoom_level_identity,
                            check_zoom_weight_identity, run_battery)
from ptfprg.kwise import KWiseSpec
from battery_reference import (reference_zoom_level_identity,
                               reference_zoom_weight_identity)

SRC = Path(ptfprg.__file__).resolve().parent
KS_NS = (10_000, 20_000, 50_000)


def test_no_code_path_imports_scipy_stats():
    # a fresh interpreter: pytest's own process may hold scipy already.
    # Criterion 9's run meets neither lazy scipy.special import (its KS
    # p-value is in the Pelz-Good band, no smooth step at 1 - u = 1).
    script = (
        "import sys\n"
        "import numpy as np\n"
        "import ptfprg.cli\n"
        "from ptfprg.battery import (BatteryConfig, builtin_suite,\n"
        "                            fooling_report, run_battery)\n"
        "from ptfprg.hermite import random_poly\n"
        "from ptfprg.mollifier import (analysis_checks_eval_batch,\n"
        "                              mollifier_eval_batch)\n"
        "from ptfprg.prg import choose_params\n"
        "from ptfprg.statgrid import StatGrid\n"
        "rng = np.random.default_rng(0)\n"
        "p = random_poly(3, 2, rng)\n"
        "params = choose_params(3, 2, 0.2, coupling='analysis')\n"
        "grid = StatGrid(p, params, master_seed=0, mc_trials=50)\n"
        "X = rng.standard_normal((20, 3))\n"
        "mollifier_eval_batch(p, params, X, grid)\n"
        "analysis_checks_eval_batch(p, params, X, grid)\n"
        "suite = builtin_suite(0)\n"
        "fooling_report(suite[:2], 0.2, 500, 0)\n"
        "assert run_battery(BatteryConfig(seed=11, trials=400))['pass']\n"
        "print('scipy.stats' in sys.modules,\n"
        "      sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    r = subprocess.run([sys.executable, "-c", script], capture_output=True,
                       text=True, env=env)
    assert r.returncode == 0, r.stderr[-2000:]
    assert r.stdout == "False []\n"


def test_battery_run_imports_no_mpmath():
    # mpmath is the tests' oracle for verify.lagrange_l0, not a dependency
    script = (
        "import sys\n"
        "import ptfprg.cli\n"
        "from ptfprg.battery import BatteryConfig, run_battery\n"
        "assert run_battery(BatteryConfig(seed=11, trials=400))['pass']\n"
        "print('mpmath' in sys.modules)\n")
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    r = subprocess.run([sys.executable, "-c", script], capture_output=True,
                       text=True, env=env)
    assert r.returncode == 0, r.stderr[-2000:]
    assert r.stdout == "False\n"


@pytest.mark.parametrize("seed", [0, 1, 11])
def test_zoom_identities_equal_reference(seed):
    cfg = BatteryConfig(seed=seed)
    assert check_zoom_weight_identity(cfg) == reference_zoom_weight_identity(cfg)
    assert check_zoom_level_identity(cfg) == reference_zoom_level_identity(cfg)


def _module_level_imports(tree):
    """Import nodes run when the module is imported (not in a def body)."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                   ast.Lambda)):
            stack.extend(ast.iter_child_nodes(node))


def test_no_module_level_scipy_import():
    found = []
    for path in sorted(SRC.rglob("*.py")):
        for node in _module_level_imports(ast.parse(path.read_text())):
            names = ([node.module or ""] if isinstance(node, ast.ImportFrom)
                     else [a.name for a in node.names])
            found += [(path.name, node.lineno) for name in names
                      if name.split(".")[0] == "scipy"]
    assert not found, found


def test_no_source_file_names_scipy_stats():
    named = [p.name for p in sorted(SRC.rglob("*.py"))
             if "scipy.stats" in p.read_text()]
    assert not named, named


def test_ndtr_equals_scipy():
    rng = np.random.default_rng(19)
    edge = math.sqrt(2.0 * _MAXLOG)  # erfc's e^{-x^2} underflows past it
    points = [0.0, 1 / math.sqrt(2.0), 1.0, math.sqrt(2.0), 8.0,
              8.0 * math.sqrt(2.0), 37.5, edge, np.nextafter(edge, 0.0),
              np.nextafter(edge, 40.0), math.inf]
    x = np.concatenate([rng.standard_normal(20_000),
                        rng.uniform(-40.0, 40.0, 20_000),
                        np.linspace(-1.5, 1.5, 3001), points,
                        np.negative(points), [-0.0, math.nan]])
    assert np.array_equal(_ndtr(x), ndtr(x), equal_nan=True)
    grid = x[:600].reshape(20, 30)
    assert np.array_equal(_ndtr(grid), ndtr(grid))
    for v in points + [-v for v in points]:
        got = _ndtr(v)
        assert type(got) is float and got == ndtr(v), v


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
