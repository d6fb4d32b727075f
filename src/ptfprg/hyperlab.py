"""Hyperconcentration predicates and the local-hyperconcentration experiments.

Most results checked here carry an unspecified absolute constant; every such
check sweeps its constant over SWEEP and reports the passing envelope
instead of asserting one value.  An experiment over a distribution F_{i,j}
averages its statistic over coefficient rows drawn by one PolySampler.sample
call on a substream of its master seed; a Dirac sampler yields its base once,
so for it the zoomed hypervariance and squared 2-norm are exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .gaussops import (_directional_derivative_rows, _zoom_level_weights,
                       hypervar, mult_close)
from .hermite import HermitePoly, _design
from .seeding import substream
from .statgrid import PolySampler

__all__ = [
    "HyperconReport",
    "hypercon_check",
    "local_hyperconc_experiment",
    "derivative_sequence",
    "derivative_ratio_experiment",
    "retention_attrition_experiment",
    "carbery_wright_check",
    "zoom_ratio_check",
]

SWEEP = (1.0, 2.0, 4.0, 8.0)


def _check_count(name, count):
    if count < 1:
        raise ValueError(f"{name} = {count!r} is below 1")


@dataclass
class HyperconReport:
    q: float
    eta: float
    mu: float
    deviation_norm: float
    stderr: float
    holds: bool
    exact_route: bool = False


def hypercon_check(g: HermitePoly, q, eta, trials=10_000, master_seed=0,
                   exact_amplification=None) -> HyperconReport:
    """Check E[|g - mu|^q]^{1/q} <= eta |mu|.

    The Monte Carlo route estimates the q-norm with a delta-method stderr and
    allows 4 sigma of slack.  If `exact_amplification` R is given and
    HyperVar_R[g] <= theta mu^2 with sqrt(theta) <= eta, hyperconcentration
    at q = 1 + R^2 is certified without sampling.
    """
    if q <= 2:
        raise ValueError("q must exceed 2")
    _check_count("trials", trials)
    mu = g.mean()
    if exact_amplification is not None:
        R = exact_amplification
        if 1.0 + R * R >= q * (1.0 - 1e-12) and mu != 0.0:
            theta = hypervar(g, R) / (mu * mu)
            if math.sqrt(theta) <= eta:
                return HyperconReport(q=q, eta=eta, mu=mu,
                                      deviation_norm=math.sqrt(theta) * abs(mu),
                                      stderr=0.0, holds=True, exact_route=True)
    rng = substream(master_seed, "hypercon")
    X = rng.standard_normal((trials, g.n))
    dev = np.abs(g.eval_batch(X) - mu) ** q
    mq = dev.mean()
    mq_err = dev.std(ddof=1) / math.sqrt(trials)
    norm = mq ** (1.0 / q)
    # delta method: d(m^{1/q})/dm = m^{1/q - 1} / q
    err = mq_err * norm / (q * mq) if mq > 0.0 else 0.0
    return HyperconReport(q=q, eta=eta, mu=mu, deviation_norm=norm, stderr=err,
                          holds=norm <= eta * abs(mu) + 4.0 * err)


def local_hyperconc_experiment(sampler: PolySampler, R, eps, beta, lam,
                               x_trials=500, inner_trials=200,
                               master_seed=0) -> dict:
    """Failure rate of HyperVar_R[zoom at x] <= eps^2 ||zoom at x||_2^2.

    Draws x_trials Gaussian centers, then inner_trials polynomials from the
    sampler, and averages both sides over the polynomials at each x: exact
    for a Dirac sampler, which yields its base once.
    """
    if R < 1.0 or not 0.0 < eps < 1.0 or not 0.0 < beta < 1.0:
        raise ValueError("require R >= 1 and eps, beta in (0, 1)")
    _check_count("x_trials", x_trials)
    rng = substream(master_seed, "local-hyperconc")
    X = rng.standard_normal((x_trials, sampler.base.n))
    W = _zoom_level_weights(*sampler.sample(rng, inner_trials), lam,
                            X).mean(axis=0)
    amp = R ** (2.0 * np.arange(W.shape[1]))
    failures = W[:, 1:] @ amp[1:] > eps * eps * W.sum(axis=1)
    frac = float(failures.mean())
    return {
        "failure_fraction": frac,
        "stderr": math.sqrt(max(frac * (1.0 - frac), 1e-12) / x_trials),
        "x_trials": x_trials,
        "lam": lam,
        "bound": beta,
    }


def _derivative_values(support, G, x, ys) -> np.ndarray:
    """(K, len(ys) + 1): |D_{y_k} ... D_{y_1} f(x)|^2 for k = 0..len(ys),
    for each coefficient row f of G (K, T) over a graded support."""
    vals = [G @ _design(x[None, :], support)[0]]
    for y in ys:
        support, G = _directional_derivative_rows(support, G, y)
        vals.append(G @ _design(x[None, :], support)[0])
    return np.stack(vals, axis=1) ** 2


def derivative_sequence(sampler: PolySampler, x, ys, trials=200,
                        master_seed=0) -> list:
    """[D^0, ..., D^len(ys)], D^k = average over the sampler of
    |D_{y_k} ... D_{y_1} g(x)|^2, each >= 0.

    Averages over trials draws from the (master_seed, "deriv-seq")
    substream; exact (one draw) for Dirac samplers.
    """
    x = np.asarray(x, dtype=float)
    ys = [np.asarray(y, dtype=float) for y in ys]
    n = sampler.base.n
    if x.shape != (n,) or any(y.shape != (n,) for y in ys):
        raise ValueError("x and every direction must have the base dimension")
    rows = sampler.sample(substream(master_seed, "deriv-seq"), trials)
    return list(_derivative_values(*rows, x, ys).mean(axis=0))


def derivative_ratio_experiment(sampler: PolySampler, eps, trials=400,
                                master_seed=0) -> dict:
    """How often some step of a random derivative sequence jumps by more than
    C d^6 / eps^2: fractions per swept C, plus the smallest passing C.  Each
    sequence averages over its own draws from the sampler."""
    _check_count("trials", trials)
    n = sampler.base.n
    d = max(sampler.base.degree(), 1)
    rng = substream(master_seed, "deriv-ratio")
    seeds = substream(master_seed, "deriv-ratio-inner").integers(
        2**63, size=trials)
    jump = {c: 0 for c in SWEEP}
    for seed in seeds:
        x = rng.standard_normal(n)
        ys = [rng.standard_normal(n) for _ in range(d)]
        seq = derivative_sequence(sampler, x, ys, master_seed=seed)
        for c in SWEEP:
            bound = c * d**6 / eps**2
            if any(seq[k + 1] > bound * seq[k] for k in range(d)):
                jump[c] += 1
    out = {c: jump[c] / trials for c in SWEEP}
    err = math.sqrt(0.25 / trials)
    passing = [c for c in SWEEP if out[c] <= eps + 4.0 * err]
    return {"fractions": out, "stderr": err, "bound": eps,
            "passing_C": min(passing) if passing else None}


def retention_attrition_experiment(sampler: PolySampler, k, S, lam,
                                   beta_prime, trials=400, master_seed=0,
                                   inner_trials=200) -> dict:
    """One-stage zoom behavior of a (k, S, 1)-attenuated-on-average sampler.

    retention: the zoomed squared 2-norm rarely falls below
        (beta'/(C k))^{2k} times the original (fraction <= beta' for some C);
    attrition: the amplified hypervariance above level m = ceil(k/2) of the
        zoom rarely exceeds (C beta'/m)^{4m} times the original squared norm.
    Both the precondition and the zoom statistics average over one set of
    inner_trials draws from the sampler (the base itself, if Dirac).
    """
    if k < 1 or S < 1.0 or not 0.0 < beta_prime < 1.0:
        raise ValueError("require k >= 1, S >= 1, beta' in (0,1)")
    _check_count("trials", trials)
    rng = substream(master_seed, "retention")
    support, rows = sampler.sample(rng, inner_trials)

    # precondition: attenuated on average above level k at amplification S
    levels, sq = support.sum(axis=1), rows * rows
    base_hv = float(np.mean(sq @ np.where(levels > k, S ** (2.0 * levels), 0)))
    base_n2 = float(np.mean(sq.sum(axis=1)))
    if base_hv > base_n2 * (1.0 + 1e-9):
        raise ValueError("sampler is not (k, S, 1)-attenuated on average")

    X = rng.standard_normal((trials, sampler.base.n))
    m = max(1, math.ceil(k / 2))
    # the zoom's squared 2-norm and S-amplified weight at levels >= m
    W = _zoom_level_weights(support, rows, lam, X).mean(axis=0)
    zn2 = W.sum(axis=1)
    zhv = W[:, m:] @ S ** (2.0 * np.arange(m, W.shape[1]))
    err = math.sqrt(0.25 / trials)
    retention, attrition = {}, {}
    for c in SWEEP:
        retention[c] = float((zn2 < (beta_prime / (c * k)) ** (2 * k) * base_n2).mean())
        attrition[c] = float((zhv > (c * beta_prime / m) ** (4 * m) * base_n2).mean())
    ret_pass = [c for c in SWEEP if retention[c] <= beta_prime + 4.0 * err]
    att_pass = [c for c in SWEEP if attrition[c] <= beta_prime + 4.0 * err]
    return {
        "retention_fractions": retention,
        "attrition_fractions": attrition,
        "stderr": err,
        "bound": beta_prime,
        "retention_passing_C": min(ret_pass) if ret_pass else None,
        "attrition_passing_C": min(att_pass) if att_pass else None,
    }


def carbery_wright_check(g: HermitePoly, delta, trials=20_000,
                         master_seed=0) -> dict:
    """Anticoncentration: Pr[|g| < (delta/(C d))^d ||g||_2] <= delta.

    Sweeps C and reports the smallest passing value.
    """
    if not 0.0 <= delta <= 1.0:
        raise ValueError("delta outside [0, 1]")
    _check_count("trials", trials)
    d = max(g.degree(), 1)
    norm = math.sqrt(g.sq2norm())
    rng = substream(master_seed, "carbery-wright")
    vals = np.abs(g.eval_batch(rng.standard_normal((trials, g.n))))
    err = math.sqrt(0.25 / trials)
    fractions = {}
    for c in SWEEP:
        thr = (delta / (c * d)) ** d * norm
        fractions[c] = float((vals < thr).mean())
    passing = [c for c in SWEEP if fractions[c] <= delta + 4.0 * err]
    return {"fractions": fractions, "stderr": err, "bound": delta,
            "passing_C": min(passing) if passing else None}


def zoom_ratio_check(g: HermitePoly, lam, beta, trials=10_000,
                     master_seed=0) -> dict:
    """Zoomed values track the center value: the fraction of (x, y) pairs
    with zoom(g, lam, x)(y) not within e^{+-nu} of g(x), nu = C d^2
    sqrt(lam)/beta, should be at most beta for some swept C with nu <= 1."""
    if not 0.0 < beta < 1.0:
        raise ValueError("beta outside (0, 1)")
    _check_count("trials", trials)
    d = max(g.degree(), 1)
    rng = substream(master_seed, "zoom-ratio")
    X = rng.standard_normal((trials, g.n))
    Y = rng.standard_normal((trials, g.n))
    gx = g.eval_batch(X)
    # zoom value = g(sqrt(1-lam) x + sqrt(lam) y), evaluated directly
    zy = g.eval_batch(math.sqrt(1.0 - lam) * X + math.sqrt(lam) * Y)
    err = math.sqrt(0.25 / trials)
    fractions = {}
    for c in SWEEP:
        nu = c * d * d * math.sqrt(lam) / beta
        fractions[c] = {"nu": nu, "fraction":
                        float(1.0 - mult_close(zy, gx, nu).mean())}
    passing = [c for c in SWEEP
               if fractions[c]["nu"] <= 1.0
               and fractions[c]["fraction"] <= beta + 4.0 * err]
    return {"fractions": fractions, "stderr": err, "bound": beta,
            "passing_C": min(passing) if passing else None}
