"""Hyperconcentration predicates and the local-hyperconcentration experiments.

Most results checked here carry an unspecified absolute constant; every such
check sweeps its constant over a small grid and reports the passing envelope
instead of asserting one value.  For Dirac samplers the zoomed hypervariance
and squared 2-norm are computed exactly from the zoom coefficient
polynomials, removing one layer of Monte Carlo noise from the headline
experiment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .gaussops import (_zoom_level_weights, directional_derivative, hypervar,
                       mult_close, zoom_hypervar_and_norm_batch)
from .hermite import HermitePoly
from .seeding import substream
from .statgrid import PolySampler

__all__ = [
    "HyperconReport",
    "DerivSequence",
    "hypercon_check",
    "local_hyperconc_experiment",
    "derivative_sequence",
    "derivative_ratio_experiment",
    "retention_attrition_experiment",
    "carbery_wright_check",
    "zoom_ratio_check",
]

SWEEP = (1.0, 2.0, 4.0, 8.0)


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
                               x_trials=500, inner_mode="exact",
                               inner_trials=200, master_seed=0) -> dict:
    """Failure rate of HyperVar_R[zoom at x] <= eps^2 ||zoom at x||_2^2.

    Draws x_trials Gaussian centers; for Dirac samplers both sides are exact
    per x (inner_mode 'exact' is mandatory there), otherwise both sides are
    averaged over inner_trials fresh polynomial draws.
    """
    if R < 1.0 or not 0.0 < eps < 1.0 or not 0.0 < beta < 1.0:
        raise ValueError("require R >= 1 and eps, beta in (0, 1)")
    if sampler.dirac and inner_mode != "exact":
        raise ValueError("Dirac samplers must use the exact inner mode")
    rng = substream(master_seed, "local-hyperconc")
    n = sampler.base.n
    X = rng.standard_normal((x_trials, n))
    if inner_mode == "exact":
        if not sampler.dirac:
            raise ValueError("exact inner mode requires a Dirac sampler")
        hv, n2 = zoom_hypervar_and_norm_batch(sampler.base, lam, X, R)
    else:
        hv = np.zeros(x_trials)
        n2 = np.zeros(x_trials)
        for _ in range(inner_trials):
            f = sampler.sample()
            fh, fn = zoom_hypervar_and_norm_batch(f, lam, X, R)
            hv += fh
            n2 += fn
        hv /= inner_trials
        n2 /= inner_trials
    failures = hv > eps * eps * n2
    frac = float(failures.mean())
    return {
        "failure_fraction": frac,
        "stderr": math.sqrt(max(frac * (1.0 - frac), 1e-12) / x_trials),
        "x_trials": x_trials,
        "lam": lam,
        "bound": beta,
    }


@dataclass
class DerivSequence:
    values: list  # D^0 .. D^d, each >= 0


def derivative_sequence(sampler: PolySampler, x, ys, trials=200,
                        master_seed=0) -> DerivSequence:
    """D^k = average over the sampler of |D_{y_k} ... D_{y_1} g(x)|^2.

    Exact (trials ignored) for Dirac samplers.
    """
    x = np.asarray(x, dtype=float)
    ys = [np.asarray(y, dtype=float) for y in ys]
    n = sampler.base.n
    if x.shape != (n,) or any(y.shape != (n,) for y in ys):
        raise ValueError("x and every direction must have the base dimension")

    def one(g):
        vals = [g.eval(x) ** 2]
        cur = g
        for y in ys:
            cur = directional_derivative(cur, y)
            vals.append(cur.eval(x) ** 2)
        return np.array(vals)

    if sampler.dirac:
        return DerivSequence(values=list(one(sampler.base)))
    acc = np.zeros(len(ys) + 1)
    for _ in range(trials):
        acc += one(sampler.sample())
    return DerivSequence(values=list(acc / trials))


def derivative_ratio_experiment(sampler: PolySampler, eps, trials=400,
                                master_seed=0, sweep=SWEEP) -> dict:
    """How often some step of a random derivative sequence jumps by more than
    C d^6 / eps^2: fractions per swept C, plus the smallest passing C."""
    n = sampler.base.n
    d = max(sampler.base.degree(), 1)
    rng = substream(master_seed, "deriv-ratio")
    jump = {c: 0 for c in sweep}
    for _ in range(trials):
        x = rng.standard_normal(n)
        ys = [rng.standard_normal(n) for _ in range(d)]
        seq = derivative_sequence(sampler, x, ys).values
        for c in sweep:
            bound = c * d**6 / eps**2
            if any(seq[k + 1] > bound * seq[k] for k in range(d)):
                jump[c] += 1
    out = {c: jump[c] / trials for c in sweep}
    err = math.sqrt(0.25 / trials)
    passing = [c for c in sweep if out[c] <= eps + 4.0 * err]
    return {"fractions": out, "stderr": err, "bound": eps,
            "passing_C": min(passing) if passing else None}


def retention_attrition_experiment(sampler: PolySampler, k, S, lam,
                                   beta_prime, trials=400, master_seed=0,
                                   inner_trials=200, sweep=SWEEP) -> dict:
    """One-stage zoom behavior of a (k, S, 1)-attenuated-on-average sampler.

    retention: the zoomed squared 2-norm rarely falls below
        (beta'/(C k))^{2k} times the original (fraction <= beta' for some C);
    attrition: the amplified hypervariance above level m = ceil(k/2) of the
        zoom rarely exceeds (C beta'/m)^{4m} times the original squared norm.
    """
    if k < 1 or S < 1.0 or not 0.0 < beta_prime < 1.0:
        raise ValueError("require k >= 1, S >= 1, beta' in (0,1)")
    n = sampler.base.n
    rng = substream(master_seed, "retention")

    # precondition: attenuated on average above level k at amplification S
    if sampler.dirac:
        base_hv = hypervar(sampler.base, S, above_level=k)
        base_n2 = sampler.base.sq2norm()
    else:
        svals = []
        for _ in range(inner_trials):
            f = sampler.sample()
            svals.append((hypervar(f, S, above_level=k), f.sq2norm()))
        base_hv = float(np.mean([a for a, _ in svals]))
        base_n2 = float(np.mean([b for _, b in svals]))
    if base_hv > base_n2 * (1.0 + 1e-9):
        raise ValueError("sampler is not (k, S, 1)-attenuated on average")

    X = rng.standard_normal((trials, n))
    m = max(1, math.ceil(k / 2))

    def zoom_stats(g):
        # the zoom's squared 2-norm and S-amplified weight at levels >= m
        W = _zoom_level_weights(g, lam, X)
        amp = S ** (2.0 * np.arange(m, W.shape[1]))
        return np.stack([W.sum(axis=1), W[:, m:] @ amp])

    if sampler.dirac:
        zn2, zhv = zoom_stats(sampler.base)
    else:
        zn2, zhv = sum(zoom_stats(sampler.sample())
                       for _ in range(inner_trials)) / inner_trials
    err = math.sqrt(0.25 / trials)
    retention, attrition = {}, {}
    for c in sweep:
        retention[c] = float((zn2 < (beta_prime / (c * k)) ** (2 * k) * base_n2).mean())
        attrition[c] = float((zhv > (c * beta_prime / m) ** (4 * m) * base_n2).mean())
    ret_pass = [c for c in sweep if retention[c] <= beta_prime + 4.0 * err]
    att_pass = [c for c in sweep if attrition[c] <= beta_prime + 4.0 * err]
    return {
        "retention_fractions": retention,
        "attrition_fractions": attrition,
        "stderr": err,
        "bound": beta_prime,
        "retention_passing_C": min(ret_pass) if ret_pass else None,
        "attrition_passing_C": min(att_pass) if att_pass else None,
    }


def carbery_wright_check(g: HermitePoly, delta, trials=20_000, master_seed=0,
                         sweep=SWEEP) -> dict:
    """Anticoncentration: Pr[|g| < (delta/(C d))^d ||g||_2] <= delta.

    Sweeps C and reports the smallest passing value.
    """
    if not 0.0 <= delta <= 1.0:
        raise ValueError("delta outside [0, 1]")
    d = max(g.degree(), 1)
    norm = math.sqrt(g.sq2norm())
    rng = substream(master_seed, "carbery-wright")
    vals = np.abs(g.eval_batch(rng.standard_normal((trials, g.n))))
    err = math.sqrt(0.25 / trials)
    fractions = {}
    for c in sweep:
        thr = (delta / (c * d)) ** d * norm
        fractions[c] = float((vals < thr).mean())
    passing = [c for c in sweep if fractions[c] <= delta + 4.0 * err]
    return {"fractions": fractions, "stderr": err, "bound": delta,
            "passing_C": min(passing) if passing else None}


def zoom_ratio_check(g: HermitePoly, lam, beta, trials=10_000, master_seed=0,
                      sweep=SWEEP) -> dict:
    """Zoomed values track the center value: the fraction of (x, y) pairs
    with zoom(g, lam, x)(y) not within e^{+-nu} of g(x), nu = C d^2
    sqrt(lam)/beta, should be at most beta for some swept C with nu <= 1."""
    if not 0.0 < beta < 1.0:
        raise ValueError("beta outside (0, 1)")
    d = max(g.degree(), 1)
    rng = substream(master_seed, "zoom-ratio")
    X = rng.standard_normal((trials, g.n))
    Y = rng.standard_normal((trials, g.n))
    gx = g.eval_batch(X)
    # zoom value = g(sqrt(1-lam) x + sqrt(lam) y), evaluated directly
    zy = g.eval_batch(math.sqrt(1.0 - lam) * X + math.sqrt(lam) * Y)
    err = math.sqrt(0.25 / trials)
    fractions = {}
    for c in sweep:
        nu = c * d * d * math.sqrt(lam) / beta
        fractions[c] = {"nu": nu, "fraction":
                        float(1.0 - mult_close(zy, gx, nu).mean())}
    passing = [c for c in sweep
               if fractions[c]["nu"] <= 1.0
               and fractions[c]["fraction"] <= beta + 4.0 * err]
    return {"fractions": fractions, "stderr": err, "bound": beta,
            "passing_C": min(passing) if passing else None}
