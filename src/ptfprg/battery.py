"""Named verification checks: exact identities, oracle inequalities, and the
desk-scale statistical experiments, plus the built-in fooling suite.

The statistical oracles need no scipy at import: the normal CDF is a port of
the Cephes code scipy.special.ndtr runs, with the same bits, and the
chi-square median is a literal.  Only the KS p-value's Smirnov band imports
scipy.special, when a run reaches it.

Every check is a function config -> report dict with a boolean "pass"; all
randomness is derived from the config seed through fixed substream paths, so
a battery run is reproducible byte-for-byte.  Statistical gates are uniformly
four standard errors; exact gates carry the tolerance in the report.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import verify
from .gaussops import (_pairs, _zoom_matrix, amplified_derivative,
                       binom_pmf_row, hypervar, is_attenuated, mult_close,
                       noise_op, zoom_coefficient_polys, zoom_hypervar_batch)
from .hermite import (HermitePoly, _design, _monomial_tables, hermite_values,
                      random_poly, total_degree)
from .hyperlab import (carbery_wright_check, hypercon_check,
                       zoom_ratio_check, local_hyperconc_experiment)
from .kwise import KWiseSpec, expand_batch, field_width, kwise_gaussian_batch
from .mollifier import mollifier_eval_batch
from .prg import choose_params, generate_batch
from .seeding import substream
from .statgrid import PolySampler, StatGrid, stat_identities_check
from .verify import (clean_fraction, jigsaw_check, lagrange_l0,
                     smoothing_chain_experiment, stability_closed_forms)

__all__ = ["BatteryConfig", "CHECKS", "run_battery", "builtin_suite",
           "fooling_report", "mollification_error_report",
           "grid_noise_insensitivity_report", "local_hyperconc_report",
           "grid_local_hyperconc_report",
           "neighbor_hypervariance_report", "sign_expectation"]


@dataclass
class BatteryConfig:
    n: int = 4
    eps: float = 0.2
    seed: int = 0
    trials: int = 2000
    fault: str = None  # e.g. "jigsaw" flips that check's verdict


# ---------------------------------------------------------------------------
# shared experiment helpers (also driven directly by the acceptance suite)
# ---------------------------------------------------------------------------

def sign_expectation(p: HermitePoly, X):
    """(mean of sign p, stderr) over a sample batch."""
    s = np.sign(p.eval_batch(X))
    m = float(s.mean())
    return m, math.sqrt(max(1.0 - m * m, 1e-12) / len(s))


def builtin_suite(seed=0):
    """The 20-polynomial desk-scale fooling suite (n <= 8, d <= 3).

    Random dense coefficients over a spread of (n, d), products of linear
    forms, top-level Hermite of a unit linear form, and the shifted square
    with an exact chi-square sign oracle.
    """
    rng = substream(seed, "suite")
    entries = []

    def add(tag, n, d, poly):
        entries.append({"poly_id": f"{len(entries):02d}-{tag}", "n": n,
                        "d": d, "poly": poly})

    for n, d in [(2, 1), (2, 1), (8, 1), (8, 1), (4, 2), (4, 2), (8, 2),
                 (8, 2), (2, 3), (2, 3), (4, 3), (4, 3)]:
        add(f"rand-n{n}d{d}", n, d, random_poly(n, d, rng))

    def linear_form(n):
        a = rng.standard_normal(n)
        return a, float(rng.standard_normal())

    def linear(a):
        # sum_i a_i x_i, and x_i = h_1(x_i)
        n = len(a)
        return HermitePoly.from_monomial_basis(
            n, [(tuple(int(i == j) for j in range(n)), a[i]) for i in range(n)])

    for n, d in [(4, 2), (8, 2), (2, 3), (4, 3)]:
        prod = HermitePoly.constant(n, 1.0)
        for _ in range(d):
            a, b = linear_form(n)
            prod = prod * (linear(a) + HermitePoly.constant(n, b))
        add(f"linprod-n{n}d{d}", n, d, prod)

    for n, d in [(8, 1), (4, 2), (4, 3)]:
        a, _ = linear_form(n)
        t = linear(a / np.linalg.norm(a))
        powers = [HermitePoly.constant(n, 1.0)]
        for _ in range(d):
            powers.append(powers[-1] * t)
        hd = HermitePoly.zero(n)  # h_d(t) = sum_j Q[d, j] t^j
        Q = _monomial_tables(d)[1]
        for j in range(d % 2, d + 1, 2):
            hd = hd + powers[j].scale(Q[d, j])
        add(f"hlin-n{n}d{d}", n, d, hd)

    # sign oracle case: h_1^2 - median(chi^2_1) has E[sign] = 0 exactly;
    # the chi^2_1 median is 2 P^{-1}(1/2, 1/2), P the regularized gamma
    # (scipy's chi2.ppf(0.5, 1) and 2 * gammaincinv(0.5, 0.5), to the bit)
    c = 0.454936423119572
    add("chisq-n2d2", 2, 2, HermitePoly.basis(2, (2, 0), math.sqrt(2.0))
        + HermitePoly.constant(2, 1.0 - c))
    return entries


def _fooling_groups(suite, eps, **overrides):
    """(generator parameters, entries) per (n, d) group, sorted by (n, d)."""
    groups = {}
    for e in suite:
        groups.setdefault((e["n"], e["d"]), []).append(e)
    return [(choose_params(n, d, eps, **overrides), entries)
            for (n, d), entries in sorted(groups.items())]


def fooling_report(suite, eps, samples, master_seed, *, lambda_exp=2.0,
                   M=16, k_mult=16):
    """Sign-expectation gap of the generator vs. true Gaussians, per polynomial.

    Samples are shared across suite entries with the same (n, d); the
    reference side uses a conventional high-quality generator, never the
    k-wise construction.
    """
    if samples < 2:
        raise ValueError(f"samples = {samples}: a sign expectation needs at "
                         "least 2 samples for an error bar")
    rows = []
    for params, entries in _fooling_groups(suite, eps, lambda_exp=lambda_exp,
                                           M=M, k_mult=k_mult):
        n, d = params.n, params.d
        gseed = int(substream(master_seed, "fool-seed", n, d).integers(2**63))
        Z = generate_batch(params, gseed, samples)
        Xref = substream(master_seed, "fool-ref", n, d).standard_normal(
            (samples, n))
        for e in entries:
            est_prg, err_prg = sign_expectation(e["poly"], Z)
            est_true, err_true = sign_expectation(e["poly"], Xref)
            stderr = math.hypot(err_prg, err_true)
            rows.append({
                "poly_id": e["poly_id"], "n": n, "d": d,
                "est_prg": est_prg, "est_true": est_true,
                "diff": abs(est_prg - est_true), "stderr": stderr,
                "seed_bits": params.seed_bits_per_sample(),
                "pass": abs(est_prg - est_true) <= eps + 4.0 * stderr,
            })
    rows.sort(key=lambda r: r["poly_id"])
    return {"rows": rows, "eps": eps, "samples": samples,
            "pass": all(r["pass"] for r in rows)}


def mollification_error_report(p, params, x_count, master_seed, mc_trials=2000):
    """Fraction of Gaussian centers where the mollifier is not exactly 1."""
    grid = StatGrid(p, params, master_seed=master_seed, mc_trials=mc_trials)
    X = substream(master_seed, "moll-x").standard_normal((x_count, p.n))
    vals = mollifier_eval_batch(p, params, X, grid=grid)
    frac = float(np.mean([v.value != 1.0 for v in vals]))
    err = math.sqrt(max(frac * (1 - frac), 1e-12) / x_count)
    bound = params.eps / 4.0
    return {"fraction": frac, "stderr": err, "bound": bound,
            "x_count": x_count, "pass": frac <= bound + 4.0 * err}


def grid_noise_insensitivity_report(p, params, x_count, master_seed):
    """Per-pair fraction of centers with s_{i,j} not within e^{+-delta_horz}
    of s_{i,j+1}, over the exact rows i <= 1."""
    grid = StatGrid(p, params, master_seed=master_seed)
    X = substream(master_seed, "ni-x").standard_normal((x_count, p.n))
    D = params.D
    beta = params.eps / (8.0 * (params.d + 1) * D)
    worst = 0.0
    for i in range(min(2, params.d + 1)):
        vals, _, _ = grid.row_batch(i, X, list(range(D)))
        far = ~mult_close(vals[:, :-1], vals[:, 1:], params.delta_horz)
        worst = max(worst, float(far.mean(axis=0).max()))
    err = math.sqrt(0.25 / x_count)
    return {"worst_fraction": worst, "stderr": err, "bound": beta,
            "pass": worst <= beta + 4.0 * err}


def local_hyperconc_report(rng, count, x_trials, master_seed, n=4, d=3,
                           R=2.0, eps=0.3, beta=0.1, c=0.01):
    """Local hyperconcentration of `count` random polys from rng, poly t on
    seed master_seed + t, at lam = c eps beta / (R d^{9/2}); passes when every
    failure fraction is within beta + 4 se."""
    lam = c * eps * beta / (R * d**4.5)
    runs = [local_hyperconc_experiment(
        PolySampler(random_poly(n, d, rng)), R=R, eps=eps, beta=beta,
        lam=lam, x_trials=x_trials, master_seed=master_seed + t)
        for t in range(count)]
    err = math.sqrt(0.25 / x_trials)
    return {"lam": lam, "runs": runs, "pass": all(
        r["failure_fraction"] <= beta + 4 * err for r in runs)}


def grid_local_hyperconc_report(p, params, x_count, master_seed,
                                mc_trials=2000):
    """Fraction of centers with s_{i+1,0}(x) > lambda_hat s_{i,1}(x)."""
    grid = StatGrid(p, params, master_seed=master_seed, mc_trials=mc_trials)
    X = substream(master_seed, "lh-x").standard_normal((x_count, p.n))
    beta = params.eps / (8.0 * params.d)
    err = math.sqrt(0.25 / x_count)
    fracs = {}
    for i in range(min(2, params.d)):
        up = grid.row_batch(i + 1, X, [0])[0][:, 0]
        low = grid.row_batch(i, X, [1])[0][:, 0]
        fracs[i] = float(np.mean(up > params.lambda_hat * low))
    worst = max(fracs.values())
    return {"fractions": fracs, "worst_fraction": worst, "stderr": err,
            "bound": beta, "pass": worst <= beta + 4.0 * err}


def neighbor_hypervariance_report(p, params, x_count, master_seed, cols=None,
                                  mc_trials=2000):
    """Hypervariance of the zoomed statistic against its grid neighbors:

        HyperVar_{sqrt(R)/13}[zoom(s_{i,j}) at x]
            <= 8 (s_{i,j+1}(x) + s_{i+1,j}(x)) s_{i+1,j}(x),

    checked for the exact rows i <= 1 with Monte Carlo error propagated
    through the right-hand side.
    """
    grid = StatGrid(p, params, master_seed=master_seed, mc_trials=mc_trials)
    X = substream(master_seed, "nb-x").standard_normal((x_count, p.n))
    R0 = math.sqrt(params.R_bar) / 13.0
    lam = params.lambda_bar
    cols = list(cols) if cols is not None else list(range(params.D))
    violations = []
    checked = 0
    for i in range(min(2, params.d)):
        base = grid.exact_row_poly(i)
        a_row, a_err_row, _ = grid.row_batch(i, X, [j + 1 for j in cols])
        b_row, b_err_row, _ = grid.row_batch(i + 1, X, cols)
        for c, j in enumerate(cols):
            s_ij = noise_op(base, grid.column_rho(j))
            lhs = zoom_hypervar_batch(s_ij, lam, X, R0)
            a, a_err = a_row[:, c], a_err_row[:, c]
            b, b_err = b_row[:, c], b_err_row[:, c]
            rhs = 8.0 * (a + b) * b
            sig = 8.0 * np.sqrt((b * a_err) ** 2 + ((a + 2 * b) * b_err) ** 2)
            tol = 4.0 * sig + 1e-9 * np.maximum(np.abs(rhs), np.abs(lhs))
            bad = lhs > rhs + tol
            checked += len(lhs)
            for idx in np.nonzero(bad)[0]:
                violations.append({"i": i, "j": j, "x_id": int(idx),
                                   "lhs": float(lhs[idx]),
                                   "rhs": float(rhs[idx])})
    return {"checked": checked, "violations": violations,
            "pass": not violations}


# ---------------------------------------------------------------------------
# exact checks
# ---------------------------------------------------------------------------

def check_clean_fraction(cfg):
    worst = Fraction(0)
    sign_ok = True
    for d in range(1, 21):
        for j in range(1, 2 * d + 2):
            v = clean_fraction(j, d)
            worst = max(worst, abs(v))
            sign_ok &= (v > 0) == (j % 2 == 1)
    frozen = clean_fraction(1, 1) == Fraction(3, 2)
    return {"pass": worst <= 2 and sign_ok and frozen,
            "max_abs": float(worst), "sign_alternation": sign_ok}


def check_lagrange_l0(cfg):
    ok = True
    worst = 0.0
    for d in range(1, 9):
        vals = lagrange_l0(d, 1e-11)
        worst = max(worst, max(abs(v) for v in vals))
        ok &= abs(sum(vals) - 1.0) <= 1e-9
    limit_ok = True
    for d in range(1, 5):
        vals = lagrange_l0(d, 1e-12)
        for j in range(1, 2 * d + 2):
            limit_ok &= abs(vals[j - 1] - float(clean_fraction(j, d))) <= 1e-6
    return {"pass": ok and worst <= 3.0 and limit_ok, "max_abs": worst,
            "partition_of_unity": ok, "small_q_limit": limit_ok}


def check_jigsaw(cfg):
    grid_vals = [0.1 * t for t in range(1, 10)]
    ok = True
    for a in range(0, 11):
        for R in (1.0, 2.0, 4.0):
            for lam in grid_vals:
                for rho in grid_vals:
                    holds = jigsaw_check(a, R, lam, rho)
                    if cfg.fault == "jigsaw":
                        holds = not holds
                    ok &= holds
    # at R = 1 the strengthened comparison (same base on both sides) is tight
    eq_ok = True
    for a in (1, 3, 7):
        for lam in (0.2, 0.7):
            for rho in (0.3, 0.6):
                lhs = (lam * rho + 1 - rho) ** a - (1 - rho) ** a
                rhs = (lam * rho + (1 - rho)) ** a - (1 - rho) ** a
                eq_ok &= abs(lhs - rhs) <= 1e-12
    return {"pass": ok and eq_ok, "grid_ok": ok, "tight_at_R1": eq_ok}


def check_stability_forms(cfg):
    """At unit amplification p_lhs <= p_rhs always (sigma sides coincide and
    tau_rhs <= tau_lhs); above 1 the termwise comparison is the jigsaw grid
    check.  Below 1 the ordering can reverse, so only the forms' structure
    and degenerate cases are asserted there."""
    rng = substream(cfg.seed, "stab-forms")
    ok = True
    for _ in range(5):
        h = random_poly(2, 3, rng)
        for lam in (0.0, 0.2, 0.8):
            for rho in (0.1, 0.5, 0.9):
                f = stability_closed_forms(h, 1.0, lam, rho)
                scale = max(abs(f.p_lhs), abs(f.p_rhs), 1.0)
                ok &= f.p_lhs <= f.p_rhs + 1e-10 * scale
                ok &= abs(f.sigma_lhs - f.sigma_rhs) <= 1e-12
    hconst = HermitePoly.constant(2, 3.0)
    z = stability_closed_forms(hconst, 0.5, 0.3, 0.5)
    ok &= z.p_lhs == 0.0 and z.p_rhs == 0.0
    degen = stability_closed_forms(random_poly(1, 2, rng), 1.0, 0.0, 0.5)
    ok &= abs(degen.p_lhs) <= 1e-12
    # documented reversal below unit amplification: dominant level-2 weight
    rev = stability_closed_forms(HermitePoly.basis(1, (2,)), 0.3, 0.2, 0.1)
    ok &= rev.p_lhs > rev.p_rhs
    return {"pass": ok}


def check_noise_semigroup(cfg):
    rng = substream(cfg.seed, "semigroup")
    worst = 0.0
    for _ in range(10):
        g = random_poly(3, 4, rng)
        for r1, r2 in [(0.3, 0.9), (1.7, 0.4), (2.0, 0.5), (1.2, 1.5)]:
            a = noise_op(noise_op(g, r1), r2)
            b = noise_op(g, r1 * r2)
            keys = set(a.coeffs) | set(b.coeffs)
            worst = max(worst, max(abs(a.coeffs.get(k, 0.0) - b.coeffs.get(k, 0.0))
                                   for k in keys))
    return {"pass": worst <= 1e-12, "max_coeff_diff": worst}


# the zoom identity checks' random polynomials: count, max n, max d
_POLY_COUNT, _POLY_N_MAX, _POLY_D_MAX = 50, 4, 4


def _poly_batch(cfg):
    rng = substream(cfg.seed, "polys", _POLY_COUNT, _POLY_N_MAX, _POLY_D_MAX)
    out = []
    for t in range(_POLY_COUNT):
        n = 1 + int(rng.integers(_POLY_N_MAX))
        d = 1 + int(rng.integers(_POLY_D_MAX))
        out.append(random_poly(n, d, rng))
    return out


def _pmf_table(top, lam):
    """(top + 1, top + 1): row m is binom_pmf_row(m, lam), zero past m."""
    table = np.zeros((top + 1, top + 1))
    for m in range(top + 1):
        table[m, :m + 1] = binom_pmf_row(m, lam)
    return table


def check_zoom_weight_identity(cfg):
    """Average squared zoom coefficient vs. the binomial mixing of squared
    input coefficients, per output index, to 1e-9 relative."""
    rng = substream(cfg.seed, "zoom-weight")
    worst = 0.0
    for g in _poly_batch(cfg):
        lam = float(rng.uniform(0.05, 0.95))
        cpolys = zoom_coefficient_polys(g, lam)
        lhs = np.array([cpoly.sq2norm() for cpoly in cpolys.values()])
        # pr[beta, gamma] = prod_k Pr[Bin(gamma_k, lam) = beta_k], a running
        # product in coordinate order; 0 unless gamma >= beta
        B, S = np.array(list(cpolys)), g.support
        pmf = _pmf_table(g.degree(), lam)
        pr = pmf[S[:, 0], B[:, :1]]
        for k in range(1, g.n):
            pr = pr * pmf[S[:, k], B[:, k:k + 1]]
        # sum_gamma pr c c left to right: cumsum is sequential, and the
        # zero terms of gamma not >= beta leave the running sum unchanged
        rhs = np.cumsum(pr * g.vector * g.vector, axis=1)[:, -1]
        rel = np.abs(lhs - rhs) / np.maximum(np.abs(rhs), 1e-300)
        worst = max(worst, float(rel.max()))
    return {"pass": worst <= 1e-9, "max_rel_err": worst}


def check_zoom_level_identity(cfg):
    """Expected zoom weight at each level vs. binomial level mixing."""
    rng = substream(cfg.seed, "zoom-level")
    worst = 0.0
    for g in _poly_batch(cfg):
        lam = float(rng.uniform(0.05, 0.95))
        cpolys = zoom_coefficient_polys(g, lam)
        dmax = g.degree()
        norms = [[] for _ in range(dmax + 1)]
        for b, cp in cpolys.items():
            norms[total_degree(b)].append(cp.sq2norm())
        weights = [g.weight_at_level(M) for M in range(dmax + 1)]
        pmf = _pmf_table(dmax, lam)
        floor = 1e-12 * g.sq2norm()
        for mlev in range(dmax + 1):
            lhs = sum(norms[mlev])
            rhs = sum(pmf[M, mlev] * weights[M] for M in range(mlev, dmax + 1))
            denom = max(abs(rhs), floor, 1e-300)
            worst = max(worst, abs(lhs - rhs) / denom)
    return {"pass": worst <= 1e-9, "max_rel_err": worst}


def check_hermite_addition(cfg):
    """h_m(sqrt(1-lam) x + sqrt(lam) y) as a binomially-weighted pairing of
    h_i(x) h_j(y), pointwise to 1e-10."""
    rng = substream(cfg.seed, "add-hermite")
    worst = 0.0
    for m in range(0, 7):
        for _ in range(20):
            lam = float(rng.uniform(0.0, 1.0))
            x = float(rng.standard_normal())
            y = float(rng.standard_normal())
            hx = hermite_values(np.array(x), m)
            hy = hermite_values(np.array(y), m)
            row = binom_pmf_row(m, lam)
            rhs = sum(math.sqrt(row[j]) * hx[m - j] * hy[j]
                      for j in range(m + 1))
            lhs = hermite_values(
                np.array(math.sqrt(1 - lam) * x + math.sqrt(lam) * y), m)[m]
            worst = max(worst, abs(lhs - rhs))
    return {"pass": worst <= 1e-10, "max_abs_err": worst}


def check_derivative_degree(cfg):
    rng = substream(cfg.seed, "deriv-deg")
    ok = True
    for _ in range(20):
        g = random_poly(3, 1 + int(rng.integers(4)), rng)
        y = rng.standard_normal(3)
        y2 = rng.standard_normal(3)
        dg = amplified_derivative(g, y, y2, R=3.0, lam=0.4)
        ok &= dg.degree() <= max(g.degree() - 1, 0)
        zero = amplified_derivative(g, y, y, R=3.0, lam=0.4)
        ok &= not zero.coeffs
    return {"pass": ok}


def check_mollifier_scale_invariance(cfg):
    """Mollifier_{c p} = Mollifier_p pointwise, exactly, for power-of-two c
    (every ratio of statistics is scale-free and the scaling is lossless)."""
    rng = substream(cfg.seed, "moll-scale")
    p = random_poly(3, 2, rng)
    params = choose_params(3, 2, cfg.eps, coupling="analysis")
    X = rng.standard_normal((10, 3))

    def values(poly):
        grid = StatGrid(poly, params, master_seed=cfg.seed,
                        mc_trials=max(cfg.trials, 500))
        return [v.value for v in mollifier_eval_batch(poly, params, X,
                                                      grid=grid)]

    base = values(p)
    ok = all(values(p.scale(c)) == base for c in (0.5, 4.0))
    near = values(p.scale(3.7))
    ok &= all(abs(a - b) <= 1e-9 for a, b in zip(near, base))
    return {"pass": ok}


def _block_is_uniform(spec, size):
    """Whether, over every coefficient row of the spec's k-wise block, each
    `size`-subset of its n words takes each joint value equally often."""
    rows = np.array(list(itertools.product(range(1 << field_width(spec)),
                                           repeat=spec.k)), dtype=np.uint64)
    words = expand_batch(rows, spec).astype(np.int64)
    cells = 1 << (spec.M * size)
    for subset in itertools.combinations(range(spec.n), size):
        key = np.zeros(len(words), dtype=np.int64)
        for i in subset:
            key = (key << spec.M) | words[:, i]
        if not (np.bincount(key, minlength=cells) == len(words) // cells).all():
            return False
    return True


def check_kwise_exhaustive(cfg):
    """Exhaustive enumeration at tiny parameters: over every coefficient row
    of expand_batch, the k-wise block the generator runs, every k-subset of
    coordinates takes each joint value equally often, exactly."""
    ok = True
    for k in (1, 2, 3):
        for M in (1, 2):
            for n in range(1, 5):
                ok &= _block_is_uniform(KWiseSpec(k=k, n=n, M=M), min(k, n))
    return {"pass": ok}


def check_smoothing_chain(cfg):
    rng = substream(cfg.seed, "smoothing-chain")
    ok = True
    # constant: trivially applicable and verified
    r0 = HermitePoly.constant(2, 4.2)
    rep = smoothing_chain_experiment(r0, q=1e-8, x=np.zeros(2), gamma=1e-6)
    ok &= rep["applicable"] and rep["conclusion_holds"]
    # squares of random linear polynomials at tiny q: the conclusion must
    # hold whenever the hypothesis does; the hypothesis itself holds at most
    # centers (it can fail right at a root of p, where ratios blow up)
    hyp_count = 0
    for _ in range(5):
        p = random_poly(2, 1, rng)
        r0 = p * p
        x = rng.standard_normal(2)
        d = 1
        gamma = 1.0 / (12.0 * (2 * d + 1) ** 2 * (2 * d + 1) * 2)
        rep = smoothing_chain_experiment(r0, q=1e-9, x=x, gamma=gamma)
        ok &= rep["verified"]
        hyp_count += rep["hypothesis_holds"]
    ok &= hyp_count >= 3
    # adversarial: big q, top-heavy square; hypothesis must be reported
    heavy = HermitePoly.basis(1, (2,))
    rep = smoothing_chain_experiment(heavy * heavy, q=0.5, x=np.array([0.1]),
                                 gamma=1e-4)
    ok &= not rep["applicable"]
    return {"pass": ok, "hypothesis_held": hyp_count}


def check_stat_identities(cfg):
    rng = substream(cfg.seed, "stat-idents")
    p = random_poly(2, 2, rng)
    params = choose_params(2, 2, cfg.eps, lambda_exp=1.0)
    x = rng.standard_normal(2)
    r1 = stat_identities_check(p, params, 0, 0, x, trials=max(cfg.trials, 500),
                               master_seed=cfg.seed)
    r2 = stat_identities_check(p, params, 1, 1, x, trials=max(cfg.trials, 500),
                               master_seed=cfg.seed + 1)
    return {"pass": r1["pass"] and r2["pass"], "dirac": r1, "row1": r2}


# ---------------------------------------------------------------------------
# statistical checks (4 sigma gates)
# ---------------------------------------------------------------------------

def check_hypercontractivity(cfg):
    """||U_{1/sqrt(3)} g||_4 <= ||g||_2 within 4 sigma, random degree <= 3."""
    rng = substream(cfg.seed, "hypercon-oracle")
    trials = max(cfg.trials * 5, 10_000)
    ok = True
    worst = -math.inf
    for _ in range(5):
        g = random_poly(3, 3, rng)
        u = noise_op(g, 1.0 / math.sqrt(3.0))
        X = rng.standard_normal((trials, 3))
        v4 = u.eval_batch(X) ** 4
        m = float(v4.mean())
        err = float(v4.std(ddof=1) / math.sqrt(trials))
        norm4_lo = max(m - 4 * err, 0.0) ** 0.25
        excess = norm4_lo - math.sqrt(g.sq2norm())
        worst = max(worst, excess)
        ok &= excess <= 0.0
    return {"pass": ok, "worst_excess": worst}


def check_two_vs_one_norm(cfg):
    rng = substream(cfg.seed, "norm-ratio")
    trials = max(cfg.trials * 5, 10_000)
    ok = True
    for _ in range(5):
        k = 1 + int(rng.integers(3))
        g = random_poly(2, k, rng)
        X = rng.standard_normal((trials, 2))
        v = np.abs(g.eval_batch(X))
        one = v.mean()
        err = v.std(ddof=1) / math.sqrt(trials)
        ok &= math.sqrt(g.sq2norm()) <= math.exp(k) * (one + 4 * err)
    return {"pass": ok}


def check_tail_bound(cfg):
    rng = substream(cfg.seed, "tail")
    trials = max(cfg.trials * 10, 40_000)
    ok = True
    for k in (1, 2):
        g = random_poly(2, k, rng)
        norm = math.sqrt(g.sq2norm())
        X = rng.standard_normal((trials, 2))
        v = np.abs(g.eval_batch(X))
        for t in (math.sqrt(2 * math.e) ** k, 1.2 * math.sqrt(2 * math.e) ** k):
            frac = float((v >= t * norm).mean())
            err = math.sqrt(max(frac * (1 - frac), 1e-12) / trials)
            bound = math.exp(-(k / (2 * math.e)) * t ** (2.0 / k))
            ok &= frac <= bound + 4 * err
    return {"pass": ok}


def check_carbery_wright(cfg):
    rng = substream(cfg.seed, "cw")
    trials = max(cfg.trials * 10, 20_000)
    g = random_poly(3, 3, rng)
    rep = carbery_wright_check(g, 0.3, trials=trials, master_seed=cfg.seed)
    # linear case with a closed-form normal-CDF oracle
    lin = HermitePoly.from_monomial_basis(
        2, [((1, 0), 0.8), ((0, 1), 0.6), ((0, 0), 0.25)])
    thr = (0.5 / (2.0 * 1.0)) ** 1 * math.sqrt(lin.sq2norm())
    exact = _ndtr(thr - 0.25) - _ndtr(-thr - 0.25)
    rep_lin = carbery_wright_check(lin, 0.5, trials=trials,
                                   master_seed=cfg.seed + 1)
    lin_frac = rep_lin["fractions"][2.0]
    lin_ok = abs(lin_frac - exact) <= 4 * rep_lin["stderr"]
    return {"pass": rep["passing_C"] is not None and lin_ok,
            "random_passing_C": rep["passing_C"],
            "linear_mc": lin_frac, "linear_exact": exact}


def check_zoom_ratio(cfg):
    rng = substream(cfg.seed, "zoom-ratio-batt")
    g = random_poly(3, 3, rng)
    rep = zoom_ratio_check(g, lam=1e-4, beta=0.1,
                            trials=max(cfg.trials * 5, 10_000),
                            master_seed=cfg.seed)
    return {"pass": rep["passing_C"] is not None,
            "passing_C": rep["passing_C"]}


def check_hypermarkov(cfg):
    """Multiplicative tail of a certified hyperconcentrated polynomial."""
    rng = substream(cfg.seed, "hypermarkov")
    trials = max(cfg.trials * 10, 40_000)
    g = HermitePoly.from_monomial_basis(  # multilinear: monomials are h's
        2, [((0, 0), 4.0), ((1, 0), 0.22), ((0, 1), -0.18), ((1, 1), 0.08)])
    q = 4.0
    R = math.sqrt(q - 1.0)
    mu = g.mean()
    eta = math.sqrt(hypervar(g, R)) / abs(mu)
    X = rng.standard_normal((trials, 2))
    dev = np.abs(g.eval_batch(X) - mu)
    ok = True
    for t in (0.25, 0.5, 1.0):
        frac = float((dev > t * abs(mu)).mean())
        err = math.sqrt(max(frac * (1 - frac), 1e-12) / trials)
        ok &= frac <= (eta / t) ** q + 4 * err
    return {"pass": ok, "eta": eta}


def check_attenuated_hypercon(cfg):
    """Attenuation certificate implies the Monte Carlo hyperconcentration
    check at q = 1 + R^2/2, eta = sqrt(theta)."""
    rng = substream(cfg.seed, "atten-hc")
    ok = True
    for _ in range(4):
        g = HermitePoly.constant(2, 3.0) + random_poly(2, 2, rng).scale(0.03)
        R, theta = 2.0, 1.0
        rep = is_attenuated(g, 0, R, theta)
        if not rep.attenuated or g.mean() == 0.0:
            continue
        theta_eff = rep.hypervar_above_k / rep.sq2norm
        hc = hypercon_check(g, q=1 + R * R / 2.0,
                            eta=math.sqrt(max(theta_eff, 1e-12)),
                            trials=max(cfg.trials * 5, 10_000),
                            master_seed=cfg.seed)
        ok &= hc.holds
    return {"pass": ok}


def check_local_hyperconc(cfg):
    rep = local_hyperconc_report(substream(cfg.seed, "lh-batt"), 3, 300,
                                 cfg.seed)
    return {"pass": rep["pass"],
            "fractions": [r["failure_fraction"] for r in rep["runs"]]}


def check_mollifier_error(cfg):
    rng = substream(cfg.seed, "moll-batt")
    params = choose_params(cfg.n, 2, cfg.eps, coupling="analysis")
    p = random_poly(cfg.n, 2, rng)
    rep = mollification_error_report(p, params, x_count=300,
                                     master_seed=cfg.seed,
                                     mc_trials=max(cfg.trials, 1000))
    return rep


def check_noise_insensitivity(cfg):
    rng = substream(cfg.seed, "ni-batt")
    params = choose_params(cfg.n, 2, cfg.eps, coupling="analysis")
    p = random_poly(cfg.n, 2, rng)
    return grid_noise_insensitivity_report(p, params, x_count=200,
                                           master_seed=cfg.seed)


def check_grid_local_hyperconc(cfg):
    rng = substream(cfg.seed, "glh-batt")
    params = choose_params(cfg.n, 2, cfg.eps, coupling="analysis")
    p = random_poly(cfg.n, 2, rng)
    return grid_local_hyperconc_report(p, params, x_count=300,
                                       master_seed=cfg.seed,
                                       mc_trials=max(cfg.trials, 1000))


def check_neighbor_hypervariance(cfg):
    rng = substream(cfg.seed, "nb-batt")
    params = choose_params(cfg.n, 2, cfg.eps, lambda_exp=2.0)
    p = random_poly(cfg.n, 2, rng)
    return neighbor_hypervariance_report(
        p, params, x_count=10, master_seed=cfg.seed, cols=[0, 1, 2, params.D - 1],
        mc_trials=max(cfg.trials, 1000))


def check_stability_forms_mc(cfg):
    """Closed stability-difference forms vs. straight simulation.

    The forms describe the amplify-the-polynomial-first ordering (the
    sub-unit noise operator acts by Gaussian smoothing of the argument):
    p_lhs is the mean square of the smoothed-then-differenced zoom, p_rhs
    that of the zoomed smoothed difference.
    """
    rng = substream(cfg.seed, "stab-mc")
    g = random_poly(2, 2, rng)
    x = rng.standard_normal(2)
    r_prime, lam, rho = 0.6, 0.3, 0.4
    h = verify.derived_inner_poly(g, x, r_prime, lam, rho)
    forms = stability_closed_forms(h, r_prime, lam, rho)
    trials = max(cfg.trials * 5, 10_000)
    # z, y, y2 of every trial, in the order a per-trial loop draws them
    Z, Y, Y2 = rng.standard_normal((trials, 3, 2)).transpose(1, 0, 2)
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    # lhs: U_{r'} of the zoom of g at z, differenced at sqrt(1-lam) x +
    # sqrt(lam) y and y2; the zoom's coefficients c_beta(z) are h(Z) C^T
    U = math.sqrt(1.0 - lam) * x + math.sqrt(lam) * Y
    U2 = math.sqrt(1.0 - lam) * x + math.sqrt(lam) * Y2
    t = _pairs(g.support, rho)
    diff = (r_prime ** t.levels
            * (_design(Z, t.down) @ _zoom_matrix(t, g.vector).T)
            * (_design(U, t.down) - _design(U2, t.down))).sum(axis=1)
    lhs_vals = (diff * inv_sqrt2) ** 2
    # rhs: the amplified derivative w of U_{r'} g along (y, y2), zoomed at z
    # and read at x, is w at sqrt(1-rho) z + sqrt(rho) x (the beta = 0 term
    # is h_0(y) - h_0(y2) = 0)
    V = math.sqrt(1.0 - rho) * Z + math.sqrt(rho) * x
    smoothed = noise_op(g, r_prime)
    t = _pairs(smoothed.support, lam)
    w = ((_design(Y, t.down) - _design(Y2, t.down)) * inv_sqrt2
         * (_design(V, t.down) @ _zoom_matrix(t, smoothed.vector).T)
         ).sum(axis=1)
    rhs_vals = w ** 2
    rep = {}
    ok = True
    for tag, vals, ref in (("lhs", lhs_vals, forms.p_lhs),
                           ("rhs", rhs_vals, forms.p_rhs)):
        m = float(vals.mean())
        err = float(vals.std(ddof=1) / math.sqrt(trials))
        rep[tag] = {"mc": m, "closed_form": ref, "stderr": err}
        ok &= abs(m - ref) <= 4 * err + 1e-9 * max(abs(m), 1.0)
    rep["pass"] = ok
    return rep


def check_fooling_smoke(cfg):
    suite = [e for e in builtin_suite(cfg.seed)
             if (e["n"], e["d"]) == (2, 1)][:2]
    rep = fooling_report(suite, cfg.eps, samples=max(cfg.trials * 10, 20_000),
                         master_seed=cfg.seed)
    return rep


def check_kwise_moments(cfg):
    """Sign-free moment matching: a degree <= k polynomial has the same mean
    under the k-wise Gaussian vector as under true Gaussians, up to Monte
    Carlo error plus the Box-Muller discretization slack."""
    rng = substream(cfg.seed, "kw-moments")
    spec = KWiseSpec(k=3, n=3, M=16)
    wspec_k = 2 * spec.k
    m = 16
    samples = max(cfg.trials * 10, 30_000)
    coeffs = substream(cfg.seed, "kw-moments-seeds").integers(
        0, 1 << m, size=(samples, wspec_k), dtype=np.uint64)
    Z = kwise_gaussian_batch(coeffs, spec)
    ok = True
    for _ in range(3):
        q = random_poly(3, 3, rng)
        vals = q.eval_batch(Z)
        est = float(vals.mean())
        err = float(vals.std(ddof=1) / math.sqrt(samples))
        slack = 10.0 * 2.0 ** (-spec.M / 2.0) * max(1.0, math.sqrt(q.sq2norm()))
        ok &= abs(est - q.mean()) <= 4 * err + slack
    return {"pass": ok}


def check_prg_moments(cfg):
    params = choose_params(3, 1, 0.5, lambda_exp=1.0, M=16)
    samples = max(cfg.trials * 5, 10_000)
    Z = generate_batch(params, cfg.seed, samples)
    v = Z.var(axis=0, ddof=1)
    err = math.sqrt(2.0 / samples)  # chi-square stderr of a unit variance
    ok = bool(np.all(np.abs(v - 1.0) <= 4 * err + 2.0 ** (-params.M / 2.0)))
    mean_ok = bool(np.all(np.abs(Z.mean(axis=0)) <= 4.0 / math.sqrt(samples)
                          + 2.0 ** (-params.M / 2.0)))
    return {"pass": ok and mean_ok, "variances": v.tolist()}


_KS_MIN_N = 10_000
_PI2, _PI4, _PI6 = np.pi ** 2, np.pi ** 4, np.pi ** 6
_SQRT2PI = np.sqrt(2 * np.pi)


# Cephes ndtr/erf/erfc (S. L. Moshier), the code behind scipy.special.ndtr:
# erf(x) = x T(x^2) / U(x^2) for |x| < 1, erfc(x) = e^{-x^2} P(x) / Q(x)
# for 1 <= x < 8 and e^{-x^2} R(x) / S(x) from 8 on, 0 once e^{-x^2}
# underflows.  The leading 1 of Q, S and U is implied (p1evl).
_ERFC_P = (2.46196981473530512524E-10, 5.64189564831068821977E-1,
           7.46321056442269912687E0, 4.86371970985681366614E1,
           1.96520832956077098242E2, 5.26445194995477358631E2,
           9.34528527171957607540E2, 1.02755188689515710272E3,
           5.57535335369399327526E2)
_ERFC_Q = (1.32281951154744992508E1, 8.67072140885989742329E1,
           3.54937778887819891062E2, 9.75708501743205489753E2,
           1.82390916687909736289E3, 2.24633760818710981792E3,
           1.65666309194161350182E3, 5.57535340817727675546E2)
_ERFC_R = (5.64189583547755073984E-1, 1.27536670759978104416E0,
           5.01905042251180477414E0, 6.16021097993053585195E0,
           7.40974269950448939160E0, 2.97886665372100240670E0)
_ERFC_S = (2.26052863220117276590E0, 9.39603524938001434673E0,
           1.20489539808096656605E1, 1.70814450747565897222E1,
           9.60896809063285878198E0, 3.36907645100081516050E0)
_ERF_T = (9.60497373987051638749E0, 9.00260197203842689217E1,
          2.23200534594684319226E3, 7.00332514112805075473E3,
          5.55923013010394962768E4)
_ERF_U = (3.35617141647503099647E1, 5.21357949780152679795E2,
          4.59432382970980127987E3, 2.26290000613890934246E4,
          4.92673942608635921086E4)
_MAXLOG = 7.09782712893383996843E2
_SQRT1_2 = 7.07106781186547524401E-1


def _polevl(x, coef):
    r = coef[0]
    for c in coef[1:]:
        r = r * x + c
    return r


def _p1evl(x, coef):
    r = x + coef[0]
    for c in coef[1:]:
        r = r * x + c
    return r


def _ndtr(a):
    """Standard normal CDF: a float for a scalar a, else an array.

    Cephes ndtr in its evaluation order, equal to scipy.special.ndtr bit for
    bit.  The polynomials run as array operations; e^{-x^2} comes from
    math.exp (libm) one element at a time, since numpy's vectorised exp
    may differ from libm in the last bit.
    """
    a = np.asarray(a, dtype=float)
    x = a.ravel() * _SQRT1_2
    z = np.abs(x)
    out = np.empty_like(x)
    near = z < 1.0
    xn = x[near]
    out[near] = 0.5 + 0.5 * (xn * _polevl(xn * xn, _ERF_T)
                             / _p1evl(xn * xn, _ERF_U))
    far = ~near
    zf = z[far]
    erfc = np.zeros_like(zf)
    live = ~(-zf * zf < -_MAXLOG)  # nan stays live and propagates
    zl = zf[live]
    e = np.array([math.exp(v) for v in (-zl * zl).tolist()])
    p, q = np.empty_like(zl), np.empty_like(zl)
    mid = zl < 8.0
    p[mid] = _polevl(zl[mid], _ERFC_P)
    q[mid] = _p1evl(zl[mid], _ERFC_Q)
    p[~mid] = _polevl(zl[~mid], _ERFC_R)
    q[~mid] = _p1evl(zl[~mid], _ERFC_S)
    erfc[live] = e * p / q
    half = 0.5 * erfc
    out[far] = np.where(x[far] > 0, 1.0 - half, half)
    return out.reshape(a.shape) if a.ndim else float(out[0])


def _kstwo_sf(n, d):
    """P(D_n >= d) for the two-sided one-sample KS statistic, n >= 10^4.

    Simard & L'Ecuyer's dispatch (J. Stat. Softw. 39(11), 2011) as scipy
    computes it: 0 for n d^2 >= 370, twice Smirnov's one-sided tail down to
    n d^2 = 2.2, and one minus the Pelz-Good CDF (JRSS-B 38, 1976) below.
    Scipy's Durbin-matrix corner (n d^1.5 <= 1.4, where p > 1 - 5e-7) is left
    to Pelz-Good, which is within 6e-13 of it from n = 10^4 on.
    """
    if n < _KS_MIN_N:
        raise ValueError(f"n = {n} is below {_KS_MIN_N}, where this KS "
                         "p-value is not scipy's")
    nd2 = n * d * d
    if nd2 >= 370.0:
        return 0.0
    if nd2 >= 2.2:
        from scipy.special import smirnov  # only this band needs scipy
        return float(np.clip(2 * smirnov(n, d), 0.0, 1.0))
    z = np.sqrt(n) * d
    z2 = z ** 2
    qlog = -_PI2 / 8 / z2
    if qlog < -708:  # the CDF underflows
        return 1.0
    q = np.exp(qlog)
    z4, z6 = z ** 4, z ** 6
    k1 = (-z2, _PI2 / 4)
    k2 = (6 * z6 + 2 * z4, (2 * z4 - 5 * z2) * _PI2 / 4,
          _PI4 * (1 - 2 * z2) / 16)
    k3 = (-30 * z6 - 90 * z ** 8, _PI2 * (135 * z4 - 96 * z6) / 4,
          _PI4 * (-60 * z2 + 212 * z4) / 16, _PI6 * (5 - 30 * z2) / 64)
    K = np.zeros(4)
    maxk = int(np.ceil(16 * z / np.pi))
    for k in range(maxk, 0, -1):  # Horner in q over odd m = 2k - 1
        m = 2 * k - 1
        m2, m4, m6 = m ** 2, m ** 4, m ** 6
        K *= np.power(q, 8 * k)
        K += np.array([1.0, k1[0] + k1[1] * m2,
                       k2[0] + k2[1] * m2 + k2[2] * m4,
                       k3[0] + k3[1] * m2 + k3[2] * m4 + k3[3] * m6])
    K *= q
    K *= _SQRT2PI
    K /= np.array([z, 6 * z4, 72 * z ** 7, 6480 * z ** 10])
    ks = np.arange(maxk, 0, -1)
    qk = np.exp(-_PI2 / 2 / z2) ** (ks ** 2)
    K[2] += np.sum(ks ** 2 * qk) * (_PI2 * _SQRT2PI / (-36 * z ** 3))
    r3z, kpi = np.sqrt(3) * z, np.pi * ks
    K[3] += (np.sum((r3z + kpi) * (r3z - kpi) * ks ** 2 * qk)
             * (_PI2 * _SQRT2PI / (216 * z6)))
    K /= np.power(n * 1.0, np.arange(4) / 2.0)
    return float(np.clip(1.0 - sum(K), 0.0, 1.0))


def _ks_norm(x):
    """(D, p): two-sided one-sample KS test of x against N(0, 1)."""
    n = len(x)
    cdf = _ndtr(np.sort(x))
    d = max((np.arange(1.0, n + 1) / n - cdf).max(),
            (cdf - np.arange(0.0, n) / n).max())
    return float(d), _kstwo_sf(n, d)


def check_hybrid_chain(cfg):
    params = choose_params(3, 1, 0.5, lambda_exp=1.0, M=16)
    samples = max(cfg.trials * 5, 10_000)
    W = generate_batch(params, cfg.seed, samples, gaussian_blocks=params.L)
    stat = _ks_norm(W[:, 0])[1]
    ok = stat >= 0.01
    # sign expectations along the hybrid chain stay within the endpoints
    rng = substream(cfg.seed, "hyb-poly")
    p = random_poly(3, 1, rng)
    ests = []
    for t in (0, params.L // 2, params.L):
        Wt = generate_batch(params, cfg.seed + 1, samples, gaussian_blocks=t)
        e, err = sign_expectation(p, Wt)
        ests.append(e)
    lo = min(ests[0], ests[-1]) - 4 * err * 2
    hi = max(ests[0], ests[-1]) + 4 * err * 2
    ok &= lo <= ests[1] <= hi
    return {"pass": ok, "ks_pvalue": stat, "sign_chain": ests}


CHECKS = [
    ("clean_fraction", "exact", check_clean_fraction),
    ("lagrange_l0_bound", "exact", check_lagrange_l0),
    ("jigsaw_grid", "exact", check_jigsaw),
    ("stability_closed_forms", "exact", check_stability_forms),
    ("noise_semigroup", "exact", check_noise_semigroup),
    ("zoom_weight_identity", "exact", check_zoom_weight_identity),
    ("zoom_level_identity", "exact", check_zoom_level_identity),
    ("hermite_addition_identity", "exact", check_hermite_addition),
    ("derivative_degree_drop", "exact", check_derivative_degree),
    ("mollifier_scale_invariance", "exact", check_mollifier_scale_invariance),
    ("kwise_exhaustive_uniformity", "exact", check_kwise_exhaustive),
    ("noise_extension_chain", "exact", check_smoothing_chain),
    ("grid_identities", "statistical", check_stat_identities),
    ("hypercontractivity_oracle", "statistical", check_hypercontractivity),
    ("two_vs_one_norm_oracle", "statistical", check_two_vs_one_norm),
    ("tail_bound_oracle", "statistical", check_tail_bound),
    ("carbery_wright_sweep", "statistical", check_carbery_wright),
    ("zoom_ratio_sweep", "statistical", check_zoom_ratio),
    ("hypermarkov_oracle", "statistical", check_hypermarkov),
    ("attenuated_hyperconcentration", "statistical", check_attenuated_hypercon),
    ("local_hyperconcentration", "statistical", check_local_hyperconc),
    ("grid_local_hyperconcentration", "statistical", check_grid_local_hyperconc),
    ("mollifier_error", "statistical", check_mollifier_error),
    ("noise_insensitivity", "statistical", check_noise_insensitivity),
    ("neighbor_hypervariance_bound", "statistical", check_neighbor_hypervariance),
    ("stability_forms_mc", "statistical", check_stability_forms_mc),
    ("fooling_smoke", "statistical", check_fooling_smoke),
    ("kwise_moment_match", "statistical", check_kwise_moments),
    ("prg_moments", "statistical", check_prg_moments),
    ("replacement_hybrid", "statistical", check_hybrid_chain),
]


def run_battery(cfg: BatteryConfig, only=None, kinds=("exact", "statistical")):
    """Run the named checks; returns the report dict (no timestamps)."""
    checks = []
    for name, kind, fn in CHECKS:
        if only and name != only:
            continue
        if kind not in kinds:
            continue
        rep = fn(cfg)
        entry = {"name": name, "kind": kind, "pass": bool(rep.pop("pass"))}
        entry["details"] = _jsonable(rep)
        checks.append(entry)
    checks.sort(key=lambda c: c["name"])
    return {
        "config": {"n": cfg.n, "eps": cfg.eps, "seed": cfg.seed,
                   "trials": cfg.trials, "fault": cfg.fault},
        "checks": checks,
        "pass": all(c["pass"] for c in checks),
    }


def _jsonable(v):
    if isinstance(v, dict):
        return {str(k): _jsonable(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_jsonable(x) for x in v]
    if isinstance(v, (np.floating, np.integer)):
        return v.item()
    if isinstance(v, np.ndarray):
        return v.tolist()
    if isinstance(v, Fraction):
        return str(v)
    if isinstance(v, (bool, int, float, str)) or v is None:
        return v
    return str(v)
