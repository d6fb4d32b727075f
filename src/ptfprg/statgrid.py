"""The (d+1) x (D+1) grid of statistics s_{i,j} and their polynomial samplers.

Row 0 of the grid is s_{0,j} = (smoothed) p^2; row i is built from i-fold
amplified noisy derivatives; column j applies j single-step noise smoothings,
which by the semigroup law collapse to one coefficient scaling by
(1 - lambda)^{j/2}.  Rows 0 and 1 admit exact closed forms:

    s_{0,0} = p^2,
    s_{1,0}(x) = sum_{beta != 0} R^{2|beta|} c_beta(x)^2,

with c_beta the zoom coefficient polynomials of p.  Higher rows are averages
of squares of sampled derivative polynomials; the estimator draws
f ~ F_{i,0}, squares it symbolically, and applies the exact column smoothing
to the sampled square, so one sample cache serves every column and the
bottom row is a single shared constant by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .gaussops import (amplified_derivative, hypervar, zoom,
                       zoom_coefficient_polys, ZoomSpec)
from .hermite import HermitePoly
from .seeding import substream

__all__ = ["PolySampler", "StatGrid", "mc_average", "stat_identities_check",
           "grid_csv"]

DEFAULT_TRIALS = 10_000


@dataclass
class PolySampler:
    """Sampler for the derivative/noise polynomial distribution F_{i,j}.

    i = j = 0 is the Dirac distribution at the base polynomial.  Every sample
    has degree <= d - i, exactly (the derivative operator drops degree).
    """

    base: HermitePoly
    i: int = 0
    j: int = 0
    R: float = 1.0
    lam: float = 0.5
    rng: np.random.Generator = field(default_factory=np.random.default_rng)

    def __post_init__(self):
        if self.i < 0 or self.j < 0:
            raise ValueError("negative grid index")

    @property
    def dirac(self):
        return self.i == 0 and self.j == 0

    def sample(self) -> HermitePoly:
        f = self.base
        n = self.base.n
        for _ in range(self.i):
            y = self.rng.standard_normal(n)
            y2 = self.rng.standard_normal(n)
            f = amplified_derivative(f, y, y2, self.R, self.lam)
        for _ in range(self.j):
            y = self.rng.standard_normal(n)
            f = zoom(f, ZoomSpec(1.0 - self.lam, y))
        return f


def _level_values(poly: HermitePoly, X) -> np.ndarray:
    """(B, deg+1) array of per-Hermite-level values of poly on the batch."""
    deg = poly.degree()
    out = np.zeros((X.shape[0], deg + 1))
    for lvl in range(deg + 1):
        part = poly.part("=k", lvl)
        if part.coeffs:
            out[:, lvl] = part.eval_batch(X)
    return out


class StatGrid:
    """Grid evaluator for a fixed base polynomial and parameter set.

    Rows 0 and 1 are exact; rows >= 2 are Monte Carlo with a per-row sample
    cache shared across columns and evaluation points.  All randomness comes
    from (master_seed, row) substreams, so estimates are deterministic and
    scale exactly with the base polynomial (resampling a scaled base yields
    pointwise-scaled estimates).
    """

    def __init__(self, p: HermitePoly, params, master_seed=0,
                 mc_trials=DEFAULT_TRIALS):
        self.p = p
        self.params = params
        self.d = params.d
        self.D = params.D
        self.lam = params.lambda_bar
        self.R = params.R_bar
        self.master_seed = master_seed
        if mc_trials < 2:
            raise ValueError(f"mc_trials = {mc_trials}: a Monte Carlo row "
                             "needs at least 2 samples for an error bar")
        self.mc_trials = mc_trials
        self._row_polys = {0: p * p, 1: self._row1_poly()}
        self._mc_rows = {}

    def _row1_poly(self) -> HermitePoly:
        out = HermitePoly.zero(self.p.n)
        for beta, cpoly in zoom_coefficient_polys(self.p, self.lam).items():
            db = sum(beta)
            if db == 0:
                continue
            out = out + (cpoly * cpoly).scale(self.R ** (2 * db))
        return out

    def exact_row_poly(self, i) -> HermitePoly:
        if i not in (0, 1):
            raise ValueError(f"exact statistics unavailable for row {i}")
        return self._row_polys[i]

    def column_rho(self, j) -> float:
        return (1.0 - self.lam) ** (j / 2.0)

    def _mc_row(self, i):
        cache = self._mc_rows.get(i)
        if cache is None:
            rng = substream(self.master_seed, "stat-row", i)
            sampler = PolySampler(self.p, i=i, j=0, R=self.R, lam=self.lam,
                                  rng=rng)
            cache = [(lambda f: f * f)(sampler.sample())
                     for _ in range(self.mc_trials)]
            self._mc_rows[i] = cache
        return cache

    def _check_indices(self, i, j):
        if not (0 <= i <= self.d and 0 <= j <= self.D):
            raise ValueError(f"grid index ({i}, {j}) outside "
                             f"[0,{self.d}] x [0,{self.D}]")

    def row_batch(self, i, X, cols):
        """s_{i,j} for every j in cols at once: (B, J) values and stderrs."""
        for j in cols:
            self._check_indices(i, j)
        X = np.asarray(X, dtype=float)
        rhos = np.array([self.column_rho(j) for j in cols])
        if i <= 1:
            lv = _level_values(self._row_polys[i], X)
            powers = rhos[None, :] ** np.arange(lv.shape[1])[:, None]
            return lv @ powers, np.zeros((X.shape[0], len(cols))), True
        sq = self._mc_row(i)
        tot = np.zeros((X.shape[0], len(cols)))
        totsq = np.zeros_like(tot)
        maxdeg = max((q.degree() for q in sq), default=0)
        powers = rhos[None, :] ** np.arange(maxdeg + 1)[:, None]
        for q in sq:
            lv = _level_values(q, X)
            w = lv @ powers[: lv.shape[1]]
            tot += w
            totsq += w * w
        K = len(sq)
        mean = tot / K
        var = np.maximum(totsq / K - mean**2, 0.0)
        return mean, np.sqrt(var / K), False


def mc_average(p: HermitePoly, params, i, j, func, trials, master_seed, tag):
    """Plain Monte Carlo mean and stderr of func(f) over f ~ F_{i,j}.

    The reference the grid's exact rows and identities are checked against;
    each tag draws from its own (master_seed, tag, i, j) substream.
    """
    rng = substream(master_seed, tag, i, j)
    sampler = PolySampler(p, i=i, j=j, R=params.R_bar, lam=params.lambda_bar,
                          rng=rng)
    vals = np.empty(trials)
    for t in range(trials):
        vals[t] = func(sampler.sample())
    return float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(trials))


def stat_identities_check(p: HermitePoly, params, i, j, x, trials=2000,
                          master_seed=0) -> dict:
    """Two-sided Monte Carlo check of the grid's defining identities.

    (a) s_{i+1,0}(x) equals the F_{i,0}-average of the amplified
        hypervariance of the zoom at x;
    (b) s_{i,j+1}(x) equals the F_{i,j}-average of the squared 2-norm of the
        zoom at x.

    Each side uses an independent stream; a side is exact where the grid has
    a closed form.  Passes when |difference| <= 4 * combined stderr.
    """
    grid = StatGrid(p, params, master_seed=master_seed, mc_trials=trials)
    x = np.asarray(x, dtype=float)
    lam, R = params.lambda_bar, params.R_bar

    def side(gi, gj, rj, func, tag):
        # grid value s_{gi,gj}(x) against the F_{i,rj}-average of func
        vals, errs, _ = grid.row_batch(gi, x[None, :], [gj])
        lhs, lerr = float(vals[0, 0]), float(errs[0, 0])
        rhs, rerr = mc_average(p, params, i, rj, func, trials, master_seed,
                               tag)
        # 4 sigma plus a relative floor for the Dirac (zero-variance) cases
        tol = 4.0 * math.hypot(lerr, rerr) + 1e-9 * max(abs(lhs), abs(rhs))
        return {"lhs": lhs, "rhs": rhs, "tol": tol,
                "pass": abs(lhs - rhs) <= tol}

    report = {}
    if i + 1 <= params.d:
        report["derivative_row"] = side(
            i + 1, 0, 0, lambda f: hypervar(zoom(f, ZoomSpec(lam, x)), R),
            "ident-a")
    report["noise_column"] = side(
        i, j + 1, j, lambda f: zoom(f, ZoomSpec(lam, x)).sq2norm(), "ident-b")
    report["pass"] = all(v["pass"] for v in report.values() if isinstance(v, dict))
    return report


def grid_csv(grid: StatGrid, X, cols=None) -> str:
    """CSV dump with columns (i, j, x_id, value, stderr, exact)."""
    X = np.asarray(X, dtype=float)
    cols = list(range(grid.D + 1)) if cols is None else list(cols)
    lines = ["i,j,x_id,value,stderr,exact"]
    for i in range(grid.d + 1):
        vals, errs, exact = grid.row_batch(i, X, cols)
        for bj, j in enumerate(cols):
            for xi in range(X.shape[0]):
                lines.append(f"{i},{j},{xi},{float(vals[xi, bj])!r},"
                             f"{float(errs[xi, bj])!r},{int(exact)}")
    return "\n".join(lines) + "\n"
