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

A Monte Carlo row is built for all its samples at once: each sample is one
row of a (trials, N) coefficient matrix over a graded Hermite basis, each
amplified derivative one contraction over all rows, the square one more.
Reading the grid multiplies the Hermite design matrix at the centers with
that coefficient matrix, one product per Hermite level, and weighs the
levels by each column's noise factors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .gaussops import (_amplified_derivative_rows, _derivative_pairs,
                       amplified_derivative, hypervar, zoom,
                       zoom_coefficient_polys, ZoomSpec)
from .hermite import (HermitePoly, _basis, _design, _from_dense,
                      _square_rows, _square_table, _to_dense)
from .seeding import substream

__all__ = ["PolySampler", "StatGrid", "mc_average", "stat_identities_check",
           "grid_csv"]

DEFAULT_TRIALS = 10_000
# Elements per temporary: a Monte Carlo row is built in blocks of samples
# (each sample's arithmetic is the same whatever the block), and a read
# evaluates blocks of centers, so that centers x samples stays bounded.
BLOCK_ELEMS = 1 << 18


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


def _check_centers(X, n) -> np.ndarray:
    """X as a float (B, n) array of finite centers, or ValueError."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != n:
        raise ValueError(f"centers have shape {X.shape}, expected (B, {n})")
    if not np.isfinite(X).all():
        raise ValueError("centers must be finite (got nan or inf)")
    return X


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
        self._rows = {0: self._exact_row(0), 1: self._exact_row(1)}

    def _exact_row(self, i):
        """(degree, one coefficient row) of p^2 (i = 0) or of
        sum_{beta != 0} R^{2|beta|} c_beta^2 (i = 1)."""
        n, deg = self.p.n, self.p.degree()
        if i == 0:
            return 2 * deg, _square_rows(_to_dense(self.p, deg)[None, :],
                                         n, deg)
        e = max(deg - 1, 0)
        cpolys = [(beta, cpoly) for beta, cpoly
                  in zoom_coefficient_polys(self.p, self.lam).items()
                  if any(beta)]
        C = np.zeros((len(cpolys), len(_basis(n, e).alphas)))
        for r, (_, cpoly) in enumerate(cpolys):
            C[r] = _to_dense(cpoly, e)
        weights = np.array([self.R ** (2 * sum(beta)) for beta, _ in cpolys])
        return 2 * e, (weights @ _square_rows(C, n, e))[None, :]

    def exact_row_poly(self, i) -> HermitePoly:
        if i not in (0, 1):
            raise ValueError(f"exact statistics unavailable for row {i}")
        deg, row = self._rows[i]
        return _from_dense(self.p.n, deg, row[0])

    def column_rho(self, j) -> float:
        return (1.0 - self.lam) ** (j / 2.0)

    def _row_coeffs(self, i):
        """(degree, (K, N) coefficient rows) of row i's statistic: one row
        for an exact row, one per Monte Carlo sample above."""
        if i not in self._rows:
            self._rows[i] = self._mc_row(i)
        return self._rows[i]

    def _mc_row(self, i):
        """The squares of mc_trials samples of F_{i,0}, as coefficient rows.

        The normals are the per-sample loop's (y, y2 for each of the i
        derivatives of sample 1, then sample 2, ...), drawn as one array."""
        rng = substream(self.master_seed, "stat-row", i)
        n, T = self.p.n, self.mc_trials
        draws = rng.standard_normal((T, i, 2, n))
        deg = self.p.degree()
        degs = [max(deg - k, 0) for k in range(i + 1)]
        width = max([len(_derivative_pairs(n, e, self.lam).left)
                     for e in degs[:-1]]
                    + [len(_square_table(n, degs[-1]).left)])
        step = max(1, BLOCK_ELEMS // width)
        base = _to_dense(self.p, deg)[None, :]
        Q = np.empty((T, len(_basis(n, 2 * degs[-1]).alphas)))
        for t0 in range(0, T, step):
            block = draws[t0:t0 + step]
            F = np.broadcast_to(base, (len(block), base.shape[1]))
            for k in range(i):
                F = _amplified_derivative_rows(F, n, degs[k], block[:, k, 0],
                                               block[:, k, 1], self.R,
                                               self.lam)
            Q[t0:t0 + step] = _square_rows(F, n, degs[-1])
        return 2 * degs[-1], Q

    def _check_indices(self, i, j):
        if not (0 <= i <= self.d and 0 <= j <= self.D):
            raise ValueError(f"grid index ({i}, {j}) outside "
                             f"[0,{self.d}] x [0,{self.D}]")

    def row_batch(self, i, X, cols):
        """s_{i,j} for every j in cols at once: (B, J) values and stderrs.

        The design matrix at the centers times the row's coefficient rows,
        one product per Hermite level l, gives each sample's level values
        M_l; column j's value is sum_l rho_j^l M_l, averaged over the
        samples (one for an exact row) through the per-level sums, with the
        stderr from the level Gram matrix at each center.  Each column is
        computed the same way whatever the other columns.
        """
        for j in cols:
            self._check_indices(i, j)
        X = _check_centers(X, self.p.n)
        deg, Q = self._row_coeffs(i)
        bounds = np.searchsorted(_basis(self.p.n, deg).levels,
                                 np.arange(deg + 2))
        powers = [self.column_rho(j) ** np.arange(deg + 1) for j in cols]
        K = Q.shape[0]
        mean = np.zeros((X.shape[0], len(cols)))
        err = np.zeros_like(mean)
        step = max(1, BLOCK_ELEMS // ((deg + 1) * K))
        for b0 in range(0, X.shape[0], step):
            H = _design(X[b0:b0 + step], deg)
            # M[l, b, t]: level-l value of sample t's square at center b
            M = np.stack([H[:, lo:hi] @ Q[:, lo:hi].T
                          for lo, hi in zip(bounds[:-1], bounds[1:])])
            S1 = M.sum(axis=2)
            S2 = np.einsum("lbt,mbt->lmb", M, M) if K > 1 else None
            for c, pw in enumerate(powers):
                m = pw @ S1 / K
                mean[b0:b0 + step, c] = m
                if K > 1:
                    var = np.maximum(pw @ (pw @ S2) / K - m**2, 0.0)
                    err[b0:b0 + step, c] = np.sqrt(var / K)
        return mean, err, i <= 1


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
