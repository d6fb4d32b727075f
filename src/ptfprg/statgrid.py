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
from dataclasses import dataclass

import numpy as np

from .gaussops import (_amplified_derivative_rows, _pairs, _zoom_level_weights,
                       _zoom_matrix)
from .hermite import (BLOCK_ELEMS, HermitePoly, _basis, _design, _over_basis,
                      _square_rows)
from .seeding import substream

__all__ = ["PolySampler", "StatGrid", "stat_identities_check", "grid_csv"]

DEFAULT_TRIALS = 10_000


@dataclass(frozen=True)
class PolySampler:
    """The distribution F_{i,j} of the base polynomial: i amplified noisy
    derivatives (amplification R, zoom scale lam), then j zooms of scale 1 - lam.

    i = j = 0 is the Dirac distribution at the base polynomial.  Every sample
    has degree <= d - i, exactly (the derivative operator drops degree).
    """

    base: HermitePoly
    i: int = 0
    j: int = 0
    R: float = 1.0
    lam: float = 0.5

    def __post_init__(self):
        if self.i < 0 or self.j < 0:
            raise ValueError("negative grid index")

    @property
    def dirac(self):
        return self.i == 0 and self.j == 0

    def sample(self, rng, count):
        """(support, rows): row r holds sample r of F_{i,j} over the graded
        basis `support`, from one (count, 2i + j, n) draw of normals (per
        sample: y, y2 of each derivative, then each zoom's center).  A Dirac
        sampler draws nothing and yields its base once, exactly."""
        if count < 1:
            raise ValueError(f"sample count {count!r} is below 1")
        if self.dirac:
            return self.base.support, self.base.vector[None, :]
        n, deg = self.base.n, self.base.degree()
        draws = rng.standard_normal((count, 2 * self.i + self.j, n))
        degs = [max(deg - k, 0) for k in range(self.i + 1)]
        tables = [_pairs(_basis(n, e), self.lam) for e in degs[:-1]]
        widths = [1] + [len(t.derivative.left) for t in tables]
        if self.j:
            zoom = _pairs(_basis(n, degs[-1]), 1.0 - self.lam)
            widths.append(len(zoom.down) ** 2)
        step = max(1, BLOCK_ELEMS // max(widths))
        base = _over_basis(self.base.support, self.base.vector[None, :])[1]
        rows = np.empty((count, len(_basis(n, degs[-1]))))
        for t0 in range(0, count, step):
            block = draws[t0:t0 + step]
            F = np.broadcast_to(base, (len(block), base.shape[1]))
            for k, t in enumerate(tables):
                F = _amplified_derivative_rows(F, t, block[:, 2 * k],
                                               block[:, 2 * k + 1], self.R)
            for k in range(2 * self.i, 2 * self.i + self.j):
                H = _design(block[:, k], zoom.down)  # one center per row
                F = (_zoom_matrix(zoom, F) @ H[:, :, None])[:, :, 0]
            rows[t0:t0 + step] = F
        return _basis(n, degs[-1]), rows


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
        self._base = _over_basis(p.support, p.vector[None, :])[1][0]
        self._rows = {0: self._exact_row(0), 1: self._exact_row(1)}

    def _exact_row(self, i):
        """(degree, one coefficient row) of p^2 (i = 0) or of
        sum_{beta != 0} R^{2|beta|} c_beta^2 (i = 1)."""
        n, deg = self.p.n, self.p.degree()
        if i == 0:
            return 2 * deg, _square_rows(self._base[None, :], n, deg)
        # rows beta != 0 of the zoom matrix; c_beta has degree <= deg - 1
        e = max(deg - 1, 0)
        # the basis is its own down-set
        t = _pairs(_basis(n, deg), self.lam)
        C = _zoom_matrix(t, self._base)[1:, :len(_basis(n, e))]
        weights = self.R ** (2 * t.levels[1:])
        return 2 * e, (weights @ _square_rows(C, n, e))[None, :]

    def exact_row_poly(self, i) -> HermitePoly:
        if i not in (0, 1):
            raise ValueError(f"exact statistics unavailable for row {i}")
        deg, row = self._rows[i]
        return HermitePoly._of(_basis(self.p.n, deg), row[0])

    def column_rho(self, j) -> float:
        return (1.0 - self.lam) ** (j / 2.0)

    def _row_coeffs(self, i):
        """(degree, (K, N) coefficient rows) of row i's statistic: one row
        for an exact row, one per Monte Carlo sample above."""
        if i not in self._rows:
            self._rows[i] = self._mc_row(i)
        return self._rows[i]

    def _mc_row(self, i):
        """The squares of mc_trials samples of F_{i,0}, as coefficient rows,
        drawn from the row's own substream."""
        support, F = PolySampler(self.p, i, 0, self.R, self.lam).sample(
            substream(self.master_seed, "stat-row", i), self.mc_trials)
        e = int(support[-1].sum())
        return 2 * e, _square_rows(F, self.p.n, e)

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
        basis = _basis(self.p.n, deg)
        bounds = np.searchsorted(basis.sum(axis=1), np.arange(deg + 2))
        powers = [self.column_rho(j) ** np.arange(deg + 1) for j in cols]
        K = Q.shape[0]
        mean = np.zeros((X.shape[0], len(cols)))
        err = np.zeros_like(mean)
        step = max(1, BLOCK_ELEMS // ((deg + 1) * K))
        for b0 in range(0, X.shape[0], step):
            H = _design(X[b0:b0 + step], basis)
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


def stat_identities_check(p: HermitePoly, params, i, j, x, trials=2000,
                          master_seed=0) -> dict:
    """Two-sided Monte Carlo check of the grid's defining identities.

    (a) s_{i+1,0}(x) equals the F_{i,0}-average of the amplified
        hypervariance of the zoom at x;
    (b) s_{i,j+1}(x) equals the F_{i,j}-average of the squared 2-norm of the
        zoom at x.

    Each side uses an independent stream, the right one `trials` draws of
    F_{i,j}; a side is exact where the grid has a closed form or F_{i,j} is
    Dirac.  Passes when |difference| <= 4 * combined stderr.
    """
    grid = StatGrid(p, params, master_seed=master_seed, mc_trials=trials)
    x = np.asarray(x, dtype=float)
    lam, R = params.lambda_bar, params.R_bar

    def side(gi, gj, rj, weigh, tag):
        # s_{gi,gj}(x) against the F_{i,rj}-average of weigh(zoom at x)
        vals, errs, _ = grid.row_batch(gi, x[None, :], [gj])
        lhs, lerr = float(vals[0, 0]), float(errs[0, 0])
        rows = PolySampler(p, i, rj, R, lam).sample(
            substream(master_seed, tag, i, rj), trials)
        v = weigh(_zoom_level_weights(*rows, lam, x[None, :])[:, 0])
        rhs = float(v.mean())
        rerr = float(v.std(ddof=1) / math.sqrt(len(v))) if len(v) > 1 else 0.0
        # 4 sigma plus a relative floor for the Dirac (zero-variance) cases
        tol = 4.0 * math.hypot(lerr, rerr) + 1e-9 * max(abs(lhs), abs(rhs))
        return {"lhs": lhs, "rhs": rhs, "tol": tol,
                "pass": abs(lhs - rhs) <= tol}

    report = {}
    if i + 1 <= params.d:
        report["derivative_row"] = side(i + 1, 0, 0, lambda W: W[:, 1:] @ R ** (
            2.0 * np.arange(1, W.shape[1])), "ident-a")
    report["noise_column"] = side(i, j + 1, j, lambda W: W.sum(axis=1),
                                  "ident-b")
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
