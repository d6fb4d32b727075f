"""Smooth bump, soft checks, the mollifier product, and hard analysis checks.

The smooth step sigma is the normalized incomplete integral of (1-u^2)^N on
[-1, 1] (a regularized beta function), which is 0 below -1, 1 above +1, and
has its first N derivatives vanishing at both ends.  For integer N it is a
finite binomial sum, computed here as the one scipy.special.betainc runs
(Boost's ibeta), with the same bits and no scipy import.  A soft check compares
two grid statistics through sigma(delta^{-1} ln(s_u / (gamma s_v))), with the
ratio conventions 0/0 -> +inf and positive/0 -> +inf (check passes) and
0/positive -> -inf (check fails).  The mollifier is the product of all soft
checks; the analysis checks are the hard, shifted-by-one counterparts with
a fixed evaluation order (bottom row first, then upward with the connecting
diagonal check before each row).  Both are evaluated over the whole batch of
centers a group of checks at a time: the soft checks in one call per group
sharing (gamma, delta) (the diagonals, then each row's forward and reverse
horizontals), the hard horizontals in one call per row.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .gaussops import mult_close
from .hermite import HermitePoly
from .statgrid import StatGrid, _check_centers

__all__ = ["sigma", "Check", "mollifier_checks", "mollifier_eval_batch",
           "MollifierValue", "analysis_checks", "analysis_checks_eval_batch",
           "AnalysisCheckReport"]


def sigma(t, order):
    """sigma(t) = int_{-1}^{t} (1-u^2)^order du / int_{-1}^{1}, clamped: a
    float for a scalar t, else an array.

    The regularized beta I_u(order+1, order+1) at u = (t+1)/2, equal to
    scipy.special.betainc bit for bit for order <= 38 (where Boost's ibeta
    takes the same finite sum).  ValueError for a nan t or an order that is
    not an int >= 0.
    """
    if (isinstance(order, bool) or not isinstance(order, (int, np.integer))
            or order < 0):
        raise ValueError(f"sigma order must be an int >= 0 (got {order!r})")
    t = np.asarray(t, dtype=float)
    if np.isnan(t).any():
        raise ValueError("sigma of nan")
    u = np.clip((t + 1.0) / 2.0, 0.0, 1.0)
    a = int(order) + 1
    v = np.array([_ibeta_sym(a, x) for x in u.ravel().tolist()])
    return v.reshape(u.shape) if u.ndim else float(v[0])


def _ibeta_sym(a, x):
    """I_x(a, a) for an integer a >= 1 and 0 <= x <= 1, in the order of
    Boost's ibeta: for 1 - x != 1 its finite binomial sum (binomial_ccdf)
    with libm pow through math.pow.  Where 1 - x rounds to 1, Boost takes
    another branch, which is left to scipy (x = 2^-54 is the only such
    value sigma meets, at t = nextafter(-1, 0))."""
    if x == 0.0 or x == 1.0:
        return x
    y = 1.0 - x
    if y == 1.0:
        from scipy.special import betainc  # the one case needing scipy
        return float(betainc(a, a, x))
    invert = (a + a) * y - a < 0.0  # Boost's lambda < 0: x > 1/2
    if invert:
        x, y = y, x
    n, k = 2 * a - 1, a - 1  # I_x(a, a) = P(Bin(n, x) > k)
    r = math.pow(x, n)
    if r > sys.float_info.min:
        term = r
        for i in range(n - 1, k, -1):
            term *= ((i + 1) * y) / ((n - i) * x)
            r += term
    else:
        # the top term underflows: start from just above the mode
        start = max(int(n * x), k + 2)
        r = math.pow(x, start) * math.pow(y, n - start) * _binom(n, start)
        if r == 0.0:
            for i in range(start - 1, k, -1):
                r += math.pow(x, i) * math.pow(y, n - i) * _binom(n, i)
        else:
            term = first = r
            for i in range(start - 1, k, -1):
                term *= ((i + 1) * y) / ((n - i) * x)
                r += term
            term = first
            for i in range(start + 1, n + 1):
                term *= (n - i + 1) * x / (i * y)
                r += term
    return 1.0 - r if invert else r


def _binom(n, k):
    """C(n, k) as Boost's binomial_coefficient rounds it, from factorials."""
    if k in (0, n):
        return 1.0
    if k in (1, n - 1):
        return float(n)
    r = float(math.factorial(n)) / float(math.factorial(n - k))
    return float(math.ceil(r / float(math.factorial(k)) - 0.5))


class Check(NamedTuple):
    """Soft inequality s_u >= gamma * s_v between the grid statistics at the
    (row, column) positions u and v."""

    label: str
    u: tuple
    v: tuple
    gamma: float
    delta: float


def _soft_factors(check: Check, su, sv, order) -> np.ndarray:
    """sigma(delta^{-1} ln(su / (gamma sv))) in [0, 1] for arrays of
    statistics of any one shape, with the gamma and delta of `check`: exactly
    1 when su >= e^delta gamma sv and exactly 0 when su <= e^{-delta} gamma sv.

    Elementwise the same arithmetic, bit for bit, as a scalar evaluation with
    math.log: the ratio decides the saturated factors, and only ratios near
    the smooth band [gamma e^-delta, gamma e^delta] take a log.
    """
    su = np.asarray(su, dtype=float)
    sv = np.asarray(sv, dtype=float)
    if not ((su >= 0.0).all() and (sv >= 0.0).all()):
        raise ValueError("statistics must be nonnegative (got a negative "
                         "value or nan)")
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        q = su / sv
    # 1e-9 of slack in the ratio is far above the log's rounding error
    lo = check.gamma * math.exp(-check.delta) * (1.0 - 1e-9)
    hi = check.gamma * math.exp(check.delta) * (1.0 + 1e-9)
    out = ((q >= hi) | (sv == 0.0)).astype(float)  # 0/0 and pos/0 pass
    near = np.flatnonzero((q > lo) & (q < hi) & (sv > 0.0))
    if len(near):
        t = np.array([math.log(v) for v in q.take(near).tolist()])
        arg = (t - math.log(check.gamma)) / check.delta
        band = (arg > -1.0) & (arg < 1.0)
        f = (arg >= 1.0).astype(float)
        if band.any():
            f[band] = sigma(arg[band], order)
        np.put(out, near, f)
    return out


def mollifier_checks(params) -> list:
    """The full soft-check collection for a parameter set.

    d diagonal checks s_{i,1} >= gamma s_{i+1,0} (softness 1), then for each
    row i <= d and column j <= D-2 the horizontal check s_{i,j} >= gamma
    s_{i,j+1} followed by its reverse (softness delta_horz): in total
    d + 2 (d+1) (D-1) checks.
    """
    return list(_checks(params.d, params.D, params.lambda_hat,
                        params.delta_horz))


@functools.lru_cache(maxsize=16)
def _checks(d, D, lambda_hat, delta_horz) -> tuple:
    checks = [Check(f"diag[{i}]", (i, 1), (i + 1, 0),
                    1.0 / (math.e * lambda_hat), 1.0)
              for i in range(d)]
    g, delta = math.exp(-2.0 * delta_horz), delta_horz
    for i in range(d + 1):
        for j in range(D - 1):
            a, b = (i, j), (i, j + 1)
            checks.append(Check(f"horz>[{i},{j}]", a, b, g, delta))
            checks.append(Check(f"horz<[{i},{j}]", b, a, g, delta))
    return tuple(checks)


@dataclass
class MollifierValue:
    value: float
    sign: int
    failed_checks: list


def _stat_table(grid: StatGrid, X, max_col):
    """values[i][b, j] of s_{i,j} for j = 0..max_col over the batch, read
    without stderrs."""
    cols = list(range(max_col + 1))
    return [grid._read_row(i, X, cols, errors=False)[0]
            for i in range(grid.d + 1)]


def _check_grid(p: HermitePoly, params, grid: StatGrid):
    """ValueError unless `grid` holds the statistics of p at params."""
    if grid.p != p:
        raise ValueError("grid was built for another polynomial")
    if grid.params != params:
        raise ValueError("grid was built for another parameter set")


def mollifier_eval_batch(p: HermitePoly, params, X, grid: StatGrid) -> list:
    """Product of all soft checks, with the sign of p, per point.

    Statistics come from the grid (exact rows 0-1, shared Monte Carlo caches
    above), one table for the whole batch.  Checks sharing (gamma, delta) are
    evaluated in one call over the batch: the d diagonals, then per row the
    D-1 checks s_{i,j} >= gamma s_{i,j+1} and the D-1 reverse ones.  The
    factors are multiplied in check order.  The smooth-step order is
    max(d, 4).
    """
    X = _check_centers(X, p.n)
    _check_grid(p, params, grid)
    d, D = params.d, params.D
    vals = _stat_table(grid, X, max_col=max(D - 1, 1))
    order = max(d, 4)
    checks = _checks(d, D, params.lambda_hat, params.delta_horz)
    values = np.ones(X.shape[0])
    failed = np.zeros((X.shape[0], len(checks)), dtype=bool)
    if d:
        su = np.stack([vals[i][:, 1] for i in range(d)], axis=1)
        sv = np.stack([vals[i + 1][:, 0] for i in range(d)], axis=1)
        diag = _soft_factors(checks[0], su, sv, order)
        failed[:, :d] = diag != 1.0
        for f in diag.T:
            values *= f
    if D > 1:
        # every horizontal check has the gamma and delta of checks[d]; row
        # i's sit at d + 2(D-1)i + 2j (forward) and one after (reverse)
        for i, v in enumerate(vals):
            fwd = _soft_factors(checks[d], v[:, :D - 1], v[:, 1:D], order)
            rev = _soft_factors(checks[d], v[:, 1:D], v[:, :D - 1], order)
            k = d + 2 * (D - 1) * i
            failed[:, k:k + 2 * (D - 1):2] = fwd != 1.0
            failed[:, k + 1:k + 2 * (D - 1):2] = rev != 1.0
            for f, r in zip(fwd.T, rev.T):
                values *= f
                values *= r
    failed_checks = [[] for _ in range(X.shape[0])]
    rows, cols = divmod(np.flatnonzero(failed), len(checks))
    for b, k in zip(rows.tolist(), cols.tolist()):
        failed_checks[b].append(checks[k].label)
    signs = np.sign(p.eval_batch(X)).astype(int)
    return [MollifierValue(value, sign, names) for value, sign, names
            in zip(values.tolist(), signs.tolist(), failed_checks)]


@dataclass(eq=False)
class AnalysisCheckReport:
    _labels: list        # check ids in evaluation order, shared by a batch
    _holds: np.ndarray   # this center's row of the batch's holds matrix
    first_failure: str = None

    @property
    def results(self):
        """Ordered (check id, holds) pairs."""
        return list(zip(self._labels, self._holds.tolist()))


def analysis_checks(params) -> list:
    """Hard-check ids in evaluation order.

    Horizontal checks compare s_{i,j} with s_{i,j+1} multiplicatively within
    e^{+-delta_anal} for j = 1..D-1; diagonal checks require
    s_{i+1,1} <= 100 lambda_hat s_{i,2}.  Order: bottom-row horizontals, then
    for each level the connecting diagonal followed by the row above.
    """
    d, D = params.d, params.D
    order = []
    for i in range(d, -1, -1):
        order.extend(("horizontal", i, j) for j in range(1, D))
        if i > 0:
            order.append(("diagonal", i - 1, 0))
    return order


def analysis_checks_eval_batch(p: HermitePoly, params, X,
                               grid: StatGrid) -> list:
    """Every hard analysis check per point, with the first failure.

    The horizontal checks of a row are one closeness test over the batch,
    the diagonal checks one comparison; the results are then gathered in
    evaluation order.  Monte Carlo rows are read at their point estimates;
    rows 0-1 are exact.
    """
    X = _check_centers(X, p.n)
    _check_grid(p, params, grid)
    d, D = params.d, params.D
    vals = _stat_table(grid, X, max_col=D)
    # column i (D-1) + j-1 holds horizontal (i, j), (d+1)(D-1) + i diagonal i
    table = np.column_stack(
        [mult_close(v[:, 1:D], v[:, 2:D + 1], params.delta_anal)
         for v in vals]
        + [vals[i + 1][:, 1] <= 100.0 * params.lambda_hat * vals[i][:, 2]
           for i in range(d)])
    labels, index = [], []
    for kind, i, j in analysis_checks(params):
        if kind == "horizontal":
            labels.append(f"horz[{i},{j}]")
            index.append(i * (D - 1) + j - 1)
        else:
            labels.append(f"diag[{i}]")
            index.append((d + 1) * (D - 1) + i)
    holds = table[:, index]
    first = np.where(holds.all(axis=1), -1, (~holds).argmax(axis=1))
    return [AnalysisCheckReport(labels, row, labels[f] if f >= 0 else None)
            for row, f in zip(holds, first.tolist())]
