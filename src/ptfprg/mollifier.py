"""Smooth bump, soft checks, the mollifier product, and hard analysis checks.

The smooth step sigma is the normalized incomplete integral of (1-u^2)^N on
[-1, 1] (a regularized beta function), which is 0 below -1, 1 above +1, and
has its first N derivatives vanishing at both ends.  A soft check compares
two grid statistics through sigma(delta^{-1} ln(s_u / (gamma s_v))), with the
ratio conventions 0/0 -> +inf and positive/0 -> +inf (check passes) and
0/positive -> -inf (check fails).  The mollifier is the product of all soft
checks; the analysis checks are the hard, shifted-by-one counterparts with
a fixed evaluation order (bottom row first, then upward with the connecting
diagonal check before each row).  Both are evaluated one check at a time
over the whole batch of centers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.special import betainc

from .gaussops import mult_close
from .hermite import HermitePoly
from .statgrid import StatGrid, _check_centers

__all__ = ["sigma", "Check", "mollifier_checks", "mollifier_eval_batch",
           "MollifierValue", "analysis_checks", "analysis_checks_eval_batch",
           "AnalysisCheckReport"]


def sigma(t, order):
    """sigma(t) = int_{-1}^{t} (1-u^2)^order du / int_{-1}^{1}, clamped: a
    float for a scalar t, else an array."""
    u = np.clip((np.asarray(t, dtype=float) + 1.0) / 2.0, 0.0, 1.0)
    v = betainc(order + 1, order + 1, u)
    return float(v) if v.ndim == 0 else v


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
    statistics: exactly 1 when su >= e^delta gamma sv and exactly 0 when
    su <= e^{-delta} gamma sv.

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
        t = np.array([math.log(v) for v in q[near].tolist()])
        arg = (t - math.log(check.gamma)) / check.delta
        band = (arg > -1.0) & (arg < 1.0)
        f = (arg >= 1.0).astype(float)
        if band.any():
            f[band] = sigma(arg[band], order)
        out[near] = f
    return out


def mollifier_checks(params) -> list:
    """The full soft-check collection for a parameter set.

    d diagonal checks s_{i,1} >= gamma s_{i+1,0} (softness 1), then for each
    row i <= d and column j <= D-2 the horizontal check s_{i,j} >= gamma
    s_{i,j+1} followed by its reverse (softness delta_horz): in total
    d + 2 (d+1) (D-1) checks.
    """
    d, D = params.d, params.D
    checks = [Check(f"diag[{i}]", (i, 1), (i + 1, 0),
                    1.0 / (math.e * params.lambda_hat), 1.0)
              for i in range(d)]
    g, delta = math.exp(-2.0 * params.delta_horz), params.delta_horz
    for i in range(d + 1):
        for j in range(D - 1):
            a, b = (i, j), (i, j + 1)
            checks.append(Check(f"horz>[{i},{j}]", a, b, g, delta))
            checks.append(Check(f"horz<[{i},{j}]", b, a, g, delta))
    return checks


@dataclass
class MollifierValue:
    value: float
    sign: int
    failed_checks: list


def _stat_table(grid: StatGrid, X, max_col):
    """values[i][b, j] of s_{i,j} for j = 0..max_col over the batch."""
    cols = list(range(max_col + 1))
    vals = []
    for i in range(grid.d + 1):
        v, _, _ = grid.row_batch(i, X, cols)
        vals.append(v)
    return vals


def mollifier_eval_batch(p: HermitePoly, params, X, grid: StatGrid) -> list:
    """Product of all soft checks, with the sign of p, per point.

    Statistics come from the grid (exact rows 0-1, shared Monte Carlo caches
    above), one table for the whole batch; each soft check is evaluated once
    over the batch and the factors are multiplied in check order.  The
    smooth-step order is max(d, 4).
    """
    X = _check_centers(X, p.n)
    vals = _stat_table(grid, X, max_col=max(params.D - 1, 1))
    order = max(params.d, 4)
    checks = mollifier_checks(params)
    values = np.ones(X.shape[0])
    failed = np.zeros((X.shape[0], len(checks)), dtype=bool)
    for k, check in enumerate(checks):
        (iu, ju), (iv, jv) = check.u, check.v
        factor = _soft_factors(check, vals[iu][:, ju], vals[iv][:, jv], order)
        failed[:, k] = factor != 1.0
        values = values * factor
    failed_checks = [[] for _ in range(X.shape[0])]
    rows, cols = np.nonzero(failed)
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

    Each check is evaluated once over the whole batch.  Monte Carlo rows are
    read at their point estimates; rows 0-1 are exact.
    """
    X = _check_centers(X, p.n)
    vals = _stat_table(grid, X, max_col=params.D)
    labels, holds = [], []
    for kind, i, j in analysis_checks(params):
        if kind == "horizontal":
            labels.append(f"horz[{i},{j}]")
            holds.append(mult_close(vals[i][:, j], vals[i][:, j + 1],
                                    params.delta_anal))
        else:
            labels.append(f"diag[{i}]")
            holds.append(vals[i + 1][:, 1]
                         <= 100.0 * params.lambda_hat * vals[i][:, 2])
    holds = np.array(holds).T
    first = np.where(holds.all(axis=1), -1, (~holds).argmax(axis=1))
    return [AnalysisCheckReport(labels, row, labels[f] if f >= 0 else None)
            for row, f in zip(holds, first.tolist())]
