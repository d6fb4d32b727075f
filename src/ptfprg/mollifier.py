"""Smooth bump, soft checks, the mollifier product, and hard analysis checks.

The smooth step sigma is the normalized incomplete integral of (1-u^2)^N on
[-1, 1] (a regularized beta function), which is 0 below -1, 1 above +1, and
has its first N derivatives vanishing at both ends.  A soft check compares
two grid statistics through sigma(delta^{-1} ln(s_u / (gamma s_v))), with the
ratio conventions 0/0 -> +inf and positive/0 -> +inf (check passes) and
0/positive -> 0 (check fails).  The mollifier is the product of all soft
checks; the analysis checks are the hard, shifted-by-one counterparts with
a fixed evaluation order (bottom row first, then upward with the connecting
diagonal check before each row).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import betainc

from .gaussops import mult_close
from .hermite import HermitePoly
from .statgrid import StatGrid

__all__ = ["SmoothStep", "sigma", "CheckSpec", "soft_check",
           "mollifier_checks", "mollifier_eval_batch", "MollifierValue",
           "analysis_checks", "analysis_checks_eval_batch",
           "AnalysisCheckReport"]


@dataclass
class SmoothStep:
    """sigma(t) = int_{-1}^{t} (1-u^2)^order du / int_{-1}^{1}, clamped."""

    order: int

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        u = np.clip((t + 1.0) / 2.0, 0.0, 1.0)
        return betainc(self.order + 1, self.order + 1, u)


def sigma(t, order):
    return float(SmoothStep(order)(t))


@dataclass
class CheckSpec:
    """Soft inequality s_u >= gamma * s_v between two grid statistics.

    kind 'diagonal': s_u = s_{i,1}, s_v = s_{i+1,0} (j is unused, stored 0).
    kind 'horizontal': s_u = s_{i,j}, s_v = s_{i,j+1}, or the reverse when
    swap is set.
    """

    kind: str
    i: int
    j: int
    gamma: float
    delta: float
    swap: bool = False

    def __post_init__(self):
        if self.kind not in ("diagonal", "horizontal"):
            raise ValueError(f"unknown check kind {self.kind!r}")
        if self.gamma <= 0.0 or self.delta <= 0.0:
            raise ValueError("gamma and delta must be positive")

    def operands(self):
        """(row, col) grid positions of (s_u, s_v)."""
        if self.kind == "diagonal":
            return (self.i, 1), (self.i + 1, 0)
        a, b = (self.i, self.j), (self.i, self.j + 1)
        return (b, a) if self.swap else (a, b)

    def label(self):
        if self.kind == "diagonal":
            return f"diag[{self.i}]"
        arrow = "<" if self.swap else ">"
        return f"horz{arrow}[{self.i},{self.j}]"


def _log_ratio(su, sv):
    """ln(su/sv) with the closure conventions: 0/0 and pos/0 are +inf."""
    if su < 0.0 or sv < 0.0:
        raise ValueError("statistics must be nonnegative")
    if sv == 0.0:
        return math.inf  # covers 0/0 as well
    if su == 0.0:
        return -math.inf
    return math.log(su / sv)


def soft_check(check: CheckSpec, su, sv, order=4) -> float:
    """sigma(delta^{-1} ln(su / (gamma sv))) in [0, 1].

    Returns exactly 1 when su >= e^delta gamma sv and exactly 0 when
    su <= e^{-delta} gamma sv.
    """
    t = _log_ratio(su, sv)
    if t == math.inf:
        return 1.0
    if t == -math.inf:
        return 0.0
    arg = (t - math.log(check.gamma)) / check.delta
    if arg >= 1.0:
        return 1.0
    if arg <= -1.0:
        return 0.0
    return sigma(arg, order)


def mollifier_checks(params) -> list:
    """The full soft-check collection for a parameter set.

    d diagonal checks (softness 1) plus a pair of horizontal checks for each
    row i <= d and column j <= D-2 (softness delta_horz): in total
    d + 2 (d+1) (D-1) checks.
    """
    d, D = params.d, params.D
    checks = []
    for i in range(d):
        checks.append(CheckSpec("diagonal", i, 0,
                                gamma=1.0 / (math.e * params.lambda_hat),
                                delta=1.0))
    g = math.exp(-2.0 * params.delta_horz)
    for i in range(d + 1):
        for j in range(D - 1):
            checks.append(CheckSpec("horizontal", i, j, gamma=g,
                                    delta=params.delta_horz, swap=False))
            checks.append(CheckSpec("horizontal", i, j, gamma=g,
                                    delta=params.delta_horz, swap=True))
    return checks


@dataclass
class MollifierValue:
    value: float
    sign: int
    indicator_plus: float
    indicator_minus: float
    failed_checks: list


def _stat_table(grid: StatGrid, X, max_col):
    """values[i][b, j] of s_{i,j} for j = 0..max_col over the batch."""
    cols = list(range(max_col + 1))
    vals = []
    for i in range(grid.d + 1):
        v, _, _ = grid.row_batch(i, X, cols)
        vals.append(v)
    return vals


def mollifier_eval_batch(p: HermitePoly, params, X, grid: StatGrid = None,
                         master_seed=0, order=None) -> list:
    """Product of all soft checks, with the signed indicators, per point.

    Statistics come from the supplied grid (exact rows 0-1, shared Monte
    Carlo caches above), one table for the whole batch; the smooth-step
    order defaults to max(d, 4).
    """
    if grid is None:
        grid = StatGrid(p, params, master_seed=master_seed)
    X = np.asarray(X, dtype=float)
    vals = _stat_table(grid, X, max_col=max(params.D - 1, 1))
    order = order if order is not None else max(params.d, 4)
    checks = mollifier_checks(params)
    signs = np.sign(p.eval_batch(X)).astype(int)
    out = []
    for b in range(X.shape[0]):
        value = 1.0
        failed = []
        for check in checks:
            (iu, ju), (iv, jv) = check.operands()
            factor = soft_check(check, float(vals[iu][b, ju]),
                                float(vals[iv][b, jv]), order=order)
            if factor != 1.0:
                failed.append(check.label())
            value *= factor
        sign = int(signs[b])
        out.append(MollifierValue(value=value, sign=sign,
                                  indicator_plus=value * (sign == 1),
                                  indicator_minus=value * (sign == -1),
                                  failed_checks=failed))
    return out


@dataclass
class AnalysisCheckReport:
    results: list  # ordered (check id, holds)
    first_failure: str = None

    @property
    def all_hold(self):
        return self.first_failure is None


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
                               grid: StatGrid = None, master_seed=0) -> list:
    """Every hard analysis check per point, with the first failure.

    Each check is evaluated once over the whole batch.  Monte Carlo rows are
    read at their point estimates; rows 0-1 are exact.
    """
    if grid is None:
        grid = StatGrid(p, params, master_seed=master_seed)
    X = np.asarray(X, dtype=float)
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
    return [AnalysisCheckReport(results=list(zip(labels, row)),
                                first_failure=labels[f] if f >= 0 else None)
            for row, f in zip(holds.tolist(), first.tolist())]
