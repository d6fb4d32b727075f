"""Operators on Gaussian polynomials: zooms, noise, stability, hypervariance.

The zoom of g at scale lambda and center x is the polynomial
``y -> g(sqrt(1-lambda) x + sqrt(lambda) y)``.  Its Hermite coefficients are
computed exactly from the coefficient identity

    coeff_beta(zoom) = sum_{gamma >= beta} ghat(gamma)
                       * sqrt(Pr[Bin(gamma, lambda) = beta]) * h_{gamma-beta}(x),

where Bin(gamma, lambda) is the componentwise binomial, from one cached
table per (n, degree, lambda) that every zoom operator here reads.
Everything here is symbolic/exact; Monte Carlo only enters in the test
suites that check these operators against their probabilistic definitions.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .hermite import (HermitePoly, _basis, _contraction, _Contraction,
                      _design, _from_dense, _segment_sum, _to_dense,
                      total_degree)

__all__ = [
    "ZoomSpec",
    "AttenuationReport",
    "binom_pmf_row",
    "zoom_coefficient_polys",
    "zoom",
    "zoom_hypervar_and_norm_batch",
    "noise_op",
    "stability",
    "hypervar",
    "is_attenuated",
    "amplified_derivative",
    "directional_derivative",
    "mult_close",
]


@dataclass
class ZoomSpec:
    lam: float
    center: np.ndarray

    def __post_init__(self):
        if not 0.0 <= self.lam <= 1.0:
            raise ValueError(f"zoom scale {self.lam} outside [0, 1]")
        self.center = np.asarray(self.center, dtype=float)


@dataclass
class AttenuationReport:
    R: float
    eps: float
    k: int
    hypervar_above_k: float
    sq2norm: float
    attenuated: bool


def binom_pmf_row(m, lam, _cache={}):
    """Pr[Bin(m, lam) = j] for j = 0..m, by the stable two-term recurrence."""
    key = (m, lam)
    row = _cache.get(key)
    if row is None:
        row = np.zeros(m + 1)
        row[0] = 1.0
        for i in range(1, m + 1):
            prev = row[: i + 1].copy()
            row[: i + 1] = (1.0 - lam) * prev
            row[1 : i + 1] += lam * prev[:i]
        if len(_cache) > 4096:
            _cache.clear()
        _cache[key] = row
    return row


def _pmf_prod(gamma, beta, lam):
    p = 1.0
    for g, b in zip(gamma, beta):
        p *= binom_pmf_row(g, lam)[b]
        if p == 0.0:
            return 0.0
    return p


def _sub_indices(gamma):
    """All beta with 0 <= beta <= gamma componentwise."""
    return itertools.product(*(range(g + 1) for g in gamma))


class _ZoomPairs(NamedTuple):
    """Entries (gamma, beta, delta = gamma - beta, sqrt pmf), as positions in
    the graded basis: c_beta has the term ghat(gamma) sqrt pmf h_delta."""
    gamma: np.ndarray
    beta: np.ndarray
    delta: np.ndarray
    sqrt_pmf: np.ndarray
    derivative: _Contraction  # the entries with beta != 0, by delta


@functools.lru_cache(maxsize=64)
def _zoom_pairs(n, deg, lam) -> _ZoomPairs:
    """The zoom coefficient identity over the graded basis of degree <= deg,
    every beta including 0, pairs of probability 0 left out.  For beta != 0,
    gamma - beta lands in the derivative's basis of degree <= deg - 1."""
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"zoom scale {lam} outside [0, 1]")
    pos = _basis(n, deg).pos
    entries = []
    for ig, gamma in enumerate(_basis(n, deg).alphas):
        for beta in _sub_indices(gamma):
            p = _pmf_prod(gamma, beta, lam)
            if p != 0.0:
                delta = tuple(g - b for g, b in zip(gamma, beta))
                entries.append((ig, pos[beta], pos[delta], math.sqrt(p)))
    gam, bet, dlt, wt = (np.array(col) for col in zip(*entries))
    for a in (gam, bet, dlt, wt):
        a.flags.writeable = False
    nz = bet != 0
    derivative = _contraction(gam[nz], bet[nz], wt[nz], dlt[nz],
                              len(_basis(n, max(deg - 1, 0)).alphas))
    return _ZoomPairs(gam, bet, dlt, wt, derivative)


def _zoom_matrix(g: HermitePoly, lam) -> np.ndarray:
    """C[beta, gamma - beta] = ghat(gamma) sqrt(Pr[Bin(gamma, lam) = beta])
    over the graded basis of degree <= deg g: row beta is the coefficient
    row of c_beta, so the zoom at x has coefficients C @ h(x)."""
    deg = g.degree()
    t = _zoom_pairs(g.n, deg, lam)
    C = np.zeros((len(_basis(g.n, deg).alphas),) * 2)
    C[t.beta, t.delta] = _to_dense(g, deg)[t.gamma] * t.sqrt_pmf
    return C


def zoom_coefficient_polys(g: HermitePoly, lam: float):
    """The zoom coefficients of g at scale lam, as polynomials of the center.

    Returns a dict beta -> HermitePoly c_beta with
    c_beta(x) = coefficient of h_beta in the zoom of g at x, for the beta
    whose row of the zoom matrix is nonzero.
    """
    C = _zoom_matrix(g, lam)
    deg = g.degree()
    alphas = _basis(g.n, deg).alphas
    return {alphas[b]: _from_dense(g.n, deg, C[b])
            for b in np.flatnonzero(C.any(axis=1))}


def zoom(g: HermitePoly, spec: ZoomSpec) -> HermitePoly:
    """The polynomial y -> g(sqrt(1-lam) x + sqrt(lam) y), exactly."""
    if spec.center.shape != (g.n,):
        raise ValueError(f"center has shape {spec.center.shape}, expected ({g.n},)")
    deg = g.degree()
    h = _design(spec.center[None, :], deg)[0]
    return _from_dense(g.n, deg, _zoom_matrix(g, spec.lam) @ h)


def _zoom_level_weights(g: HermitePoly, lam, X) -> np.ndarray:
    """(B, deg g + 1): the squared zoom coefficients c_beta(x)^2 at each
    center x of X, summed per Hermite level |beta|."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != g.n:
        raise ValueError(f"batch has shape {X.shape}, expected (B, {g.n})")
    deg = g.degree()
    V = _design(X, deg) @ _zoom_matrix(g, lam).T  # V[b, beta] = c_beta(x_b)
    starts = np.searchsorted(_basis(g.n, deg).levels, np.arange(deg + 1))
    return np.add.reduceat(V * V, starts, axis=1)


def zoom_hypervar_and_norm_batch(g: HermitePoly, lam: float, X, R: float):
    """Exact HyperVar_R[zoom of g at x] and ||zoom at x||_2^2 for a batch of x,
    both from the per-level zoom weights."""
    W = _zoom_level_weights(g, lam, X)
    amp = R ** (2.0 * np.arange(W.shape[1]))
    return W[:, 1:] @ amp[1:], W.sum(axis=1)


def noise_op(g: HermitePoly, rho: float) -> HermitePoly:
    """Coefficientwise scaling by rho^|alpha|.

    For rho <= 1 this is the Gaussian noise (Ornstein-Uhlenbeck) operator;
    for rho > 1 it is its inverse continuation, which has no sampling
    interpretation and is therefore only available through this function.
    """
    if rho <= 0.0:
        raise ValueError(f"noise parameter {rho} must be positive")
    return HermitePoly(
        g.n, {a: c * rho ** total_degree(a) for a, c in g.coeffs.items()}
    )


def stability(g: HermitePoly, rho: float) -> float:
    """sum_alpha rho^|alpha| ghat(alpha)^2."""
    return sum(c * c * rho ** total_degree(a) for a, c in g.coeffs.items())


def hypervar(g: HermitePoly, R: float, above_level: int = 0) -> float:
    """sum_{|alpha| > above_level} R^(2|alpha|) ghat(alpha)^2.

    With above_level = 0 and R = 1 this is Var[g].  R < 1 is allowed (it
    arises in the neighbor bound on the hypervariance of zoomed statistics).
    """
    if R <= 0.0:
        raise ValueError(f"amplification {R} must be positive")
    R2 = R * R
    return sum(
        c * c * R2 ** total_degree(a)
        for a, c in g.coeffs.items()
        if total_degree(a) > above_level
    )


def is_attenuated(g: HermitePoly, k: int, R: float, eps: float) -> AttenuationReport:
    """Check HyperVar_R[g^{>k}] <= eps * ||g||_2^2.

    The zero polynomial is attenuated for every parameter choice (0 <= 0).
    """
    if R < 1.0:
        raise ValueError(f"attenuation amplification {R} must be >= 1")
    if not 0.0 < eps <= 1.0:
        raise ValueError(f"attenuation fraction {eps} outside (0, 1]")
    hv = hypervar(g, R, above_level=k)
    s = g.sq2norm()
    return AttenuationReport(R=R, eps=eps, k=k, hypervar_above_k=hv, sq2norm=s,
                             attenuated=hv <= eps * s)


def amplified_derivative(g, y, y2, R, lam) -> HermitePoly:
    """Noisy derivative of the R-amplified zoom, as a polynomial of the center.

    Returns the polynomial

        x -> [ (U_R zoom(g, lam, x))(y) - (U_R zoom(g, lam, x))(y2) ] / sqrt(2),

    computed symbolically from the zoom coefficient identity so that the
    degree drop (output degree <= deg g - 1) holds exactly.  It is the
    one-row case of :func:`_amplified_derivative_rows`.
    """
    y = np.asarray(y, dtype=float)
    y2 = np.asarray(y2, dtype=float)
    if y.shape != (g.n,) or y2.shape != (g.n,):
        raise ValueError(f"direction vectors must have shape ({g.n},)")
    deg = g.degree()
    row = _amplified_derivative_rows(_to_dense(g, deg)[None, :], g.n, deg,
                                     y[None, :], y2[None, :], R, lam)
    return _from_dense(g.n, max(deg - 1, 0), row[0])


def _amplified_derivative_rows(G, n, deg, Y, Y2, R, lam) -> np.ndarray:
    """Row t: the coefficients (degree <= deg - 1) of amplified_derivative
    of the polynomial with coefficient row G[t] (degree <= deg) along the
    directions Y[t], Y2[t]; one contraction over the zoom table."""
    table = _zoom_pairs(n, deg, lam).derivative
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    W = R ** _basis(n, deg).levels * (_design(Y, deg) - _design(Y2, deg))
    W *= inv_sqrt2
    terms = G[:, table.left] * table.weight
    terms *= W[:, table.right]
    return _segment_sum(terms, table)


def directional_derivative(g: HermitePoly, y) -> HermitePoly:
    """Calculus directional derivative D_y g, exactly.

    Uses d/dt h_k = sqrt(k) h_{k-1} coordinatewise, so projections satisfy
    (D_y g)^{=k} = D_y(g^{=k+1}) exactly.
    """
    y = np.asarray(y, dtype=float)
    if y.shape != (g.n,):
        raise ValueError(f"direction has shape {y.shape}, expected ({g.n},)")
    out = {}
    for alpha, c in g.coeffs.items():
        for i, a in enumerate(alpha):
            if a == 0 or y[i] == 0.0:
                continue
            down = list(alpha)
            down[i] = a - 1
            key = tuple(down)
            out[key] = out.get(key, 0.0) + c * math.sqrt(a) * y[i]
    return HermitePoly(g.n, out)


def mult_close(a, b, nu):
    """Elementwise a ~ b within the band e^{+-nu}: both zero, or a/b in
    [e^-nu, e^nu], which forces equal signs."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        r = a / b
    in_band = (r >= math.exp(-nu)) & (r <= math.exp(nu))
    return in_band | ((a == 0.0) & (b == 0.0))
