"""Operators on Gaussian polynomials: zooms, noise, stability, hypervariance.

The zoom of g at scale lambda and center x is the polynomial
``y -> g(sqrt(1-lambda) x + sqrt(lambda) y)``.  Its Hermite coefficients are
computed exactly from the coefficient identity

    coeff_beta(zoom) = sum_{gamma >= beta} ghat(gamma)
                       * sqrt(Pr[Bin(gamma, lambda) = beta]) * h_{gamma-beta}(x),

where Bin(gamma, lambda) is the componentwise binomial, from one cached
table per (support, lambda) that every zoom operator here reads.  It spans
the down-set of the support, so a zoom costs time in the polynomial's terms.
Everything here is symbolic/exact; Monte Carlo only enters in the test
suites that check these operators against their probabilistic definitions.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .hermite import (BLOCK_ELEMS, HermitePoly, _contraction, _Contraction,
                      _design, _frozen, _graded_unique, _segment_sum,
                      _tensor_expand)

__all__ = [
    "AttenuationReport",
    "binom_pmf_row",
    "zoom_coefficient_polys",
    "zoom",
    "zoom_hypervar_batch",
    "noise_op",
    "stability",
    "hypervar",
    "is_attenuated",
    "amplified_derivative",
    "directional_derivative",
    "mult_close",
]


@dataclass
class AttenuationReport:
    R: float
    eps: float
    k: int
    hypervar_above_k: float
    sq2norm: float
    attenuated: bool


@functools.lru_cache(maxsize=4096)
def binom_pmf_row(m, lam):
    """Pr[Bin(m, lam) = j] for j = 0..m, by the stable two-term recurrence
    (read-only)."""
    row = np.zeros(m + 1)
    row[0] = 1.0
    for i in range(1, m + 1):
        prev = row[: i + 1].copy()
        row[: i + 1] = (1.0 - lam) * prev
        row[1 : i + 1] += lam * prev[:i]
    return _frozen(row)


class _ZoomPairs(NamedTuple):
    """Entries (gamma, beta, delta = gamma - beta, sqrt pmf): gamma indexes a
    graded support, beta and delta its down-set; c_beta has the term
    ghat(gamma) sqrt pmf h_delta."""
    down: np.ndarray      # the down-set {beta <= some gamma}, graded order
    levels: np.ndarray    # total degree of each down-set row
    gamma: np.ndarray
    beta: np.ndarray
    delta: np.ndarray
    sqrt_pmf: np.ndarray
    derivative: _Contraction  # the entries with beta != 0, by delta


@functools.lru_cache(maxsize=64)
def _zoom_pairs(n, support, lam) -> _ZoomPairs:
    """The zoom coefficient identity for a graded support (the bytes of its
    (T, n) intp array), every beta including 0, pairs of probability 0 left
    out, by gamma and then beta lexicographically.  For beta != 0, gamma -
    beta lands in the down-set's prefix of degree <= deg - 1."""
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"zoom scale {lam} outside [0, 1]")
    S = np.frombuffer(support, dtype=np.intp).reshape(-1, n)
    gam, beta = _tensor_expand(S + 1)
    gamma = S[gam]
    deg = int(S[-1].sum()) if len(S) else 0
    pmf = np.array([np.r_[binom_pmf_row(m, lam), np.zeros(deg - m)]
                    for m in range(deg + 1)])  # pmf[m, j] = Pr[Bin(m) = j]
    p = np.ones(len(gam))
    for i in range(n):
        p *= pmf[gamma[:, i], beta[:, i]]
    down, pos = _graded_unique(np.concatenate(
        [np.zeros((1, n), dtype=np.intp), beta, gamma - beta]))
    nz = p != 0.0
    bet, dlt = pos[1:].reshape(2, -1)[:, nz]
    gam, wt = gam[nz], np.sqrt(p[nz])
    levels = down.sum(axis=1)
    d = bet != 0
    size = int(np.searchsorted(levels, max(deg - 1, 0), side="right"))
    derivative = _contraction(gam[d], bet[d], wt[d], dlt[d], size)
    return _ZoomPairs(*map(_frozen, (down, levels, gam, bet, dlt, wt)),
                      derivative)


def _pairs(support, lam) -> _ZoomPairs:
    """The zoom table over the down-set of a graded support."""
    return _zoom_pairs(support.shape[1], support.tobytes(), lam)


def _zoom_matrix(t: _ZoomPairs, G) -> np.ndarray:
    """C[..., beta, gamma - beta] = ghat(gamma) sqrt(Pr[Bin(gamma, lam) =
    beta]) over t's down-set, for each coefficient row ghat of G (..., T)
    over t's support: row beta is the coefficient row of c_beta, so the zoom
    at x has coefficients C @ h(x)."""
    C = np.zeros(G.shape[:-1] + (len(t.down),) * 2)
    C[..., t.beta, t.delta] = G[..., t.gamma] * t.sqrt_pmf
    return C


def zoom_coefficient_polys(g: HermitePoly, lam: float):
    """The zoom coefficients of g at scale lam, as polynomials of the center.

    Returns a dict beta -> HermitePoly c_beta with
    c_beta(x) = coefficient of h_beta in the zoom of g at x, for the beta
    whose row of the zoom matrix is nonzero.
    """
    t = _pairs(g.support, lam)
    C = _zoom_matrix(t, g.vector)
    keys = t.down.tolist()
    return {tuple(keys[b]): HermitePoly._of(t.down, C[b])
            for b in np.flatnonzero(C.any(axis=1))}


def zoom(g: HermitePoly, lam, center) -> HermitePoly:
    """The polynomial y -> g(sqrt(1-lam) x + sqrt(lam) y), x the center."""
    center = np.asarray(center, dtype=float)
    if center.shape != (g.n,):
        raise ValueError(f"center has shape {center.shape}, expected ({g.n},)")
    t = _pairs(g.support, lam)
    h = _design(center[None, :], t.down)[0]
    return HermitePoly._of(t.down, _zoom_matrix(t, g.vector) @ h)


def _zoom_level_weights(support, G, lam, X) -> np.ndarray:
    """(K, B, deg + 1): for each coefficient row of G (K, T) over a graded
    support and each center x of X, the squared zoom coefficients
    c_beta(x)^2, summed per Hermite level |beta|, in blocks of rows."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != support.shape[1]:
        raise ValueError(f"batch has shape {X.shape}, expected (B, {support.shape[1]})")
    t = _pairs(support, lam)
    H = _design(X, t.down)
    starts = np.searchsorted(t.levels, np.arange(t.levels[-1] + 1))
    step = max(1, BLOCK_ELEMS // (len(t.down) * max(len(X), len(t.down))))
    # V[r, b, beta] = c_beta(x_b) of row r
    return np.concatenate([np.add.reduceat(np.square(H @ _zoom_matrix(
        t, G[r:r + step]).swapaxes(1, 2)), starts, axis=2)
        for r in range(0, len(G), step)])


def zoom_hypervar_batch(g: HermitePoly, lam: float, X, R: float):
    """Exact HyperVar_R[zoom of g at x] for a batch of x, from the per-level
    zoom weights."""
    W = _zoom_level_weights(g.support, g.vector[None, :], lam, X)[0]
    amp = R ** (2.0 * np.arange(W.shape[1]))
    return W[:, 1:] @ amp[1:]


def _level_powers(x, g: HermitePoly) -> np.ndarray:
    """x ** |alpha| for each support row alpha of g (one float power per
    level)."""
    return np.array([x ** k for k in range(g.degree() + 1)])[g.levels]


def noise_op(g: HermitePoly, rho: float) -> HermitePoly:
    """Coefficientwise scaling by rho^|alpha|.

    For rho <= 1 this is the Gaussian noise (Ornstein-Uhlenbeck) operator;
    for rho > 1 it is its inverse continuation, which has no sampling
    interpretation and is therefore only available through this function.
    """
    if rho <= 0.0:
        raise ValueError(f"noise parameter {rho} must be positive")
    return HermitePoly._of(g.support, g.vector * _level_powers(rho, g))


def stability(g: HermitePoly, rho: float) -> float:
    """sum_alpha rho^|alpha| ghat(alpha)^2."""
    return sum((g.vector * g.vector * _level_powers(rho, g)).tolist())


def hypervar(g: HermitePoly, R: float, above_level: int = 0) -> float:
    """sum_{|alpha| > above_level} R^(2|alpha|) ghat(alpha)^2.

    With above_level = 0 and R = 1 this is Var[g].  R < 1 is allowed (it
    arises in the neighbor bound on the hypervariance of zoomed statistics).
    """
    if R <= 0.0:
        raise ValueError(f"amplification {R} must be positive")
    keep = g.levels > above_level
    c = g.vector[keep]
    return sum((c * c * _level_powers(R * R, g)[keep]).tolist())


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
    t = _pairs(g.support, lam)
    row = _amplified_derivative_rows(g.vector[None, :], t, y[None, :],
                                     y2[None, :], R)
    return HermitePoly._of(t.down[:t.derivative.size], row[0])


def _amplified_derivative_rows(G, t: _ZoomPairs, Y, Y2, R) -> np.ndarray:
    """Row r: the coefficients, over the prefix of degree <= deg - 1 of t's
    down-set, of amplified_derivative of the polynomial with coefficient row
    G[r] over t's support along the directions Y[r], Y2[r]; one contraction
    over the zoom table."""
    table = t.derivative
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    W = R ** t.levels * (_design(Y, t.down) - _design(Y2, t.down))
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
    lower, rows = _directional_derivative_rows(g.support, g.vector[None, :], y)
    return HermitePoly._of(lower, rows[0])


def _directional_derivative_rows(support, G, y):
    """(lower, rows): D_y of each coefficient row of G (K, T) over a graded
    support, over the graded support `lower`, entries summed in term order."""
    term, i = np.nonzero((support > 0) & (y != 0.0))
    lower, at = _graded_unique(
        support[term] - np.eye(support.shape[1], dtype=np.intp)[i])
    rows = np.zeros((len(G), len(lower)))
    np.add.at(rows.T, at, (G[:, term] * np.sqrt(support[term, i]) * y[i]).T)
    return lower, rows


def mult_close(a, b, nu):
    """Elementwise a ~ b within the band e^{+-nu}: both zero, or a/b in
    [e^-nu, e^nu], which forces equal signs."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        r = a / b
    in_band = (r >= math.exp(-nu)) & (r <= math.exp(nu))
    return in_band | ((a == 0.0) & (b == 0.0))
