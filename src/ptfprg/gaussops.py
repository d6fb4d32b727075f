"""Operators on Gaussian polynomials: zooms, noise, stability, hypervariance.

The zoom of g at scale lambda and center x is the polynomial
``y -> g(sqrt(1-lambda) x + sqrt(lambda) y)``.  Its Hermite coefficients are
computed exactly from the coefficient identity

    coeff_beta(zoom) = sum_{gamma >= beta} ghat(gamma)
                       * sqrt(Pr[Bin(gamma, lambda) = beta]) * h_{gamma-beta}(x),

where Bin(gamma, lambda) is the componentwise binomial.  Everything here is
symbolic/exact; Monte Carlo only enters in the test suites that check these
operators against their probabilistic definitions.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .hermite import HermitePoly, total_degree

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


def zoom_coefficient_polys(g: HermitePoly, lam: float):
    """The zoom coefficients of g at scale lam, as polynomials of the center.

    Returns a dict beta -> HermitePoly c_beta with
    c_beta(x) = coefficient of h_beta in the zoom of g at x.  There are
    finitely many beta (those dominated by some stored gamma).
    """
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"zoom scale {lam} outside [0, 1]")
    acc = {}
    for gamma, c in g.coeffs.items():
        for beta in _sub_indices(gamma):
            p = _pmf_prod(gamma, beta, lam)
            if p == 0.0:
                continue
            delta = tuple(gg - bb for gg, bb in zip(gamma, beta))
            bucket = acc.setdefault(tuple(beta), {})
            bucket[delta] = bucket.get(delta, 0.0) + c * math.sqrt(p)
    return {beta: HermitePoly(g.n, bucket) for beta, bucket in acc.items()}


def zoom(g: HermitePoly, spec: ZoomSpec) -> HermitePoly:
    """The polynomial y -> g(sqrt(1-lam) x + sqrt(lam) y), exactly."""
    if spec.center.shape != (g.n,):
        raise ValueError(f"center has shape {spec.center.shape}, expected ({g.n},)")
    cpolys = zoom_coefficient_polys(g, spec.lam)
    coeffs = {}
    for beta, cpoly in cpolys.items():
        v = cpoly.eval(spec.center)
        if v != 0.0:
            coeffs[beta] = v
    return HermitePoly(g.n, coeffs)


def zoom_hypervar_and_norm_batch(g: HermitePoly, lam: float, X, R: float):
    """Exact HyperVar_R[zoom of g at x] and ||zoom at x||_2^2 for a batch of x.

    Both are sums of squared zoom coefficient polynomials, so one pass over
    the coefficient polys serves every point.
    """
    X = np.asarray(X, dtype=float)
    hv = np.zeros(X.shape[0])
    n2 = np.zeros(X.shape[0])
    for beta, cpoly in zoom_coefficient_polys(g, lam).items():
        v2 = cpoly.eval_batch(X) ** 2
        n2 += v2
        db = total_degree(beta)
        if db:
            hv += R ** (2 * db) * v2
    return hv, n2


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

    computed symbolically from the zoom coefficient polynomials so that the
    degree drop (output degree <= deg g - 1) holds exactly.
    """
    y = np.asarray(y, dtype=float)
    y2 = np.asarray(y2, dtype=float)
    if y.shape != (g.n,) or y2.shape != (g.n,):
        raise ValueError(f"direction vectors must have shape ({g.n},)")
    cpolys = zoom_coefficient_polys(g, lam)
    out = HermitePoly.zero(g.n)
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    for beta, cpoly in cpolys.items():
        db = total_degree(beta)
        if db == 0:
            continue
        hb_y = _h_multi(y, beta)
        hb_y2 = _h_multi(y2, beta)
        w = (R**db) * (hb_y - hb_y2) * inv_sqrt2
        if w != 0.0:
            out = out + cpoly.scale(w)
    return out


def _h_multi(x, alpha):
    from .hermite import hermite_values

    kmax = max(alpha)
    tab = hermite_values(np.asarray(x, dtype=float), kmax)
    v = 1.0
    for i, a in enumerate(alpha):
        if a:
            v *= tab[i, a]
    return float(v)


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
