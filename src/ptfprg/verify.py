"""Deterministic closed-form checks: interpolation bounds, the jigsaw
inequality, and the stability difference formulas.

This is the one module that computes beyond double precision, with the
standard library only: the clean fraction is one exact `Fraction` of two
big-integer products, and the Lagrange coefficients at the shifted nodes,
whose cancellations near q -> 0 double precision cannot resolve, are
computed in `decimal` at 60 significant digits.
"""

from __future__ import annotations

import decimal
import warnings
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .gaussops import mult_close, noise_op, stability, zoom
from .hermite import HermitePoly

__all__ = [
    "clean_fraction",
    "lagrange_l0",
    "smoothing_chain_experiment",
    "jigsaw_check",
    "jigsaw_sides",
    "StabilityForms",
    "stability_closed_forms",
    "derived_inner_poly",
]


def clean_fraction(j: int, d: int) -> Fraction:
    """prod_{i in [1, 2d+1], i != j} i^2 / (i^2 - j^2), exactly.

    Bounded by 2 in absolute value for every valid (j, d); the sign
    alternates with the j-1 negative factors below the diagonal.
    """
    top = 2 * d + 1
    if not 1 <= j <= top:
        raise ValueError(f"j = {j} outside [1, {top}]")
    num = den = 1
    for i in range(1, top + 1):
        if i != j:
            num *= i * i
            den *= i * i - j * j
    return Fraction(num, den)


# 60 significant digits; a division by a zero node difference raises
_LAGRANGE_CONTEXT = decimal.Context(
    prec=60, rounding=decimal.ROUND_HALF_EVEN,
    traps=[decimal.DivisionByZero, decimal.InvalidOperation, decimal.Overflow])


def lagrange_l0(d: int, q: float):
    """Lagrange basis values l_j(0), j = 1..2d+1, at the shifted nodes.

    Nodes are x_i = (2/q) (1 - (1-q)^{i^2 / 2}); as q -> 0 they approach i^2
    and l_j(0) approaches the clean fraction.  Computed in `decimal` at 60
    significant digits; warns (but still computes) when q exceeds 1/d^10,
    and raises ValueError where two nodes are equal at that precision.
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    if not 0.0 < q < 1.0:
        raise ValueError(f"q = {q} outside (0, 1)")
    if q > 1.0 / d**10:
        warnings.warn(f"q = {q} above the coefficient-bound regime 1/d^10",
                      stacklevel=2)
    count = 2 * d + 1
    with decimal.localcontext(_LAGRANGE_CONTEXT):
        qd = decimal.Decimal(q)  # exact
        root = (1 - qd).sqrt()
        nodes = [(2 / qd) * (1 - root ** (i * i)) for i in range(1, count + 1)]
        out = []
        try:
            for j in range(count):
                v = decimal.Decimal(1)
                for m in range(count):
                    if m != j:
                        v *= (-nodes[m]) / (nodes[j] - nodes[m])
                out.append(float(v))
        except (decimal.DivisionByZero, decimal.InvalidOperation) as exc:
            raise ValueError(f"lagrange_l0(d = {d}, q = {q}): nodes coincide "
                             "at 60 significant digits") from exc
    return out


def smoothing_chain_experiment(r0: HermitePoly, q: float, x, gamma: float) -> dict:
    """Chains of noisifications pin down the unsmoothed value.

    With r_j(x) = (U_{(1-q)^{j/2}} r0)(x): if r_1(x), ..., r_D(x) are
    pairwise consecutively within e^{+-gamma} and gamma <= 1/(12 D (2d+1)),
    then r_0(x) must be within a factor e of r_1(x).  All values are exact
    (coefficient scaling only); the report states hypothesis, applicability,
    and conclusion.
    """
    x = np.asarray(x, dtype=float)
    deg = r0.degree()
    d = max((deg + 1) // 2, 1)
    D = (2 * d + 1) ** 2
    a = 1.0 - q
    values = [noise_op(r0, a ** (j / 2.0)).eval(x) if j else r0.eval(x)
              for j in range(D + 1)]
    hypothesis = bool(mult_close(values[1:-1], values[2:], gamma).all())
    gamma_bound = 1.0 / (12.0 * D * (2 * d + 1))
    applicable = hypothesis and gamma <= gamma_bound
    conclusion = bool(mult_close(values[0], values[1], 1.0))
    return {
        "degree": deg,
        "D": D,
        "gamma": gamma,
        "gamma_bound": gamma_bound,
        "hypothesis_holds": hypothesis,
        "applicable": applicable,
        "conclusion_holds": conclusion,
        "r0": values[0],
        "r1": values[1],
        "verified": (not applicable) or conclusion,
    }


def jigsaw_sides(a: int, R: float, lam: float, rho: float):
    """Both sides of the termwise stability-difference inequality."""
    lhs = (R * R * lam * rho - rho + 1.0) ** a - (1.0 - rho) ** a
    rhs = (R * R * (1.0 - lam) * (1.0 - rho) + R * R * lam) ** a \
        - (R * R * (1.0 - lam) * (1.0 - rho)) ** a
    return lhs, rhs


def jigsaw_check(a: int, R: float, lam: float, rho: float) -> bool:
    """(R^2 lam rho - rho + 1)^a - (1-rho)^a
    <= (R^2 (1-lam)(1-rho) + R^2 lam)^a - (R^2 (1-lam)(1-rho))^a."""
    if a < 0 or R < 1.0 or not 0.0 <= lam <= 1.0 or not 0.0 < rho < 1.0:
        raise ValueError("arguments outside the stated ranges")
    lhs, rhs = jigsaw_sides(a, R, lam, rho)
    scale = max(abs(lhs), abs(rhs), 1.0)
    return lhs <= rhs + 1e-12 * scale


@dataclass
class StabilityForms:
    sigma_lhs: float
    tau_lhs: float
    sigma_rhs: float
    tau_rhs: float
    p_lhs: float
    p_rhs: float


def stability_closed_forms(h: HermitePoly, r_prime: float, lam: float,
                           rho: float) -> StabilityForms:
    """Stability-difference values of the two smoothing/derivative orderings.

    For the supplied polynomial h,

        p_lhs = Stab_{sigma_lhs}[h] - Stab_{tau_lhs}[h],
        p_rhs = Stab_{sigma_rhs}[h] - Stab_{tau_rhs}[h],

    with the four parameters the rational functions of (r_prime, lam, rho)
    below.  p_lhs <= p_rhs always holds at r_prime = 1, and for
    amplifications >= 1 the termwise comparison (after clearing the common
    denominator) is exactly the jigsaw inequality; for r_prime < 1 the
    ordering can genuinely reverse (h with dominant level-2 weight at small
    rho), so no inequality is asserted here.
    """
    if not 0.0 < r_prime <= 1.0:
        raise ValueError(f"r_prime = {r_prime} outside (0, 1]")
    if not 0.0 <= lam <= 1.0 or not 0.0 < rho < 1.0:
        raise ValueError("lam or rho outside range")
    r2 = r_prime * r_prime
    den = 1.0 - rho * r2 * (1.0 - lam)
    sigma_lhs = (1.0 - rho + r2 * lam * rho) / den
    tau_lhs = (1.0 - rho) / den
    sigma_rhs = ((1.0 - lam) * (1.0 - rho) * r2 + r2 * lam) / den
    tau_rhs = (1.0 - lam) * (1.0 - rho) * r2 / den
    p_lhs = stability(h, sigma_lhs) - stability(h, tau_lhs)
    p_rhs = stability(h, sigma_rhs) - stability(h, tau_rhs)
    return StabilityForms(sigma_lhs=sigma_lhs, tau_lhs=tau_lhs,
                          sigma_rhs=sigma_rhs, tau_rhs=tau_rhs,
                          p_lhs=p_lhs, p_rhs=p_rhs)


def derived_inner_poly(g: HermitePoly, x, r_prime: float, lam: float,
                       rho: float) -> HermitePoly:
    """The polynomial h(u) = g(sqrt(rho) R' sqrt(1-lam) x + s u) whose
    stability differences the closed forms describe, built exactly as a zoom:
    s^2 = 1 - rho R'^2 (1-lam)."""
    lam_star = 1.0 - rho * r_prime * r_prime * (1.0 - lam)
    return zoom(g, lam_star, x)
