"""The generator Z = sqrt(lambda_bar) * (z_1 + ... + z_L) from k-wise blocks.

Parameter selection couples the pieces: lambda_bar = c_lambda * (eps/d)^e
with L = ceil(1/lambda_bar) and lambda_bar renormalized to exactly 1/L so the
sum has unit per-coordinate variance; k_indep = k_mult * d covers every
moment-matching requirement used downstream (k_indep >= 4*d*T at the
defaults); M is the per-word bit width of the discretized uniforms.

Two couplings for lambda_bar are provided:

* ``prg``          - the generator default, lambda_bar = (eps/d)^lambda_exp.
* ``analysis`` - the far smaller scale required by the local
  hyperconcentration bound lambda <= c * eps' * beta / (R d^{9/2}) with
  eps' the diagonal-check threshold; the grid statistics remain exactly
  computable at this scale, and the mollification-error experiment runs here.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from . import kwise
from .seeding import substream

__all__ = ["PrgParams", "choose_params", "generate_batch"]

# Caps the default M.  Every field width m <= 64 expands through the same
# byte-split tables, whose size grows with ceil(m/8) and the word dtype.
M_CAP = 32


@dataclass
class PrgParams:
    n: int
    d: int
    eps: float
    lambda_bar: float
    L: int
    k_indep: int
    M: int
    R_bar: float
    T: int
    D: int
    lambda_hat: float
    delta_horz: float
    delta_anal: float
    K: int
    lambda_exp: float
    c_lambda: float
    k_mult: int
    coupling: str
    M_formula: int

    def block_spec(self) -> kwise.KWiseSpec:
        return kwise.KWiseSpec(k=self.k_indep, n=self.n, M=self.M)

    def seed_bits_per_sample(self) -> int:
        return self.L * kwise.gaussian_seed_length(self.block_spec())

    def describe(self) -> dict:
        d = {k: getattr(self, k) for k in (
            "n", "d", "eps", "lambda_bar", "L", "k_indep", "M", "R_bar", "T",
            "D", "lambda_hat", "delta_horz", "delta_anal", "K", "lambda_exp",
            "c_lambda", "k_mult", "coupling", "M_formula")}
        d["seed_bits_per_sample"] = self.seed_bits_per_sample()
        return d


def lambda_hat_from(lambda_bar, eps, d, T):
    """Diagonal-check threshold: (T d)^{2T} * lh^{T/2} = lambda_bar * eps."""
    return (lambda_bar * eps / float(T * d) ** (2 * T)) ** (2.0 / T)


def analysis_zoom_scale(eps, d, T, R_bar, c_couple):
    """Largest lambda_bar with lambda_bar <= c * lambda_hat * beta / (R d^{9/2}),
    beta = eps/(8d): the self-consistent solution of the coupled system."""
    beta = eps / (8.0 * d)
    return (c_couple * beta / (R_bar * d**4.5 * float(T * d) ** T)) ** 2 * eps


def choose_params(n, d, eps, *, lambda_exp=4.0, c_lambda=1.0, k_mult=16,
                  M=None, R_bar=91.0, K=100, T=4, coupling="prg",
                  c_couple=1e-3) -> PrgParams:
    """Resolve the full parameter tuple from (n, d, eps) plus overrides."""
    if n < 1 or d < 1:
        raise ValueError("n and d must be >= 1")
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps {eps} outside (0, 1)")
    lam = c_lambda * (eps / d) ** lambda_exp
    if coupling == "analysis":
        lam = min(lam, analysis_zoom_scale(eps, d, T, R_bar, c_couple))
    elif coupling != "prg":
        raise ValueError(f"unknown coupling {coupling!r}")
    if lam <= 0.0 or not math.isfinite(1.0 / lam):
        raise ValueError("lambda_bar underflowed; parameters too extreme")
    L = max(1, math.ceil(1.0 / lam))
    if coupling == "prg" and L > 2**63:
        raise ValueError(f"L = {L} blocks overflows a 64-bit count")
    lam = 1.0 / L  # renormalize so the block sum has unit variance exactly

    try:
        M_formula = 2 * math.ceil(3 * d * math.log2(d * L * n / eps))
    except OverflowError:  # analysis-scale L with a tiny eps
        raise ValueError("d L n / eps overflows; parameters too extreme") from None
    # The default M is M_formula capped at M_CAP = 32.  Words are m = max(M,
    # ceil(log2 2n)) bits, so the seed bits per sample, L * 2 k_indep * m,
    # are flat in n until 2n > 2^M and affine in ceil(log2 2n) after.
    if M is None:
        M = min(max(M_formula, 2), M_CAP)
    if M < 2 or M % 2:
        raise ValueError("M must be even and >= 2")

    k_indep = k_mult * d
    if k_indep < 4 * d * T:
        raise ValueError(f"k_indep = {k_indep} below the moment requirement {4 * d * T}")

    D = (2 * d + 1) ** 2
    lh = lambda_hat_from(lam, eps, d, T)
    return PrgParams(
        n=n, d=d, eps=eps, lambda_bar=lam, L=L, k_indep=k_indep, M=M,
        R_bar=R_bar, T=T, D=D, lambda_hat=lh,
        delta_horz=1.0 / (K * d * D), delta_anal=1.0 / (100.0 * d * D),
        K=K, lambda_exp=lambda_exp, c_lambda=c_lambda, k_mult=k_mult,
        coupling=coupling, M_formula=M_formula,
    )


def _block_coeffs(params: PrgParams, master_seed, t, count):
    """Coefficient words for block t: (count, 2*k_indep) uints below 2^m."""
    wspec = kwise.gaussian_word_spec(params.block_spec())
    m = kwise.field_width(wspec)
    dtype = np.uint16 if m <= 16 else np.uint32 if m <= 32 else np.uint64
    gen = substream(master_seed, "block", t)
    return gen.integers(0, 1 << m, size=(count, wspec.k), dtype=dtype)


def generate_batch(params: PrgParams, master_seed, count,
                   gaussian_blocks=0) -> np.ndarray:
    """(count, n) samples of Z; block b of every sample shares stream b.

    The first `gaussian_blocks` blocks are true Gaussians (from a
    conventional high-quality generator), the rest k-wise: this is the
    replacement-method hybrid w_t with t = gaussian_blocks.  t = 0 is the
    generator itself and t = L a pure Gaussian sample.

    Below `kwise._BLOCK_ROWS` samples, consecutive k-wise blocks are stacked
    to at most `_BLOCK_ROWS` rows per expansion call, so a small batch does
    not pay the expansion's fixed per-call cost once per block.  Each block
    still draws from its own stream, the expansion and Box-Muller act row by
    row, and blocks are added in block order: the bytes are those of one
    call per block.
    """
    if (isinstance(count, bool) or not isinstance(count, numbers.Integral)
            or count < 1):
        raise ValueError(f"sample count {count!r} is not an int >= 1")
    if params.L > 10**7:
        raise ValueError(f"L = {params.L} blocks is not generatable; "
                         "statistics-only parameter sets cannot be sampled")
    if not 0 <= gaussian_blocks <= params.L:
        raise ValueError(f"hybrid index {gaussian_blocks} outside "
                         f"[0, {params.L}]")
    spec = params.block_spec()
    acc = np.zeros((count, params.n))
    for b in range(gaussian_blocks):
        gen = substream(master_seed, "hybrid-gauss", b)
        acc += gen.standard_normal((count, params.n))
    stack = max(1, kwise._BLOCK_ROWS // count)  # blocks per expansion call
    for b0 in range(gaussian_blocks, params.L, stack):
        coeffs = [_block_coeffs(params, master_seed, b, count)
                  for b in range(b0, min(b0 + stack, params.L))]
        Z = kwise.kwise_gaussian_batch(
            coeffs[0] if len(coeffs) == 1 else np.concatenate(coeffs), spec)
        for z in Z.reshape(len(coeffs), count, params.n):
            acc += z
    return math.sqrt(params.lambda_bar) * acc
