"""k-wise independent discretized samples and their near-Gaussian conversion.

The classical construction: a seed is read as k coefficients of a random
polynomial of degree k-1 over GF(2^m); output word i is the top M bits of the
polynomial evaluated at the i-th field element.  Any k output words are then
jointly uniform on [0, 2^M)^k.  Words are turned into near-Gaussians through
the Box-Muller transform, two words per output coordinate, so a vector whose
words are 2k-wise independent has k-wise independent near-Gaussian
coordinates.

The field GF(2^m) uses a fixed irreducible polynomial per m (table below,
m <= 64) so that the integer expansion layer is bit-exact across platforms.
Evaluation at a fixed point is GF(2)-linear in the coefficients, so the
expansion, for every m, XORs one table row per coefficient byte.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "KWiseSpec",
    "IRREDUCIBLE",
    "field_width",
    "seed_length",
    "gaussian_word_spec",
    "gaussian_seed_length",
    "expand_batch",
    "to_near_gaussian",
    "kwise_gaussian_batch",
    "gf_mul",
    "word_dtype",
]

# Lexicographically smallest low-weight irreducible polynomial of each degree,
# stored with the leading bit included (e.g. 0x13 = x^4 + x + 1).
IRREDUCIBLE = {
    1: 0x3, 2: 0x7, 3: 0xB, 4: 0x13, 5: 0x25, 6: 0x43, 7: 0x83, 8: 0x11B,
    9: 0x203, 10: 0x409, 11: 0x805, 12: 0x1009, 13: 0x201B, 14: 0x4021,
    15: 0x8003, 16: 0x1002B, 17: 0x20009, 18: 0x40009, 19: 0x80027,
    20: 0x100009, 21: 0x200005, 22: 0x400003, 23: 0x800021, 24: 0x100001B,
    25: 0x2000009, 26: 0x400001B, 27: 0x8000027, 28: 0x10000003,
    29: 0x20000005, 30: 0x40000003, 31: 0x80000009, 32: 0x10000008D,
    33: 0x200000401, 34: 0x400000081, 35: 0x800000005, 36: 0x1000000201,
    37: 0x2000000053, 38: 0x4000000063, 39: 0x8000000011, 40: 0x10000000039,
    41: 0x20000000009, 42: 0x40000000081, 43: 0x80000000059,
    44: 0x100000000021, 45: 0x20000000001B, 46: 0x400000000003,
    47: 0x800000000021, 48: 0x100000000002D, 49: 0x2000000000201,
    50: 0x400000000001D, 51: 0x800000000004B, 52: 0x10000000000009,
    53: 0x20000000000047, 54: 0x40000000000201, 55: 0x80000000000081,
    56: 0x100000000000095, 57: 0x200000000000011, 58: 0x400000000080001,
    59: 0x800000000000095, 60: 0x1000000000000003, 61: 0x2000000000000027,
    62: 0x4000000020000001, 63: 0x8000000000000003, 64: 0x1000000000000001B,
}

_TABLE_MAX_M = 16  # unused here; perfbench/tracer.py still reads it

# rows expand_batch gathers at once, and prg.generate_batch stacks blocks to
_BLOCK_ROWS = 4096


@dataclass
class KWiseSpec:
    """Independence parameter k, coordinate count n, bits per word M.

    M must be even (and >= 2) wherever words feed the Box-Muller pair
    conversion; the raw integer expansion accepts any M >= 1, which the
    exhaustive uniformity checks at M = 1 rely on.
    """

    k: int
    n: int
    M: int

    def __post_init__(self):
        if self.k < 1 or self.n < 1 or self.M < 1:
            raise ValueError(f"invalid spec k={self.k} n={self.n} M={self.M}")
        if field_width(self) > 64:
            raise ValueError(f"field width {field_width(self)} exceeds the m <= 64 table")


def field_width(spec: KWiseSpec) -> int:
    """m = max(M, ceil(log2 n)): wide enough for n points and M output bits."""
    return max(spec.M, (max(spec.n, 2) - 1).bit_length())


def seed_length(spec: KWiseSpec) -> int:
    """Seed bits behind one expanded block: k coefficient words of m bits."""
    return spec.k * field_width(spec)


def gaussian_word_spec(spec: KWiseSpec) -> KWiseSpec:
    """Word-level spec behind a k-wise Gaussian vector.

    Each Gaussian coordinate consumes two words, so k-wise independent
    coordinates need 2k-wise independent words over 2n positions.
    """
    return KWiseSpec(k=2 * spec.k, n=2 * spec.n, M=spec.M)


def gaussian_seed_length(spec: KWiseSpec) -> int:
    return seed_length(gaussian_word_spec(spec))


# -- GF(2^m) -----------------------------------------------------------------

def gf_mul(a: int, b: int, m: int) -> int:
    """Carry-less multiply mod the degree-m irreducible (scalar, exact)."""
    red = IRREDUCIBLE[m]
    r = 0
    while b:
        if b & 1:
            r ^= a
        b >>= 1
        a <<= 1
        if a >> m:
            a ^= red
    return r


# -- expansion ---------------------------------------------------------------

def word_dtype(m):
    """The narrowest unsigned dtype of an m-bit word, m <= 64."""
    return np.dtype(np.uint16 if m <= 16 else np.uint32 if m <= 32 else np.uint64)


@functools.lru_cache(maxsize=1)
def _byte_tables(m, k, n):
    """T[j, b, v, i] = (v << 8b) * x_i^j over GF(2^m), in the word dtype.

    Evaluation at a point is GF(2)-linear in the coefficient, so a word's
    contribution is the XOR of its bytes' rows (Plank, Greenan & Miller,
    FAST 2013).  Row v of byte b is filled by XOR doubling from the basis
    values 2^t * x_i^j, t = 8b..8b+7; rows past bit m - 1 stay zero.
    """
    dtype = word_dtype(m)
    basis = np.empty((k, n), dtype=np.uint64)  # x_i^j, then 2^t * x_i^j
    for i in range(n):
        p = 1
        for j in range(k):
            basis[j, i] = p
            p = gf_mul(p, i, m)
    mask, low = np.uint64((1 << m) - 1), np.uint64(IRREDUCIBLE[m] ^ (1 << m))
    T = np.zeros((k, (m + 7) // 8, 256, n), dtype=dtype)
    for t in range(m):
        b, lo = t // 8, 1 << (t % 8)
        T[:, b, lo:2 * lo] = T[:, b, :lo] ^ basis[:, None, :].astype(dtype)
        # times x: shift left, reducing when bit m - 1 falls out
        basis = ((basis << np.uint64(1)) & mask) ^ (basis >> np.uint64(m - 1)) * low
    T.flags.writeable = False  # shared by every call through the cache
    return T


def expand_batch(coeffs: np.ndarray, spec: KWiseSpec) -> np.ndarray:
    """n words in [0, 2^M) per row of a (S, k) array of coefficient words.

    Row s holds the coefficients c_0..c_{k-1} of sum_j c_j x^j over GF(2^m);
    word[s, i] is its value at the i-th field element truncated to the top M
    bits.  Evaluations of a random degree-(k-1) polynomial at distinct field
    elements are k-wise independent and uniform.  Each coefficient byte
    contributes one row gather from the spec's byte-split tables, for every
    field width m <= 64.
    """
    m = field_width(spec)
    if coeffs.shape[1] != spec.k:
        raise ValueError("coefficient array has wrong width")
    T = _byte_tables(m, spec.k, spec.n)
    dtype = T.dtype
    S = coeffs.shape[0]
    out = np.empty((S, spec.n), dtype=np.uint64)
    acc = np.empty((min(S, _BLOCK_ROWS), spec.n), dtype=dtype)
    buf = np.empty_like(acc)
    for r0 in range(0, S, _BLOCK_ROWS):
        c = np.ascontiguousarray(coeffs[r0:r0 + _BLOCK_ROWS],
                                 dtype=dtype.newbyteorder("<"))
        rows = c.shape[0]
        idx = c.view(np.uint8).reshape(rows, spec.k, -1).transpose(1, 2, 0)
        a, g = acc[:rows], buf[:rows]
        a[...] = 0
        for j in range(spec.k):
            for b in range(T.shape[1]):
                T[j, b].take(idx[j, b], axis=0, out=g, mode="clip")
                np.bitwise_xor(a, g, out=a)
        out[r0:r0 + rows] = a >> dtype.type(m - spec.M)
    return out


# -- Box-Muller --------------------------------------------------------------

_BM_TABLE_M = range(2, 17, 2)  # word widths whose Box-Muller factors are tabled


def to_near_gaussian(words, M):
    """Box-Muller, cosine branch, on consecutive word pairs.

    Words are rescaled to (0, 1] as (u+1)/2^M (avoiding log 0); the pair
    (u1, u2) maps to r cos(2 pi u2) with r = sqrt(-2 ln u1), so the output
    has half as many entries as the input.  Marginals converge to N(0,1) as
    M grows, with discretization error Theta(2^{-M/2}).

    Integer words at even M <= 16 read r and cos(2 pi u2) from per-word
    tables that hold the formula's own values, so the bytes are those of the
    formula.  A word outside [0, 2^M), integer or float, is a ValueError.
    """
    w = np.asarray(words)
    if w.ndim == 0 or w.shape[-1] % 2:
        raise ValueError("even number of words required")
    if w.dtype.kind in "ui":
        if w.size and ((w.dtype.kind == "i" and w.min() < 0)
                       or int(w.max()) >= 1 << M):
            raise _word_range_error(w, M)
        if M in _BM_TABLE_M and w.size:
            r, c = _bm_tables(M)
            return r.take(w[..., 0::2]) * c.take(w[..., 1::2])
        u = w.astype(np.float64)
    else:
        u = w.astype(np.float64)
        if not ((u >= 0.0) & (u < 2.0 ** M)).all():
            raise _word_range_error(u, M)
    r, c = _polar(u, M)
    return r * c


def _word_range_error(w, M):
    """The ValueError naming the first word of w outside [0, 2^M)."""
    flat = w.ravel()
    top = 1 << M if flat.dtype.kind in "ui" else 2.0 ** M
    k = int(np.flatnonzero(~((flat >= 0) & (flat < top)))[0])
    return ValueError(f"word {flat[k].item()!r} at flat index {k} is outside "
                      f"[0, 2^{M})")


def _polar(w, M):
    """r = sqrt(-2 ln u1) and cos(2 pi u2) of each pair of float words."""
    u = (w + 1.0) * 2.0 ** (-M)
    return np.sqrt(-2.0 * np.log(u[..., 0::2])), np.cos(2.0 * math.pi * u[..., 1::2])


@functools.lru_cache(maxsize=None)
def _bm_tables(M):
    """(r, c): r[v] and c[v] are `_polar`'s factors for the word v, for all
    2^M words, 2^(M+4) bytes in all.

    Both come from one `_polar` call on the (2^M, 2) array of pairs (v, v),
    through the same strided slices as a (S, 2n) batch, so they hold the
    bits numpy's float64 log and cos give the formula on this machine.
    """
    r, c = _polar(np.arange(1 << M, dtype=np.float64).repeat(2).reshape(-1, 2), M)
    r, c = r.ravel(), c.ravel()
    r.flags.writeable = c.flags.writeable = False  # shared through the cache
    return r, c


def kwise_gaussian_batch(coeffs: np.ndarray, spec: KWiseSpec) -> np.ndarray:
    """n near-Gaussians per row of (S, 2k) coefficient words, any spec.k of
    them jointly independent.

    Two words per coordinate (the expansion runs at 2k, 2n); each coordinate
    is the cosine branch of its own Box-Muller pair.
    """
    if spec.M < 2 or spec.M % 2:
        raise ValueError("Box-Muller conversion requires even M >= 2")
    return to_near_gaussian(expand_batch(coeffs, gaussian_word_spec(spec)),
                            spec.M)
