"""Sparse multivariate polynomials in the orthonormal Hermite basis.

A polynomial ``g`` on R^n is stored as a sparse map from multi-indices
``alpha`` (tuples of n naturals) to the coefficient on ``h_alpha``, where
``h_alpha(x) = prod_i h_{alpha_i}(x_i)`` and ``h_k = H_k / sqrt(k!)`` is the
normalized probabilists' Hermite polynomial.  The basis is orthonormal under
the standard Gaussian measure, so means, variances, 2-norms and level weights
are read off the coefficients directly.

Multi-indices are plain tuples; helpers for the few operations we need on
them live at module level.  Batch kernels (the statistics grid's Monte Carlo
rows) use dense coefficient rows over a cached graded basis instead: one row
per polynomial, products through a cached linearization table.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

MultiIndex = tuple  # exponent vector, one natural per coordinate

__all__ = [
    "MultiIndex",
    "HermitePoly",
    "total_degree",
    "dominates",
    "hermite_values",
    "random_poly",
]


def total_degree(alpha) -> int:
    return sum(alpha)


def dominates(gamma, beta) -> bool:
    """Componentwise gamma >= beta."""
    return all(g >= b for g, b in zip(gamma, beta))


def hermite_values(t, kmax):
    """Values h_0(t), ..., h_kmax(t) of the normalized Hermite polynomials.

    Uses the three-term recurrence H_{k+1} = t H_k - k H_{k-1} in its
    normalized form h_{k+1} = (t h_k - sqrt(k) h_{k-1}) / sqrt(k+1).
    Accepts scalars or numpy arrays; returns an array with a trailing
    axis of length kmax + 1.
    """
    t = np.asarray(t, dtype=float)
    out = np.empty(t.shape + (kmax + 1,))
    out[..., 0] = 1.0
    if kmax >= 1:
        out[..., 1] = t
    for k in range(1, kmax):
        out[..., k + 1] = (t * out[..., k] - math.sqrt(k) * out[..., k - 1]) / math.sqrt(k + 1)
    return out


@dataclass
class HermitePoly:
    """Polynomial in the orthonormal Hermite basis, canonical sparse form.

    Exactly-zero coefficients are dropped on construction; any other pruning
    must go through :meth:`prune` explicitly so that Parseval-style identities
    are never silently broken.
    """

    n: int
    coeffs: dict = field(default_factory=dict)

    def __post_init__(self):
        clean = {}
        for alpha, c in self.coeffs.items():
            alpha = tuple(int(a) for a in alpha)
            if len(alpha) != self.n:
                raise ValueError(f"multi-index {alpha} has length {len(alpha)}, expected {self.n}")
            if any(a < 0 for a in alpha):
                raise ValueError(f"negative exponent in {alpha}")
            c = float(c)
            if c != 0.0:
                clean[alpha] = clean.get(alpha, 0.0) + c
        self.coeffs = {a: c for a, c in clean.items() if c != 0.0}

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls, n):
        return cls(n, {})

    @classmethod
    def constant(cls, n, value):
        return cls(n, {(0,) * n: value})

    @classmethod
    def basis(cls, n, alpha, coeff=1.0):
        return cls(n, {tuple(alpha): coeff})

    @classmethod
    def from_monomial_basis(cls, n, terms):
        """Exact basis change from monomial terms [(exponent vector, coeff)].

        Uses the expansion of x^k in probabilists' Hermite polynomials,
        x^k = sum_{j = k mod 2} k! / (sqrt(j!) 2^((k-j)/2) ((k-j)/2)!) h_j,
        applied per coordinate.
        """
        out = {}
        for expo, c in terms:
            expo = tuple(int(e) for e in expo)
            if len(expo) != n:
                raise ValueError(f"exponent vector {expo} has length {len(expo)}, expected {n}")
            per_var = [_monomial_to_hermite_1d(e) for e in expo]
            for combo in itertools.product(*per_var):
                alpha = tuple(j for j, _ in combo)
                w = float(c)
                for _, cf in combo:
                    w *= cf
                out[alpha] = out.get(alpha, 0.0) + w
        return cls(n, out)

    # -- structure ------------------------------------------------------

    def degree(self):
        """Max total degree of a stored term; 0 for the zero polynomial."""
        return max((total_degree(a) for a in self.coeffs), default=0)

    def mean(self):
        return self.coeffs.get((0,) * self.n, 0.0)

    def sq2norm(self):
        return sum(c * c for c in self.coeffs.values())

    def var(self):
        return self.sq2norm() - self.mean() ** 2

    def weight_at_level(self, k):
        return sum(c * c for a, c in self.coeffs.items() if total_degree(a) == k)

    def part(self, op, k):
        """Projection onto Hermite levels: op is one of '=k', '<k', '>=k'."""
        if op == "=k":
            keep = lambda m: m == k
        elif op == "<k":
            keep = lambda m: m < k
        elif op == ">=k":
            keep = lambda m: m >= k
        else:
            raise ValueError(f"unknown part selector {op!r}")
        return HermitePoly(self.n, {a: c for a, c in self.coeffs.items() if keep(total_degree(a))})

    def prune(self, tol):
        """Drop coefficients with |c| <= tol.  Never called implicitly."""
        return HermitePoly(self.n, {a: c for a, c in self.coeffs.items() if abs(c) > tol})

    # -- algebra ----------------------------------------------------------

    def __add__(self, other):
        self._check_same_space(other)
        out = dict(self.coeffs)
        for a, c in other.coeffs.items():
            out[a] = out.get(a, 0.0) + c
        return HermitePoly(self.n, out)

    def __sub__(self, other):
        return self + other.scale(-1.0)

    def scale(self, c):
        return HermitePoly(self.n, {a: v * c for a, v in self.coeffs.items()})

    def __mul__(self, other):
        """Product, computed exactly via the Hermite linearization formula.

        h_a h_b = sum_k k! C(a,k) C(b,k) sqrt((a+b-2k)!) / sqrt(a! b!) h_{a+b-2k}
        per coordinate; the multivariate product is the tensor product.
        """
        if isinstance(other, (int, float)):
            return self.scale(float(other))
        self._check_same_space(other)
        out = {}
        for alpha, ca in self.coeffs.items():
            for beta, cb in other.coeffs.items():
                per_var = [_uni_product(a, b) for a, b in zip(alpha, beta)]
                base = ca * cb
                for combo in itertools.product(*per_var):
                    gamma = tuple(k for k, _ in combo)
                    w = base
                    for _, cf in combo:
                        w *= cf
                    out[gamma] = out.get(gamma, 0.0) + w
        return HermitePoly(self.n, out)

    __rmul__ = __mul__

    def _check_same_space(self, other):
        if self.n != other.n:
            raise ValueError(f"dimension mismatch: {self.n} vs {other.n}")

    # -- evaluation -------------------------------------------------------

    def eval(self, x):
        x = np.asarray(x, dtype=float)
        if x.shape != (self.n,):
            raise ValueError(f"point has shape {x.shape}, expected ({self.n},)")
        return float(self.eval_batch(x[None, :])[0])

    def eval_batch(self, X):
        """Evaluate at a batch of points, shape (B, n) -> (B,)."""
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != self.n:
            raise ValueError(f"batch has shape {X.shape}, expected (B, {self.n})")
        if not self.coeffs:
            return np.zeros(X.shape[0])
        kmax = max(max(a) for a in self.coeffs)
        tab = hermite_values(X, kmax)  # (B, n, kmax+1)
        out = np.zeros(X.shape[0])
        for alpha, c in self.coeffs.items():
            term = np.full(X.shape[0], c)
            for i, a in enumerate(alpha):
                if a:
                    term = term * tab[:, i, a]
            out += term
        return out

    # -- monomial basis / serialization ------------------------------------

    def to_monomial_terms(self):
        """Expand into monomial terms {exponent vector: coeff} (floats)."""
        out = {}
        for alpha, c in self.coeffs.items():
            per_var = [_hermite_to_monomial_1d(a) for a in alpha]
            for combo in itertools.product(*per_var):
                expo = tuple(j for j, _ in combo)
                w = c
                for _, cf in combo:
                    w *= cf
                out[expo] = out.get(expo, 0.0) + w
        return {e: c for e, c in out.items() if c != 0.0}

    def to_json_dict(self):
        terms = [
            {"alpha": list(a), "coeff": c}
            for a, c in sorted(self.coeffs.items())
        ]
        return {"n": self.n, "basis": "hermite", "terms": terms}

    @classmethod
    def from_json_dict(cls, d):
        """Parse the polynomial JSON format (either basis, finite coeffs)."""
        n = int(d["n"])
        basis = d.get("basis", "hermite")
        terms = [(tuple(t["alpha"]), float(t["coeff"])) for t in d["terms"]]
        for alpha, c in terms:
            if not math.isfinite(c):
                raise ValueError(f"term alpha={list(alpha)} has coefficient "
                                 f"{c}; coefficients must be finite")
        if basis == "hermite":
            return cls(n, dict(terms))
        if basis == "monomial":
            return cls.from_monomial_basis(n, terms)
        raise ValueError(f"unknown basis {basis!r}")

    def to_json(self):
        return json.dumps(self.to_json_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, s):
        return cls.from_json_dict(json.loads(s))


def _uni_product(m, n, _cache={}):
    """Linearization of h_m * h_n as [(degree, coefficient)]."""
    key = (m, n) if m <= n else (n, m)
    got = _cache.get(key)
    if got is None:
        m_, n_ = key
        got = []
        for k in range(m_ + 1):
            d = m_ + n_ - 2 * k
            c = (
                math.factorial(k)
                * math.comb(m_, k)
                * math.comb(n_, k)
                * math.sqrt(math.factorial(d) / (math.factorial(m_) * math.factorial(n_)))
            )
            got.append((d, c))
        _cache[key] = got
    return got


def _monomial_to_hermite_1d(k, _cache={}):
    """x^k as [(hermite degree j, coefficient)] with normalized h_j."""
    got = _cache.get(k)
    if got is None:
        got = []
        for j in range(k % 2, k + 1, 2):
            half = (k - j) // 2
            c = math.factorial(k) / (
                math.sqrt(math.factorial(j)) * 2.0**half * math.factorial(half)
            )
            got.append((j, c))
        _cache[k] = got
    return got


def _hermite_to_monomial_1d(k, _cache={}):
    """h_k as [(monomial degree j, coefficient)]."""
    got = _cache.get(k)
    if got is None:
        # H_{k} coefficients by the recurrence H_{k+1} = x H_k - k H_{k-1}
        rows = [[1.0], [0.0, 1.0]]
        while len(rows) <= k:
            j = len(rows) - 1
            prev, prev2 = rows[-1], rows[-2]
            nxt = [0.0] * (j + 2)
            for i, c in enumerate(prev):
                nxt[i + 1] += c
            for i, c in enumerate(prev2):
                nxt[i] -= j * c
            rows.append(nxt)
        norm = math.sqrt(math.factorial(k))
        got = [(j, c / norm) for j, c in enumerate(rows[k]) if c != 0.0]
        _cache[k] = got
    return got


def random_poly(n, d, rng, sparsity=None, scale=1.0):
    """Random dense polynomial of degree <= d with N(0, scale^2) coefficients.

    If `sparsity` is given, only that many uniformly chosen multi-indices get
    nonzero coefficients.
    """
    alphas = [
        a
        for a in itertools.product(range(d + 1), repeat=n)
        if total_degree(a) <= d
    ]
    if sparsity is not None and sparsity < len(alphas):
        idx = rng.choice(len(alphas), size=sparsity, replace=False)
        alphas = [alphas[i] for i in idx]
    return HermitePoly(n, {a: scale * rng.standard_normal() for a in alphas})


# -- dense coefficient rows ---------------------------------------------------

class _Basis(NamedTuple):
    alphas: tuple        # multi-indices of total degree <= d, graded order
    exps: np.ndarray     # the same, as a read-only (N, n) int array
    levels: np.ndarray   # total degree of each multi-index
    pos: dict            # multi-index -> position


def _compositions(n, k):
    """All n-tuples of naturals summing to k, in lexicographic order."""
    if n == 1:
        yield (k,)
        return
    for a in range(k + 1):
        for rest in _compositions(n - 1, k - a):
            yield (a,) + rest


@functools.lru_cache(maxsize=64)
def _basis(n, d) -> _Basis:
    """The multi-indices of degree <= d in graded order (by total degree,
    then lexicographic).  The indices of degree <= k are the first entries,
    so a lower-degree coefficient row is a prefix of a higher-degree one."""
    alphas = tuple(a for k in range(d + 1) for a in _compositions(n, k))
    exps = np.array(alphas, dtype=np.intp).reshape(len(alphas), n)
    levels = exps.sum(axis=1)
    exps.flags.writeable = levels.flags.writeable = False
    return _Basis(alphas, exps, levels, {a: i for i, a in enumerate(alphas)})


def _to_dense(poly: HermitePoly, d) -> np.ndarray:
    """Coefficient row of poly over the graded basis of degree <= d."""
    pos = _basis(poly.n, d).pos
    out = np.zeros(len(pos))
    for alpha, c in poly.coeffs.items():
        out[pos[alpha]] = c
    return out


def _from_dense(n, d, row) -> HermitePoly:
    """The polynomial with coefficient row `row` over the graded basis of
    degree <= d."""
    alphas = _basis(n, d).alphas
    return HermitePoly(n, {a: c for a, c in zip(alphas, row.tolist())
                           if c != 0.0})


def _design(X, d) -> np.ndarray:
    """(B, N) values h_alpha(x) of the graded basis of degree <= d."""
    exps = _basis(X.shape[1], d).exps
    tab = hermite_values(X, d)
    H = tab[:, 0, exps[:, 0]]
    for i in range(1, X.shape[1]):
        H = H * tab[:, i, exps[:, i]]
    return H


class _Contraction(NamedTuple):
    """Sum over entries of weight * row[left] * row[right], scattered to
    out[target]; entries sorted by target, one segment per target."""
    left: np.ndarray
    right: np.ndarray
    weight: np.ndarray
    starts: np.ndarray   # first entry of each segment
    targets: np.ndarray  # output position of each segment
    size: int            # output row length


def _contraction(left, right, weight, target, size) -> _Contraction:
    order = np.argsort(np.asarray(target, dtype=np.intp), kind="stable")
    target = np.asarray(target, dtype=np.intp)[order]
    starts = np.flatnonzero(np.r_[True, target[1:] != target[:-1]]) \
        if len(target) else np.zeros(0, dtype=np.intp)
    arrays = [np.asarray(left, dtype=np.intp)[order],
              np.asarray(right, dtype=np.intp)[order],
              np.asarray(weight, dtype=float)[order], starts, target[starts]]
    for a in arrays:
        a.flags.writeable = False
    return _Contraction(*arrays, size)


def _segment_sum(terms, table: _Contraction) -> np.ndarray:
    """(T, size) rows: each segment of the (T, entries) terms summed into its
    target position."""
    out = np.zeros((terms.shape[0], table.size))
    if len(table.starts):
        out[:, table.targets] = np.add.reduceat(terms, table.starts, axis=1)
    return out


@functools.lru_cache(maxsize=16)
def _square_table(n, e) -> _Contraction:
    """Linearization h_a h_b = sum_c w h_c for a <= b of degree <= e (the
    pair a < b counted twice), targets in the basis of degree <= 2e."""
    alphas = _basis(n, e).alphas
    pos = _basis(n, 2 * e).pos
    left, right, weight, target = [], [], [], []
    for ia, a in enumerate(alphas):
        for ib in range(ia, len(alphas)):
            twice = 2.0 if ib != ia else 1.0
            per_var = [_uni_product(x, y) for x, y in zip(a, alphas[ib])]
            for combo in itertools.product(*per_var):
                w = twice
                for _, cf in combo:
                    w *= cf
                left.append(ia)
                right.append(ib)
                weight.append(w)
                target.append(pos[tuple(k for k, _ in combo)])
    return _contraction(left, right, weight, target, len(pos))


def _square_rows(F, n, e) -> np.ndarray:
    """Row t: the coefficients of f_t * f_t (degree <= 2e) for coefficient
    rows F (T, N_e) of degree <= e."""
    table = _square_table(n, e)
    terms = F[:, table.left] * F[:, table.right]
    terms *= table.weight
    return _segment_sum(terms, table)
