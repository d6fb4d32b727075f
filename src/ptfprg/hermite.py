"""Multivariate polynomials in the orthonormal Hermite basis.

A polynomial ``g`` on R^n is a sum of coefficients on ``h_alpha(x) =
prod_i h_{alpha_i}(x_i)``, where ``h_k = H_k / sqrt(k!)`` is the normalized
probabilists' Hermite polynomial.  The basis is orthonormal under the
standard Gaussian measure, so means, variances, 2-norms and level weights
are read off the coefficients directly.

A :class:`HermitePoly` is its support, a read-only (T, n) int array of
multi-indices in graded order (by total degree, then lexicographic), and
the read-only (T,) vector of their coefficients, none exactly zero.  Input
is validated where it enters (the ``{alpha: c}`` constructor,
``from_monomial_basis``, ``from_json_dict``); operators, and the batch
kernels of the statistics grid, work on coefficient rows over a graded
support, summing over terms left to right in graded order.
"""

from __future__ import annotations

import functools
import math
import sys
from types import MappingProxyType
from typing import NamedTuple

import numpy as np

__all__ = [
    "HermitePoly",
    "total_degree",
    "hermite_values",
    "random_poly",
]

# Elements per temporary: batch kernels take points or samples in blocks
# (each one's arithmetic is the same whatever the block) so that points x
# terms stays bounded.
BLOCK_ELEMS = 1 << 18


def total_degree(alpha) -> int:
    return sum(alpha)


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


class HermitePoly:
    """Polynomial in the orthonormal Hermite basis, in canonical form.

    ``support[t]`` is a multi-index and ``vector[t]`` its coefficient; the
    support is in graded order and no coefficient is exactly zero; no other
    coefficient is ever dropped, so Parseval-style identities are never
    silently broken.
    """

    __slots__ = ("n", "support", "vector", "_view")

    def __init__(self, n, coeffs=None):
        """From a map {alpha: c}: every alpha must be n naturals; the
        coefficients are summed per alpha and exact zeros dropped."""
        coeffs = coeffs or {}
        rows = _checked_rows(int(n), coeffs, "multi-index")
        self._set(*_canonical(rows, np.array([float(c) for c in coeffs.values()])))

    def _set(self, support, vector):
        keep = vector != 0.0
        self.n = support.shape[1]
        self.support = _frozen(support[keep].astype(np.intp, copy=False))
        self.vector = _frozen(vector[keep].astype(float, copy=False))
        self._view = None

    @classmethod
    def _of(cls, support, vector):
        """sum_t vector[t] h_{support[t]} for distinct support rows in graded
        order: exact zeros are dropped, nothing is checked."""
        self = cls.__new__(cls)
        self._set(support, vector)
        return self

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls, n):
        return cls(n)

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
        terms = list(terms)
        rows = _checked_rows(int(n), [e for e, _ in terms], "exponent vector")
        values = np.array([float(c) for _, c in terms], dtype=float)
        return cls._of(*_canonical(*_change_basis(rows, values)))

    # -- structure ------------------------------------------------------

    @property
    def coeffs(self):
        """Read-only view {alpha: c} of the terms, in graded order."""
        if self._view is None:
            self._view = MappingProxyType(dict(zip(
                map(tuple, self.support.tolist()), self.vector.tolist())))
        return self._view

    @property
    def levels(self):
        """Total degree of each support row."""
        return self.support.sum(axis=1)

    def degree(self):
        """Max total degree of a stored term; 0 for the zero polynomial."""
        return int(self.support[-1].sum()) if len(self.vector) else 0

    def mean(self):
        constant = len(self.vector) and not self.support[0].any()
        return float(self.vector[0]) if constant else 0.0

    def sq2norm(self):
        return sum((self.vector * self.vector).tolist())

    def var(self):
        return self.sq2norm() - self.mean() ** 2

    def weight_at_level(self, k):
        c = self.vector[self.levels == k]
        return sum((c * c).tolist())

    def __eq__(self, other):  # also makes instances unhashable
        return (isinstance(other, HermitePoly) and self.n == other.n
                and np.array_equal(self.support, other.support)
                and np.array_equal(self.vector, other.vector))

    def __repr__(self):
        return f"HermitePoly(n={self.n}, coeffs={dict(self.coeffs)!r})"

    # -- algebra ----------------------------------------------------------

    def __add__(self, other):
        self._check_same_space(other)
        return HermitePoly._of(*_canonical(
            np.concatenate([self.support, other.support]),
            np.concatenate([self.vector, other.vector])))

    def __sub__(self, other):
        return self + other.scale(-1.0)

    def scale(self, c):
        return HermitePoly._of(self.support, self.vector * c)

    def __mul__(self, other):
        """Product, computed exactly via the Hermite linearization formula.

        h_a h_b = sum_k k! C(a,k) C(b,k) sqrt((a+b-2k)!) / sqrt(a! b!) h_{a+b-2k}
        per coordinate; the multivariate product is the tensor product.
        """
        if isinstance(other, (int, float)):
            return self.scale(float(other))
        self._check_same_space(other)
        A, B = self.support, other.support
        # blocks of self's terms bound _linearize's (pairs, n) temporaries;
        # one bincount over the entries' positions sums them in entry order
        step = max(1, BLOCK_ELEMS // (4 * self.n * max(len(B), 1)))
        support, idx, weights = np.zeros((0, self.n), int), [], [[]]
        for a0 in range(0, len(A), step):
            ia = np.repeat(np.arange(a0, min(a0 + step, len(A))), len(B))
            ib = np.tile(np.arange(len(B)), min(step, len(A) - a0))
            _, gamma, w = _linearize(A[ia], B[ib],
                                     self.vector[ia] * other.vector[ib])
            support, at = _graded_unique(np.concatenate([support, gamma]))
            idx = np.r_[at[idx], at[len(at) - len(gamma):]]
            weights.append(w)
        return HermitePoly._of(support, np.bincount(
            idx, np.concatenate(weights), len(support)))

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
        """Evaluate at a batch of points, shape (B, n) -> (B,): the design
        matrix of the support times the coefficient vector."""
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != self.n:
            raise ValueError(f"batch has shape {X.shape}, expected (B, {self.n})")
        out = np.empty(X.shape[0])
        step = max(1, BLOCK_ELEMS // max(len(self.vector), 1))
        for b in range(0, X.shape[0], step):
            out[b:b + step] = _design(X[b:b + step], self.support) @ self.vector
        return out

    # -- serialization ------------------------------------------------------

    def to_json_dict(self):
        terms = [
            {"alpha": list(a), "coeff": c}
            for a, c in sorted(self.coeffs.items())
        ]
        return {"n": self.n, "basis": "hermite", "terms": terms}

    @classmethod
    def from_json_dict(cls, d):
        """Parse the polynomial JSON format (either basis, finite coeffs);
        terms that repeat an alpha are summed in either basis."""
        n = d["n"]
        if isinstance(n, bool) or not isinstance(n, int):
            raise ValueError(f"n = {n!r} is not an integer")
        basis = d.get("basis", "hermite")
        terms = [(tuple(t["alpha"]), t["coeff"]) for t in d["terms"]]
        for alpha, c in terms:
            if isinstance(c, bool) or not isinstance(c, (int, float)):
                raise ValueError(f"term alpha={list(alpha)} has coefficient "
                                 f"{c!r}, which is not a number")
            if not abs(c) <= sys.float_info.max:  # nan, inf or a huge int
                raise ValueError(f"term alpha={list(alpha)} has coefficient "
                                 f"{c}; coefficients must be finite")
        terms = [(alpha, float(c)) for alpha, c in terms]
        if basis == "hermite":
            rows = _checked_rows(n, [a for a, _ in terms], "multi-index")
            return cls._of(*_canonical(rows, np.array([c for _, c in terms])))
        if basis == "monomial":
            return cls.from_monomial_basis(n, terms)
        raise ValueError(f"unknown basis {basis!r}")


@functools.lru_cache(maxsize=None)
def _uni_table(m) -> np.ndarray:
    """T[a, b, k] for a, b <= m and k <= min(a, b): the coefficient of
    h_{a+b-2k} in the linearization of h_a h_b."""
    T = np.zeros((m + 1,) * 3)
    for a in range(m + 1):
        for b in range(m + 1):
            x, y = min(a, b), max(a, b)
            for k in range(x + 1):
                T[a, b, k] = (math.factorial(k) * math.comb(x, k) * math.comb(y, k)
                              * math.sqrt(math.factorial(x + y - 2 * k)
                                          / (math.factorial(x) * math.factorial(y))))
    return _frozen(T)


@functools.lru_cache(maxsize=None)
def _monomial_tables(m) -> tuple:
    """(P, Q) for degrees k <= m: x^k = sum_j P[k, j] h_j and
    h_k = sum_j Q[k, j] x^j, both over j = k mod 2, k mod 2 + 2, ..., k."""
    P, Q = np.zeros((m + 1, m + 1)), np.zeros((m + 1, m + 1))
    H = [[1.0], [0.0, 1.0]]  # H_k's monomial coefficients, H_{k+1} = x H_k - k H_{k-1}
    while len(H) <= m:
        k = len(H) - 1
        H.append([(H[k][i - 1] if i else 0.0) - (k * H[k - 1][i] if i < k else 0.0)
                  for i in range(k + 2)])
    for k in range(m + 1):
        for j in range(k % 2, k + 1, 2):
            half = (k - j) // 2
            P[k, j] = math.factorial(k) / (
                math.sqrt(math.factorial(j)) * 2.0**half * math.factorial(half))
        Q[k, :k + 1] = np.array(H[k]) / math.sqrt(math.factorial(k))
    return _frozen(P), _frozen(Q)


def _change_basis(rows, w):
    """sum_e w[e] x^{rows[e]} rewritten in the Hermite basis coordinate by
    coordinate through the table P of :func:`_monomial_tables`: (rows,
    weights) entries in itertools.product order, each weight w[e] times one
    table entry per coordinate."""
    p, K = _tensor_expand(rows // 2 + 1)
    rows, w = rows[p], w[p]
    J = rows % 2 + 2 * K
    table = _monomial_tables(int(rows.max()) if rows.size else 0)[0]
    for i in range(rows.shape[1]):
        w *= table[rows[:, i], J[:, i]]
    return J, w


def random_poly(n, d, rng):
    """Random dense polynomial of degree <= d with N(0, 1) coefficients,
    drawn in the lexicographic order of the degree <= d multi-indices."""
    if n < 1:
        raise ValueError(f"n = {n} is below 1")
    alphas = _basis(n, d)
    alphas = alphas[np.lexsort(alphas.T[::-1])]  # lexicographic order
    values = rng.standard_normal(len(alphas))
    return HermitePoly._of(*_canonical(alphas, values))


# -- graded supports ------------------------------------------------------------

def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _checked_rows(n, keys, what) -> np.ndarray:
    """The keys as an (E, n) int array, or ValueError unless each key is n
    naturals, each a Python or numpy integer and not a bool."""
    rows = []
    for key in map(tuple, keys):
        if not all(isinstance(a, (int, np.integer)) and not isinstance(a, bool)
                   for a in key):
            raise ValueError(f"{what} {list(key)} has an entry that is not "
                             "an integer")
        key = tuple(map(int, key))
        if len(key) != n:
            raise ValueError(f"{what} {key} has length {len(key)}, expected {n}")
        if any(a < 0 for a in key):
            raise ValueError(f"negative exponent in {key}")
        rows.append(key)
    return np.array(rows, dtype=np.intp).reshape(len(rows), n)


def _tensor_expand(C):
    """Every (p, k) with 0 <= k < C[p] componentwise for an (P, n) int array
    C, ordered by p and then lexicographically in k (the order of
    itertools.product): the (E,) parents p and the (E, n) offsets k."""
    total = C.prod(axis=1)
    p = np.repeat(np.arange(len(C)), total)
    r = np.arange(len(p)) - np.repeat(np.cumsum(total) - total, total)
    inner = total[:, None] // np.cumprod(C, axis=1)  # prod_{j > i} C[p, j]
    return p, r[:, None] // inner[p] % C[p]


def _graded_unique(rows):
    """The distinct rows of an (E, n) int array in graded order, and the
    position of each input row among them."""
    order = np.lexsort(np.vstack([rows.T[::-1], rows.sum(axis=1)]))
    s = rows[order]
    new = np.ones(len(s), dtype=bool)
    new[1:] = (s[1:] != s[:-1]).any(axis=1)
    inv = np.empty(len(s), dtype=np.intp)
    inv[order] = np.cumsum(new) - 1
    return s[new], inv


def _canonical(rows, values):
    """(support, vector) of sum_e values[e] h_{rows[e]}: the distinct rows in
    graded order, each one's values summed left to right in input order."""
    support, inv = _graded_unique(rows)
    return support, np.bincount(inv, weights=values, minlength=len(support))


@functools.lru_cache(maxsize=64)
def _basis(n, d) -> np.ndarray:
    """The multi-indices of degree <= d in graded order (by total degree,
    then lexicographic), read-only.  The indices of degree <= k are the
    first entries, so a lower-degree coefficient row is a prefix of a
    higher-degree one."""
    level = np.zeros((1, n), dtype=np.intp)
    rows = [level]
    for _ in range(d):  # level k + 1: level k plus each unit vector
        level = _graded_unique((level[:, None] + np.eye(n, dtype=np.intp))
                               .reshape(-1, n))[0]
        rows.append(level)
    return _frozen(np.concatenate(rows))


def _over_basis(support, G):
    """(basis, rows): the coefficient rows G (K, T) over a graded support,
    rewritten over the basis of degree <= the support's degree."""
    basis = _basis(support.shape[1],
                   int(support[-1].sum()) if len(support) else 0)
    rows = np.zeros((len(G), len(basis)))
    rows[:, _graded_unique(np.concatenate([basis, support]))[1][len(basis):]] = G
    return basis, rows


def _design(X, exps) -> np.ndarray:
    """(B, T) values h_alpha(x) of the rows alpha of a support at the points
    x of X."""
    tab = hermite_values(X, int(exps.max()) if exps.size else 0)
    H = tab[:, 0, exps[:, 0]]
    for i in range(1, X.shape[1]):
        H *= tab[:, i, exps[:, i]]
    return H


def _linearize(A, B, w):
    """h_{A[p]} h_{B[p]} times w[p] for row pairs p, as entries: the parent
    p of each entry, its multi-index and its weight, w[p] times one
    linearization coefficient per coordinate, multiplied in coordinate
    order.  Entries are ordered by p, then by the per-coordinate k
    lexicographically."""
    p, K = _tensor_expand(np.minimum(A, B) + 1)
    A, B, w = A[p], B[p], w[p]
    table = _uni_table(int(max(A.max(), B.max())) if A.size else 0)
    for i in range(A.shape[1]):
        w *= table[A[:, i], B[:, i], K[:, i]]
    return p, A + B - 2 * K, w


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
    order = np.argsort(target, kind="stable")
    target = np.asarray(target, dtype=np.intp)[order]
    starts = np.flatnonzero(np.diff(target, prepend=-1))
    arrays = [np.asarray(left, dtype=np.intp)[order],
              np.asarray(right, dtype=np.intp)[order],
              np.asarray(weight, dtype=float)[order], starts, target[starts]]
    return _Contraction(*map(_frozen, arrays), size)


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
    A = _basis(n, e)
    ia, ib = np.triu_indices(len(A))
    p, gamma, w = _linearize(A[ia], A[ib], np.where(ia == ib, 1.0, 2.0))
    # every index of degree <= 2e is a product's top term: the distinct
    # gammas are the basis of degree <= 2e
    out, target = _graded_unique(gamma)
    return _contraction(ia[p], ib[p], w, target, len(out))


def _square_rows(F, n, e) -> np.ndarray:
    """Row t: the coefficients of f_t * f_t (degree <= 2e) for coefficient
    rows F (T, N_e) of degree <= e, in blocks of rows."""
    table = _square_table(n, e)
    out = np.empty((len(F), table.size))
    step = max(1, BLOCK_ELEMS // max(len(table.left), 1))
    for t0 in range(0, len(F), step):
        terms = F[t0:t0 + step, table.left] * F[t0:t0 + step, table.right]
        terms *= table.weight
        out[t0:t0 + step] = _segment_sum(terms, table)
    return out
