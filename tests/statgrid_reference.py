"""Reference read of a grid row for the tests: StatGrid._read_row as it was
written first, with the rho powers rebuilt per read, the level products
stacked and one division and one strided write per column.  The grid's own
read must give the same bits."""

import numpy as np

from ptfprg.hermite import BLOCK_ELEMS, _basis, _design


def reference_read_row(grid, i, X, cols, errors):
    """(mean, err) of row i at the centers X for the columns cols; err is
    None unless `errors`."""
    deg, Q = grid._row_coeffs(i)
    basis = _basis(grid.p.n, deg)
    bounds = np.searchsorted(basis.sum(axis=1), np.arange(deg + 2))
    powers = [grid.column_rho(j) ** np.arange(deg + 1) for j in cols]
    K = Q.shape[0]
    mean = np.zeros((X.shape[0], len(cols)))
    err = np.zeros_like(mean) if errors else None
    mc_err = errors and K > 1
    step = max(1, BLOCK_ELEMS // ((deg + 1) * K))
    for b0 in range(0, X.shape[0], step):
        H = _design(X[b0:b0 + step], basis)
        # M[l, b, t]: level-l value of sample t's square at center b
        M = np.stack([H[:, lo:hi] @ Q[:, lo:hi].T
                      for lo, hi in zip(bounds[:-1], bounds[1:])])
        S1 = M.sum(axis=2)
        S2 = np.einsum("lbt,mbt->lmb", M, M) if mc_err else None
        for c, pw in enumerate(powers):
            m = pw @ S1 / K
            mean[b0:b0 + step, c] = m
            if mc_err:
                var = np.maximum(pw @ (pw @ S2) / K - m**2, 0.0)
                err[b0:b0 + step, c] = np.sqrt(var / K)
    return mean, err
