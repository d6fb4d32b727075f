"""The per-sample chain for the distributions F_{i,j}: the reference that
``PolySampler.sample``'s batched coefficient rows are checked against."""

import numpy as np

from ptfprg.gaussops import amplified_derivative, zoom


def reference_samples(sampler, rng, count):
    """count draws of F_{i,j}, one HermitePoly at a time: per sample, i
    amplified derivatives along (y, y2), then j zooms of scale 1 - lam at a
    center, every vector drawn from rng in that order."""
    n = sampler.base.n
    out = []
    for _ in range(count):
        f = sampler.base
        for _ in range(sampler.i):
            y = rng.standard_normal(n)
            y2 = rng.standard_normal(n)
            f = amplified_derivative(f, y, y2, sampler.R, sampler.lam)
        for _ in range(sampler.j):
            f = zoom(f, 1.0 - sampler.lam, rng.standard_normal(n))
        out.append(f)
    return out


def rows_of(polys, support):
    """The polynomials' coefficient rows over a graded support holding every
    term."""
    index = {alpha: k for k, alpha in enumerate(map(tuple, support.tolist()))}
    rows = np.zeros((len(polys), len(support)))
    for r, f in enumerate(polys):
        for alpha, c in f.coeffs.items():
            rows[r, index[alpha]] = c
    return rows
