"""Reference views of a HermitePoly for the tests: its monomial expansion,
from numpy's probabilists' Hermite series, and its projections onto Hermite
levels."""

import itertools
import math

from numpy.polynomial import hermite_e

from ptfprg.hermite import HermitePoly, total_degree


def to_monomial_terms(g):
    """{exponent vector: coeff} of g, each term h_alpha expanded through
    h_k = He_k / sqrt(k!) coordinate by coordinate."""
    out = {}
    for alpha, c in g.coeffs.items():
        factors = [hermite_e.herme2poly([0.0] * k + [1.0])
                   / math.sqrt(math.factorial(k)) for k in alpha]
        for expo in itertools.product(*(range(len(f)) for f in factors)):
            w = c * math.prod(f[e] for f, e in zip(factors, expo))
            if w != 0.0:
                out[expo] = out.get(expo, 0.0) + w
    return out


def part(g, levels):
    """The terms of g whose Hermite level |alpha| is in levels."""
    return HermitePoly(g.n, {alpha: c for alpha, c in g.coeffs.items()
                             if total_degree(alpha) in levels})
