"""The exact checks as they were first written, the references that
``verify`` is checked against: the clean fraction with one normalised
`Fraction` per factor, and the Lagrange values in mpmath."""

from fractions import Fraction

import mpmath


def reference_clean_fraction(j, d):
    """prod_{i in [1, 2d+1], i != j} i^2 / (i^2 - j^2), factor by factor."""
    out = Fraction(1)
    for i in range(1, 2 * d + 2):
        if i == j:
            continue
        out *= Fraction(i * i, i * i - j * j)
    return out


def reference_lagrange_l0(d, q):
    """lagrange_l0's values from mpmath at 60 decimal digits, with the same
    node formula and product order (no range checks)."""
    count = 2 * d + 1
    with mpmath.workdps(60):
        root = mpmath.sqrt(mpmath.mpf(1) - mpmath.mpf(q))
        nodes = [(2 / mpmath.mpf(q)) * (1 - root ** (i * i))
                 for i in range(1, count + 1)]
        out = []
        for j in range(count):
            v = mpmath.mpf(1)
            for m in range(count):
                if m != j:
                    v *= (-nodes[m]) / (nodes[j] - nodes[m])
            out.append(float(v))
    return out
