"""A fixed calibration kernel that measures how fast the machine runs now.

On a shared machine other tenants slow every process down for seconds to
hours at a time.  The worker times this kernel before every call and after
the last; the benchmark divides each call's time by the mean of the
kernel's times around it, which cancels most of the slowdown.  The kernel
does not touch ``ptfprg``: it mixes the two kinds of work the workloads
do, interpreted dict-of-tuple arithmetic (as in the Hermite engine) and
random gathers from a 16 MB table (as in the k-wise expansion), so that a
change to the program never changes it.
"""

from __future__ import annotations

import time

import numpy as np


class Calibration:
    """Times one fixed kernel of about 5 ms per sample."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self.table = rng.integers(0, 1 << 16, size=1 << 22, dtype=np.uint32)
        self.index = rng.integers(0, 1 << 22, size=100_000)

    def sample(self) -> float:
        t0 = time.perf_counter()
        acc = {}
        for i in range(10_000):
            key = (i % 7, i % 5, i % 3)
            acc[key] = acc.get(key, 0.0) + i * 0.5
        for _ in range(3):
            self.table[self.index].sum()
        return time.perf_counter() - t0
