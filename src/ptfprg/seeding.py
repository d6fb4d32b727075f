"""Counter-based substream seeding.

Every piece of randomness in the package is derived from a single 64-bit
master seed plus a static path of tags, via numpy's SeedSequence.  Streams
are therefore reproducible across runs and independent of any parallelism
in the surrounding code.
"""

from __future__ import annotations

import zlib

import numpy as np

__all__ = ["substream"]


def _path_ints(path):
    out = []
    for p in path:
        if isinstance(p, str):
            out.append(zlib.crc32(p.encode("utf-8")))
        else:
            out.append(int(p) & 0xFFFFFFFF)
    return tuple(out)


def substream(master_seed: int, *path) -> np.random.Generator:
    """Deterministic generator for (master_seed, path)."""
    ss = np.random.SeedSequence(entropy=int(master_seed) & (2**64 - 1),
                                spawn_key=_path_ints(path))
    return np.random.Generator(np.random.Philox(ss))

