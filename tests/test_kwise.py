import hashlib
import itertools
import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from scipy.special import ndtr

from ptfprg import kwise
from ptfprg.kwise import (IRREDUCIBLE, KWiseSeed, KWiseSpec, enumerate_seeds,
                          expand, expand_batch, field_width, gf_mul,
                          gaussian_seed_length, gaussian_word_spec,
                          kwise_gaussian_batch, kwise_gaussian_vector,
                          seed_length, to_near_gaussian)


def ref_gf_mul(a, b, m):
    """Independent carry-less multiply + long reduction, for cross-checking."""
    prod = 0
    aa = a
    for i in range(b.bit_length()):
        if (b >> i) & 1:
            prod ^= aa << i
    red = IRREDUCIBLE[m]
    while prod.bit_length() > m:
        prod ^= red << (prod.bit_length() - (m + 1))
    return prod


def random_words(rng, spec, rows):
    """(rows, k) coefficient words over the whole of [0, 2^m)."""
    m = field_width(spec)
    return rng.integers(0, (1 << m) - 1, size=(rows, spec.k), dtype=np.uint64,
                        endpoint=True)


def seed_of(row, spec):
    """The KWiseSeed whose coefficient words are row."""
    m = field_width(spec)
    bits = 0
    for c in row:
        bits = (bits << m) | int(c)
    return KWiseSeed(bits, spec.k * m)


class TestField:
    def test_irreducibles_have_right_degree(self):
        for m, f in IRREDUCIBLE.items():
            assert f.bit_length() == m + 1

    def test_irreducibles_pass_rabin(self):
        # x^(2^m) = x mod f, and gcd condition at maximal proper divisors
        def pmod(a, b):
            bb = b.bit_length()
            while a.bit_length() >= bb:
                a ^= b << (a.bit_length() - bb)
            return a

        def pmulmod(a, b, f):
            r = 0
            while a:
                if a & 1:
                    r ^= b
                a >>= 1
                b <<= 1
                if b.bit_length() >= f.bit_length():
                    b = pmod(b, f)
            return pmod(r, f)

        def pgcd(a, b):
            while b:
                a, b = b, pmod(a, b)
            return a

        def x_pow_2k(f, k):
            r = 2
            for _ in range(k):
                r = pmulmod(r, r, f)
            return r

        for m in list(range(1, 20)) + [24, 32, 48, 64]:
            f = IRREDUCIBLE[m]
            if m == 1:
                continue
            assert x_pow_2k(f, m) == 2, m
            for q in {p for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31)
                      if m % p == 0}:
                assert pgcd(f, x_pow_2k(f, m // q) ^ 2) == 1, (m, q)

    def test_gf_mul_against_reference(self):
        rng = np.random.default_rng(0)
        for m in (2, 4, 8, 16, 24, 32, 48, 64):
            for _ in range(50):
                a = int(rng.integers(0, 1 << min(m, 62)))
                b = int(rng.integers(0, 1 << min(m, 62)))
                assert gf_mul(a, b, m) == ref_gf_mul(a, b, m)

    def test_gf_field_axioms_small(self):
        m = 4
        els = range(1 << m)
        one = 1
        for a in els:
            assert gf_mul(a, one, m) == a
            for b in els:
                assert gf_mul(a, b, m) == gf_mul(b, a, m)
        # no zero divisors
        for a in range(1, 1 << m):
            prods = {gf_mul(a, b, m) for b in range(1, 1 << m)}
            assert 0 not in prods and len(prods) == (1 << m) - 1


class TestSeedLength:
    def test_frozen_examples(self):
        assert seed_length(KWiseSpec(k=2, n=2, M=4)) == 8
        assert seed_length(KWiseSpec(k=1, n=1, M=2)) == 2

    def test_monotone(self):
        base = seed_length(KWiseSpec(k=2, n=4, M=4))
        assert seed_length(KWiseSpec(k=3, n=4, M=4)) > base
        assert seed_length(KWiseSpec(k=2, n=4, M=8)) > base
        assert seed_length(KWiseSpec(k=2, n=64, M=4)) > base

    def test_field_covers_points_and_bits(self):
        spec = KWiseSpec(k=2, n=100, M=3)
        m = field_width(spec)
        assert 2**m >= spec.n and m >= spec.M


class TestExpand:
    def test_constant_polynomial_for_k1(self):
        spec = KWiseSpec(k=1, n=5, M=2)
        for seed in enumerate_seeds(spec):
            words = expand(seed, spec)
            assert len(set(words)) == 1

    def test_seed_length_mismatch(self):
        spec = KWiseSpec(k=2, n=2, M=4)
        with pytest.raises(ValueError):
            expand(KWiseSeed(0, 4), spec)

    def test_exhaustive_pairwise_m1(self):
        spec = KWiseSpec(k=2, n=2, M=1)
        counts = Counter(tuple(expand(s, spec)) for s in enumerate_seeds(spec))
        assert counts == {(0, 0): 1, (0, 1): 1, (1, 0): 1, (1, 1): 1}

    def test_exhaustive_triplewise(self):
        spec = KWiseSpec(k=3, n=4, M=2)
        words = [tuple(expand(s, spec)) for s in enumerate_seeds(spec)]
        for subset in itertools.combinations(range(4), 3):
            counts = Counter(tuple(w[i] for i in subset) for w in words)
            want = len(words) // 4**3
            assert len(counts) == 4**3
            assert all(v == want for v in counts.values())

    def test_determinism_bit_exact(self):
        spec = KWiseSpec(k=4, n=6, M=8)
        seed = KWiseSeed(0x5A5A_1234, seed_length(spec))
        assert expand(seed, spec) == expand(seed, spec)

    def test_against_independent_horner(self):
        # derived oracle: evaluate the seed polynomial with ref_gf_mul
        spec = KWiseSpec(k=3, n=5, M=6)
        m = field_width(spec)
        seed = KWiseSeed(0b110100111010101101, seed_length(spec))
        mask = (1 << m) - 1
        coeffs = [(seed.bits >> (m * (spec.k - 1 - j))) & mask
                  for j in range(spec.k)]
        for i, got in enumerate(expand(seed, spec)):
            val = 0
            for j, c in enumerate(coeffs):
                term = c
                for _ in range(j):
                    term = ref_gf_mul(term, i, m)
                val ^= term
            assert got == val >> (m - spec.M)

    def test_permuting_points_permutes_outputs(self):
        spec = KWiseSpec(k=3, n=6, M=4)
        seed = KWiseSeed(0xABCDE % (1 << seed_length(spec)),
                         seed_length(spec))
        words = expand(seed, spec)
        bigger = KWiseSpec(k=3, n=6, M=4)
        again = expand(seed, bigger)
        assert words == again  # same points, same outputs, independent calls

    def test_batch_matches_scalar(self):
        # every byte count of the split tables, m = 1..64, and n > 2^M
        rng = np.random.default_rng(3)
        for spec in (KWiseSpec(k=3, n=4, M=4), KWiseSpec(k=5, n=3, M=16),
                     KWiseSpec(k=2, n=2, M=24), KWiseSpec(k=2, n=2, M=1),
                     KWiseSpec(k=4, n=5, M=8), KWiseSpec(k=3, n=6, M=17),
                     KWiseSpec(k=4, n=3, M=32), KWiseSpec(k=3, n=4, M=40),
                     KWiseSpec(k=3, n=3, M=63), KWiseSpec(k=4, n=3, M=64),
                     KWiseSpec(k=3, n=300, M=4)):
            rows = random_words(rng, spec, 10)
            batch = expand_batch(rows, spec)
            assert batch.dtype == np.uint64
            for b, row in zip(batch, rows):
                assert list(b) == expand(seed_of(row, spec), spec), spec

    def test_golden_words(self):
        # sha256 of the little-endian uint64 words, recorded from the exp/log
        # table (M = 16), shift-and-reduce (M = 32) and scalar (M = 64) paths
        # that the byte-split tables replaced
        want = {16: "887014725af48677eee0ff7d56cd08650b465ae4c47caffe0072dfe5a9bcf8b7",
                32: "4bc54b3b66a30a41ebc6562d6665ad4c8277c650bac0096116f08c94c981d693",
                64: "6efeb1c701c5ac47399772c9af39f17874dc742eb8f6628c0dc379b13627e18e"}
        for M, digest in want.items():
            spec = KWiseSpec(k=6, n=10, M=M)
            words = expand_batch(random_words(np.random.default_rng(2024), spec, 50),
                                 spec)
            assert hashlib.sha256(words.astype("<u8").tobytes()).hexdigest() == digest

    def test_cold_batch_memory_bounded(self):
        # the widest fooling-suite block; whole-field tables took ~200 MB
        spec = KWiseSpec(k=96, n=16, M=16)
        coeffs = random_words(np.random.default_rng(9), spec, 500)
        kwise._byte_tables.cache_clear()
        tracemalloc.start()
        try:
            expand_batch(coeffs, spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20


class TestSeedHex:
    def test_round_trip(self):
        s = KWiseSeed(0x1F2E, 16)
        assert KWiseSeed.from_hex(s.to_hex(), 16) == s

    def test_overflow_rejected(self):
        with pytest.raises(ValueError):
            KWiseSeed(16, 4)


class TestBoxMuller:
    def test_max_word_gives_zero(self):
        out = to_near_gaussian(np.array([2**16 - 1, 12345], float), 16)
        assert out == pytest.approx([0.0], abs=1e-12)

    def test_odd_length_rejected(self):
        with pytest.raises(ValueError):
            to_near_gaussian(np.array([1.0, 2.0, 3.0]), 8)

    def test_moments(self):
        rng = np.random.default_rng(4)
        words = rng.integers(0, 2**16, size=100_000).astype(float)
        z = to_near_gaussian(words, 16)
        n = len(z)
        assert abs(z.mean()) <= 4 / math.sqrt(n) + 2.0**-8
        v = z.var(ddof=1)
        assert abs(v - 1.0) <= 4 * math.sqrt(2.0 / n) + 2.0**-8

    def test_ks_distance_decreases_with_resolution(self):
        # exact-in-u1 KS estimate on a fixed grid of thresholds: for each u1
        # level, count the u2 grid points with r cos(2 pi u2) <= t in closed
        # form, then compare against the normal CDF
        tgrid = np.linspace(-3.5, 3.5, 15)

        def ks(M):
            n = 1 << M
            u1 = (np.arange(n, dtype=np.float64) + 1.0) / n
            r = np.sqrt(-2.0 * np.log(u1))  # r[n-1] = 0
            out = np.zeros_like(tgrid)
            for ti, t in enumerate(tgrid):
                c = np.clip(np.divide(t, r, out=np.full_like(r, np.inf),
                                      where=r > 0), -1.0, 1.0)
                # count u2 = (j+1)/n, j=0..n-1 with cos(2 pi u2) <= c:
                # angle in [a, 2 pi - a], a = arccos(c)
                a = np.arccos(c) / (2 * math.pi)
                hi = np.floor((1 - a) * n - 1.0)
                lo = np.ceil(a * n - 1.0)
                cnt = np.maximum(hi - lo + 1.0, 0.0)
                cnt = np.where(r == 0, float(t >= 0.0) * n, cnt)
                out[ti] = cnt.sum() / (n * n)
            return np.max(np.abs(out - ndtr(tgrid)))

        d8, d16, d24 = ks(8), ks(16), ks(24)
        assert d8 > d16 > d24


class TestGaussianVector:
    def test_word_spec_doubles(self):
        spec = KWiseSpec(k=3, n=5, M=8)
        w = gaussian_word_spec(spec)
        assert (w.k, w.n, w.M) == (6, 10, 8)
        assert gaussian_seed_length(spec) == seed_length(w)

    def test_determinism(self):
        spec = KWiseSpec(k=2, n=3, M=8)
        seed = KWiseSeed(0x1234_5678 % (1 << gaussian_seed_length(spec)),
                         gaussian_seed_length(spec))
        a = kwise_gaussian_vector(seed, spec)
        b = kwise_gaussian_vector(seed, spec)
        assert np.array_equal(a, b)

    def test_odd_M_rejected(self):
        spec = KWiseSpec(k=2, n=2, M=3)
        with pytest.raises(ValueError):
            kwise_gaussian_vector(KWiseSeed(0, gaussian_seed_length(spec)),
                                  spec)

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(5)
        for spec in (KWiseSpec(k=2, n=3, M=8), KWiseSpec(k=2, n=3, M=32)):
            rows = random_words(rng, gaussian_word_spec(spec), 5)
            batch = kwise_gaussian_batch(rows, spec)
            for row, z in zip(rows, batch):
                want = kwise_gaussian_vector(seed_of(row, gaussian_word_spec(spec)),
                                             spec)
                assert np.array_equal(z, want)

    def test_pairwise_correlation(self):
        spec = KWiseSpec(k=2, n=4, M=16)
        wspec = gaussian_word_spec(spec)
        m = field_width(wspec)
        coeffs = np.random.default_rng(6).integers(
            0, 1 << m, size=(40_000, wspec.k), dtype=np.uint64)
        Z = kwise_gaussian_batch(coeffs, spec)
        n = Z.shape[0]
        for i in range(4):
            for j in range(i + 1, 4):
                corr = float(np.mean(Z[:, i] * Z[:, j]))
                assert abs(corr) <= 4 / math.sqrt(n) + 2.0**-8

    def test_low_degree_moment_match(self):
        # E[q(z)] = qhat(0) for degree <= k, up to MC error + 2^{-M/2} slack
        from ptfprg.hermite import random_poly
        spec = KWiseSpec(k=3, n=3, M=16)
        wspec = gaussian_word_spec(spec)
        m = field_width(wspec)
        coeffs = np.random.default_rng(7).integers(
            0, 1 << m, size=(40_000, wspec.k), dtype=np.uint64)
        Z = kwise_gaussian_batch(coeffs, spec)
        rng = np.random.default_rng(8)
        for _ in range(3):
            q = random_poly(3, 3, rng)
            vals = q.eval_batch(Z)
            err = vals.std(ddof=1) / math.sqrt(len(vals))
            slack = 10.0 * 2.0 ** (-spec.M / 2) * max(1.0, math.sqrt(q.sq2norm()))
            assert abs(vals.mean() - q.mean()) <= 4 * err + slack
