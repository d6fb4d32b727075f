import dataclasses
import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import kstest

from ptfprg import kwise
from ptfprg.battery import sign_expectation
from ptfprg.hermite import HermitePoly, random_poly
from ptfprg.prg import M_CAP, _block_coeffs, choose_params, generate_batch
from ptfprg.seeding import substream


class TestChooseParams:
    def test_frozen_defaults_d1(self):
        p = choose_params(4, 1, 0.5)
        assert p.lambda_bar == pytest.approx(0.0625)
        assert p.L == 16
        assert p.k_indep == 16
        assert p.D == 9

    def test_degenerate_single_block(self):
        p = choose_params(3, 1, 0.5, lambda_exp=0.0)  # lambda_bar = 1, L = 1
        assert p.L == 1 and p.lambda_bar == 1.0
        Z = generate_batch(p, 5, 4)
        spec = p.block_spec()
        wspec = kwise.gaussian_word_spec(spec)
        m = kwise.field_width(wspec)
        gen = substream(5, "block", 0)
        dtype = np.uint16 if m <= 16 else np.uint32
        coeffs = gen.integers(0, 1 << m, size=(4, wspec.k), dtype=dtype)
        want = kwise.kwise_gaussian_batch(coeffs, spec)
        assert np.array_equal(Z, want)

    def test_lambda_renormalized_to_inverse_integer(self):
        p = choose_params(4, 2, 0.3)
        assert p.L == math.ceil(1.0 / (0.3 / 2) ** 4)
        assert p.lambda_bar == 1.0 / p.L

    def test_seed_bits_table(self):
        # seed bits per sample at the default M, over d in 1..8, n in
        # 2^3..2^40 and two eps: flat in n while 2n <= 2^M, then affine in
        # ceil(log2 2n), and polynomial in d (log-log slope at most 5)
        for eps in (0.2, 0.05):
            table = {}
            for d in range(1, 9):
                for e in range(3, 41):
                    p = choose_params(2**e, d, eps)
                    assert p.M == min(max(p.M_formula, 2), M_CAP) == M_CAP
                    table[d, e] = p.seed_bits_per_sample()
                    width = math.ceil(math.log2(2 * 2**e))  # e + 1
                    assert table[d, e] == p.L * 2 * p.k_indep * max(p.M, width)
            for d in range(1, 9):
                flat = [table[d, e] for e in range(3, 41) if e + 1 <= M_CAP]
                assert len(set(flat)) == 1
                steps = {table[d, e + 1] - table[d, e]
                         for e in range(3, 40) if e + 1 >= M_CAP}
                assert len(steps) == 1 and steps.pop() > 0
            for e in range(3, 41):
                for d in range(1, 8):
                    slope = (math.log(table[d + 1, e] / table[d, e])
                             / math.log((d + 1) / d))
                    assert 0.0 < slope <= 5.0 + 1e-9, (eps, d, e, slope)

    def test_k_indep_covers_moment_requirement(self):
        p = choose_params(4, 3, 0.2)
        assert p.k_indep >= 4 * p.d * p.T

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            choose_params(0, 1, 0.5)
        with pytest.raises(ValueError):
            choose_params(2, 1, 1.5)
        with pytest.raises(ValueError):
            choose_params(2, 1, 0.5, k_mult=8)  # below 4 d T
        with pytest.raises(ValueError):
            choose_params(2, 1, 0.5, M=7)

    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(1, 64), d=st.integers(1, 5),
           eps=st.floats(0, 1, exclude_min=True, exclude_max=True),
           coupling=st.sampled_from(["prg", "analysis"]))
    @example(n=64, d=1, eps=1e-70, coupling="analysis")  # was OverflowError
    def test_resolved_tuple_properties(self, n, d, eps, coupling):
        try:
            p = choose_params(n, d, eps, coupling=coupling)
        except ValueError as e:  # only the documented extremes may refuse
            assert "too extreme" in str(e) or "overflows" in str(e), e
            return
        assert p.L >= 1 and p.lambda_bar == 1 / p.L
        assert p.M % 2 == 0 and 2 <= p.M <= M_CAP
        assert p.k_indep == p.k_mult * p.d >= 4 * p.d * p.T
        assert p.D == (2 * d + 1) ** 2
        assert p.seed_bits_per_sample() == p.L * kwise.gaussian_seed_length(
            p.block_spec())

    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(1, 64), d=st.integers(1, 5),
           eps=st.floats(0, 1, exclude_min=True, exclude_max=True),
           bad=st.sampled_from(["n", "d", "eps", "M", "coupling"]),
           data=st.data())
    def test_each_bad_input_raises(self, n, d, eps, bad, data):
        kwargs = {}
        if bad == "n":
            n = data.draw(st.integers(-5, 0))
        elif bad == "d":
            d = data.draw(st.integers(-5, 0))
        elif bad == "eps":
            eps = data.draw(st.one_of(st.floats(max_value=0), st.floats(min_value=1),
                                      st.just(math.nan)))
        elif bad == "M":
            kwargs["M"] = data.draw(st.integers(-9, 99).filter(lambda v: v % 2))
        else:
            kwargs["coupling"] = data.draw(
                st.text().filter(lambda c: c not in ("prg", "analysis")))
        with pytest.raises(ValueError):
            choose_params(n, d, eps, **kwargs)

    def test_analysis_coupling_is_tiny(self):
        p = choose_params(4, 2, 0.2, coupling="analysis")
        assert p.lambda_bar < 1e-20
        assert p.lambda_hat < 1e-10
        with pytest.raises(ValueError):
            generate_batch(p, 0, 1)

    def test_parameter_echo(self):
        p = choose_params(4, 2, 0.2, M=16)
        d = p.describe()
        assert d["seed_bits_per_sample"] == p.seed_bits_per_sample()
        assert d["coupling"] == "prg"


class TestGenerate:
    def test_determinism(self):
        p = choose_params(3, 1, 0.5, lambda_exp=1.0, M=16)
        a = generate_batch(p, 42, 6)
        b = generate_batch(p, 42, 6)
        assert np.array_equal(a, b)
        c = generate_batch(p, 43, 6)
        assert not np.array_equal(a, c)

    def test_single_equals_batch_head(self):
        # counts on both sides of the stacking boundary kwise._BLOCK_ROWS:
        # every batch starts with the same rows
        p = choose_params(3, 1, 0.5, lambda_exp=1.0, M=16)
        head = generate_batch(p, 11, 3)
        assert np.array_equal(generate_batch(p, 11, 1)[0], head[0])
        for count in (2047, 2048, 4095, 4096, 4097):
            assert np.array_equal(generate_batch(p, 11, count)[:3], head)

    @pytest.mark.parametrize("count", [0, -2, 2.0, 3.5, True, "4", None])
    def test_rejects_bad_count(self, count):
        p = choose_params(3, 1, 0.5, lambda_exp=1.0, M=16)
        with pytest.raises(ValueError) as exc:
            generate_batch(p, 0, count)
        assert str(exc.value) == f"sample count {count!r} is not an int >= 1"

    def test_accepts_numpy_count(self):
        p = choose_params(3, 1, 0.5, lambda_exp=1.0, M=16)
        assert np.array_equal(generate_batch(p, 4, np.int64(5)),
                              generate_batch(p, 4, 5))

    def test_seed_accounting(self):
        p = choose_params(5, 2, 0.25, lambda_exp=2.0, M=16)
        per_block = kwise.gaussian_seed_length(p.block_spec())
        assert p.seed_bits_per_sample() == p.L * per_block

    def test_unit_variance(self):
        p = choose_params(3, 1, 0.5, lambda_exp=1.0, M=16)
        Z = generate_batch(p, 9, 10_000)
        err = math.sqrt(2.0 / Z.shape[0])
        for i in range(3):
            assert abs(Z[:, i].var(ddof=1) - 1.0) <= 4 * err + 2.0**-8


# generate_batch(GOLDEN_PARAMS, 7, 5, gaussian_blocks=t) before the generator
# and its hybrids were folded into one function (12 significant digits); the
# stream layout is ("block", b) for k-wise and ("hybrid-gauss", b) for
# Gaussian blocks.
GOLDEN_PARAMS = dict(n=3, d=1, eps=0.5, lambda_exp=2.0, M=16)  # L = 4
GOLDEN = {
    0: [[-1.44493012967, -0.0192765226974, -0.0218745180672],
        [1.22973722516, -0.0163245671946, 1.10090912594],
        [-1.35173193262, -1.04740062172, -0.469688209846],
        [0.998315834732, 0.281068616493, -1.06134917288],
        [0.351737789159, -2.02765946836, -1.20578851849]],
    1: [[-0.605442491086, 0.26826094515, -0.573056444312],
        [1.81820615526, 1.01308561799, 0.951527088725],
        [-1.86610567669, -0.0464182178721, -0.631071328283],
        [0.16144548422, 0.20210822254, 0.21098063055],
        [1.23331668228, -0.729051611905, -1.16461113071]],
    2: [[0.1763584588, 0.72620793734, -0.708289388157],
        [1.31933215399, 0.911071948391, -0.0725198946742],
        [-0.858164232524, -0.446364735876, -0.41526765973],
        [1.57690927689, -1.07625608378, -0.313998703754],
        [0.336929089358, -0.218085487267, -2.23369590853]],
    4: [[0.709264195415, -0.0509736659144, -1.24765917798],
        [0.190796596357, 1.82429019398, -1.02155050078],
        [-1.71706467073, -0.754315661204, -0.338370931399],
        [0.823421786268, 0.00294484435633, -0.420268025924],
        [-0.560438045117, 0.0253732389125, 0.206697180854]],
}


class TestReplacementHybrid:
    def test_t0_reproduces_generate(self):
        p = choose_params(**GOLDEN_PARAMS)
        np.testing.assert_allclose(generate_batch(p, 7, 5), GOLDEN[0],
                                   rtol=1e-11, atol=1e-12)

    def test_golden_hybrids(self):
        p = choose_params(**GOLDEN_PARAMS)
        for t in (1, p.L // 2, p.L):
            np.testing.assert_allclose(
                generate_batch(p, 7, 5, gaussian_blocks=t), GOLDEN[t],
                rtol=1e-11, atol=1e-12)

    def test_tL_is_gaussian(self):
        p = choose_params(3, 1, 0.5, lambda_exp=1.0, M=16)
        W = generate_batch(p, 3, 10_000, gaussian_blocks=p.L)
        for i in range(3):
            assert kstest(W[:, i], "norm").pvalue >= 0.01

    def test_out_of_range(self):
        p = choose_params(2, 1, 0.5, lambda_exp=1.0, M=16)
        for t in (-1, p.L + 1):
            with pytest.raises(ValueError):
                generate_batch(p, 0, 1, gaussian_blocks=t)

    def test_single_matches_batch(self):
        p = choose_params(2, 1, 0.5, lambda_exp=1.0, M=16)
        assert np.array_equal(generate_batch(p, 5, 1, gaussian_blocks=2)[0],
                              generate_batch(p, 5, 2, gaussian_blocks=2)[0])

    def test_telescoping_bracket(self):
        # sign expectations along the hybrid chain stay between the endpoint
        # estimates, within sampling error
        p = choose_params(2, 1, 0.5, lambda_exp=1.0, M=16)
        poly = random_poly(2, 1, np.random.default_rng(17))
        samples = 20_000
        ests = {}
        errs = {}
        for t in (0, 1, p.L // 2, p.L):
            W = generate_batch(p, 23, samples, gaussian_blocks=t)
            ests[t], errs[t] = sign_expectation(poly, W)
        lo = min(ests[0], ests[p.L]) - 4 * max(errs.values()) * 2
        hi = max(ests[0], ests[p.L]) + 4 * max(errs.values()) * 2
        for t in (1, p.L // 2):
            assert lo <= ests[t] <= hi


def reference_generate(params, master_seed, count, gaussian_blocks=0):
    """generate_batch as one expansion call per block, in block order."""
    spec = params.block_spec()
    wspec = kwise.gaussian_word_spec(spec)
    m = kwise.field_width(wspec)
    dtype = np.uint16 if m <= 16 else np.uint32 if m <= 32 else np.uint64
    acc = np.zeros((count, params.n))
    for b in range(params.L):
        if b < gaussian_blocks:
            gen = substream(master_seed, "hybrid-gauss", b)
            acc += gen.standard_normal((count, params.n))
        else:
            gen = substream(master_seed, "block", b)
            coeffs = gen.integers(0, 1 << m, size=(count, wspec.k), dtype=dtype)
            acc += kwise.kwise_gaussian_batch(coeffs, spec)
    return math.sqrt(params.lambda_bar) * acc


def hybrid_digest(params, count):
    """sha256 of the four hybrids t = 0, 1, L // 2, L at seed 7, as
    little-endian float64, first 16 hex digits."""
    h = hashlib.sha256()
    for t in (0, 1, params.L // 2, params.L):
        Z = generate_batch(params, 7, count, gaussian_blocks=t)
        h.update(np.ascontiguousarray(Z, dtype="<f8").tobytes())
    return h.hexdigest()[:16]


# hybrid_digest(choose_params(3, 1, 0.2, lambda_exp=2.0, M=M), count), L = 25,
# recorded with one expansion call per block.  M = 16, 32, 64 draw uint16,
# uint32 and uint64 words.  The bytes go through numpy's float64 log and cos,
# whose last bits depend on the SIMD kernels in use; PROBE identifies the
# kernels these digests were recorded with.
PROBE = "b1a85ae78b59977c"
DIGESTS = {
    (16, 1): "c4026444e17db1c7",
    (16, 3): "e884c157ab11ceab",
    (16, 500): "d23e847c21e54fd2",
    (16, 4095): "3f263c56a19a133a",
    (16, 4097): "1adfeee4a3937c97",
    (32, 1): "a1b8d3ca0bb9fbad",
    (32, 3): "16fd1a884a32e510",
    (32, 500): "7b3bf3a8915f8e4b",
    (32, 4095): "af585bdc11a6c5ec",
    (32, 4097): "80bebca17e86ffb0",
    (64, 1): "62be2ebb456c7316",
    (64, 3): "8852eedc89350b17",
    (64, 500): "ae40347c209b02ee",
    (64, 4095): "8b3fa083b243e21d",
    (64, 4097): "b495ed8020cea0ec",
}


class TestBlockStacking:
    """Blocks stacked into one expansion call give the per-block bytes."""

    def test_recorded_digests(self):
        probe = kwise.to_near_gaussian(np.arange(1 << 16), 16)
        if hashlib.sha256(probe.tobytes()).hexdigest()[:16] != PROBE:
            pytest.skip("float64 log/cos kernels differ from the recording "
                        "ones; test_matches_per_block_reference still runs")
        for (M, count), want in DIGESTS.items():
            p = choose_params(3, 1, 0.2, lambda_exp=2.0, M=M)
            assert hybrid_digest(p, count) == want, (M, count)

    @pytest.mark.parametrize("M", [16, 32, 64])
    @pytest.mark.parametrize("count", [1, 3, 500, 1366, 2048, 2049, 4097])
    def test_matches_per_block_reference(self, M, count):
        p = choose_params(3, 1, 0.2, lambda_exp=2.0, M=M)  # L = 25
        for t in (0, 1, p.L // 2, p.L - 1, p.L):
            assert np.array_equal(generate_batch(p, 7, count, gaussian_blocks=t),
                                  reference_generate(p, 7, count, t)), t

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 6), d=st.integers(1, 2),
           M=st.sampled_from([2, 16, 32, 64]), count=st.integers(1, 700),
           data=st.data())
    def test_reference_property(self, n, d, M, count, data):
        p = choose_params(n, d, 0.5, lambda_exp=2.0, M=M)
        t = data.draw(st.integers(0, p.L))
        assert np.array_equal(generate_batch(p, 3, count, gaussian_blocks=t),
                              reference_generate(p, 3, count, t))

    @pytest.mark.parametrize("args, kw, count", [
        ((2, 1, 0.2), {}, 1),  # gen's defaults: L = 625, M = 32
        ((4, 3, 0.2), dict(lambda_exp=2.0, M=16), 500),  # L = 225
    ])
    def test_cold_peak_memory(self, args, kw, count):
        # stacking is bounded by kwise._BLOCK_ROWS rows, not by L
        p = choose_params(*args, **kw)
        kwise._byte_tables.cache_clear()
        tracemalloc.start()
        try:
            generate_batch(p, 1, count)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20


class TestCoefficientDraw:
    """`_block_coeffs` reads the block stream's raw 64-bit draws; it must give
    the words `Generator.integers` draws from the same stream."""

    @pytest.mark.parametrize("m", range(1, 65))
    def test_matches_integers(self, m):
        dtype = np.uint16 if m <= 16 else np.uint32 if m <= 32 else np.uint64
        base = choose_params(1, 1, 0.5)  # n = 1: the field width m is M
        # (count, k_indep): 2 count k_indep words, some of them not a whole
        # number of 64-bit draws at every word dtype
        for count, k_indep in [(1, 32), (3, 96), (7, 3), (500, 96), (1, 1),
                               (3, 3)]:
            p = dataclasses.replace(base, k_indep=k_indep, M=m)
            got = _block_coeffs(p, 9, 4, count)
            want = substream(9, "block", 4).integers(
                0, 1 << m, size=(count, 2 * k_indep), dtype=dtype)
            assert got.dtype == want.dtype, (count, k_indep)
            assert np.array_equal(got, want), (count, k_indep)


class TestFoolingOracles:
    def test_halfspace_through_origin_is_balanced(self):
        p = choose_params(2, 1, 0.5, lambda_exp=1.0, M=16)
        h1 = HermitePoly(2, {(1, 0): 1.0})
        Z = generate_batch(p, 31, 40_000)
        est, err = sign_expectation(h1, Z)
        assert abs(est) <= 4 * err + 2.0**-8

    def test_chi_square_median_case(self):
        # p = x^2 - median(chi^2_1): E[sign p(X)] = 0 exactly under Gaussians
        from scipy.stats import chi2
        c = float(chi2.ppf(0.5, 1))
        poly = HermitePoly(1, {(2,): math.sqrt(2.0), (0,): 1.0 - c})
        params = choose_params(1, 2, 0.2, lambda_exp=2.0, M=16)
        Z = generate_batch(params, 13, 40_000)
        est, err = sign_expectation(poly, Z)
        assert abs(est) <= 0.2 + 4 * err
