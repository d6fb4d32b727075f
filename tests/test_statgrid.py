import math
import re
import tracemalloc

import numpy as np
import pytest

from ptfprg import gaussops, hermite
from ptfprg.gaussops import hypervar, noise_op, zoom
from ptfprg.hermite import HermitePoly, random_poly
from ptfprg.prg import choose_params
from ptfprg.seeding import substream
from ptfprg.statgrid import (PolySampler, StatGrid, grid_csv,
                             stat_identities_check)
from sampling_reference import reference_samples, rows_of
from statgrid_reference import reference_read_row

RNG = np.random.default_rng(40)


def make_params(n=2, d=2, eps=0.2):
    return choose_params(n, d, eps, lambda_exp=1.0, M=16)


def cell(grid, i, j, x):
    """s_{i,j}(x) and its stderr, read through row_batch."""
    vals, errs, _ = grid.row_batch(i, np.asarray(x, dtype=float)[None, :], [j])
    return vals[0, 0], errs[0, 0]


def draw(sampler, count, seed):
    return sampler.sample(np.random.default_rng(seed), count)


class TestPolySampler:
    def test_dirac_returns_base(self):
        p = random_poly(2, 2, RNG)
        s = PolySampler(p)
        assert s.dirac
        support, rows = draw(s, 5, 0)
        assert np.array_equal(support, p.support)
        assert np.array_equal(rows, p.vector[None, :])  # once, exactly

    @pytest.mark.parametrize("i, j", [(0, 0), (1, 0), (0, 1), (2, 1)])
    def test_rejects_count_below_one_before_drawing(self, i, j):
        s = PolySampler(random_poly(2, 2, RNG), i=i, j=j, lam=0.3, R=2.0)
        for count in (0, -3):
            rng = np.random.default_rng(5)
            with pytest.raises(ValueError,
                               match=f"^sample count {count} is below 1$"):
                s.sample(rng, count)
            assert rng.random() == np.random.default_rng(5).random()

    def test_derivative_beyond_degree_is_zero(self):
        p = random_poly(2, 2, RNG)
        s = PolySampler(p, i=p.degree() + 1, lam=0.3, R=2.0)
        support, rows = draw(s, 4, 1)
        assert rows.shape == (4, 1) and not rows.any()

    def test_degree_bound(self):
        p = random_poly(2, 3, RNG)
        for i in range(4):
            s = PolySampler(p, i=i, j=1, lam=0.4, R=3.0)
            support, rows = draw(s, 10, i)
            assert support.sum(axis=1).max() <= max(p.degree() - i, 0)
            assert rows.shape == (10, len(support))

    def test_zoom_steps_keep_dimension(self):
        p = random_poly(3, 2, RNG)
        s = PolySampler(p, i=0, j=3, lam=0.5)
        assert draw(s, 2, 2)[0].shape[1] == 3

    def test_linear_base_derivative_second_moment(self):
        # for a linear base the one-derivative samples are constants whose
        # second moment is the amplified zoom hypervariance R^2 lam
        R, lam = 3.0, 0.25
        p = HermitePoly(1, {(1,): 1.0})
        support, rows = draw(PolySampler(p, i=1, lam=lam, R=R), 4000, 3)
        assert support.tolist() == [[0]]
        vals = rows[:, 0] ** 2
        err = vals.std(ddof=1) / math.sqrt(len(vals))
        assert abs(vals.mean() - R * R * lam) <= 4 * err

    @pytest.mark.parametrize("i,j", [(0, 1), (1, 0), (1, 1), (2, 0), (2, 2)])
    def test_matches_per_sample_reference(self, i, j):
        # the same normals in the same order as the per-sample chain
        dense = random_poly(3, 3, np.random.default_rng(20 + i))
        sparse = HermitePoly(3, {(2, 0, 1): 1.5, (0, 1, 0): -0.7})
        for p in (dense, sparse):
            s = PolySampler(p, i=i, j=j, R=3.0, lam=0.3)
            support, rows = draw(s, 40, 10 * i + j)
            want = rows_of(reference_samples(
                s, np.random.default_rng(10 * i + j), 40), support)
            scale = np.abs(want).max(axis=1, keepdims=True)
            assert np.all(np.abs(rows - want) <= 1e-12 * scale), (i, j)


class TestStatValues:
    def test_s00_is_p_squared(self):
        p = random_poly(2, 2, RNG)
        grid = StatGrid(p, make_params(), master_seed=1)
        X = RNG.standard_normal((5, 2))
        vals, errs, exact = grid.row_batch(0, X, [0])
        assert exact and not errs.any()
        for x, v in zip(X, vals[:, 0]):
            assert v == pytest.approx(p.eval(x) ** 2, rel=1e-10)

    def test_row1_column0_is_zoom_hypervariance(self):
        p = random_poly(2, 2, RNG)
        params = make_params()
        grid = StatGrid(p, params, master_seed=1)
        x = RNG.standard_normal(2)
        want = hypervar(zoom(p, params.lambda_bar, x), params.R_bar)
        assert cell(grid, 1, 0, x)[0] == pytest.approx(want, rel=1e-9)

    def test_bottom_row_constant_across_points(self):
        p = random_poly(2, 2, RNG)
        params = make_params()
        grid = StatGrid(p, params, master_seed=2, mc_trials=300)
        a = cell(grid, 2, 0, np.array([0.0, 0.0]))
        b = cell(grid, 2, 3, np.array([5.0, -2.0]))
        assert a[0] == b[0]  # constants share one cache, all columns

    def test_nonnegative(self):
        p = random_poly(2, 2, RNG)
        grid = StatGrid(p, make_params(), master_seed=3, mc_trials=200)
        X = RNG.standard_normal((10, 2))
        for i in range(3):
            vals, _, _ = grid.row_batch(i, X, [0, 1, 5])
            assert np.all(vals >= -1e-12)

    def test_statistic_poly_degree_at_most_2d(self):
        p = random_poly(2, 2, RNG)
        grid = StatGrid(p, make_params(), master_seed=4)
        assert grid.exact_row_poly(0).degree() <= 4
        assert grid.exact_row_poly(1).degree() <= 4

    def test_grid_bounds_and_exact_errors(self):
        p = random_poly(2, 2, RNG)
        params = make_params()
        grid = StatGrid(p, params, master_seed=5, mc_trials=100)
        x = np.zeros(2)
        with pytest.raises(ValueError):
            cell(grid, 3, 0, x)  # row above d
        with pytest.raises(ValueError):
            cell(grid, 0, params.D + 1, x)
        with pytest.raises(ValueError):
            grid.exact_row_poly(2)
        for trials in (0, 1):  # no error bar from fewer than 2 samples
            with pytest.raises(ValueError):
                StatGrid(p, params, mc_trials=trials)

    @pytest.mark.parametrize("trials", [20.5, 20.0, True, "20", None])
    def test_rejects_non_int_trials(self, trials):
        p = random_poly(2, 2, RNG)
        with pytest.raises(ValueError, match="is not an int"):
            StatGrid(p, make_params(), mc_trials=trials)

    def test_accepts_numpy_int_trials(self):
        p = random_poly(2, 2, np.random.default_rng(25))
        X = np.random.default_rng(26).standard_normal((3, 2))
        a = StatGrid(p, make_params(), master_seed=2, mc_trials=40)
        b = StatGrid(p, make_params(), master_seed=2,
                     mc_trials=np.int64(40))
        assert np.array_equal(a.row_batch(2, X, [0, 1])[0],
                              b.row_batch(2, X, [0, 1])[0])

    def test_rejects_polynomial_outside_parameters(self):
        params = make_params(n=2, d=2)
        with pytest.raises(ValueError, match="degree 3, above the "
                                             "parameters' d = 2"):
            StatGrid(random_poly(2, 3, np.random.default_rng(27)), params)
        with pytest.raises(ValueError, match="n = 3, the parameters n = 2"):
            StatGrid(random_poly(3, 2, np.random.default_rng(28)), params)
        # lower degrees and the zero polynomial stay accepted
        StatGrid(random_poly(2, 1, np.random.default_rng(29)), params)
        StatGrid(HermitePoly(2, {}), params)

    def test_mc_brackets_exact_rows(self):
        p = random_poly(2, 2, RNG)
        params = make_params()
        grid = StatGrid(p, params, master_seed=6)
        x = np.array([0.4, -1.1])
        exact, _ = cell(grid, 0, 1, x)
        sampler = PolySampler(p, 0, 1, params.R_bar, params.lambda_bar)
        support, rows = sampler.sample(substream(6, "stat-mc"), 3000)
        vals = (rows @ hermite._design(x[None, :], support)[0]) ** 2
        err = vals.std(ddof=1) / math.sqrt(len(vals))
        assert abs(vals.mean() - exact) <= 4 * err

    def test_constant_base_gives_zero_rows(self):
        p = HermitePoly.constant(2, 3.0)
        grid = StatGrid(p, make_params(), master_seed=7, mc_trials=100)
        x = np.zeros(2)
        assert cell(grid, 1, 0, x)[0] == 0.0
        assert cell(grid, 2, 2, x)[0] == 0.0


def reference_row(p, params, i, X, cols, trials, seed):
    """Row i read the per-sample way: the reference chain on the row's
    substream, each square smoothed per column and evaluated, then mean and
    stderr."""
    sampler = PolySampler(p, i=i, R=params.R_bar, lam=params.lambda_bar)
    polys = reference_samples(sampler, substream(seed, "stat-row", i), trials)
    rhos = [(1.0 - params.lambda_bar) ** (j / 2.0) for j in cols]
    W = np.empty((trials, X.shape[0], len(cols)))
    for t, q in enumerate(polys):
        q = q * q
        for c, rho in enumerate(rhos):
            W[t, :, c] = noise_op(q, rho).eval_batch(X)
    mean = W.sum(axis=0) / trials
    var = np.maximum((W * W).sum(axis=0) / trials - mean**2, 0.0)
    return mean, np.sqrt(var / trials)


class TestBatchedRows:
    @pytest.mark.parametrize("n,d", [(2, 2), (3, 3), (4, 3)])
    def test_matches_per_sample_reference(self, n, d):
        params = choose_params(n, d, 0.2, lambda_exp=1.0, M=16)
        p = random_poly(n, d, np.random.default_rng(10 * n + d))
        trials, seed = 200, 17
        grid = StatGrid(p, params, master_seed=seed, mc_trials=trials)
        X = np.random.default_rng(n).standard_normal((6, n))
        cols = [0, 1, 5, params.D - 1]
        for i in range(2, d + 1):
            vals, errs, exact = grid.row_batch(i, X, cols)
            want_vals, want_errs = reference_row(p, params, i, X, cols,
                                                 trials, seed)
            assert not exact
            for got, want in ((vals, want_vals), (errs, want_errs)):
                assert np.all(np.abs(got - want)
                              <= 1e-12 * np.abs(want) + 1e-300), (i, got, want)

    def test_rows_above_degree_read_zero(self):
        params = choose_params(2, 3, 0.2, lambda_exp=1.0, M=16)
        p = random_poly(2, 1, np.random.default_rng(11))
        grid = StatGrid(p, params, master_seed=3, mc_trials=50)
        X = np.random.default_rng(12).standard_normal((4, 2))
        for i in (2, 3):
            vals, errs, _ = grid.row_batch(i, X, [0, 1, params.D])
            assert np.array_equal(vals, np.zeros_like(vals))
            assert np.array_equal(errs, np.zeros_like(errs))

    def test_column_count_invariant(self):
        # criterion 7's grid: a wider read must not change any column's bits
        seed = 20240817
        params = choose_params(3, 2, 0.2, lambda_exp=2.0)
        p = random_poly(3, 2, substream(seed, "acc7"))
        grid = StatGrid(p, params, master_seed=seed, mc_trials=10_000)
        X = substream(seed, "nb-x").standard_normal((20, 3))
        cols = list(range(params.D + 1))
        for i in range(params.d + 1):
            vals, errs, _ = grid.row_batch(i, X, cols)
            for c, j in enumerate(cols):
                one_vals, one_errs, _ = grid.row_batch(i, X, [j])
                assert np.array_equal(one_vals[:, 0], vals[:, c]), (i, j)
                assert np.array_equal(one_errs[:, 0], errs[:, c]), (i, j)

    def test_value_only_read_matches_row_batch(self):
        # the mollifier's read skips the stderrs and keeps row_batch's bits,
        # exact and Monte Carlo rows, on full and partial column lists
        params = choose_params(3, 3, 0.2, lambda_exp=1.0, M=16)
        p = random_poly(3, 3, np.random.default_rng(15))
        grid = StatGrid(p, params, master_seed=5, mc_trials=2000)
        X = np.random.default_rng(16).standard_normal((150, 3))
        for cols in (list(range(params.D + 1)), [0, 2, params.D], [1]):
            for i in range(params.d + 1):
                vals, _, _ = grid.row_batch(i, X, cols)
                got, err = grid._read_row(i, X, cols, errors=False)
                assert err is None
                assert np.array_equal(got, vals), (i, cols)
        for i in (2, 3):  # both Monte Carlo rows span several blocks
            deg, Q = grid._row_coeffs(i)
            assert len(X) > hermite.BLOCK_ELEMS // ((deg + 1) * len(Q))

    @pytest.mark.parametrize("errors", [False, True])
    @pytest.mark.parametrize("coupling", ["analysis", None])
    def test_read_matches_reference(self, errors, coupling):
        # bit for bit the first implementation's read, on a d = 3 grid at
        # the default trials: rows 2 and 3 are Monte Carlo rows whose blocks
        # (8 and 26 centers) split the 30 centers, exact rows 0 and 1 take
        # one block; the mollifier's two column ranges, unsorted and
        # repeated columns, and the last column alone
        kw = {"coupling": coupling} if coupling else {"lambda_exp": 1.0,
                                                      "M": 16}
        params = choose_params(3, 3, 0.2, **kw)
        p = random_poly(3, 3, np.random.default_rng(17))
        grid = StatGrid(p, params, master_seed=9)
        X = np.random.default_rng(18).standard_normal((30, 3))
        D = params.D
        for cols in (list(range(D)), list(range(D + 1)),
                     [5, 0, D, 5, 2, 2], [D]):
            for i in range(params.d + 1):
                got, got_err = grid._read_row(i, X, cols, errors)
                want, want_err = reference_read_row(grid, i, X, cols, errors)
                assert np.array_equal(got, want), (i, cols)
                if errors:
                    assert np.array_equal(got_err, want_err), (i, cols)
                else:
                    assert got_err is None
        steps = [hermite.BLOCK_ELEMS // ((deg + 1) * len(Q))
                 for deg, Q in map(grid._row_coeffs, range(4))]
        assert steps[2] == 8 and steps[3] < len(X) <= min(steps[:2])

    def test_read_matches_reference_on_high_degree_rows(self):
        # more Hermite levels than centers and one center per block
        params = choose_params(2, 4, 0.2, lambda_exp=1.0, M=16)
        p = random_poly(2, 4, np.random.default_rng(19))
        grid = StatGrid(p, params, master_seed=3, mc_trials=30_000)
        X = np.random.default_rng(20).standard_normal((3, 2))
        cols = [params.D, 1, 0]
        for i in range(params.d + 1):
            got = grid._read_row(i, X, cols, errors=True)
            want = reference_read_row(grid, i, X, cols, errors=True)
            assert np.array_equal(got[0], want[0]), i
            assert np.array_equal(got[1], want[1]), i
        deg, Q = grid._row_coeffs(2)
        assert hermite.BLOCK_ELEMS // ((deg + 1) * len(Q)) == 1

    @pytest.mark.parametrize("i, cols, bad", [
        (1.5, [0], 1.5), (1.0, [0], 1.0), (True, [0], True),
        (np.float64(1.0), [0], np.float64(1.0)), (1, [1.5], 1.5),
        (1, [0, 1.0], 1.0), (1, [True], True),
        (1, [np.bool_(True)], np.bool_(True)),
        (1, np.array([0.0, 1.0]), np.float64(0.0))])
    def test_row_batch_rejects_non_integer_index(self, i, cols, bad):
        grid = StatGrid(random_poly(2, 2, np.random.default_rng(21)),
                        make_params(), master_seed=1, mc_trials=20)
        with pytest.raises(ValueError,
                           match=re.escape(f"{bad!r} is not an integer")):
            grid.row_batch(i, np.zeros((1, 2)), cols)

    def test_row_batch_rejects_empty_columns(self):
        grid = StatGrid(random_poly(2, 2, np.random.default_rng(22)),
                        make_params(), master_seed=1, mc_trials=20)
        for cols in ([], np.array([], dtype=int)):
            with pytest.raises(ValueError, match="no column to read"):
                grid.row_batch(1, np.zeros((1, 2)), cols)

    def test_row_batch_accepts_numpy_integers(self):
        params = make_params()
        grid = StatGrid(random_poly(2, 2, np.random.default_rng(23)),
                        params, master_seed=1, mc_trials=20)
        X = np.random.default_rng(24).standard_normal((4, 2))
        for i in range(params.d + 1):
            want = grid.row_batch(i, X, [0, 3, params.D])
            for got in (grid.row_batch(np.int64(i), X,
                                       np.array([0, 3, params.D])),
                        grid.row_batch(np.int32(i), X,
                                       [np.uint8(0), np.int16(3),
                                        np.int64(params.D)])):
                assert np.array_equal(got[0], want[0])
                assert np.array_equal(got[1], want[1])
                assert got[2] == want[2]

    def test_cold_row_build_memory_bounded(self):
        # zoom and linearization tables plus the sample blocks stay small;
        # the squares themselves are 2000 x 210 coefficients (3.4 MB)
        params = choose_params(6, 4, 0.2, lambda_exp=1.0, M=16)
        p = random_poly(6, 4, np.random.default_rng(13))
        grid = StatGrid(p, params, master_seed=1, mc_trials=2000)
        for cache in (hermite._basis, hermite._square_table,
                      gaussops._zoom_pairs):
            cache.cache_clear()
        tracemalloc.start()
        try:
            grid.row_batch(2, np.zeros((1, 6)), [0])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    @pytest.mark.parametrize("X", [np.zeros((3, 3)), np.zeros(2),
                                   np.array([[0.0, np.nan]]),
                                   np.array([[np.inf, 0.0]])])
    def test_bad_centers_raise(self, X):
        p = random_poly(2, 2, np.random.default_rng(14))
        grid = StatGrid(p, make_params(), master_seed=1, mc_trials=20)
        for i in range(3):
            with pytest.raises(ValueError, match="centers"):
                grid.row_batch(i, X, [0])


class TestIdentities:
    def test_dirac_row(self):
        p = random_poly(2, 2, RNG)
        rep = stat_identities_check(p, make_params(), 0, 0,
                                    np.array([0.3, -0.8]), trials=400,
                                    master_seed=9)
        assert rep["pass"], rep

    def test_row_one(self):
        p = random_poly(2, 2, RNG)
        rep = stat_identities_check(p, make_params(), 1, 1,
                                    np.array([0.1, 0.5]), trials=800,
                                    master_seed=10)
        assert rep["pass"], rep

    def test_degenerate_constant(self):
        p = HermitePoly.constant(2, 2.0)
        rep = stat_identities_check(p, make_params(), 1, 0, np.zeros(2),
                                    trials=100, master_seed=11)
        assert rep["pass"]
        assert rep["noise_column"]["lhs"] == 0.0


class TestCsv:
    def test_header_and_shape(self):
        p = random_poly(2, 1, RNG)
        params = choose_params(2, 1, 0.2, lambda_exp=1.0, M=16)
        grid = StatGrid(p, params, master_seed=12, mc_trials=50)
        X = RNG.standard_normal((2, 2))
        text = grid_csv(grid, X, cols=[0, 1])
        lines = text.strip().split("\n")
        assert lines[0] == "i,j,x_id,value,stderr,exact"
        assert len(lines) == 1 + (params.d + 1) * 2 * 2

    def test_deterministic(self):
        p = random_poly(2, 1, RNG)
        params = choose_params(2, 1, 0.2, lambda_exp=1.0, M=16)
        X = substream(1, "x").standard_normal((2, 2))
        a = grid_csv(StatGrid(p, params, master_seed=3, mc_trials=50), X, [0])
        b = grid_csv(StatGrid(p, params, master_seed=3, mc_trials=50), X, [0])
        assert a == b
