import dataclasses
import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import betainc

from ptfprg.gaussops import mult_close
from ptfprg.hermite import HermitePoly, random_poly
from ptfprg.mollifier import (Check, _soft_factors, analysis_checks,
                              analysis_checks_eval_batch, mollifier_checks,
                              mollifier_eval_batch, sigma)
from ptfprg.prg import choose_params
from ptfprg.statgrid import StatGrid

RNG = np.random.default_rng(50)


class TestSigma:
    def test_endpoints_and_center(self):
        for order in (2, 4, 6):
            assert sigma(-1.0, order) == 0.0
            assert sigma(1.0, order) == 1.0
            assert sigma(0.0, order) == pytest.approx(0.5)

    def test_clamped_outside(self):
        assert sigma(-5.0, 4) == 0.0
        assert sigma(7.0, 4) == 1.0

    def test_monotone_on_grid(self):
        t = np.linspace(-1.2, 1.2, 1000)
        v = sigma(t, 4)
        assert np.all(np.diff(v) >= 0)

    def test_low_derivatives_vanish_at_edges(self):
        # central finite differences for the first two derivatives
        for order in (4, 5):
            def s(t):
                return sigma(t, order)
            h = 1e-3
            for t0 in (-1.0, 1.0):
                d1 = (s(t0 + h) - s(t0 - h)) / (2 * h)
                d2 = (s(t0 + h) - 2 * s(t0) + s(t0 - h)) / h**2
                assert abs(d1) <= 1e-6
                assert abs(d2) <= 1e-6

    # bit for bit where scipy's betainc is Boost's ibeta, whose finite sum
    # sigma runs; an older betainc is held to a relative tolerance
    BOOST = "ibeta" in (betainc.__doc__ or "")

    def test_equals_betainc(self):
        rng = np.random.default_rng(19)
        near = 10.0 ** -np.linspace(0.0, 16.0, 161)
        t = np.concatenate([
            rng.uniform(-1.0, 1.0, 300), -1.0 + near, 1.0 - near,
            [np.nextafter(-1.0, 0.0), np.nextafter(1.0, 0.0), -1.0, 1.0,
             np.nextafter(-1.0, -2.0), np.nextafter(1.0, 2.0), -3.0, 3.0,
             -np.inf, np.inf, 0.0]])
        for order in range(4, 13):
            ref = betainc(order + 1, order + 1,
                          np.clip((t + 1.0) / 2.0, 0.0, 1.0))
            got = sigma(t, order)
            if self.BOOST:
                assert np.array_equal(got, ref), order
            else:
                np.testing.assert_allclose(got, ref, rtol=1e-13, atol=0.0)
            assert [sigma(float(v), order) for v in t[-15:]] == \
                got[-15:].tolist()

    @pytest.mark.parametrize("t, order", [
        (math.nan, 4), ([0.1, math.nan], 4), (0.3, -3), (0.3, 2.5),
        (0.3, "4"), (0.3, True), (0.3, None)])
    def test_rejects_nan_and_bad_order(self, t, order):
        with pytest.raises(ValueError):
            sigma(t, order)

    def test_all_derivatives_vanish_analytically(self):
        # sigma' is proportional to (1 - t^2)^order; its first order-1
        # derivatives at +-1 are exactly zero by the polynomial factorization
        order = 4
        poly = np.polynomial.Polynomial([1.0, 0.0, -1.0]) ** order
        for j in range(order):
            d = poly.deriv(j)
            assert d(1.0) == pytest.approx(0.0, abs=1e-9)
            assert d(-1.0) == pytest.approx(0.0, abs=1e-9)


def soft(check, su, sv, order=4):
    """One soft factor, from the batch kernel on length-1 arrays."""
    return float(_soft_factors(check, [su], [sv], order)[0])


class TestSoftCheck:
    CHECK = Check("horz>[0,0]", (0, 0), (0, 1), gamma=2.0, delta=0.1)

    def test_at_threshold_is_half(self):
        assert soft(self.CHECK, 2.0 * 3.3, 3.3) == pytest.approx(0.5)

    def test_zero_over_zero_passes(self):
        assert soft(self.CHECK, 0.0, 0.0) == 1.0

    def test_positive_over_zero_passes(self):
        assert soft(self.CHECK, 1e-30, 0.0) == 1.0

    def test_zero_over_positive_fails(self):
        assert soft(self.CHECK, 0.0, 1e-30) == 0.0

    def test_saturation_exact(self):
        gamma, delta = self.CHECK.gamma, self.CHECK.delta
        sv = 0.7
        assert soft(self.CHECK, math.exp(2 * delta) * gamma * sv, sv) == 1.0
        assert soft(self.CHECK, math.exp(delta) * gamma * sv, sv) == 1.0
        assert soft(self.CHECK, math.exp(-delta) * gamma * sv, sv) == 0.0

    def test_rejects_negative_statistics(self):
        with pytest.raises(ValueError):
            soft(self.CHECK, -1.0, 1.0)
        with pytest.raises(ValueError):
            soft(self.CHECK, 1.0, math.nan)
        with pytest.raises(ValueError):
            _soft_factors(self.CHECK, [1.0, 2.0], [3.0, -1e-300], 4)

    # sha256 of the factors below as a scalar soft check (math.log per
    # pair) computed them before the batch kernel existed
    GOLDEN = "90d8f329ce5ecb434d58d3613d6201197d10fa6bf81b530ea55939e470f69b99"

    @staticmethod
    def soft_table():
        """(check, su, sv): every check of a d = 2 analysis set with 64
        statistic pairs each, most inside the smooth band, plus 0/0, 0/pos
        and pos/0."""
        params = choose_params(3, 2, 0.2, coupling="analysis")
        rng = np.random.default_rng(2024)
        table = []
        for check in mollifier_checks(params):
            sv = 10.0 ** rng.uniform(-3.0, 3.0, 64)
            su = sv * check.gamma * np.exp(check.delta
                                           * rng.uniform(-1.5, 1.5, 64))
            su[:3], sv[:3] = (0.0, 0.0, 2.5), (0.0, 1e-30, 0.0)
            table.append((check, su, sv))
        return table

    def test_golden_factors(self):
        table = self.soft_table()
        single = [soft(c, a, b, order=o) for o in (4, 7)
                  for c, su, sv in table
                  for a, b in zip(su.tolist(), sv.tolist())]
        batch = np.concatenate([_soft_factors(c, su, sv, o) for o in (4, 7)
                                for c, su, sv in table])
        for got in (np.array(single), batch):
            assert hashlib.sha256(got.tobytes()).hexdigest() == self.GOLDEN
        assert np.mean((batch > 0.0) & (batch < 1.0)) > 0.5

    def test_block_matches_columns(self):
        # the mollifier's grouped call: a (B, C) block of adjacent-column
        # views gives each column's factors bit for bit, 0/0, pos/0 and
        # 0/pos entries included
        check, rng = self.CHECK, np.random.default_rng(60)
        steps = check.gamma * np.exp(check.delta * rng.uniform(-1.5, 1.5,
                                                               (40, 6)))
        v = np.cumprod(np.column_stack([10.0 ** rng.uniform(-3, 3, 40),
                                        1.0 / steps]), axis=1)
        v[0, 2:4] = 0.0  # pos/0, 0/0, then 0/pos along row 0
        v[1, :] = 0.0
        for su, sv in ((v[:, :-1], v[:, 1:]), (v[:, 1:], v[:, :-1])):
            block = _soft_factors(check, su, sv, 4)
            cols = np.column_stack([_soft_factors(check, su[:, c], sv[:, c], 4)
                                    for c in range(su.shape[1])])
            assert block.shape == su.shape
            assert block.tobytes() == cols.tobytes()
        fwd = _soft_factors(check, v[:, :-1], v[:, 1:], 4)
        assert list(fwd[0, 1:4]) == [1.0, 1.0, 0.0]
        assert ((fwd > 0.0) & (fwd < 1.0)).sum() >= 50

    @settings(max_examples=50, deadline=None)
    @given(st.floats(1e-6, 1e6), st.floats(1e-6, 1e6), st.floats(1e-6, 1e6))
    def test_monotone_in_operands(self, su, sv, factor):
        up = soft(self.CHECK, su * (1 + factor), sv)
        base = soft(self.CHECK, su, sv)
        down = soft(self.CHECK, su, sv * (1 + factor))
        assert up >= base - 1e-12
        assert down <= base + 1e-12


class TestCheckCollection:
    def test_counts(self):
        assert len(mollifier_checks(choose_params(2, 1, 0.2))) == 33
        assert len(mollifier_checks(choose_params(2, 2, 0.2))) == 146

    def test_fresh_list_per_call(self):
        params = choose_params(2, 2, 0.2)
        first = mollifier_checks(params)
        first.clear()
        assert len(mollifier_checks(params)) == 146

    def test_d0_no_checks(self):
        # degree-0 base: D = 1, no diagonal and no horizontal checks
        params = choose_params(2, 1, 0.2)
        zero_d = params.__class__(**{**params.__dict__, "d": 0, "D": 1})
        assert mollifier_checks(zero_d) == []

    def test_operand_positions(self):
        params = choose_params(2, 2, 0.2)
        checks = mollifier_checks(params)
        diag = [c for c in checks if c.label.startswith("diag")]
        assert [(c.label, c.u, c.v) for c in diag] == [
            ("diag[0]", (0, 1), (1, 0)), ("diag[1]", (1, 1), (2, 0))]
        assert checks[:2] == diag
        horz = checks[2:]
        assert horz[0][:3] == ("horz>[0,0]", (0, 0), (0, 1))
        assert horz[1][:3] == ("horz<[0,0]", (0, 1), (0, 0))
        assert horz[-1][:3] == (f"horz<[2,{params.D - 2}]",
                                (2, params.D - 1), (2, params.D - 2))
        assert all(c.delta == params.delta_horz for c in horz)
        assert all(c.gamma == pytest.approx(math.exp(-2 * params.delta_horz))
                   for c in horz)


def map_cases():
    """(params, grid, centers): analysis-coupled grids whose lambda_hat is
    moved down so that the diagonal soft checks put many centers inside the
    smooth band, and a prg-coupled grid where horizontal checks fail."""
    cases = []
    for n, d, shift, kw in [(2, 1, 5.0, {"coupling": "analysis"}),
                            (3, 1, 5.0, {"coupling": "analysis"}),
                            (2, 2, 9.0, {"coupling": "analysis"}),
                            (2, 2, 0.0, {"lambda_exp": 2.0})]:
        params = choose_params(n, d, 0.2, **kw)
        params = dataclasses.replace(
            params, lambda_hat=params.lambda_hat * math.exp(-shift))
        rng = np.random.default_rng(70 + n + d)
        p = random_poly(n, d, rng)
        grid = StatGrid(p, params, master_seed=n + d, mc_trials=100)
        cases.append((p, params, grid, rng.standard_normal((30, n))))
    return cases


class TestMollifierEval:
    # sha256 of mollifier_eval_batch's (value, sign, failed_checks) and
    # analysis_checks_eval_batch's first_failure over map_cases(), recorded
    # when a soft check was a CheckSpec with kind and swap fields
    MAP_GOLDEN = \
        "3a855d057cf9756cdf6f4d11b81b19036e7af5e4eb8c2313923bd07fa745fb3d"

    def test_golden_map(self):
        h = hashlib.sha256()
        values = []
        for p, params, grid, X in map_cases():
            mvs = mollifier_eval_batch(p, params, X, grid=grid)
            reps = analysis_checks_eval_batch(p, params, X, grid=grid)
            v = np.array([mv.value for mv in mvs])
            values.append(v)
            h.update(v.tobytes())
            h.update(json.dumps([[mv.sign, mv.failed_checks, r.first_failure]
                                 for mv, r in zip(mvs, reps)]).encode())
        assert h.hexdigest() == self.MAP_GOLDEN
        values = np.concatenate(values)
        assert ((values > 0.0) & (values < 1.0)).sum() >= 10
        assert (values == 1.0).any() and (values == 0.0).any()

    def test_constant_poly_gives_one(self):
        params = choose_params(2, 2, 0.2, coupling="analysis")
        p = HermitePoly.constant(2, 2.5)
        grid = StatGrid(p, params, master_seed=1)
        mv = mollifier_eval_batch(p, params, np.array([[0.2, -0.7]]),
                                  grid=grid)[0]
        assert mv.value == 1.0
        assert mv.sign == 1
        assert mv.failed_checks == []

    def test_value_in_unit_interval(self):
        params = choose_params(2, 2, 0.2, lambda_exp=2.0)
        p = random_poly(2, 2, RNG)
        grid = StatGrid(p, params, master_seed=2, mc_trials=300)
        X = RNG.standard_normal((8, 2))
        for mv in mollifier_eval_batch(p, params, X, grid=grid):
            assert 0.0 <= mv.value <= 1.0
            assert mv.sign in (-1, 0, 1)

    def test_scale_invariance_power_of_two_exact(self):
        params = choose_params(2, 2, 0.2, coupling="analysis")
        p = random_poly(2, 2, RNG)
        X = RNG.standard_normal((10, 2))

        def vals(poly):
            grid = StatGrid(poly, params, master_seed=3, mc_trials=400)
            return [v.value for v in mollifier_eval_batch(poly, params, X,
                                                          grid=grid)]

        base = vals(p)
        for c in (0.5, 4.0, 0.25):
            assert vals(p.scale(c)) == base

    def test_batch_matches_per_point_loop(self):
        params = choose_params(2, 2, 0.2, lambda_exp=2.0)
        p = random_poly(2, 2, np.random.default_rng(53))
        grid = StatGrid(p, params, master_seed=10, mc_trials=200)
        X = np.random.default_rng(54).standard_normal((12, 2))
        cols = list(range(params.D))
        s = [grid.row_batch(i, X, cols)[0] for i in range(params.d + 1)]
        mvs = mollifier_eval_batch(p, params, X, grid=grid)
        for b, mv in enumerate(mvs):
            value, failed = 1.0, []
            for check in mollifier_checks(params):
                (iu, ju), (iv, jv) = check.u, check.v
                f = soft(check, float(s[iu][b, ju]), float(s[iv][b, jv]))
                if f != 1.0:
                    failed.append(check.label)
                value *= f
            assert (mv.value, mv.failed_checks) == (value, failed)
        assert any(mv.failed_checks for mv in mvs)

    @pytest.mark.parametrize("X", [np.zeros((2, 3)), np.zeros(2),
                                   np.array([[0.1, np.nan]]),
                                   np.array([[-np.inf, 0.0]])])
    def test_bad_centers_raise(self, X):
        params = choose_params(2, 2, 0.2, lambda_exp=2.0)
        p = random_poly(2, 2, np.random.default_rng(55))
        grid = StatGrid(p, params, master_seed=11, mc_trials=20)
        for fn in (mollifier_eval_batch, analysis_checks_eval_batch):
            with pytest.raises(ValueError, match="centers"):
                fn(p, params, X, grid=grid)

    @pytest.mark.parametrize("fn", [mollifier_eval_batch,
                                    analysis_checks_eval_batch])
    def test_grid_of_other_poly_or_params_raises(self, fn):
        params = choose_params(2, 2, 0.2, lambda_exp=2.0)
        p = random_poly(2, 2, np.random.default_rng(56))
        grid = StatGrid(p, params, master_seed=12, mc_trials=20)
        X = np.zeros((3, 2))
        others = [random_poly(2, 2, np.random.default_rng(57)), p.scale(2.0),
                  HermitePoly(2, {(1, 0): 1.0})]
        for q in others:
            with pytest.raises(ValueError, match="another polynomial"):
                fn(q, params, X, grid=grid)
        q3 = random_poly(3, 2, np.random.default_rng(58))
        with pytest.raises(ValueError, match="another polynomial"):
            fn(q3, params, np.zeros((3, 3)), grid=grid)
        for other in (choose_params(2, 2, 0.2, coupling="analysis"),
                      dataclasses.replace(params, delta_anal=0.5,
                                          delta_horz=0.5)):
            with pytest.raises(ValueError, match="another parameter set"):
                fn(p, other, X, grid=grid)
        # equal copies of both are the grid's own
        same = HermitePoly(2, dict(p.coeffs))
        assert len(fn(same, dataclasses.replace(params), X, grid=grid)) == 3

    def test_signed_indicators(self):
        params = choose_params(1, 1, 0.2, coupling="analysis")
        p = HermitePoly(1, {(1,): 1.0})  # sign flips at 0
        grid = StatGrid(p, params, master_seed=4)
        mvs = mollifier_eval_batch(p, params, np.array([[2.0], [-2.0]]),
                                   grid=grid)
        assert [mv.sign for mv in mvs] == [1, -1]


class TestAnalysisChecks:
    def test_ordering_bottom_first_then_interleaved(self):
        params = choose_params(2, 2, 0.2)
        order = analysis_checks(params)
        D = params.D
        assert order[0] == ("horizontal", 2, 1)
        assert order[D - 2] == ("horizontal", 2, D - 1)
        assert order[D - 1] == ("diagonal", 1, 0)
        assert order[D] == ("horizontal", 1, 1)
        kinds = [k for k, _, _ in order]
        assert kinds.count("diagonal") == 2
        assert len(order) == 3 * (D - 1) + 2

    def test_constant_poly_all_hold(self):
        params = choose_params(2, 2, 0.2, coupling="analysis")
        p = HermitePoly.constant(2, -1.5)
        grid = StatGrid(p, params, master_seed=5)
        rep = analysis_checks_eval_batch(p, params, np.zeros((1, 2)),
                                         grid=grid)[0]
        assert rep.first_failure is None
        assert all(holds for _, holds in rep.results)

    def test_bottom_row_never_fails(self):
        # row-d statistics all reduce to one shared constant
        params = choose_params(2, 2, 0.2, lambda_exp=2.0)
        p = random_poly(2, 2, RNG)
        grid = StatGrid(p, params, master_seed=6, mc_trials=200)
        X = RNG.standard_normal((5, 2))
        for rep in analysis_checks_eval_batch(p, params, X, grid=grid):
            for label, holds in rep.results:
                if label.startswith("horz[2,"):
                    assert holds

    def test_first_failure_reported_in_order(self):
        params = choose_params(2, 2, 0.2, lambda_exp=2.0)
        p = random_poly(2, 2, RNG)
        grid = StatGrid(p, params, master_seed=7, mc_trials=200)
        rep = analysis_checks_eval_batch(p, params, RNG.standard_normal((1, 2)),
                                         grid=grid)[0]
        failed = [label for label, holds in rep.results if not holds]
        assert rep.first_failure == (failed[0] if failed else None)

    def test_batch_matches_per_point_loop(self):
        params = choose_params(2, 2, 0.2, lambda_exp=2.0)
        p = random_poly(2, 2, np.random.default_rng(51))
        grid = StatGrid(p, params, master_seed=9, mc_trials=200)
        X = np.random.default_rng(52).standard_normal((6, 2))
        cols = list(range(params.D + 1))
        s = [grid.row_batch(i, X, cols)[0] for i in range(params.d + 1)]
        reps = analysis_checks_eval_batch(p, params, X, grid=grid)
        for b, rep in enumerate(reps):
            want = []
            for kind, i, j in analysis_checks(params):
                if kind == "horizontal":
                    want.append((f"horz[{i},{j}]", bool(mult_close(
                        s[i][b, j], s[i][b, j + 1], params.delta_anal))))
                else:
                    want.append((f"diag[{i}]", bool(
                        s[i + 1][b, 1] <= 100 * params.lambda_hat * s[i][b, 2])))
            assert rep.results == want
        assert any(r.first_failure is not None for r in reps)

    def test_row_closeness_matches_per_cell(self):
        # one closeness call per row gives each (i, j) check's result; rows
        # 2-3 of the degree-1 polynomial read 0 everywhere (0/0 holds)
        cases = [case[:3] for case in map_cases()]
        params = choose_params(2, 3, 0.2, lambda_exp=2.0)
        p = random_poly(2, 1, np.random.default_rng(59))
        cases.append((p, params, StatGrid(p, params, master_seed=13,
                                          mc_trials=50)))
        seen = set()
        for p, params, grid in cases:
            X = np.random.default_rng(61).standard_normal((25, p.n))
            D, nu = params.D, params.delta_anal
            cols = list(range(D + 1))
            s = [grid.row_batch(i, X, cols)[0] for i in range(params.d + 1)]
            rows = [mult_close(v[:, 1:D], v[:, 2:D + 1], nu) for v in s]
            holds = np.array([[h for _, h in rep.results] for rep in
                              analysis_checks_eval_batch(p, params, X,
                                                         grid=grid)])
            for k, (kind, i, j) in enumerate(analysis_checks(params)):
                if kind == "horizontal":
                    cell = mult_close(s[i][:, j], s[i][:, j + 1], nu)
                    assert np.array_equal(rows[i][:, j - 1], cell)
                    assert np.array_equal(holds[:, k], cell)
                    seen.update(cell.tolist())
        assert seen == {True, False}
        # the last case: rows 2-3 of the degree-1 polynomial are all 0
        assert (s[3] == 0.0).all() and rows[3].all()

    def test_theorem_regime_failure_rate(self):
        # at the coupled parameters the per-check failure frequency stays
        # within the union of the two theorem budgets
        params = choose_params(2, 2, 0.2, coupling="analysis")
        p = random_poly(2, 2, RNG)
        grid = StatGrid(p, params, master_seed=8, mc_trials=400)
        X = RNG.standard_normal((60, 2))
        reps = analysis_checks_eval_batch(p, params, X, grid=grid)
        frac = np.mean([r.first_failure is not None for r in reps])
        budget = params.eps / (8 * params.d) + \
            params.eps / (8 * (params.d + 1) * params.D)
        err = math.sqrt(0.25 / len(reps))
        assert frac <= budget + 4 * err
