import math
import warnings
from fractions import Fraction
from math import comb

import numpy as np
import pytest

from ptfprg.gaussops import amplified_derivative, noise_op, zoom
from ptfprg.hermite import HermitePoly, random_poly
from ptfprg.verify import (clean_fraction, derived_inner_poly, jigsaw_check,
                           jigsaw_sides, lagrange_l0, smoothing_chain_experiment,
                           stability_closed_forms)
from verify_reference import reference_clean_fraction, reference_lagrange_l0

RNG = np.random.default_rng(70)


class TestCleanFraction:
    def test_frozen_d1_j1(self):
        assert clean_fraction(1, 1) == Fraction(3, 2)

    def test_bounded_by_two_up_to_d20(self):
        for d in range(1, 21):
            for j in range(1, 2 * d + 2):
                assert abs(clean_fraction(j, d)) <= 2

    def test_sign_alternates_with_j(self):
        for d in (2, 5):
            for j in range(1, 2 * d + 2):
                assert (clean_fraction(j, d) > 0) == (j % 2 == 1)

    def test_range_check(self):
        with pytest.raises(ValueError):
            clean_fraction(0, 3)
        with pytest.raises(ValueError):
            clean_fraction(8, 3)

    def test_exact_rational(self):
        v = clean_fraction(2, 2)
        assert isinstance(v, Fraction)
        # independent big-integer product
        num = den = 1
        for i in (1, 3, 4, 5):
            num *= i * i
            den *= i * i - 4
        assert v == Fraction(num, den)

    def test_equals_per_factor_product(self):
        for d in range(1, 21):
            for j in range(1, 2 * d + 2):
                assert clean_fraction(j, d) == reference_clean_fraction(j, d)

    def test_equals_binomial_closed_form(self):
        # prod_{i != j} i^2/(i^2 - j^2) = 2 (-1)^(j-1) C(2N, N-j) / C(2N, N)
        for d in range(1, 41):
            N = 2 * d + 1
            for j in range(1, N + 1):
                assert clean_fraction(j, d) == Fraction(
                    2 * (-1) ** (j - 1) * comb(2 * N, N - j), comb(2 * N, N))


class TestLagrange:
    def test_partition_of_unity(self):
        for d in (1, 3, 6):
            vals = lagrange_l0(d, 1e-11)
            assert sum(vals) == pytest.approx(1.0, abs=1e-9)

    def test_bounded_by_three(self):
        for d in range(1, 9):
            assert max(abs(v) for v in lagrange_l0(d, 1e-11)) <= 3.0

    def test_small_q_limit_matches_clean_fraction(self):
        for d in (1, 2, 4):
            vals = lagrange_l0(d, 1e-12)
            for j in range(1, 2 * d + 2):
                assert vals[j - 1] == pytest.approx(
                    float(clean_fraction(j, d)), abs=1e-6)

    def test_out_of_regime_warns_but_computes(self):
        with warnings.catch_warnings(record=True) as w:
            warnings.simplefilter("always")
            vals = lagrange_l0(2, 1e-2)
        assert len(w) == 1
        assert len(vals) == 5

    def test_invalid_q(self):
        with pytest.raises(ValueError):
            lagrange_l0(2, 0.0)

    def test_equals_mpmath_bit_for_bit(self):
        qs = [*np.logspace(-14, -2, 61).tolist(), 1e-11, 1e-12]
        with warnings.catch_warnings():  # q above 1/d^10 warns
            warnings.simplefilter("ignore")
            got = [lagrange_l0(d, q) for d in range(1, 11) for q in qs]
        want = [reference_lagrange_l0(d, q) for d in range(1, 11) for q in qs]
        assert sum(map(len, got)) == 7560
        assert got == want

    @pytest.mark.parametrize("d", [10, 12])
    def test_coinciding_nodes_raise(self, d):
        # at q = 0.5 the top nodes (2/q)(1 - 2^{-i^2/2}) round to 2/q at 60
        # digits; mpmath's values ran to +-inf at d = 10 and it divided by
        # zero at d = 12
        with pytest.warns(UserWarning, match="regime"):
            with pytest.raises(ValueError, match=f"d = {d}, q = 0.5"):
                lagrange_l0(d, 0.5)


class TestSmoothingChain:
    def test_constant_trivial(self):
        r0 = HermitePoly.constant(2, 4.0)
        rep = smoothing_chain_experiment(r0, q=1e-6, x=np.zeros(2), gamma=1e-4)
        assert rep["hypothesis_holds"] and rep["conclusion_holds"]

    def test_square_of_linear_tiny_q(self):
        rng = np.random.default_rng(1)
        for _ in range(5):
            p = random_poly(2, 1, rng)
            r0 = p * p
            d = 1
            gamma = 1.0 / (12.0 * 9 * 3 * 2)
            rep = smoothing_chain_experiment(r0, q=1e-9,
                                         x=rng.standard_normal(2),
                                         gamma=gamma)
            assert rep["applicable"]
            assert rep["conclusion_holds"]

    def test_adversarial_large_q_not_applicable(self):
        heavy = HermitePoly(1, {(2,): 1.0})
        rep = smoothing_chain_experiment(heavy * heavy, q=0.5,
                                     x=np.array([0.05]), gamma=1e-4)
        assert not rep["applicable"]
        assert rep["verified"]  # non-applicability is reported, not asserted

    def test_conclusion_uses_unit_band(self):
        r0 = HermitePoly.constant(1, 1.0) + HermitePoly(1, {(2,): 0.01})
        rep = smoothing_chain_experiment(r0, q=1e-8, x=np.array([0.3]),
                                     gamma=1e-3)
        assert rep["r0"] == pytest.approx(rep["r1"], rel=1e-6)


class TestJigsaw:
    def test_full_grid(self):
        grid = [0.1 * t for t in range(1, 10)]
        for a in range(11):
            for R in (1.0, 2.0, 4.0):
                for lam in grid:
                    for rho in grid:
                        assert jigsaw_check(a, R, lam, rho)

    def test_a_zero_both_sides_vanish(self):
        lhs, rhs = jigsaw_sides(0, 2.0, 0.3, 0.5)
        assert lhs == 0.0 and rhs == 0.0

    def test_r_one_strengthened_form_is_equality(self):
        # replacing the subtracted base with R^2 (1 - rho) makes both sides
        # identical at R = 1
        for a in (1, 4, 9):
            for lam in (0.2, 0.8):
                for rho in (0.3, 0.7):
                    lhs = (lam * rho + 1 - rho) ** a - (1 - rho) ** a
                    rhs = (1.0 * lam * rho + 1.0 * (1 - rho)) ** a \
                        - (1.0 * (1 - rho)) ** a
                    assert abs(lhs - rhs) <= 1e-12

    def test_rejects_bad_ranges(self):
        with pytest.raises(ValueError):
            jigsaw_check(2, 0.5, 0.3, 0.5)
        with pytest.raises(ValueError):
            jigsaw_check(2, 2.0, 0.3, 1.0)


class TestStabilityForms:
    def test_constant_h_vanishes(self):
        f = stability_closed_forms(HermitePoly.constant(2, 3.0), 0.5, 0.3, 0.5)
        assert f.p_lhs == 0.0 and f.p_rhs == 0.0

    def test_degenerate_unit_amplification_no_noise(self):
        f = stability_closed_forms(random_poly(1, 2, RNG), 1.0, 0.0, 0.5)
        assert f.sigma_lhs == pytest.approx(f.tau_lhs)
        assert f.p_lhs == pytest.approx(0.0, abs=1e-12)

    def test_ordering_at_unit_amplification(self):
        for _ in range(5):
            h = random_poly(2, 3, RNG)
            f = stability_closed_forms(h, 1.0, 0.4, 0.6)
            assert f.p_lhs <= f.p_rhs + 1e-12 * max(1.0, abs(f.p_rhs))

    def test_ordering_reversal_below_unit(self):
        f = stability_closed_forms(HermitePoly(1, {(2,): 1.0}), 0.3, 0.2, 0.1)
        assert f.p_lhs > f.p_rhs

    def test_rejects_bad_r_prime(self):
        with pytest.raises(ValueError):
            stability_closed_forms(HermitePoly.constant(1, 1.0), 1.5, 0.2, 0.5)

    def test_closed_forms_match_simulation(self):
        # smoothing with the sub-unit noise operator acts by Gaussian
        # averaging of the argument; simulate both orderings directly
        rng = np.random.default_rng(3)
        g = random_poly(2, 2, rng)
        x = rng.standard_normal(2)
        rp, lam, rho = 0.6, 0.3, 0.4
        h = derived_inner_poly(g, x, rp, lam, rho)
        forms = stability_closed_forms(h, rp, lam, rho)
        trials = 6000
        s1, s2 = math.sqrt(1 - lam), math.sqrt(lam)
        ug = noise_op(g, rp)
        lhs = np.empty(trials)
        rhs = np.empty(trials)
        for t in range(trials):
            z = rng.standard_normal(2)
            y = rng.standard_normal(2)
            y2 = rng.standard_normal(2)
            ugz = noise_op(zoom(g, rho, z), rp)
            lhs[t] = ((ugz.eval(s1 * x + s2 * y)
                       - ugz.eval(s1 * x + s2 * y2)) / math.sqrt(2)) ** 2
            w = amplified_derivative(ug, y, y2, R=1.0, lam=lam)
            rhs[t] = zoom(w, rho, z).eval(x) ** 2
        for vals, ref in ((lhs, forms.p_lhs), (rhs, forms.p_rhs)):
            err = vals.std(ddof=1) / math.sqrt(trials)
            assert abs(vals.mean() - ref) <= 4 * err
