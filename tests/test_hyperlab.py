import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import ndtr

from ptfprg.gaussops import (hypervar, is_attenuated, mult_close,
                             zoom_hypervar_and_norm_batch)
from ptfprg.hermite import HermitePoly, random_poly
from ptfprg.hyperlab import (carbery_wright_check,
                             derivative_ratio_experiment, derivative_sequence,
                             hypercon_check, zoom_ratio_check,
                             local_hyperconc_experiment,
                             retention_attrition_experiment)
from ptfprg.seeding import substream
from ptfprg.statgrid import PolySampler
from sampling_reference import reference_samples

RNG = np.random.default_rng(60)


# Verdicts of the five closeness tests that mult_close replaced, recorded
# before they were merged: hyperlab's and verify's (same-sign pairs), the
# mollifier's hard checks (positive operands only, band [1/e^nu, e^nu]), the
# battery's noise-insensitivity report (positive operands only) and
# zoom_ratio_check's (same-sign pairs, a = zoom value, b = center value).
_NU = 0.001  # 1/e^nu and e^-nu differ in the last bit here
CLOSENESS_TABLE = [
    # a, b, nu, hyperlab, verify, mollifier, battery, zoom_ratio
    (0.0, 0.0, 0.5, True, True, True, True, True),
    (1.0, math.e, 1.0, True, True, True, True, True),
    (math.e, 1.0, 1.0, True, True, True, True, True),
    (1.0, math.e * 1.01, 1.0, False, False, False, False, False),
    (-1.0, -math.e, 1.0, True, True, False, False, True),
    (-1.0, -3.0, 1.0, False, False, False, False, False),
    (1.0, -1.0, 10.0, False, False, False, False, False),
    (0.0, 1.0, 1.0, False, False, False, False, False),
    (1.0, 0.0, 1.0, False, False, False, False, False),
    (1e-200, 1e-200, 0.1, False, False, True, True, False),  # a * b underflowed
    (1.0 / math.exp(_NU), 1.0, _NU, False, False, True, False, False),
    (math.exp(-_NU), 1.0, _NU, True, True, True, True, True),
]


class TestApproxEq:
    def test_both_zero(self):
        assert mult_close(0.0, 0.0, 0.5)

    def test_sign_mismatch(self):
        assert not mult_close(1.0, -1.0, 10.0)

    def test_band(self):
        assert mult_close(1.0, math.e, 1.0)
        assert not mult_close(1.0, math.e * 1.01, 1.0)

    def test_replaced_copies_table(self):
        # one convention: the ratio in [e^-nu, e^nu].  On nonnegative
        # operands (every grid statistic) it agrees with the battery's copy;
        # on negative ones with hyperlab's, verify's and zoom_ratio_check's,
        # which accepted same-sign pairs where mollifier and the battery
        # rejected them.
        a, b, nu, hyper, ver, moll, batt, zratio = map(np.array,
                                                       zip(*CLOSENESS_TABLE))
        assert np.array_equal(hyper, ver)
        assert np.array_equal(hyper, zratio)
        want = np.where((a >= 0) & (b >= 0), batt, hyper)
        got = np.array([mult_close(*row[:3]) for row in CLOSENESS_TABLE])
        assert np.array_equal(got, want)
        unit = nu == 1.0  # elementwise over arrays
        assert np.array_equal(mult_close(a[unit], b[unit], 1.0), want[unit])


class TestHyperconCheck:
    def test_constant_holds_for_any_eta(self):
        g = HermitePoly.constant(2, 3.0)
        rep = hypercon_check(g, q=4.0, eta=0.0, trials=500, master_seed=1)
        assert rep.holds and rep.deviation_norm == pytest.approx(0.0, abs=1e-12)

    def test_two_route_crosscheck(self):
        # near-constant polynomial: the certificate route and the Monte Carlo
        # route must agree
        g = HermitePoly(2, {(0, 0): 5.0, (1, 0): 0.05, (0, 1): -0.04})
        q = 4.0
        mc = hypercon_check(g, q=q, eta=0.1, trials=20_000, master_seed=2)
        exact = hypercon_check(g, q=q, eta=0.1,
                               exact_amplification=math.sqrt(q - 1.0))
        assert exact.exact_route and exact.holds
        assert mc.holds
        assert mc.deviation_norm <= exact.deviation_norm + 4 * mc.stderr

    def test_hyper_markov_tail(self):
        g = HermitePoly(2, {(0, 0): 4.0, (1, 1): 0.1, (1, 0): 0.15})
        q = 4.0
        R = math.sqrt(q - 1.0)
        mu = g.mean()
        eta = math.sqrt(hypervar(g, R)) / abs(mu)
        X = RNG.standard_normal((40_000, 2))
        dev = np.abs(g.eval_batch(X) - mu)
        for t in (0.3, 0.6, 1.2):
            frac = float((dev > t * abs(mu)).mean())
            err = math.sqrt(max(frac * (1 - frac), 1e-12) / len(dev))
            assert frac <= (eta / t) ** q + 4 * err

    def test_q_must_exceed_two(self):
        with pytest.raises(ValueError):
            hypercon_check(HermitePoly.constant(1, 1.0), q=2.0, eta=0.1)


class TestAttenuationChain:
    def test_attenuated_implies_hyperconcentrated(self):
        # certificate at (R, theta) gives the (1 + R^2/2, sqrt(theta)) bound
        g = HermitePoly.constant(2, 3.0) + random_poly(2, 2, RNG).scale(0.02)
        R, theta = 2.0, 1.0
        rep = is_attenuated(g, 0, R, theta)
        assert rep.attenuated
        theta_eff = rep.hypervar_above_k / rep.sq2norm
        hc = hypercon_check(g, q=1 + R * R / 2, eta=math.sqrt(theta_eff),
                            trials=20_000, master_seed=3)
        assert hc.holds

    def test_multiplicative_tail(self):
        # Pr[g not within e^{+-gamma} of mu] <= (2 sqrt(theta)/gamma)^{R^2/2+1}
        g = HermitePoly.constant(2, 3.0) + random_poly(2, 2, RNG).scale(0.01)
        R = 2.0
        rep = is_attenuated(g, 0, R, 1.0)
        theta = rep.hypervar_above_k / rep.sq2norm
        mu = g.mean()
        X = RNG.standard_normal((40_000, 2))
        vals = g.eval_batch(X)
        for gamma in (0.25, 0.5, 1.0):
            bad = ~mult_close(vals[:4000], mu, gamma)
            frac = float(bad.mean())
            err = math.sqrt(max(frac * (1 - frac), 1e-12) / 4000)
            bound = (2 * math.sqrt(theta) / gamma) ** (R * R / 2 + 1)
            assert frac <= bound + 4 * err


class TestLocalHyperconc:
    def test_lambda_zero_never_fails(self):
        p = random_poly(2, 2, RNG)
        rep = local_hyperconc_experiment(PolySampler(p), R=2.0, eps=0.3,
                                         beta=0.1, lam=0.0, x_trials=50,
                                         master_seed=4)
        assert rep["failure_fraction"] == 0.0

    def test_linear_base_threshold_behavior(self):
        # for p = h_1 the zoom weights are exact: level-1 weight lam, mean
        # sqrt(1-lam) x; failure iff R^2 lam > eps^2 ((1-lam) x^2 + lam)
        lam, R, eps = 0.01, 2.0, 0.3
        p = HermitePoly(1, {(1,): 1.0})
        rep = local_hyperconc_experiment(PolySampler(p), R=R, eps=eps,
                                         beta=0.5, lam=lam, x_trials=4000,
                                         master_seed=5)
        thr2 = (R * R * lam / (eps * eps) - lam) / (1 - lam)
        want = 2 * ndtr(math.sqrt(max(thr2, 0.0))) - 1 if thr2 > 0 else 0.0
        err = math.sqrt(0.25 / 4000)
        assert abs(rep["failure_fraction"] - want) <= 4 * err + 1e-6

    def test_nice_distribution_mode_runs(self):
        p = random_poly(2, 2, RNG)
        s = PolySampler(p, i=1, lam=0.3, R=2.0)
        rep = local_hyperconc_experiment(s, R=2.0, eps=0.5, beta=0.5,
                                         lam=1e-5, x_trials=20,
                                         inner_trials=30, master_seed=6)
        assert 0.0 <= rep["failure_fraction"] <= 1.0

    def test_nice_distribution_matches_reference(self):
        # both sides averaged over the per-sample chain's draws, which
        # follow the centers on the experiment's stream
        R, eps, lam, x_trials, inner = 2.0, 0.5, 0.05, 400, 30
        p = random_poly(2, 3, np.random.default_rng(62))
        s = PolySampler(p, i=1, j=1, lam=0.3, R=R)
        rep = local_hyperconc_experiment(s, R=R, eps=eps, beta=0.5, lam=lam,
                                         x_trials=x_trials,
                                         inner_trials=inner, master_seed=7)
        rng = substream(7, "local-hyperconc")
        X = rng.standard_normal((x_trials, 2))
        hv, n2 = np.zeros(x_trials), np.zeros(x_trials)
        for f in reference_samples(s, rng, inner):
            fh, fn = zoom_hypervar_and_norm_batch(f, lam, X, R)
            hv += fh
            n2 += fn
        want = float((hv > eps * eps * n2).mean())
        assert 0.0 < want < 1.0
        assert rep["failure_fraction"] == want


class TestDerivativeSequence:
    def test_h2_frozen(self):
        g = HermitePoly(1, {(2,): 1.0})
        x = np.array([1.5])
        ds = derivative_sequence(PolySampler(g), x,
                                 [np.array([1.0]), np.array([1.0])])
        assert ds[0] == pytest.approx(((1.5**2 - 1) / math.sqrt(2)) ** 2)
        assert ds[1] == pytest.approx(2 * 1.5**2)
        assert ds[2] == pytest.approx(2.0)

    def test_beyond_degree_is_zero(self):
        g = random_poly(2, 2, RNG)
        ys = [RNG.standard_normal(2) for _ in range(3)]
        ds = derivative_sequence(PolySampler(g), RNG.standard_normal(2), ys)
        assert ds[3] == 0.0

    def test_ratio_sweep(self):
        p = random_poly(3, 3, RNG)
        rep = derivative_ratio_experiment(PolySampler(p), eps=0.2, trials=200,
                                          master_seed=7)
        assert rep["passing_C"] is not None and rep["passing_C"] <= 8.0


class TestRetentionAttrition:
    def test_degree_k_dirac_any_lambda(self):
        p = random_poly(2, 2, RNG)
        rep = retention_attrition_experiment(PolySampler(p), k=2, S=40.0,
                                             lam=0.35, beta_prime=0.2,
                                             trials=400, master_seed=8)
        assert rep["retention_passing_C"] is not None

    def test_tiny_lambda_attrition_trivial(self):
        p = random_poly(2, 2, RNG)
        rep = retention_attrition_experiment(PolySampler(p), k=2, S=10.0,
                                             lam=1e-9, beta_prime=0.2,
                                             trials=200, master_seed=9)
        assert rep["attrition_fractions"][1.0] == 0.0

    def test_constant_sampler_never_fails(self):
        p = HermitePoly.constant(2, 1.0)
        rep = retention_attrition_experiment(PolySampler(p), k=1, S=5.0,
                                             lam=0.5, beta_prime=0.3,
                                             trials=100, master_seed=10)
        assert rep["retention_fractions"][1.0] == 0.0
        assert rep["attrition_fractions"][1.0] == 0.0

    def test_precondition_enforced(self):
        p = HermitePoly(1, {(3,): 1.0})  # all weight above level 1 at S = 5
        with pytest.raises(ValueError):
            retention_attrition_experiment(PolySampler(p), k=1, S=5.0,
                                           lam=0.5, beta_prime=0.3, trials=10)


# a non-Dirac sampler (one noise zoom): each experiment below draws its
# polynomials from it, at sizes where its fractions are neither 0 nor 1
NICE = PolySampler(random_poly(2, 2, np.random.default_rng(63)), i=0, j=1,
                   lam=0.3)
NICE_EXPERIMENTS = {
    "local_hyperconc": lambda seed: local_hyperconc_experiment(
        NICE, R=2.0, eps=0.5, beta=0.5, lam=0.05, x_trials=50,
        inner_trials=20, master_seed=seed),
    "derivative_sequence": lambda seed: derivative_sequence(
        NICE, np.ones(2), [np.ones(2), np.array([1.0, -1.0])], trials=20,
        master_seed=seed),
    "derivative_ratio": lambda seed: derivative_ratio_experiment(
        NICE, eps=10.0, trials=50, master_seed=seed),
    "retention_attrition": lambda seed: retention_attrition_experiment(
        NICE, k=2, S=2.0, lam=0.5, beta_prime=0.3, trials=50,
        inner_trials=20, master_seed=seed),
}


@pytest.mark.parametrize("name", sorted(NICE_EXPERIMENTS))
def test_nice_sampler_reports_follow_master_seed(name):
    run = NICE_EXPERIMENTS[name]
    assert run(3) == run(3)


def test_derivative_sequence_reads_master_seed():
    run = NICE_EXPERIMENTS["derivative_sequence"]
    assert run(3) != run(4)


ZERO_DRAW_EXPERIMENTS = {
    "local_hyperconc": lambda s: local_hyperconc_experiment(
        s, R=2.0, eps=0.5, beta=0.5, lam=0.05, x_trials=5, inner_trials=0),
    "retention_attrition": lambda s: retention_attrition_experiment(
        s, k=2, S=2.0, lam=0.5, beta_prime=0.3, trials=5, inner_trials=0),
    "derivative_sequence": lambda s: derivative_sequence(
        s, np.ones(2), [np.ones(2)], trials=0),
}


@pytest.mark.parametrize("name", sorted(ZERO_DRAW_EXPERIMENTS))
@pytest.mark.parametrize("sampler", [NICE, PolySampler(NICE.base)],
                         ids=["nice", "dirac"])
def test_zero_draws_one_line_error(name, sampler):
    # no numpy concatenate error and no nan: the sampler names the count
    with pytest.raises(ValueError) as exc:
        ZERO_DRAW_EXPERIMENTS[name](sampler)
    assert str(exc.value) == "sample count 0 is below 1"


# every check with a sample count, the count's name, and a run at count t;
# inner_trials=0 would fail in the sampler, so the count is checked first
COUNTED_CHECKS = {
    "local_hyperconc": ("x_trials", lambda t: local_hyperconc_experiment(
        NICE, R=2.0, eps=0.5, beta=0.5, lam=0.05, x_trials=t,
        inner_trials=0)),
    "derivative_ratio": ("trials", lambda t: derivative_ratio_experiment(
        NICE, eps=10.0, trials=t)),
    "retention_attrition": ("trials", lambda t: retention_attrition_experiment(
        NICE, k=2, S=2.0, lam=0.5, beta_prime=0.3, trials=t, inner_trials=0)),
    "carbery_wright": ("trials", lambda t: carbery_wright_check(
        NICE.base, 0.3, trials=t)),
    "zoom_ratio": ("trials", lambda t: zoom_ratio_check(
        NICE.base, lam=1e-4, beta=0.1, trials=t)),
    "hypercon": ("trials", lambda t: hypercon_check(
        NICE.base, q=4.0, eta=1.0, trials=t)),
}


@pytest.mark.parametrize("name", sorted(COUNTED_CHECKS))
@pytest.mark.parametrize("count", [0, -3])
def test_count_below_one_names_the_count(name, count):
    arg, run = COUNTED_CHECKS[name]
    with pytest.raises(ValueError) as exc:
        run(count)
    assert str(exc.value) == f"{arg} = {count} is below 1"


class TestCarberyWright:
    def test_linear_exact_oracle(self):
        g = HermitePoly(2, {(1, 0): 1.0})
        rep = carbery_wright_check(g, 0.5, trials=40_000, master_seed=11)
        want = 2 * ndtr(0.25) - 1  # Pr[|N(0,1)| < (0.5/2)^1]
        assert abs(rep["fractions"][2.0] - want) <= 4 * rep["stderr"]

    def test_delta_one_trivial(self):
        g = random_poly(2, 2, RNG)
        rep = carbery_wright_check(g, 1.0, trials=2000, master_seed=12)
        assert rep["passing_C"] is not None

    def test_product_of_coordinates(self):
        g = HermitePoly(2, {(1, 1): 1.0})
        rep = carbery_wright_check(g, 0.3, trials=40_000, master_seed=13)
        assert rep["passing_C"] is not None and rep["passing_C"] <= 8.0


class TestZoomRatio:
    def test_lambda_zero_no_failures(self):
        g = random_poly(2, 3, RNG)
        rep = zoom_ratio_check(g, lam=0.0, beta=0.1, trials=2000,
                                master_seed=14)
        assert rep["fractions"][1.0]["fraction"] == 0.0

    def test_linear_quadrature_oracle(self):
        # for linear g the joint law of (g(x), zoom value) is bivariate
        # normal; integrate the per-center failure probability exactly
        a0, a1 = 0.4, 1.0
        lam, beta, C = 0.04, 0.2, 2.0
        g = HermitePoly(1, {(0,): a0, (1,): a1})
        nu = C * 1.0 * math.sqrt(lam) / beta

        def fail_prob(u):
            gx = a0 + a1 * u
            mean = a0 + a1 * math.sqrt(1 - lam) * u
            sd = a1 * math.sqrt(lam)
            if gx > 0:
                lo, hi = math.exp(-nu) * gx, math.exp(nu) * gx
            else:
                lo, hi = math.exp(nu) * gx, math.exp(-nu) * gx
            return 1.0 - (ndtr((hi - mean) / sd) - ndtr((lo - mean) / sd))

        want, _ = quad(lambda u: fail_prob(u) * math.exp(-u * u / 2)
                       / math.sqrt(2 * math.pi), -8, 8, limit=200)
        rep = zoom_ratio_check(g, lam=lam, beta=beta, trials=40_000,
                                master_seed=15)
        got = rep["fractions"][C]["fraction"]
        assert abs(got - want) <= 4 * rep["stderr"] + 1e-6

    def test_random_degree3_sweep(self):
        g = random_poly(3, 3, RNG)
        rep = zoom_ratio_check(g, lam=1e-4, beta=0.1, trials=20_000,
                                master_seed=16)
        assert rep["passing_C"] is not None and rep["passing_C"] <= 8.0
