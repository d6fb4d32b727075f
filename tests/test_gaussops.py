import hashlib
import math
import time
import tracemalloc

import numpy as np
import pytest

from hermite_reference import part
from ptfprg import gaussops
from ptfprg.gaussops import (AttenuationReport, amplified_derivative,
                             binom_pmf_row, directional_derivative, hypervar,
                             is_attenuated, noise_op, stability, zoom,
                             zoom_coefficient_polys, zoom_hypervar_batch)
from ptfprg.hermite import HermitePoly, random_poly, total_degree

RNG = np.random.default_rng(20)


def coeff_close(a, b, tol=1e-12):
    keys = set(a.coeffs) | set(b.coeffs)
    return all(abs(a.coeffs.get(k, 0.0) - b.coeffs.get(k, 0.0)) <= tol
               for k in keys)


class TestBinomial:
    def test_row_sums_to_one(self):
        for m in range(7):
            assert sum(binom_pmf_row(m, 0.37)) == pytest.approx(1.0)

    def test_against_formula(self):
        lam = 0.3
        row = binom_pmf_row(5, lam)
        for j in range(6):
            want = math.comb(5, j) * lam**j * (1 - lam) ** (5 - j)
            assert row[j] == pytest.approx(want, rel=1e-12)

    def test_endpoints(self):
        assert list(binom_pmf_row(4, 0.0)) == [1, 0, 0, 0, 0]
        assert list(binom_pmf_row(4, 1.0)) == [0, 0, 0, 0, 1]


class TestZoom:
    def test_scale_zero_freezes_the_point(self):
        g = random_poly(2, 3, RNG)
        x = RNG.standard_normal(2)
        z = zoom(g, 0.0, x)
        assert z.degree() == 0
        assert z.mean() == pytest.approx(g.eval(x), rel=1e-12)

    def test_scale_one_is_identity(self):
        g = random_poly(2, 3, RNG)
        z = zoom(g, 1.0, RNG.standard_normal(2))
        assert coeff_close(z, g)

    def test_h2_at_origin_frozen_values(self):
        g = HermitePoly(1, {(2,): 1.0})
        z = zoom(g, 0.5, np.array([0.0]))
        assert z.coeffs.get((1,), 0.0) == pytest.approx(0.0, abs=1e-15)
        assert z.coeffs[(2,)] == pytest.approx(0.5)
        assert z.coeffs[(0,)] == pytest.approx(0.5 * (-1 / math.sqrt(2)))

    def test_against_substitution_oracle(self):
        # zoom(g, lam, x)(y) must equal g(sqrt(1-lam) x + sqrt(lam) y): the
        # zoom table's reference, independent of the coefficient identity
        rng = np.random.default_rng(22)
        for n in range(1, 5):
            for d in range(5):
                for lam in (0.0, 0.35, 1.0):
                    g = random_poly(n, d, rng)
                    x = rng.standard_normal(n)
                    z = zoom(g, lam, x)
                    for _ in range(10):
                        y = rng.standard_normal(n)
                        want = g.eval(np.sqrt(1 - lam) * x + np.sqrt(lam) * y)
                        assert z.eval(y) == pytest.approx(
                            want, rel=1e-9, abs=1e-10), (n, d, lam)

    def test_mean_is_noise_operator(self):
        # E_y[zoom(g, lam, x)(y)] = (U_{sqrt(1-lam)} g)(x), at 20 points
        g = random_poly(3, 3, RNG)
        lam = 0.42
        u = noise_op(g, math.sqrt(1 - lam))
        for _ in range(20):
            x = RNG.standard_normal(3)
            z = zoom(g, lam, x)
            assert z.mean() == pytest.approx(u.eval(x), rel=1e-10, abs=1e-12)

    def test_degree_never_grows(self):
        g = random_poly(2, 4, RNG)
        z = zoom(g, 0.77, RNG.standard_normal(2))
        assert z.degree() <= g.degree()

    def test_invalid_scale(self):
        with pytest.raises(ValueError):
            zoom(HermitePoly(2, {(1, 0): 1.0}), 1.5, np.zeros(2))

    def test_center_dimension(self):
        with pytest.raises(ValueError):
            zoom(HermitePoly(2, {(1, 0): 1.0}), 0.5, np.zeros(3))


def sparse_poly(n, terms, d, rng):
    """`terms` distinct multi-indices of degree d at random, N(0, 1) coeffs."""
    coeffs = {}
    while len(coeffs) < terms:
        alpha = tuple(int(a) for a in rng.multinomial(d, [1.0 / n] * n))
        coeffs[alpha] = float(rng.standard_normal())
    return HermitePoly(n, coeffs)


class TestZoomHighDimension:
    # the zoom table is built over the down-set of the support, so a sparse
    # polynomial at large n costs time and memory in its terms, not in the
    # C(n + d, d) multi-indices of its degree (2.1 s and 79 MB at n = 14
    # when the table covered the full basis)
    OPS = {
        "zoom": lambda g, x: zoom(g, 0.3, x),
        "coefficient_polys": lambda g, x: zoom_coefficient_polys(g, 0.3),
        "hypervar": lambda g, x: zoom_hypervar_batch(g, 0.3, x[None, :],
                                                     2.0),
    }

    @pytest.mark.parametrize("op", sorted(OPS))
    def test_sparse_degree4_cost(self, op):
        rng = np.random.default_rng(30)
        for n in (14, 20):
            g = sparse_poly(n, 10, 4, rng)
            x = rng.standard_normal(n)
            gaussops._zoom_pairs.cache_clear()
            tracemalloc.start()
            try:
                t0 = time.perf_counter()
                self.OPS[op](g, x)
                elapsed = time.perf_counter() - t0
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            if n == 14:
                assert peak < 5 * 2**20 and elapsed < 0.2, (peak, elapsed)

    def test_sparse_against_substitution_oracle(self):
        rng = np.random.default_rng(31)
        for lam in (0.0, 0.35, 1.0):
            g = sparse_poly(12, 6, 3, rng) + HermitePoly.constant(12, 0.5)
            x = rng.standard_normal(12)
            z = zoom(g, lam, x)
            hv = zoom_hypervar_batch(g, lam, x[None, :], 1.5)
            assert hv[0] == pytest.approx(hypervar(z, 1.5), rel=1e-10)
            for _ in range(5):
                y = rng.standard_normal(12)
                want = g.eval(np.sqrt(1 - lam) * x + np.sqrt(lam) * y)
                assert z.eval(y) == pytest.approx(want, rel=1e-9, abs=1e-10)


# sha256 of every zoom coefficient of the polynomials below, recorded with
# the sparse per-term loop that built zoom_coefficient_polys before the zoom
# table: each coefficient is one product ghat(gamma) * sqrt(pmf), so the
# table must give the same keys and the same bits.
ZOOM_COEFF_SHA256 = \
    "8c71ab3df7d6c4a70426d96a6b7d931ef241eb4a1ef3d307deb7dfafdf71d9dc"


class TestZoomCoefficientGolden:
    def test_bits_match_recorded_digest(self):
        rng = np.random.default_rng(55)
        polys = [random_poly(n, d, rng) for n, d in
                 [(1, 0), (1, 4), (2, 2), (3, 3), (4, 3), (4, 4)]]
        # one sparse polynomial at n = 10
        polys.append(HermitePoly(10, {
            tuple(rng.multinomial(k, [0.1] * 10)): rng.standard_normal()
            for k in (1, 2, 3, 4, 4, 4)}))
        h = hashlib.sha256()
        for g in polys:
            for lam in (0.0, 0.3, 1.0):
                for beta, cpoly in sorted(zoom_coefficient_polys(g, lam).items()):
                    h.update(repr((beta, sorted(cpoly.coeffs.items()))).encode())
        assert h.hexdigest() == ZOOM_COEFF_SHA256


class TestZoomWeightIdentities:
    def test_squared_coefficient_mixing(self):
        # E_x[coeff_beta(zoom)^2] = sum_{gamma>=beta} Pr[Bin(gamma,lam)=beta] ghat^2
        for seed in range(5):
            rng = np.random.default_rng(seed)
            g = random_poly(3, 4, rng)
            lam = float(rng.uniform(0.1, 0.9))
            for beta, cpoly in zoom_coefficient_polys(g, lam).items():
                rhs = 0.0
                for gamma, c in g.coeffs.items():
                    if all(gg >= bb for gg, bb in zip(gamma, beta)):
                        pr = 1.0
                        for gg, bb in zip(gamma, beta):
                            pr *= binom_pmf_row(gg, lam)[bb]
                        rhs += pr * c * c
                assert cpoly.sq2norm() == pytest.approx(rhs, rel=1e-9)

    def test_level_weight_mixing(self):
        # E_x[W^{=m}[zoom]] = sum_M Pr[Bin(M,lam)=m] W^{=M}[g]
        rng = np.random.default_rng(11)
        g = random_poly(2, 4, rng)
        lam = 0.6
        cpolys = zoom_coefficient_polys(g, lam)
        for m in range(g.degree() + 1):
            lhs = sum(cp.sq2norm() for b, cp in cpolys.items()
                      if total_degree(b) == m)
            rhs = sum(binom_pmf_row(M, lam)[m] * g.weight_at_level(M)
                      for M in range(m, g.degree() + 1))
            assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-15)

    def test_batch_split_consistency(self):
        g = random_poly(2, 3, RNG)
        lam, R = 0.25, 3.0
        X = RNG.standard_normal((5, 2))
        hv = zoom_hypervar_batch(g, lam, X, R)
        for i in range(5):
            z = zoom(g, lam, X[i])
            assert hv[i] == pytest.approx(hypervar(z, R), rel=1e-10)


class TestNoiseOperator:
    def test_h2_scaling(self):
        g = HermitePoly(1, {(2,): 1.0})
        assert noise_op(g, 0.5).coeffs == {(2,): 0.25}

    def test_identity_at_one(self):
        g = random_poly(2, 3, RNG)
        assert noise_op(g, 1.0).coeffs == g.coeffs

    def test_inverse_pair_exact(self):
        g = random_poly(2, 4, RNG)
        back = noise_op(noise_op(g, 2.0), 0.5)
        assert back.coeffs == g.coeffs  # powers of two: bit-exact

    def test_semigroup(self):
        g = random_poly(3, 4, RNG)
        for r1, r2 in [(0.3, 0.9), (1.7, 0.4), (1.2, 1.5)]:
            assert coeff_close(noise_op(noise_op(g, r1), r2),
                               noise_op(g, r1 * r2))

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            noise_op(HermitePoly(1, {(1,): 1.0}), 0.0)


class TestStability:
    def test_at_one_is_sq2norm(self):
        g = random_poly(2, 3, RNG)
        assert stability(g, 1.0) == pytest.approx(g.sq2norm())

    def test_at_zero_is_squared_mean(self):
        g = random_poly(2, 3, RNG)
        assert stability(g, 0.0) == pytest.approx(g.mean() ** 2)

    def test_frozen_example(self):
        g = HermitePoly(1, {(1,): 1.0, (2,): 1.0})
        assert stability(g, 0.5) == pytest.approx(0.75)


class TestHypervar:
    def test_frozen_example(self):
        g = HermitePoly(1, {(0,): 3.0, (1,): 2.0})
        assert hypervar(g, 2.0) == pytest.approx(16.0)

    def test_r_one_is_variance(self):
        g = random_poly(2, 3, RNG)
        assert hypervar(g, 1.0) == pytest.approx(g.var())

    def test_above_degree_is_zero(self):
        g = random_poly(2, 3, RNG)
        assert hypervar(g, 2.0, above_level=g.degree()) == 0.0

    def test_fractional_amplification_allowed(self):
        g = random_poly(2, 2, RNG)
        assert hypervar(g, 0.5) <= g.var() + 1e-12


class TestAttenuation:
    def test_constant_always_attenuated(self):
        g = HermitePoly.constant(2, 5.0)
        for k, R, eps in [(0, 1.0, 0.01), (2, 10.0, 1.0)]:
            assert is_attenuated(g, k, R, eps).attenuated

    def test_single_level_threshold(self):
        w = 0.7
        g = HermitePoly(1, {(2,): math.sqrt(w)})
        for R in (1.0, 1.1, 1.5):
            rep = is_attenuated(g, 1, R, 0.5)
            assert rep.attenuated == (R ** (2 * 2) * w <= 0.5 * w)

    def test_degree_d_at_its_own_level(self):
        g = random_poly(2, 3, RNG)
        assert is_attenuated(g, g.degree(), 5.0, 1e-6).attenuated

    def test_report_invariant(self):
        g = random_poly(2, 2, RNG)
        rep = is_attenuated(g, 0, 2.0, 0.5)
        assert isinstance(rep, AttenuationReport)
        assert rep.attenuated == (rep.hypervar_above_k <= rep.eps * rep.sq2norm)


class TestAmplifiedDerivative:
    def test_equal_directions_vanish(self):
        g = random_poly(2, 3, RNG)
        y = RNG.standard_normal(2)
        assert amplified_derivative(g, y, y, 2.0, 0.3).coeffs == {}

    def test_degree_drop(self):
        for _ in range(10):
            g = random_poly(3, 3, RNG)
            dg = amplified_derivative(g, RNG.standard_normal(3),
                                      RNG.standard_normal(3), 4.0, 0.2)
            assert dg.degree() <= g.degree() - 1

    def test_matches_zoom_coefficient_sum(self):
        # the per-beta sum over zoom coefficient polynomials, as a reference
        rng = np.random.default_rng(21)
        for _ in range(40):
            n, d = int(rng.integers(1, 5)), int(rng.integers(0, 5))
            g = random_poly(n, d, rng)
            y, y2 = rng.standard_normal(n), rng.standard_normal(n)
            R, lam = float(rng.uniform(0.5, 4.0)), float(rng.uniform(0, 1))
            want = HermitePoly.zero(n)
            for beta, cpoly in zoom_coefficient_polys(g, lam).items():
                if not sum(beta):
                    continue
                h = HermitePoly.basis(n, beta)
                w = R ** sum(beta) * (h.eval(y) - h.eval(y2)) / math.sqrt(2)
                want = want + cpoly.scale(w)
            got = amplified_derivative(g, y, y2, R, lam)
            scale = max([1.0] + [abs(c) for c in want.coeffs.values()])
            assert coeff_close(got, want, tol=1e-12 * scale)

    def test_univariate_linear_frozen(self):
        g = HermitePoly(1, {(1,): 1.0})
        R, lam = 3.0, 0.25
        y, y2 = np.array([1.3]), np.array([0.2])
        dg = amplified_derivative(g, y, y2, R, lam)
        want = R * math.sqrt(lam) * (1.3 - 0.2) / math.sqrt(2)
        assert dg.coeffs == pytest.approx({(0,): want})

    def test_mean_square_is_zoom_hypervariance(self):
        # Monte Carlo over direction pairs, 4 sigma
        g = random_poly(2, 3, RNG)
        R, lam = 2.0, 0.3
        x = RNG.standard_normal(2)
        want = hypervar(zoom(g, lam, x), R)
        trials = 10_000
        vals = np.empty(trials)
        for t in range(trials):
            dg = amplified_derivative(g, RNG.standard_normal(2),
                                      RNG.standard_normal(2), R, lam)
            vals[t] = dg.eval(x) ** 2
        err = vals.std(ddof=1) / math.sqrt(trials)
        assert abs(vals.mean() - want) <= 4 * err


class TestDirectionalDerivative:
    def test_constant_gives_zero(self):
        g = HermitePoly.constant(2, 7.0)
        assert directional_derivative(g, np.ones(2)).coeffs == {}

    def test_h2_frozen(self):
        g = HermitePoly(1, {(2,): 1.0})
        dg = directional_derivative(g, np.array([1.0]))
        assert dg.coeffs == pytest.approx({(1,): math.sqrt(2.0)})

    def test_projection_identity(self):
        g = random_poly(2, 4, RNG)
        y = RNG.standard_normal(2)
        dg = directional_derivative(g, y)
        for k in range(4):
            lhs = part(dg, [k])
            rhs = directional_derivative(part(g, [k + 1]), y)
            assert lhs.coeffs == pytest.approx(rhs.coeffs, abs=1e-12)

    def test_expected_norm_on_pure_level(self):
        # E_y[||D_y g||^2] = k ||g||^2 for g concentrated at level k
        rng = np.random.default_rng(30)
        g = part(random_poly(3, 3, rng), [3])
        trials = 4000
        vals = np.empty(trials)
        for t in range(trials):
            vals[t] = directional_derivative(g, rng.standard_normal(3)).sq2norm()
        err = vals.std(ddof=1) / math.sqrt(trials)
        assert abs(vals.mean() - 3 * g.sq2norm()) <= 4 * err


class TestHermiteAdditionIdentity:
    def test_pointwise(self):
        from ptfprg.hermite import hermite_values
        rng = np.random.default_rng(31)
        for m in range(7):
            for _ in range(10):
                lam = float(rng.uniform())
                x, y = rng.standard_normal(2)
                hx = hermite_values(np.array(x), m)
                hy = hermite_values(np.array(y), m)
                row = binom_pmf_row(m, lam)
                rhs = sum(math.sqrt(row[j]) * hx[m - j] * hy[j]
                          for j in range(m + 1))
                arg = math.sqrt(1 - lam) * x + math.sqrt(lam) * y
                lhs = hermite_values(np.array(arg), m)[m]
                assert abs(lhs - rhs) <= 1e-10


class TestNormOracles:
    def test_hypercontractive_four_norm(self):
        rng = np.random.default_rng(32)
        for seed in range(3):
            g = random_poly(3, 3, np.random.default_rng(seed + 100))
            u = noise_op(g, 1 / math.sqrt(3.0))
            X = rng.standard_normal((20_000, 3))
            v4 = u.eval_batch(X) ** 4
            err = v4.std(ddof=1) / math.sqrt(len(v4))
            lo = max(v4.mean() - 4 * err, 0.0) ** 0.25
            assert lo <= math.sqrt(g.sq2norm())

    def test_two_norm_versus_one_norm(self):
        rng = np.random.default_rng(33)
        for k in (1, 2, 3):
            g = random_poly(2, k, rng)
            X = rng.standard_normal((20_000, 2))
            v = np.abs(g.eval_batch(X))
            err = v.std(ddof=1) / math.sqrt(len(v))
            assert math.sqrt(g.sq2norm()) <= math.exp(k) * (v.mean() + 4 * err)
