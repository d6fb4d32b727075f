import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hermite_reference import part, to_monomial_terms
from ptfprg import hermite
from ptfprg.hermite import HermitePoly, hermite_values, random_poly, total_degree


def monomial_eval(terms, x):
    """Independent oracle: evaluate monomial terms directly."""
    return sum(c * np.prod([xi**e for xi, e in zip(x, expo)])
               for expo, c in terms.items())


class TestEval:
    def test_h2_vanishes_at_one(self):
        g = HermitePoly(1, {(2,): 1.0})
        assert g.eval([1.0]) == pytest.approx(0.0, abs=1e-14)

    def test_constant(self):
        g = HermitePoly.constant(3, 1.0)
        assert g.eval([0.3, -2.0, 5.5]) == 1.0

    def test_h1h1_bivariate(self):
        g = HermitePoly(2, {(1, 1): 1.0})
        assert g.eval([2.0, 3.0]) == pytest.approx(6.0)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            HermitePoly(2, {(1, 0): 1.0}).eval([1.0])

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(0)
        g = random_poly(3, 3, rng)
        X = rng.standard_normal((7, 3))
        b = g.eval_batch(X)
        for i in range(7):
            assert b[i] == pytest.approx(g.eval(X[i]), rel=1e-12)


class TestNormsAndMoments:
    def test_mean_var_example(self):
        g = HermitePoly(1, {(0,): 3.0, (1,): 2.0})
        assert g.mean() == 3.0
        assert g.var() == pytest.approx(4.0)
        assert g.sq2norm() == pytest.approx(13.0)

    def test_level_weights_sum_to_sq2norm(self):
        rng = np.random.default_rng(1)
        g = random_poly(3, 4, rng)
        total = sum(g.weight_at_level(k) for k in range(g.degree() + 1))
        assert total == pytest.approx(g.sq2norm(), rel=1e-12)

    def test_part_above_degree_is_zero(self):
        rng = np.random.default_rng(2)
        g = random_poly(2, 3, rng)
        assert part(g, [g.degree() + 1]).coeffs == {}

    def test_parts_decompose(self):
        rng = np.random.default_rng(3)
        g = random_poly(2, 4, rng)
        lo = part(g, range(2))
        hi = part(g, range(2, g.degree() + 1))
        back = lo + hi
        assert back.coeffs == pytest.approx(g.coeffs)

    def test_parseval_against_monte_carlo(self):
        rng = np.random.default_rng(4)
        g = random_poly(3, 3, rng)
        X = rng.standard_normal((10_000, 3))
        v = g.eval_batch(X) ** 2
        err = v.std(ddof=1) / math.sqrt(len(v))
        assert abs(v.mean() - g.sq2norm()) <= 4 * err

    def test_orthonormality_monte_carlo(self):
        rng = np.random.default_rng(5)
        X = rng.standard_normal((20_000, 3))
        alphas = [(0, 0, 0), (1, 0, 0), (2, 1, 0), (0, 0, 4), (1, 1, 1)]
        vals = [HermitePoly(3, {a: 1.0}).eval_batch(X) for a in alphas]
        for i, a in enumerate(alphas):
            for j, b in enumerate(alphas):
                prod = vals[i] * vals[j]
                err = prod.std(ddof=1) / math.sqrt(len(prod))
                assert abs(prod.mean() - (a == b)) <= 4 * err + 1e-12


class TestMonomialBasis:
    def test_x_squared(self):
        g = HermitePoly.from_monomial_basis(1, [((2,), 1.0)])
        assert g.coeffs == pytest.approx({(0,): 1.0, (2,): math.sqrt(2.0)})

    def test_x(self):
        g = HermitePoly.from_monomial_basis(1, [((1,), 1.0)])
        assert g.coeffs == {(1,): 1.0}

    def test_random_bivariate_against_monomial_oracle(self):
        rng = np.random.default_rng(6)
        terms = {}
        for _ in range(8):
            e = (int(rng.integers(4)), int(rng.integers(4)))
            if sum(e) <= 3:
                terms[e] = float(rng.standard_normal())
        g = HermitePoly.from_monomial_basis(2, list(terms.items()))
        for _ in range(10):
            x = rng.standard_normal(2)
            assert g.eval(x) == pytest.approx(monomial_eval(terms, x), abs=1e-10)

    def test_round_trip(self):
        rng = np.random.default_rng(7)
        g = random_poly(2, 4, rng)
        back = HermitePoly.from_monomial_basis(
            2, list(to_monomial_terms(g).items()))
        for a, c in g.coeffs.items():
            assert back.coeffs[a] == pytest.approx(c, rel=1e-10, abs=1e-12)


class TestProduct:
    def test_h1_squared(self):
        h1 = HermitePoly(1, {(1,): 1.0})
        assert (h1 * h1).coeffs == pytest.approx(
            {(0,): 1.0, (2,): math.sqrt(2.0)})

    def test_matches_monomial_oracle(self):
        rng = np.random.default_rng(8)
        a = random_poly(2, 2, rng)
        b = random_poly(2, 3, rng)
        prod = a * b
        # oracle: multiply in the monomial basis
        am, bm = to_monomial_terms(a), to_monomial_terms(b)
        om = {}
        for ea, ca in am.items():
            for eb, cb in bm.items():
                e = tuple(x + y for x, y in zip(ea, eb))
                om[e] = om.get(e, 0.0) + ca * cb
        for _ in range(10):
            x = rng.standard_normal(2)
            assert prod.eval(x) == pytest.approx(monomial_eval(om, x),
                                                 rel=1e-9, abs=1e-9)

    def test_scalar_multiplication(self):
        rng = np.random.default_rng(9)
        g = random_poly(2, 2, rng)
        assert (2.0 * g).coeffs == pytest.approx(g.scale(2.0).coeffs)

    def test_blocked_product_keeps_bytes(self):
        # n = 12, 91 terms a side: two blocks of term pairs, summed in the
        # entry order of one pass over all pairs
        rng = np.random.default_rng(10)
        a, b = random_poly(12, 2, rng), random_poly(12, 2, rng)
        ia = np.repeat(np.arange(len(a.vector)), len(b.vector))
        ib = np.tile(np.arange(len(b.vector)), len(a.vector))
        _, gamma, w = hermite._linearize(a.support[ia], b.support[ib],
                                         a.vector[ia] * b.vector[ib])
        support, vector = hermite._canonical(gamma, w)
        prod = a * b
        assert np.array_equal(prod.support, support)
        assert np.array_equal(prod.vector, vector)

    def test_dense_product_memory_bounded(self):
        # two dense degree-2 polynomials at n = 20 (231 terms each, a 1.7
        # MiB product): one block of all term pairs peaked at 64 MiB
        rng = np.random.default_rng(11)
        a, b = random_poly(20, 2, rng), random_poly(20, 2, rng)
        tracemalloc.start()
        try:
            a * b
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20


class TestCanonicalForm:
    def test_exact_zeros_dropped(self):
        g = HermitePoly(2, {(1, 0): 0.0, (0, 1): 1.0})
        assert (1, 0) not in g.coeffs

    def test_tiny_coefficients_never_pruned(self):
        g = HermitePoly(1, {(1,): 1e-300})
        assert g.coeffs == {(1,): 1e-300}
        assert (g + HermitePoly(1, {(0,): 1.0})).coeffs == {(0,): 1.0,
                                                          (1,): 1e-300}

    def test_zero_poly_degree(self):
        zero = HermitePoly.zero(3)
        assert zero.degree() == 0
        assert zero.vector.dtype == float
        assert zero * zero == zero and (zero * zero).vector.dtype == float

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            HermitePoly(1, {(-1,): 1.0})

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError, match="length"):
            HermitePoly(2, {(1,): 1.0})

    @pytest.mark.parametrize("bad", [1.5, 1.0, True, False, "1", np.float64(2),
                                     np.bool_(True), None])
    def test_non_integer_index_rejected(self, bad):
        key = (bad, 0)
        with pytest.raises(ValueError, match="not an integer"):
            HermitePoly(2, {key: 1.0})
        with pytest.raises(ValueError, match="exponent vector .* not an integer"):
            HermitePoly.from_monomial_basis(2, [(key, 1.0)])
        doc = {"n": 2, "terms": [{"alpha": list(key), "coeff": 1.0}]}
        with pytest.raises(ValueError, match=r"multi-index \[.*, 0\]"):
            HermitePoly.from_json_dict(doc)

    def test_numpy_integer_index_accepted(self):
        g = HermitePoly(2, {(np.int64(1), np.uint8(2)): 1.0})
        assert g.coeffs == {(1, 2): 1.0}
        assert g == HermitePoly.basis(2, np.array([1, 2]))

    def test_support_graded_and_read_only(self):
        g = HermitePoly(2, {(0, 2): 1.0, (1, 0): 2.0, (0, 0): 3.0, (1, 1): 4.0,
                            (2, 0): 5.0, (0, 1): 0.0})
        assert g.support.tolist() == [[0, 0], [1, 0], [0, 2], [1, 1], [2, 0]]
        assert g.vector.tolist() == [3.0, 2.0, 1.0, 4.0, 5.0]
        assert list(g.coeffs) == [tuple(a) for a in g.support.tolist()]
        for a in (g.support, g.vector):
            with pytest.raises(ValueError):
                a[0] = 0
        with pytest.raises(TypeError):
            g.coeffs[(0, 0)] = 1.0

    def test_add_merges_supports_and_drops_cancelled_terms(self):
        s = (HermitePoly(1, {(1,): 0.1, (0,): 1.0})
             + HermitePoly(1, {(1,): 0.2}) + HermitePoly(1, {(0,): -1.0}))
        assert s.coeffs == {(1,): 0.1 + 0.2}

    def test_equality(self):
        rng = np.random.default_rng(11)
        g = random_poly(3, 2, rng)
        assert g == HermitePoly(3, dict(g.coeffs))
        assert g != g.scale(2.0)
        assert g != HermitePoly(4, {})


def product_random_poly(n, d, rng):
    """random_poly's draws with the (d + 1)^n product of indices spelled out:
    the reference for the lexicographic enumeration."""
    alphas = [a for a in itertools.product(range(d + 1), repeat=n)
              if total_degree(a) <= d]
    return {a: rng.standard_normal() for a in alphas}


class TestRandomPoly:
    def test_same_draws_as_product_enumeration(self):
        for n in range(1, 7):
            for d in range(5):
                got = random_poly(n, d, np.random.default_rng(n * 7 + d))
                want = product_random_poly(n, d,
                                           np.random.default_rng(n * 7 + d))
                assert dict(got.coeffs) == want, (n, d)
                assert list(got.coeffs) == sorted(
                    want, key=lambda a: (total_degree(a), a))

    def test_sparse_draws_follow_lexicographic_order(self):
        rng = np.random.default_rng(12)
        alphas = [a for a in itertools.product(range(4), repeat=3)
                  if total_degree(a) <= 3]
        idx = rng.choice(len(alphas), size=5, replace=False)
        want = {alphas[i]: 2.0 * rng.standard_normal() for i in idx}
        got = random_poly(3, 3, np.random.default_rng(12), sparsity=5,
                          scale=2.0)
        assert dict(got.coeffs) == want

    def test_large_dimension_builds(self):
        g = random_poly(48, 2, np.random.default_rng(13))
        assert len(g.coeffs) == math.comb(50, 2) == 1225
        assert g.degree() == 2


class TestJson:
    def test_round_trip_hermite(self):
        rng = np.random.default_rng(10)
        g = random_poly(2, 3, rng)
        text = json.dumps(g.to_json_dict())
        assert HermitePoly.from_json_dict(json.loads(text)).coeffs == g.coeffs

    def test_accepts_monomial_basis(self):
        doc = {"n": 1, "basis": "monomial",
               "terms": [{"alpha": [2], "coeff": 1.0}]}
        g = HermitePoly.from_json_dict(doc)
        assert g.coeffs == pytest.approx({(0,): 1.0, (2,): math.sqrt(2.0)})

    def test_unknown_basis_rejected(self):
        with pytest.raises(ValueError):
            HermitePoly.from_json_dict({"n": 1, "basis": "x", "terms": []})

    @pytest.mark.parametrize("basis", ["hermite", "monomial"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_nonfinite_coefficient_rejected(self, basis, bad):
        doc = {"n": 2, "basis": basis,
               "terms": [{"alpha": [0, 0], "coeff": 1.0},
                         {"alpha": [1, 2], "coeff": bad}]}
        with pytest.raises(ValueError, match=r"alpha=\[1, 2\].*finite"):
            HermitePoly.from_json_dict(doc)
        with pytest.raises(ValueError, match=r"alpha=\[1, 2\]"):
            HermitePoly.from_json_dict(json.loads(json.dumps(doc)))

    def test_json_is_canonical(self):
        g = HermitePoly(2, {(0, 1): 2.0, (1, 0): 1.0})
        doc = g.to_json_dict()
        assert doc["basis"] == "hermite"
        assert [t["alpha"] for t in doc["terms"]] == [[0, 1], [1, 0]]

    @pytest.mark.parametrize("basis", ["hermite", "monomial"])
    def test_repeated_alpha_summed(self, basis):
        doc = {"n": 1, "basis": basis,
               "terms": [{"alpha": [1], "coeff": 1.0},
                         {"alpha": [1], "coeff": 2.0}]}
        assert HermitePoly.from_json_dict(doc).coeffs == {(1,): 3.0}


small_polys = st.integers(0, 2**32 - 1).map(
    lambda s: random_poly(2, 3, np.random.default_rng(s), sparsity=6))


class TestAlgebraProperties:
    @settings(max_examples=25, deadline=None)
    @given(small_polys, small_polys, st.floats(-3, 3), st.floats(-3, 3))
    def test_add_scale_commute_with_eval(self, f, g, c, x0):
        x = np.array([x0, -0.5])
        combined = (f + g.scale(c)).eval(x)
        assert combined == pytest.approx(f.eval(x) + c * g.eval(x),
                                         rel=1e-12, abs=1e-9)

    @settings(max_examples=25, deadline=None)
    @given(small_polys, small_polys)
    def test_product_degree(self, f, g):
        if f.coeffs and g.coeffs:
            assert (f * g).degree() <= f.degree() + g.degree()

    @settings(max_examples=25, deadline=None)
    @given(small_polys)
    def test_total_degree_consistency(self, f):
        for a in f.coeffs:
            assert total_degree(a) <= f.degree()


def test_hermite_values_recurrence():
    t = np.array([0.0, 1.0, -2.3])
    vals = hermite_values(t, 3)
    assert vals[:, 0] == pytest.approx([1, 1, 1])
    assert vals[:, 1] == pytest.approx(t)
    assert vals[:, 2] == pytest.approx((t * t - 1) / math.sqrt(2))
    assert vals[:, 3] == pytest.approx((t**3 - 3 * t) / math.sqrt(6))
