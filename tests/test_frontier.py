import math

import numpy as np
import pytest

from stfrontier import (
    TE_LOWER,
    ValidationError,
    cobb_douglas_log,
    inefficiency_mean,
    te_to_logit,
    technical_efficiency,
)


class TestCobbDouglas:
    def test_analytic_dot_product(self):
        assert cobb_douglas_log([2.0], 1.0, [0.5]) == pytest.approx(2.0, abs=1e-12)

    def test_zero_elasticities_return_intercept(self):
        assert cobb_douglas_log([3.1, -4.2], 0.7, [0.0, 0.0]) == pytest.approx(0.7, abs=1e-12)

    def test_random_draws_match_independent_dot_product(self):
        # oracle: plain python accumulation, no numpy
        rng = np.random.default_rng(314)
        for _ in range(25):
            p = int(rng.integers(1, 6))
            beta = rng.normal(size=p)
            x = rng.normal(size=p)
            beta0 = float(rng.normal())
            expected = beta0
            for k in range(p):
                expected += beta[k] * x[k]
            assert cobb_douglas_log(x, beta0, beta) == pytest.approx(expected, abs=1e-12)

    def test_dimension_mismatch_names_sizes(self):
        with pytest.raises(ValidationError, match=r"expected P=\(3,\).*\(2,\)"):
            cobb_douglas_log([1.0, 2.0], 0.5, [0.3, 0.2, 0.1])

    def test_non_finite_rejected(self):
        with pytest.raises(ValidationError):
            cobb_douglas_log([np.nan], 0.5, [0.3])


    def test_panel_array_equals_per_row_calls(self):
        rng = np.random.default_rng(21)
        x, beta = rng.normal(size=(4, 5, 3)), rng.normal(size=3)
        rows = [[cobb_douglas_log(x[i, t], 0.4, beta) for t in range(5)] for i in range(4)]
        # a row dot and the batched matmul may add the P products in another
        # order; each O(1) sum of P+1 terms then differs by a few ulp
        np.testing.assert_allclose(cobb_douglas_log(x, 0.4, beta), rows, rtol=0, atol=1e-14)


class TestInefficiencyMean:
    def test_zero_predictor_gives_half(self):
        assert inefficiency_mean([0.0], [0.0], [1.0], [1.0]) == pytest.approx(0.5, abs=1e-15)

    def test_saturation_stays_inside_unit_interval(self):
        value = inefficiency_mean([30.0], [0.0], [1.0], [1.0])
        assert 1 - 1e-12 < value < 1

    def test_log_three_gives_three_quarters(self):
        assert inefficiency_mean([math.log(3)], [0.0], [1.0], [0.5]) == pytest.approx(
            0.75, abs=1e-12
        )

    def test_dimension_mismatch(self):
        with pytest.raises(ValidationError, match="covariate dimension"):
            inefficiency_mean([0.0], [0.0, 1.0], [1.0], [1.0])

    def test_panel_array_equals_per_row_calls(self):
        rng = np.random.default_rng(22)
        w, z = rng.normal(size=(4, 5, 2)), rng.normal(size=(4, 5, 1))
        gamma, phi = [0.7, -0.2], [0.5]
        rows = [
            [inefficiency_mean(w[i, t], z[i, t], gamma, phi) for t in range(5)]
            for i in range(4)
        ]
        # the sums inside the logistic may differ by a few ulp, as above
        np.testing.assert_allclose(inefficiency_mean(w, z, gamma, phi), rows, rtol=0, atol=1e-14)


class TestTechnicalEfficiency:
    def test_direct_evaluation(self):
        assert technical_efficiency(0.5) == pytest.approx(math.exp(-0.5), abs=1e-12)

    def test_perfect_efficiency_limit(self):
        assert technical_efficiency(1e-12) == pytest.approx(1.0, abs=1e-9)

    def test_lower_bound_limit(self):
        assert technical_efficiency(1 - 1e-12) == pytest.approx(math.exp(-1), abs=1e-9)
        assert technical_efficiency(1 - 1e-12) > TE_LOWER

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.1, 1.2])
    def test_domain_error(self, bad):
        with pytest.raises(ValidationError, match="outside"):
            technical_efficiency(bad)

    def test_vectorized(self):
        u = np.array([0.2, 0.5, 0.9])
        np.testing.assert_allclose(technical_efficiency(u), np.exp(-u))


class TestTeToLogit:
    def test_center_value(self):
        assert te_to_logit(math.exp(-0.5)) == pytest.approx(0.0, abs=1e-12)

    def test_quarter_value(self):
        assert te_to_logit(math.exp(-0.25)) == pytest.approx(-math.log(3), abs=1e-12)

    @pytest.mark.parametrize("eta", [-3.0, -1.0, 0.0, 1.0, 3.0])
    def test_round_trip_examples(self, eta):
        from scipy.special import expit

        te = math.exp(-expit(eta))
        assert te_to_logit(te) == pytest.approx(eta, abs=1e-10)

    def test_round_trip_grid_within_1e10(self):
        from scipy.special import expit

        eta = np.linspace(-10, 10, 401)
        te = np.exp(-expit(eta))
        np.testing.assert_allclose(te_to_logit(te), eta, atol=1e-10)

    @pytest.mark.parametrize("bad", [math.exp(-1), 1.0, 0.2, 1.5])
    def test_domain_error(self, bad):
        with pytest.raises(ValidationError, match="outside"):
            te_to_logit(bad)

    def test_exact_inverse_of_te_composition(self):
        # te_to_logit inverts technical_efficiency(inefficiency_mean(...))
        w, z, gamma, phi = [0.4], [-1.2], [0.9], [0.7]
        u = inefficiency_mean(w, z, gamma, phi)
        eta = w[0] * gamma[0] + z[0] * phi[0]
        assert te_to_logit(technical_efficiency(u)) == pytest.approx(eta, abs=1e-10)
