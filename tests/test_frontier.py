import math
import sys

import numpy as np
import pytest
from scipy import special

from stfrontier import (
    TE_LOWER,
    ValidationError,
    cobb_douglas_log,
    inefficiency_mean,
    te_to_logit,
    technical_efficiency,
)
from stfrontier.estimation import CLAMP_DELTA
from stfrontier.frontier import expit, logit


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

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.1, 1.2, math.nan])
    def test_domain_error(self, bad):
        with pytest.raises(ValidationError, match="outside"):
            technical_efficiency(bad)

    @pytest.mark.parametrize("bad, shown", [(1.2, "1.2"), (math.nan, "nan")])
    def test_domain_error_names_the_first_bad_value_as_a_float(self, bad, shown):
        u = np.array([[0.5, 0.3], [bad, 2.0]])
        with pytest.raises(ValidationError) as raised:
            technical_efficiency(u)
        assert str(raised.value).startswith(f"inefficiency prediction {shown} outside (0, 1)")

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

    @pytest.mark.parametrize("bad", [math.exp(-1), 1.0, 0.2, 1.5, math.nan])
    def test_domain_error(self, bad):
        with pytest.raises(ValidationError, match="outside"):
            te_to_logit(bad)

    @pytest.mark.parametrize("bad, shown", [(1.5, "1.5"), (math.nan, "nan")])
    def test_domain_error_names_the_first_bad_value_as_a_float(self, bad, shown):
        te = np.array([0.8, bad, 0.1])
        with pytest.raises(ValidationError) as raised:
            te_to_logit(te)
        assert str(raised.value).startswith(f"technical efficiency {shown} outside (exp(-1), 1)")

    def test_exact_inverse_of_te_composition(self):
        # te_to_logit inverts technical_efficiency(inefficiency_mean(...))
        w, z, gamma, phi = [0.4], [-1.2], [0.9], [0.7]
        u = inefficiency_mean(w, z, gamma, phi)
        eta = w[0] * gamma[0] + z[0] * phi[0]
        assert te_to_logit(technical_efficiency(u)) == pytest.approx(eta, abs=1e-10)


class TestLogisticPairMatchesScipy:
    """frontier.expit/logit against scipy.special, the reference.

    The two sides evaluate the same functions with different exp, log and
    log1p implementations (numpy's ufuncs against the C library's), so finite
    results may differ by rounding: expit by at most EXPIT_ULPS ulp of
    scipy's value, logit by at most LOGIT_EPS * eps * max(1, |scipy's|).
    Non-finite results, and expit's exact 0 and 1, must equal scipy's.
    """

    EXPIT_ULPS = 8
    LOGIT_EPS = 4

    EDGES = [
        0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324,
        math.log(sys.float_info.max), -math.log(sys.float_info.max),
        math.nextafter(math.log(sys.float_info.max), math.inf),
        -math.nextafter(math.log(sys.float_info.max), math.inf),
        745.2, -745.2, 1e308, -1e308,
    ]
    UNIT_EDGES = [
        0.0, -0.0, 1.0, 0.5, 0.3, 0.65, 1e-6, 1.0 - 1e-6, 5e-324,
        math.nextafter(0.3, 0.0), math.nextafter(0.3, 1.0),
        math.nextafter(0.65, 0.0), math.nextafter(0.65, 1.0),
        math.nextafter(1.0, 0.0), -0.5, 1.5, math.inf, -math.inf, math.nan,
    ]

    @staticmethod
    def assert_close(got, want, tol, exact):
        """|got - want| <= tol where want is finite and neither side is in
        ``exact``; elsewhere got must equal want, nan matching nan."""
        assert got.dtype == want.dtype and got.shape == want.shape
        pinned = ~np.isfinite(want) | np.isin(want, exact) | np.isin(got, exact)
        same = (got == want) | (np.isnan(got) & np.isnan(want))
        assert same[pinned].all(), (got[pinned & ~same][:5], want[pinned & ~same][:5])
        got, want, tol = got[~pinned], want[~pinned], tol[~pinned]
        assert np.isfinite(got).all()
        ok = np.abs(got - want) <= tol
        assert ok.all(), (np.count_nonzero(~ok), got[~ok][:5], want[~ok][:5])

    def assert_expit_close(self, x):
        want = special.expit(x)
        tol = self.EXPIT_ULPS * np.spacing(np.abs(want))
        self.assert_close(expit(x), want, tol, [0.0, 1.0])

    def assert_logit_close(self, p):
        with np.errstate(divide="ignore", invalid="ignore"):
            want = special.logit(p)
        tol = self.LOGIT_EPS * np.finfo(float).eps * np.maximum(1.0, np.abs(want))
        self.assert_close(logit(p), want, tol, [])

    def test_expit_sweep(self):
        rng = np.random.default_rng(2104)
        n = 400_000
        x = np.concatenate([
            rng.normal(0.0, 3.0, n),
            rng.normal(0.0, 60.0, n),
            rng.uniform(-800.0, 800.0, n),
            np.exp(rng.uniform(-745.0, 709.0, n)) * rng.choice([-1.0, 1.0], n),
            self.EDGES,
        ])
        self.assert_expit_close(x)

    def test_logit_sweep(self):
        rng = np.random.default_rng(1352)
        n = 400_000
        p = np.concatenate([
            rng.uniform(0.0, 1.0, n),
            rng.uniform(0.29, 0.66, n),
            special.expit(rng.normal(0.0, 8.0, n)),
            np.exp(rng.uniform(-745.0, 0.0, n)),
            rng.uniform(-1.0, 2.0, 1000),
            self.UNIT_EDGES,
        ])
        self.assert_logit_close(p)

    def test_clamp_constants(self):
        self.assert_logit_close(np.array([CLAMP_DELTA, 1.0 - CLAMP_DELTA]))

    def test_shape_kept(self):
        x = np.linspace(-3.0, 3.0, 24).reshape(2, 3, 4)
        self.assert_expit_close(x)
        self.assert_logit_close(special.expit(x))
        assert logit(expit(x)).shape == x.shape
        assert expit(np.float64(0.25)).shape == ()
