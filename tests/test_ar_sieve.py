import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from stfrontier import (
    ARFit,
    BootstrapError,
    EstimationError,
    Scenario,
    TestConfig,
    ValidationError,
    ar_fit,
    default_power_params,
    fit_frontier_gls,
    sieve_bootstrap_series,
    simulate_panel,
)
from stfrontier.assumption_tests import (
    SIEVE_BURN_IN,
    _null_sieve_draws,
    _sieve_indices,
    _sieve_refit,
    _spectral_radius,
    _stabilized,
    test_constant_temporal as run_temporal_test,
)
from stfrontier.rng import substream


def make_ar1(rho, t, seed, sigma=1.0, intercept=0.0):
    rng = np.random.default_rng(seed)
    s = np.empty(t)
    s[0] = intercept + rng.normal(0, sigma / np.sqrt(1 - rho**2))
    for i in range(1, t):
        s[i] = intercept + rho * (s[i - 1] - intercept) + rng.normal(0, sigma)
    return s


class TestArFit:
    def test_white_noise_gives_small_coefficient(self):
        # median over seeds of |rho_1| stays well under 0.15 at T=60
        values = []
        for seed in range(20):
            series = 2.0 + np.random.default_rng(seed).normal(size=60)
            values.append(abs(ar_fit(series, 1).highest_lag_coeff))
        assert np.median(values) < 0.15

    def test_ar1_long_series_recovery(self):
        fit = ar_fit(make_ar1(0.6, 500, seed=8), 1)
        assert fit.highest_lag_coeff == pytest.approx(0.6, abs=0.1)

    def test_residuals_centered(self):
        fit = ar_fit(make_ar1(0.4, 40, seed=9), 2)
        assert abs(fit.centered_residuals.mean()) < 1e-12

    def test_zero_variance_series(self):
        with pytest.raises(EstimationError, match="zero-variance series"):
            ar_fit(np.full(30, 1.7), 1)

    def test_series_too_short(self):
        with pytest.raises(ValidationError, match="too short"):
            ar_fit(np.arange(4.0), 1)

    def test_collinear_lags(self):
        # alternating 0/1: lag1 + lag2 is constant, collinear with the intercept
        series = np.tile([0.0, 1.0], 8)
        with pytest.raises(EstimationError, match="near-singular lag matrix"):
            ar_fit(series, 2)

    def test_collinear_lags_named(self):
        series = np.tile([0.0, 1.0], 8)
        with pytest.raises(EstimationError, match=r"collinear columns: .*lag\d"):
            ar_fit(series, 2)

    def test_mse_positive_and_head_stored(self):
        series = make_ar1(0.5, 30, seed=10)
        fit = ar_fit(series, 2)
        assert fit.mse > 0
        assert fit.series_head == (series[0], series[1])


class TestSieveBootstrap:
    def test_zero_residuals_give_deterministic_recursion(self):
        series = make_ar1(0.5, 20, seed=3)
        fit = ar_fit(series, 1)
        degenerate = ARFit(
            order=1,
            coeffs=fit.coeffs,
            centered_residuals=np.zeros(10),
            mse=0.0,
            series_head=fit.series_head,
            n_obs=fit.n_obs,
        )
        out = sieve_bootstrap_series(degenerate, 20, seed=4)
        # oracle: run the recursion by hand through burn-in plus emission
        c, rho = fit.coeffs
        state = series[0]
        values = []
        for _ in range(50 + 20):
            state = c + rho * state
            values.append(state)
        np.testing.assert_allclose(out, values[50:], atol=1e-12)

    def test_same_seed_identical(self):
        fit = ar_fit(make_ar1(0.5, 25, seed=5), 1)
        a = sieve_bootstrap_series(fit, 25, seed=12)
        b = sieve_bootstrap_series(fit, 25, seed=12)
        np.testing.assert_array_equal(a, b)
        c = sieve_bootstrap_series(fit, 25, seed=13)
        assert not np.array_equal(a, c)

    def test_variance_brackets_original(self):
        series = make_ar1(0.6, 60, seed=6)
        fit = ar_fit(series, 1)
        draws = np.array(
            [sieve_bootstrap_series(fit, 60, seed=100 + i).var() for i in range(200)]
        )
        ratio = draws.mean() / series.var()
        assert 0.5 < ratio < 2.0

    def test_nonstationary_fit_rejected(self):
        explosive = ARFit(
            order=1,
            coeffs=(0.0, 1.05),
            centered_residuals=np.zeros(5),
            mse=0.0,
            series_head=(1.0,),
            n_obs=10,
        )
        with pytest.raises(BootstrapError, match="nonstationary sieve"):
            sieve_bootstrap_series(explosive, 10, seed=1)

    def test_length_below_original_rejected(self):
        fit = ar_fit(make_ar1(0.5, 25, seed=5), 1)
        with pytest.raises(ValidationError, match="shorter"):
            sieve_bootstrap_series(fit, 10, seed=1)


class TestStabilization:
    def test_explosive_fit_rescaled_for_resampling(self):
        explosive = ARFit(
            order=1,
            coeffs=(0.2, 1.1),
            centered_residuals=np.array([-0.1, 0.1]),
            mse=0.01,
            series_head=(0.0,),
            n_obs=12,
        )
        assert _spectral_radius(explosive.lag_coeffs) > 1
        tamed = _stabilized(explosive)
        assert _spectral_radius(tamed.lag_coeffs) <= 0.99
        assert tamed.coeffs[0] == explosive.coeffs[0]

    def test_stationary_fit_untouched(self):
        fit = ar_fit(make_ar1(0.4, 30, seed=7), 1)
        assert _stabilized(fit) is fit


def _roots_radius(lag_coeffs):
    """The companion-root radius as np.roots gives it, for any order."""
    roots = np.roots(np.concatenate(([1.0], -np.asarray(lag_coeffs, dtype=float))))
    return float(np.abs(roots).max()) if roots.size else 0.0


class TestSpectralRadius:
    @pytest.mark.parametrize("a", [0.0, -0.0, 0.3, -0.3, 0.999, -0.999, 1.2, -1.2, 0.1 + 0.2])
    def test_one_lag_closed_form_equals_np_roots(self, a):
        assert _spectral_radius(np.array([a])) == _roots_radius([a])

    @pytest.mark.parametrize(
        "lag", [(0.5, 0.3), (1.2, -0.5), (0.0, 0.0), (0.1, 0.2, 0.3), (1.5, -0.2, 0.4)]
    )
    def test_higher_orders_use_np_roots(self, lag):
        assert _spectral_radius(np.array(lag)) == _roots_radius(lag)


# Reference for the unit-batched sieve: the per-unit recursion and einsum
# refit that test_constant_temporal ran before the units were batched.


def _oracle_sieve_batch(fit, m, k, rng):
    p = fit.order
    residuals = fit.centered_residuals
    intercept = fit.coeffs[0]
    lag = fit.lag_coeffs
    steps = SIEVE_BURN_IN + m
    innov = residuals[rng.integers(0, residuals.shape[0], size=(k, steps))]
    state = np.tile(np.asarray(fit.series_head)[::-1], (k, 1))
    out = np.empty((k, steps))
    for s in range(steps):
        new = intercept + state @ lag + innov[:, s]
        out[:, s] = new
        if p > 1:
            state[:, 1:] = state[:, :-1]
        state[:, 0] = new
    return out[:, SIEVE_BURN_IN:]


def _oracle_ar_refit_batch(series_batch, p):
    k, m = series_batch.shape
    cols = [np.ones((k, m - p))] + [series_batch[:, p - j : m - j] for j in range(1, p + 1)]
    design = np.stack(cols, axis=2)
    target = series_batch[:, p:]
    xtx = np.einsum("krc,krd->kcd", design, design)
    xty = np.einsum("krc,kr->kc", design, target)
    try:
        coefs = np.linalg.solve(xtx, xty[..., None])[..., 0]
    except np.linalg.LinAlgError:
        coefs = np.stack([np.linalg.lstsq(a, b, rcond=None)[0] for a, b in zip(xtx, xty)])
    return coefs[:, -1]


def _oracle_null_draws(fits, m, config):
    pooled = float(np.mean([fit.highest_lag_coeff for fit in fits]))
    draws = np.empty((len(fits), config.n_boot_k))
    for i, fit in enumerate(fits):
        null_fit = replace(fit, coeffs=(*fit.coeffs[:-1], pooled))
        rng = substream(config.seed, "temporal-sieve", i)
        batch = _oracle_sieve_batch(_stabilized(null_fit), m, config.n_boot_k, rng)
        draws[i] = _oracle_ar_refit_batch(batch, fit.order)
    return draws


def gate_panel(seed, contaminated=False):
    """A panel at the acceptance gate's temporal point: n=50, T=12."""
    scenario = Scenario(
        n_units=50,
        n_periods=12,
        base_params=default_power_params(),
        contamination_fraction=0.1 if contaminated else 0.0,
        temporal_shift_r=1.0 if contaminated else 0.0,
        seed=seed,
    )
    return simulate_panel(scenario)[0]


class TestBatchedSieve:
    @pytest.mark.parametrize(
        "seed, contaminated", [(1, False), (2, False), (3, True), (4, False), (5, True)]
    )
    def test_ar1_draws_equal_per_unit_oracle(self, seed, contaminated):
        panel = gate_panel(seed, contaminated)
        fits = [ar_fit(s, 1) for s in fit_frontier_gls(panel).innovations]
        config = TestConfig(n_boot_k=500, seed=100 + seed)
        batched = _null_sieve_draws(fits, panel.n_periods, config)
        assert np.array_equal(batched, _oracle_null_draws(fits, panel.n_periods, config))

    @pytest.mark.parametrize("p", [2, 3])
    def test_higher_order_draws_match_oracle(self, p):
        panel = gate_panel(6, contaminated=True)
        fits = [ar_fit(s, p) for s in fit_frontier_gls(panel).innovations]
        config = TestConfig(ar_order_p=p, n_boot_k=500, seed=7)
        batched = _null_sieve_draws(fits, panel.n_periods, config)
        oracle = _oracle_null_draws(fits, panel.n_periods, config)
        np.testing.assert_allclose(batched, oracle, rtol=0, atol=1e-12)

    def test_singular_unit_falls_back_to_least_squares(self):
        # a flat recursion with no innovations makes that unit's refit singular
        good = ar_fit(make_ar1(0.4, 12, seed=3), 1)
        flat = ARFit(
            order=1,
            coeffs=(1.0, 0.0),
            centered_residuals=np.zeros(11),
            mse=0.0,
            series_head=(1.0,),
            n_obs=12,
        )
        fits = [good, flat]
        rngs = [np.random.default_rng(i) for i in range(2)]
        batched = _sieve_refit(fits, _sieve_indices(rngs, 11, 100, SIEVE_BURN_IN + 12))
        oracle = [
            _oracle_ar_refit_batch(_oracle_sieve_batch(fit, 12, 100, np.random.default_rng(i)), 1)
            for i, fit in enumerate(fits)
        ]
        assert np.array_equal(batched, np.stack(oracle))

    def test_single_series_uses_the_same_recursion(self):
        fit = ar_fit(make_ar1(0.5, 30, seed=11), 2)
        series = sieve_bootstrap_series(fit, 30, np.random.default_rng(8))
        oracle = _oracle_sieve_batch(fit, 30, 1, np.random.default_rng(8))[0]
        assert np.array_equal(series, oracle)

    def test_indices_time_major_in_smallest_dtype(self):
        idx = _sieve_indices([np.random.default_rng(0), np.random.default_rng(1)], 11, 7, 20)
        assert idx.shape == (20, 2, 7) and idx.dtype == np.uint8
        expected = np.random.default_rng(1).integers(0, 11, size=(7, 20))
        assert np.array_equal(idx[:, 1, :], expected.T)
        assert _sieve_indices([np.random.default_rng(0)], 300, 2, 5).dtype == np.uint16

    def test_memory_peak_at_gate_point(self):
        panel = gate_panel(1)
        config = TestConfig(n_boot_k=500, seed=3)
        run_temporal_test(panel, config)  # warm caches outside the measurement
        tracemalloc.start()
        try:
            run_temporal_test(panel, config)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 4 * 2**20
