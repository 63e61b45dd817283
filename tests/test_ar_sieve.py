import re
import threading
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

from stfrontier import (
    ARFit,
    BootstrapError,
    EstimationError,
    PanelDataset,
    Scenario,
    TestConfig,
    ValidationError,
    ar_fit,
    default_power_params,
    fit_frontier_gls,
    simulate_panel,
)
from stfrontier import assumption_tests, rng
from stfrontier.assumption_tests import (
    SIEVE_BURN_IN,
    _ar_fit_rows,
    _last_coefficient,
    _null_sieve_draws,
    _sieve_buffers,
    _sieve_refit,
    _spectral_radius,
    _stabilized,
    reused_buffers,
    test_constant_temporal as run_temporal_test,
)
from stfrontier.estimation import least_squares
from stfrontier.rng import index_block, substream


def per_row_least_squares(series, p):
    """Reference for _ar_fit_rows: the per-row fitter that its batched SVD
    replaced, one estimation.least_squares call per row. Returns the
    coefficients, the centered residuals and the mse of every row."""
    n, t = series.shape
    design = np.empty((n, t - p, p + 1))
    design[..., 0] = 1.0
    for j in range(1, p + 1):
        design[..., j] = series[:, p - j : t - j]
    target = series[:, p:]
    names = ["intercept"] + [f"lag{j}" for j in range(1, p + 1)]
    coeffs = np.empty((n, p + 1))
    resid = np.empty_like(target)
    for i in range(n):
        coeffs[i] = least_squares(design[i], target[i], names, "singular")
        resid[i] = target[i] - design[i] @ coeffs[i]
    mse = (resid**2).sum(axis=1) / (t - p - (p + 1))
    return coeffs, resid - resid.mean(axis=1, keepdims=True), mse


def stacked_fits(series, p):
    """_ar_fit_rows' coefficients and centered residuals of rows that all fit."""
    fit, failure = _ar_fit_rows(series, p)
    assert failure is None
    return fit[:2]


def sieve_arguments(fits):
    """_sieve_refit's intercepts, residual table, heads and lag matrix,
    gathered from per-unit ARFit objects."""
    return (
        np.array([fit.coeffs[0] for fit in fits]),
        np.stack([fit.centered_residuals for fit in fits]),
        np.array([fit.series_head for fit in fits]),
        np.array([fit.coeffs[1:] for fit in fits]),
    )


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

    @pytest.mark.parametrize(
        "p, message",
        [
            (1.5, "ar_order_p must be an integer, got 1.5"),
            (True, "ar_order_p must be an integer, got True"),
            ("1", "ar_order_p must be an integer, got '1'"),
            (0, "ar_order_p must be >= 1, got 0"),
            (-2.0, "ar_order_p must be >= 1, got -2"),
        ],
    )
    def test_refused_orders_are_named(self, p, message):
        with pytest.raises(ValidationError, match=re.escape(message)):
            ar_fit(make_ar1(0.4, 30, seed=11), p)

    def test_integral_float_order_accepted(self):
        series = make_ar1(0.4, 30, seed=11)
        fit = ar_fit(series, 2.0)
        assert type(fit.order) is int and fit.order == 2
        assert fit.coeffs == ar_fit(series, 2).coeffs


class TestArFitRows:
    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_batched_fits_bit_identical_to_per_row_ar_fit(self, p):
        series = fit_frontier_gls(gate_panel(6, contaminated=True)).innovations
        (coeffs, resid, mse), failure = _ar_fit_rows(series, p)
        assert failure is None
        assert coeffs.shape == (50, p + 1) and resid.shape == (50, 12 - p) and mse.shape == (50,)
        for i, row in enumerate(series):
            alone = ar_fit(row, p)
            assert tuple(coeffs[i]) == alone.coeffs
            assert np.array_equal(resid[i], alone.centered_residuals)
            assert mse[i] == alone.mse and alone.series_head == tuple(row[:p])

    @pytest.mark.parametrize("p", [1, 2, 3])
    @pytest.mark.parametrize("n, t, seed", [(50, 12, 1), (50, 12, 2), (20, 60, 3)])
    def test_batched_fits_match_per_row_least_squares(self, n, t, seed, p):
        panel = simulate_panel(
            Scenario(n_units=n, n_periods=t, base_params=default_power_params(),
                     contamination_fraction=0.1, temporal_shift_r=1.0, seed=seed)
        )[0]
        series = fit_frontier_gls(panel).innovations
        coeffs, resid, mse = per_row_least_squares(series, p)
        fit, failure = _ar_fit_rows(series, p)
        assert failure is None
        for i, (batched_coeffs, batched_resid, batched_mse) in enumerate(zip(*fit)):
            assert _normwise_error(batched_coeffs, coeffs[i]) <= 1e-12
            assert _normwise_error(batched_resid, resid[i]) <= 1e-12
            assert abs(batched_mse - mse[i]) <= 1e-12 * mse[i]

    def test_first_failing_row_in_row_order_is_reported(self):
        rng = np.random.default_rng(3)
        series = rng.normal(size=(5, 12))
        series[1] = np.tile([0.0, 1.0], 6)  # collinear lags at p = 2
        series[2, 4] = np.nan
        series[3] = 0.5  # flat
        for row, kind in ((1, EstimationError), (2, ValidationError), (3, EstimationError)):
            fit, (bad, err) = _ar_fit_rows(series, 2)
            assert fit is None and bad == row and type(err) is kind
            with pytest.raises(kind) as alone:
                ar_fit(series[row], 2)
            assert str(err) == str(alone.value)
            series[row] = rng.normal(size=12)
        assert _ar_fit_rows(series, 2)[1] is None

    @pytest.mark.parametrize("flat, collinear", [(1, 3), (3, 1)])
    def test_temporal_test_names_the_first_bad_unit(self, flat, collinear):
        rng = np.random.default_rng(4)
        log_output = rng.normal(size=(5, 12))
        log_output[flat] = 1.25
        log_output[collinear] = np.tile([0.0, 1.0], 6)
        panel = PanelDataset(
            log_output=log_output,
            log_inputs=rng.normal(size=(5, 12, 1)),
            spatial=rng.normal(size=(5, 12, 1)),
            covariates=rng.normal(size=(5, 12, 1)),
            unit_ids=tuple(f"u{i}" for i in range(5)),
        )
        first = min(flat, collinear)
        with pytest.raises(EstimationError) as alone:
            ar_fit(log_output[first], 2)
        config = TestConfig(ar_order_p=2, n_boot_k=100, seed=1, series_source="log_output")
        with pytest.raises(BootstrapError) as raised:
            run_temporal_test(panel, config)
        assert str(raised.value) == f"AR fit failed for unit 'u{first}': {alone.value}"


# Reference for the stacked _spectral_radius and _stabilized: the per-fit
# versions they replaced, which took and returned one ARFit.


def _oracle_spectral_radius(lag_coeffs: np.ndarray) -> float:
    if len(lag_coeffs) == 1:
        return abs(float(lag_coeffs[0]))
    roots = np.roots(np.concatenate(([1.0], -np.asarray(lag_coeffs, dtype=float))))
    return float(np.abs(roots).max()) if roots.size else 0.0


def _oracle_stabilized(fit: ARFit) -> ARFit:
    radius = _oracle_spectral_radius(fit.lag_coeffs)
    if radius < assumption_tests._STABILIZE_RADIUS:
        return fit
    scale = assumption_tests._STABILIZE_TARGET / radius
    lag = fit.lag_coeffs * scale ** np.arange(1, fit.order + 1)
    return ARFit(
        order=fit.order,
        coeffs=(fit.coeffs[0], *map(float, lag)),
        centered_residuals=fit.centered_residuals,
        mse=fit.mse,
        series_head=fit.series_head,
        n_obs=fit.n_obs,
    )


def _lag_fit(lag):
    """An ARFit with lag coefficients ``lag``, for the per-fit oracle."""
    return ARFit(order=len(lag), coeffs=(0.0, *map(float, lag)), centered_residuals=np.zeros(2),
                 mse=0.0, series_head=(0.0,) * len(lag), n_obs=12)


class TestStabilization:
    def test_explosive_fit_rescaled_for_resampling(self):
        explosive = np.array([[1.1]])
        assert _spectral_radius(explosive)[0] > 1
        tamed = _stabilized(explosive)
        assert _spectral_radius(tamed)[0] <= 0.99

    def test_stationary_fit_untouched(self):
        coeffs, _ = stacked_fits(make_ar1(0.4, 30, seed=7)[None], 1)
        lag = coeffs[:, 1:].copy()
        assert np.array_equal(_stabilized(lag), coeffs[:, 1:])

    def test_reported_estimates_are_the_fits_not_the_sieved_lags(self):
        # every unit explodes at 1.1, so the pooled lag is rescaled for the sieve
        rng = np.random.default_rng(5)
        y = np.empty((6, 30))
        y[:, 0] = rng.normal(size=6)
        for s in range(1, 30):
            y[:, s] = 1.1 * y[:, s - 1] + rng.normal(size=6)
        panel = PanelDataset(log_output=y, log_inputs=rng.normal(size=(6, 30, 1)),
                             spatial=rng.normal(size=(6, 30, 1)),
                             covariates=rng.normal(size=(6, 30, 1)))
        coeffs, _ = stacked_fits(y, 1)
        assert coeffs[:, 1].mean() >= assumption_tests._STABILIZE_RADIUS
        config = TestConfig(n_boot_k=100, seed=1, series_source="log_output")
        report = run_temporal_test(panel, config)
        assert report.per_block_estimate == tuple(coeffs[:, 1])

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_only_explosive_rows_change_as_the_oracle_gives_them(self, p):
        # every third row is explosive: a first lag of 1.3-1.8 against small
        # others; at p = 1 two rows sit just at and just below the threshold
        rng = np.random.default_rng(30 + p)
        lag = rng.uniform(-0.3, 0.3, size=(42, p)) / p
        lag[::3, 0] = rng.choice([-1.0, 1.0], size=14) * rng.uniform(1.3, 1.8, size=14)
        if p == 1:
            lag[1:3, 0] = assumption_tests._STABILIZE_RADIUS, np.nextafter(0.999, 0.0)
        changes = np.array([_oracle_spectral_radius(row) >= 0.999 for row in lag])
        assert changes.tolist() == [i % 3 == 0 or (p, i) == (1, 1) for i in range(42)]
        tamed = _stabilized(lag.copy())
        for row, tamed_row in zip(lag, tamed):
            assert np.array_equal(tamed_row, _oracle_stabilized(_lag_fit(row)).lag_coeffs)
        assert np.array_equal(tamed[~changes], lag[~changes])
        assert (tamed[changes] != lag[changes]).any(axis=1).all()


def _roots_radius(lag_coeffs):
    """The companion-root radius as np.roots gives it, for any order."""
    roots = np.roots(np.concatenate(([1.0], -np.asarray(lag_coeffs, dtype=float))))
    return float(np.abs(roots).max()) if roots.size else 0.0


class TestSpectralRadius:
    @pytest.mark.parametrize("a", [0.0, -0.0, 0.3, -0.3, 0.999, -0.999, 1.2, -1.2, 0.1 + 0.2])
    def test_one_lag_closed_form_equals_np_roots(self, a):
        assert _spectral_radius(np.array([[a]]))[0] == _roots_radius([a])

    @pytest.mark.parametrize(
        "lag", [(0.5, 0.3), (1.2, -0.5), (0.0, 0.0), (0.1, 0.2, 0.3), (1.5, -0.2, 0.4)]
    )
    def test_higher_orders_use_np_roots(self, lag):
        assert _spectral_radius(np.array([lag]))[0] == _roots_radius(lag)

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_each_row_equals_the_per_fit_oracle(self, p):
        lag = np.random.default_rng(p).uniform(-1.5, 1.5, size=(25, p))
        radius = _spectral_radius(lag)
        assert radius.shape == (25,)
        assert radius.tolist() == [_oracle_spectral_radius(row) for row in lag]


# Reference for the unit-batched sieve: a per-unit recursion and an einsum
# refit over the stored series. Unit i reads its (k, steps) innovation
# indices from the block as idx[:, i, :].T. The recursion adds in the
# kernel's order, c + e first and then the lag products in lag order, so the
# draws match bit for bit.


def _oracle_sieve_batch(fit, m, unit_idx):
    p = fit.order
    lag = fit.lag_coeffs
    k, steps = unit_idx.shape
    assert steps == SIEVE_BURN_IN + m
    shocks = fit.coeffs[0] + fit.centered_residuals[unit_idx]
    state = np.tile(np.asarray(fit.series_head)[::-1], (k, 1))
    out = np.empty((k, steps))
    for s in range(steps):
        new = shocks[:, s]
        for j in range(p):
            new = new + lag[j] * state[:, j]
        out[:, s] = new
        state[:, 1:] = state[:, :-1]
        state[:, 0] = new
    return out[:, SIEVE_BURN_IN:]


def _oracle_normal_equations(series_batch, p):
    k, m = series_batch.shape
    cols = [np.ones((k, m - p))] + [series_batch[:, p - j : m - j] for j in range(1, p + 1)]
    design = np.stack(cols, axis=2)
    target = series_batch[:, p:]
    return (
        np.einsum("krc,krd->kcd", design, design),
        np.einsum("krc,kr->kc", design, target),
    )


def _solve_last(xtx, xty):
    """_last_coefficient on systems stacked the usual way, (..., q, q) and (..., q)."""
    return _last_coefficient(np.moveaxis(xtx, (-2, -1), (0, 1)), np.moveaxis(xty, -1, 0))


def _oracle_ar_refit_batch(series_batch, p):
    return _solve_last(*_oracle_normal_equations(series_batch, p))


def _index_block(config, n_units, m):
    """The innovation indices _null_sieve_draws draws: one generator, one block."""
    n_residuals = m - config.ar_order_p
    return substream(config.seed, "temporal-sieve").integers(
        0,
        n_residuals,
        size=(SIEVE_BURN_IN + m, n_units, config.n_boot_k),
        dtype=np.min_scalar_type(n_residuals - 1),
    )


def _oracle_null_series(fits, m, config, idx):
    """Each unit's (k, m) null sieve series, unit by unit."""
    pooled = float(np.mean([fit.highest_lag_coeff for fit in fits]))
    for i, fit in enumerate(fits):
        null_fit = replace(fit, coeffs=(*fit.coeffs[:-1], pooled))
        yield _oracle_sieve_batch(_oracle_stabilized(null_fit), m, idx[:, i, :].T)


def _oracle_null_draws(fits, m, config, idx):
    """The (units, k) null draws, unit by unit, from per-unit ARFit objects."""
    return np.stack(
        [_oracle_ar_refit_batch(batch, config.ar_order_p)
         for batch in _oracle_null_series(fits, m, config, idx)]
    )


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


def _normwise_error(x, reference):
    return np.abs(x - reference).max() / np.abs(reference).max()


class TestLastCoefficient:
    @pytest.mark.parametrize("p", [1, 2])
    @pytest.mark.parametrize(
        "seed, contaminated", [(1, False), (2, False), (3, True), (4, False), (5, True)]
    )
    def test_agrees_with_solve_on_gate_refit_systems(self, seed, contaminated, p):
        panel = gate_panel(seed, contaminated)
        fits = [ar_fit(s, p) for s in fit_frontier_gls(panel).innovations]
        config = TestConfig(ar_order_p=p, n_boot_k=500, seed=100 + seed)
        idx = _index_block(config, len(fits), panel.n_periods)
        series = np.concatenate(list(_oracle_null_series(fits, panel.n_periods, config, idx)))
        xtx, xty = _oracle_normal_equations(series, p)
        reference = np.linalg.solve(xtx, xty[..., None])[:, -1, 0]
        assert _normwise_error(_solve_last(xtx, xty), reference) <= 1e-10

    @pytest.mark.parametrize("q", [2, 3, 4])
    def test_agrees_with_lstsq_on_random_spd_stacks(self, q):
        rng = np.random.default_rng(q)
        design = rng.normal(size=(300, 3 * q, q)) * rng.uniform(0.1, 10, size=(300, 1, q))
        design[..., 0] = 1.0
        response = rng.normal(size=(300, 3 * q))
        xtx = np.einsum("krc,krd->kcd", design, design)
        xty = np.einsum("krc,kr->kc", design, response)
        reference = np.array([np.linalg.lstsq(a, b, rcond=None)[0][-1] for a, b in zip(xtx, xty)])
        assert _normwise_error(_solve_last(xtx, xty), reference) <= 1e-10

    @pytest.mark.parametrize("q", [2, 3])
    def test_flat_or_singular_systems_equal_lstsq_exactly(self, q):
        rng = np.random.default_rng(10 + q)
        design = rng.normal(size=(8, 11, q))
        design[..., 0] = 1.0
        design[1, :, 1:] = 1.0  # a flat series: every lag equals the intercept's 1
        design[2, :, 1:] = 2.0
        design[3] = 0.0  # no rows at all
        design[4, :, -1] = 0.0  # a lag that never moves from zero
        design[5, :, 1:] = 0.7  # flat, and a pivot rounds to -1.8e-15
        response = rng.normal(size=(8, 11))
        xtx = np.einsum("krc,krd->kcd", design, design)
        xty = np.einsum("krc,kr->kc", design, response)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            last = _solve_last(xtx.reshape(2, 4, q, q), xty.reshape(2, 4, q)).ravel()
        lstsq = [np.linalg.lstsq(a, b, rcond=None)[0][-1] for a, b in zip(xtx, xty)]
        assert np.array_equal(last[1:6], lstsq[1:6])
        np.testing.assert_allclose(last[[0, 6, 7]], [lstsq[0], lstsq[6], lstsq[7]], rtol=1e-10)


class TestBatchedSieve:
    @pytest.mark.parametrize(
        "seed, contaminated", [(1, False), (2, False), (3, True), (4, False), (5, True)]
    )
    def test_ar1_draws_equal_per_unit_oracle(self, seed, contaminated):
        panel = gate_panel(seed, contaminated)
        series = fit_frontier_gls(panel).innovations
        fits = [ar_fit(s, 1) for s in series]
        config = TestConfig(n_boot_k=500, seed=100 + seed)
        batched = _null_sieve_draws(series, *stacked_fits(series, 1), config)
        idx = _index_block(config, len(fits), panel.n_periods)
        assert np.array_equal(batched, _oracle_null_draws(fits, panel.n_periods, config, idx))

    @pytest.mark.parametrize("p", [2, 3])
    def test_higher_order_draws_match_oracle(self, p):
        panel = gate_panel(6, contaminated=True)
        series = fit_frontier_gls(panel).innovations
        fits = [ar_fit(s, p) for s in series]
        config = TestConfig(ar_order_p=p, n_boot_k=500, seed=7)
        batched = _null_sieve_draws(series, *stacked_fits(series, p), config)
        idx = _index_block(config, len(fits), panel.n_periods)
        assert np.array_equal(batched, _oracle_null_draws(fits, panel.n_periods, config, idx))

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
        idx = np.random.default_rng(0).integers(
            0, 11, size=(SIEVE_BURN_IN + 12, 2, 100), dtype=np.uint8
        )
        batched = _sieve_refit(*sieve_arguments(fits), idx)
        oracle = [
            _oracle_ar_refit_batch(_oracle_sieve_batch(fit, 12, idx[:, i, :].T), 1)
            for i, fit in enumerate(fits)
        ]
        assert np.array_equal(batched, np.stack(oracle))

    def test_single_series_uses_the_same_recursion(self):
        # one unit is its own pooled mean, so its null fit is the fit itself
        series = make_ar1(0.5, 12, seed=8)[None]
        fit = ar_fit(series[0], 1)
        config = TestConfig(n_boot_k=200, seed=9)
        batched = _null_sieve_draws(series, *stacked_fits(series, 1), config)
        idx = _index_block(config, 1, 12)
        assert batched.shape == (1, 200)
        assert np.array_equal(batched, _oracle_null_draws([fit], 12, config, idx))

    def test_zero_residuals_give_deterministic_recursion(self):
        # with no innovations every sieve series is the same noiseless AR(1)
        # path from the observed head, which the refit reproduces exactly
        series = np.full((1, 20), 10.0)  # only the head and the length are read
        coeffs, residuals = np.array([[0.3, 0.95]]), np.zeros((1, 19))
        draws = _null_sieve_draws(series, coeffs, residuals, TestConfig(n_boot_k=100, seed=1))
        assert np.array_equal(draws, np.full_like(draws, draws[0, 0]))
        assert abs(draws[0, 0] - 0.95) < 1e-9

    def test_same_seed_identical(self):
        series = np.stack([make_ar1(0.5, 25, seed=s) for s in range(3)])
        fits = stacked_fits(series, 1)
        a = _null_sieve_draws(series, *fits, TestConfig(n_boot_k=100, seed=12))
        b = _null_sieve_draws(series, *fits, TestConfig(n_boot_k=100, seed=12))
        np.testing.assert_array_equal(a, b)
        c = _null_sieve_draws(series, *fits, TestConfig(n_boot_k=100, seed=13))
        assert not np.array_equal(a, c)

    def test_nonstationary_pooled_fit_is_stabilized(self):
        # a pooled coefficient of 1.05 is sieved at radius 0.98, so the refits
        # centre below 1; sieving the explosive fit itself gives about 1.03
        series = np.stack([make_ar1(0.5, 30, seed=s) for s in range(3)])
        coeffs, residuals = stacked_fits(series, 1)
        coeffs[:] = (0.1, 1.05)
        draws = _null_sieve_draws(series, coeffs, residuals, TestConfig(n_boot_k=200, seed=2))
        assert np.isfinite(draws).all()
        assert (draws.mean(axis=1) < 1.0).all()

    @pytest.mark.parametrize("t, dtype", [(257, np.uint8), (258, np.uint16)])
    def test_index_block_is_one_time_major_draw_in_smallest_dtype(self, monkeypatch, t, dtype):
        # p = 1 leaves t - 1 residuals: 256 fit in uint8, 257 need uint16
        series = np.stack([make_ar1(0.4, t, seed=s) for s in range(3)])
        config = TestConfig(n_boot_k=100, seed=1)
        seen = []

        def record(intercepts, residuals, heads, lag, idx):
            seen.append(idx.copy())
            return np.zeros((len(intercepts), idx.shape[2]))

        monkeypatch.setattr(assumption_tests, "_sieve_refit", record)
        _null_sieve_draws(series, *stacked_fits(series, 1), config)
        (idx,) = seen
        assert idx.shape == (SIEVE_BURN_IN + t, 3, 100) and idx.dtype == dtype
        assert idx.min() == 0 and idx.max() == t - 2
        assert np.array_equal(idx, _index_block(config, 3, t))

    def test_draws_centre_on_pooled_coefficient(self):
        # long AR(1) units: each unit's draws sit near the pooled coefficient
        # the null imposes, with about the asymptotic spread sqrt((1 - a**2)/T)
        t = 200
        series = np.stack([make_ar1(rho, t, seed=20 + i) for i, rho in enumerate((0.4, 0.6, 0.8))])
        coeffs, residuals = stacked_fits(series, 1)
        pooled = coeffs[:, -1].mean()
        draws = _null_sieve_draws(series, coeffs, residuals, TestConfig(n_boot_k=200, seed=4))
        assert np.abs(draws.mean(axis=1) - pooled).max() < 0.05
        ratio = draws.std(axis=1) / np.sqrt((1 - pooled**2) / t)
        assert ((0.5 < ratio) & (ratio < 2.0)).all()

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


class TestReusedBuffers:
    @staticmethod
    def _gate_series(seed, n_units):
        panel = gate_panel(seed, contaminated=seed % 2 == 1)
        return fit_frontier_gls(panel).innovations[:n_units]

    def _assert_draws_equal_oracle(self, series, config):
        p = config.ar_order_p
        draws = _null_sieve_draws(series, *stacked_fits(series, p), config)
        idx = _index_block(config, len(series), 12)
        fits = [ar_fit(s, p) for s in series]
        assert np.array_equal(draws, _oracle_null_draws(fits, 12, config, idx))

    def test_consecutive_draws_in_one_scope_equal_oracle(self):
        # the second call reuses the first's set; N, k and p changes resize it
        runs = [(1, 50, 500, 1), (2, 50, 500, 1), (3, 30, 500, 1), (4, 30, 200, 1),
                (5, 30, 200, 2), (6, 50, 500, 3), (7, 50, 500, 1)]
        with reused_buffers():
            for seed, n_units, k, p in runs:
                config = TestConfig(ar_order_p=p, n_boot_k=k, seed=100 + seed)
                self._assert_draws_equal_oracle(self._gate_series(seed, n_units), config)

    def test_singular_unit_falls_back_in_a_scope(self):
        # the elimination must leave the reused sums intact for lstsq
        flat = ARFit(order=1, coeffs=(1.0, 0.0), centered_residuals=np.zeros(11), mse=0.0,
                     series_head=(1.0,), n_obs=12)
        fits = [ar_fit(make_ar1(0.4, 12, seed=3), 1), flat]
        idx = np.random.default_rng(0).integers(
            0, 11, size=(SIEVE_BURN_IN + 12, 2, 100), dtype=np.uint8
        )
        good, flat = (_oracle_sieve_batch(fit, 12, idx[:, i, :].T) for i, fit in enumerate(fits))
        lstsq = [np.linalg.lstsq(a, b, rcond=None)[0][-1]
                 for a, b in zip(*_oracle_normal_equations(flat, 1))]
        expected = np.stack([_oracle_ar_refit_batch(good, 1), lstsq])
        with reused_buffers():
            for _ in range(2):
                assert np.array_equal(_sieve_refit(*sieve_arguments(fits), idx), expected)

    def test_set_is_kept_per_key_in_a_scope_only(self):
        assert _sieve_buffers(50, 100, 1) is not _sieve_buffers(50, 100, 1)
        with reused_buffers():
            held = _sieve_buffers(50, 100, 1)
            assert _sieve_buffers(50, 100, 1) is held
            assert _sieve_buffers(40, 100, 1) is not held
            assert _sieve_buffers(50, 100, 1) is not held  # the resize dropped it
        assert _sieve_buffers(50, 100, 1) is not _sieve_buffers(50, 100, 1)

    def test_outer_scope_usable_after_an_inner_one(self):
        config = TestConfig(n_boot_k=500, seed=11)
        series = self._gate_series(1, 50)
        with reused_buffers():
            self._assert_draws_equal_oracle(series, config)
            held = _sieve_buffers(50, 500, 1)
            with reused_buffers():
                self._assert_draws_equal_oracle(self._gate_series(2, 20),
                                                TestConfig(ar_order_p=2, n_boot_k=300, seed=12))
                assert _sieve_buffers(50, 500, 1) is not held
            assert _sieve_buffers(50, 500, 1) is held
            self._assert_draws_equal_oracle(series, config)

    def test_scope_is_per_thread(self):
        seen = []
        with reused_buffers():
            held = _sieve_buffers(50, 100, 1)
            worker = threading.Thread(target=lambda: seen.append(_sieve_buffers(50, 100, 1)))
            worker.start()
            worker.join()
        assert seen[0] is not held

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_elimination_takes_every_array_from_the_sieve(self, monkeypatch, p):
        # the elimination writes its q(q-1)/2 + q + 1 arrays into the scratch
        # the sieve hands it and allocates only its (50, 500) result and a few
        # boolean masks; one array more than that is another 200 kB
        series = self._gate_series(6, 50)
        config = TestConfig(ar_order_p=p, n_boot_k=500, seed=5)
        peaks = []

        def measured(a, b, scratch=()):
            tracemalloc.start()
            try:
                last = _last_coefficient(a, b, scratch)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            return last

        monkeypatch.setattr(assumption_tests, "_last_coefficient", measured)
        with reused_buffers():
            for _ in range(2):
                draws = _null_sieve_draws(series, *stacked_fits(series, p), config)
        assert len(peaks) == 2 and max(peaks) <= 1.5 * draws.nbytes

    def test_later_replication_in_a_scope_allocates_little(self):
        # bound fixed before the first run: the 1.55 MB index block and a few
        # (50, 500) arrays, against about 3.5 MiB for a call outside a scope
        panel = gate_panel(1)
        config = TestConfig(n_boot_k=500, seed=3)
        with reused_buffers():
            run_temporal_test(panel, config)
            tracemalloc.start()
            try:
                run_temporal_test(panel, replace(config, seed=4))
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert peak <= 2 * 2**20


def _rejected_lanes(seed, n, count):
    """Positions, among the first ``count`` lanes of substream(seed, "idx"),
    of the lanes that Lemire's rule rejects, found with Python integers."""
    size = np.min_scalar_type(n - 1).itemsize
    bits = 8 * size
    words = substream(seed, "idx").bit_generator.random_raw(-(-count * size // 8))
    stream = b"".join(int(word).to_bytes(8, "little") for word in words)
    lanes = [int.from_bytes(stream[i : i + size], "little") for i in range(0, count * size, size)]
    threshold = (2**bits - n) % n
    return [i for i, x in enumerate(lanes) if (x * n) % 2**bits < threshold]


class TestIndexBlock:
    """rng.index_block against the Generator.integers draw it replaces."""

    NS = [2, 3, 11, 59, 255, 256, 257, 65535, 65536, 65537]

    @staticmethod
    def _assert_equals_integers(seed, n, shape):
        expected = substream(seed, "idx").integers(
            0, n, size=shape, dtype=np.min_scalar_type(n - 1)
        )
        got = index_block(seed, "idx", n=n, shape=shape)
        assert got.dtype == expected.dtype and got.shape == expected.shape
        assert np.array_equal(got, expected)

    @pytest.mark.parametrize("n", NS)
    def test_equals_integers_at_sizes_around_the_chunk(self, n):
        chunk = rng._INDEX_CHUNK
        for size in (1, chunk - 1, chunk, chunk + 1, 2 * chunk + 9):
            self._assert_equals_integers(n, n, size)
        self._assert_equals_integers(n, n, (7, 3, 5))

    @pytest.mark.parametrize("n", NS)
    def test_equals_integers_across_many_small_chunks(self, n, monkeypatch):
        monkeypatch.setattr(rng, "_INDEX_CHUNK", 64)
        for size in (63, 64, 65, 640, 5000):
            self._assert_equals_integers(n, n, size)

    @pytest.mark.parametrize("n", [3, 11, 59, 255])
    def test_rejections_on_both_sides_of_a_chunk_boundary(self, n, monkeypatch):
        # lanes are drawn 64 at a time; at the first boundary with a rejected
        # lane on each side, the first chunk's accepted lanes end early and
        # the next chunk's must follow them
        monkeypatch.setattr(rng, "_INDEX_CHUNK", 64)
        rejected = np.array(_rejected_lanes(n, n, 1 << 14))
        chunks = set(rejected // 64)
        boundary = 64 * min(c for c in chunks if c + 1 in chunks) + 64
        accepted = boundary - np.count_nonzero(rejected < boundary)
        for size in (accepted - 1, accepted, accepted + 1, boundary + 64):
            self._assert_equals_integers(n, n, size)

    def test_rejections_near_the_real_chunk_boundary(self):
        chunk = rng._INDEX_CHUNK
        rejected = _rejected_lanes(4, 59, 2 * chunk)
        assert any(chunk - 64 <= i < chunk for i in rejected)
        assert any(chunk <= i < chunk + 64 for i in rejected)
        for size in (chunk - 1, chunk + 1, 2 * chunk):
            self._assert_equals_integers(4, 59, size)

    def test_one_value_and_the_largest_range(self):
        self._assert_equals_integers(3, 1, 100)
        self._assert_equals_integers(3, 2**32, 1000)
        self._assert_equals_integers(3, 2**32 - 1, 1000)

    @pytest.mark.parametrize("n", [0, 2**32 + 1])
    def test_ranges_out_of_reach_are_refused(self, n):
        with pytest.raises(ValueError, match="n must lie in"):
            index_block(0, n=n, shape=3)
