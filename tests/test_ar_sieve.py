import hashlib
import math
import re
import threading
import tracemalloc
import warnings
from dataclasses import asdict

import numpy as np
import pytest

from stfrontier import (
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
    _ar_fit_rows,
    _burn_in,
    _last_coefficient,
    _null_sieve_draws,
    _sieve_refit,
    _stabilized,
    test_constant_temporal as run_temporal_test,
)
from stfrontier.estimation import least_squares
from stfrontier.rng import index_block, substream

from dispatch_path import dispatch_path


def per_row_least_squares(series):
    """Reference for _ar_fit_rows: the per-row fitter that its batched SVD
    replaced, one estimation.least_squares call per row. Returns the
    coefficients, the centered residuals and the mse of every row."""
    n, t = series.shape
    design = np.empty((n, t - 1, 2))
    design[..., 0] = 1.0
    design[..., 1] = series[:, :-1]
    target = series[:, 1:]
    coeffs = np.empty((n, 2))
    resid = np.empty_like(target)
    for i in range(n):
        coeffs[i] = least_squares(design[i], target[i], ["intercept", "lag1"], "singular")
        resid[i] = target[i] - design[i] @ coeffs[i]
    mse = (resid**2).sum(axis=1) / (t - 3)
    return coeffs, resid - resid.mean(axis=1, keepdims=True), mse


def stacked_fits(series):
    """_ar_fit_rows' coefficients and centered residuals of rows that all fit."""
    fit, failure = _ar_fit_rows(series)
    assert failure is None
    return fit[:2]


def make_ar1(rho, t, seed, sigma=1.0, intercept=0.0):
    rng = np.random.default_rng(seed)
    s = np.empty(t)
    s[0] = intercept + rng.normal(0, sigma / np.sqrt(1 - rho**2))
    for i in range(1, t):
        s[i] = intercept + rho * (s[i - 1] - intercept) + rng.normal(0, sigma)
    return s


def with_flat_lags(t, value=1.0):
    """A series whose first t-1 values, the lagged ones, all equal ``value``:
    its lag column is collinear with the intercept, though the series varies."""
    return np.r_[np.full(t - 1, value), value + 1.0]


class TestArFit:
    def test_white_noise_gives_small_coefficient(self):
        # median over seeds of |rho_1| stays well under 0.15 at T=60
        values = []
        for seed in range(20):
            series = 2.0 + np.random.default_rng(seed).normal(size=60)
            values.append(abs(ar_fit(series).rho))
        assert np.median(values) < 0.15

    def test_ar1_long_series_recovery(self):
        fit = ar_fit(make_ar1(0.6, 500, seed=8))
        assert fit.rho == pytest.approx(0.6, abs=0.1)

    def test_residuals_centered(self):
        fit = ar_fit(make_ar1(0.4, 40, seed=9))
        assert abs(fit.centered_residuals.mean()) < 1e-12

    def test_zero_variance_series(self):
        with pytest.raises(EstimationError, match="zero-variance series"):
            ar_fit(np.full(30, 1.7))

    def test_series_too_short(self):
        with pytest.raises(ValidationError, match=r"too short for AR\(1\): need T > 4, got T=4"):
            ar_fit(np.arange(4.0))

    def test_collinear_lags(self):
        with pytest.raises(EstimationError, match=re.escape("near-singular lag matrix for AR(1)")):
            ar_fit(with_flat_lags(16))

    def test_collinear_lags_named(self):
        with pytest.raises(EstimationError, match="collinear columns: lag1$"):
            ar_fit(with_flat_lags(16))

    def test_mse_positive_and_length_stored(self):
        series = make_ar1(0.5, 30, seed=10)
        fit = ar_fit(series)
        assert fit.mse > 0
        assert fit.n_obs == 30 and fit.centered_residuals.shape == (29,)

    @pytest.mark.parametrize("shape", [(3, 20), (1, 20), (20, 1), ()])
    def test_input_other_than_one_series_is_refused(self, shape):
        # a (3, 20) array used to be flattened into one 60-value series
        series = np.random.default_rng(0).normal(size=shape)
        with pytest.raises(ValidationError, match=re.escape(f"got shape {shape}")):
            ar_fit(series)


class TestArFitRows:
    @pytest.mark.parametrize("seed, contaminated, t", [(6, True, 12), (7, False, 12), (8, True, 60)])
    def test_batched_fits_bit_identical_to_per_row_ar_fit(self, seed, contaminated, t):
        series = fit_frontier_gls(gate_panel(seed, contaminated, n_periods=t)).innovations
        (coeffs, resid, mse), failure = _ar_fit_rows(series)
        assert failure is None
        assert coeffs.shape == (50, 2) and resid.shape == (50, t - 1) and mse.shape == (50,)
        for i, row in enumerate(series):
            alone = ar_fit(row)
            assert (coeffs[i, 0], coeffs[i, 1]) == (alone.intercept, alone.rho)
            assert np.array_equal(resid[i], alone.centered_residuals)
            assert mse[i] == alone.mse and alone.n_obs == t

    @pytest.mark.parametrize(
        "n, t, seed", [(50, 12, 1), (50, 12, 2), (20, 60, 3), (50, 60, 4), (200, 12, 5), (10, 5, 6)]
    )
    def test_batched_fits_match_per_row_least_squares(self, n, t, seed):
        panel = simulate_panel(
            Scenario(n_units=n, n_periods=t, base_params=default_power_params(),
                     contamination_fraction=0.1, temporal_shift_r=1.0, seed=seed)
        )[0]
        series = fit_frontier_gls(panel).innovations
        coeffs, resid, mse = per_row_least_squares(series)
        fit, failure = _ar_fit_rows(series)
        assert failure is None
        for i, (batched_coeffs, batched_resid, batched_mse) in enumerate(zip(*fit)):
            assert _normwise_error(batched_coeffs, coeffs[i]) <= 1e-12
            assert _normwise_error(batched_resid, resid[i]) <= 1e-12
            assert abs(batched_mse - mse[i]) <= 1e-12 * mse[i]

    def test_first_failing_row_in_row_order_is_reported(self):
        rng = np.random.default_rng(3)
        series = rng.normal(size=(5, 12))
        series[1] = with_flat_lags(12)  # collinear lags
        series[2, 4] = np.nan
        series[3] = 0.5  # flat
        for row, kind in ((1, EstimationError), (2, ValidationError), (3, EstimationError)):
            fit, (bad, err) = _ar_fit_rows(series)
            assert fit is None and bad == row and type(err) is kind
            with pytest.raises(kind) as alone:
                ar_fit(series[row])
            assert str(err) == str(alone.value)
            series[row] = rng.normal(size=12)
        assert _ar_fit_rows(series)[1] is None

    @pytest.mark.parametrize("flat, collinear", [(1, 3), (3, 1)])
    def test_temporal_test_names_the_first_bad_unit(
        self, flat, collinear, innovations_are_log_output
    ):
        rng = np.random.default_rng(4)
        log_output = rng.normal(size=(5, 12))
        log_output[flat] = 1.25
        log_output[collinear] = with_flat_lags(12, 0.0)
        panel = PanelDataset(
            log_output=log_output,
            log_inputs=rng.normal(size=(5, 12, 1)),
            spatial=rng.normal(size=(5, 12, 1)),
            covariates=rng.normal(size=(5, 12, 1)),
            unit_ids=tuple(f"u{i}" for i in range(5)),
        )
        first = min(flat, collinear)
        with pytest.raises(EstimationError) as alone:
            ar_fit(log_output[first])
        config = TestConfig(n_boot_k=100, seed=1)
        with pytest.raises(BootstrapError) as raised:
            run_temporal_test(panel, config)
        assert str(raised.value) == f"AR fit failed for unit 'u{first}': {alone.value}"


def _oracle_stabilized(rho: float) -> float:
    """Reference for _stabilized: the per-fit rescaling it replaced, at order
    1, which scaled lag j by s**j with s = target/radius."""
    radius = abs(float(rho))
    if radius < assumption_tests._STABILIZE_RADIUS:
        return rho
    scale = assumption_tests._STABILIZE_TARGET / radius
    return float((np.array([rho]) * scale ** np.arange(1, 2))[0])


class TestStabilization:
    @pytest.mark.parametrize("rho", [1.1, -1.1])
    def test_explosive_fit_rescaled_for_resampling(self, rho):
        assert abs(_stabilized(rho)) <= 0.99
        assert np.sign(_stabilized(rho)) == np.sign(rho)

    def test_stationary_fit_untouched(self):
        coeffs, _ = stacked_fits(make_ar1(0.4, 30, seed=7)[None])
        assert _stabilized(coeffs[0, 1]) == coeffs[0, 1]

    def test_reported_estimates_are_the_fits_not_the_sieved_lags(
        self, innovations_are_log_output
    ):
        # every unit explodes at 1.1, so the pooled lag is rescaled for the sieve
        rng = np.random.default_rng(5)
        y = np.empty((6, 30))
        y[:, 0] = rng.normal(size=6)
        for s in range(1, 30):
            y[:, s] = 1.1 * y[:, s - 1] + rng.normal(size=6)
        panel = PanelDataset(log_output=y, log_inputs=rng.normal(size=(6, 30, 1)),
                             spatial=rng.normal(size=(6, 30, 1)),
                             covariates=rng.normal(size=(6, 30, 1)))
        coeffs, _ = stacked_fits(y)
        assert coeffs[:, 1].mean() >= assumption_tests._STABILIZE_RADIUS
        config = TestConfig(n_boot_k=100, seed=1)
        report = run_temporal_test(panel, config)
        assert report.per_block_estimate == tuple(coeffs[:, 1])

    @pytest.mark.parametrize("seed", [31, 32, 33])
    def test_only_explosive_values_change_as_the_oracle_gives_them(self, seed):
        # every third value is explosive, 1.3-1.8 in modulus; two sit just at
        # and just below the threshold
        rng = np.random.default_rng(seed)
        rho = rng.uniform(-0.3, 0.3, size=42)
        rho[::3] = rng.choice([-1.0, 1.0], size=14) * rng.uniform(1.3, 1.8, size=14)
        rho[1:3] = assumption_tests._STABILIZE_RADIUS, np.nextafter(0.999, 0.0)
        changes = [i % 3 == 0 or i == 1 for i in range(42)]
        for value, change in zip(rho, changes):
            tamed = _stabilized(value)
            assert tamed == _oracle_stabilized(value)
            assert (tamed != value) == change

    @pytest.mark.parametrize("a", [0.0, -0.0, 0.3, -0.3, 0.999, -0.999, 1.2, -1.2, 0.1 + 0.2])
    def test_rescales_exactly_when_the_root_modulus_reaches_the_threshold(self, a):
        # the AR(1) companion polynomial 1 - a*z has the one root 1/a, whose
        # inverse modulus np.roots gives as |a|
        radius = np.abs(np.roots([1.0, -a])).max() if a else 0.0
        assert (_stabilized(a) != a) == (radius >= assumption_tests._STABILIZE_RADIUS)
        assert _stabilized(a) == _oracle_stabilized(a)


class TestBurnIn:
    @pytest.mark.parametrize(
        "rho, steps",
        [
            (0.0, 10), (-0.0, 10), (1e-3, 10), (0.1, 10),  # the floor binds
            (0.2, 13), (0.26, 16), (-0.26, 16), (0.5, 30), (-0.5, 30), (0.9, 197),
            (0.95, 200), (_stabilized(1.2), 200), (_stabilized(-1.05), 200),  # the cap binds
        ],
    )
    def test_steps_follow_the_rule(self, rho, steps):
        assert _burn_in(rho) == _oracle_burn_in(rho) == steps
        assert type(_burn_in(rho)) is int


# Reference for the unit-batched sieve: a per-unit recursion and an einsum
# refit over the stored series. Unit i reads its (k, steps) innovation
# indices from the block as idx[:, i, :].T; the first steps - m of them are
# the burn-in. The recursion adds in the kernel's order, c + e first and then
# the lag product, so the draws match bit for bit.


def _oracle_burn_in(rho):
    """Reference for _burn_in, written out: the fewest steps b after which
    |rho|**b is below 1e-9, kept within [10, 200]; 10 at rho = 0."""
    if rho == 0:
        return 10
    return min(200, max(10, math.ceil(math.log(1e-9) / math.log(abs(rho)))))


def _oracle_sieve_batch(intercept, rho, residuals, head, m, unit_idx):
    k, steps = unit_idx.shape
    shocks = intercept + residuals[unit_idx]
    state = np.full(k, head)
    out = np.empty((k, steps))
    for s in range(steps):
        state = shocks[:, s] + rho * state
        out[:, s] = state
    return out[:, steps - m:]


def _oracle_normal_equations(series_batch):
    k, m = series_batch.shape
    design = np.stack([np.ones((k, m - 1)), series_batch[:, :-1]], axis=2)
    target = series_batch[:, 1:]
    return (
        np.einsum("krc,krd->kcd", design, design),
        np.einsum("krc,kr->kc", design, target),
    )


def _solve_last(xtx, xty):
    """_last_coefficient on systems stacked the usual way, (..., 2, 2) and (..., 2)."""
    return _last_coefficient(xtx[..., 0, 0], xtx[..., 0, 1], xtx[..., 1, 1], xty[..., 0], xty[..., 1])


def _oracle_ar_refit_batch(series_batch):
    return _solve_last(*_oracle_normal_equations(series_batch))


def _oracle_pooled(series):
    """The coefficient every unit's sieve runs with, from per-unit ARFit
    objects: their mean, stabilized."""
    return _oracle_stabilized(float(np.mean([ar_fit(row).rho for row in series])))


def _index_block(config, series):
    """The innovation indices _null_sieve_draws draws for ``series``: one
    generator, one block of the burn-in's and the series' steps."""
    n_units, m = series.shape
    return substream(config.seed, "temporal-sieve").integers(
        0,
        m - 1,
        size=(_oracle_burn_in(_oracle_pooled(series)) + m, n_units, config.n_boot_k),
        dtype=np.min_scalar_type(m - 2),
    )


def _oracle_null_series(series, idx):
    """Each unit's (k, m) null sieve series, unit by unit, from per-unit
    ARFit objects."""
    fits = [ar_fit(row) for row in series]
    pooled = _oracle_pooled(series)
    for i, fit in enumerate(fits):
        yield _oracle_sieve_batch(fit.intercept, pooled, fit.centered_residuals, series[i, 0],
                                  series.shape[1], idx[:, i, :].T)


def _oracle_null_draws(series, idx):
    """The (units, k) null draws, unit by unit."""
    return np.stack([_oracle_ar_refit_batch(batch)
                     for batch in _oracle_null_series(series, idx)])


def gate_panel(seed, contaminated=False, n_periods=12):
    """A panel at the acceptance gate's temporal point: n=50, T=12."""
    scenario = Scenario(
        n_units=50,
        n_periods=n_periods,
        base_params=default_power_params(),
        contamination_fraction=0.1 if contaminated else 0.0,
        temporal_shift_r=1.0 if contaminated else 0.0,
        seed=seed,
    )
    return simulate_panel(scenario)[0]


def _normwise_error(x, reference):
    return np.abs(x - reference).max() / np.abs(reference).max()


def _flat_and_good_unit():
    """_sieve_refit's arguments for two units, one fit to an AR(1) series and
    one whose sieve, with no innovations, stays at 1.0, so its refit is
    singular; both run with the good unit's coefficient, as the null has it."""
    good = ar_fit(make_ar1(0.4, 12, seed=3))
    rho = 0.5
    intercepts = np.array([good.intercept, 1.0 - rho])
    residuals = np.stack([good.centered_residuals, np.zeros(11)])
    return intercepts, residuals, np.array([0.3, 1.0]), rho


class TestLastCoefficient:
    @pytest.mark.parametrize(
        "seed, contaminated, t",
        [(1, False, 12), (2, False, 12), (3, True, 12), (4, False, 12), (5, True, 12),
         (6, False, 60), (7, True, 60)],
    )
    def test_agrees_with_solve_on_gate_refit_systems(self, seed, contaminated, t):
        series = fit_frontier_gls(gate_panel(seed, contaminated, n_periods=t)).innovations
        config = TestConfig(n_boot_k=500, seed=100 + seed)
        idx = _index_block(config, series)
        batches = np.concatenate(list(_oracle_null_series(series, idx)))
        xtx, xty = _oracle_normal_equations(batches)
        reference = np.linalg.solve(xtx, xty[..., None])[:, -1, 0]
        assert _normwise_error(_solve_last(xtx, xty), reference) <= 1e-10

    @pytest.mark.parametrize("seed", [2, 3, 4])
    def test_agrees_with_lstsq_on_random_spd_stacks(self, seed):
        rng = np.random.default_rng(seed)
        design = rng.normal(size=(300, 6, 2)) * rng.uniform(0.1, 10, size=(300, 1, 2))
        design[..., 0] = 1.0
        response = rng.normal(size=(300, 6))
        xtx = np.einsum("krc,krd->kcd", design, design)
        xty = np.einsum("krc,kr->kc", design, response)
        reference = np.array([np.linalg.lstsq(a, b, rcond=None)[0][-1] for a, b in zip(xtx, xty)])
        assert _normwise_error(_solve_last(xtx, xty), reference) <= 1e-10

    @pytest.mark.parametrize("seed", [12, 13])
    def test_flat_or_singular_systems_equal_lstsq_exactly(self, seed):
        rng = np.random.default_rng(seed)
        design = rng.normal(size=(8, 11, 2))
        design[..., 0] = 1.0
        design[1, :, 1] = 1.0  # a flat series: the lag equals the intercept's 1
        design[2, :, 1] = 2.0
        design[3] = 0.0  # no rows at all
        design[4, :, 1] = 0.0  # a lag that never moves from zero
        design[5, :, 1] = 0.7  # flat, and the pivot rounds to a tiny nonzero
        response = rng.normal(size=(8, 11))
        xtx = np.einsum("krc,krd->kcd", design, design)
        xty = np.einsum("krc,kr->kc", design, response)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            last = _solve_last(xtx.reshape(2, 4, 2, 2), xty.reshape(2, 4, 2)).ravel()
        lstsq = [np.linalg.lstsq(a, b, rcond=None)[0][-1] for a, b in zip(xtx, xty)]
        assert np.array_equal(last[1:6], lstsq[1:6])
        np.testing.assert_allclose(last[[0, 6, 7]], [lstsq[0], lstsq[6], lstsq[7]], rtol=1e-10)


    @pytest.mark.parametrize("n_scratch", [0, 1, 2, 3])
    def test_any_scratch_gives_the_same_bits_and_keeps_the_sums(self, n_scratch):
        # arrays missing from the scratch are allocated; the sums, which the
        # lstsq fallback reads, are never written
        rng = np.random.default_rng(40 + n_scratch)
        design = rng.normal(size=(6, 9, 2))
        design[..., 0] = 1.0
        design[0, :, 1] = 0.5  # singular: solved by lstsq
        xtx = np.einsum("krc,krd->kcd", design, design)
        xty = np.einsum("krc,kr->kc", design, rng.normal(size=(6, 9)))
        sums = [xtx[:, 0, 0], xtx[:, 0, 1], xtx[:, 1, 1], xty[:, 0], xty[:, 1]]
        kept = [a.copy() for a in sums]
        scratch = [np.full(6, np.nan) for _ in range(n_scratch)]
        last = _last_coefficient(*sums, scratch)
        assert np.array_equal(last, _solve_last(xtx, xty))
        assert all(np.array_equal(a, b) for a, b in zip(sums, kept))
        assert last[0] == np.linalg.lstsq(xtx[0], xty[0], rcond=None)[0][-1]


# sha256 of the draws' bytes on each dispatch path, as the tree drew them
# before the temporal test was fixed at AR(1) (ledger D21). The two simulated
# panels' pins were recorded again when expit came to use numpy's exp (ledger
# D22), and when the temporal test came to read the fit's innovations as
# fitted, not rebuilt from u_hat (ledger D26). All three were recorded again
# when the burn-in came to follow the pooled coefficient (ledger D27). The
# explosive series takes no exp or log, so it has one digest on both paths.
PINNED_DRAWS = {
    (1, 12): {
        "avx512": "bb21ed2eeb190088c4fa935f3c1c13944e464040ee8b43abf65b9f6065fa3d54",
        "portable": "6939ccad706ba35cd4ac1985026b65a0840fcf3cb94fca4f208705d105addb39",
    },
    (2, 60): {
        "avx512": "8cb22fb173e15ca9011cbee3c03b9e2844dd73fb41047b45bf7a6507f1c5967e",
        "portable": "f5b06af4c309af6c21f8e3c441e5179e173cb8ee31fd2f3e7c4206ecf6d90c87",
    },
    "explosive": dict.fromkeys(
        ("avx512", "portable"), "b71582815f6fea508d6369ac8d3aa4b520be9c0a1a2adceb78ae0327a26b82d8"
    ),
}


def explosive_series():
    """Eight units that explode at 1.15, so the pooled coefficient is rescaled."""
    rng = np.random.default_rng(21)
    series = np.empty((8, 30))
    series[:, 0] = rng.normal(size=8)
    for s in range(1, 30):
        series[:, s] = 1.15 * series[:, s - 1] + rng.normal(size=8)
    return series


class TestBatchedSieve:
    @pytest.mark.parametrize("key", list(PINNED_DRAWS), ids=["50x12", "50x60", "explosive"])
    def test_draws_keep_their_bits(self, key):
        if key == "explosive":
            series, config = explosive_series(), TestConfig(n_boot_k=200, seed=22)
        else:
            seed, t = key
            panel = simulate_panel(Scenario(
                n_units=50, n_periods=t, base_params=default_power_params(),
                contamination_fraction=0.1, temporal_shift_r=1.5, seed=seed,
            ))[0]
            series, config = fit_frontier_gls(panel).innovations, TestConfig(seed=40 + seed)
        draws = _null_sieve_draws(series, *stacked_fits(series), config)
        assert hashlib.sha256(draws.tobytes()).hexdigest() == PINNED_DRAWS[key][dispatch_path()]


    @pytest.mark.parametrize(
        "seed, contaminated, t",
        [(1, False, 12), (2, False, 12), (3, True, 12), (4, False, 12), (5, True, 12),
         (6, False, 60), (7, True, 60)],
    )
    def test_draws_equal_per_unit_oracle(self, seed, contaminated, t):
        series = fit_frontier_gls(gate_panel(seed, contaminated, n_periods=t)).innovations
        config = TestConfig(n_boot_k=500, seed=100 + seed)
        batched = _null_sieve_draws(series, *stacked_fits(series), config)
        idx = _index_block(config, series)
        assert np.array_equal(batched, _oracle_null_draws(series, idx))

    def test_singular_unit_falls_back_to_least_squares(self):
        # a flat recursion with no innovations makes that unit's refit singular
        intercepts, residuals, heads, rho = _flat_and_good_unit()
        idx = np.random.default_rng(0).integers(
            0, 11, size=(_oracle_burn_in(rho) + 12, 2, 100), dtype=np.uint8
        )
        batched = _sieve_refit(intercepts, residuals, heads, rho, idx)
        oracle = [
            _oracle_ar_refit_batch(
                _oracle_sieve_batch(intercepts[i], rho, residuals[i], heads[i], 12, idx[:, i, :].T)
            )
            for i in range(2)
        ]
        assert np.array_equal(batched, np.stack(oracle))

    def test_single_series_uses_the_same_recursion(self):
        # one unit is its own pooled mean, so its null fit is the fit itself
        series = make_ar1(0.5, 12, seed=8)[None]
        config = TestConfig(n_boot_k=200, seed=9)
        batched = _null_sieve_draws(series, *stacked_fits(series), config)
        idx = _index_block(config, series)
        assert batched.shape == (1, 200)
        assert np.array_equal(batched, _oracle_null_draws(series, idx))

    def test_zero_residuals_give_deterministic_recursion(self):
        # with no innovations every sieve series is the same noiseless AR(1)
        # path from the observed head, which the refit reproduces exactly. The
        # 200 burn-in steps at 0.95 leave 3.5e-5 of the head's distance from
        # the mean 6, so the head sits far out for the path to still move
        series = np.full((1, 20), 1e4)  # only the head and the length are read
        coeffs, residuals = np.array([[0.3, 0.95]]), np.zeros((1, 19))
        draws = _null_sieve_draws(series, coeffs, residuals, TestConfig(n_boot_k=100, seed=1))
        assert np.array_equal(draws, np.full_like(draws, draws[0, 0]))
        assert abs(draws[0, 0] - 0.95) < 1e-9

    def test_same_seed_identical(self):
        series = np.stack([make_ar1(0.5, 25, seed=s) for s in range(3)])
        fits = stacked_fits(series)
        a = _null_sieve_draws(series, *fits, TestConfig(n_boot_k=100, seed=12))
        b = _null_sieve_draws(series, *fits, TestConfig(n_boot_k=100, seed=12))
        np.testing.assert_array_equal(a, b)
        c = _null_sieve_draws(series, *fits, TestConfig(n_boot_k=100, seed=13))
        assert not np.array_equal(a, c)

    def test_nonstationary_pooled_fit_is_stabilized(self):
        # a pooled coefficient of 1.05 is sieved at radius 0.98, so the refits
        # centre below 1; sieving the explosive fit itself gives about 1.03
        series = np.stack([make_ar1(0.5, 30, seed=s) for s in range(3)])
        coeffs, residuals = stacked_fits(series)
        coeffs[:] = (0.1, 1.05)
        draws = _null_sieve_draws(series, coeffs, residuals, TestConfig(n_boot_k=200, seed=2))
        assert np.isfinite(draws).all()
        assert (draws.mean(axis=1) < 1.0).all()

    def test_stabilized_pooled_fit_draws_equal_oracle(self):
        # the pooled coefficient is rescaled, in the kernel as in the oracle
        series = explosive_series()
        coeffs, residuals = stacked_fits(series)
        assert coeffs[:, 1].mean() >= assumption_tests._STABILIZE_RADIUS
        config = TestConfig(n_boot_k=200, seed=22)
        draws = _null_sieve_draws(series, coeffs, residuals, config)
        assert np.array_equal(draws, _oracle_null_draws(series, _index_block(config, series)))

    @pytest.mark.parametrize("t, dtype", [(257, np.uint8), (258, np.uint16)])
    def test_index_block_is_one_time_major_draw_in_smallest_dtype(self, monkeypatch, t, dtype):
        # t values leave t - 1 residuals: 256 fit in uint8, 257 need uint16
        series = np.stack([make_ar1(0.4, t, seed=s) for s in range(3)])
        config = TestConfig(n_boot_k=100, seed=1)
        seen = []

        def record(intercepts, residuals, heads, rho, idx):
            seen.append(idx.copy())
            return np.zeros((len(intercepts), idx.shape[2]))

        monkeypatch.setattr(assumption_tests, "_sieve_refit", record)
        _null_sieve_draws(series, *stacked_fits(series), config)
        (idx,) = seen
        assert idx.shape == (_oracle_burn_in(_oracle_pooled(series)) + t, 3, 100)
        assert idx.dtype == dtype and idx.min() == 0 and idx.max() == t - 2
        assert np.array_equal(idx, _index_block(config, series))

    @pytest.mark.parametrize(
        "case, steps",
        [("white", 10), ("gate", 10), ("50x60", 14), ("ar0.6", 33), ("explosive", 200)],
    )
    def test_block_asked_for_holds_the_burn_in_and_the_series(self, monkeypatch, case, steps):
        # steps is the burn-in the test's own formula gives each pooled
        # coefficient: the floor, three between, and the cap
        if case == "explosive":
            series = explosive_series()
        elif case == "gate":
            series = fit_frontier_gls(gate_panel(1)).innovations
        elif case == "50x60":
            series = fit_frontier_gls(gate_panel(6, n_periods=60)).innovations
        else:
            rho = 0.0 if case == "white" else 0.6
            series = np.stack([make_ar1(rho, 30, seed=s) for s in range(4)])
        assert _oracle_burn_in(_oracle_pooled(series)) == steps
        seen = []

        def record(seed, key, *, n, shape):
            seen.append(shape)
            return index_block(seed, key, n=n, shape=shape)

        monkeypatch.setattr(assumption_tests, "index_block", record)
        config = TestConfig(n_boot_k=100, seed=2)
        _null_sieve_draws(series, *stacked_fits(series), config)
        assert seen == [(steps + series.shape[1], len(series), 100)]

    def test_draws_centre_on_pooled_coefficient(self):
        # long AR(1) units: each unit's draws sit near the pooled coefficient
        # the null imposes, with about the asymptotic spread sqrt((1 - a**2)/T)
        t = 200
        series = np.stack([make_ar1(rho, t, seed=20 + i) for i, rho in enumerate((0.4, 0.6, 0.8))])
        coeffs, residuals = stacked_fits(series)
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


class TestCallsShareNoState:
    @staticmethod
    def _gate_series(seed, n_units):
        panel = gate_panel(seed, contaminated=seed % 2 == 1)
        return fit_frontier_gls(panel).innovations[:n_units]

    def _assert_draws_equal_oracle(self, series, config):
        draws = _null_sieve_draws(series, *stacked_fits(series), config)
        idx = _index_block(config, series)
        assert np.array_equal(draws, _oracle_null_draws(series, idx))

    def test_consecutive_draws_equal_oracle(self):
        # calls of the same and of changing N and k, one after another
        runs = [(1, 50, 500), (2, 50, 500), (3, 30, 500), (4, 30, 200), (5, 30, 200),
                (6, 50, 500), (7, 50, 500)]
        for seed, n_units, k in runs:
            config = TestConfig(n_boot_k=k, seed=100 + seed)
            self._assert_draws_equal_oracle(self._gate_series(seed, n_units), config)

    def test_singular_unit_falls_back_twice_in_a_row(self):
        # the elimination must leave the sums intact for lstsq
        intercepts, residuals, heads, rho = _flat_and_good_unit()
        idx = np.random.default_rng(0).integers(
            0, 11, size=(_oracle_burn_in(rho) + 12, 2, 100), dtype=np.uint8
        )
        good, flat = (
            _oracle_sieve_batch(intercepts[i], rho, residuals[i], heads[i], 12, idx[:, i, :].T)
            for i in range(2)
        )
        lstsq = [np.linalg.lstsq(a, b, rcond=None)[0][-1]
                 for a, b in zip(*_oracle_normal_equations(flat))]
        expected = np.stack([_oracle_ar_refit_batch(good), lstsq])
        for _ in range(2):
            assert np.array_equal(_sieve_refit(intercepts, residuals, heads, rho, idx), expected)

    @pytest.mark.parametrize("n_units, k", [(50, 500), (20, 300)])
    def test_elimination_takes_every_array_from_the_sieve(self, monkeypatch, n_units, k):
        # the elimination writes its three arrays into the scratch the sieve
        # hands it and allocates only its (units, k) result and a few boolean
        # masks; one array more than that is another result's worth
        series = self._gate_series(6, n_units)
        config = TestConfig(n_boot_k=k, seed=5)
        peaks = []

        def measured(*args):
            tracemalloc.start()
            try:
                last = _last_coefficient(*args)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            return last

        monkeypatch.setattr(assumption_tests, "_last_coefficient", measured)
        for _ in range(2):
            draws = _null_sieve_draws(series, *stacked_fits(series), config)
        assert len(peaks) == 2 and max(peaks) <= 1.5 * draws.nbytes

    def test_concurrent_calls_equal_serial_ones(self):
        # two threads running both shapes, half the time the same one and
        # half the time not: an array kept between calls would mix one
        # call's values into another's
        panels = [
            gate_panel(21),
            simulate_panel(Scenario(n_units=30, n_periods=20,
                                    base_params=default_power_params(), seed=22))[0],
        ]
        configs = [TestConfig(n_boot_k=500, seed=31), TestConfig(n_boot_k=300, seed=32)]
        expected = [asdict(run_temporal_test(p, c)) for p, c in zip(panels, configs)]
        rounds = 8
        start = threading.Barrier(2)
        seen = [[], []]

        def run(thread):
            start.wait()
            for r in range(rounds):
                i = (r >> thread) % 2  # 0, 1, 0, 1, ... and 0, 0, 1, 1, ...
                seen[thread].append((i, asdict(run_temporal_test(panels[i], configs[i]))))

        workers = [threading.Thread(target=run, args=(thread,)) for thread in range(2)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=120)
        assert not any(worker.is_alive() for worker in workers)
        assert [len(reports) for reports in seen] == [rounds, rounds]
        for i, report in seen[0] + seen[1]:
            assert report == expected[i]


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
