import numpy as np
import pytest
from scipy.special import expit

from stfrontier import (
    BootstrapError,
    EstimationError,
    PanelDataset,
    Scenario,
    TestConfig,
    TestReport,
    ValidationError,
    fit_frontier_gls,
    fit_spatial_slice,
    simulate_panel,
)
from stfrontier import assumption_tests
from stfrontier.assumption_tests import (
    _ar_fit_rows,
    _case_resample_slopes,
    test_constant_spatial as run_spatial_test,
    test_constant_temporal as run_temporal_test,
)


def power_scenario(**kw):
    from stfrontier import default_power_params

    args = dict(n_units=12, n_periods=12, seed=42, base_params=default_power_params())
    args.update(kw)
    return Scenario(**args)


class TestConfigValidation:
    def test_defaults_valid(self):
        cfg = TestConfig()
        assert cfg.n_boot_k == 500 and cfg.alpha == 0.05

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(n_boot_k=50),
            dict(alpha=0.6),
            dict(alpha=0.0),
            dict(n_boot_k=100, alpha=0.01),  # alpha*k = 1 < 5
            dict(n_boot_k=150.7),  # int() truncated this to 150 and True to 1
            dict(n_boot_k=True),
        ],
    )
    def test_invalid_configs(self, kwargs):
        with pytest.raises(ValidationError):
            TestConfig(**kwargs)

    @pytest.mark.parametrize("k", [150.0, np.int64(150)])
    def test_integral_floats_become_ints(self, k):
        cfg = TestConfig(n_boot_k=k)
        assert cfg.n_boot_k == 150 and type(cfg.n_boot_k) is int

    def test_ar_order_is_not_a_setting(self):
        # the temporal test fits AR(1), the model's noise, and nothing else
        with pytest.raises(TypeError, match="ar_order_p"):
            TestConfig(ar_order_p=1)

    @pytest.mark.parametrize("source", ["frontier_residuals", "log_output"])
    def test_series_source_is_not_a_setting(self, source):
        # the temporal test runs on the frontier innovations, the model's
        # estimate of its AR(1) noise, and on nothing else
        with pytest.raises(TypeError, match="series_source"):
            TestConfig(series_source=source)


class TestReportContract:
    def test_interval_order_enforced(self):
        with pytest.raises(ValidationError, match="lo > hi"):
            TestReport(
                test_kind="temporal",
                per_block_estimate=(0.1,),
                per_block_interval=((0.5, 0.2),),
                reference_value=0.1,
                n_failing=0,
                reject=False,
                decision_rule="",
                block_labels=(0,),
                alpha=0.05,
            )

    def test_reject_recomputable_from_intervals(self):
        panel, *_ = simulate_panel(power_scenario())
        report = run_temporal_test(panel, TestConfig(n_boot_k=120, seed=9))
        ref = report.reference_value
        excluding = sum(1 for lo, hi in report.per_block_interval if ref < lo or ref > hi)
        assert excluding == report.n_failing
        assert report.reject == (report.n_failing >= 1)


class TestTemporal:
    def test_deterministic_given_seed(self):
        panel, *_ = simulate_panel(power_scenario())
        cfg = TestConfig(n_boot_k=120, seed=5)
        a = run_temporal_test(panel, cfg)
        b = run_temporal_test(panel, cfg)
        assert a.per_block_estimate == b.per_block_estimate
        assert a.per_block_interval == b.per_block_interval
        assert a.reject == b.reject

    @pytest.mark.parametrize("t", [3, 4])
    def test_length_rule_is_checked_before_any_fit(self, t, monkeypatch):
        # a ValidationError up front, not a failed fit in every unit, and
        # before the frontier is fit
        panel, *_ = simulate_panel(power_scenario(n_periods=t))

        def unreachable(panel):
            raise AssertionError("the frontier was fit before the length rule")

        monkeypatch.setattr(assumption_tests, "fit_frontier_gls", unreachable)
        config = TestConfig(n_boot_k=120, seed=5)
        with pytest.raises(ValidationError, match=rf"too short for AR\(1\): need T > 4, got T={t}"):
            run_temporal_test(panel, config)

    @pytest.mark.parametrize("t", [5, 6])
    def test_shortest_allowed_series_runs(self, t, innovations_are_log_output):
        panel, *_ = simulate_panel(power_scenario(n_periods=t))
        config = TestConfig(n_boot_k=120, seed=5)
        assert len(run_temporal_test(panel, config).per_block_estimate) == panel.n_units

    def test_constant_unit_series_aborts_with_unit_name(self, innovations_are_log_output):
        rng = np.random.default_rng(0)
        log_output = rng.normal(size=(4, 12))
        log_output[2, :] = 1.25  # zero-variance series for unit "u2"
        panel = PanelDataset(
            log_output=log_output,
            log_inputs=rng.normal(size=(4, 12, 1)),
            spatial=rng.normal(size=(4, 12, 1)),
            covariates=rng.normal(size=(4, 12, 1)),
            unit_ids=("u0", "u1", "u2", "u3"),
        )
        cfg = TestConfig(n_boot_k=120, seed=1)
        with pytest.raises(BootstrapError, match="unit 'u2'.*zero-variance"):
            run_temporal_test(panel, cfg)

    def test_outlier_unit_triggers_rejection(self, innovations_are_log_output):
        # one strongly autocorrelated unit among white-noise units
        rng = np.random.default_rng(11)
        log_output = rng.normal(size=(10, 24)) * 0.3
        walk = np.empty(24)
        walk[0] = 0.0
        for t in range(1, 24):
            walk[t] = 0.97 * walk[t - 1] + rng.normal(0, 0.3)
        log_output[0] = walk
        panel = PanelDataset(
            log_output=log_output,
            log_inputs=rng.normal(size=(10, 24, 1)),
            spatial=rng.normal(size=(10, 24, 1)),
            covariates=rng.normal(size=(10, 24, 1)),
        )
        cfg = TestConfig(n_boot_k=200, seed=2)
        report = run_temporal_test(panel, cfg)
        assert report.reject
        assert report.per_block_estimate[0] > max(report.per_block_estimate[1:])

    def test_estimates_are_the_lag_coefficients_of_the_frontier_innovations(self):
        panel, *_ = simulate_panel(power_scenario())
        report = run_temporal_test(panel, TestConfig(n_boot_k=120, seed=3))
        (coeffs, _, _), failure = _ar_fit_rows(fit_frontier_gls(panel).innovations)
        assert failure is None
        assert report.per_block_estimate == tuple(coeffs[:, 1])


class TestSpatialSlice:
    def test_noiseless_inversion(self):
        rng = np.random.default_rng(4)
        w = rng.normal(size=(30, 1))
        z = rng.normal(size=(30, 1))
        te = np.exp(-expit(w[:, 0] * 0.8))
        coef = fit_spatial_slice(te, w, z)
        assert coef[0] == pytest.approx(0.8, abs=1e-8)
        assert coef[1] == pytest.approx(0.0, abs=1e-8)

    def test_covariate_in_design_recovers_gamma(self):
        # z correlates with w; the joint design still separates the two slopes
        rng = np.random.default_rng(8)
        w = rng.normal(size=(40, 1))
        z = 0.6 * w + 0.8 * rng.normal(size=(40, 1))
        te = np.exp(-expit(0.8 * w[:, 0] + 0.5 * z[:, 0]))
        coef = fit_spatial_slice(te, w, z)
        assert coef[0] == pytest.approx(0.8, abs=1e-8)
        assert coef[1] == pytest.approx(0.5, abs=1e-8)

    def test_constant_te_with_centered_profile_gives_zero(self):
        w = np.linspace(-1.5, 1.5, 20)[:, None]  # centered profile
        z = w**2 - np.mean(w**2)  # centred and orthogonal to w
        te = np.full(20, np.exp(-0.5))
        assert fit_spatial_slice(te, w, z)[0] == pytest.approx(0.0, abs=1e-10)

    def test_out_of_range_te_names_unit(self):
        w = np.linspace(-1, 1, 10)[:, None]
        te = np.full(10, 0.8)
        te[7] = 0.2  # below exp(-1)
        with pytest.raises(ValidationError, match="unit index 7"):
            fit_spatial_slice(te, w, w**2)

    @pytest.mark.parametrize("bad, shown", [(1.5, "1.5"), (np.nan, "nan")])
    def test_te_not_strictly_inside_the_range_is_refused(self, bad, shown):
        w = np.linspace(-1, 1, 10)[:, None]
        te = np.full(10, 0.8)
        te[[4, 6]] = bad
        with pytest.raises(ValidationError) as raised:
            fit_spatial_slice(te, w, w**2)
        assert str(raised.value).endswith(f"at unit index 4: {shown}")

    def test_zero_profile_rank_deficient(self):
        te = np.full(10, 0.8)
        z = np.linspace(-1, 1, 10)[:, None]
        with pytest.raises(Exception, match="rank deficient"):
            fit_spatial_slice(te, np.zeros((10, 1)), z)

    def test_full_rank_ill_conditioned_design_raises(self):
        # z is w up to a 3e-13 perturbation: the rank test alone passes it
        rng = np.random.default_rng(4)
        w = rng.normal(size=(50, 1))
        z = w + 3e-13 * rng.normal(size=(50, 1))
        design = np.hstack([w, z])
        assert np.linalg.matrix_rank(design) == 2
        assert np.linalg.cond(design) > 1e12
        te = 0.8 + 0.01 * rng.uniform(size=50)
        with pytest.raises(EstimationError, match=r"collinear columns: [wz]1"):
            fit_spatial_slice(te, w, z)


class TestSpatial:
    @staticmethod
    def staged_te(gamma_by_period, noise_sd, n, seed):
        """TE per (i,t) from a mean-zero profile with per-period slopes, and a
        covariate drawn independently of it that TE does not depend on."""
        rng = np.random.default_rng(seed)
        w = np.linspace(-1.6, 1.6, n)
        w = (w - w.mean()) / w.std()
        t = len(gamma_by_period)
        eta = rng.normal(0, noise_sd, size=(n, t))
        u = expit(w[:, None] * np.asarray(gamma_by_period)[None, :] + eta)
        spatial = np.repeat(w[:, None, None], t, axis=1)
        covariates = rng.normal(size=(n, t, 1))
        return np.exp(-u), spatial, covariates

    def test_case_resample_matches_gathered_least_squares(self):
        # reference: gather each resample's rows and solve it on its own
        rng = np.random.default_rng(3)
        design, response = rng.normal(size=(40, 2)), rng.normal(size=40)
        slopes = _case_resample_slopes(response, design, 200, np.random.default_rng(9))
        idx = np.random.default_rng(9).integers(0, 40, size=(200, 40))
        ref = [np.linalg.lstsq(design[i], response[i], rcond=None)[0][0] for i in idx]
        np.testing.assert_allclose(slopes, ref, rtol=0, atol=1e-12)

    def test_single_time_point_rejected(self):
        te, spatial, z = self.staged_te([0.8], 0.1, 10, seed=1)
        with pytest.raises(ValidationError, match="at least two time points"):
            run_spatial_test(te, spatial, TestConfig(n_boot_k=120, seed=1), z)

    @pytest.mark.parametrize("name", ["spatial", "covariates"])
    def test_two_dimensional_design_input_named(self, name):
        # a 2-d spatial array used to fail with a bare IndexError
        te, spatial, z = self.staged_te([0.8] * 4, 0.1, 10, seed=1)
        inputs = dict(spatial=spatial, covariates=z)
        inputs[name] = inputs[name][:, :, 0]
        message = rf"{name} must have shape \(N=10, T=4, \*\), got \(10, 4\)"
        with pytest.raises(ValidationError, match=message):
            run_spatial_test(te, config=TestConfig(n_boot_k=120, seed=1), **inputs)

    def test_null_is_usually_retained(self):
        te, spatial, z = self.staged_te([0.8] * 12, 1.0, 40, seed=6)
        report = run_spatial_test(te, spatial, TestConfig(n_boot_k=200, seed=7), z)
        assert report.n_failing <= 1

    def test_decision_rule_threshold_scales_with_alpha(self):
        # noiseless TE makes every fit exact: the periods at 0.8 sit on the
        # cross-period mean 0.8 and exactly the two shifted ones exclude it,
        # above alpha*T = 0.6 at alpha=0.05 (reject) but not above
        # alpha*T = 2.4 at alpha=0.2 (retain), from identical data
        te, spatial, z = self.staged_te([0.8] * 10 + [1.3, 0.3], 0.0, 40, seed=15)
        strict = run_spatial_test(te, spatial, TestConfig(n_boot_k=500, seed=101, alpha=0.05), z)
        loose = run_spatial_test(te, spatial, TestConfig(n_boot_k=500, seed=101, alpha=0.2), z)
        assert strict.n_failing == loose.n_failing == 2
        assert strict.reject and not loose.reject

    def test_contaminated_periods_drive_rejection(self):
        scenario = power_scenario(
            n_units=50, contamination_fraction=0.2, spatial_shift_g=1.5, seed=77
        )
        panel, _, u, _ = simulate_panel(scenario)
        report = run_spatial_test(
            np.exp(-u), panel.spatial, TestConfig(n_boot_k=200, seed=10), panel.covariates
        )
        assert report.reject

    def test_deterministic_given_seed(self):
        te, spatial, z = self.staged_te([0.8] * 6, 0.8, 25, seed=12)
        cfg = TestConfig(n_boot_k=150, seed=13)
        a = run_spatial_test(te, spatial, cfg, z)
        b = run_spatial_test(te, spatial, cfg, z)
        assert a.per_block_interval == b.per_block_interval
