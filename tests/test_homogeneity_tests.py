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
    fit_spatial_slice,
    simulate_panel,
)
from stfrontier.assumption_tests import (
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
            dict(series_source="levels"),
            dict(ar_order_p=0),
        ],
    )
    def test_invalid_configs(self, kwargs):
        with pytest.raises(ValidationError):
            TestConfig(**kwargs)


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
        assert report.recomputed_n_failing() == report.n_failing
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

    def test_order_too_large_for_panel(self):
        panel, *_ = simulate_panel(power_scenario())
        with pytest.raises(ValidationError, match="p < T/3"):
            run_temporal_test(panel, TestConfig(ar_order_p=4, n_boot_k=120, seed=5))

    def test_constant_unit_series_aborts_with_unit_name(self):
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
        cfg = TestConfig(n_boot_k=120, seed=1, series_source="log_output")
        with pytest.raises(BootstrapError, match="unit 'u2'.*zero-variance"):
            run_temporal_test(panel, cfg)

    def test_outlier_unit_triggers_rejection(self):
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
        cfg = TestConfig(n_boot_k=200, seed=2, series_source="log_output")
        report = run_temporal_test(panel, cfg)
        assert report.reject
        assert report.per_block_estimate[0] > max(report.per_block_estimate[1:])

    def test_temporal_uses_frontier_residuals_by_default(self):
        panel, *_ = simulate_panel(power_scenario())
        res = run_temporal_test(panel, TestConfig(n_boot_k=120, seed=3))
        lvl = run_temporal_test(
            panel, TestConfig(n_boot_k=120, seed=3, series_source="log_output")
        )
        assert res.per_block_estimate != lvl.per_block_estimate


class TestSpatialSlice:
    def test_noiseless_inversion(self):
        rng = np.random.default_rng(4)
        w = rng.normal(size=(30, 1))
        te = np.exp(-expit(w[:, 0] * 0.8))
        coef = fit_spatial_slice(te, w)
        assert coef[0] == pytest.approx(0.8, abs=1e-8)

    def test_covariate_in_design_recovers_gamma(self):
        # z correlates with w, so a w-only fit moves z*phi into the slope
        rng = np.random.default_rng(8)
        w = rng.normal(size=(40, 1))
        z = 0.6 * w + 0.8 * rng.normal(size=(40, 1))
        te = np.exp(-expit(0.8 * w[:, 0] + 0.5 * z[:, 0]))
        coef = fit_spatial_slice(te, w, z)
        assert coef[0] == pytest.approx(0.8, abs=1e-8)
        assert coef[1] == pytest.approx(0.5, abs=1e-8)
        assert abs(fit_spatial_slice(te, w)[0] - 0.8) > 0.1

    def test_constant_te_with_centered_profile_gives_zero(self):
        w = np.linspace(-1.5, 1.5, 20)[:, None]  # centered profile
        te = np.full(20, np.exp(-0.5))
        assert fit_spatial_slice(te, w)[0] == pytest.approx(0.0, abs=1e-10)

    def test_out_of_range_te_names_unit(self):
        w = np.linspace(-1, 1, 10)[:, None]
        te = np.full(10, 0.8)
        te[7] = 0.2  # below exp(-1)
        with pytest.raises(ValidationError, match="unit index 7"):
            fit_spatial_slice(te, w)

    def test_zero_profile_rank_deficient(self):
        te = np.full(10, 0.8)
        with pytest.raises(Exception, match="rank deficient"):
            fit_spatial_slice(te, np.zeros((10, 1)))

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
        """TE per (i,t) from a mean-zero profile with per-period slopes."""
        rng = np.random.default_rng(seed)
        w = np.linspace(-1.6, 1.6, n)
        w = (w - w.mean()) / w.std()
        t = len(gamma_by_period)
        eta = rng.normal(0, noise_sd, size=(n, t))
        u = expit(w[:, None] * np.asarray(gamma_by_period)[None, :] + eta)
        spatial = np.repeat(w[:, None, None], t, axis=1)
        return np.exp(-u), spatial

    def test_case_resample_matches_gathered_least_squares(self):
        # reference: gather each resample's rows and solve it on its own
        rng = np.random.default_rng(3)
        design, response = rng.normal(size=(40, 2)), rng.normal(size=40)
        slopes = _case_resample_slopes(response, design, 200, np.random.default_rng(9))
        idx = np.random.default_rng(9).integers(0, 40, size=(200, 40))
        ref = [np.linalg.lstsq(design[i], response[i], rcond=None)[0][0] for i in idx]
        np.testing.assert_allclose(slopes, ref, rtol=0, atol=1e-12)

    def test_single_time_point_rejected(self):
        te, spatial = self.staged_te([0.8], 0.1, 10, seed=1)
        with pytest.raises(ValidationError, match="at least two time points"):
            run_spatial_test(te, spatial, TestConfig(n_boot_k=120, seed=1))

    def test_null_is_usually_retained(self):
        te, spatial = self.staged_te([0.8] * 12, 1.0, 40, seed=6)
        report = run_spatial_test(te, spatial, TestConfig(n_boot_k=200, seed=7))
        assert report.n_failing <= 1

    def test_decision_rule_threshold_scales_with_alpha(self):
        # one contaminated period out of twelve: the excluding count sits
        # above alpha*T = 0.6 at alpha=0.05 (reject) but below alpha*T = 2.4
        # at alpha=0.2 (retain), from identical data
        scenario = power_scenario(
            n_units=50,
            contamination_fraction=0.05,
            spatial_shift_g=1.0,
            seed=15,
        )
        panel, _, u, _ = simulate_panel(scenario)
        te = np.exp(-u)
        strict = run_spatial_test(
            te, panel.spatial, TestConfig(n_boot_k=500, seed=101, alpha=0.05)
        )
        loose = run_spatial_test(
            te, panel.spatial, TestConfig(n_boot_k=500, seed=101, alpha=0.2)
        )
        assert strict.n_failing >= 1 and strict.reject
        assert loose.n_failing <= 2 and not loose.reject

    def test_contaminated_periods_drive_rejection(self):
        scenario = power_scenario(
            n_units=50, contamination_fraction=0.2, spatial_shift_g=1.5, seed=77
        )
        panel, _, u, _ = simulate_panel(scenario)
        report = run_spatial_test(
            np.exp(-u), panel.spatial, TestConfig(n_boot_k=200, seed=10)
        )
        assert report.reject

    def test_deterministic_given_seed(self):
        te, spatial = self.staged_te([0.8] * 6, 0.8, 25, seed=12)
        cfg = TestConfig(n_boot_k=150, seed=13)
        a = run_spatial_test(te, spatial, cfg)
        b = run_spatial_test(te, spatial, cfg)
        assert a.per_block_interval == b.per_block_interval
