from dataclasses import replace

import numpy as np
import pytest
from scipy.special import expit

from stfrontier import (
    EstimationError,
    FrontierFit,
    ModelParams,
    PanelDataset,
    Scenario,
    ValidationError,
    estimate_model,
    fit_efficiency_glm,
    fit_frontier_gls,
    inefficiency_mean,
    simulate_panel,
)
from stfrontier import estimation
from stfrontier.estimation import predict_te
from stfrontier.frontier import logit as frontier_logit
from stfrontier.rng import derive_seed


def default_panel(n=40, t=20, seed=21):
    return simulate_panel(Scenario(n_units=n, n_periods=t, seed=seed))


def quasi_difference(arr, rho):
    """Prais-Winsten whitening of AR(1) rows: the first period is scaled by
    sqrt(1-rho^2), each later one has rho times its predecessor removed."""
    out = np.empty_like(arr)
    out[:, 0] = np.sqrt(1.0 - rho**2) * arr[:, 0]
    out[:, 1:] = arr[:, 1:] - rho * arr[:, :-1]
    return out


def quasi_difference_gls(panel):
    """The reference iterated GLS: every iteration quasi-differences the
    design and solves it with lstsq, with fit_frontier_gls's rules and
    constants. Returns (coefficients, rho, iterations, converged)."""
    n, t = panel.n_units, panel.n_periods
    y = panel.log_output
    design = np.concatenate([np.ones((n, t, 1)), panel.log_inputs], axis=2)
    coef = np.linalg.lstsq(design.reshape(n * t, -1), y.ravel(), rcond=None)[0]
    rho = 0.0
    for iterations in range(1, estimation._GLS_MAX_ITER + 1):
        resid = y - design @ coef
        if resid.var() < estimation._DEGENERATE_VAR:
            rho_new = 0.0
        else:
            den = float((resid[:, :-1] ** 2).sum())
            rho_new = float((resid[:, 1:] * resid[:, :-1]).sum() / den) if den > 0 else 0.0
        coef_new = np.linalg.lstsq(
            quasi_difference(design, rho_new).reshape(n * t, -1),
            quasi_difference(y, rho_new).ravel(),
            rcond=None,
        )[0]
        delta = max(np.abs(coef_new - coef).max(), abs(rho_new - rho))
        coef, rho = coef_new, rho_new
        if delta < estimation._GLS_TOL:
            return coef, rho, iterations, True
    return coef, rho, iterations, False


def near_collinear_panel(spread, n=60, t=12, seed=7):
    """A panel whose log inputs sit around 5, with x2 - x1 of sd ``spread``:
    the design's condition number grows as 1/spread."""
    rng = np.random.default_rng(seed)
    x1 = 5.0 + rng.normal(size=(n, t))
    x2 = x1 + spread * rng.normal(size=(n, t))
    return PanelDataset(
        log_output=1.0 + 0.5 * x1 + 0.3 * x2 + 0.3 * rng.normal(size=(n, t)),
        log_inputs=np.stack([x1, x2], axis=2),
        spatial=rng.normal(size=(n, t, 1)),
        covariates=rng.normal(size=(n, t, 1)),
    )


class TestFrontierGLS:
    def test_noise_free_recovery_is_exact(self):
        # u is identically 0.5, so only the intercept shifts, and the
        # degenerate-residual rule pins rho_hat to zero
        base = ModelParams(sigma_psi=0.0, sigma_eps=0.0, gamma=(0.0,), phi=(0.0,))
        panel, params, _, _ = simulate_panel(
            Scenario(n_units=50, n_periods=12, base_params=base, seed=13)
        )
        fit = fit_frontier_gls(panel)
        assert fit.beta0_hat == pytest.approx(params.beta0 - 0.5, abs=1e-10)
        np.testing.assert_allclose(fit.beta_hat, params.beta, atol=1e-10)
        assert fit.rho_hat == 0.0
        assert fit.converged

    def test_rho_fixed_zero_reproduces_pooled_ols(self):
        panel, *_ = default_panel()
        fit = fit_frontier_gls(panel, rho_fixed=0.0)
        design = np.concatenate(
            [np.ones((panel.n_units, panel.n_periods, 1)), panel.log_inputs], axis=2
        ).reshape(-1, panel.n_inputs + 1)
        ols = np.linalg.lstsq(design, panel.log_output.ravel(), rcond=None)[0]
        np.testing.assert_allclose([fit.beta0_hat, *fit.beta_hat], ols, atol=1e-10)
        assert fit.rho_hat == 0.0

    def test_white_noise_panel_close_to_ols(self):
        # with rho=0 data the iterated fit lands on a rho_hat of order 1/sqrt(NT),
        # so coefficients match plain OLS to ~1e-4 (not exactly)
        base = ModelParams(rho=0.0, gamma=(0.0,), phi=(0.0,), sigma_eps=0.0)
        panel, *_ = simulate_panel(
            Scenario(n_units=200, n_periods=60, base_params=base, seed=29)
        )
        fit = fit_frontier_gls(panel)
        design = np.concatenate(
            [np.ones((200, 60, 1)), panel.log_inputs], axis=2
        ).reshape(-1, 3)
        ols = np.linalg.lstsq(design, panel.log_output.ravel(), rcond=None)[0]
        np.testing.assert_allclose([fit.beta0_hat, *fit.beta_hat], ols, atol=1e-4)
        assert abs(fit.rho_hat) < 0.05

    def test_recovery_at_defaults_single_seed(self):
        panel, params, _, _ = simulate_panel(Scenario(n_units=200, n_periods=60, seed=31))
        fit = fit_frontier_gls(panel)
        assert max(abs(b - bt) for b, bt in zip(fit.beta_hat, params.beta)) < 0.05
        assert abs(fit.rho_hat - params.rho) < 0.1

    def test_scaling_output_shifts_only_intercept(self):
        panel, *_ = default_panel()
        scaled = PanelDataset(
            log_output=panel.log_output + 2.0,
            log_inputs=panel.log_inputs,
            spatial=panel.spatial,
            covariates=panel.covariates,
        )
        fit = fit_frontier_gls(panel)
        fit_s = fit_frontier_gls(scaled)
        assert fit_s.beta0_hat - fit.beta0_hat == pytest.approx(2.0, abs=1e-8)
        np.testing.assert_allclose(fit_s.beta_hat, fit.beta_hat, atol=1e-8)
        assert fit_s.rho_hat == pytest.approx(fit.rho_hat, abs=1e-8)

    def test_rank_deficient_design_names_columns(self):
        rng = np.random.default_rng(3)
        x1 = rng.normal(size=(6, 8, 1))
        panel = PanelDataset(
            log_output=rng.normal(size=(6, 8)),
            log_inputs=np.concatenate([x1, x1], axis=2),  # x2 duplicates x1
            spatial=rng.normal(size=(6, 8, 1)),
            covariates=rng.normal(size=(6, 8, 1)),
        )
        with pytest.raises(EstimationError, match=r"rank deficient.*x"):
            fit_frontier_gls(panel)

    @pytest.mark.parametrize("rho", [1.0, -1.0, 1.5, -7.0, np.nan, np.inf, -np.inf])
    def test_rho_fixed_outside_the_unit_interval_refused(self, rho, capfd):
        # refused before any work: the collinear design would otherwise raise
        # EstimationError, and LAPACK would print nothing to the streams
        x1 = np.random.default_rng(4).normal(size=(6, 8, 1))
        panel = replace(default_panel(n=6, t=8)[0], log_inputs=np.concatenate([x1, x1], axis=2))
        refused = r"^rho_fixed must be finite and inside \(-1, 1\)"
        with pytest.raises(ValidationError, match=refused):
            fit_frontier_gls(panel, rho_fixed=rho)
        assert capfd.readouterr() == ("", "")

    @pytest.mark.parametrize("rho", [-0.99, -0.4, 0.4, 0.99])
    def test_rho_fixed_inside_the_unit_interval_is_kept(self, rho):
        fit = fit_frontier_gls(default_panel()[0], rho_fixed=rho)
        assert fit.rho_hat == rho and fit.converged

    @pytest.mark.parametrize("digits", range(1, 10))
    def test_ill_conditioned_design_matches_quasi_difference_lstsq(self, digits):
        # cond(X) from about 1e2 to 1e10; the moment solve works in the
        # orthogonal basis of X, so it keeps the digits lstsq keeps
        panel = near_collinear_panel(10.0**-digits)
        design = np.concatenate([np.ones((60, 12, 1)), panel.log_inputs], axis=2)
        cond = np.linalg.cond(design.reshape(-1, 3))
        assert 10 ** (digits + 0.5) < cond < 10 ** (digits + 1.5)
        reference = np.linalg.lstsq(
            quasi_difference(design, 0.4).reshape(-1, 3),
            quasi_difference(panel.log_output, 0.4).ravel(),
            rcond=None,
        )[0]
        fit = fit_frontier_gls(panel, rho_fixed=0.4)
        gap = np.abs(np.array([fit.beta0_hat, *fit.beta_hat]) - reference).max()
        assert gap <= 1e-14 * cond * np.abs(reference).max()

    @pytest.mark.parametrize(
        "n, x2, collinear",
        [
            (30, lambda x1: x1 + 1.0, "x1"),
            (30, lambda x1: 2.0 * x1, "x1"),
            # cond(X) about 1.3e13: singular by the 1e12 rule, though lstsq's
            # own cut-off, eps * 240 rows, would count its rank as full
            (30, lambda x1: x1 + 3e-12 * np.cos(x1), "x1"),
            # cond(X) about 1.9e11: singular by lstsq's cut-off, eps * 60000
            # rows, though under the 1e12 rule
            (1000, lambda x1: x1 + 2e-10 * np.cos(x1), "x1"),
        ],
    )
    def test_singular_design_names_its_columns(self, n, x2, collinear):
        t = 8 if n < 1000 else 60
        x1 = 5.0 + np.random.default_rng(5).normal(size=(n, t))
        panel = replace(default_panel(n=n, t=t)[0], log_inputs=np.stack([x1, x2(x1)], axis=2))
        with pytest.raises(EstimationError) as err:
            fit_frontier_gls(panel)
        assert str(err.value) == (
            f"frontier design matrix is rank deficient; collinear columns: {collinear}"
        )

    @pytest.mark.parametrize(
        "n, t, sigma_psi",
        [(50, 12, None), (200, 60, None), (2000, 60, None), (200, 60, 1e-5)],
    )
    def test_moment_solve_matches_quasi_difference_gls(self, n, t, sigma_psi):
        # the low-noise panel fits to residuals 1e-5 the size of ln y: rho
        # must still come out to rounding
        base = ModelParams() if sigma_psi is None else ModelParams(
            sigma_psi=sigma_psi, sigma_eps=0.0, gamma=(0.0,), phi=(0.0,)
        )
        for seed in range(3 if n < 2000 else 1):
            scenario = Scenario(
                n_units=n, n_periods=t, base_params=base, seed=derive_seed(88, "gls", seed)
            )
            panel = simulate_panel(scenario)[0]
            coef, rho, iterations, converged = quasi_difference_gls(panel)
            fit = fit_frontier_gls(panel)
            assert (fit.iterations, fit.converged) == (iterations, converged)
            assert np.abs(np.array([fit.beta0_hat, *fit.beta_hat]) - coef).max() <= 1e-12
            assert abs(fit.rho_hat - rho) <= 1e-12

    @pytest.mark.parametrize("n, t", [(50, 12), (200, 60)])
    def test_innovations_are_the_fitted_residuals(self, n, t):
        # the innovations keep the bits of ln y - [1, ln x] (beta0_hat, beta_hat)
        panel = default_panel(n=n, t=t)[0]
        fit = fit_frontier_gls(panel)
        data = np.concatenate(
            [np.ones((n, t, 1)), panel.log_inputs, panel.log_output[..., None]], axis=2
        )
        coef = np.array([fit.beta0_hat, *fit.beta_hat])
        np.testing.assert_array_equal(fit.innovations, panel.log_output - data[..., :-1] @ coef)


class TestEfficiencyGLM:
    def synthetic(self, gamma=1.2, phi=-0.4, n=30, t=10, seed=17):
        rng = np.random.default_rng(seed)
        w = rng.normal(size=(n, t, 1))
        z = rng.normal(size=(n, t, 1))
        panel = PanelDataset(
            log_output=rng.normal(size=(n, t)),
            log_inputs=rng.normal(size=(n, t, 1)),
            spatial=w,
            covariates=z,
        )
        u = expit(w[:, :, 0] * gamma + z[:, :, 0] * phi)
        frontier = FrontierFit(
            beta0_hat=0.0,
            beta_hat=(0.0,),
            rho_hat=0.0,
            innovations=-u,
            iterations=1,
            converged=True,
        )
        return panel, frontier

    def test_exact_inversion_recovers_coefficients(self):
        panel, frontier = self.synthetic()
        gamma_hat, phi_hat, clamp_count = fit_efficiency_glm(frontier, panel)
        assert gamma_hat[0] == pytest.approx(1.2, abs=1e-8)
        assert phi_hat[0] == pytest.approx(-0.4, abs=1e-8)
        assert clamp_count == 0

    def test_constant_residuals_raise_signal_absent(self):
        panel, frontier = self.synthetic()
        flat = FrontierFit(
            beta0_hat=0.0,
            beta_hat=(0.0,),
            rho_hat=0.0,
            innovations=np.full_like(frontier.innovations, -0.5),
            iterations=1,
            converged=True,
        )
        with pytest.raises(EstimationError, match="inefficiency signal absent"):
            fit_efficiency_glm(flat, panel)

    def test_clamp_counting(self):
        panel, frontier = self.synthetic()
        res = frontier.innovations.copy()
        res[0, 0] = 0.3  # u* = -0.3, below the clamp
        res[0, 1] = -1.5  # u* = 1.5, above the clamp
        bumped = FrontierFit(
            beta0_hat=0.0,
            beta_hat=(0.0,),
            rho_hat=0.0,
            innovations=res,
            iterations=1,
            converged=True,
        )
        _, _, clamp_count = fit_efficiency_glm(bumped, panel)
        assert clamp_count == 2

    def test_response_is_frontier_logit_of_clipped_residuals(self, monkeypatch):
        # the response must keep the bits of frontier.logit(clip(u*)) over the
        # whole panel, clamped cells included, with u* = -(e_t - rho_hat e_t-1)
        # and e_0 = 0 before the first period
        panel = default_panel(n=200, t=30)[0]
        frontier = fit_frontier_gls(panel)
        e = frontier.innovations.copy()
        e[::7, 0] = -1.5  # u* = 1.5, above the clamp
        frontier = replace(frontier, innovations=e)
        responses = []
        solve = estimation.least_squares
        monkeypatch.setattr(
            estimation, "least_squares",
            lambda design, response, *args: responses.append(response) or solve(
                design, response, *args
            ),
        )
        _, _, clamp_count = fit_efficiency_glm(frontier, panel)
        lo, hi = estimation.CLAMP_DELTA, 1.0 - estimation.CLAMP_DELTA
        lagged = np.zeros_like(e)
        lagged[:, 1:] = e[:, :-1]
        u_star = -(e - frontier.rho_hat * lagged)
        assert 0 < np.count_nonzero(u_star < lo) and 0 < np.count_nonzero(u_star > hi)
        assert clamp_count == np.count_nonzero((u_star < lo) | (u_star > hi))
        np.testing.assert_array_equal(
            responses[0], frontier_logit(np.clip(u_star, lo, hi)).ravel()
        )

    def test_duplicated_regressor_raises(self):
        panel, frontier = self.synthetic()
        dup = PanelDataset(
            log_output=panel.log_output,
            log_inputs=panel.log_inputs,
            spatial=panel.spatial,
            covariates=panel.spatial,  # z duplicates w
        )
        with pytest.raises(EstimationError, match="rank deficient"):
            fit_efficiency_glm(frontier, dup)

    def test_sign_recovery_across_seeds(self):
        hits = 0
        n_seeds = 40
        for s in range(n_seeds):
            panel, params, _, _ = simulate_panel(
                Scenario(n_units=200, n_periods=60, seed=derive_seed(55, "sign", s))
            )
            result = estimate_model(panel)
            hits += np.sign(result.gamma_hat[0]) == np.sign(params.gamma[0])
        assert hits >= 0.95 * n_seeds


class TestEstimateModel:
    def test_te_range_is_structural(self):
        panel, *_ = default_panel(seed=23)
        result = estimate_model(panel)
        assert np.all(result.te > np.exp(-1)) and np.all(result.te < 1)

    def test_te_matches_predicted_inefficiency(self):
        panel, *_ = default_panel(seed=24)
        result = estimate_model(panel)
        np.testing.assert_allclose(
            result.te, predict_te(panel, result.gamma_hat, result.phi_hat)
        )

    def test_saturated_predictors_keep_te_strictly_inside_its_range(self):
        # the logistic rounds to exactly 1.0 at a predictor of 40 and to
        # exactly 0.0 at -800, where exp(800) overflows; predict_te must still
        # return TE strictly inside (exp(-1), 1), with no RuntimeWarning
        eta = np.array([[40.0, -800.0, 40.0], [-800.0, 40.0, -800.0]])
        panel = PanelDataset(
            log_output=np.zeros((2, 3)),
            log_inputs=np.zeros((2, 3, 1)),
            spatial=eta[:, :, None],
            covariates=np.zeros((2, 3, 1)),
        )
        np.testing.assert_array_equal(
            inefficiency_mean(panel.spatial, panel.covariates, (1.0,), (0.0,)),
            (eta > 0).astype(float),
        )
        te = predict_te(panel, (1.0,), (0.0,))
        assert np.all(te > np.exp(-1)) and np.all(te < 1)

    def test_te_monotone_decreasing_in_predictor(self):
        grid = np.linspace(-8, 8, 101)
        te = np.exp(-expit(grid))
        assert np.all(np.diff(te) < 0)

    def test_te_truth_correlation_at_defaults(self):
        cors = []
        for s in range(5):
            panel, _, u, _ = simulate_panel(
                Scenario(n_units=200, n_periods=60, seed=derive_seed(66, "corr", s))
            )
            result = estimate_model(panel)
            cors.append(np.corrcoef(result.te.ravel(), np.exp(-u).ravel())[0, 1])
        assert np.median(cors) >= 0.5

    def test_deterministic(self):
        panel, *_ = default_panel(seed=25)
        a = estimate_model(panel)
        b = estimate_model(panel)
        assert a.gamma_hat == b.gamma_hat and a.phi_hat == b.phi_hat
        assert np.array_equal(a.te, b.te)
        assert a.clamp_count == b.clamp_count

    def test_clamp_fraction_reported_and_flagged(self):
        # the negated step-1 residuals straddle zero, so roughly half the
        # cells clamp; the result must carry the flag rather than hide it
        panel, *_ = default_panel(n=60, t=30, seed=26)
        result = estimate_model(panel)
        assert result.clamp_count == pytest.approx(0.5 * panel.log_output.size, rel=0.2)
        assert result.clamp_fraction < 0.2 or result.clamp_flagged
