import tracemalloc

import numpy as np
import pytest

from stfrontier import (
    ModelParams,
    PanelDataset,
    Scenario,
    ValidationError,
    default_params,
    simulate_panel,
)
from stfrontier.rng import derive_seed, substream
from stfrontier.simulate import _standardize, mean_distance_profile
from stfrontier.types import DOMINANCE_SHARES


def small_panel_arrays(n=4, t=5, seed=0):
    rng = np.random.default_rng(seed)
    return dict(
        log_output=rng.normal(size=(n, t)),
        log_inputs=rng.normal(size=(n, t, 2)),
        spatial=rng.normal(size=(n, t, 1)),
        covariates=rng.normal(size=(n, t, 1)),
    )


class TestModelParams:
    def test_defaults(self):
        params = default_params()
        assert params.beta == (0.3, 0.2)
        assert params.rho == 0.5
        assert params.n_inputs == 2

    @pytest.mark.parametrize("rho", [1.0, -1.0, 1.3])
    def test_nonstationary_rho_rejected(self, rho):
        with pytest.raises(ValidationError, match="rho"):
            ModelParams(rho=rho)

    def test_negative_scales_rejected(self):
        with pytest.raises(ValidationError, match="sigma_psi"):
            ModelParams(sigma_psi=-0.1)
        with pytest.raises(ValidationError, match="sigma_eps"):
            ModelParams(sigma_eps=-0.1)

    def test_zero_sigma_psi_allowed_for_noise_free_panels(self):
        assert ModelParams(sigma_psi=0.0).sigma_psi == 0.0


class TestPanelDataset:
    def test_single_unit_rejected(self):
        arrays = small_panel_arrays(n=1)
        with pytest.raises(ValidationError, match="at least two spatial units required"):
            PanelDataset(**arrays)

    def test_short_panel_rejected(self):
        arrays = small_panel_arrays(t=2)
        with pytest.raises(ValidationError, match="at least three time points"):
            PanelDataset(**arrays)

    def test_non_finite_rejected(self):
        arrays = small_panel_arrays()
        arrays["log_output"][1, 2] = np.nan
        with pytest.raises(ValidationError, match="non-finite"):
            PanelDataset(**arrays)

    def test_shape_mismatch_rejected(self):
        arrays = small_panel_arrays()
        arrays["spatial"] = arrays["spatial"][:, :-1]
        with pytest.raises(ValidationError, match="spatial"):
            PanelDataset(**arrays)

    def test_arrays_frozen(self):
        panel = PanelDataset(**small_panel_arrays())
        with pytest.raises(ValueError):
            panel.log_output[0, 0] = 1.0

    def test_default_labels(self):
        panel = PanelDataset(**small_panel_arrays())
        assert panel.unit_ids == (0, 1, 2, 3)
        assert panel.period_ids == (0, 1, 2, 3, 4)


class TestScenario:
    def test_fraction_gap_rejected(self):
        with pytest.raises(ValidationError, match="contamination_fraction"):
            Scenario(n_units=10, n_periods=6, contamination_fraction=0.03)

    def test_null_and_valid_fractions(self):
        Scenario(n_units=10, n_periods=6, contamination_fraction=0.0)
        Scenario(n_units=10, n_periods=6, contamination_fraction=0.05, temporal_shift_r=0.5)

    def test_contaminated_rho_outside_unit_interval_rejected(self):
        # rho = 0.5 and r = 1.0 drives the contaminated rho to exactly 1.0
        with pytest.raises(ValidationError, match=r"contaminated rho"):
            Scenario(
                n_units=10,
                n_periods=6,
                contamination_fraction=0.1,
                temporal_shift_r=1.0,
                base_params=ModelParams(rho=0.5),
            )

    def test_contaminated_counts_use_ceiling(self):
        sc = Scenario(
            n_units=50,
            n_periods=12,
            contamination_fraction=0.1,
            temporal_shift_r=0.5,
            spatial_shift_g=1.0,
        )
        assert sc.n_contaminated_units == 5
        assert sc.n_contaminated_periods == 2

    def test_unknown_dominance(self):
        with pytest.raises(ValidationError, match="dominance"):
            Scenario(n_units=10, n_periods=6, dominance="both")


class TestSimulatePanel:
    def test_same_seed_bit_identical(self):
        sc = Scenario(n_units=12, n_periods=8, seed=99)
        panel1, params1, u1, v1 = simulate_panel(sc)
        panel2, params2, u2, v2 = simulate_panel(sc)
        assert np.array_equal(panel1.log_output, panel2.log_output)
        assert np.array_equal(panel1.log_inputs, panel2.log_inputs)
        assert np.array_equal(panel1.spatial, panel2.spatial)
        assert np.array_equal(panel1.covariates, panel2.covariates)
        assert np.array_equal(u1, u2) and np.array_equal(v1, v2)
        assert params1 == params2

    def test_different_seed_differs(self):
        sc = Scenario(n_units=12, n_periods=8, seed=99)
        other = Scenario(n_units=12, n_periods=8, seed=100)
        assert not np.array_equal(
            simulate_panel(sc)[0].log_output, simulate_panel(other)[0].log_output
        )

    def test_noise_free_degenerate_case(self):
        # sigma_psi = sigma_eps = 0 and zero gamma/phi force u = logistic(0) = 0.5
        base = ModelParams(sigma_psi=0.0, sigma_eps=0.0, gamma=(0.0,), phi=(0.0,))
        sc = Scenario(n_units=6, n_periods=5, base_params=base, seed=1)
        panel, params, u, v = simulate_panel(sc)
        assert np.all(u == 0.5) and np.all(v == 0.0)
        expected = params.beta0 + panel.log_inputs @ np.asarray(params.beta) - 0.5
        np.testing.assert_array_equal(panel.log_output, expected)

    def test_u_always_inside_unit_interval(self):
        sc = Scenario(n_units=30, n_periods=20, seed=5)
        _, _, u, _ = simulate_panel(sc)
        assert np.all(u > 0) and np.all(u < 1)

    def test_pooled_noise_autocorrelation_matches_rho(self):
        # oracle: pooled lag-1 autocorrelation of the true noise component
        sc = Scenario(n_units=200, n_periods=60, seed=777)
        _, params, _, v = simulate_panel(sc)
        pooled = float((v[:, 1:] * v[:, :-1]).sum() / (v[:, :-1] ** 2).sum())
        assert abs(pooled - params.rho) < 0.1

    @pytest.mark.parametrize("dominance", sorted(DOMINANCE_SHARES))
    def test_dominance_variance_shares(self, dominance):
        sc = Scenario(n_units=200, n_periods=12, dominance=dominance, seed=11)
        panel, params, _, _ = simulate_panel(sc)
        w_term = panel.spatial[:, :, 0] * params.gamma[0]
        z_term = panel.covariates[:, :, 0] * params.phi[0]
        share_w, share_z = DOMINANCE_SHARES[dominance]
        ratio = w_term.var() / z_term.var()
        assert ratio == pytest.approx(share_w / share_z, rel=0.15)

    def test_effective_coefficients_signed_by_base(self):
        base = ModelParams(gamma=(-2.0,), phi=(1.0,))
        sc = Scenario(n_units=10, n_periods=6, dominance="spatial", base_params=base, seed=2)
        _, params, _, _ = simulate_panel(sc)
        assert params.gamma[0] == pytest.approx(-np.sqrt(0.8))
        assert params.phi[0] == pytest.approx(np.sqrt(0.2))

    def test_spatial_measure_constant_over_time_and_standardized(self):
        sc = Scenario(n_units=40, n_periods=7, seed=3)
        panel, _, _, _ = simulate_panel(sc)
        w = panel.spatial[:, :, 0]
        assert np.all(w == w[:, [0]])
        assert w[:, 0].mean() == pytest.approx(0.0, abs=1e-12)
        assert w[:, 0].std() == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("n", [2000, 333, 257, 256, 50, 7, 3])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_distance_profile_in_row_blocks_equals_whole_matrix(self, n, seed):
        def whole_matrix(rng, n_units):
            x, y = rng.uniform(size=(n_units, 2)).T
            dist, dy = np.subtract.outer(x, x), np.subtract.outer(y, y)
            dist *= dist
            dist += np.square(dy, out=dy)
            return _standardize(np.sqrt(dist, out=dist).sum(axis=1) / (n_units - 1))

        blocked = mean_distance_profile(substream(seed, "coords"), n)
        assert np.array_equal(blocked, whole_matrix(substream(seed, "coords"), n))

    def test_distance_profile_memory_is_bounded_by_its_blocks(self):
        tracemalloc.start()
        try:
            mean_distance_profile(substream(0, "coords"), 2000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # two 256 x 2000 float64 blocks are 7.8 MiB; the whole matrix was 61 MiB
        assert peak < 10 * 2**20

    def test_temporal_contamination_changes_noise_of_picked_units(self):
        base = ModelParams(rho=0.3)
        null = Scenario(n_units=20, n_periods=30, base_params=base, seed=8)
        contaminated = Scenario(
            n_units=20,
            n_periods=30,
            base_params=base,
            seed=8,
            contamination_fraction=0.1,
            temporal_shift_r=1.5,
        )
        _, _, _, v_null = simulate_panel(null)
        _, _, _, v_alt = simulate_panel(contaminated)
        changed = [i for i in range(20) if not np.array_equal(v_null[i], v_alt[i])]
        assert len(changed) == 2  # ceil(0.1 * 20)
        picked = substream(8, "contaminated-units").choice(20, size=2, replace=False)
        assert sorted(changed) == sorted(picked.tolist())

    def test_spatial_contamination_scales_picked_periods(self):
        sc = Scenario(
            n_units=15,
            n_periods=10,
            seed=4,
            contamination_fraction=0.2,
            spatial_shift_g=1.0,
        )
        panel, params, u, _ = simulate_panel(sc)
        null = Scenario(n_units=15, n_periods=10, seed=4)
        _, _, u_null, _ = simulate_panel(null)
        changed = [t for t in range(10) if not np.array_equal(u[:, t], u_null[:, t])]
        assert len(changed) == 2  # ceil(0.2 * 10)

    def test_oversized_eps_triggers_rejection_error(self):
        base = ModelParams(sigma_eps=1e8)
        sc = Scenario(n_units=5, n_periods=4, base_params=base, seed=6)
        with pytest.raises(ValidationError, match="smaller sigma_eps"):
            simulate_panel(sc)

    def test_multi_measure_base_params_rejected(self):
        base = ModelParams(gamma=(1.0, 0.5))
        sc = Scenario(n_units=5, n_periods=4, base_params=base, seed=6)
        with pytest.raises(ValidationError, match="Q=R=1"):
            simulate_panel(sc)


class TestSeedDerivation:
    def test_derive_seed_stable_and_sensitive(self):
        a = derive_seed(42, "x", 1)
        assert a == derive_seed(42, "x", 1)
        assert a != derive_seed(42, "x", 2)
        assert a != derive_seed(43, "x", 1)
        assert 0 <= a < 2**64

    def test_substream_reproducible(self):
        assert substream(7, "s").normal() == substream(7, "s").normal()
