"""Synthetic panel generation.

The generative process, per scenario:

  ln y_it = beta0 + sum_k beta_k ln x_kit + v_it - u_it
  v_it    = rho_i v_it-1 + psi_it,  psi_it ~ N(0, sigma_psi^2), stationary start
  u_it    = logistic(w_i gamma_t + z_it phi) + eps_it, redrawn until u in (0,1)

Log inputs are i.i.d. standard normal. The spatial measure of a unit is its
mean Euclidean distance to all other units on the unit square, constant over
time and standardized across units. The covariate mixes a period-level
regime shock (a +-1 sign shared by every unit in a period) with unit-level
Gaussian noise, weighted COVARIATE_COMMON_SHARE / 1-COVARIATE_COMMON_SHARE
in variance and standardized over the pool. The dominance setting fixes the
variance split of the inefficiency predictor: the effective coefficients are
sqrt(share) with the signs of the base gamma/phi (a zero base coefficient
stays zero).

Contamination (alternatives for the homogeneity tests): a seeded subset of
ceil(fraction*N) units receives rho_i = rho*(1+r); a seeded subset of
ceil(fraction*T) periods receives gamma_t = gamma*(1+g).
"""

from __future__ import annotations

import numpy as np
from scipy.special import expit

from .errors import ValidationError
from .frontier import cobb_douglas_log
from .rng import substream
from .types import DOMINANCE_SHARES, ModelParams, PanelDataset, Scenario

#: Max redraw rounds for keeping u_it inside (0, 1).
_MAX_REJECTION_ROUNDS = 1000

#: Variance share of the covariate carried by the period-level regime shock.
#: The spatial homogeneity test regresses on (w, z) per period and holds its
#: size without this share (see the decisions ledger in CHANGES.md); the value
#: stays because changing it reshuffles every simulated panel.
COVARIATE_COMMON_SHARE = 0.7

#: Rows of the pairwise distance matrix held at a time by mean_distance_profile.
_DISTANCE_BLOCK_ROWS = 256


def _standardize(arr: np.ndarray) -> np.ndarray:
    sd = arr.std()
    if sd == 0:
        raise ValidationError("cannot standardize a constant array")
    return (arr - arr.mean()) / sd


def mean_distance_profile(rng: np.random.Generator, n_units: int) -> np.ndarray:
    """Standardized mean pairwise distances of uniform points on the unit square.

    The distance matrix is formed _DISTANCE_BLOCK_ROWS rows at a time, so
    memory grows with n rather than n**2; each row sums as it would in the
    whole matrix.
    """
    x, y = rng.uniform(size=(n_units, 2)).T
    row_sums = np.empty(n_units)
    for start in range(0, n_units, _DISTANCE_BLOCK_ROWS):
        rows = slice(start, start + _DISTANCE_BLOCK_ROWS)
        dist, dy = np.subtract.outer(x[rows], x), np.subtract.outer(y[rows], y)
        dist *= dist  # squared and summed in place: two block buffers in all
        dist += np.square(dy, out=dy)
        row_sums[rows] = np.sqrt(dist, out=dist).sum(axis=1)
        del dist, dy  # freed before the next block is formed
    return _standardize(row_sums / (n_units - 1))


def calibrated_coefficients(params: ModelParams, dominance: str) -> tuple[float, float]:
    """Effective (gamma, phi): sqrt of the dominance variance shares, signed
    by the base coefficients."""
    share_w, share_z = DOMINANCE_SHARES[dominance]
    gamma_eff = float(np.sign(params.gamma[0]) * np.sqrt(share_w))
    phi_eff = float(np.sign(params.phi[0]) * np.sqrt(share_z))
    return gamma_eff, phi_eff


def _draw_noise_series(scenario: Scenario, rho_by_unit: np.ndarray) -> np.ndarray:
    """AR(1) noise per unit, initialized from the stationary distribution."""
    n, t = scenario.n_units, scenario.n_periods
    sigma = scenario.base_params.sigma_psi
    v = np.zeros((n, t))
    if sigma == 0:
        return v
    for i in range(n):
        rng = substream(scenario.seed, "noise-v", i)
        rho_i = rho_by_unit[i]
        v[i, 0] = rng.normal(0.0, sigma / np.sqrt(1.0 - rho_i**2))
        innovations = rng.normal(0.0, sigma, size=t - 1)
        for s in range(1, t):
            v[i, s] = rho_i * v[i, s - 1] + innovations[s - 1]
    return v


def _draw_inefficiency(scenario: Scenario, u_det: np.ndarray) -> np.ndarray:
    """u = u_det + eps with eps redrawn cellwise until u lands in (0, 1)."""
    sigma = scenario.base_params.sigma_eps
    if sigma == 0:
        if np.any(u_det <= 0.0) or np.any(u_det >= 1.0):
            raise ValidationError(
                "deterministic inefficiency saturates the unit interval; "
                "the logistic predictor is too extreme"
            )
        return u_det.copy()
    rng = substream(scenario.seed, "noise-u")
    u = u_det + rng.normal(0.0, sigma, size=u_det.shape)
    bad = (u <= 0.0) | (u >= 1.0)
    rounds = 0
    while bad.any():
        rounds += 1
        if rounds > _MAX_REJECTION_ROUNDS:
            raise ValidationError(
                f"inefficiency rejection sampling exceeded {_MAX_REJECTION_ROUNDS} "
                "rounds; use a smaller sigma_eps"
            )
        # redraw only the failing cells so accepted draws stay fixed
        u[bad] = u_det[bad] + rng.normal(0.0, sigma, size=int(bad.sum()))
        bad = (u <= 0.0) | (u >= 1.0)
    return u


def simulate_panel(
    scenario: Scenario,
) -> tuple[PanelDataset, ModelParams, np.ndarray, np.ndarray]:
    """Generate a panel plus ground truth (effective params, u and v matrices).

    Deterministic given scenario.seed: all randomness flows through named
    substreams of the master seed.
    """
    params = scenario.base_params
    if params.n_spatial != 1 or params.n_covariates != 1:
        raise ValidationError(
            "the generator supports one spatial measure and one covariate "
            f"(Q=R=1), got Q={params.n_spatial}, R={params.n_covariates}"
        )
    n, t, p = scenario.n_units, scenario.n_periods, params.n_inputs
    gamma_eff, phi_eff = calibrated_coefficients(params, scenario.dominance)
    effective = ModelParams(
        beta0=params.beta0,
        beta=params.beta,
        rho=params.rho,
        gamma=(gamma_eff,),
        phi=(phi_eff,),
        sigma_psi=params.sigma_psi,
        sigma_eps=params.sigma_eps,
    )

    log_inputs = substream(scenario.seed, "log-inputs").normal(size=(n, t, p))
    w_profile = mean_distance_profile(substream(scenario.seed, "coords"), n)
    spatial = np.repeat(w_profile[:, None, None], t, axis=1)
    rng_z = substream(scenario.seed, "covariates")
    regime = rng_z.integers(0, 2, size=t) * 2.0 - 1.0
    idio = rng_z.normal(size=(n, t))
    z = _standardize(
        np.sqrt(COVARIATE_COMMON_SHARE) * regime[None, :]
        + np.sqrt(1.0 - COVARIATE_COMMON_SHARE) * idio
    )
    covariates = z[:, :, None]

    rho_by_unit = np.full(n, params.rho)
    if scenario.n_contaminated_units:
        picked = substream(scenario.seed, "contaminated-units").choice(
            n, size=scenario.n_contaminated_units, replace=False
        )
        rho_by_unit[picked] = params.rho * (1.0 + scenario.temporal_shift_r)

    gamma_by_period = np.full(t, gamma_eff)
    if scenario.n_contaminated_periods:
        picked = substream(scenario.seed, "contaminated-periods").choice(
            t, size=scenario.n_contaminated_periods, replace=False
        )
        gamma_by_period[picked] = gamma_eff * (1.0 + scenario.spatial_shift_g)

    v = _draw_noise_series(scenario, rho_by_unit)
    predictor = w_profile[:, None] * gamma_by_period[None, :] + phi_eff * z
    u = _draw_inefficiency(scenario, expit(predictor))

    log_output = cobb_douglas_log(log_inputs, params.beta0, params.beta) + v - u
    panel = PanelDataset(
        log_output=log_output,
        log_inputs=log_inputs,
        spatial=spatial,
        covariates=covariates,
    )
    return panel, effective, u, v
