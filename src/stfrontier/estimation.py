"""Hybrid backfitting estimator for the frontier panel model.

Three steps, run once (no outer loop):

1. fit_frontier_gls: the inefficiency term is dropped and (beta, rho) are
   estimated jointly by iterated feasible GLS (Cochrane-Orcutt with
   Prais-Winsten treatment of each unit's first observation). Residual
   inefficiency estimates are u_hat_it = e_it - rho_hat * e_it-1 with the
   pre-sample innovation e_i0 = 0.
2. fit_efficiency_glm: u* = -u_hat, clamped into [delta, 1-delta], is mapped
   through the logit and regressed on (w, z) without intercept.
3. estimate_model: technical efficiency is scored as
   exp(-logistic(w gamma_hat + z phi_hat)).

These two fits, and the AR and spatial-slice fits of the homogeneity tests,
are solved by least_squares, which also judges whether a design is singular.

The logit comes from frontier, which evaluates scipy.special.logit's formula
through the C library. scipy itself is imported only to name the collinear
columns of a singular design, so a run on a regular design never loads it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EstimationError
from .frontier import inefficiency_mean, logit, technical_efficiency
from .types import PanelDataset

#: Clamp width for the logit transform of residual inefficiencies.
CLAMP_DELTA = 1e-6

#: logit(CLAMP_DELTA) and logit(1-CLAMP_DELTA), the responses of clamped cells.
_CLAMPED_LOGITS = tuple(logit([CLAMP_DELTA, 1.0 - CLAMP_DELTA]))

#: Residual variance below which the AR coefficient is pinned to zero.
_DEGENERATE_VAR = 1e-12

#: The GLS iteration stops once the largest change in (beta, rho) drops below
#: _GLS_TOL, or after _GLS_MAX_ITER rounds.
_GLS_TOL = 1e-8
_GLS_MAX_ITER = 50

#: Share of clamped cells above which the estimation result is flagged.
CLAMP_FLAG_FRACTION = 0.2


#: Condition number s_max/s_min above which a design counts as singular.
_MAX_CONDITION = 1e12


def least_squares(
    design: np.ndarray, response: np.ndarray, names: list[str], singular: str
) -> np.ndarray:
    """Coefficients of ``response`` on ``design`` from one lstsq call.

    The design is singular when lstsq's own rank is below the column count or
    s_max/s_min exceeds _MAX_CONDITION. Only then does a pivoted QR order the
    columns by independence; the EstimationError, whose text starts with
    ``singular``, names the trailing ones.
    """
    coef, _, rank, sv = np.linalg.lstsq(design, response, rcond=None)
    rank = min(rank, int(np.count_nonzero(sv * _MAX_CONDITION >= sv[0])))
    if rank < design.shape[1]:
        import scipy.linalg

        _, _, pivots = scipy.linalg.qr(design, mode="economic", pivoting=True)
        collinear = sorted(names[j] for j in pivots[rank:])
        raise EstimationError(f"{singular}; collinear columns: " + ", ".join(collinear))
    return coef


@dataclass(frozen=True)
class FrontierFit:
    """Step-1 output: frontier coefficients, AR coefficient, residual matrices."""

    beta0_hat: float
    beta_hat: tuple[float, ...]
    rho_hat: float
    residuals_u: np.ndarray  # (N, T) u_hat_it = e_it - rho_hat * e_it-1
    lagged_innovations: np.ndarray  # (N, T) e_it-1 with e_i0 = 0
    iterations: int
    converged: bool

    @property
    def innovations(self) -> np.ndarray:
        """The frontier residual series e_it (estimated noise component)."""
        return self.residuals_u + self.rho_hat * self.lagged_innovations


@dataclass(frozen=True)
class EstimationResult:
    frontier: FrontierFit
    gamma_hat: tuple[float, ...]
    phi_hat: tuple[float, ...]
    te: np.ndarray  # (N, T)
    clamp_count: int

    @property
    def clamp_fraction(self) -> float:
        return self.clamp_count / self.te.size

    @property
    def clamp_flagged(self) -> bool:
        """True when clamping exceeded the expected share; the logit fit then
        leans on censored values and gamma/phi are direction-only."""
        return self.clamp_fraction >= CLAMP_FLAG_FRACTION


def _quasi_difference(arr: np.ndarray, rho: float) -> np.ndarray:
    """Whiten AR(1) errors; the first observation is kept with weight
    sqrt(1-rho^2) so short panels lose no rows."""
    out = np.empty_like(arr)
    out[:, 0] = np.sqrt(1.0 - rho**2) * arr[:, 0]
    out[:, 1:] = arr[:, 1:] - rho * arr[:, :-1]
    return out


def fit_frontier_gls(panel: PanelDataset, *, rho_fixed: float | None = None) -> FrontierFit:
    """Estimate (beta, rho) jointly by iterated feasible GLS.

    Alternates pooled least squares on quasi-differenced data with a pooled
    lag regression of the residuals on themselves (no intercept) until the
    largest coefficient change drops below _GLS_TOL. ``rho_fixed`` skips the
    rho update (rho_fixed=0 reproduces pooled OLS exactly).
    """
    n, t = panel.n_units, panel.n_periods
    y = panel.log_output
    design = np.concatenate(
        [np.ones((n, t, 1)), panel.log_inputs], axis=2
    )  # (N, T, P+1)
    names = ["intercept"] + [f"x{k + 1}" for k in range(panel.n_inputs)]
    coef = least_squares(
        design.reshape(n * t, -1), y.ravel(), names, "frontier design matrix is rank deficient"
    )
    rho = 0.0
    converged = False
    iterations = 0
    for iterations in range(1, _GLS_MAX_ITER + 1):
        resid = y - design @ coef  # (N, T), raw-scale residuals
        if rho_fixed is not None:
            rho_new = float(rho_fixed)
        elif resid.var() < _DEGENERATE_VAR:
            rho_new = 0.0
        else:
            den = float((resid[:, :-1] ** 2).sum())
            rho_new = float((resid[:, 1:] * resid[:, :-1]).sum() / den) if den > 0 else 0.0
            if abs(rho_new) >= 1:
                raise EstimationError(
                    f"explosive autocorrelation estimate rho_hat={rho_new:.6g}; "
                    "the noise process looks nonstationary"
                )
        y_star = _quasi_difference(y, rho_new)
        x_star = _quasi_difference(design, rho_new)
        coef_new, *_ = np.linalg.lstsq(x_star.reshape(n * t, -1), y_star.ravel(), rcond=None)
        delta = max(np.abs(coef_new - coef).max(), abs(rho_new - rho))
        coef, rho = coef_new, rho_new
        if delta < _GLS_TOL:
            converged = True
            break

    innovations = y - design @ coef
    lagged = np.zeros_like(innovations)
    lagged[:, 1:] = innovations[:, :-1]
    residuals_u = innovations - rho * lagged
    return FrontierFit(
        beta0_hat=float(coef[0]),
        beta_hat=tuple(float(c) for c in coef[1:]),
        rho_hat=rho,
        residuals_u=residuals_u,
        lagged_innovations=lagged,
        iterations=iterations,
        converged=converged,
    )


def fit_efficiency_glm(
    frontier: FrontierFit, panel: PanelDataset
) -> tuple[tuple[float, ...], tuple[float, ...], int]:
    """Estimate (gamma, phi) from the negated step-1 residuals.

    u* = -u_hat estimates the inefficiency up to noise; values are clamped
    into [CLAMP_DELTA, 1-CLAMP_DELTA] before the logit, which is regressed on
    (w, z) without intercept. Returns (gamma_hat, phi_hat, clamp_count).
    Clamped cells take the logit of their bound from _CLAMPED_LOGITS.
    """
    u_star = -frontier.residuals_u.ravel()
    lo, hi = CLAMP_DELTA, 1.0 - CLAMP_DELTA
    low, high = u_star < lo, u_star > hi
    inside = ~(low | high)
    clamp_count = u_star.size - int(np.count_nonzero(inside))
    response = np.empty_like(u_star)
    response[low], response[high] = _CLAMPED_LOGITS
    response[inside] = logit(u_star[inside])
    if response.var() < _DEGENERATE_VAR:
        raise EstimationError(
            "inefficiency signal absent: the transformed residuals have no variance"
        )

    q, r = panel.n_spatial, panel.n_covariates
    design = np.hstack([panel.spatial.reshape(-1, q), panel.covariates.reshape(-1, r)])
    names = [f"w{j + 1}" for j in range(q)] + [f"z{j + 1}" for j in range(r)]
    coef = least_squares(design, response, names, "efficiency design matrix is rank deficient")
    gamma_hat = tuple(float(c) for c in coef[:q])
    phi_hat = tuple(float(c) for c in coef[q:])
    return gamma_hat, phi_hat, clamp_count


def predict_te(panel: PanelDataset, gamma_hat, phi_hat) -> np.ndarray:
    """TE matrix exp(-logistic(w gamma + z phi)), kept strictly inside
    (exp(-1), 1) even when the logistic saturates in floats."""
    u_pred = inefficiency_mean(panel.spatial, panel.covariates, gamma_hat, phi_hat)
    return technical_efficiency(np.clip(u_pred, 1e-12, 1.0 - 1e-12))


def estimate_model(panel: PanelDataset) -> EstimationResult:
    """Run the full backfit once: GLS frontier, logit-linear efficiency, TE."""
    frontier = fit_frontier_gls(panel)
    gamma_hat, phi_hat, clamp_count = fit_efficiency_glm(frontier, panel)
    te = predict_te(panel, gamma_hat, phi_hat)
    return EstimationResult(
        frontier=frontier,
        gamma_hat=gamma_hat,
        phi_hat=phi_hat,
        te=te,
        clamp_count=clamp_count,
    )
