"""Hybrid backfitting estimator for the frontier panel model.

Three steps, run once (no outer loop):

1. fit_frontier_gls: the inefficiency term is dropped and (beta, rho) are
   estimated jointly by iterated feasible GLS (Cochrane-Orcutt with
   Prais-Winsten treatment of each unit's first observation). The model is
   additive in its AR(1) noise, so the quasi-differenced normal equations
   are a quadratic in rho over cross-product moments formed once, and each
   iteration solves a (P+1, P+1) system. The fit keeps its innovations
   e_it = ln y_it - beta0_hat - ln x_it beta_hat.
2. fit_efficiency_glm: the residual inefficiency estimates are
   u_hat_it = e_it - rho_hat * e_it-1 with the pre-sample innovation
   e_i0 = 0; u* = -u_hat, clamped into [delta, 1-delta], is mapped through
   the logit and regressed on (w, z) without intercept.
3. estimate_model: technical efficiency is scored as
   exp(-logistic(w gamma_hat + z phi_hat)).

The efficiency fit and the spatial-slice fits of the homogeneity tests are
solved by least_squares. One rank rule, _rank, judges whether a design is
singular: from lstsq's singular values there, from those of the frontier
design's R factor in fit_frontier_gls, and from one batched SVD of the
temporal test's AR lag designs. _require_full_rank names the collinear
columns of a design that fails it.

The logit is frontier.logit, the package's one logit. scipy is imported
only to name the collinear columns of a singular design, so a run on a
regular design never loads it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EstimationError, ValidationError
from .frontier import inefficiency_mean, logit, technical_efficiency
from .types import PanelDataset

#: Clamp width for the logit transform of residual inefficiencies.
CLAMP_DELTA = 1e-6

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


def _rank(sv: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    """Numerical rank of designs of ``shape`` whose singular values, in
    descending order, run along the last axis of ``sv``; the leading axes,
    if any, stack designs.

    A singular value counts when it is above lstsq's default cut-off,
    eps * max(shape) * s_max, and s_max/s_min is at most _MAX_CONDITION.
    """
    s_max = sv[..., :1]
    cutoff = np.finfo(float).eps * max(shape) * s_max
    return np.count_nonzero((sv > cutoff) & (sv * _MAX_CONDITION >= s_max), axis=-1)


def _require_full_rank(
    design: np.ndarray, sv: np.ndarray, names: list[str], singular: str
) -> None:
    """Raise EstimationError unless ``design``, whose singular values are
    ``sv`` in descending order, has full column rank by _rank's rule.

    Only a singular design goes on to a pivoted QR, which orders the columns
    by independence; the error, whose text starts with ``singular``, names
    the trailing ones.
    """
    rank = int(_rank(sv, design.shape))
    if rank < design.shape[1]:
        import scipy.linalg

        _, _, pivots = scipy.linalg.qr(design, mode="economic", pivoting=True)
        collinear = sorted(names[j] for j in pivots[rank:])
        raise EstimationError(f"{singular}; collinear columns: " + ", ".join(collinear))


def least_squares(
    design: np.ndarray, response: np.ndarray, names: list[str], singular: str
) -> np.ndarray:
    """Coefficients of ``response`` on ``design`` from one lstsq call, whose
    singular values go through _require_full_rank."""
    coef, _, _, sv = np.linalg.lstsq(design, response, rcond=None)
    _require_full_rank(design, sv, names, singular)
    return coef


@dataclass(frozen=True)
class FrontierFit:
    """Step-1 output: frontier coefficients, AR coefficient and innovations."""

    beta0_hat: float
    beta_hat: tuple[float, ...]
    rho_hat: float
    innovations: np.ndarray  # (N, T) e_it = ln y_it - beta0_hat - ln x_it beta_hat
    iterations: int
    converged: bool


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


def _lag_moments(data: np.ndarray) -> tuple[np.ndarray, ...]:
    """Cross products of the rows of an (N, T, M) array, summed over units:
    the Gram matrix over all periods, the first-period and the last-period
    products, and the lag product sum_{t>=1} a_t' a_{t-1}.

    The lag product is taken over the flat rows, less the N-1 pairs in which
    one unit's first row follows the previous unit's last.
    """
    n, t, m = data.shape
    flat = data.reshape(n * t, m)
    first, last = data[:, 0], data[:, -1]
    return (
        flat.T @ flat,
        first.T @ first,
        last.T @ last,
        flat[1:].T @ flat[:-1] - first[1:].T @ last[:-1],
    )


def fit_frontier_gls(panel: PanelDataset, *, rho_fixed: float | None = None) -> FrontierFit:
    """Estimate (beta, rho) jointly by iterated feasible GLS.

    Alternates pooled least squares on quasi-differenced data with a pooled
    lag regression of the residuals on themselves (no intercept) until the
    largest coefficient change drops below _GLS_TOL. ``rho_fixed``, finite
    and inside (-1, 1), skips the rho update (rho_fixed=0 reproduces pooled
    OLS).

    Nothing is quasi-differenced. For one rho, QD(A)'QD(B) is
    (1-rho^2) F + C00 - rho (C01 + C10) + rho^2 C11 in the moments of
    _lag_moments, so each iteration is a (K, K) solve once they are formed.
    They are formed on [Q, e]: the QR of [X, ln y] gives X = QR, whose
    singular values are X's and so decide the rank check, and the residual
    e of ln y on X. Q's columns are orthonormal and e is orthogonal to them,
    so a product of the moments loses no more digits than a least-squares
    solve on the quasi-differenced design; moments of the raw X would square its
    condition number. Each residual y - X beta is [Q, e] v for a short v,
    so rho and the variance rule are quadratic forms in v.
    """
    if rho_fixed is not None:
        rho_fixed = float(rho_fixed)
        if not abs(rho_fixed) < 1.0:
            raise ValidationError(
                f"rho_fixed must be finite and inside (-1, 1), got {rho_fixed!r}"
            )
    n, t, k = panel.n_units, panel.n_periods, panel.n_inputs + 1
    data = np.empty((n, t, k + 1))  # intercept, ln x, ln y
    data[..., 0] = 1.0
    data[..., 1:k] = panel.log_inputs
    data[..., k] = panel.log_output
    flat = data.reshape(n * t, k + 1)
    basis = np.linalg.qr(flat, mode="r")
    names = ["intercept"] + [f"x{j}" for j in range(1, k)]
    _require_full_rank(
        flat[:, :k],
        np.linalg.svd(basis[:k, :k], compute_uv=False),
        names,
        "frontier design matrix is rank deficient",
    )
    # [X, ln y] = [Q, q] basis with e = basis[k, k] q, so a unit corner
    # gives [X, ln y] = [Q, e] basis
    basis[k, k] = 1.0
    gram, first, last, lag = _lag_moments((flat @ np.linalg.inv(basis)).reshape(n, t, k + 1))
    # C00 = gram - first and C11 = gram - last, so the moments at rho are
    # gram - rho (C01 + C10) + rho^2 (C11 - first)
    c11 = gram - last
    pair = lag + lag.T
    curvature = c11 - first
    # X's first column is the intercept, so 1 = basis[0, 0] Q[:, 0]
    total = basis[0, 0] * gram[0]

    def coefficients(v):
        # [X, ln y] (-beta, 1) = [Q, e] v
        return -np.linalg.solve(basis, v)[:k]

    v = np.eye(k + 1)[k]  # the OLS residual e
    coef = coefficients(v)
    rho = 0.0
    converged = False
    for iterations in range(1, _GLS_MAX_ITER + 1):
        if rho_fixed is not None:
            rho_new = rho_fixed
        elif v @ gram @ v / (n * t) - (total @ v / (n * t)) ** 2 < _DEGENERATE_VAR:
            rho_new = 0.0
        else:
            den = float(v @ c11 @ v)
            rho_new = float(v @ lag @ v / den) if den > 0 else 0.0
            if abs(rho_new) >= 1:
                raise EstimationError(
                    f"explosive autocorrelation estimate rho_hat={rho_new:.6g}; "
                    "the noise process looks nonstationary"
                )
        moments = gram - rho_new * pair + rho_new**2 * curvature
        v = np.append(-np.linalg.solve(moments[:k, :k], moments[:k, k]), 1.0)
        coef_new = coefficients(v)
        delta = max(np.abs(coef_new - coef).max(), abs(rho_new - rho))
        coef, rho = coef_new, rho_new
        if delta < _GLS_TOL:
            converged = True
            break

    return FrontierFit(
        beta0_hat=float(coef[0]),
        beta_hat=tuple(float(c) for c in coef[1:]),
        rho_hat=rho,
        innovations=panel.log_output - data[..., :k] @ coef,
        iterations=iterations,
        converged=converged,
    )


def fit_efficiency_glm(
    frontier: FrontierFit, panel: PanelDataset
) -> tuple[tuple[float, ...], tuple[float, ...], int]:
    """Estimate (gamma, phi) from the negated residual inefficiencies.

    The step-1 innovations give u_hat_it = e_it - rho_hat * e_it-1, with
    e_i0 = 0. u* = -u_hat estimates the inefficiency up to noise; values are
    clamped into [CLAMP_DELTA, 1-CLAMP_DELTA] before the logit, which is
    regressed on (w, z) without intercept. Returns (gamma_hat, phi_hat,
    clamp_count), where clamp_count is the number of cells moved onto a bound.
    """
    u_hat = frontier.innovations.copy()
    u_hat[:, 1:] -= frontier.rho_hat * frontier.innovations[:, :-1]
    u_star = -u_hat.ravel()
    lo, hi = CLAMP_DELTA, 1.0 - CLAMP_DELTA
    clamp_count = int(np.count_nonzero(u_star < lo) + np.count_nonzero(u_star > hi))
    response = logit(np.clip(u_star, lo, hi))
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
