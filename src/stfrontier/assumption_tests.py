"""Bootstrap checks of the model's homogeneity assumptions.

Both tests keep an interval-exclusion rule: one interval per block (unit or
period) around that block's estimate, and the null is rejected when too many
intervals exclude the cross-block mean. The intervals are calibrated jointly
(single-step max-t simultaneous intervals, Romano & Wolf 2005): each bootstrap
replicate's block estimates are centred on that replicate's cross-block mean,
and the half-width multiplier c is the (1-alpha) order statistic over
replicates of the largest (temporal) or k-th largest (spatial) scaled absolute
deviation. Without this, N unguarded intervals reject far more often than
alpha under the null.

test_constant_temporal: are the units' autocorrelation coefficients equal?
Per unit, an AR(p) is fit to its series (frontier residuals by default). Each
unit's AR-sieve bootstrap (Buehlmann 1997) then runs with the highest-lag
coefficient set to the cross-unit mean, so the resamples obey the null, and
rebuilds k series from the unit's centered fit residuals; each is refit. The
sieves of all units run as one recursion over N*k series, each unit drawing
its innovations from its own substream, and the refit's normal equations are
summed while the recursion runs, so no sieve series is stored. Each unit's
deviation is studentised by its own bootstrap standard deviation. The null
is rejected when at least one unit's interval excludes the cross-unit mean
of the original estimates.

test_constant_spatial: is the spatial effect on technical efficiency equal
across time points? Per period, TE is mapped back to the linear scale and
regressed on the spatial measures and, when given, the covariates (no
intercept); k case resamples of the joint design give bootstrap draws of the
first spatial coefficient. The deviations are left unstudentised, because
case-bootstrap standard deviations at small N are too noisy to divide by. The
null is rejected when strictly more than alpha*100% of the period intervals
exclude the cross-period mean, so c comes from the (floor(alpha*T)+1)-th
largest deviation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import BootstrapError, EstimationError, ValidationError
from .estimation import fit_frontier_gls, least_squares
from .frontier import te_to_logit
from .rng import check_seed, substream
from .types import PanelDataset

#: Values drawn and discarded before a sieve series is emitted.
SIEVE_BURN_IN = 50

#: Spectral radius beyond which a fitted AR recursion is rescaled before sieving.
_STABILIZE_RADIUS = 0.999
_STABILIZE_TARGET = 0.98

#: Redraw rounds for rank-deficient case resamples before the test gives up.
_MAX_RESAMPLE_RETRIES = 100

#: Relative slack on interval limits, so that degenerate intervals from exact
#: fits do not exclude the cross-block mean through rounding alone.
_INTERVAL_RTOL = 1e-9

SERIES_SOURCES = ("frontier_residuals", "log_output")


@dataclass(frozen=True)
class TestConfig:
    """Knobs shared by both bootstrap tests."""

    ar_order_p: int = 1
    n_boot_k: int = 500
    alpha: float = 0.05
    series_source: str = "frontier_residuals"
    seed: int = 0

    __test__ = False  # not a pytest class

    def __post_init__(self):
        if int(self.ar_order_p) < 1:
            raise ValidationError(f"ar_order_p must be >= 1, got {self.ar_order_p}")
        object.__setattr__(self, "ar_order_p", int(self.ar_order_p))
        if int(self.n_boot_k) < 100:
            raise ValidationError(f"n_boot_k must be >= 100, got {self.n_boot_k}")
        object.__setattr__(self, "n_boot_k", int(self.n_boot_k))
        alpha = float(self.alpha)
        if not 0.0 < alpha < 0.5:
            raise ValidationError(f"alpha must lie in (0, 0.5), got {alpha}")
        object.__setattr__(self, "alpha", alpha)
        if alpha * self.n_boot_k < 5:
            raise ValidationError(
                f"alpha*n_boot_k = {alpha * self.n_boot_k:.3g} < 5; percentile "
                "limits would sit on unstable extreme order statistics"
            )
        if self.series_source not in SERIES_SOURCES:
            raise ValidationError(
                f"series_source must be one of {SERIES_SOURCES}, got {self.series_source!r}"
            )
        object.__setattr__(self, "seed", check_seed(self.seed))


@dataclass(frozen=True)
class TestReport:
    """Outcome of one homogeneity test, with everything needed to re-derive it."""

    test_kind: str  # "temporal" or "spatial"
    per_block_estimate: tuple[float, ...]
    per_block_interval: tuple[tuple[float, float], ...]
    reference_value: float
    n_failing: int
    reject: bool
    decision_rule: str
    block_labels: tuple
    alpha: float

    __test__ = False  # not a pytest class

    def __post_init__(self):
        for lo, hi in self.per_block_interval:
            if lo > hi:
                raise ValidationError(f"interval ({lo}, {hi}) has lo > hi")
        if self.n_failing > len(self.per_block_interval):
            raise ValidationError("n_failing exceeds the number of blocks")

    def recomputed_n_failing(self) -> int:
        ref = self.reference_value
        return sum(1 for lo, hi in self.per_block_interval if ref < lo or ref > hi)


@dataclass(frozen=True)
class ARFit:
    """Conditional least-squares AR(p) fit with intercept."""

    order: int
    coeffs: tuple[float, ...]  # intercept, lag 1, ..., lag p
    centered_residuals: np.ndarray
    mse: float
    series_head: tuple[float, ...]  # first p observed values, used to start a sieve
    n_obs: int  # length of the fitted series

    @property
    def lag_coeffs(self) -> np.ndarray:
        return np.asarray(self.coeffs[1:])

    @property
    def highest_lag_coeff(self) -> float:
        return self.coeffs[-1]


def _lag_design(series: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    t = series.shape[0]
    cols = [np.ones(t - p)] + [series[p - j : t - j] for j in range(1, p + 1)]
    return np.column_stack(cols), series[p:]


def ar_fit(series, p: int) -> ARFit:
    """Fit an AR(p) with intercept by conditional least squares.

    Residuals are centered to mean zero; mse is the regression mean squared
    error with p+1 fitted parameters. The fit is one estimation.least_squares
    call; a singular lag design raises EstimationError naming the collinear
    columns (intercept, lag1, ..., lagp).
    """
    s = np.asarray(series, dtype=float).ravel()
    t = s.shape[0]
    if int(p) < 1:
        raise ValidationError(f"AR order must be >= 1, got {p}")
    p = int(p)
    if t <= 3 * p + 1:
        raise ValidationError(
            f"series too short for AR({p}): need length > {3 * p + 1}, got {t}"
        )
    if not np.isfinite(s).all():
        raise ValidationError("series contains non-finite values")
    if s.var() < 1e-12:
        raise EstimationError("zero-variance series: no autocorrelation to estimate")

    design, target = _lag_design(s, p)
    names = ["intercept"] + [f"lag{j}" for j in range(1, p + 1)]
    coeffs = least_squares(design, target, names, f"near-singular lag matrix for AR({p})")
    resid = target - design @ coeffs
    centered = resid - resid.mean()
    mse = float((resid**2).sum() / (resid.shape[0] - (p + 1)))
    return ARFit(
        order=p,
        coeffs=tuple(float(c) for c in coeffs),
        centered_residuals=centered,
        mse=mse,
        series_head=tuple(float(v) for v in s[:p]),
        n_obs=t,
    )


def _spectral_radius(lag_coeffs: np.ndarray) -> float:
    """Largest root modulus of the companion polynomial: >= 1 means the
    recursion does not decay. One lag has the single root a, so |a|."""
    if len(lag_coeffs) == 1:
        return abs(float(lag_coeffs[0]))
    roots = np.roots(np.concatenate(([1.0], -np.asarray(lag_coeffs, dtype=float))))
    return float(np.abs(roots).max()) if roots.size else 0.0


def _stabilized(fit: ARFit) -> ARFit:
    """Shrink an (near-)explosive fit into the stationary region for sieving.

    Scaling lag j by s**j moves every companion root from r to s*r, so the
    rescaled recursion has radius _STABILIZE_TARGET. Estimates reported to
    the caller stay untouched; only the resampling recursion is tamed.
    """
    radius = _spectral_radius(fit.lag_coeffs)
    if radius < _STABILIZE_RADIUS:
        return fit
    scale = _STABILIZE_TARGET / radius
    lag = fit.lag_coeffs * scale ** np.arange(1, fit.order + 1)
    return ARFit(
        order=fit.order,
        coeffs=(fit.coeffs[0], *map(float, lag)),
        centered_residuals=fit.centered_residuals,
        mse=fit.mse,
        series_head=fit.series_head,
        n_obs=fit.n_obs,
    )


def _sieve_indices(rngs, n_residuals: int, k: int, steps: int) -> np.ndarray:
    """Innovation indices for k sieve series per generator, time-major.

    Generator i draws its own (k, steps) block, so one unit's draws do not
    depend on how many other units run with it. The result has shape
    (steps, len(rngs), k) in the smallest unsigned dtype that holds the
    indices.
    """
    idx = np.empty((steps, len(rngs), k), dtype=np.min_scalar_type(n_residuals - 1))
    for i, rng in enumerate(rngs):
        idx[:, i, :] = rng.integers(0, n_residuals, size=(k, steps)).T
    return idx


def _sieve_steps(fits: list[ARFit], idx: np.ndarray):
    """Run the sieve recursion of every fit at once, k series per fit.

    Each series starts at its fit's observed first p values; at step s, unit
    i's series draws the centered residuals that idx[s, i] picks. Yields, per
    step, the lagged values before the step, shape (units, k, p) newest first
    (y_{t-1}, ..., y_{t-p}), and the new value, shape (units, k). The lags
    are updated in place after the consumer resumes the generator.
    """
    p = fits[0].order
    k = idx.shape[2]
    intercept = np.array([fit.coeffs[0] for fit in fits])[:, None]
    lag = np.array([fit.lag_coeffs for fit in fits])[:, :, None]  # (units, p, 1)
    residuals = np.concatenate([fit.centered_residuals for fit in fits])
    offsets = np.cumsum([0] + [fit.centered_residuals.shape[0] for fit in fits[:-1]])[:, None]
    state = np.empty((len(fits), k, p))
    state[:] = np.array([fit.series_head[::-1] for fit in fits])[:, None, :]
    for step_idx in idx:
        # One lag needs no BLAS call: its product rounds the same either way.
        # Several lags go through matmul, which rounds as BLAS does (it may
        # fuse multiply-adds), so every series matches a per-unit recursion.
        new = state[..., 0] * lag[:, 0] if p == 1 else (state @ lag)[..., 0]
        new += intercept
        new += residuals.take(np.add(step_idx, offsets, dtype=np.intp))
        yield state, new
        state[..., 1:] = state[..., :-1]
        state[..., 0] = new


def sieve_bootstrap_series(fit: ARFit, m: int, seed) -> np.ndarray:
    """One sieve-bootstrap series of length m from a fitted AR recursion.

    The recursion starts at the observed first p values and runs
    SIEVE_BURN_IN discarded steps before it emits m values, with innovations
    drawn uniformly with replacement from the centered residuals. ``seed``
    may be an integer or a numpy Generator. The fitted polynomial must be
    stationary.
    """
    if m < fit.n_obs:
        raise ValidationError(
            f"bootstrap length m={m} shorter than the fitted series ({fit.n_obs})"
        )
    if _spectral_radius(fit.lag_coeffs) >= 1.0:
        raise BootstrapError(
            "nonstationary sieve: the fitted AR polynomial has a characteristic "
            "root inside the unit circle"
        )
    rng = seed if isinstance(seed, np.random.Generator) else substream(check_seed(seed), "sieve")
    idx = _sieve_indices([rng], fit.centered_residuals.shape[0], 1, SIEVE_BURN_IN + m)
    values = [new[0, 0] for _, new in _sieve_steps([fit], idx)]
    return np.array(values[SIEVE_BURN_IN:])


def _sieve_refit(fits: list[ARFit], idx: np.ndarray) -> np.ndarray:
    """Highest-lag AR(p) coefficient refit to every sieve series, shape (units, k).

    Each series is emitted after SIEVE_BURN_IN steps. The refit regresses its
    values y_t, t >= p, on (1, y_{t-1}, ..., y_{t-p}). The normal equations
    are summed while the recursion runs, one row per step in time order,
    which is the order in which an einsum over the stored series sums them;
    so the emitted series are never kept. One batched solve serves every
    series; if a unit has a singular system, that unit's k systems are solved
    by least squares instead.
    """
    p = fits[0].order
    q = p + 1
    steps = idx.shape[0]
    first = SIEVE_BURN_IN + p  # the step that emits y_p, the first target
    # upper triangle of X'X; its (0, 0) entry is the row count
    pairs = [(c, d) for c in range(q) for d in range(max(c, 1), q)]
    xtx = [0.0] * len(pairs)
    xty = [0.0] * q
    for step, (lags, new) in enumerate(_sieve_steps(fits, idx)):
        if step < first:
            continue
        row = (None, *np.moveaxis(lags, -1, 0))  # column 0 is the intercept's 1
        for j, (c, d) in enumerate(pairs):
            xtx[j] += row[d] if c == 0 else row[c] * row[d]
        xty[0] += new
        for c in range(1, q):
            xty[c] += row[c] * new
    del idx  # frees the indices before the solve when the caller keeps no reference
    a = np.empty(new.shape + (q, q))
    a[..., 0, 0] = steps - first
    for (c, d), total in zip(pairs, xtx):
        a[..., c, d] = a[..., d, c] = total
    b = np.stack(xty, axis=-1)[..., None]
    try:
        coefs = np.linalg.solve(a, b)
    except np.linalg.LinAlgError:
        coefs = np.stack([_solve_unit(unit_a, unit_b) for unit_a, unit_b in zip(a, b)])
    return coefs[..., -1, 0]


def _solve_unit(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.solve(a, b)
    except np.linalg.LinAlgError:
        return np.stack([np.linalg.lstsq(x, y, rcond=None)[0] for x, y in zip(a, b)])


def _simultaneous_intervals(
    estimates: np.ndarray,
    deviations: np.ndarray,
    scales: np.ndarray,
    alpha: float,
    rank: int = 1,
) -> tuple[float, tuple[tuple[float, float], ...], int]:
    """Jointly calibrated intervals estimate_i +- c*scale_i.

    ``deviations`` holds, per block and bootstrap replicate, a draw of
    estimate_i - mean(estimates) under the null, shape (blocks, k). c is the
    (1-alpha) order statistic (position ceil(k*(1-alpha))) over replicates of
    the rank-th largest
    |deviation_i|/scale_i, so under the null at least ``rank`` intervals
    exclude the cross-block mean with probability about alpha. Returns the
    cross-block mean, the intervals and how many of them exclude it.
    """
    scaled = np.abs(deviations) / scales[:, None]
    stat = np.sort(np.sort(scaled, axis=0)[-rank])
    k = stat.shape[0]
    # the 1e-9 nudge keeps float products like 500*0.95 from crossing integers
    c = float(stat[min(k, max(1, math.ceil(k * (1.0 - alpha) - 1e-9))) - 1])
    reference = float(np.mean(estimates))
    slack = _INTERVAL_RTOL * max(1.0, abs(reference))
    intervals = tuple(
        (float(est - c * sc - slack), float(est + c * sc + slack))
        for est, sc in zip(estimates, scales)
    )
    n_failing = sum(1 for lo, hi in intervals if reference < lo or reference > hi)
    return reference, intervals, n_failing


def _unit_series(panel: PanelDataset, source: str) -> np.ndarray:
    if source == "log_output":
        return np.asarray(panel.log_output)
    return fit_frontier_gls(panel).innovations


def _null_sieve_draws(fits: list[ARFit], m: int, config: TestConfig) -> np.ndarray:
    """Bootstrap draws of each unit's highest-lag coefficient, shape (N, k).

    Every unit's sieve runs with its highest-lag coefficient set to the
    cross-unit mean, stabilized if that makes it (near-)explosive, and draws
    its innovations from its own substream ("temporal-sieve", unit index).
    """
    pooled = float(np.mean([fit.highest_lag_coeff for fit in fits]))
    null_fits = [
        _stabilized(replace(fit, coeffs=(*fit.coeffs[:-1], pooled))) for fit in fits
    ]
    rngs = [substream(config.seed, "temporal-sieve", i) for i in range(len(fits))]
    return _sieve_refit(
        null_fits, _sieve_indices(rngs, m - config.ar_order_p, config.n_boot_k, SIEVE_BURN_IN + m)
    )


def test_constant_temporal(panel: PanelDataset, config: TestConfig) -> TestReport:
    """AR-sieve bootstrap test of a common autocorrelation coefficient.

    Every unit is fit first; each unit's sieve then runs with its highest-lag
    coefficient set to the cross-unit mean, imposing the null. One
    unit-batched recursion generates all N*k sieve series from time-major
    innovation indices and sums their AR refits' normal equations as it goes;
    one batched solve then gives the N*k refit coefficients. The per-unit
    intervals are simultaneous max-t intervals, each studentised by the
    bootstrap standard deviation of that unit's deviation from the replicate's
    cross-unit mean. Rejects when at least one unit's interval
    excludes the cross-unit mean of the original estimates.
    """
    if panel.n_units < 2:
        raise ValidationError("at least two spatial units required")
    p = config.ar_order_p
    if p >= panel.n_periods / 3:
        raise ValidationError(
            f"ar_order_p={p} too large for T={panel.n_periods}: need p < T/3"
        )
    series = _unit_series(panel, config.series_source)
    m = panel.n_periods

    fits: list[ARFit] = []
    for i, label in enumerate(panel.unit_ids):
        try:
            fits.append(ar_fit(series[i], p))
        except (ValidationError, EstimationError) as err:
            raise BootstrapError(f"AR fit failed for unit {label!r}: {err}") from err
    estimates = np.array([fit.highest_lag_coeff for fit in fits])

    draws = _null_sieve_draws(fits, m, config)
    deviations = draws - draws.mean(axis=0)
    spread = deviations.std(axis=1, ddof=1)
    if not (spread > 0).all():
        label = panel.unit_ids[int(np.argmin(spread > 0))]
        raise BootstrapError(f"bootstrap deviations for unit {label!r} have zero spread")

    reference, intervals, n_failing = _simultaneous_intervals(
        estimates, deviations, spread, config.alpha
    )
    return TestReport(
        test_kind="temporal",
        per_block_estimate=tuple(float(e) for e in estimates),
        per_block_interval=intervals,
        reference_value=reference,
        n_failing=n_failing,
        reject=n_failing >= 1,
        decision_rule=(
            "reject if at least one per-unit simultaneous (max-t, null-imposing "
            "sieve) interval excludes the cross-unit mean"
        ),
        block_labels=tuple(panel.unit_ids),
        alpha=config.alpha,
    )


def _slice_design(w_slice, z_slice=None) -> np.ndarray:
    w = np.asarray(w_slice, dtype=float)
    if w.ndim == 1:
        w = w[:, None]
    if z_slice is None:
        return w
    z = np.asarray(z_slice, dtype=float)
    return np.concatenate([w, z[:, None] if z.ndim == 1 else z], axis=1)


def fit_spatial_slice(te_row, w_slice, z_slice=None) -> np.ndarray:
    """Coefficients for one time point: least squares of the linearized TE on
    the spatial measures and, when given, the covariates, no intercept.

    The spatial coefficients come first, then the covariate ones. Leaving z
    out when it correlates with w moves z*phi into the spatial slope. The fit
    is one estimation.least_squares call; a singular design raises
    EstimationError naming the collinear w* and z* columns.
    """
    te = np.asarray(te_row, dtype=float).ravel()
    design = _slice_design(w_slice, z_slice)
    if design.shape[0] != te.shape[0]:
        raise ValidationError(
            f"w_slice has {design.shape[0]} rows for {te.shape[0]} TE values"
        )
    bad = (te <= np.exp(-1.0)) | (te >= 1.0)
    if bad.any():
        idx = int(np.argmax(bad))
        raise ValidationError(
            f"technical efficiency outside (exp(-1), 1) at unit index {idx}: {te[idx]!r}"
        )
    q = 1 if np.ndim(w_slice) == 1 else np.shape(w_slice)[1]
    names = [f"w{j + 1}" for j in range(q)] + [f"z{j + 1}" for j in range(design.shape[1] - q)]
    return least_squares(
        design, te_to_logit(te), names, "spatial design for the time slice is rank deficient"
    )


def _case_resample_slopes(
    response: np.ndarray,
    design: np.ndarray,
    k: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """First coefficient under k case resamples of the (design row, response) pairs.

    A resample's normal equations are count-weighted sums of the per-row
    outer products, so each round is two small matrix products instead of a
    gather of k copies of the design. Rank-deficient resamples are redrawn,
    up to _MAX_RESAMPLE_RETRIES rounds."""
    n, q = design.shape
    outer = (design[:, :, None] * design[:, None, :]).reshape(n, q * q)
    cross = design * response[:, None]
    idx = rng.integers(0, n, size=(k, n))
    slopes = np.empty(k)
    pending = np.arange(k)
    for _ in range(_MAX_RESAMPLE_RETRIES + 1):
        m = pending.size
        flat = (idx[pending] + n * np.arange(m)[:, None]).ravel()
        counts = np.bincount(flat, minlength=m * n).reshape(m, n).astype(float)
        xtx = (counts @ outer).reshape(m, q, q)
        xty = counts @ cross
        scale = np.einsum("kqq->k", xtx) / q  # mean diagonal, sets the det scale
        bad = np.abs(np.linalg.det(xtx)) <= (1e-12 * np.maximum(scale, 1e-300)) ** q
        good = ~bad
        if good.any():
            slopes[pending[good]] = np.linalg.solve(xtx[good], xty[good][..., None])[:, 0, 0]
        pending = pending[bad]
        if pending.size == 0:
            return slopes
        idx[pending] = rng.integers(0, n, size=(pending.size, n))
    raise BootstrapError(
        f"case resampling produced rank-deficient draws {_MAX_RESAMPLE_RETRIES} times in a row"
    )


def test_constant_spatial(te, spatial, config: TestConfig, covariates=None) -> TestReport:
    """Case-resampling bootstrap test of a common spatial effect over time.

    Each period regresses the linearized TE on (w, z), or on w alone when no
    covariates are given, and case-resamples that joint design. The period
    intervals are simultaneous, unstudentised: c is calibrated on the
    (floor(alpha*T)+1)-th largest recentred deviation. Rejects when strictly
    more than alpha*100% of the per-period intervals exclude the cross-period
    mean of the original estimates.
    """
    te = np.asarray(te, dtype=float)
    spatial = np.asarray(spatial, dtype=float)
    if te.ndim != 2:
        raise ValidationError(f"te must be an N x T matrix, got shape {te.shape}")
    n, t = te.shape
    if t < 2:
        raise ValidationError("at least two time points required")
    if n < 2:
        raise ValidationError("at least two spatial units required")
    if spatial.shape[:2] != (n, t):
        raise ValidationError(
            f"spatial must have shape (N={n}, T={t}, Q), got {spatial.shape}"
        )
    if covariates is not None:
        covariates = np.asarray(covariates, dtype=float)
        if covariates.ndim != 3 or covariates.shape[:2] != (n, t):
            raise ValidationError(
                f"covariates must have shape (N={n}, T={t}, R), got {covariates.shape}"
            )

    estimates = np.empty(t)
    draws = np.empty((t, config.n_boot_k))
    for s in range(t):
        w_slice = spatial[:, s, :]
        z_slice = None if covariates is None else covariates[:, s, :]
        try:
            coef = fit_spatial_slice(te[:, s], w_slice, z_slice)
        except (ValidationError, EstimationError) as err:
            raise BootstrapError(f"spatial fit failed for period {s}: {err}") from err
        estimates[s] = coef[0]
        rng = substream(config.seed, "spatial-case", s)
        draws[s] = _case_resample_slopes(
            te_to_logit(te[:, s]), _slice_design(w_slice, z_slice), config.n_boot_k, rng
        )

    centred = draws - estimates[:, None]
    reference, intervals, n_failing = _simultaneous_intervals(
        estimates,
        centred - centred.mean(axis=0),
        np.ones(t),
        config.alpha,
        rank=math.floor(config.alpha * t) + 1,
    )
    return TestReport(
        test_kind="spatial",
        per_block_estimate=tuple(float(e) for e in estimates),
        per_block_interval=intervals,
        reference_value=reference,
        n_failing=n_failing,
        reject=n_failing > config.alpha * t,
        decision_rule=(
            "reject if strictly more than alpha*100% of per-period simultaneous "
            "(case-resample, k-th largest deviation) intervals exclude the "
            "cross-period mean"
        ),
        block_labels=tuple(range(t)),
        alpha=config.alpha,
    )
