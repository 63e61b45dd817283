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

test_constant_temporal: do the units share one lag-1 autocorrelation
coefficient? The model's noise is AR(1), so every unit's series of frontier
innovations is fit an AR(1) with intercept, all in one pass: their
lag designs are stacked, checked as row masks, and factored by one batched
SVD, so each fit equals a fit to that series alone; the fits stay stacked
arrays up to the refit. Each unit's AR-sieve bootstrap (Buehlmann 1997) then
runs with its coefficient set to the cross-unit mean, so the resamples obey
the null; that one pooled value is shrunk first if it is (near-)explosive.
Each sieve rebuilds k series from the unit's centered fit residuals; each is
refit, after a burn-in of b values: the fewest for which |pooled|**b, the
share of the start left, is below 1e-9, kept within [10, 200] (ledger D27
in CHANGES.md). The sieves of all units run as one recursion over N*k
series: one generator draws their innovation indices as a single block, by
Lemire's rule on chunks of its raw words (rng.index_block, bit for bit
Generator.integers), the lagged and the new value swap between two arrays,
and the refit's four sums are accumulated while the recursion runs, so no
sieve series is stored. One elimination step of the N*k 2x2 normal equations
gives the refit coefficients.
Each unit's deviation is studentised by its own bootstrap standard
deviation. The null is rejected when at least one unit's interval excludes
the cross-unit mean of the original estimates. The order is fixed at 1: at a
higher order the test would compare each unit's highest-lag coefficient,
which is near 0 whatever the unit's lag-1 coefficient, and it had no power
(ledger D21 in CHANGES.md).

test_constant_spatial: is the spatial effect on technical efficiency equal
across time points? Per period, TE is mapped back to the linear scale and
regressed, with no intercept, on the model's predictor: the spatial measures
w and the covariates z. k case resamples of that (w, z) design give
bootstrap draws of the first spatial coefficient. The deviations are left
unstudentised, because case-bootstrap standard deviations at small N are too
noisy to divide by. The null is rejected when strictly more than alpha*100%
of the period intervals exclude the cross-period mean, so c comes from the
(floor(alpha*T)+1)-th largest deviation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BootstrapError, EstimationError, ValidationError
from .estimation import _rank, _require_full_rank, fit_frontier_gls, least_squares
from .frontier import TE_LOWER, te_to_logit
from .rng import check_seed, index_block, substream
from .types import PanelDataset, as_count

#: The sieve's burn-in: enough steps for |rho|**b, the share of the start
#: left in a series, to fall below _BURN_IN_TOL, between a floor and a cap.
_BURN_IN_TOL = 1e-9
_BURN_IN_FLOOR = 10
_BURN_IN_CAP = 200

#: |lag-1 coefficient| from which the pooled AR(1) is rescaled before sieving.
_STABILIZE_RADIUS = 0.999
_STABILIZE_TARGET = 0.98

#: Redraw rounds for rank-deficient case resamples before the test gives up.
_MAX_RESAMPLE_RETRIES = 100

#: Relative slack on interval limits, so that degenerate intervals from exact
#: fits do not exclude the cross-block mean through rounding alone.
_INTERVAL_RTOL = 1e-9


@dataclass(frozen=True)
class TestConfig:
    """Settings shared by both bootstrap tests. The temporal test's series
    (the frontier innovations) and its order (1) are fixed by the model, so
    neither is a setting."""

    n_boot_k: int = 500
    alpha: float = 0.05
    seed: int = 0

    __test__ = False  # not a pytest class

    def __post_init__(self):
        object.__setattr__(self, "n_boot_k", as_count(self.n_boot_k, "n_boot_k", 100))
        alpha = float(self.alpha)
        if not 0.0 < alpha < 0.5:
            raise ValidationError(f"alpha must lie in (0, 0.5), got {alpha}")
        object.__setattr__(self, "alpha", alpha)
        if alpha * self.n_boot_k < 5:
            raise ValidationError(
                f"alpha*n_boot_k = {alpha * self.n_boot_k:.3g} < 5; the max-t "
                "critical value would sit on an unstable extreme order statistic"
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


@dataclass(frozen=True)
class ARFit:
    """Conditional least-squares AR(1) fit with intercept."""

    intercept: float
    rho: float  # the lag-1 coefficient
    centered_residuals: np.ndarray
    mse: float
    n_obs: int  # length of the fitted series


def check_ar_length(t: int) -> None:
    """The one length rule for an AR(1) fit: the series needs T > 4 values.

    The temporal test and GridSpec check it up front, so a panel too short
    is a ValidationError and not a failure in every unit.
    """
    if t <= 4:
        raise ValidationError(f"series too short for AR(1): need T > 4, got T={t}")


def _ar_fit_rows(series: np.ndarray) -> tuple[tuple | None, tuple | None]:
    """Conditional least-squares AR(1) fits, with intercept, of every row of
    an (N, T) array.

    The rows' lag designs are stacked as one (N, T-1, 2) array, and the
    finite and variance checks run as row masks. One np.linalg.svd call
    factors every design; estimation's rank rule runs on the singular values
    as a row mask, and each row's coefficients come from its own factors, so
    they are those of a fit to that row alone. Returns the (N, 2)
    coefficients (intercept, lag 1), the (N, T-1) centered residuals and the
    (N,) mse as one tuple, and None; or None and (row, error) for the first
    row, in row order, that fails: non-finite values raise ValidationError,
    a flat series or a singular lag design EstimationError, the latter
    naming the collinear columns.
    """
    n, t = series.shape
    check_ar_length(t)
    finite = np.isfinite(series).all(axis=1)
    with np.errstate(invalid="ignore"):  # inf - inf in the variance of a bad row
        flat = series.var(axis=1) < 1e-12
    bad = ~finite | flat
    first_bad = int(np.argmax(bad)) if bad.any() else n

    # rows from the first bad one on are never fit
    design = np.empty((first_bad, t - 1, 2))
    design[..., 0] = 1.0
    design[..., 1] = series[:first_bad, :-1]
    target = series[:first_bad, 1:]
    u, sv, vt = np.linalg.svd(design, full_matrices=False)
    singular = np.flatnonzero(_rank(sv, design.shape[1:]) < 2)
    if singular.size:
        row = int(singular[0])
        try:
            _require_full_rank(
                design[row], sv[row], ["intercept", "lag1"], "near-singular lag matrix for AR(1)"
            )
        except EstimationError as err:
            return None, (row, err)
    if first_bad < n:
        if not finite[first_bad]:
            err = ValidationError("series contains non-finite values")
        else:
            err = EstimationError("zero-variance series: no autocorrelation to estimate")
        return None, (first_bad, err)

    coeffs = np.einsum("nji,nj->ni", vt, np.einsum("nmj,nm->nj", u, target) / sv)
    resid = target - np.einsum("nmi,ni->nm", design, coeffs)
    centered = resid - resid.mean(axis=1, keepdims=True)
    mse = (resid**2).sum(axis=1) / (t - 3)
    return (coeffs, centered, mse), None


def ar_fit(series) -> ARFit:
    """Fit an AR(1) with intercept to one series by conditional least squares.

    The one-row case of the temporal test's fitter. ``series`` is one 1-D
    series; any other shape is a ValidationError, so several units' rows are
    not read as one long series. Residuals are centered to mean zero; mse is
    the regression mean squared error with 2 fitted parameters. A singular
    lag design raises EstimationError naming the collinear columns
    (intercept, lag1).
    """
    series = np.asarray(series, dtype=float)
    if series.ndim != 1:
        raise ValidationError(f"ar_fit takes one 1-D series, got shape {series.shape}")
    fit, failure = _ar_fit_rows(series[None])
    if failure is not None:
        raise failure[1]
    ((intercept, rho),), (centered,), (mse,) = fit
    return ARFit(
        intercept=float(intercept),
        rho=float(rho),
        centered_residuals=centered,
        mse=float(mse),
        n_obs=series.shape[0],
    )


def _stabilized(rho: float) -> float:
    """The pooled lag-1 coefficient the sieves run with: ``rho`` itself, or,
    when |rho| is at least _STABILIZE_RADIUS, ``rho`` shrunk to modulus
    _STABILIZE_TARGET, so the resampling recursion decays. Only the sieve
    sees the result; the estimates reported stay untouched.
    """
    radius = abs(rho)
    if radius >= _STABILIZE_RADIUS:
        return rho * (_STABILIZE_TARGET / radius)
    return rho


def _burn_in(rho: float) -> int:
    """Steps each sieve series runs, and discards, before it emits a value:
    ceil(ln _BURN_IN_TOL / ln |rho|), kept within [_BURN_IN_FLOOR,
    _BURN_IN_CAP]; the floor when rho is 0. ``rho`` is the coefficient the
    sieve runs with, so after _stabilized |rho| < 1, and at the
    stabilisation target 0.98 the cap binds.
    """
    radius = abs(rho)
    if radius == 0.0:  # ln 0 raises
        return _BURN_IN_FLOOR
    steps = math.ceil(math.log(_BURN_IN_TOL) / math.log(radius))
    return min(_BURN_IN_CAP, max(_BURN_IN_FLOOR, steps))


def _sieve_refit(intercepts, residuals, heads, rho: float, idx: np.ndarray) -> np.ndarray:
    """Lag-1 coefficient of an AR(1) refit to every sieve series, shape (units, k).

    One recursion runs the sieves of all units, k series each, from their
    (units,) observed first values ``heads``, with the (units,) intercepts,
    the (units, m) centered residuals and the one lag coefficient ``rho``
    that every unit shares under the null. Each unit's intercept is folded
    into its residuals, so at step s unit i's series is the entry c_i + e
    that idx[s, i] picks in that table, plus rho*y_{t-1}. The lagged and the
    new value are two (units, k) arrays that swap roles each step, so no
    state is copied. The block's steps are a burn-in and then the m + 1 that
    emit y_0, ..., y_m, so the burn-in is its length less m + 1. Each series
    regresses y_t, t >= 1, on (1, y_{t-1}). The sums of y_{t-1}, y_{t-1}**2,
    y_t and y_{t-1}*y_t are accumulated while the recursion runs, one term
    per step in time order, which is the order in which an einsum over the
    stored series sums them; so the emitted series are never kept.
    _last_coefficient then solves all N*k systems at once, into the arrays
    the recursion leaves free. The call allocates its working arrays once, a
    (7, units, k) float block (the lagged and the new value, one product and
    the four sums) and a (2, units, k) intp one, and every step writes into
    them with out=.
    """
    steps, n, k = idx.shape
    first = steps - residuals.shape[1]  # the step that emits y_1, the first target
    floats = np.empty((7, n, k))
    offsets, position = np.empty((2, n, k), dtype=np.intp)
    lagged, new, product = floats[:3]
    sums = floats[3:]
    sums.fill(0.0)
    sx, sxx, sy, sxy = sums
    table = (intercepts[:, None] + residuals).ravel()
    # per-unit constants spread over the k series: a broadcast operand would
    # make every step's passes slower
    offsets[:] = (np.arange(n) * residuals.shape[1])[:, None]
    lagged[:] = heads[:, None]
    for step, step_idx in enumerate(idx):
        # every position is in range by construction; "clip" only spares take
        # the buffered copy that mode="raise" makes into ``out``
        table.take(np.add(step_idx, offsets, out=position), out=new, mode="clip")
        new += np.multiply(rho, lagged, out=product)
        if step >= first:
            sx += lagged
            sxx += np.multiply(lagged, lagged, out=product)
            sy += new
            sxy += np.multiply(lagged, new, out=product)
        lagged, new = new, lagged
    # frees the indices before the systems are solved when the caller keeps
    # no reference
    del idx, step_idx
    count = np.broadcast_to(float(steps - first), (n, k))
    return _last_coefficient(count, sx, sxx, sy, sxy, (lagged, new, product))


def _last_coefficient(count, sx, sxx, sy, sxy, scratch=()) -> np.ndarray:
    """Slope of each least-squares line y = c + rho*x, from its normal
    equations [[count, sx], [sx, sxx]] (c, rho) = (sy, sxy); every argument
    is an array of the shape the result takes.

    One elimination step: factor = sx/count, then rho = (sxy - factor*sy) /
    (sxx - factor*sx). Normal equations are positive semi-definite, so this
    needs no pivoting. The factor, a product and the updated sxx are written
    into the arrays of ``scratch``, and into new ones if it holds fewer than
    three, so the sums stay intact. A system with a pivot that is not
    positive, or a result that is not finite, is solved from them by
    np.linalg.lstsq instead, which gives the minimum-norm solution of a
    singular system.
    """
    spare = list(scratch)
    factor, product, reduced = (spare.pop() if spare else np.empty(sx.shape) for _ in range(3))
    with np.errstate(divide="ignore", invalid="ignore"):
        solved = count > 0
        np.divide(sx, count, out=factor)
        np.subtract(sxx, np.multiply(factor, sx, out=product), out=reduced)
        rhs = np.subtract(sxy, np.multiply(factor, sy, out=product), out=product)
        solved &= reduced > 0
        last = rhs / reduced
        solved &= np.isfinite(last)
    for i in map(tuple, np.argwhere(~solved)):
        system = [[count[i], sx[i]], [sx[i], sxx[i]]]
        last[i] = np.linalg.lstsq(np.array(system), np.array([sy[i], sxy[i]]), rcond=None)[0][-1]
    return last


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


def _null_sieve_draws(series, coeffs, residuals, config: TestConfig) -> np.ndarray:
    """Bootstrap draws of each unit's lag-1 coefficient, shape (N, k).

    ``coeffs`` and ``residuals`` are _ar_fit_rows' stacked fits of the
    (N, m) ``series``, whose first column starts the sieves. Every unit's
    sieve runs with the cross-unit mean of the lag-1 coefficients, stabilized
    if it is (near-)explosive, and burns in for as many steps as _burn_in
    gives that coefficient. One generator, substream "temporal-sieve", draws
    the innovation indices of all units as one time-major (b + m, N, k)
    block in the smallest unsigned dtype that holds them: rng.index_block,
    which gives the bits of Generator.integers from whole chunks of raw
    words.
    """
    n, m = series.shape
    rho = _stabilized(np.mean(coeffs[:, 1]))
    return _sieve_refit(  # no reference kept here, so the refit can free the block
        coeffs[:, 0],
        residuals,
        series[:, 0],
        rho,
        index_block(
            config.seed, "temporal-sieve", n=m - 1, shape=(_burn_in(rho) + m, n, config.n_boot_k)
        ),
    )


def test_constant_temporal(panel: PanelDataset, config: TestConfig) -> TestReport:
    """AR-sieve bootstrap test of a common lag-1 autocorrelation coefficient.

    The series must be longer than 4 (check_ar_length), which is checked
    before the frontier is fit. Each unit's series is its innovations from
    fit_frontier_gls. Every unit is fit an AR(1) first, in one pass; the
    first unit, in unit order, whose fit fails is named in a BootstrapError.
    Each unit's sieve then runs with the cross-unit mean coefficient,
    imposing the null, and burns in for as long as that coefficient needs
    (_burn_in). One unit-batched recursion generates all N*k sieve
    series from one generator's time-major innovation indices and sums their
    AR(1) refits' normal equations as it goes; one elimination step then
    gives the N*k refit coefficients. The per-unit intervals are
    simultaneous max-t intervals, each studentised by the bootstrap standard
    deviation of that unit's deviation from the replicate's cross-unit mean.
    Rejects when at least one unit's interval excludes the cross-unit mean
    of the original estimates.
    """
    check_ar_length(panel.n_periods)
    series = fit_frontier_gls(panel).innovations

    fit, failure = _ar_fit_rows(series)
    if failure is not None:
        row, err = failure
        raise BootstrapError(f"AR fit failed for unit {panel.unit_ids[row]!r}: {err}") from err
    coeffs, residuals, _ = fit
    estimates = coeffs[:, 1]

    draws = _null_sieve_draws(series, coeffs, residuals, config)
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


def fit_spatial_slice(te_row, w_slice, z_slice) -> np.ndarray:
    """Coefficients for one time point: least squares of the linearized TE on
    the spatial measures w (N, Q) and the covariates z (N, R), no intercept.

    The spatial coefficients come first, then the covariate ones. The design
    is the model's predictor, w*gamma + z*phi: leaving z out when it
    correlates with w would move z*phi into the spatial slope. The fit is one
    estimation.least_squares call; a singular design raises EstimationError
    naming the collinear w* and z* columns.
    """
    te = np.asarray(te_row, dtype=float).ravel()
    design = np.column_stack([w_slice, z_slice])
    if design.shape[0] != te.shape[0]:
        raise ValidationError(
            f"w_slice has {design.shape[0]} rows for {te.shape[0]} TE values"
        )
    bad = ~((te > TE_LOWER) & (te < 1.0))  # refuses nan too
    if bad.any():
        idx = int(np.argmax(bad))
        raise ValidationError(
            f"technical efficiency outside (exp(-1), 1) at unit index {idx}: {float(te[idx])!r}"
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


def test_constant_spatial(te, spatial, config: TestConfig, covariates) -> TestReport:
    """Case-resampling bootstrap test of a common spatial effect over time.

    Each period regresses the linearized TE on its slice of the (N, T, Q+R)
    design (w, z) and case-resamples that slice. The period intervals are
    simultaneous, unstudentised: c is calibrated on the (floor(alpha*T)+1)-th
    largest recentred deviation. Rejects when strictly more than alpha*100%
    of the per-period intervals exclude the cross-period mean of the original
    estimates.
    """
    te = np.asarray(te, dtype=float)
    if te.ndim != 2:
        raise ValidationError(f"te must be an N x T matrix, got shape {te.shape}")
    n, t = te.shape
    if t < 2:
        raise ValidationError("at least two time points required")
    if n < 2:
        raise ValidationError("at least two spatial units required")
    for name, values in (("spatial", spatial), ("covariates", covariates)):
        if np.ndim(values) != 3 or np.shape(values)[:2] != (n, t):
            raise ValidationError(
                f"{name} must have shape (N={n}, T={t}, *), got {np.shape(values)}"
            )
    q = np.shape(spatial)[2]
    design = np.concatenate([spatial, covariates], axis=2, dtype=float)

    estimates = np.empty(t)
    draws = np.empty((t, config.n_boot_k))
    for s in range(t):
        try:
            coef = fit_spatial_slice(te[:, s], design[:, s, :q], design[:, s, q:])
        except (ValidationError, EstimationError) as err:
            raise BootstrapError(f"spatial fit failed for period {s}: {err}") from err
        estimates[s] = coef[0]
        rng = substream(config.seed, "spatial-case", s)
        draws[s] = _case_resample_slopes(te_to_logit(te[:, s]), design[:, s], config.n_boot_k, rng)

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
