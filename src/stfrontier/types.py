"""Core domain types: balanced panels, generative parameters, simulation scenarios."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError
from .rng import check_seed

#: Variance shares (w-term, z-term) of the inefficiency linear predictor.
DOMINANCE_SHARES = {
    "equal": (0.5, 0.5),
    "spatial": (0.8, 0.2),
    "covariate": (0.2, 0.8),
}


def _as_float_tuple(values, name: str) -> tuple[float, ...]:
    try:
        out = tuple(float(v) for v in np.atleast_1d(values))
    except (TypeError, ValueError) as err:
        raise ValidationError(f"{name} must be a sequence of reals: {err}") from err
    if not out:
        raise ValidationError(f"{name} must be non-empty")
    if not all(map(math.isfinite, out)):
        raise ValidationError(f"{name} must be finite, got {out}")
    return out


def as_count(value, name: str, least: int | None = None) -> int:
    """``value`` as an int; a float with a fraction, a bool or a non-number is a
    ValidationError that names the field, where int() would truncate or raise,
    and so is a count below ``least``, when given."""
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        count = int(value)
    elif isinstance(value, (float, np.floating)) and float(value).is_integer():
        count = int(value)
    else:
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    if least is not None and count < least:
        raise ValidationError(f"{name} must be >= {least}, got {count}")
    return count


@dataclass(frozen=True)
class ModelParams:
    """Generative parameters of the frontier panel model.

    beta0/beta parameterize the log frontier, rho the AR(1) noise, gamma/phi
    the logistic inefficiency predictor, sigma_psi/sigma_eps the noise scales.
    """

    beta0: float = 0.5
    beta: tuple[float, ...] = (0.3, 0.2)
    rho: float = 0.5
    gamma: tuple[float, ...] = (1.0,)
    phi: tuple[float, ...] = (1.0,)
    sigma_psi: float = 0.1
    sigma_eps: float = 0.05

    def __post_init__(self):
        for name in ("beta", "gamma", "phi"):
            object.__setattr__(self, name, _as_float_tuple(getattr(self, name), name))
        for name in ("beta0", "rho", "sigma_psi", "sigma_eps"):
            val = float(getattr(self, name))
            object.__setattr__(self, name, val)
            if not math.isfinite(val):
                raise ValidationError(f"{name} must be finite, got {val}")
        if abs(self.rho) >= 1:
            raise ValidationError(f"rho must lie in (-1, 1) for stationarity, got {self.rho}")
        # sigma_psi == 0 is allowed so noise-free panels stay constructible.
        if self.sigma_psi < 0:
            raise ValidationError(f"sigma_psi must be nonnegative, got {self.sigma_psi}")
        if self.sigma_eps < 0:
            raise ValidationError(f"sigma_eps must be nonnegative, got {self.sigma_eps}")

    @property
    def n_inputs(self) -> int:
        return len(self.beta)

    @property
    def n_spatial(self) -> int:
        return len(self.gamma)

    @property
    def n_covariates(self) -> int:
        return len(self.phi)


def default_params() -> ModelParams:
    """Default generative values; gamma/phi carry direction only (see simulate)."""
    return ModelParams()


def _readonly(arr: np.ndarray) -> np.ndarray:
    arr = np.ascontiguousarray(arr, dtype=float)
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class PanelDataset:
    """Balanced N x T panel: log output, log inputs, spatial measures, covariates.

    Arrays are validated for consistent shape and finiteness and frozen after
    construction, so instances are safe to share across threads. No two unit
    labels, and no two period labels, may have the same str() text.
    """

    log_output: np.ndarray  # (N, T)
    log_inputs: np.ndarray  # (N, T, P)
    spatial: np.ndarray  # (N, T, Q)
    covariates: np.ndarray  # (N, T, R)
    unit_ids: tuple = None
    period_ids: tuple = None

    def __post_init__(self):
        log_output = np.asarray(self.log_output, dtype=float)
        if log_output.ndim != 2:
            raise ValidationError(f"log_output must be 2-d (N, T), got shape {log_output.shape}")
        n, t = log_output.shape
        if n < 2:
            raise ValidationError(f"at least two spatial units required (N >= 2), got N={n}")
        if t < 3:
            raise ValidationError(f"at least three time points required (T >= 3), got T={t}")
        object.__setattr__(self, "log_output", _readonly(log_output))
        for name in ("log_inputs", "spatial", "covariates"):
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.ndim != 3 or arr.shape[:2] != (n, t):
                raise ValidationError(
                    f"{name} must have shape (N={n}, T={t}, *), got {arr.shape}"
                )
            object.__setattr__(self, name, _readonly(arr))
        for name in ("log_output", "log_inputs", "spatial", "covariates"):
            if not np.isfinite(getattr(self, name)).all():
                raise ValidationError(f"{name} contains non-finite entries")
        unit_ids = self.unit_ids if self.unit_ids is not None else tuple(range(n))
        period_ids = self.period_ids if self.period_ids is not None else tuple(range(t))
        if len(unit_ids) != n:
            raise ValidationError(f"unit_ids has {len(unit_ids)} labels for N={n} units")
        if len(period_ids) != t:
            raise ValidationError(f"period_ids has {len(period_ids)} labels for T={t} periods")
        # two labels are one when their text is: the CSV files key rows by it
        for kind, labels in (("unit", unit_ids), ("period", period_ids)):
            seen = set()
            for text in map(str, labels):
                if text in seen:
                    raise ValidationError(f"{kind} label {text!r} repeats")
                seen.add(text)
        object.__setattr__(self, "unit_ids", tuple(unit_ids))
        object.__setattr__(self, "period_ids", tuple(period_ids))

    @property
    def n_units(self) -> int:
        return self.log_output.shape[0]

    @property
    def n_periods(self) -> int:
        return self.log_output.shape[1]

    @property
    def n_inputs(self) -> int:
        return self.log_inputs.shape[2]

    @property
    def n_spatial(self) -> int:
        return self.spatial.shape[2]

    @property
    def n_covariates(self) -> int:
        return self.covariates.shape[2]


@dataclass(frozen=True)
class Scenario:
    """One simulation setting: panel size, dominance mix, contamination, seed.

    contamination_fraction = 0 encodes the null (no heterogeneity). Under the
    temporal alternative a ceil(fraction*N) subset of units gets rho*(1+r);
    under the spatial alternative a ceil(fraction*T) subset of periods gets
    gamma*(1+g).
    """

    n_units: int
    n_periods: int
    dominance: str = "equal"
    contamination_fraction: float = 0.0
    temporal_shift_r: float = 0.0
    spatial_shift_g: float = 0.0
    base_params: ModelParams = field(default_factory=default_params)
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "n_units", as_count(self.n_units, "n_units"))
        object.__setattr__(self, "n_periods", as_count(self.n_periods, "n_periods"))
        if self.n_units < 2:
            raise ValidationError(f"at least two spatial units required, got N={self.n_units}")
        if self.n_periods < 3:
            raise ValidationError(f"at least three time points required, got T={self.n_periods}")
        if self.dominance not in DOMINANCE_SHARES:
            raise ValidationError(
                f"dominance must be one of {sorted(DOMINANCE_SHARES)}, got {self.dominance!r}"
            )
        frac = float(self.contamination_fraction)
        if not (frac == 0.0 or 0.05 <= frac <= 0.5):
            raise ValidationError(
                "contamination_fraction must be 0 (null) or in [0.05, 0.5], "
                f"got {frac}"
            )
        object.__setattr__(self, "contamination_fraction", frac)
        for name in ("temporal_shift_r", "spatial_shift_g"):
            val = float(getattr(self, name))
            if not np.isfinite(val):
                raise ValidationError(f"{name} must be finite, got {val}")
            object.__setattr__(self, name, val)
        if not isinstance(self.base_params, ModelParams):
            raise ValidationError("base_params must be a ModelParams instance")
        object.__setattr__(self, "seed", check_seed(self.seed))
        if frac > 0 and self.temporal_shift_r != 0:
            rho_alt = self.base_params.rho * (1.0 + self.temporal_shift_r)
            if abs(rho_alt) >= 1:
                raise ValidationError(
                    f"contaminated rho = rho*(1+r) = {rho_alt:.6g} falls outside (-1, 1); "
                    "shrink temporal_shift_r or the base rho"
                )

    @property
    def n_contaminated_units(self) -> int:
        if self.contamination_fraction == 0 or self.temporal_shift_r == 0:
            return 0
        return int(np.ceil(self.contamination_fraction * self.n_units))

    @property
    def n_contaminated_periods(self) -> int:
        if self.contamination_fraction == 0 or self.spatial_shift_g == 0:
            return 0
        return int(np.ceil(self.contamination_fraction * self.n_periods))
