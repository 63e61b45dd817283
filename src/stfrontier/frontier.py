"""Frontier and efficiency transforms.

cobb_douglas_log     log frontier value, linear in log inputs
inefficiency_mean    logistic map from spatial measures and covariates to (0,1)
technical_efficiency exp(-u) for an inefficiency u in (0,1)
te_to_logit          exact inverse of the composed map, back to the linear scale

expit and logit are the package's logistic pair, imported by simulate and
estimation. They give the bits of scipy.special.expit and scipy.special.logit
without importing scipy (about half of the package's import time): both
evaluate scipy's formulas, with the same C-library exp, log and log1p on the
same double operands, through elementwise(). numpy's own exp and log are not
used because their SIMD loops differ from the C library in the last bit for
some arguments, which would change the written panels.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from .errors import ValidationError

#: Lower bound of the technical-efficiency range exp(-1).
TE_LOWER = math.exp(-1.0)

#: log(DBL_MAX): math.exp raises OverflowError above it, where C returns inf.
_EXP_MAX = math.log(sys.float_info.max)


def elementwise(func, values) -> np.ndarray:
    """``func`` (a math-module function) applied to each element of a float
    array, so the result has the C library's bits; the shape is kept. The
    memoryview yields the doubles as floats without a temporary list."""
    x = np.asarray(values, dtype=float)
    return np.fromiter(map(func, memoryview(x.ravel())), float, x.size).reshape(x.shape)


def expit(x) -> np.ndarray:
    """Logistic 1/(1+exp(-x)), bit for bit as scipy.special.expit."""
    neg = -np.asarray(x, dtype=float)
    return 1.0 / (1.0 + elementwise(math.exp, np.where(neg > _EXP_MAX, np.inf, neg)))


def _log(x: np.ndarray) -> np.ndarray:
    """C log of each element: -inf at zero and nan below it, where math.log raises."""
    out = np.where(x == 0.0, -np.inf, np.nan)
    positive = x > 0.0
    out[positive] = elementwise(math.log, x[positive])
    return out


def logit(p) -> np.ndarray:
    """Log-odds log(p/(1-p)), bit for bit as scipy.special.logit.

    scipy's two branches: log(p/(1-p)) below 0.3 and above 0.65; elsewhere,
    nan included, log1p(s) - log1p(-s) with s = 2(p-0.5), which keeps
    precision near p = 0.5.
    """
    p = np.asarray(p, dtype=float)
    out = np.empty_like(p)
    outer = (p < 0.3) | (p > 0.65)
    q = p[outer]
    with np.errstate(divide="ignore", invalid="ignore"):
        out[outer] = _log(q / (1.0 - q))
    inner = ~outer
    s = 2.0 * (p[inner] - 0.5)
    out[inner] = elementwise(math.log1p, s) - elementwise(math.log1p, -s)
    return out


def _scalar_or_array(values: np.ndarray):
    return float(values) if values.ndim == 0 else values


def cobb_douglas_log(log_inputs, beta0: float, beta):
    """Log frontier output beta0 + sum_k beta_k * ln x_k over the last axis of
    ``log_inputs``; leading axes are kept, and one row gives a float."""
    x = np.asarray(log_inputs, dtype=float)
    b = np.asarray(beta, dtype=float)
    if x.shape[-1:] != b.shape:
        raise ValidationError(
            f"log-input dimension mismatch: expected P={b.shape} elasticities, "
            f"got inputs of shape {x.shape}"
        )
    if not (np.isfinite(x).all() and np.isfinite(b).all() and np.isfinite(beta0)):
        raise ValidationError("cobb_douglas_log requires finite inputs")
    return _scalar_or_array(beta0 + x @ b)


def inefficiency_mean(w, z, gamma, phi):
    """Deterministic inefficiency logistic(w.gamma + z.phi), strictly in (0,1),
    over the last axes of ``w`` and ``z``; leading axes are kept."""
    w = np.asarray(w, dtype=float)
    z = np.asarray(z, dtype=float)
    g = np.asarray(gamma, dtype=float)
    p = np.asarray(phi, dtype=float)
    if w.shape[-1:] != g.shape:
        raise ValidationError(
            f"spatial dimension mismatch: expected Q={g.shape}, got {w.shape}"
        )
    if z.shape[-1:] != p.shape:
        raise ValidationError(
            f"covariate dimension mismatch: expected R={p.shape}, got {z.shape}"
        )
    for arr, name in ((w, "w"), (z, "z"), (g, "gamma"), (p, "phi")):
        if not np.isfinite(arr).all():
            raise ValidationError(f"{name} must be finite")
    return _scalar_or_array(expit(w @ g + z @ p))


def technical_efficiency(u_pred):
    """TE = exp(-u) for predicted inefficiency u in (0,1); range (exp(-1), 1)."""
    u = np.asarray(u_pred, dtype=float)
    if not (np.all(u > 0.0) and np.all(u < 1.0)):  # nan fails both
        bad = u[~((u > 0.0) & (u < 1.0))][0]
        raise ValidationError(
            f"inefficiency prediction {float(bad)!r} outside (0, 1); clamp before scoring"
        )
    return _scalar_or_array(np.exp(-u))


def te_to_logit(te):
    """Invert TE back to the linear predictor: logit(-ln te) for te in (exp(-1), 1)."""
    t = np.asarray(te, dtype=float)
    if not (np.all(t > TE_LOWER) and np.all(t < 1.0)):  # nan fails both
        bad = t[~((t > TE_LOWER) & (t < 1.0))][0]
        raise ValidationError(
            f"technical efficiency {float(bad)!r} outside (exp(-1), 1); cannot invert"
        )
    u = -np.log(t)
    return _scalar_or_array(np.log(u) - np.log1p(-u))
