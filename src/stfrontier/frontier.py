"""Frontier and efficiency transforms.

cobb_douglas_log     log frontier value, linear in log inputs
inefficiency_mean    logistic map from spatial measures and covariates to (0,1)
technical_efficiency exp(-u) for an inefficiency u in (0,1)
te_to_logit          exact inverse of the composed map, back to the linear scale
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import expit

from .errors import ValidationError

#: Lower bound of the technical-efficiency range exp(-1).
TE_LOWER = math.exp(-1.0)


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
    if np.any(u <= 0.0) or np.any(u >= 1.0):
        bad = u[(u <= 0.0) | (u >= 1.0)].flat[0]
        raise ValidationError(
            f"inefficiency prediction {bad!r} outside (0, 1); clamp before scoring"
        )
    return _scalar_or_array(np.exp(-u))


def te_to_logit(te):
    """Invert TE back to the linear predictor: logit(-ln te) for te in (exp(-1), 1)."""
    t = np.asarray(te, dtype=float)
    if np.any(t <= TE_LOWER) or np.any(t >= 1.0):
        bad = t[(t <= TE_LOWER) | (t >= 1.0)].flat[0]
        raise ValidationError(
            f"technical efficiency {bad!r} outside (exp(-1), 1); cannot invert"
        )
    u = -np.log(t)
    return _scalar_or_array(np.log(u) - np.log1p(-u))
