"""Spatial-temporal stochastic frontier toolkit.

Simulation of frontier panels with AR(1) noise and logistic inefficiency,
a hybrid backfitting estimator, bootstrap tests of the temporal and spatial
homogeneity assumptions, and a Monte Carlo size/power harness.
"""

__version__ = "0.1.0"

from .errors import (
    BootstrapError,
    DataError,
    EstimationError,
    StfrontierError,
    ValidationError,
)
from .frontier import (
    TE_LOWER,
    cobb_douglas_log,
    inefficiency_mean,
    te_to_logit,
    technical_efficiency,
)
from .types import DOMINANCE_SHARES, ModelParams, PanelDataset, Scenario, default_params
from .simulate import simulate_panel
from .estimation import (
    EstimationResult,
    FrontierFit,
    estimate_model,
    fit_efficiency_glm,
    fit_frontier_gls,
    predict_te,
)
from .assumption_tests import (
    ARFit,
    TestConfig,
    TestReport,
    ar_fit,
    fit_spatial_slice,
    sieve_bootstrap_series,
    test_constant_spatial,
    test_constant_temporal,
)
from .power import (
    GridSpec,
    PowerCell,
    PowerTable,
    default_power_params,
    run_grid,
    run_power_cell,
)

__all__ = [
    "ARFit",
    "BootstrapError",
    "DOMINANCE_SHARES",
    "DataError",
    "EstimationError",
    "EstimationResult",
    "FrontierFit",
    "GridSpec",
    "ModelParams",
    "PanelDataset",
    "PowerCell",
    "PowerTable",
    "Scenario",
    "StfrontierError",
    "TE_LOWER",
    "TestConfig",
    "TestReport",
    "ValidationError",
    "ar_fit",
    "cobb_douglas_log",
    "default_params",
    "default_power_params",
    "estimate_model",
    "fit_efficiency_glm",
    "fit_frontier_gls",
    "fit_spatial_slice",
    "inefficiency_mean",
    "predict_te",
    "run_grid",
    "run_power_cell",
    "sieve_bootstrap_series",
    "simulate_panel",
    "te_to_logit",
    "technical_efficiency",
    "test_constant_spatial",
    "test_constant_temporal",
]
