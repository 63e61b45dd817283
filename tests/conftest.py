import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from stfrontier import assumption_tests


@pytest.fixture
def innovations_are_log_output(monkeypatch):
    """Make the temporal test run on each panel's ln y: the frontier fit it
    takes its series from returns ln y as the innovations, so a test can
    plant the series it needs (a flat unit, a near-unit-root unit)."""
    monkeypatch.setattr(
        assumption_tests,
        "fit_frontier_gls",
        lambda panel: SimpleNamespace(innovations=np.asarray(panel.log_output)),
    )


@pytest.hookimpl(hookwrapper=True, tryfirst=True)
def pytest_runtest_makereport(item, call):
    """Import the module hypothesis prints a failing example with before its
    own report hook does: that import pulls in libcst, whose import warns,
    and the "error" warning filter would turn a failing property test into
    an internal error that ends the whole run."""
    if getattr(item, "_hypothesis_failing_examples", None):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)
            import hypothesis.extra._patching  # noqa: F401
    yield
