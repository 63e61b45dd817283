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
