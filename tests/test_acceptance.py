"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

The Monte Carlo cells are shared across criteria through a lazy cache, so the
whole gate costs one pass over the pinned grid (minutes, not hours). Criteria
1-3 exercise the temporal homogeneity test at its pinned operating point; see
the decisions ledger for the measured analysis of that test's behavior.

Guard 10 is not a criterion: it checks the temporal test's power at T=60,
where the test has power, so that a change which loses it fails here even
though the gate's T=12 rates all sit near alpha (ledger D21).
"""

import math

import numpy as np
import pytest
from scipy.special import expit

import stfrontier.assumption_tests as ht
from stfrontier import (
    EstimationError,
    GridSpec,
    PanelDataset,
    Scenario,
    StfrontierError,
    ValidationError,
    ar_fit,
    default_power_params,
    estimate_model,
    fit_frontier_gls,
    fit_spatial_slice,
    run_grid,
    run_power_cell,
    simulate_panel,
    te_to_logit,
)
from stfrontier.io import read_panel_csv
from stfrontier.rng import derive_seed

MASTER_SEED = 20240931
N_REPS = 200
BOOT_K = 500
ALPHA = 0.05

_cells: dict = {}


def _report(num: int, ok: bool, detail: str, label: str = "ACCEPTANCE") -> None:
    print(f"{label} {num:02d} {'PASS' if ok else 'FAIL'}: {detail}")


def cell_rate(kind: str, fraction: float, shift: float) -> float:
    key = (kind, fraction, shift)
    if key not in _cells:
        scenario = Scenario(
            n_units=50,
            n_periods=12,
            dominance="equal",
            contamination_fraction=fraction,
            temporal_shift_r=shift if kind == "temporal" else 0.0,
            spatial_shift_g=shift if kind == "spatial" else 0.0,
            base_params=default_power_params(),
            seed=0,
        )
        _cells[key] = run_power_cell(
            scenario, kind, N_REPS, MASTER_SEED, boot_k=BOOT_K, alpha=ALPHA
        )
    return _cells[key].rejection_rate


def _monotone(rates: list[float], n: int) -> bool:
    for prev, nxt in zip(rates, rates[1:]):
        se = math.sqrt(
            max(prev * (1 - prev), 1 / n) / n + max(nxt * (1 - nxt), 1 / n) / n
        )
        if nxt - prev < -2 * se:
            return False
    return True


def test_criterion_1_temporal_size():
    rate = cell_rate("temporal", 0.0, 0.0)
    ok = 0.02 <= rate <= 0.09
    _report(1, ok, f"temporal size at (n=50, T=12, equal) = {rate:.3f}, window [0.02, 0.09]")
    assert ok, (
        f"temporal size {rate:.3f} outside [0.02, 0.09]: the simultaneous max-t "
        "intervals from the null-imposing sieve should hold the size near alpha "
        "(see decisions ledger)"
    )


def test_criterion_2_temporal_power_shift_one():
    rate = cell_rate("temporal", 0.1, 1.0)
    ok = rate >= 0.85
    _report(2, ok, f"temporal power at r=1.0, 10% units = {rate:.3f}, need >= 0.85")
    assert ok, (
        f"temporal power {rate:.3f} < 0.85 at r=1.0: with the contaminated "
        "rho*(1+r) constrained inside (-1, 1), the per-unit shift is below the "
        "T=12 estimation noise (see decisions ledger)"
    )


def test_criterion_3_temporal_power_shift_one_and_half():
    rate = cell_rate("temporal", 0.1, 1.5)
    ok = rate >= 0.95
    _report(3, ok, f"temporal power at r=1.5, 10% units = {rate:.3f}, need >= 0.95")
    assert ok, (
        f"temporal power {rate:.3f} < 0.95 at r=1.5 (see decisions ledger)"
    )


def test_criterion_4_spatial_size():
    rate = cell_rate("spatial", 0.0, 0.0)
    ok = 0.02 <= rate <= 0.09
    _report(4, ok, f"spatial size at (n=50, T=12, equal) = {rate:.3f}, window [0.02, 0.09]")
    assert ok, f"spatial size {rate:.3f} outside [0.02, 0.09]"


def test_criterion_5_spatial_power():
    rate = cell_rate("spatial", 0.1, 1.0)
    ok = rate >= 0.80
    _report(5, ok, f"spatial power at g=1.0, 10% periods = {rate:.3f}, need >= 0.80")
    assert ok, f"spatial power {rate:.3f} < 0.80"


def test_criterion_6_power_ordering():
    shifts = (0.3, 1.0, 1.5)
    problems = []
    for kind in ("temporal", "spatial"):
        for fraction in (0.1, 0.2):
            rates = [cell_rate(kind, fraction, s) for s in shifts]
            if not _monotone(rates, N_REPS):
                problems.append(f"{kind} fraction={fraction}: {rates}")
        for shift in shifts:
            pair = [cell_rate(kind, 0.1, shift), cell_rate(kind, 0.2, shift)]
            if not _monotone(pair, N_REPS):
                problems.append(f"{kind} shift={shift}: {pair}")
    ok = not problems
    _report(6, ok, "power nondecreasing in shift and contamination (2 binomial SE)"
            + ("" if ok else f" violations: {problems}"))
    assert ok, problems


def test_criterion_7_estimator_recovery():
    beta_errs, rho_errs, cors = [], [], []
    for s in range(50):
        panel, params, true_u, _ = simulate_panel(
            Scenario(n_units=200, n_periods=60, seed=derive_seed(MASTER_SEED, "recovery", s))
        )
        result = estimate_model(panel)
        beta_errs.append(
            [abs(b - bt) for b, bt in zip(result.frontier.beta_hat, params.beta)]
        )
        rho_errs.append(abs(result.frontier.rho_hat - params.rho))
        cors.append(np.corrcoef(result.te.ravel(), np.exp(-true_u).ravel())[0, 1])
    med_beta = np.median(np.asarray(beta_errs), axis=0)
    med_rho = float(np.median(rho_errs))
    med_cor = float(np.median(cors))
    ok = bool(np.all(med_beta < 0.05) and med_rho < 0.1 and med_cor >= 0.5)
    _report(
        7,
        ok,
        f"recovery medians over 50 seeds: beta errs {np.round(med_beta, 4).tolist()} "
        f"(< 0.05), |rho err| {med_rho:.4f} (< 0.1), TE corr {med_cor:.3f} (>= 0.5)",
    )
    assert ok


def test_criterion_8_structural_invariants():
    failures = []

    # all TE strictly inside (exp(-1), 1)
    panel, *_ = simulate_panel(Scenario(n_units=30, n_periods=12, seed=1))
    te = estimate_model(panel).te
    if not (np.all(te > math.exp(-1)) and np.all(te < 1)):
        failures.append("TE range")

    # exact inverse transform to 1e-10
    eta = np.linspace(-10, 10, 2001)
    if np.max(np.abs(te_to_logit(np.exp(-expit(eta))) - eta)) > 1e-10:
        failures.append("te_to_logit round trip")

    # GLS with rho pinned at zero reproduces pooled OLS to 1e-10
    fit = fit_frontier_gls(panel, rho_fixed=0.0)
    design = np.concatenate(
        [np.ones((panel.n_units, panel.n_periods, 1)), panel.log_inputs], axis=2
    ).reshape(-1, panel.n_inputs + 1)
    ols = np.linalg.lstsq(design, panel.log_output.ravel(), rcond=None)[0]
    if np.max(np.abs(np.asarray([fit.beta0_hat, *fit.beta_hat]) - ols)) > 1e-10:
        failures.append("GLS vs OLS at rho=0")

    # identical outputs for identical seeds under different worker counts
    grid = GridSpec(
        test_kinds=("spatial",),
        n_values=(8,),
        t_values=(9,),
        dominances=("equal",),
        fractions=(0.2,),
        shifts=(1.5,),
        base_params=default_power_params(),
        boot_k=100,
        alpha=0.1,
    )
    serial = run_grid(grid, 2, master_seed=17, n_workers=1)
    pooled = run_grid(grid, 2, master_seed=17, n_workers=4)
    if serial.csv_rows() != pooled.csv_rows():
        failures.append("worker-count determinism")

    ok = not failures
    _report(8, ok, "structural invariants (TE range, inverse transform, GLS=OLS, "
            "worker-count determinism)" + ("" if ok else f" failing: {failures}"))
    assert ok, failures


def test_criterion_9_degenerate_inputs(tmp_path):
    checks = []

    with pytest.raises(EstimationError, match="zero-variance series"):
        ar_fit(np.full(20, 2.0))
    checks.append("zero-variance series")

    rng = np.random.default_rng(0)
    with pytest.raises(ValidationError, match="at least two spatial units required"):
        PanelDataset(
            log_output=rng.normal(size=(1, 5)),
            log_inputs=rng.normal(size=(1, 5, 1)),
            spatial=rng.normal(size=(1, 5, 1)),
            covariates=rng.normal(size=(1, 5, 1)),
        )
    checks.append("N=1 panel")

    with pytest.raises(ValidationError, match="at least two time points"):
        ht.test_constant_spatial(
            np.full((6, 1), 0.8), rng.normal(size=(6, 1, 1)), ht.TestConfig(seed=1),
            np.ones((6, 1, 1)),
        )
    checks.append("T=1 spatial test")

    bad_csv = tmp_path / "bad.csv"
    bad_csv.write_text("unit,period,y,x1,w1,z1\na,1,-2.0,1.0,0.1,0.2\n")
    with pytest.raises(StfrontierError, match="output must be positive"):
        read_panel_csv(str(bad_csv))
    checks.append("y <= 0 ingestion")

    x = rng.normal(size=(5, 6, 1))
    collinear = PanelDataset(
        log_output=rng.normal(size=(5, 6)),
        log_inputs=np.concatenate([x, x], axis=2),
        spatial=rng.normal(size=(5, 6, 1)),
        covariates=rng.normal(size=(5, 6, 1)),
    )
    with pytest.raises(EstimationError, match="rank deficient"):
        fit_frontier_gls(collinear)
    checks.append("rank-deficient frontier design")

    with pytest.raises(EstimationError, match="rank deficient"):
        fit_spatial_slice(np.full(8, 0.8), np.zeros((8, 1)), np.ones((8, 1)))
    checks.append("rank-deficient spatial slice")

    with pytest.raises(EstimationError, match="near-singular lag matrix"):
        ar_fit(np.r_[np.full(15, 1.0), 2.0])  # every lagged value is 1.0
    checks.append("collinear AR lags")

    _report(9, True, f"degenerate inputs raise named errors ({len(checks)} cases)")


def test_guard_10_temporal_power_at_t60():
    # seed and bound fixed before the first run: 0.85 sits about 4.5 binomial
    # SE below the 0.94-0.96 measured at this point on another seed
    scenario = Scenario(
        n_units=50,
        n_periods=60,
        dominance="equal",
        contamination_fraction=0.1,
        temporal_shift_r=1.5,
        base_params=default_power_params(),
        seed=0,
    )
    cell = run_power_cell(scenario, "temporal", 120, 2104135, boot_k=BOOT_K, alpha=ALPHA)
    rate = cell.rejection_rate
    ok = rate >= 0.85
    _report(10, ok, f"temporal power at (n=50, T=60, equal), r=1.5, 10% units = {rate:.3f}, "
            "need >= 0.85", label="GUARD")
    assert ok, f"temporal power {rate:.3f} < 0.85 at T=60, r=1.5"
