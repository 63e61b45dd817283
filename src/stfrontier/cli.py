"""Command-line front end.

Exit codes: 0 success (or test fails to reject), 3 test rejected the null,
1 usage or data error, 2 numerical failure. Every run prints a one-line
summary with the effective seed; re-running the same line reproduces the
outputs byte for byte.
"""

from __future__ import annotations

import argparse
import secrets
import sys
from dataclasses import replace

import numpy as np

from . import __version__, io
from .assumption_tests import (
    SERIES_SOURCES,
    TestConfig,
    test_constant_spatial,
    test_constant_temporal,
)
from .errors import BootstrapError, DataError, EstimationError, StfrontierError, ValidationError
from .estimation import estimate_model
from .power import run_grid
from .rng import MAX_SEED, check_seed
from .simulate import simulate_panel

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERICAL = 2
EXIT_REJECT = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stfrontier",
        description="Spatial-temporal stochastic frontier toolkit",
    )
    parser.add_argument("--version", action="version", version=f"stfrontier {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="generate a synthetic panel from a scenario")
    sim.add_argument("--scenario", required=True, help="scenario JSON path")
    sim.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    sim.add_argument("--out", required=True, help="output panel CSV path")

    est = sub.add_parser("estimate", help="fit the frontier model to a panel CSV")
    est.add_argument("--panel", required=True)
    est.add_argument("--out", required=True, help="JSON report path")
    est.add_argument("--te-out", default=None, help="optional TE CSV path")

    for kind in ("temporal", "spatial"):
        tst = sub.add_parser(
            f"test-{kind}",
            help=f"bootstrap test of constant {kind} effect (exit 3 on rejection)",
        )
        tst.add_argument("--panel", required=True)
        if kind == "spatial":
            tst.add_argument(
                "--te", default=None, help="TE CSV; when omitted, estimation runs first"
            )
        tst.add_argument("--boot-k", type=int, default=500)
        tst.add_argument("--alpha", type=float, default=0.05)
        tst.add_argument("--ar-order", type=int, default=1)
        tst.add_argument(
            "--series-source",
            choices=[s.replace("_", "-") for s in SERIES_SOURCES],
            default="frontier-residuals",
        )
        tst.add_argument("--seed", type=int, default=None)
        tst.add_argument("--out", required=True, help="JSON report path")

    pow_ = sub.add_parser("power", help="run a Monte Carlo size/power grid")
    pow_.add_argument("--grid", required=True, help="grid JSON path")
    pow_.add_argument("--reps", type=int, default=200)
    pow_.add_argument("--seed", type=int, default=None)
    pow_.add_argument("--out", required=True, help="output CSV path")
    pow_.add_argument("--summary", action="store_true", help="print a layout summary")
    return parser


def _effective_seed(given: int | None) -> int:
    return secrets.randbelow(MAX_SEED + 1) if given is None else check_seed(given)


def _meta(args_line: str, seed: int) -> dict:
    return {"command": args_line, "seed": seed}


def _cmd_simulate(args, argv) -> int:
    scenario = io.read_scenario_json(args.scenario)
    seed = args.seed if args.seed is not None else scenario.seed
    scenario = replace(scenario, seed=_effective_seed(seed))
    panel, _, _, _ = simulate_panel(scenario)
    io.write_panel_csv(panel, args.out, _meta(" ".join(argv), scenario.seed))
    print(
        f"simulate: wrote {panel.n_units * panel.n_periods} rows "
        f"({panel.n_units} units x {panel.n_periods} periods) to {args.out} "
        f"[seed={scenario.seed}]"
    )
    return EXIT_OK


def _cmd_estimate(args, argv) -> int:
    panel = io.read_panel_csv(args.panel)
    result = estimate_model(panel)
    meta = _meta(" ".join(argv), 0)
    io.write_json(io.estimation_report_dict(result, meta), args.out)
    if args.te_out:
        io.write_te_csv(result.te, panel.unit_ids, panel.period_ids, args.te_out, meta)
    flag = " (clamp share flagged)" if result.clamp_flagged else ""
    print(
        f"estimate: rho_hat={result.frontier.rho_hat:.4f} "
        f"gamma_hat={[round(g, 4) for g in result.gamma_hat]} "
        f"converged={result.frontier.converged}{flag} -> {args.out}"
    )
    return EXIT_OK


def _label_positions(found: tuple, wanted: tuple, what: str) -> list[int]:
    """Position in ``found`` of each label in ``wanted``; the two must hold
    the same labels."""
    position = {label: i for i, label in enumerate(found)}
    for label in wanted:
        if label not in position:
            raise DataError(f"TE CSV lacks the panel's {what} {label!r}")
    if len(found) != len(wanted):
        known = set(wanted)
        extra = next(label for label in found if label not in known)
        raise DataError(f"TE CSV has {what} {extra!r}, which the panel lacks")
    return [position[label] for label in wanted]


def _te_for_panel(path: str, panel) -> np.ndarray:
    """The TE CSV's matrix, rows and columns in the panel's unit and period order."""
    te, units, periods = io.read_te_csv(path)
    rows = _label_positions(units, panel.unit_ids, "unit")
    cols = _label_positions(periods, panel.period_ids, "period")
    return te[np.ix_(rows, cols)]


def _cmd_test(kind: str, args, argv) -> int:
    panel = io.read_panel_csv(args.panel)
    seed = _effective_seed(args.seed)
    config = TestConfig(
        ar_order_p=args.ar_order,
        n_boot_k=args.boot_k,
        alpha=args.alpha,
        series_source=args.series_source.replace("-", "_"),
        seed=seed,
    )
    if kind == "temporal":
        report = test_constant_temporal(panel, config)
    else:
        if args.te:
            te = _te_for_panel(args.te, panel)
        else:
            te = estimate_model(panel).te
        report = test_constant_spatial(
            te, panel.spatial, config, covariates=panel.covariates
        )
    io.write_json(io.test_report_dict(report, _meta(" ".join(argv), seed)), args.out)
    verdict = "reject" if report.reject else "fail-to-reject"
    print(
        f"test-{kind}: {verdict} (n_failing={report.n_failing}, "
        f"reference={report.reference_value:.4f}) -> {args.out} [seed={seed}]"
    )
    return EXIT_REJECT if report.reject else EXIT_OK


def _cmd_power(args, argv) -> int:
    grid = io.read_grid_json(args.grid)
    seed = _effective_seed(args.seed)
    table = run_grid(grid, args.reps, seed)
    io.write_power_csv(table, args.out, _meta(" ".join(argv), seed))
    if args.summary:
        print(table.summary_text())
    print(f"power: {len(table.cells)} cells x {args.reps} reps -> {args.out} [seed={seed}]")
    return EXIT_OK


def parse_and_dispatch(argv: list[str]) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        return EXIT_OK if err.code in (0, None) else EXIT_USAGE
    try:
        if args.command == "simulate":
            return _cmd_simulate(args, argv)
        if args.command == "estimate":
            return _cmd_estimate(args, argv)
        if args.command == "test-temporal":
            return _cmd_test("temporal", args, argv)
        if args.command == "test-spatial":
            return _cmd_test("spatial", args, argv)
        if args.command == "power":
            return _cmd_power(args, argv)
        print(f"error: unknown command {args.command!r}", file=sys.stderr)
        return EXIT_USAGE
    except (DataError, ValidationError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except (EstimationError, BootstrapError, np.linalg.LinAlgError) as err:
        print(f"numerical error: {err}", file=sys.stderr)
        return EXIT_NUMERICAL
    except StfrontierError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE


def main() -> None:
    sys.exit(parse_and_dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
