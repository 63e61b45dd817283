"""The benchmark's workloads.

Each workload makes every input from the workload seed, runs one op at a
time through stfrontier's public entry points (``power.run_grid``,
``power.run_power_cell``, ``cli.parse_and_dispatch``) and checks the
outputs. Why each workload exists is written in README.md.
"""

from __future__ import annotations

import contextlib
import hashlib
import io as _io
import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from stfrontier import cli, estimate_model, io, power, simulate_panel
from stfrontier.errors import StfrontierError
from stfrontier.types import ModelParams, Scenario

#: Boot draws per test call; the acceptance gate's operating point.
BOOT_K = 500

#: Small-panel simulate/estimate pairs timed between the Monte Carlo ops, so
#: that every workload reports the CLI latencies for its own panel shape.
SIDE_PAIRS = 60

#: Serial spatial cells timed between the Monte Carlo ops, so that the traced
#: run covers the spatial test's layers.
SIDE_CELLS = 4


def derive_seed(*labels) -> int:
    """A 63-bit seed from the workload seed and labels (stable across runs)."""
    digest = hashlib.blake2b("/".join(map(str, labels)).encode(), digest_size=8).digest()
    return int.from_bytes(digest, "little") >> 1


@dataclass
class OpResult:
    """One op: its wall time, attempts and failures, what a rerun must
    reproduce exactly, and its work counts (from inputs and public results)."""

    wall_s: float
    attempted: int
    failed: int
    outputs: object
    counts: dict
    phases: dict = field(default_factory=dict)
    errors: list = field(default_factory=list)


def run_cli(argv: list[str]) -> tuple[int, float, str]:
    """One CLI command in-process; returns exit code, wall seconds, its output."""
    captured = _io.StringIO()
    with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
        start = time.perf_counter()
        code = cli.parse_and_dispatch(argv)
        seconds = time.perf_counter() - start
    return code, seconds, captured.getvalue()


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class CliPair:
    """``simulate`` then ``estimate --te-out`` through the CLI on one scenario."""

    def __init__(self, workdir: Path, tag: str, scenario: dict):
        self.n_rows = scenario["n_units"] * scenario["n_periods"]
        self.scenario = workdir / f"{tag}-scenario.json"
        self.panel = workdir / f"{tag}-panel.csv"
        self.report = workdir / f"{tag}-report.json"
        self.te = workdir / f"{tag}-te.csv"
        self.scenario.write_text(json.dumps(scenario))

    def run(self, seed: int) -> OpResult:
        code_sim, sim_s, out_sim = run_cli(
            ["simulate", "--scenario", str(self.scenario), "--seed", str(seed),
             "--out", str(self.panel)])
        errors = [f"simulate seed={seed} exited {code_sim}: {out_sim.strip()}"] if code_sim else []
        code_est, est_s = None, 0.0
        if not code_sim:
            code_est, est_s, out_est = run_cli(
                ["estimate", "--panel", str(self.panel), "--out", str(self.report),
                 "--te-out", str(self.te)])
            if code_est:
                errors.append(f"estimate seed={seed} exited {code_est}: {out_est.strip()}")
        if errors:
            attempted = 1 if code_est is None else 2
            return OpResult(sim_s + est_s, attempted, len(errors), ("error", code_sim, code_est),
                            {}, {"simulate_s": sim_s, "estimate_s": est_s}, errors)
        report = json.loads(self.report.read_text())
        counts = {
            "rows": self.n_rows,
            "panel_bytes": self.panel.stat().st_size,
            "te_bytes": self.te.stat().st_size,
            "gls_iterations": report["iterations"],
            "clamp_count": report["clamp_count"],
        }
        outputs = (_sha256(self.panel), self.report.read_text(), _sha256(self.te))
        return OpResult(sim_s + est_s, 2, 0, outputs, counts,
                        {"simulate_s": sim_s, "estimate_s": est_s, "report": report})


def _compare(label: str, first: OpResult, again: OpResult) -> list[str]:
    failures = []
    if again.outputs != first.outputs:
        failures.append(f"{label}: rerun of the first op's seed changed its outputs")
    if again.counts != first.counts:
        failures.append(f"{label}: work counts differ on rerun: {first.counts} vs {again.counts}")
    return failures


def _run_cells(label: str, seed: int, reps: int, call, work_count) -> OpResult:
    """Time ``call(seed)``, which returns (PowerCells, power-CSV rows)."""
    start = time.perf_counter()
    try:
        cells, rows = call(seed)
    except StfrontierError as err:
        wall = time.perf_counter() - start
        return OpResult(wall, reps, reps, ("error", str(err)), {"failed_reps": reps},
                        errors=[f"{label} seed={seed}: {err}"])
    wall = time.perf_counter() - start
    failed = sum(c.n_failures for c in cells)
    counts = {
        "reps": sum(c.n_reps for c in cells),
        "failed_reps": failed,
        "rejections": sum(c.n_rejections for c in cells),
        **work_count(cells),
    }
    outputs = (rows, tuple((c.n_reps, c.n_rejections, c.n_failures) for c in cells))
    return OpResult(wall, reps, failed, outputs, counts)


class SpatialCell:
    """One serial ``run_power_cell`` of the spatial test on estimated TE.

    The panel is n=200, T=12, ``equal``, fraction 0.1 at g=1.0. Case
    resampling does about 75% of its work, simulate about 18% and
    ``estimate_model`` about 4%; neither the sieve nor the pool runs.
    """

    label = "spatial side cell"
    reps = 16
    scenario = Scenario(n_units=200, n_periods=12, contamination_fraction=0.1,
                        spatial_shift_g=1.0, base_params=power.default_power_params())

    def run(self, seed: int) -> OpResult:
        def call(s):
            cell = power.run_power_cell(self.scenario, "spatial", self.reps, s,
                                        boot_k=BOOT_K, te_source="estimated")
            return (cell,), ()

        return _run_cells(self.label, seed, self.reps, call, self.work_count)

    @staticmethod
    def work_count(cells) -> dict:
        # one case resample per period and boot draw in each successful replication
        return {"resamples": sum((c.n_reps - c.n_failures) * c.scenario.n_periods * BOOT_K
                                 for c in cells)}


class Workload:
    name = ""
    pool_workers = 0

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed

    def op_seed(self, index: int) -> int:
        return derive_seed(self.name, self.seed, "op", index)

    def run_op(self, seed: int) -> OpResult:
        raise NotImplementedError

    def completed_reps(self, op: OpResult) -> int:
        """Replications an op completed: one simulate-then-estimate pair here."""
        return int(not op.errors)

    def side_work(self) -> list[tuple[int, object]]:
        """(seed, runner) items timed between the ops, run as ``runner.run(seed)``."""
        return []

    def check(self, first: OpResult, ops: list[OpResult],
              side: list[tuple[int, object, OpResult]]) -> tuple[list[str], dict]:
        """Rerun the first op's seed; returns (failures, extra per-layer values)."""
        return _compare(self.name, first, self.run_op(self.op_seed(0))), {}


class McTemporal(Workload):
    """``run_grid`` through the 2-worker pool, with side work between the ops.

    The side work is small-panel CLI pairs on the same scenario, which give
    this workload its CLI latencies, and serial spatial cells, which keep the
    spatial test's layers in the traced run. Neither counts toward the ops.
    """

    name = "mc-temporal"
    pool_workers = 2
    reps_per_cell = 8
    scenario = Scenario(n_units=50, n_periods=12, base_params=power.default_power_params())

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        params = power.default_power_params()
        self.grid = power.GridSpec(
            test_kinds=("temporal",), n_values=(50,), t_values=(12,), dominances=("equal",),
            fractions=(0.1,), shifts=(1.0,), base_params=params, boot_k=BOOT_K,
        )
        self.n_cells = len(list(self.grid.cells()))
        self.pair = CliPair(workdir, "side", {
            "n_units": self.scenario.n_units,
            "n_periods": self.scenario.n_periods,
            "dominance": self.scenario.dominance,
            "base_params": {"rho": params.rho, "sigma_psi": params.sigma_psi,
                            "sigma_eps": params.sigma_eps},
        })
        self.cell = SpatialCell()

    def completed_reps(self, op):
        return op.attempted - op.failed

    def side_work(self):
        """The pairs and cells, each kind spread evenly over the list."""
        groups = ([(derive_seed(self.name, self.seed, "side", i), self.pair)
                   for i in range(SIDE_PAIRS)],
                  [(derive_seed(self.name, self.seed, "spatial", i), self.cell)
                   for i in range(SIDE_CELLS)])
        placed = [((i + 0.5) / len(group), item) for group in groups
                  for i, item in enumerate(group)]
        return [item for _, item in sorted(placed, key=lambda p: p[0])]

    def run_op(self, seed: int, n_workers: int = 2) -> OpResult:
        def call(s):
            table = power.run_grid(self.grid, self.reps_per_cell, s, n_workers=n_workers)
            return table.cells, tuple(table.csv_rows())

        return _run_cells(self.name, seed, self.n_cells * self.reps_per_cell, call,
                          self.work_count)

    @staticmethod
    def work_count(cells) -> dict:
        # one AR refit per unit and boot draw in each successful replication
        return {"refits": sum((c.n_reps - c.n_failures) * c.scenario.n_units * BOOT_K
                              for c in cells)}

    def check(self, first, ops, side):
        serial = self.run_op(self.op_seed(0), n_workers=1)
        again = self.run_op(self.op_seed(0))
        failures = _compare(self.name, first, again)
        if serial.outputs[0] != first.outputs[0]:
            failures.append(f"{self.name}: csv_rows differ between n_workers=1 and n_workers=2")
        seed, _, first_cell = next(item for item in side if item[1] is self.cell)
        failures += _compare(self.cell.label, first_cell, self.cell.run(seed))
        return failures, {"power.pool_speedup": serial.wall_s / again.wall_s}


class CliLargePanel(Workload):
    name = "cli-large-panel"
    scenario = {"n_units": 2000, "n_periods": 60}  # ModelParams() defaults
    params = ModelParams()

    #: Panels behind the estimate-recovery check: the ops' reports, topped up
    #: with in-process fits of the same scenario on derived seeds.
    recovery_panels = 15

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        self.pair = CliPair(workdir, "large", self.scenario)

    def run_op(self, seed: int) -> OpResult:
        return self.pair.run(seed)

    def check(self, first, ops, side):
        # Acceptance criterion 7's bounds apply to median errors over many
        # panels; one 2000x60 panel in about 20 misses |rho err| < 0.1.
        fits = [(r["rho_hat"], r["beta_hat"], r["converged"])
                for r in (op.phases.get("report") for op in ops) if r is not None]
        for i in range(self.recovery_panels - len(fits)):
            scenario = Scenario(**self.scenario, seed=derive_seed(self.name, self.seed, "recovery", i))
            fit = estimate_model(simulate_panel(scenario)[0]).frontier
            fits.append((fit.rho_hat, fit.beta_hat, fit.converged))
        rho_err = float(np.median([abs(rho - self.params.rho) for rho, _, _ in fits]))
        beta_err = np.median([np.abs(np.subtract(beta, self.params.beta)) for _, beta, _ in fits],
                             axis=0)
        converged = all(c for _, _, c in fits)
        failures = []
        if not (converged and rho_err < 0.1 and (beta_err < 0.05).all()):
            failures.append(
                f"{self.name}: estimates off target over {len(fits)} panels: all converged="
                f"{converged}, median |rho err|={rho_err:.4f}, median |beta err|={beta_err.tolist()}")
        # the pair's files hold the last op; re-derive its TE and counts in-process
        last = ops[-1]
        if not last.errors:
            te, _, _ = io.read_te_csv(str(self.pair.te))
            result = estimate_model(io.read_panel_csv(str(self.pair.panel)))
            if not np.array_equal(te, result.te):
                failures.append(
                    f"{self.name}: read_te_csv(te.csv) differs from estimate_model(panel).te")
            if ((result.frontier.iterations, result.clamp_count)
                    != (last.counts["gls_iterations"], last.counts["clamp_count"])):
                failures.append(f"{self.name}: GLS iterations or clamp count differ on repeat")
        # a repeated simulate with the same seed and command line must write
        # byte-identical CSV (the command line is part of the CSV header)
        code, _, output = run_cli(["simulate", "--scenario", str(self.pair.scenario), "--seed",
                                   str(self.op_seed(0)), "--out", str(self.pair.panel)])
        if code or first.errors or _sha256(self.pair.panel) != first.outputs[0]:
            failures.append(f"{self.name}: repeated simulate differs from the first op "
                            f"(exit {code}) {output.strip()}")
        return failures, {}


WORKLOADS = {w.name: w for w in (McTemporal, CliLargePanel)}
