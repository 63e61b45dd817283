"""Monte Carlo harness: empirical size and power of the homogeneity tests.

A grid cell fixes a scenario (panel size, dominance, contamination) and a
test kind; the cell is replicated n_reps times with independent derived
seeds, and the rejection rate is recorded. Cells and replications may run in
any order or degree of parallelism without changing the output: every
replication's seed is a stable hash of (master_seed, cell key, index).

The package's one way to use a second CPU is here, with no pool:
fork_width counts the processes that may share work, and forked runs one
share in a forked child. run_grid deals its cells into one share per
process, and io splits long CSVs this way. A replication is many small
numpy calls driven from Python, so threads would spend most of their time
waiting for the GIL: two threads measured only 7-15% faster than one, two
forked processes about 1.6x (ledger D8 in CHANGES.md). The children are
forked, not spawned, so they start without importing the package again
(about 0.6 s each) and inherit the caller's module state, patched
attributes included. run_power_cell runs its replications serially.
"""

from __future__ import annotations

import functools
import os
import pickle
import signal
import threading
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass, field, replace

from .assumption_tests import (
    TestConfig,
    check_ar_length,
    test_constant_spatial,
    test_constant_temporal,
)
from .errors import StfrontierError, ValidationError
from .estimation import estimate_model
from .frontier import technical_efficiency
from .rng import check_seed, derive_seed
from .simulate import simulate_panel
from .types import DOMINANCE_SHARES, ModelParams, Scenario, as_count

TEST_KINDS = ("temporal", "spatial")
TE_SOURCES = ("true", "estimated")

#: Share of errored replications beyond which a cell is abandoned.
_MAX_FAILURE_SHARE = 0.01


def fork_width() -> int:
    """How many processes may share work: the CPUs this process may run on,
    or 1 where that is unknown or another thread runs, since a forked child
    would inherit that thread's locks but not the thread."""
    if not hasattr(os, "sched_getaffinity") or threading.active_count() > 1:
        return 1
    return len(os.sched_getaffinity(0))


@contextmanager
def forked(work):
    """Run work() in a forked child while the with-block runs here.

    Yields a function that waits for the child and returns what work()
    returned, or raises what it raised; either comes back pickled through a
    pipe. The child leaves only through os._exit, so it runs none of the
    caller's cleanup and flushes no inherited buffer. The child is killed
    if the block leaves before taking its result, and always reaped.
    """
    read_end, write_end = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_end)
        os.close(write_end)
        raise
    if pid == 0:
        try:
            os.close(read_end)
            with open(write_end, "wb") as pipe:
                try:
                    outcome = True, work()
                except BaseException as err:
                    outcome = False, err
                pickle.dump(outcome, pipe, pickle.HIGHEST_PROTOCOL)
        finally:
            os._exit(0)
    os.close(write_end)
    taken = False

    def join():
        nonlocal taken
        try:
            ok, result = pickle.load(pipe)
        except (EOFError, pickle.UnpicklingError) as err:
            raise ChildProcessError(f"forked child {pid} ended without a result") from err
        taken = True
        if not ok:
            raise result
        return result

    try:
        with open(read_end, "rb") as pipe:
            yield join
    finally:
        if not taken:
            os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)


def default_power_params() -> ModelParams:
    """Generative defaults for power studies.

    rho = 0.3 keeps the contaminated rho*(1+r) inside (-1, 1) over the
    default shift grid (r up to 1.5). sigma_psi = 0.3 gives the
    autocorrelated component a visible share of the composite error so that
    temporal contamination registers at short T; sigma_eps = 0.01 keeps the
    inefficiency observations close to the logistic surface the spatial test
    inverts.
    """
    return ModelParams(rho=0.3, sigma_psi=0.3, sigma_eps=0.01)


def cell_key(scenario: Scenario, test_kind: str) -> str:
    """Canonical cell identifier; excludes the seed, which is replication-level."""
    return (
        f"test={test_kind};n={scenario.n_units};T={scenario.n_periods};"
        f"dom={scenario.dominance};frac={scenario.contamination_fraction!r};"
        f"r={scenario.temporal_shift_r!r};g={scenario.spatial_shift_g!r}"
    )


@dataclass(frozen=True)
class PowerCell:
    scenario: Scenario
    test_kind: str
    n_reps: int
    n_rejections: int
    rejection_rate: float
    n_failures: int = 0

    def __post_init__(self):
        object.__setattr__(self, "n_reps", as_count(self.n_reps, "n_reps", least=1))
        if not 0 <= self.n_failures < self.n_reps:
            raise ValidationError(
                f"n_failures must lie in [0, n_reps), got {self.n_failures} of {self.n_reps}"
            )
        if self.n_rejections != round(self.rejection_rate * (self.n_reps - self.n_failures)):
            raise ValidationError(
                "rejection_rate must equal n_rejections / (n_reps - n_failures)"
            )

    @property
    def shift(self) -> float:
        if self.test_kind == "temporal":
            return self.scenario.temporal_shift_r
        return self.scenario.spatial_shift_g


def run_power_cell(
    scenario: Scenario,
    test_kind: str,
    n_reps: int,
    master_seed: int,
    *,
    boot_k: int = 500,
    alpha: float = 0.05,
    te_source: str = "true",
) -> PowerCell:
    """Replicate simulate-then-test and aggregate the rejection count.

    The temporal test fits each unit's frontier innovations an AR(1), the
    model's noise, so it takes neither a series nor an order. The spatial
    test consumes the simulated ground-truth TE by default
    (te_source="true"); "estimated" feeds the model-predicted TE instead.
    The test settings are checked once, before any replication. Errors
    inside a replication are collected; the cell is abandoned only when more
    than 1% of replications fail. The rejection rate counts the completed
    replications only.
    """
    if test_kind not in TEST_KINDS:
        raise ValidationError(f"test_kind must be one of {TEST_KINDS}, got {test_kind!r}")
    if te_source not in TE_SOURCES:
        raise ValidationError(f"te_source must be one of {TE_SOURCES}, got {te_source!r}")
    n_reps = as_count(n_reps, "n_reps", least=1)
    master_seed = check_seed(master_seed, "master_seed")
    key = cell_key(scenario, test_kind)
    settings = TestConfig(n_boot_k=boot_k, alpha=alpha)

    rejections = 0
    failures: list[str] = []
    for rep in range(n_reps):
        rep_seed = derive_seed(master_seed, "power", key, rep)
        try:
            panel, _, true_u, _ = simulate_panel(replace(scenario, seed=rep_seed))
            config = replace(settings, seed=derive_seed(rep_seed, "bootstrap"))
            if test_kind == "temporal":
                report = test_constant_temporal(panel, config)
            else:
                if te_source == "true":
                    te = technical_efficiency(true_u)
                else:
                    te = estimate_model(panel).te
                report = test_constant_spatial(te, panel.spatial, config, panel.covariates)
            rejections += int(report.reject)
        except StfrontierError as err:
            failures.append(f"replication {rep}: {err}")
    if len(failures) > _MAX_FAILURE_SHARE * n_reps:
        raise StfrontierError(
            f"cell {key} failed: {len(failures)}/{n_reps} replications errored; "
            f"first: {failures[0]}"
        )
    return PowerCell(
        scenario=scenario,
        test_kind=test_kind,
        n_reps=n_reps,
        n_rejections=rejections,
        rejection_rate=rejections / (n_reps - len(failures)),
        n_failures=len(failures),
    )


@dataclass(frozen=True)
class GridSpec:
    """Cartesian grid of power cells.

    Every (n, T, dominance) combination gets one size cell (no contamination)
    plus one power cell per (fraction, shift) pair. Shifts apply to rho for
    the temporal test and to gamma for the spatial test. The test settings
    are checked here, before any cell runs, and a grid with the temporal
    test needs every T > 4, the length rule of its AR(1) fits. The temporal
    test's series and order are fixed, so neither is a field.
    """

    test_kinds: tuple[str, ...] = ("temporal", "spatial")
    n_values: tuple[int, ...] = (50, 100, 200)
    t_values: tuple[int, ...] = (12, 60)
    dominances: tuple[str, ...] = ("equal", "spatial", "covariate")
    fractions: tuple[float, ...] = (0.1, 0.2)
    shifts: tuple[float, ...] = (0.3, 1.0, 1.5)
    base_params: ModelParams = field(default_factory=default_power_params)
    boot_k: int = 500
    alpha: float = 0.05
    te_source: str = "true"

    def __post_init__(self):
        for kind in self.test_kinds:
            if kind not in TEST_KINDS:
                raise ValidationError(f"unknown test kind {kind!r}")
        for dom in self.dominances:
            if dom not in DOMINANCE_SHARES:
                raise ValidationError(f"unknown dominance {dom!r}")
        # the one check of the test settings; the seed is per replication
        TestConfig(n_boot_k=self.boot_k, alpha=self.alpha)
        if self.te_source not in TE_SOURCES:
            raise ValidationError(
                f"te_source must be one of {TE_SOURCES}, got {self.te_source!r}"
            )
        for name in ("n_values", "t_values"):
            counts = tuple(
                as_count(v, f"{name}[{i}]") for i, v in enumerate(getattr(self, name))
            )
            object.__setattr__(self, name, counts)
        if not self.n_values or not self.t_values or not self.dominances:
            raise ValidationError("grid must span at least one (n, T, dominance) cell")
        if "temporal" in self.test_kinds:
            # otherwise every replication of the shortest cells would error
            check_ar_length(min(self.t_values))

    def cells(self):
        """Yield (scenario, test_kind) pairs covering the grid exactly once."""
        for kind in self.test_kinds:
            for n in self.n_values:
                for t in self.t_values:
                    for dom in self.dominances:
                        yield self._scenario(kind, n, t, dom, 0.0, 0.0), kind
                        for frac in self.fractions:
                            for shift in self.shifts:
                                yield self._scenario(kind, n, t, dom, frac, shift), kind

    def _scenario(self, kind, n, t, dom, frac, shift) -> Scenario:
        return Scenario(
            n_units=n,
            n_periods=t,
            dominance=dom,
            contamination_fraction=frac,
            temporal_shift_r=shift if kind == "temporal" else 0.0,
            spatial_shift_g=shift if kind == "spatial" else 0.0,
            base_params=self.base_params,
            seed=0,
        )


@dataclass(frozen=True)
class PowerTable:
    cells: tuple[PowerCell, ...]

    CSV_HEADER = "test,n,T,dominance,fraction,shift,reps,rejections,rate"

    def csv_rows(self) -> list[str]:
        rows = [self.CSV_HEADER]
        for cell in self.cells:
            sc = cell.scenario
            rows.append(
                f"{cell.test_kind},{sc.n_units},{sc.n_periods},{sc.dominance},"
                f"{sc.contamination_fraction!r},{cell.shift!r},"
                f"{cell.n_reps},{cell.n_rejections},{cell.rejection_rate!r}"
            )
        return rows

    def summary_text(self) -> str:
        """Rejection rates grouped by test kind, one block per (n, T, dominance)."""
        lines = []
        for kind in sorted({c.test_kind for c in self.cells}):
            lines.append(f"{kind} test (reps={self.cells[0].n_reps})")
            lines.append(f"  {'n':>4} {'T':>4} {'dominance':<10} {'frac':>5} {'shift':>6} {'rate':>7}")
            for cell in self.cells:
                if cell.test_kind != kind:
                    continue
                sc = cell.scenario
                lines.append(
                    f"  {sc.n_units:>4} {sc.n_periods:>4} {sc.dominance:<10} "
                    f"{sc.contamination_fraction:>5.2f} {cell.shift:>6.2f} "
                    f"{cell.rejection_rate:>7.3f}"
                )
        return "\n".join(lines)


def run_grid(
    grid_spec: GridSpec,
    n_reps: int,
    master_seed: int,
    *,
    n_workers: int | None = None,
) -> PowerTable:
    """Run every cell of the grid; output is identical for any worker count.

    n_reps and n_workers are checked before any child is forked. The cells
    are dealt into strided shares: this process runs the first and a forked
    child each other one. ``n_workers`` caps the processes, at least 1, None
    means no cap, and there are never more than fork_width() or the cells.
    Each cell keeps its own sieve buffer set (run_power_cell). Each share
    stops at its first error, and the earliest cell's error is raised here,
    as a serial run would raise it.
    """
    n_reps = as_count(n_reps, "n_reps", least=1)
    master_seed = check_seed(master_seed, "master_seed")
    cells = list(grid_spec.cells())
    if not cells:
        raise ValidationError("empty grid")
    cap = len(cells) if n_workers is None else as_count(n_workers, "n_workers", least=1)
    width = min(fork_width(), cap, len(cells))
    names = ("boot_k", "alpha", "te_source")
    settings = {name: getattr(grid_spec, name) for name in names}

    def share(first: int):
        """The cells first, first + width, ... in order, up to the first that
        raises, and that error or None."""
        done = []
        for scenario, kind in cells[first::width]:
            try:
                done.append(run_power_cell(scenario, kind, n_reps, master_seed, **settings))
            except Exception as err:
                return done, err
        return done, None

    with ExitStack() as children:
        joins = [children.enter_context(forked(functools.partial(share, first)))
                 for first in range(1, width)]
        shares = [share(0), *(join() for join in joins)]
    # a share that stopped did so at its cell first + len(done) * width
    stopped = [(first + len(done) * width, err)
               for first, (done, err) in enumerate(shares) if err is not None]
    if stopped:
        raise min(stopped, key=lambda item: item[0])[1]
    results = [None] * len(cells)
    for first, (done, _) in enumerate(shares):
        results[first::width] = done

    def _order(cell: PowerCell):
        sc = cell.scenario
        return (cell.test_kind, sc.n_units, sc.n_periods, sc.dominance,
                sc.contamination_fraction, cell.shift)

    return PowerTable(cells=tuple(sorted(results, key=_order)))
