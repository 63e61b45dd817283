from types import SimpleNamespace

import numpy as np
import pytest

from stfrontier import (
    BootstrapError,
    GridSpec,
    ModelParams,
    PowerCell,
    Scenario,
    StfrontierError,
    ValidationError,
    default_power_params,
    power,
    run_grid,
    run_power_cell,
)
from stfrontier.power import cell_key
from stfrontier.rng import derive_seed


def tiny_scenario(**kw):
    args = dict(
        n_units=8,
        n_periods=9,
        dominance="equal",
        base_params=default_power_params(),
        seed=0,
    )
    args.update(kw)
    return Scenario(**args)


def tiny_grid(**kw):
    args = dict(
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
    args.update(kw)
    return GridSpec(**args)


class TestRunPowerCell:
    def test_single_rep_rate_is_zero_or_one(self):
        cell = run_power_cell(tiny_scenario(), "spatial", 1, master_seed=1, boot_k=100, alpha=0.1)
        assert cell.rejection_rate in (0.0, 1.0)
        assert cell.n_reps == 1

    def test_deterministic(self):
        a = run_power_cell(tiny_scenario(), "spatial", 6, master_seed=3, boot_k=100, alpha=0.1)
        b = run_power_cell(tiny_scenario(), "spatial", 6, master_seed=3, boot_k=100, alpha=0.1)
        assert a.n_rejections == b.n_rejections
        assert a.rejection_rate == b.rejection_rate

    def test_rate_identity(self):
        cell = run_power_cell(tiny_scenario(), "temporal", 5, master_seed=4, boot_k=100, alpha=0.1)
        assert cell.rejection_rate == cell.n_rejections / 5

    def test_unknown_test_kind(self):
        with pytest.raises(ValidationError, match="test_kind"):
            run_power_cell(tiny_scenario(), "both", 2, master_seed=5)

    def test_failing_replications_abort_cell(self):
        # an absurd sigma_eps makes every replication fail rejection sampling
        scenario = tiny_scenario(base_params=ModelParams(rho=0.3, sigma_eps=1e8))
        with pytest.raises(StfrontierError, match="replications errored"):
            run_power_cell(scenario, "spatial", 4, master_seed=6, boot_k=100, alpha=0.1)

    def test_rate_counts_completed_replications_only(self, monkeypatch):
        calls = []

        def flaky_test(te, spatial, config, covariates=None):
            calls.append(None)
            if len(calls) == 37:
                raise BootstrapError("planted failure")
            return SimpleNamespace(reject=len(calls) % 3 == 0)

        monkeypatch.setattr(power, "test_constant_spatial", flaky_test)
        cell = run_power_cell(tiny_scenario(), "spatial", 100, master_seed=7)
        assert len(calls) == 100
        assert cell.n_failures == 1
        assert cell.n_rejections == 33
        assert cell.rejection_rate == cell.n_rejections / 99

    def test_cell_key_excludes_seed(self):
        a = cell_key(tiny_scenario(seed=1), "temporal")
        b = cell_key(tiny_scenario(seed=2), "temporal")
        assert a == b
        assert "n=8" in a and "test=temporal" in a


class TestPowerCellInvariants:
    def test_rate_mismatch_rejected(self):
        with pytest.raises(ValidationError, match="rejection_rate"):
            PowerCell(
                scenario=tiny_scenario(),
                test_kind="temporal",
                n_reps=10,
                n_rejections=3,
                rejection_rate=0.5,
                wall_time=0.0,
            )

    def test_rate_over_completed_replications(self):
        cell = PowerCell(
            scenario=tiny_scenario(),
            test_kind="temporal",
            n_reps=10,
            n_rejections=3,
            rejection_rate=3 / 9,
            wall_time=0.0,
            n_failures=1,
        )
        assert cell.rejection_rate == 3 / 9
        with pytest.raises(ValidationError, match="n_failures"):
            PowerCell(
                scenario=tiny_scenario(),
                test_kind="temporal",
                n_reps=2,
                n_rejections=0,
                rejection_rate=0.0,
                wall_time=0.0,
                n_failures=2,
            )


class TestGridSpec:
    def test_full_layout_cell_count(self):
        # 3 sample sizes x 2 lengths x 3 dominance mixes: 18 size cells,
        # plus one fraction and three shifts: 54 power cells
        grid = GridSpec(
            test_kinds=("temporal",),
            fractions=(0.1,),
            shifts=(0.3, 1.0, 1.5),
        )
        cells = list(grid.cells())
        assert len(cells) == 72
        size_cells = [c for c, _ in cells if c.contamination_fraction == 0.0]
        assert len(size_cells) == 18
        assert len(cells) - len(size_cells) == 54

    def test_no_duplicate_cells(self):
        grid = tiny_grid(fractions=(0.1, 0.2), shifts=(0.5, 1.0))
        keys = [cell_key(sc, kind) for sc, kind in grid.cells()]
        assert len(keys) == len(set(keys))

    def test_empty_shift_list_gives_size_only_table(self):
        grid = tiny_grid(shifts=())
        cells = list(grid.cells())
        assert len(cells) == 1
        assert cells[0][0].contamination_fraction == 0.0

    def test_shift_lands_on_matching_parameter(self):
        grid = tiny_grid(test_kinds=("temporal", "spatial"), shifts=(1.5,))
        for scenario, kind in grid.cells():
            if scenario.contamination_fraction == 0:
                continue
            if kind == "temporal":
                assert scenario.temporal_shift_r == 1.5 and scenario.spatial_shift_g == 0.0
            else:
                assert scenario.spatial_shift_g == 1.5 and scenario.temporal_shift_r == 0.0


class TestRunGrid:
    def test_csv_rows_and_sorting(self):
        table = run_grid(tiny_grid(), 2, master_seed=11)
        rows = table.csv_rows()
        assert rows[0] == "test,n,T,dominance,fraction,shift,reps,rejections,rate"
        assert len(rows) == 1 + 2  # header, size cell, one power cell
        assert rows[1].startswith("spatial,8,9,equal,0.0,")

    def test_identical_output_for_any_worker_count(self):
        grid = tiny_grid(fractions=(0.2,), shifts=(0.5, 1.5))
        serial = run_grid(grid, 2, master_seed=12, n_workers=1)
        threaded = run_grid(grid, 2, master_seed=12, n_workers=3)
        assert serial.csv_rows() == threaded.csv_rows()

    def test_summary_text_mentions_cells(self):
        table = run_grid(tiny_grid(), 2, master_seed=14)
        text = table.summary_text()
        assert "spatial test" in text
        assert "equal" in text


@pytest.fixture
def recorded_pools(monkeypatch):
    """Replace the process pool with one that records how it was built and
    maps in this process, so no worker is started."""
    built = []

    class RecordingPool:
        def __init__(self, max_workers, mp_context):
            built.append((max_workers, mp_context.get_start_method()))

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(power, "ProcessPoolExecutor", RecordingPool)
    return built


class TestProcessPool:
    def test_pool_forks_its_workers(self, recorded_pools):
        run_grid(tiny_grid(), 1, master_seed=15, n_workers=2)
        assert recorded_pools == [(2, "fork")]

    def test_workers_never_outnumber_cells(self, recorded_pools, monkeypatch):
        grid = tiny_grid()  # two cells
        for n_workers in (2, 4, 10**6):
            run_grid(grid, 1, master_seed=15, n_workers=n_workers)
        monkeypatch.setattr(power.os, "cpu_count", lambda: 64)
        run_grid(grid, 1, master_seed=15)
        assert recorded_pools == [(2, "fork")] * 4

    def test_one_worker_runs_in_process(self, recorded_pools):
        run_grid(tiny_grid(), 1, master_seed=15, n_workers=1)
        run_grid(tiny_grid(shifts=()), 1, master_seed=15, n_workers=4)  # one cell
        assert recorded_pools == []

    def test_aborted_cell_raises_the_same_error_through_the_pool(self):
        # an absurd sigma_eps makes every replication fail rejection sampling
        grid = tiny_grid(base_params=ModelParams(rho=0.3, sigma_eps=1e8))
        raised = []
        for n_workers in (1, 2):
            with pytest.raises(StfrontierError) as info:
                run_grid(grid, 4, master_seed=6, n_workers=n_workers)
            raised.append((type(info.value), str(info.value)))
        assert raised[0] == raised[1]
        assert "replications errored" in raised[0][1]

    def test_planted_failure_reaches_its_cell_through_the_pool(self, monkeypatch):
        # the patch reaches the workers because they are forked after it
        grid = tiny_grid()
        keys = [cell_key(*item) for item in grid.cells()]
        key = keys[1]
        planted = derive_seed(derive_seed(21, "power", key, 37), "bootstrap")

        def flaky_test(te, spatial, config, covariates=None):
            if config.seed == planted:
                raise BootstrapError("planted failure")
            return SimpleNamespace(reject=config.seed % 3 == 0)

        monkeypatch.setattr(power, "test_constant_spatial", flaky_test)
        serial, pooled = (run_grid(grid, 100, master_seed=21, n_workers=n) for n in (1, 2))
        assert serial.csv_rows() == pooled.csv_rows()
        for table in (serial, pooled):
            failures = {cell_key(c.scenario, c.test_kind): c.n_failures for c in table.cells}
            assert failures == {k: int(k == key) for k in keys}
