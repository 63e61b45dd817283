import contextlib
import os
import re
import threading
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

    @pytest.mark.parametrize("n_reps", [2.5, True, "2", None])
    def test_refused_replication_counts(self, n_reps):
        message = f"n_reps must be an integer, got {n_reps!r}"
        with pytest.raises(ValidationError, match=re.escape(message)):
            run_power_cell(tiny_scenario(), "spatial", n_reps, master_seed=5)

    def test_integral_float_replication_count_accepted(self):
        cell = run_power_cell(tiny_scenario(), "spatial", 1.0, master_seed=1, boot_k=100, alpha=0.1)
        assert type(cell.n_reps) is int and cell.n_reps == 1

    def test_failing_replications_abort_cell(self):
        # an absurd sigma_eps makes every replication fail rejection sampling
        scenario = tiny_scenario(base_params=ModelParams(rho=0.3, sigma_eps=1e8))
        with pytest.raises(StfrontierError, match="replications errored"):
            run_power_cell(scenario, "spatial", 4, master_seed=6, boot_k=100, alpha=0.1)

    def test_rate_counts_completed_replications_only(self, monkeypatch):
        calls = []

        def flaky_test(te, spatial, config, covariates):
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
            )

    @pytest.mark.parametrize("n_reps", [10.5, True])
    def test_refused_replication_counts(self, n_reps):
        message = f"n_reps must be an integer, got {n_reps!r}"
        with pytest.raises(ValidationError, match=re.escape(message)):
            PowerCell(
                scenario=tiny_scenario(),
                test_kind="temporal",
                n_reps=n_reps,
                n_rejections=0,
                rejection_rate=0.0,
            )

    def test_rate_over_completed_replications(self):
        cell = PowerCell(
            scenario=tiny_scenario(),
            test_kind="temporal",
            n_reps=10,
            n_rejections=3,
            rejection_rate=3 / 9,
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


    @pytest.mark.parametrize("t_values", [(4,), (3, 60), (60, 4)])
    def test_temporal_grid_rejects_series_too_short_for_ar1(self, t_values):
        message = rf"too short for AR\(1\): need T > 4, got T={min(t_values)}"
        with pytest.raises(ValidationError, match=message):
            tiny_grid(test_kinds=("temporal",), t_values=t_values)
        with pytest.raises(ValidationError, match=message):
            tiny_grid(test_kinds=("spatial", "temporal"), t_values=t_values)
        # the rule binds the temporal test only
        assert list(tiny_grid(t_values=t_values).cells())

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"n_values": (8, 20.5)}, "n_values[1] must be an integer, got 20.5"),
            ({"t_values": (9.9,)}, "t_values[0] must be an integer, got 9.9"),
            ({"te_source": "model"}, "te_source must be one of"),
        ],
    )
    def test_bad_field_refused_before_any_cell(self, fields, message):
        with pytest.raises(ValidationError, match=re.escape(message)):
            tiny_grid(**fields)

    def test_integral_float_sizes_accepted(self):
        grid = tiny_grid(n_values=(8.0,), t_values=(9.0,))
        assert (grid.n_values, grid.t_values) == ((8,), (9,))
        assert all(type(v) is int for v in grid.n_values + grid.t_values)
        assert [(sc.n_units, sc.n_periods) for sc, _ in grid.cells()] == [(8, 9), (8, 9)]

    def test_ar_order_is_not_a_setting(self):
        # the temporal test fits AR(1), the model's noise, and nothing else
        with pytest.raises(TypeError, match="ar_order_p"):
            tiny_grid(test_kinds=("temporal",), ar_order_p=1)
        with pytest.raises(TypeError, match="ar_order_p"):
            run_power_cell(tiny_scenario(), "temporal", 1, master_seed=1, ar_order_p=1)

    @pytest.mark.parametrize("source", ["frontier_residuals", "log_output"])
    def test_series_source_is_not_a_setting(self, source):
        # the temporal test runs on the frontier innovations and nothing else
        with pytest.raises(TypeError, match="series_source"):
            tiny_grid(test_kinds=("temporal",), series_source=source)
        with pytest.raises(TypeError, match="series_source"):
            run_power_cell(tiny_scenario(), "temporal", 1, master_seed=1, series_source=source)

    def test_temporal_grid_accepts_the_shortest_allowed_series(self):
        grid = tiny_grid(test_kinds=("temporal",), t_values=(5, 12))
        assert {sc.n_periods for sc, _ in grid.cells()} == {5, 12}


class TestRunGrid:
    def test_csv_rows_and_sorting(self):
        table = run_grid(tiny_grid(), 2, master_seed=11)
        rows = table.csv_rows()
        assert rows[0] == "test,n,T,dominance,fraction,shift,reps,rejections,rate"
        assert len(rows) == 1 + 2  # header, size cell, one power cell
        assert rows[1].startswith("spatial,8,9,equal,0.0,")

    def test_identical_output_for_any_worker_count(self, monkeypatch):
        monkeypatch.setattr(power.os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        grid = tiny_grid(fractions=(0.2,), shifts=(0.5, 1.0, 1.5))
        rows = [run_grid(grid, 2, master_seed=12, n_workers=n).csv_rows() for n in (1, 2, 3)]
        assert rows[1:] == [rows[0]] * 2

    def test_benchmark_temporal_grid_rows_are_pinned(self):
        # the benchmark's mc-temporal grid: a null cell and 10% of units at
        # r = 1.0, n=50, T=12, k=500, on 2 workers; rows recorded before the
        # temporal kernel was vectorised, on a seed fixed before the run
        grid = GridSpec(
            test_kinds=("temporal",),
            n_values=(50,),
            t_values=(12,),
            dominances=("equal",),
            fractions=(0.1,),
            shifts=(1.0,),
            base_params=default_power_params(),
            boot_k=500,
        )
        assert run_grid(grid, 8, master_seed=4242, n_workers=2).csv_rows() == [
            "test,n,T,dominance,fraction,shift,reps,rejections,rate",
            "temporal,50,12,equal,0.0,0.0,8,0,0.0",
            "temporal,50,12,equal,0.1,1.0,8,0,0.0",
        ]

    def test_summary_text_mentions_cells(self):
        table = run_grid(tiny_grid(), 2, master_seed=14)
        text = table.summary_text()
        assert "spatial test" in text
        assert "equal" in text


def use_cpus(monkeypatch, count):
    monkeypatch.setattr(power.os, "sched_getaffinity", lambda pid: set(range(count)),
                        raising=False)


def assert_no_child():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def recorded_forks(monkeypatch):
    """Two CPUs, and power.forked replaced by a fake that records each share
    it is given and runs it in this process, so no child is started."""
    forks = []

    @contextlib.contextmanager
    def in_process(work):
        forks.append(work)
        result = work()
        yield lambda: result

    monkeypatch.setattr(power, "forked", in_process)
    use_cpus(monkeypatch, 2)
    return forks


class TestForkedShares:
    def test_two_workers_fork_one_child(self, recorded_forks):
        run_grid(tiny_grid(), 1, master_seed=15, n_workers=2)
        assert len(recorded_forks) == 1

    def test_processes_never_outnumber_cells(self, recorded_forks, monkeypatch):
        grid = tiny_grid()  # two cells
        for n_workers in (2, 4, 10**6):
            run_grid(grid, 1, master_seed=15, n_workers=n_workers)
        use_cpus(monkeypatch, 64)
        run_grid(grid, 1, master_seed=15)
        assert len(recorded_forks) == 4

    def test_processes_never_outnumber_cpus(self, recorded_forks, monkeypatch):
        grid = tiny_grid(shifts=(0.5, 1.0, 1.5))  # four cells
        run_grid(grid, 1, master_seed=15, n_workers=4)
        assert len(recorded_forks) == 1
        use_cpus(monkeypatch, 1)
        run_grid(grid, 1, master_seed=15, n_workers=4)
        monkeypatch.delattr(power.os, "sched_getaffinity")
        run_grid(grid, 1, master_seed=15, n_workers=4)
        assert len(recorded_forks) == 1

    @pytest.mark.parametrize("n_workers", [1.5, True, "2"])
    def test_refused_worker_counts(self, recorded_forks, n_workers):
        with pytest.raises(ValidationError, match="n_workers must be an integer"):
            run_grid(tiny_grid(), 1, master_seed=15, n_workers=n_workers)
        assert recorded_forks == []

    @pytest.mark.parametrize("n_workers", [0, -3])
    def test_worker_counts_below_one_fork_nothing(self, recorded_forks, n_workers):
        message = f"n_workers must be >= 1, got {n_workers}"
        with pytest.raises(ValidationError, match=re.escape(message)):
            run_grid(tiny_grid(), 1, master_seed=15, n_workers=n_workers)
        assert recorded_forks == []

    @pytest.mark.parametrize(
        "n_reps, message",
        [
            (0, "n_reps must be >= 1, got 0"),
            (2.5, "n_reps must be an integer, got 2.5"),
            (True, "n_reps must be an integer, got True"),
        ],
    )
    def test_refused_replication_counts_fork_nothing(self, recorded_forks, n_reps, message):
        with pytest.raises(ValidationError, match=re.escape(message)):
            run_grid(tiny_grid(), n_reps, master_seed=15, n_workers=2)
        assert recorded_forks == []

    def test_one_worker_forks_nothing(self, recorded_forks):
        run_grid(tiny_grid(), 1, master_seed=15, n_workers=1)
        run_grid(tiny_grid(shifts=()), 1, master_seed=15, n_workers=4)  # one cell
        assert recorded_forks == []

    def test_aborted_cell_raises_the_serial_error(self, monkeypatch):
        # an absurd sigma_eps makes every replication fail rejection sampling
        use_cpus(monkeypatch, 2)
        grid = tiny_grid(base_params=ModelParams(rho=0.3, sigma_eps=1e8))
        raised = []
        for n_workers in (1, 2):
            with pytest.raises(StfrontierError) as info:
                run_grid(grid, 4, master_seed=6, n_workers=n_workers)
            raised.append((type(info.value), str(info.value)))
        assert raised[0] == raised[1]
        assert "replications errored" in raised[0][1]
        assert_no_child()

    def test_planted_failure_reaches_its_cell_in_a_child(self, monkeypatch):
        # the patch reaches the child because it is forked after it
        use_cpus(monkeypatch, 2)
        grid = tiny_grid()
        keys = [cell_key(*item) for item in grid.cells()]
        key = keys[1]  # the child's share
        planted = derive_seed(derive_seed(21, "power", key, 37), "bootstrap")

        def flaky_test(te, spatial, config, covariates):
            if config.seed == planted:
                raise BootstrapError("planted failure")
            return SimpleNamespace(reject=config.seed % 3 == 0)

        monkeypatch.setattr(power, "test_constant_spatial", flaky_test)
        serial, shared = (run_grid(grid, 100, master_seed=21, n_workers=n) for n in (1, 2))
        assert serial.csv_rows() == shared.csv_rows()
        for table in (serial, shared):
            failures = {cell_key(c.scenario, c.test_kind): c.n_failures for c in table.cells}
            assert failures == {k: int(k == key) for k in keys}

    @pytest.mark.parametrize("planted, raised", [((1, 2), 1), ((2, 3), 2), ((0, 1), 0)])
    def test_earliest_failing_cell_wins_across_shares(self, monkeypatch, planted, raised):
        # on two processes this one runs cells 0 and 2, the child 1 and 3
        use_cpus(monkeypatch, 2)
        grid = tiny_grid(shifts=(0.5, 1.0, 1.5))
        keys = [cell_key(*item) for item in grid.cells()]
        run_cell = power.run_power_cell

        def failing(scenario, kind, *args, **kwargs):
            if keys.index(cell_key(scenario, kind)) in planted:
                raise StfrontierError(f"planted in {cell_key(scenario, kind)}")
            return run_cell(scenario, kind, *args, **kwargs)

        monkeypatch.setattr(power, "run_power_cell", failing)
        for n_workers in (1, 2):
            with pytest.raises(StfrontierError, match=re.escape(f"planted in {keys[raised]}")):
                run_grid(grid, 1, master_seed=15, n_workers=n_workers)
        assert_no_child()

    def test_no_fork_while_a_thread_runs(self, monkeypatch):
        use_cpus(monkeypatch, 2)
        forks = []
        forked = power.forked

        def counted(work):
            forks.append(work)
            return forked(work)

        monkeypatch.setattr(power, "forked", counted)
        grid = tiny_grid(shifts=(0.5, 1.5))
        alone = run_grid(grid, 2, master_seed=8, n_workers=2)
        assert len(forks) == 1
        release = threading.Event()
        thread = threading.Thread(target=release.wait)
        thread.start()
        try:
            threaded = run_grid(grid, 2, master_seed=8, n_workers=2)
        finally:
            release.set()
            thread.join(timeout=10)
        assert len(forks) == 1 and not thread.is_alive()
        assert threaded.csv_rows() == alone.csv_rows()

    def test_no_child_left(self, monkeypatch):
        use_cpus(monkeypatch, 2)
        run_grid(tiny_grid(), 1, master_seed=15, n_workers=2)
        assert_no_child()
        monkeypatch.setattr(power, "test_constant_spatial", lambda *args: 1 / 0)
        with pytest.raises(ZeroDivisionError):
            run_grid(tiny_grid(), 1, master_seed=15, n_workers=2)
        assert_no_child()
