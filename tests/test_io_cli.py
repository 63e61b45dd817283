import hashlib
import json
import math

import numpy as np
import pytest

from stfrontier import DataError, ModelParams, Scenario, simulate_panel
from stfrontier.cli import parse_and_dispatch
from stfrontier.io import (
    read_panel_csv,
    read_scenario_json,
    read_te_csv,
    write_panel_csv,
    write_scenario_json,
)


def sha(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def simulated_panel(seed=5, n=6, t=5):
    return simulate_panel(Scenario(n_units=n, n_periods=t, seed=seed))[0]


BASIC_HEADER = "unit,period,y,x1,w1,z1"


def write_rows(path, rows, header=BASIC_HEADER):
    path.write_text("\n".join([header] + rows) + "\n")


class TestPanelCsv:
    def test_round_trip_is_lossless(self, tmp_path):
        panel = simulated_panel()
        target = tmp_path / "panel.csv"
        write_panel_csv(panel, str(target), {"command": "test", "seed": 5})
        loaded = read_panel_csv(str(target))
        np.testing.assert_allclose(loaded.log_output, panel.log_output, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(loaded.log_inputs, panel.log_inputs, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(loaded.spatial, panel.spatial, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(loaded.covariates, panel.covariates, rtol=1e-12, atol=1e-12)
        assert loaded.unit_ids == tuple(str(u) for u in panel.unit_ids)

    def test_meta_header_embedded(self, tmp_path):
        panel = simulated_panel()
        target = tmp_path / "panel.csv"
        write_panel_csv(panel, str(target), {"command": "simulate --seed 5", "seed": 5})
        head = target.read_text().splitlines()[:3]
        assert head[0].startswith("# version:")
        assert any("seed: 5" in line for line in head)

    def test_missing_cell_is_named(self, tmp_path):
        rows = [
            f"{u},{p},1.0,1.0,0.1,0.2"
            for u in ("1", "2", "3")
            for p in ("6", "7")
            if not (u == "3" and p == "7")
        ]
        target = tmp_path / "panel.csv"
        write_rows(target, rows)
        with pytest.raises(DataError, match=r"missing cell \(unit 3, period 7\)"):
            read_panel_csv(str(target))

    def test_nonpositive_output_cites_row(self, tmp_path):
        rows = [
            "a,1,1.0,1.0,0.1,0.2",
            "a,2,0.0,1.0,0.1,0.2",
            "a,3,1.0,1.0,0.1,0.2",
            "b,1,1.0,1.0,0.1,0.2",
            "b,2,1.0,1.0,0.1,0.2",
            "b,3,1.0,1.0,0.1,0.2",
        ]
        target = tmp_path / "panel.csv"
        write_rows(target, rows)
        with pytest.raises(DataError, match="row 3: output must be positive"):
            read_panel_csv(str(target))

    def test_unknown_column_is_named(self, tmp_path):
        target = tmp_path / "panel.csv"
        write_rows(target, ["a,1,1.0,1.0,0.1,0.2"], header="unit,period,y,x1,w1,q1")
        with pytest.raises(DataError, match="unknown column 'q1'"):
            read_panel_csv(str(target))

    def test_malformed_number_cites_row(self, tmp_path):
        target = tmp_path / "panel.csv"
        write_rows(target, ["a,1,oops,1.0,0.1,0.2"])
        with pytest.raises(DataError, match="row 2: malformed number"):
            read_panel_csv(str(target))

    def test_duplicate_cell_rejected(self, tmp_path):
        target = tmp_path / "panel.csv"
        write_rows(target, ["a,1,1.0,1.0,0.1,0.2", "a,1,2.0,1.0,0.1,0.2"])
        with pytest.raises(DataError, match="duplicate cell"):
            read_panel_csv(str(target))

    def test_nonpositive_input_cites_row(self, tmp_path):
        target = tmp_path / "panel.csv"
        write_rows(target, ["a,1,1.0,-2.0,0.1,0.2"])
        with pytest.raises(DataError, match="row 2: input x1 must be positive"):
            read_panel_csv(str(target))


    def test_shuffled_rows_give_same_cells(self, tmp_path):
        panel = simulated_panel(n=7, t=6)
        ordered = tmp_path / "ordered.csv"
        write_panel_csv(panel, str(ordered))
        lines = ordered.read_text().splitlines()
        start = next(i for i, line in enumerate(lines) if not line.startswith("#")) + 1
        body = lines[start:]
        np.random.default_rng(4).shuffle(body)
        shuffled = tmp_path / "shuffled.csv"
        shuffled.write_text("\n".join(lines[:start] + body) + "\n")

        first_units = list(dict.fromkeys(line.split(",")[0] for line in body))
        first_periods = list(dict.fromkeys(line.split(",")[1] for line in body))
        a = read_panel_csv(str(ordered))
        b = read_panel_csv(str(shuffled))
        assert b.unit_ids == tuple(first_units) and b.period_ids == tuple(first_periods)
        assert a.unit_ids != b.unit_ids
        for i, unit in enumerate(a.unit_ids):
            for t, period in enumerate(a.period_ids):
                j, s = b.unit_ids.index(unit), b.period_ids.index(period)
                assert b.log_output[j, s] == a.log_output[i, t]
                for name in ("log_inputs", "spatial", "covariates"):
                    assert np.array_equal(getattr(b, name)[j, s], getattr(a, name)[i, t])


class TestScenarioJson:
    def test_round_trip(self, tmp_path):
        scenario = Scenario(
            n_units=9,
            n_periods=7,
            dominance="spatial",
            contamination_fraction=0.1,
            temporal_shift_r=0.5,
            base_params=ModelParams(rho=0.25, sigma_eps=0.02),
            seed=123,
        )
        target = tmp_path / "scenario.json"
        write_scenario_json(scenario, str(target), meta={"command": "x"})
        assert read_scenario_json(str(target)) == scenario

    def test_bad_field_reported(self, tmp_path):
        target = tmp_path / "scenario.json"
        target.write_text(json.dumps({"n_units": 5, "n_periods": 6, "bogus": 1}))
        with pytest.raises(DataError, match="bogus"):
            read_scenario_json(str(target))


class TestCli:
    @pytest.fixture()
    def scenario_file(self, tmp_path):
        path = tmp_path / "scenario.json"
        scenario = Scenario(n_units=8, n_periods=9, seed=202)
        write_scenario_json(scenario, str(path))
        return path

    def test_simulate_row_count_and_reproducibility(self, tmp_path, scenario_file):
        out = tmp_path / "panel.csv"
        code = parse_and_dispatch(
            ["simulate", "--scenario", str(scenario_file), "--out", str(out)]
        )
        assert code == 0
        body = [
            line
            for line in out.read_text().splitlines()
            if line and not line.startswith("#")
        ]
        assert len(body) == 1 + 8 * 9  # header + N*T rows
        first = sha(out)
        parse_and_dispatch(["simulate", "--scenario", str(scenario_file), "--out", str(out)])
        assert sha(out) == first  # same command line, same bytes

    def test_inputs_never_mutated(self, tmp_path, scenario_file):
        out = tmp_path / "panel.csv"
        before = sha(scenario_file)
        parse_and_dispatch(["simulate", "--scenario", str(scenario_file), "--out", str(out)])
        assert sha(scenario_file) == before

    def test_estimate_writes_report_and_te(self, tmp_path, scenario_file):
        panel_csv = tmp_path / "panel.csv"
        parse_and_dispatch(
            ["simulate", "--scenario", str(scenario_file), "--out", str(panel_csv)]
        )
        report = tmp_path / "report.json"
        te_csv = tmp_path / "te.csv"
        code = parse_and_dispatch(
            [
                "estimate",
                "--panel",
                str(panel_csv),
                "--out",
                str(report),
                "--te-out",
                str(te_csv),
            ]
        )
        assert code == 0
        payload = json.loads(report.read_text())
        assert abs(payload["rho_hat"]) < 1
        assert "clamp_count" in payload and payload["meta"]["version"]
        te, units, periods = read_te_csv(str(te_csv))
        assert te.shape == (8, 9)
        assert np.all(te > math.exp(-1)) and np.all(te < 1)

    def test_temporal_rejection_exit_code(self, tmp_path):
        # plant a near-unit-root unit so the temporal test must reject
        rng = np.random.default_rng(1)
        n, t = 8, 24
        log_output = rng.normal(size=(n, t)) * 0.3
        for s in range(1, t):
            log_output[0, s] = 0.97 * log_output[0, s - 1] + rng.normal(0, 0.3)
        from stfrontier import PanelDataset

        panel = PanelDataset(
            log_output=log_output,
            log_inputs=rng.normal(size=(n, t, 1)),
            spatial=rng.normal(size=(n, t, 1)),
            covariates=rng.normal(size=(n, t, 1)),
        )
        panel_csv = tmp_path / "panel.csv"
        write_panel_csv(panel, str(panel_csv))
        out = tmp_path / "report.json"
        code = parse_and_dispatch(
            [
                "test-temporal",
                "--panel",
                str(panel_csv),
                "--series-source",
                "log-output",
                "--boot-k",
                "200",
                "--seed",
                "7",
                "--out",
                str(out),
            ]
        )
        assert code == 3
        assert json.loads(out.read_text())["reject"] is True

    def test_spatial_on_estimated_te_fails_to_reject(self, tmp_path, scenario_file):
        # model-predicted TE shares one spatial slope across periods, so the
        # per-period intervals all contain the reference
        panel_csv = tmp_path / "panel.csv"
        parse_and_dispatch(
            ["simulate", "--scenario", str(scenario_file), "--out", str(panel_csv)]
        )
        out = tmp_path / "spatial.json"
        code = parse_and_dispatch(
            [
                "test-spatial",
                "--panel",
                str(panel_csv),
                "--boot-k",
                "150",
                "--seed",
                "3",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        assert json.loads(out.read_text())["reject"] is False

    def test_spatial_te_paired_by_label(self, tmp_path, scenario_file):
        panel_csv = tmp_path / "panel.csv"
        te_csv = tmp_path / "te.csv"
        parse_and_dispatch(["simulate", "--scenario", str(scenario_file), "--out", str(panel_csv)])
        parse_and_dispatch(
            ["estimate", "--panel", str(panel_csv), "--out", str(tmp_path / "e.json"),
             "--te-out", str(te_csv)]
        )
        lines = te_csv.read_text().splitlines()
        start = next(i for i, line in enumerate(lines) if not line.startswith("#")) + 1
        units = list(dict.fromkeys(line.split(",")[0] for line in lines[start:]))
        reordered = [
            line for unit in reversed(units) for line in lines[start:]
            if line.split(",")[0] == unit
        ]
        reversed_csv = tmp_path / "te_reversed.csv"
        reversed_csv.write_text("\n".join(lines[:start] + reordered) + "\n")

        reports = []
        for te in (te_csv, reversed_csv):
            out = tmp_path / f"spatial-{te.stem}.json"
            parse_and_dispatch(
                ["test-spatial", "--panel", str(panel_csv), "--te", str(te),
                 "--boot-k", "150", "--seed", "3", "--out", str(out)]
            )
            payload = json.loads(out.read_text())
            payload.pop("meta")
            reports.append(payload)
        assert reports[0] == reports[1]

    def test_spatial_te_label_mismatch_named(self, tmp_path, scenario_file, capsys):
        panel_csv = tmp_path / "panel.csv"
        te_csv = tmp_path / "te.csv"
        parse_and_dispatch(["simulate", "--scenario", str(scenario_file), "--out", str(panel_csv)])
        parse_and_dispatch(
            ["estimate", "--panel", str(panel_csv), "--out", str(tmp_path / "e.json"),
             "--te-out", str(te_csv)]
        )
        text = te_csv.read_text()
        renamed = tmp_path / "te_renamed.csv"
        renamed.write_text(text.replace("\n3,", "\nx3,"))
        extra = tmp_path / "te_extra.csv"
        extra.write_text(text + "".join(f"99,{p},0.8\n" for p in range(9)))
        for te, message in ((renamed, "lacks the panel's unit '3'"), (extra, "unit '99'")):
            code = parse_and_dispatch(
                ["test-spatial", "--panel", str(panel_csv), "--te", str(te),
                 "--boot-k", "150", "--seed", "3", "--out", str(tmp_path / "s.json")]
            )
            assert code == 1
            assert message in capsys.readouterr().err

    def test_power_grid_csv(self, tmp_path):
        grid = tmp_path / "grid.json"
        grid.write_text(
            json.dumps(
                {
                    "test_kinds": ["spatial"],
                    "n_values": [8],
                    "t_values": [9],
                    "dominances": ["equal"],
                    "fractions": [0.2],
                    "shifts": [1.5],
                    "boot_k": 100,
                    "alpha": 0.1,
                }
            )
        )
        out = tmp_path / "table.csv"
        code = parse_and_dispatch(
            ["power", "--grid", str(grid), "--reps", "2", "--seed", "9", "--out", str(out)]
        )
        assert code == 0
        lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert lines[0] == "test,n,T,dominance,fraction,shift,reps,rejections,rate"
        assert len(lines) == 3

    def test_usage_errors_exit_one(self, tmp_path):
        assert parse_and_dispatch(["estimate", "--panel", "nope.csv", "--out", "x.json"]) == 1
        bad = tmp_path / "bad.csv"
        bad.write_text("unit,period,y,x1,w1,z1\na,1,-1.0,1.0,0.0,0.0\n")
        assert (
            parse_and_dispatch(
                ["estimate", "--panel", str(bad), "--out", str(tmp_path / "r.json")]
            )
            == 1
        )

    def test_negative_seed_rejected(self, tmp_path, scenario_file):
        code = parse_and_dispatch(
            [
                "simulate",
                "--scenario",
                str(scenario_file),
                "--seed",
                "-4",
                "--out",
                str(tmp_path / "p.csv"),
            ]
        )
        assert code == 1
