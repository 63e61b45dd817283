import csv
import hashlib
import io
import json
import math
import os
import pathlib
import re
import subprocess
import sys
import textwrap
import threading
import time
import tracemalloc
from array import array
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import stfrontier
import stfrontier.io as stio
from stfrontier import (
    DOMINANCE_SHARES,
    DataError,
    GridSpec,
    ModelParams,
    PanelDataset,
    PowerCell,
    PowerTable,
    Scenario,
    ValidationError,
    run_grid,
    simulate_panel,
)
from stfrontier.cli import _build_parser, parse_and_dispatch
from stfrontier.io import (
    _parse_header,
    read_grid_json,
    read_panel_csv,
    read_scenario_json,
    read_te_csv,
    write_json,
    write_panel_csv,
    write_scenario_json,
    write_te_csv,
)
from stfrontier.types import as_count

from dispatch_path import dispatch_path
from reports import assert_reports_close


def sha(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def simulated_panel(seed=5, n=6, t=5):
    return simulate_panel(Scenario(n_units=n, n_periods=t, seed=seed))[0]


BASIC_HEADER = "unit,period,y,x1,w1,z1"


def write_rows(path, rows, header=BASIC_HEADER):
    path.write_text("\n".join([header] + rows) + "\n")


def package_env(**extra):
    """This process's environment and `extra`, with the package's source
    first on PYTHONPATH, for a subprocess."""
    src = os.path.dirname(os.path.dirname(stio.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, **extra, "PYTHONPATH": path}


def run_cli(cwd, argv, python=(), **env):
    """The CLI's main() in a subprocess with interpreter options `python`;
    arguments given as bytes reach it as a shell passes them."""
    return subprocess.run(
        [sys.executable, *python, "-c", "from stfrontier.cli import main; main()", *argv],
        cwd=cwd, env=package_env(**env), capture_output=True, timeout=300,
    )


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


# ---------------------------------------------------------------------------
# The row-loop readers that np.loadtxt replaced, kept as the reference: one
# csv.reader row and one float() per field at a time.


class _OracleCells:
    def __init__(self, width):
        self.units, self.periods = {}, {}
        self._seen = set()
        self._unit_pos, self._period_pos = array("q"), array("q")
        self._values = array("d")
        self._width = width

    def add(self, unit, period, values):
        key = (
            self.units.setdefault(unit, len(self.units)),
            self.periods.setdefault(period, len(self.periods)),
        )
        if key in self._seen:
            return False
        self._seen.add(key)
        self._unit_pos.append(key[0])
        self._period_pos.append(key[1])
        self._values.extend(values)
        return True

    def grid(self, what):
        n, t = len(self.units), len(self.periods)
        if len(self._seen) != n * t:
            for unit, i in self.units.items():
                for period, j in self.periods.items():
                    if (i, j) not in self._seen:
                        raise DataError(
                            f"unbalanced {what}: missing cell (unit {unit}, period {period})"
                        )
        out = np.empty((n, t, self._width))
        rows = np.frombuffer(self._unit_pos, dtype=np.int64)
        cols = np.frombuffer(self._period_pos, dtype=np.int64)
        out[rows, cols] = np.frombuffer(self._values, dtype=float).reshape(-1, self._width)
        return out


def oracle_read_panel_csv(path):
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        header = None
        p = q = r = 0
        for lineno, fields in enumerate(reader, start=1):
            if not fields or fields[0].lstrip().startswith("#"):
                continue
            if header is None:
                header = fields
                p, q, r = _parse_header(fields)
                cells = _OracleCells(1 + p + q + r)
                continue
            if len(fields) != 3 + p + q + r:
                raise DataError(
                    f"row {lineno}: expected {3 + p + q + r} fields, got {len(fields)}"
                )
            unit, period = fields[0], fields[1]
            try:
                values = [float(v) for v in fields[2:]]
            except ValueError as err:
                raise DataError(f"row {lineno}: malformed number: {err}") from err
            if not all(map(math.isfinite, values)):
                raise DataError(f"row {lineno}: non-finite value")
            if values[0] <= 0:
                raise DataError(
                    f"row {lineno}: output must be positive to take logs, got y={values[0]!r}"
                )
            for j, x_val in enumerate(values[1 : 1 + p], start=1):
                if x_val <= 0:
                    raise DataError(
                        f"row {lineno}: input x{j} must be positive to take logs, "
                        f"got {x_val!r}"
                    )
            if not cells.add(unit, period, values):
                raise DataError(f"row {lineno}: duplicate cell (unit {unit}, period {period})")
    if header is None:
        raise DataError(f"{path}: no header row found")
    table = cells.grid("panel")
    logs = np.log(table[..., : 1 + p])
    return PanelDataset(
        log_output=logs[..., 0],
        log_inputs=logs[..., 1:],
        spatial=table[..., 1 + p : 1 + p + q],
        covariates=table[..., 1 + p + q :],
        unit_ids=tuple(cells.units),
        period_ids=tuple(cells.periods),
    )


def oracle_read_te_csv(path):
    cells = _OracleCells(1)
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        header = None
        for lineno, fields in enumerate(reader, start=1):
            if not fields or fields[0].lstrip().startswith("#"):
                continue
            if header is None:
                if fields != ["unit", "period", "te"]:
                    raise DataError(f"TE CSV must have header unit,period,te; got {fields}")
                header = fields
                continue
            if len(fields) != 3:
                raise DataError(f"row {lineno}: expected 3 fields, got {len(fields)}")
            try:
                value = float(fields[2])
            except ValueError as err:
                raise DataError(f"row {lineno}: malformed number: {err}") from err
            if not cells.add(fields[0], fields[1], (value,)):
                raise DataError(f"row {lineno}: duplicate cell {(fields[0], fields[1])}")
    if header is None:
        raise DataError(f"{path}: no header row found")
    return cells.grid("TE matrix")[..., 0], tuple(cells.units), tuple(cells.periods)


def outcome(read, path):
    """What a reader makes of a file: its arrays and labels, or its error."""
    try:
        result = read(str(path))
    except Exception as err:  # the error class and message are compared
        return type(err), str(err)
    if isinstance(result, PanelDataset):
        result = (
            result.log_output, result.log_inputs, result.spatial, result.covariates,
            result.unit_ids, result.period_ids,
        )
    return result


def assert_equal_outcomes(new, old):
    assert len(new) == len(old)
    for a, b in zip(new, old):
        if isinstance(a, np.ndarray):
            assert np.array_equal(a, b, equal_nan=True)
        else:
            assert a == b


def assert_same_outcome(path, te=False):
    new, old = (
        outcome(read, path)
        for read in ((read_te_csv, oracle_read_te_csv) if te
                     else (read_panel_csv, oracle_read_panel_csv))
    )
    assert_equal_outcomes(new, old)
    return new


@pytest.fixture(params=["one-block", "many-blocks", "split"])
def read_blocks(request, monkeypatch):
    """Run each reader test on whole-file blocks, on blocks of one or two
    lines, and on such blocks with the file split between this process and
    a forked child wherever a line starts past its middle."""
    if request.param != "one-block":
        monkeypatch.setattr(stio, "_READ_BLOCK_CHARS", 40)
        monkeypatch.setattr(stio, "_SPLIT_MIN_BLOCKS", 2)
        cpus = set(range(2 if request.param == "split" else 1))
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)


def body_start(lines):
    return next(i for i, line in enumerate(lines) if not line.startswith("#")) + 1


def shuffled(text):
    lines = text.splitlines()
    start = body_start(lines)
    body = lines[start:]
    np.random.default_rng(4).shuffle(body)
    return "\n".join(lines[:start] + body) + "\n"


def with_comments_and_blanks(text):
    lines = text.splitlines()
    out = lines[: body_start(lines)]
    for i, line in enumerate(lines[body_start(lines):]):
        out.append(line)
        out.extend(["", "# note", "  # indented note", '"# quoted note",1', ""][i % 6 :][:2])
    return "\n".join(out) + "\n"


def padded(text):
    """Blanks around every number; the values are split off from the right,
    so quoted labels keep their commas."""
    lines = text.splitlines()
    start = body_start(lines)
    width = lines[start - 1].count(",") - 1
    body = []
    for line in lines[start:]:
        if line and not line.startswith("#"):
            fields = line.rsplit(",", width)
            values = [f" {v}\t" if k % 2 else f"  {v}" for k, v in enumerate(fields[1:])]
            line = ",".join(fields[:1] + values)
        body.append(line)
    return "\n".join(lines[:start] + body) + "\n"


def with_value(line, column, value):
    """The line with its field ``column`` replaced by ``value``."""
    fields = line.split(",")
    fields[column] = value
    return ",".join(fields)


def panel_text(tmp_path, params=None, unit_ids=None, period_ids=None):
    scenario = Scenario(n_units=7, n_periods=6, seed=8, base_params=params or ModelParams())
    panel = simulate_panel(scenario)[0]
    if unit_ids is not None:
        panel = PanelDataset(
            panel.log_output, panel.log_inputs, panel.spatial, panel.covariates,
            unit_ids, period_ids,
        )
    path = tmp_path / "source.csv"
    write_panel_csv(panel, str(path), {"command": "test", "seed": 8})
    return path.read_text()


class TestReaderMatchesRowLoop:
    """The np.loadtxt readers against the row-loop readers they replaced."""

    @pytest.mark.parametrize(
        "transform",
        [
            lambda t: t, shuffled, lambda t: t.replace("\n", "\r\n"),
            with_comments_and_blanks, padded,
        ],
        ids=["as-written", "shuffled", "crlf", "comments-and-blanks", "padded-numbers"],
    )
    def test_same_arrays_and_labels(self, tmp_path, read_blocks, transform):
        target = tmp_path / "panel.csv"
        target.write_bytes(transform(panel_text(tmp_path)).encode())
        result = assert_same_outcome(target)
        assert isinstance(result, tuple) and result[0].shape == (7, 6)

    def test_quoted_labels(self, tmp_path, read_blocks):
        units = ("a,b", 'c"d', "e#f", "g#", " h", '"i"', "j")
        periods = ("1", "2,3", 'x""y', "#4", "5 ", "6")
        text = panel_text(tmp_path, unit_ids=units, period_ids=periods)
        assert '"a,b"' in text and '"c""d"' in text and ",#4," in text
        target = tmp_path / "panel.csv"
        target.write_text(shuffled(text))
        result = assert_same_outcome(target)
        assert set(result[4]) == set(units) and set(result[5]) == set(periods)
        # a unit label that starts with '#' would read back as a comment line,
        # so the writer refuses it
        for label in ("#g", " \t#g"):
            with pytest.raises(ValidationError, match=re.escape(repr(label))):
                panel_text(tmp_path, unit_ids=units[:3] + (label,) + units[4:], period_ids=periods)

    def test_long_labels(self, tmp_path, read_blocks):
        # plain-block labels keyed by one, two and four words, sharing prefixes
        units = ("abcdefgh", "abcdefghi", "abcdefghij" * 3, "a", "", "abcdefgh" * 2, "é" * 9)
        periods = ("period-0000000001", "period-0000000002", "p", "period-00000000010", "x" * 8, "9")
        text = panel_text(tmp_path, unit_ids=units, period_ids=periods)
        target = tmp_path / "panel.csv"
        target.write_text(shuffled(text))
        result = assert_same_outcome(target)
        assert set(result[4]) == set(units) and set(result[5]) == set(periods)

    BLANK_UNITS = ("New York", "x  y", " lead", "trail ", "t 1", "u", "v")
    BLANK_PERIODS = ("t 1", "2", " 3", "4 ", "5  5", "x  y")

    def _blank_labelled(self, tmp_path, edit):
        """The blank-labelled panel as written, with ``edit`` applied to its
        list of body lines, shuffled."""
        text = panel_text(tmp_path, unit_ids=self.BLANK_UNITS, period_ids=self.BLANK_PERIODS)
        lines = text.splitlines()
        start = body_start(lines)
        target = tmp_path / "panel.csv"
        target.write_text(shuffled("\n".join(lines[:start] + edit(lines[start:])) + "\n"))
        return target

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda body: body, None),
            (lambda body: body + body[:1], "duplicate cell (unit New York, period t 1)"),
            (lambda body: body[1:], "missing cell (unit New York, period t 1)"),
            (lambda body: [with_value(body[0], 2, "0")] + body[1:], "output must be positive"),
            (lambda body: [with_value(body[0], 3, "oops")] + body[1:], "malformed number"),
            (lambda body: [with_value(body[0], 3, " 1.5")] + body[1:], None),
        ],
        ids=["as-written", "duplicate", "missing", "y-zero", "malformed", "blank-in-a-value"],
    )
    def test_blank_labels_read_as_loadtxt_reads_them(
        self, tmp_path, read_blocks, monkeypatch, edit, message
    ):
        target = self._blank_labelled(tmp_path, edit)
        kernel = assert_same_outcome(target)
        monkeypatch.setattr(stio, "_plain_rows", lambda text, width, labels: None)
        assert_equal_outcomes(kernel, outcome(read_panel_csv, target))
        if message is None:
            assert set(kernel[4]) == set(self.BLANK_UNITS)
            assert set(kernel[5]) == set(self.BLANK_PERIODS)
        else:
            assert kernel[0] is DataError and message in kernel[1]

    def test_blank_labels_need_no_loadtxt(self, tmp_path, read_blocks, monkeypatch):
        target = self._blank_labelled(tmp_path, lambda body: body)
        expected = outcome(oracle_read_panel_csv, target)

        def refuse(lines, dtype):
            raise AssertionError("np.loadtxt was called")

        monkeypatch.setattr(stio, "_loadtxt", refuse)
        assert_equal_outcomes(outcome(read_panel_csv, target), expected)

    def test_a_blank_in_a_value_leaves_the_block_to_loadtxt(self):
        assert stio._plain_rows("New York, t 1 ,1.5,2\n", 2, ({}, {})) is not None
        for line in ("a,b, 1.5,2\n", "a,b,1.5 ,2\n", "a,b,1.5,2 \n", "a,b,1.5, \n"):
            assert stio._plain_rows(line, 2, ({}, {})) is None

    def test_three_inputs(self, tmp_path, read_blocks):
        params = ModelParams(beta=(0.3, 0.2, 0.1))
        target = tmp_path / "panel.csv"
        target.write_text(with_comments_and_blanks(panel_text(tmp_path, params)))
        result = assert_same_outcome(target)
        assert result[1].shape == (7, 6, 3)

    def test_large_panel(self, tmp_path, read_blocks):
        # on the AVX-512 path, enough values for np.log and math.log to differ
        # in the last bit, so a reader that took ln y with math.log would not
        # match the oracle; on the portable path the two logs agree
        panel = simulate_panel(Scenario(n_units=300, n_periods=20, seed=3))[0]
        target = tmp_path / "panel.csv"
        write_panel_csv(panel, str(target))
        y = np.exp(panel.log_output)
        differs = np.log(y) != np.array([math.log(v) for v in y.ravel()]).reshape(y.shape)
        assert differs.any() == (dispatch_path() == "avx512")
        assert_same_outcome(target)

    @pytest.mark.parametrize("field", ["1e5", "nan", "+1", "1_000", "12345678901234567890", ""])
    def test_one_odd_field_in_a_large_plain_block(self, tmp_path, read_blocks, field):
        # the kernel leaves the field to np.loadtxt, or the block to the row parser
        panel = simulate_panel(Scenario(n_units=100, n_periods=20, seed=3))[0]
        target = tmp_path / "panel.csv"
        write_panel_csv(panel, str(target))
        lines = target.read_text().splitlines(keepends=True)
        middle = len(lines) // 2
        cells = lines[middle].split(",")
        cells[4] = field  # x2
        lines[middle] = ",".join(cells)
        target.write_text("".join(lines))
        if field == "1_000":  # float() takes it and np.loadtxt does not (TestReaderSyntax)
            with pytest.raises(DataError, match=f"row {middle + 1}: malformed number: .*'1_000'"):
                read_panel_csv(str(target))
        else:
            assert_same_outcome(target)

    def test_writer_output_needs_no_loadtxt(self, tmp_path, read_blocks, monkeypatch):
        # every value of this panel is in the kernel's domain, so only the
        # kernel can read it
        panel = simulate_panel(Scenario(n_units=300, n_periods=20, seed=3))[0]
        target = tmp_path / "panel.csv"
        write_panel_csv(panel, str(target))
        expected = outcome(oracle_read_panel_csv, target)

        def refuse(lines, dtype):
            raise AssertionError("np.loadtxt was called")

        monkeypatch.setattr(stio, "_loadtxt", refuse)
        for a, b in zip(outcome(read_panel_csv, target), expected):
            assert np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b

    def test_reader_memory_peak(self, tmp_path):
        # 29.0 MiB when np.loadtxt parsed every block of this panel
        panel = simulate_panel(Scenario(n_units=2000, n_periods=60, seed=4))[0]
        target = str(tmp_path / "panel.csv")
        write_panel_csv(panel, target)
        read_panel_csv(target)  # warm caches outside the measurement
        tracemalloc.start()
        try:
            read_panel_csv(target)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 29 * 2**20

    def test_te_csv(self, tmp_path, read_blocks):
        te = np.random.default_rng(2).uniform(0.2, 1.0, size=(5, 4))
        te[1, 2] = np.nan
        target = tmp_path / "te.csv"
        write_te_csv(te, ["a,b", "c", "d", 'e"', "f"], [1, 2, 3, 4], str(target), {"seed": 1})
        target.write_text(padded(with_comments_and_blanks(shuffled(target.read_text()))))
        result = assert_same_outcome(target, te=True)
        assert result[0].shape == (5, 4) and np.isnan(result[0]).sum() == 1

    HEADER = "# version: x\nunit,period,y,x1,x2,w1,z1\n"
    GOOD = ["a,1,1.0,1.0,2.0,0.1,0.2", "a,2,1.5,1.0,2.0,0.1,0.2",
            "b,1,1.0,1.0,2.0,0.1,0.2", "b,2,1.0,1.0,2.0,0.1,0.2"]

    @pytest.mark.parametrize(
        "rows, message",
        [
            (GOOD[:2] + ["b,1,oops,1.0,2.0,0.1,0.2"] + GOOD[3:], "row 6: malformed number"),
            (GOOD[:2] + ["b,1,,1.0,2.0,0.1,0.2"] + GOOD[3:], "row 6: malformed number"),
            (GOOD[:2] + ["b,1,1.0,1.0,2.0,0.1"] + GOOD[3:], "row 6: expected 7 fields, got 6"),
            (GOOD[:2] + ["b,1,1.0,1.0,2.0,0.1,0.2,9"] + GOOD[3:], "row 6: expected 7 fields"),
            (GOOD[:2] + ["   "] + GOOD[2:], "row 6: expected 7 fields, got 1"),
            (GOOD[:3] + ["b,2,1.0,1.0,2.0,nan,0.2"], "row 7: non-finite value"),
            (GOOD[:3] + ["b,2,1.0,1.0,2.0,0.1,-inf"], "row 7: non-finite value"),
            (GOOD[:1] + ["a,2,-0.0,1.0,2.0,0.1,0.2"] + GOOD[2:], "row 5: output must be"),
            (GOOD[:1] + ["a,2,1.0,1.0,0,0.1,0.2"] + GOOD[2:], "row 5: input x2 must be"),
            (GOOD[:1] + ["a,2,1.0,-3.5,0,0.1,0.2"] + GOOD[2:], "row 5: input x1 must be"),
            (GOOD + ["a,2,1.0,1.0,2.0,0.1,0.2"], "row 8: duplicate cell (unit a, period 2)"),
            (GOOD[:3], "missing cell (unit b, period 2)"),
            (GOOD[:1] + ["a,2,0.0,1.0,2.0,0.1,0.2", "b,1,oops,1,2,3,4"], "row 5: output must be"),
            (GOOD + ["c,1,1,oops,2,3,4", "c,2,0,1,2,3,4"], "row 8: malformed number"),
            (GOOD + GOOD[:1] + ["b,1,oops,1,2,3,4"], "row 8: duplicate cell"),
            (GOOD[:1] + ["b,2,1.0,1.0,2.0,0.1,0.2", "c,1,1,1,1,1,1,1"],
             "row 6: expected 7 fields, got 8"),
            ([], "at least two spatial units required"),
        ],
        ids=[
            "malformed", "empty-number", "too-few-fields", "too-many-fields", "blank-spaces",
            "nan", "inf", "y-zero", "x2-zero", "x1-negative", "duplicate", "missing",
            "y-before-malformed", "malformed-before-bad-y", "duplicate-before-malformed",
            "field-count-before-missing", "header-only",
        ],
    )
    def test_same_panel_errors(self, tmp_path, read_blocks, rows, message):
        target = tmp_path / "panel.csv"
        target.write_text(self.HEADER + "\n".join(["# c"] + rows) + "\n")
        error = assert_same_outcome(target)
        assert message in error[1]

    @pytest.mark.parametrize(
        "text, message",
        [
            ("unit,period,te\na,1,0.5\nb,1,x\n", "row 3: malformed number"),
            ("unit,period,te\na,1,0.5\nb,1\n", "row 3: expected 3 fields, got 2"),
            ("unit,period,te\na,1,0.5\na,1,0.6\n", "row 3: duplicate cell ('a', '1')"),
            ("unit,period,te\na,1,0.5\nb,2,0.6\n", "missing cell (unit a, period 2)"),
            ("unit,period,tee\na,1,0.5\n", "TE CSV must have header"),
            ("# only a comment\n\n", "no header row found"),
        ],
        ids=["malformed", "field-count", "duplicate", "missing", "bad-header", "no-header"],
    )
    def test_same_te_errors(self, tmp_path, read_blocks, text, message):
        target = tmp_path / "te.csv"
        target.write_text(text)
        error = assert_same_outcome(target, te=True)
        assert message in error[1]

    def test_same_header_errors(self, tmp_path):
        for text in ("", "# only\n", "unit,period,y,x1,w1\n", "unit,period,y,x1,w1,q1\n"):
            target = tmp_path / "panel.csv"
            target.write_text(text)
            error = assert_same_outcome(target)
            assert error[0] is DataError

    def test_header_only_te_is_empty(self, tmp_path):
        target = tmp_path / "te.csv"
        target.write_text("# c\nunit,period,te\n\n")
        te, units, periods = assert_same_outcome(target, te=True)
        assert te.shape == (0, 0) and units == periods == ()


class TestReaderSyntax:
    """Where the np.loadtxt reader departs from the row loop, on purpose."""

    @pytest.mark.parametrize("number", ["1_000", "٣", "1_0.5"])
    def test_float_only_number_syntax_is_malformed(self, tmp_path, number):
        # float() takes underscores and non-ASCII digits; np.loadtxt does not
        target = tmp_path / "panel.csv"
        write_rows(target, ["a,1,1.0,1.0,0.1,0.2", f"a,2,{number},1.0,0.1,0.2",
                            "a,3,1.0,1.0,0.1,0.2", "b,1,1.0,1.0,0.1,0.2",
                            "b,2,1.0,1.0,0.1,0.2", "b,3,1.0,1.0,0.1,0.2"])
        assert oracle_read_panel_csv(str(target)).log_output[0, 1] == np.log(float(number))
        with pytest.raises(
            DataError,
            match=f"row 3: malformed number: could not convert string to float: '{number}'",
        ):
            read_panel_csv(str(target))

    def test_field_spanning_lines_rejected(self, tmp_path):
        # a quoted field must close on its line: one line is one row
        # the bytes the writer gave a label with a line break, before it refused one
        target = tmp_path / "te.csv"
        target.write_text(oracle_long_csv(["# version: " + stio.__version__], ["a\nb", "c"],
                                          [1, 2, 3], {"te": np.full((2, 3), 0.5)}))
        assert oracle_read_te_csv(str(target))[1] == ("a\nb", "c")
        with pytest.raises(DataError, match="row 3: quoted field not closed on its line"):
            read_te_csv(str(target))
        target.write_text('unit,period,te\na,1,"0.5\nb,1,0.3\n"\n')
        with pytest.raises(DataError, match="row 2: quoted field not closed on its line"):
            read_te_csv(str(target))

    def test_reads_from_a_pipe(self, tmp_path):
        fifo = tmp_path / "te.fifo"
        os.mkfifo(fifo)
        writer = threading.Thread(
            target=fifo.write_text, args=("unit,period,te\na,1,0.5\n",), daemon=True
        )
        writer.start()
        try:
            assert read_te_csv(str(fifo))[1:] == (("a",), ("1",))
        finally:
            writer.join(timeout=10)
        assert not writer.is_alive()

    def test_byte_order_mark_accepted(self, tmp_path):
        source = tmp_path / "panel.csv"
        source.write_text(panel_text(tmp_path))
        marked = tmp_path / "marked.csv"
        marked.write_bytes(b"\xef\xbb\xbf" + source.read_bytes())
        a, b = read_panel_csv(str(source)), read_panel_csv(str(marked))
        assert a.unit_ids == b.unit_ids and np.array_equal(a.log_output, b.log_output)
        te = tmp_path / "te.csv"
        te.write_bytes(b"\xef\xbb\xbfunit,period,te\r\na,1,0.5\r\n")
        assert read_te_csv(str(te))[1:] == (("a",), ("1",))


def oracle_long_csv(meta_lines, unit_ids, period_ids, columns):
    """The text the column-wise writer produced before it wrote in blocks."""
    t = len(period_ids)
    cells = [
        list(map(repr, np.asarray(v, dtype=float).ravel().tolist())) for v in columns.values()
    ]
    units = [label for label in map(str, unit_ids) for _ in range(t)]
    periods = [str(period) for period in period_ids] * len(unit_ids)
    buf = io.StringIO()
    buf.writelines(line + "\n" for line in meta_lines)
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["unit", "period", *columns])
    writer.writerows(zip(units, periods, *cells))
    return buf.getvalue()


class TestWriter:
    # a unit's three rows take 180 bytes of row matrix, so these are all the
    # units, two and one to a block
    @pytest.mark.parametrize("block_bytes", [1 << 20, 360, 1])
    def test_blocks_write_the_column_wise_bytes(self, tmp_path, monkeypatch, block_bytes):
        monkeypatch.setattr(stio, "_WRITE_BLOCK_BYTES", block_bytes)
        scales = 10.0 ** np.arange(-6, 9).reshape(5, 3)  # plain and exponent reprs
        te = np.random.default_rng(3).uniform(size=(5, 3)) * scales
        units, periods = ["a,b", 'c"d', "e#f", "", 5], ["1", " 2", "#x y"]
        target = tmp_path / "te.csv"
        write_te_csv(te, units, periods, str(target), {"command": "t", "seed": 2})
        expected = oracle_long_csv(["# version: " + stio.__version__, "# command: t", "# seed: 2"],
                                   units, periods, {"te": te})
        assert target.read_bytes() == expected.encode()

    def test_non_ascii_labels_are_written_as_utf8(self, tmp_path):
        te = np.random.default_rng(8).uniform(size=(3, 2))
        units, periods = ["é", "単位", 'a"é,'], ["1", "期間 2"]
        target = tmp_path / "te.csv"
        write_te_csv(te, units, periods, str(target), {"command": "t", "seed": 2})
        expected = oracle_long_csv(["# version: " + stio.__version__, "# command: t", "# seed: 2"],
                                   units, periods, {"te": te})
        assert target.read_bytes() == expected.encode("utf-8")
        assert read_te_csv(str(target))[1:] == (tuple(units), tuple(periods))

    @pytest.mark.parametrize("units, periods", [(["a", "b"], []), ([], ["1", "2", "3"])])
    def test_empty_matrix_writes_the_header_only(self, tmp_path, units, periods):
        target = tmp_path / "te.csv"
        te = np.empty((len(units), len(periods)))
        write_te_csv(te, units, periods, str(target), {"command": "t"})
        expected = oracle_long_csv(["# version: " + stio.__version__, "# command: t"],
                                   units, periods, {"te": te})
        assert target.read_text() == expected

    # the seed was fixed before these digests were recorded from the writer
    # that called repr() once per value; both were recorded again when expit
    # came to use numpy's exp (ledger D22), and for the portable path at D26
    PINNED_PANEL_AND_TE = {
        "avx512": (
            "2eece611e758f36c304be24d0170b8cc3668691f7356053d6752cfe3999e6a5f",
            "f980391f6e5d5c8d7267c2a798709f5e977ea613a8700624b802dc1eca5225c7",
        ),
        "portable": (
            "e90597e5c42df20223c6a0f21671230674b549e5e99f5650ba8b5f2b2c1ca5e9",
            "a92afd5cf9c3c36371278d43fbc5864fcf1c546983d4b17fdac19118f267474f",
        ),
    }

    def test_pinned_panel_and_te_bytes(self, tmp_path):
        panel, _, u, _ = simulate_panel(Scenario(n_units=300, n_periods=60, seed=3031))
        meta = {"command": "pinned", "seed": 3031}
        write_panel_csv(panel, str(tmp_path / "panel.csv"), meta)
        write_te_csv(np.exp(-u), panel.unit_ids, panel.period_ids, str(tmp_path / "te.csv"), meta)
        assert (sha(tmp_path / "panel.csv"), sha(tmp_path / "te.csv")) == (
            self.PINNED_PANEL_AND_TE[dispatch_path()]
        )

    def test_memory_peak_below_the_readers(self, tmp_path):
        # read_panel_csv peaked at 29.0 MiB on this panel when np.loadtxt
        # parsed every block, so the writer stays below the peak that
        # estimating from the same CSV reached anyway
        panel = simulate_panel(Scenario(n_units=2000, n_periods=60, seed=4))[0]
        target = str(tmp_path / "panel.csv")
        write_panel_csv(panel, target)  # warm caches outside the measurement
        tracemalloc.start()
        try:
            write_panel_csv(panel, target)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 29 * 2**20

    @pytest.mark.parametrize(
        "units, periods, bad",
        [
            (["a\nb", "c"], [1, 2, 3], "a\nb"),
            (["a", "c\r"], [1, 2, 3], "c\r"),
            (["a", "c"], [1, "2\r\n", 3], "2\r\n"),
            (["a", "#c"], [1, 2, 3], "#c"),
            (["a", " \t#c"], [1, 2, 3], " \t#c"),
        ],
    )
    def test_labels_that_would_not_read_back_are_rejected(self, tmp_path, units, periods, bad):
        target = tmp_path / "te.csv"
        with pytest.raises(ValidationError, match=re.escape(repr(bad))):
            write_te_csv(np.full((2, 3), 0.5), units, periods, str(target))
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("kind", ["unit", "period"])
    @pytest.mark.parametrize("labels, repeated", [(("a", "a", "b"), "a"), ((1, "1", 2), "1")])
    def test_labels_whose_text_repeats_are_rejected(self, tmp_path, kind, labels, repeated):
        # the readers key rows by label text, so these files would not read back;
        # a PanelDataset refuses such labels itself, so only the TE writer sees them
        ids = {"unit_ids": ("u0", "u1", "u2"), "period_ids": ("p0", "p1", "p2")}
        ids[f"{kind}_ids"] = labels
        target = tmp_path / "te.csv"
        message = re.escape(f"{kind} label {repeated!r} repeats")
        with pytest.raises(ValidationError, match=message):
            write_te_csv(np.full((3, 3), 0.5), *ids.values(), str(target))
        assert not target.exists()

    @pytest.mark.parametrize("writer", ["te", "panel"])
    @pytest.mark.parametrize("kind, ids, bad", [
        ("unit", {"unit_ids": ("a", "b\udcff", "c")}, "b\udcff"),
        ("period", {"period_ids": ("1", "\ud800", "3")}, "\ud800"),
    ])
    def test_labels_that_are_not_utf8_are_rejected(self, tmp_path, writer, kind, ids, bad):
        # a lone surrogate has no UTF-8 bytes: the writer once wrote b"b\udcff"
        # as ED B3 BF, which the reader refuses as not UTF-8 text
        panel = simulated_panel(n=3, t=3)
        labels = {"unit_ids": panel.unit_ids, "period_ids": panel.period_ids, **ids}
        target = tmp_path / f"{writer}.csv"
        with pytest.raises(ValidationError, match=re.escape(f"{kind} label {bad!r}")):
            if writer == "te":
                write_te_csv(np.full((3, 3), 0.8), *labels.values(), str(target))
            else:
                arrays = (panel.log_output, panel.log_inputs, panel.spatial, panel.covariates)
                write_panel_csv(PanelDataset(*arrays, **labels), str(target))
        assert list(tmp_path.iterdir()) == []

    def test_new_files_get_the_umask_mode(self, tmp_path):
        old = os.umask(0o027)
        try:
            write_panel_csv(simulated_panel(), str(tmp_path / "panel.csv"))
            write_json({"a": 1}, str(tmp_path / "report.json"))
        finally:
            os.umask(old)
        for name in ("panel.csv", "report.json"):
            assert (tmp_path / name).stat().st_mode & 0o777 == 0o640

    def test_rewrite_keeps_the_target_mode(self, tmp_path):
        target = tmp_path / "report.json"
        target.write_text("{}")
        target.chmod(0o604)
        write_json({"a": 1}, str(target))
        assert target.stat().st_mode & 0o777 == 0o604
        assert json.loads(target.read_text()) == {"a": 1}
        assert [p.name for p in tmp_path.iterdir()] == ["report.json"]

    def test_no_writer_reads_the_umask(self, tmp_path, monkeypatch, cpus):
        # setting the umask to read it changes it for every thread of the process
        set_umask, parent = os.umask, os.getpid()

        def refused(mask):
            raise AssertionError("os.umask called")

        def child_dies(values):
            if os.getpid() != parent:
                os._exit(3)
            return format_floats(values)

        panel = simulated_panel()
        te = np.linspace(0.4, 0.9, 30).reshape(6, 5)
        scenario = Scenario(n_units=6, n_periods=5, seed=9)
        cell = PowerCell(scenario, "temporal", 4, 1, 0.25)
        format_floats = stio._format_floats
        old = set_umask(0o027)
        monkeypatch.setattr(os, "umask", refused)
        try:
            for n_cpus in (1, 2):  # 6 blocks of one unit: written in two halves on 2 CPUs
                forks = cpus(n_cpus)
                write_panel_csv(panel, str(tmp_path / f"panel{n_cpus}.csv"), {"seed": 5})
                write_te_csv(te, panel.unit_ids, panel.period_ids, str(tmp_path / f"te{n_cpus}.csv"))
                assert len(forks) == 2 * (n_cpus - 1)
            write_json({"a": 1}, str(tmp_path / "report.json"))
            write_scenario_json(scenario, str(tmp_path / "scenario.json"), {"seed": 9})
            stio.write_power_csv(PowerTable((cell,)), str(tmp_path / "power.csv"), {"seed": 2})
            written = sorted(path.name for path in tmp_path.iterdir())
            # neither a refused rename nor an error in the split writer's child
            # leaves a temp file
            with pytest.raises(IsADirectoryError):
                write_json({"a": 1}, str(tmp_path))
            monkeypatch.setattr(stio, "_format_floats", child_dies)
            with pytest.raises(ChildProcessError):
                write_te_csv(te, panel.unit_ids, panel.period_ids, str(tmp_path / "te.csv"))
        finally:
            set_umask(old)
        assert sorted(path.name for path in tmp_path.iterdir()) == written
        assert len(written) == 7
        for name in written:
            assert (tmp_path / name).stat().st_mode & 0o777 == 0o640, name
        for kind in ("panel", "te"):
            assert sha(tmp_path / f"{kind}1.csv") == sha(tmp_path / f"{kind}2.csv")
        units = read_panel_csv(str(tmp_path / "panel1.csv")).unit_ids
        assert units == tuple(map(str, panel.unit_ids))
        assert np.array_equal(read_te_csv(str(tmp_path / "te1.csv"))[0], te)
        assert json.loads((tmp_path / "report.json").read_text()) == {"a": 1}
        assert read_scenario_json(str(tmp_path / "scenario.json")) == scenario
        assert (tmp_path / "power.csv").read_text().splitlines()[-1] == (
            "temporal,6,5,equal,0.0,0.0,4,1,0.25"
        )


# ---------------------------------------------------------------------------
# A long CSV of several blocks is written and read in two halves, the second
# by a forked child; the same call in one process is the oracle.


SPLIT_MIN_BLOCKS = stio._SPLIT_MIN_BLOCKS


@pytest.fixture()
def cpus(monkeypatch):
    """Write blocks of one unit, read blocks of a few lines, a split from two
    blocks on, and a function that sets how many CPUs io sees and returns
    the list that records each fork."""
    forks = []
    forked = stio._forked

    def counted(work):
        forks.append(work)
        return forked(work)

    monkeypatch.setattr(stio, "_forked", counted)
    monkeypatch.setattr(stio, "_READ_BLOCK_CHARS", 64)
    monkeypatch.setattr(stio, "_WRITE_BLOCK_BYTES", 1)
    monkeypatch.setattr(stio, "_SPLIT_MIN_BLOCKS", 2)

    def use(count):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)
        forks.clear()
        return forks

    return use


def assert_no_child():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def split_against_whole(read, path, cpus, splits=1):
    """What `read` makes of a file with two CPUs, checked against what it
    makes of it in one process."""
    cpus(1)
    whole = outcome(read, path)
    forks = cpus(2)
    split = outcome(read, path)
    assert_no_child()
    assert len(forks) == splits
    assert_equal_outcomes(split, whole)
    return split


def te_lines(n_units=9, t=4):
    """The lines of a TE CSV whose units are u0, u1, ..."""
    values = np.random.default_rng(n_units).uniform(size=(n_units, t))
    return oracle_long_csv(["# seed: 1"], [f"u{i}" for i in range(n_units)], range(t),
                           {"te": values}).splitlines(keepends=True)


class TestSplit:
    @pytest.mark.parametrize("n_units", range(1, 10))
    def test_written_bytes_at_every_split(self, tmp_path, monkeypatch, cpus, n_units):
        scales = 10.0 ** np.arange(-6, 6, 3)  # plain and exponent reprs
        te = np.random.default_rng(n_units).uniform(size=(n_units, 4)) * scales
        units = [f"u{i}" if i % 3 else f'"é,{i}' for i in range(n_units)]
        for units_per_block in (1, 2, 3):
            # a unit's row matrix is 4 rows of 59 bytes: the 9-byte field of
            # '"é,0' and its comma, one byte of period and a 49-byte slot
            monkeypatch.setattr(stio, "_WRITE_BLOCK_BYTES", 4 * 59 * units_per_block)
            written = []
            for count in (1, 2):
                forks = cpus(count)
                target = tmp_path / f"te-{count}.csv"
                write_te_csv(te, units, [1, 2, 3, 4], str(target), {"seed": 1})
                written.append(target.read_bytes())
            assert_no_child()
            assert len(forks) == (n_units > units_per_block)
            assert written[0] == written[1]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["te-1.csv", "te-2.csv"]

    def test_split_from_the_least_block_count(self, tmp_path, monkeypatch, cpus):
        monkeypatch.setattr(stio, "_SPLIT_MIN_BLOCKS", SPLIT_MIN_BLOCKS)
        target = tmp_path / "te.csv"
        for blocks in (SPLIT_MIN_BLOCKS - 1, SPLIT_MIN_BLOCKS):
            forks = cpus(2)
            # one unit of four periods to a write block
            write_te_csv(np.full((blocks, 4), 0.5), range(blocks), range(4), str(target))
            size = target.stat().st_size
            monkeypatch.setattr(stio, "_READ_BLOCK_CHARS", -(-size // blocks))
            assert -(-size // stio._READ_BLOCK_CHARS) == blocks
            assert read_te_csv(str(target))[0].shape == (blocks, 4)
            assert len(forks) == 2 * (blocks == SPLIT_MIN_BLOCKS)

    def test_written_panel_reads_back(self, tmp_path, cpus):
        panel = simulated_panel(n=9, t=5)
        target = tmp_path / "panel.csv"
        forks = cpus(2)
        write_panel_csv(panel, str(target), {"seed": 5})
        assert len(forks) == 1
        result = split_against_whole(read_panel_csv, target, cpus)
        assert result[4] == tuple(map(str, panel.unit_ids))
        assert np.array_equal(result[2], panel.spatial)

    @pytest.mark.parametrize(
        "transform",
        [
            lambda t: t, shuffled, with_comments_and_blanks, padded,
            lambda t: "\ufeff" + t.replace("\n", "\r\n"),
        ],
        ids=["as-written", "shuffled", "comments-and-blanks", "padded-numbers", "bom-and-crlf"],
    )
    def test_same_arrays_and_labels(self, tmp_path, cpus, transform):
        target = tmp_path / "panel.csv"
        target.write_bytes(transform(panel_text(tmp_path)).encode())
        result = split_against_whole(read_panel_csv, target, cpus)
        assert result[0].shape == (7, 6)

    def test_labels_first_seen_in_the_second_half(self, tmp_path, cpus):
        lines = te_lines()
        target = tmp_path / "te.csv"
        target.write_text("".join(lines))
        assert split_against_whole(read_te_csv, target, cpus)[1] == tuple(
            f"u{i}" for i in range(9)
        )
        # a period first seen in the last row leaves the others' cells missing
        target.write_text("".join(lines[:-1] + ["u8,late,0.5\n"]))
        split_against_whole(read_te_csv, target, cpus)
        assert outcome(read_te_csv, target) == (
            DataError, "unbalanced TE matrix: missing cell (unit u0, period late)"
        )

    def test_byte_order_mark_counts_only_at_the_start(self, tmp_path, cpus):
        # every row starts with U+FEFF, so one starts the second half too
        units = [f"\ufeffu{i}" for i in range(9)]
        text = oracle_long_csv(["# seed: 1"], units, range(4), {"te": np.full((9, 4), 0.5)})
        target = tmp_path / "te.csv"
        target.write_text("\ufeff" + text)
        assert split_against_whole(read_te_csv, target, cpus)[1] == tuple(units)

    @pytest.mark.parametrize(
        "edit, row",
        [
            ({-1: "u0,0,0.5\n"}, -1),  # duplicates the first cell
            ({-1: "u8,3,x\n"}, -1),
            ({3: "u0,1,x\n", -1: "u8,3,x\n"}, 3),
            ({3: "u0,1,0.5,0.5\n", -1: "u0,0,0.5\n"}, 3),
        ],
        ids=["duplicate-across-halves", "malformed-second-half", "malformed-both-halves",
             "malformed-first-duplicate-second"],
    )
    def test_errors_name_the_first_bad_row(self, tmp_path, cpus, edit, row):
        lines = te_lines()
        for at, line in edit.items():
            lines[at] = line
        target = tmp_path / "te.csv"
        target.write_text("".join(lines))
        error = split_against_whole(read_te_csv, target, cpus)
        assert error[0] is DataError
        assert error[1].startswith(f"row {range(1, len(lines) + 1)[row]}: ")

    @pytest.mark.parametrize("at", [0.25, 0.9], ids=["first-half", "second-half"])
    def test_undecodable_byte_named(self, tmp_path, cpus, at):
        # past the first 8 KiB, which the text layer decodes to find the header
        lines = [line.encode() for line in te_lines(400)]
        at = int(at * len(lines))
        lines[at] = lines[at].replace(b"u", b"\xff", 1)
        target = tmp_path / "te.csv"
        target.write_bytes(b"".join(lines))
        error = split_against_whole(read_te_csv, target, cpus)
        assert error == (DataError, f"{target}: not UTF-8 text: invalid start byte b'\\xff'")

    def test_child_killed_when_the_first_half_decides(self, tmp_path, monkeypatch, cpus):
        parent = os.getpid()
        load_rows = stio._load_rows

        def slow_in_the_child(handle, number, width):
            if os.getpid() != parent:
                time.sleep(120)
            return load_rows(handle, number, width)

        monkeypatch.setattr(stio, "_load_rows", slow_in_the_child)
        lines = te_lines()
        lines[3] = "u0,1,x\n"
        target = tmp_path / "te.csv"
        target.write_text("".join(lines))
        forks = cpus(2)
        start = time.monotonic()
        with pytest.raises(DataError, match="^row 4: malformed number"):
            read_te_csv(str(target))
        assert time.monotonic() - start < 60 and len(forks) == 1
        assert_no_child()

    def test_no_split_without_a_line_start_past_the_middle(self, tmp_path, cpus):
        target = tmp_path / "te.csv"
        target.write_text("".join(te_lines()).replace("\n", "\r"))
        assert split_against_whole(read_te_csv, target, cpus, splits=0)[0].shape == (9, 4)
        target.write_text("".join(te_lines(3)) + "#" * 1000 + "\n")
        assert split_against_whole(read_te_csv, target, cpus, splits=0)[0].shape == (3, 4)

    def test_no_split_when_the_header_follows_the_middle(self, tmp_path, cpus):
        target = tmp_path / "te.csv"
        target.write_text("#\n" * 1000 + "".join(te_lines()))
        assert split_against_whole(read_te_csv, target, cpus, splits=0)[1][-1] == "u8"

    def test_no_split_with_another_thread_running(self, tmp_path, cpus):
        forks = cpus(2)
        release = threading.Event()
        thread = threading.Thread(target=release.wait)
        thread.start()
        try:
            write_te_csv(np.full((9, 4), 0.5), range(9), range(4), str(tmp_path / "te.csv"))
            read_te_csv(str(tmp_path / "te.csv"))
        finally:
            release.set()
            thread.join(timeout=10)
        assert forks == [] and not thread.is_alive()

    @pytest.mark.parametrize("where", ["parent", "child"])
    def test_writer_error_in_either_half(self, tmp_path, monkeypatch, cpus, where):
        parent = os.getpid()
        format_floats = stio._format_floats

        def failing(values):
            if (os.getpid() == parent) == (where == "parent"):
                raise RuntimeError(f"planted in the {where}")
            return format_floats(values)

        monkeypatch.setattr(stio, "_format_floats", failing)
        forks = cpus(2)
        with pytest.raises(RuntimeError, match=f"planted in the {where}"):
            write_te_csv(np.full((9, 4), 0.5), range(9), range(4), str(tmp_path / "te.csv"))
        assert len(forks) == 1
        assert list(tmp_path.iterdir()) == []
        assert_no_child()

    def test_child_that_dies_is_named(self, tmp_path, monkeypatch, cpus):
        parent = os.getpid()
        format_floats = stio._format_floats

        def dying(values):
            if os.getpid() != parent:
                os._exit(3)
            return format_floats(values)

        monkeypatch.setattr(stio, "_format_floats", dying)
        cpus(2)
        with pytest.raises(ChildProcessError, match="ended without a result"):
            write_te_csv(np.full((9, 4), 0.5), range(9), range(4), str(tmp_path / "te.csv"))
        assert list(tmp_path.iterdir()) == []
        assert_no_child()

    def test_cli_simulate_prints_its_summary_once(self, tmp_path):
        # 1000 x 30 rows are eight write blocks
        (tmp_path / "s.json").write_text(json.dumps({"n_units": 1000, "n_periods": 30}))
        done = run_cli(tmp_path, "simulate --scenario s.json --seed 7 --out p.csv".split())
        assert done.returncode == 0, done.stderr
        assert done.stdout.count(b"simulate: wrote 30000 rows") == 1
        assert len(done.stdout.splitlines()) == 1 and done.stderr == b""


# Labels of ASCII, 2-, 3- and 4-byte UTF-8, the characters csv.writer quotes
# and blanks, "" among them; a unit label may not start with '#'.
LABELS = st.text(alphabet='aZ7é€𝄞,"# \t', max_size=4)
UNIT_LABELS = LABELS.filter(lambda label: not label.lstrip().startswith("#"))
# values at the formatter's edges: zeros, subnormals, powers of two and the
# bounds of its exact domain, 1e-4 <= |x| < 1e15
EDGE_VALUES = [0.0, -0.0, 5e-324, -1e-310, 2.2250738585072014e-308, 1e-5, -1e-4, 9.999e-5,
               1e15, -1e16, 1e16, 1.7976931348623157e308, 0.1, 1 / 3,
               *(2.0**k for k in (-1074, -1022, -60, -1, 0, 1, 52, 53, 60, 1023))]
FINITE_VALUES = st.one_of(st.sampled_from(EDGE_VALUES),
                          st.floats(allow_nan=False, allow_infinity=False))
TE_VALUES = st.one_of(FINITE_VALUES, st.sampled_from([math.nan, math.inf, -math.inf]))
# derandomized, so every run draws the same examples; the files are rewritten
WRITER_ORACLE = settings(derandomize=True, max_examples=50, deadline=None, database=None,
                         suppress_health_check=[HealthCheck.function_scoped_fixture])


def distinct_labels(draw, strategy, count):
    return draw(st.lists(strategy, min_size=count, max_size=count, unique=True))


@st.composite
def te_matrices(draw):
    n, t = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    te = draw(hnp.arrays(float, (n, t), elements=TE_VALUES))
    return te, distinct_labels(draw, UNIT_LABELS, n), distinct_labels(draw, LABELS, t)


@st.composite
def panels(draw):
    n, t = draw(st.integers(2, 4)), draw(st.integers(3, 5))
    # exp() of these is finite, from 5e-324 up
    logs = st.floats(-745, 709)
    p, q, r = (draw(st.integers(1, 2)) for _ in range(3))
    return PanelDataset(
        draw(hnp.arrays(float, (n, t), elements=logs)),
        draw(hnp.arrays(float, (n, t, p), elements=logs)),
        draw(hnp.arrays(float, (n, t, q), elements=FINITE_VALUES)),
        draw(hnp.arrays(float, (n, t, r), elements=FINITE_VALUES)),
        unit_ids=tuple(distinct_labels(draw, UNIT_LABELS, n)),
        period_ids=tuple(distinct_labels(draw, LABELS, t)),
    )


class TestWriterMatchesRowOracle:
    """The writer's bytes against csv.writer and repr(), row by row, in one
    process and split with a child."""

    META = {"command": "t", "seed": 1}
    META_LINES = ["# version: " + stio.__version__, "# command: t", "# seed: 1"]

    def assert_written(self, cpus, write, path, expected, n_units):
        for count in (1, 2):
            forks = cpus(count)
            write()
            written = path.read_bytes()
            assert written == expected.encode()
            assert b"\xff" not in written
            assert len(forks) == (count == 2 and n_units > 1)
        assert_no_child()

    @WRITER_ORACLE
    @given(case=te_matrices())
    def test_te_csv(self, tmp_path, cpus, case):
        te, units, periods = case
        path = tmp_path / "te.csv"
        expected = oracle_long_csv(self.META_LINES, units, periods, {"te": te})
        self.assert_written(cpus, lambda: write_te_csv(te, units, periods, str(path), self.META),
                            path, expected, len(units))

    @WRITER_ORACLE
    @given(panel=panels())
    def test_panel_csv(self, tmp_path, cpus, panel):
        columns = {"y": np.exp(panel.log_output)}
        for prefix, block in (("x", np.exp(panel.log_inputs)), ("w", panel.spatial),
                              ("z", panel.covariates)):
            columns.update({f"{prefix}{j + 1}": block[..., j] for j in range(block.shape[2])})
        path = tmp_path / "panel.csv"
        expected = oracle_long_csv(self.META_LINES, panel.unit_ids, panel.period_ids, columns)
        self.assert_written(cpus, lambda: write_panel_csv(panel, str(path), self.META),
                            path, expected, panel.n_units)


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


SCENARIO_JSON = {"n_units": 8, "n_periods": 9, "seed": 3}
GRID_JSON = {"test_kinds": ["spatial"], "n_values": [8], "t_values": [9],
             "dominances": ["equal"], "fractions": [0.2], "shifts": [1.5], "boot_k": 100}


def _read_config(tmp_path, what, fields):
    """The scenario or grid read from its base JSON object updated by `fields`."""
    target = tmp_path / f"{what}.json"
    base = SCENARIO_JSON if what == "scenario" else GRID_JSON
    target.write_text(json.dumps({**base, **fields}))
    return (read_scenario_json if what == "scenario" else read_grid_json)(str(target))


# Every int and float field of the three JSON dataclasses, written out by hand
# so that this table, not the annotations, says which fields are numbers.
BASE_PARAMS_NUMBERS = [
    ({"beta0": "x"}, "beta0"),
    ({"beta": ["x"]}, "beta[0]"),
    ({"rho": "x"}, "rho"),
    ({"gamma": ["x"]}, "gamma[0]"),
    ({"phi": ["x"]}, "phi[0]"),
    ({"sigma_psi": "x"}, "sigma_psi"),
    ({"sigma_eps": "x"}, "sigma_eps"),
]
NUMERIC_FIELDS = [
    ("scenario", {"n_units": "x"}, "n_units", "an integer"),
    ("scenario", {"n_periods": "x"}, "n_periods", "an integer"),
    ("scenario", {"contamination_fraction": "x"}, "contamination_fraction", "a number"),
    ("scenario", {"temporal_shift_r": "x"}, "temporal_shift_r", "a number"),
    ("scenario", {"spatial_shift_g": "x"}, "spatial_shift_g", "a number"),
    ("scenario", {"seed": "x"}, "seed", "an integer"),
    ("grid", {"n_values": ["x"]}, "n_values[0]", "an integer"),
    ("grid", {"t_values": [9, "x"]}, "t_values[1]", "an integer"),
    ("grid", {"fractions": ["x"]}, "fractions[0]", "a number"),
    ("grid", {"shifts": ["x"]}, "shifts[0]", "a number"),
    ("grid", {"boot_k": "x"}, "boot_k", "an integer"),
    ("grid", {"alpha": "x"}, "alpha", "a number"),
] + [
    (what, {"base_params": params}, f"base_params.{label}", "a number")
    for what in ("scenario", "grid")
    for params, label in BASE_PARAMS_NUMBERS
]


class TestConfigJson:
    @pytest.mark.parametrize("what, fields, label, word", NUMERIC_FIELDS,
                             ids=[f"{what}-{label}" for what, _, label, _ in NUMERIC_FIELDS])
    def test_numeric_fields_name_a_bad_value(self, tmp_path, what, fields, label, word):
        with pytest.raises(DataError, match=re.escape(f"{label} must be {word}, got 'x'")):
            _read_config(tmp_path, what, fields)

    @pytest.mark.parametrize("value", [7, 7.0, "7"])
    def test_seed_follows_the_integer_rule(self, tmp_path, value):
        # the rule of every JSON integer field: n_units reads these as 7 too
        scenario = _read_config(tmp_path, "scenario", {"seed": value})
        assert scenario.seed == 7 and type(scenario.seed) is int

    @pytest.mark.parametrize("value", [True, 7.5, None])
    def test_seed_refuses_what_an_integer_field_refuses(self, tmp_path, value):
        with pytest.raises(DataError, match=re.escape(f"seed must be an integer, got {value!r}")):
            _read_config(tmp_path, "scenario", {"seed": value})

    @pytest.mark.parametrize("what", ["scenario", "grid"])
    @pytest.mark.parametrize("name", ["beta", "gamma", "phi"])
    @pytest.mark.parametrize(
        "value, message",
        [(0.3, "{} must be a list, got 0.3"), ([True], "{}[0] must be a number, got True")],
        ids=["scalar", "bool-item"],
    )
    def test_base_params_tuples_are_lists_of_numbers(self, tmp_path, what, name, value,
                                                     message):
        # a bare number is no list, and a bool is no number
        with pytest.raises(DataError, match=re.escape(message.format(f"base_params.{name}"))):
            _read_config(tmp_path, what, {"base_params": {name: value}})

    @pytest.mark.parametrize(
        "what, fields, message",
        [
            ("scenario", {"zeta": 1, "alpha": 0.1},
             "unknown scenario fields: ['alpha', 'zeta']"),
            ("scenario", {"base_params": {"rho": 0.2, "zeta": 1, "delta": 2}},
             "unknown base_params fields: ['delta', 'zeta']"),
            ("grid", {"seed": 1, "boot": 100}, "unknown grid fields: ['boot', 'seed']"),
            ("grid", {"base_params": {"zeta": 1, "delta": 2}},
             "unknown base_params fields: ['delta', 'zeta']"),
        ],
    )
    def test_unknown_fields_are_named_sorted(self, tmp_path, what, fields, message):
        with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
            _read_config(tmp_path, what, fields)

    @pytest.mark.parametrize("what", ["scenario", "grid"])
    def test_meta_is_dropped(self, tmp_path, what):
        meta = {"meta": {"version": "0", "command": "x"}}
        assert _read_config(tmp_path, what, meta) == _read_config(tmp_path, what, {})

    @pytest.mark.parametrize("what", ["scenario", "grid"])
    def test_absent_or_null_base_params_take_the_default(self, tmp_path, what):
        default = Scenario(n_units=8, n_periods=9).base_params if what == "scenario" else (
            GridSpec().base_params)
        assert _read_config(tmp_path, what, {}).base_params == default
        assert _read_config(tmp_path, what, {"base_params": None}).base_params == default


FINITE = st.floats(allow_nan=False, allow_infinity=False)
MODEL_PARAMS = st.builds(
    ModelParams,
    beta0=FINITE,
    beta=st.lists(FINITE, min_size=1, max_size=3).map(tuple),
    rho=st.floats(-0.99, 0.99),
    gamma=st.lists(FINITE, min_size=1, max_size=3).map(tuple),
    phi=st.lists(FINITE, min_size=1, max_size=3).map(tuple),
    sigma_psi=st.floats(0, 1e6),
    sigma_eps=st.floats(0, 1e6),
)
# derandomized, so every run draws the same examples; the one file is rewritten
ROUND_TRIP = settings(derandomize=True, max_examples=50, deadline=None, database=None,
                      suppress_health_check=[HealthCheck.function_scoped_fixture])


@st.composite
def scenarios(draw):
    fraction = draw(st.one_of(st.just(0.0), st.floats(0.05, 0.5)))
    params = draw(MODEL_PARAMS)
    # a contaminated rho*(1+r) must stay inside (-1, 1)
    bound = min(0.99 / abs(params.rho) - 1, 1e6) if fraction and params.rho else 1e6
    return Scenario(
        n_units=draw(st.integers(2, 10**6)),
        n_periods=draw(st.integers(3, 10**6)),
        dominance=draw(st.sampled_from(sorted(DOMINANCE_SHARES))),
        contamination_fraction=fraction,
        temporal_shift_r=draw(st.floats(-bound, bound)),
        spatial_shift_g=draw(FINITE),
        base_params=params,
        seed=draw(st.integers(0, 2**64 - 1)),
    )


GRIDS = st.builds(
    GridSpec,
    test_kinds=st.lists(st.sampled_from(["temporal", "spatial"]), max_size=2).map(tuple),
    n_values=st.lists(st.integers(2, 10**4), min_size=1, max_size=3).map(tuple),
    t_values=st.lists(st.integers(5, 10**4), min_size=1, max_size=3).map(tuple),
    dominances=st.lists(st.sampled_from(sorted(DOMINANCE_SHARES)), min_size=1,
                        max_size=3).map(tuple),
    fractions=st.lists(FINITE, max_size=3).map(tuple),
    shifts=st.lists(FINITE, max_size=3).map(tuple),
    base_params=MODEL_PARAMS,
    boot_k=st.integers(100, 10**5),
    alpha=st.floats(0.05, 0.49),
    te_source=st.sampled_from(["true", "estimated"]),
)


class TestConfigJsonRoundTrip:
    @ROUND_TRIP
    @given(scenario=scenarios())
    def test_scenario_reads_back_equal(self, tmp_path, scenario):
        target = tmp_path / "scenario.json"
        write_scenario_json(scenario, str(target), meta={"command": "x"})
        assert read_scenario_json(str(target)) == scenario

    @ROUND_TRIP
    @given(grid=GRIDS)
    def test_grid_reads_back_equal(self, tmp_path, grid):
        target = tmp_path / "grid.json"
        target.write_text(json.dumps(asdict(grid)))
        assert read_grid_json(str(target)) == grid

    @pytest.mark.parametrize(
        "read, text",
        [
            (read_scenario_json, '{"n_units": 20, "n_periods": 12}'),
            (read_grid_json, json.dumps(asdict(GridSpec(n_values=(20,), t_values=(12,))))),
        ],
        ids=["scenario", "grid"],
    )
    def test_byte_order_mark_accepted(self, tmp_path, read, text):
        # the CSV readers skip a UTF-8 BOM, so the JSON readers skip it too
        plain, marked = tmp_path / "plain.json", tmp_path / "marked.json"
        plain.write_bytes(text.encode("utf-8"))
        marked.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
        assert read(str(marked)) == read(str(plain))

    def test_simulate_takes_a_scenario_with_a_byte_order_mark(self, tmp_path):
        scenario = tmp_path / "s.json"
        scenario.write_bytes(b'\xef\xbb\xbf{"n_units": 20, "n_periods": 12}')
        out = tmp_path / "panel.csv"
        assert parse_and_dispatch(["simulate", "--scenario", str(scenario), "--out", str(out)]) == 0
        assert read_panel_csv(str(out)).log_output.shape == (20, 12)


@pytest.mark.parametrize(
    "value", [20, 20.0, -3, 0.0, 20.5, 1e300, True, False, math.inf, math.nan, None, [1], {}]
)
def test_json_integers_follow_as_count(value):
    # one rule for integer fields: what as_count refuses, a JSON integer field refuses
    try:
        expected = as_count(value, "n_units")
    except ValidationError:
        message = f"n_units must be an integer, got {value!r}"
        with pytest.raises(DataError, match=re.escape(message)):
            stio._cast(value, int, "n_units")
    else:
        assert stio._cast(value, int, "n_units") == expected


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

    def test_temporal_rejection_exit_code(self, tmp_path, innovations_are_log_output):
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

    def test_series_too_short_for_ar1_exits_with_usage_error(self, tmp_path, capsys):
        # T = 4: a ValidationError (exit 1), not a numerical failure in every
        # unit (exit 2)
        scenario = tmp_path / "scenario.json"
        write_scenario_json(Scenario(n_units=8, n_periods=4, seed=7), str(scenario))
        panel_csv = tmp_path / "panel.csv"
        parse_and_dispatch(["simulate", "--scenario", str(scenario), "--out", str(panel_csv)])
        capsys.readouterr()
        out = tmp_path / "report.json"
        code = parse_and_dispatch(
            ["test-temporal", "--panel", str(panel_csv), "--boot-k", "100",
             "--seed", "1", "--out", str(out)]
        )
        assert code == 1
        assert "error: series too short for AR(1): need T > 4, got T=4" in (
            capsys.readouterr().err
        )
        assert not out.exists()

    @pytest.mark.parametrize("kind", ["temporal", "spatial"])
    @pytest.mark.parametrize("order", ["1", "2"])
    def test_ar_order_flag_is_a_usage_error(self, tmp_path, capsys, kind, order):
        # the temporal test fits AR(1), the model's noise; no order is taken,
        # not even the old default
        argv = [f"test-{kind}", "--panel", str(tmp_path / "missing.csv"), "--ar-order", order,
                "--seed", "1", "--out", str(tmp_path / "report.json")]
        with pytest.raises(SystemExit) as parsed:
            _build_parser().parse_args(argv)
        assert parsed.value.code == 2  # argparse's own usage exit
        capsys.readouterr()
        assert parse_and_dispatch(argv) == 1
        assert f"unrecognized arguments: --ar-order {order}" in capsys.readouterr().err
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize("kind", ["temporal", "spatial"])
    @pytest.mark.parametrize("source", ["frontier-residuals", "log-output"])
    def test_series_source_flag_is_a_usage_error(self, tmp_path, capsys, kind, source):
        # the temporal test runs on the frontier innovations; no series is
        # taken, not even the old default
        argv = [f"test-{kind}", "--panel", str(tmp_path / "missing.csv"),
                "--series-source", source, "--seed", "1", "--out", str(tmp_path / "report.json")]
        with pytest.raises(SystemExit) as parsed:
            _build_parser().parse_args(argv)
        assert parsed.value.code == 2  # argparse's own usage exit
        capsys.readouterr()
        assert parse_and_dispatch(argv) == 1
        assert f"unrecognized arguments: --series-source {source}" in capsys.readouterr().err
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize("kind", ["temporal", "spatial"])
    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--alpha", "0.7"], "alpha must lie in (0, 0.5), got 0.7"),
            (["--boot-k", "50"], "n_boot_k must be >= 100, got 50"),
        ],
    )
    def test_bad_setting_is_named_before_the_panel_is_read(
        self, tmp_path, capsys, kind, flags, message
    ):
        # the panel path does not exist, so reading it first would exit 1
        # with the read's error in place of the setting's
        out = tmp_path / "report.json"
        code = parse_and_dispatch(
            [f"test-{kind}", "--panel", str(tmp_path / "missing.csv"), *flags,
             "--seed", "1", "--out", str(out)]
        )
        assert code == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_power_grid_too_short_for_ar1_exits_with_usage_error(self, tmp_path, capsys):
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"test_kinds": ["temporal"], "t_values": [4]}))
        out = tmp_path / "power.csv"
        code = parse_and_dispatch(
            ["power", "--grid", str(grid), "--reps", "2", "--seed", "1", "--out", str(out)]
        )
        assert code == 1
        assert "error: series too short for AR(1): need T > 4, got T=4" in capsys.readouterr().err
        assert not out.exists()

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

    @pytest.mark.parametrize("value", ["1.5", "nan"])
    def test_spatial_te_outside_its_range_is_refused(self, tmp_path, scenario_file, capsys, value):
        # a nan cell used to pass the range check and give nan intervals
        panel_csv = tmp_path / "panel.csv"
        te_csv = tmp_path / "te.csv"
        parse_and_dispatch(["simulate", "--scenario", str(scenario_file), "--out", str(panel_csv)])
        parse_and_dispatch(
            ["estimate", "--panel", str(panel_csv), "--out", str(tmp_path / "e.json"),
             "--te-out", str(te_csv)]
        )
        lines = te_csv.read_text().splitlines()
        row = next(i for i, line in enumerate(lines) if line.startswith("2,3,"))
        lines[row] = f"2,3,{value}"
        te_csv.write_text("\n".join(lines) + "\n")
        out = tmp_path / "s.json"
        code = parse_and_dispatch(
            ["test-spatial", "--panel", str(panel_csv), "--te", str(te_csv),
             "--boot-k", "150", "--seed", "3", "--out", str(out)]
        )
        assert code == 2
        assert f"at unit index 2: {value}\n" in capsys.readouterr().err
        assert not out.exists()

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

    def test_parser_is_built_once_and_keeps_no_arguments(self, tmp_path, scenario_file):
        assert _build_parser() is _build_parser()
        out = tmp_path / "panel.csv"
        argv = ["simulate", "--scenario", str(scenario_file), "--out", str(out)]
        assert parse_and_dispatch(argv[:3] + ["--seed", "7"] + argv[3:]) == 0
        assert "# seed: 7\n" in out.read_text()
        assert parse_and_dispatch(argv) == 0  # no --seed: the scenario's, not the last call's
        assert "# seed: 202\n" in out.read_text()

    @pytest.mark.parametrize(
        "fields, message",
        [
            # the order is fixed at 1, so the field is refused whatever it holds
            ({"ar_order_p": 1}, "unknown grid fields: ['ar_order_p']"),
            ({"ar_order_p": "two"}, "unknown grid fields: ['ar_order_p']"),
            ({"boot_k": "many"}, "boot_k must be an integer, got 'many'"),
            ({"alpha": "0.05x"}, "alpha must be a number, got '0.05x'"),
            ({"n_values": 5}, "n_values must be a list, got 5"),
            ({"n_values": ["x"]}, "n_values[0] must be an integer, got 'x'"),
            ({"base_params": {"rho": "a"}}, "base_params.rho must be a number, got 'a'"),
            ({"base_params": [1]}, "base_params must be an object, got [1]"),
            # the series is fixed to the frontier innovations, so the field is refused
            ({"series_source": "bogus"}, "unknown grid fields: ['series_source']"),
            ({"series_source": "frontier_residuals"}, "unknown grid fields: ['series_source']"),
            ({"te_source": 3}, "te_source must be one of ('true', 'estimated'), got 3"),
            # these three used to simulate every replication and then exit 2
            ({"boot_k": 50}, "n_boot_k must be >= 100, got 50"),
            ({"alpha": 0.7}, "alpha must lie in (0, 0.5), got 0.7"),
        ],
    )
    def test_bad_grid_field_named(self, tmp_path, capsys, fields, message):
        grid = tmp_path / "grid.json"
        spec = {"test_kinds": ["spatial"], "n_values": [8], "t_values": [9],
                "dominances": ["equal"], "fractions": [0.2], "shifts": [1.5], "boot_k": 100}
        grid.write_text(json.dumps({**spec, **fields}))
        out = tmp_path / "power.csv"
        code = parse_and_dispatch(
            ["power", "--grid", str(grid), "--reps", "1", "--seed", "1", "--out", str(out)]
        )
        assert code == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"n_units": "x"}, "n_units must be an integer, got 'x'"),
            ({"n_units": 20.5}, "n_units must be an integer, got 20.5"),
            ({"base_params": {"rho": "a"}}, "base_params.rho must be a number, got 'a'"),
        ],
    )
    def test_bad_scenario_field_named(self, tmp_path, capsys, fields, message):
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps({"n_units": 8, "n_periods": 9, "seed": 3, **fields}))
        out = tmp_path / "panel.csv"
        code = parse_and_dispatch(["simulate", "--scenario", str(scenario), "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_undecodable_inputs_named(self, tmp_path, capsys, scenario_file):
        panel_csv, out = tmp_path / "panel.csv", tmp_path / "out"
        parse_and_dispatch(["simulate", "--scenario", str(scenario_file), "--out", str(panel_csv)])
        capsys.readouterr()
        panel_csv.write_bytes(panel_csv.read_bytes().replace(b"\n3,", b"\n\xff3,", 1))
        scenario = tmp_path / "scenario.json"
        scenario.write_bytes(b'{"n_units": 8, "n_periods": 9, "dominance": "\xff"}')
        for argv, path in (
            (["estimate", "--panel", str(panel_csv)], panel_csv),
            (["simulate", "--scenario", str(scenario)], scenario),
        ):
            assert parse_and_dispatch(argv + ["--out", str(out)]) == 1
            message = f"{path}: not UTF-8 text: invalid start byte b'\\xff'"
            assert capsys.readouterr().err == f"error: {message}\n"
            assert not out.exists()

    def test_commands_never_import_scipy(self, tmp_path):
        # scipy is loaded only to name the columns of a singular design; the
        # collinear-columns tests cover that path. The process modules are
        # never loaded: the package forks with os.fork alone
        script = textwrap.dedent(
            """
            import json, sys
            from stfrontier.cli import parse_and_dispatch
            json.dump({"n_units": 30, "n_periods": 12, "seed": 4}, open("s.json", "w"))
            json.dump({"n_values": [30], "t_values": [12], "dominances": ["equal"],
                       "fractions": [0.2], "shifts": [1.0], "boot_k": 100,
                       "te_source": "estimated"}, open("g.json", "w"))
            codes = [parse_and_dispatch(argv.split()) for argv in (
                "simulate --scenario s.json --out p.csv",
                "estimate --panel p.csv --out e.json --te-out te.csv",
                "test-temporal --panel p.csv --boot-k 100 --seed 1 --out t.json",
                "test-spatial --panel p.csv --boot-k 100 --seed 1 --out s1.json",
                "test-spatial --panel p.csv --te te.csv --boot-k 100 --seed 1 --out s2.json",
                "power --grid g.json --reps 1 --seed 1 --out pw.csv",
            )]
            print(json.dumps([codes, sorted(m for m in sys.modules if m.startswith(
                ("scipy", "multiprocessing", "concurrent")))]))
            """
        )
        done = subprocess.run(
            [sys.executable, "-c", script], cwd=tmp_path, env=package_env(),
            capture_output=True, text=True, timeout=300,
        )
        assert done.returncode == 0, done.stderr
        codes, modules = json.loads(done.stdout.splitlines()[-1])
        assert all(code in (0, 3) for code in codes), codes
        assert (tmp_path / "pw.csv").exists()
        assert modules == []

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


# The ASCII locale: with LC_ALL=C alone, Python would coerce the locale to
# C.UTF-8 (PEP 538) and switch to UTF-8 mode (PEP 540).
ASCII_LOCALE = {"python": ("-X", "utf8=0"), "LC_ALL": "C", "PYTHONCOERCECLOCALE": "0"}


class TestCommandLine:
    """What a command line records, whatever its bytes and the locale."""

    @pytest.fixture()
    def scenario_dir(self, tmp_path):
        def make(name):
            directory = tmp_path / name
            directory.mkdir()
            (directory / "s.json").write_text(json.dumps({"n_units": 5, "n_periods": 4, "seed": 3}))
            return directory

        return make

    def test_outputs_keep_their_bytes_under_the_ascii_locale(self, scenario_dir):
        names = ["pü.csv", "r.json", "té.csv"]
        panel, report, te = (name.encode() for name in names)
        written = []
        for locale in (ASCII_LOCALE, {}):
            directory = scenario_dir("ascii" if locale else "own")
            for argv in (
                [b"simulate", b"--scenario", b"s.json", b"--out", panel],
                [b"estimate", b"--panel", panel, b"--out", report, b"--te-out", te],
            ):
                done = run_cli(directory, argv, **locale)
                assert done.returncode == 0, done.stderr.decode(errors="replace")
            written.append({name: (directory / name).read_bytes() for name in names})
        assert written[0] == written[1]
        assert b"# command: simulate --scenario s.json --out p\xc3\xbc.csv\n" in written[0]["pü.csv"]
        command = json.loads(written[0]["r.json"])["meta"]["command"]
        assert command == "estimate --panel pü.csv --out r.json --te-out té.csv"

    # a UTF-8 locale such as en_US.UTF-8 gives sys.stdout the strict handler
    @pytest.mark.parametrize("env", [{}, {"PYTHONIOENCODING": "utf-8:strict"}],
                             ids=["own", "strict-stdout"])
    def test_a_byte_that_is_not_utf8_is_escaped(self, scenario_dir, env):
        directory = scenario_dir("out")
        done = run_cli(directory, [b"simulate", b"--scenario", b"s.json", b"--out", b"p\xff.csv"],
                       **env)
        assert done.returncode == 0, done.stderr.decode(errors="replace")
        assert done.stdout.startswith(b"simulate: wrote 20 rows") and b" to p\xff.csv " in done.stdout
        path = directory / os.fsdecode(b"p\xff.csv")
        lines = path.read_bytes().splitlines()
        assert lines[1] == b"# command: simulate --scenario s.json --out p\\xff.csv"
        assert read_panel_csv(str(path)).n_units == 5

    @pytest.mark.parametrize("name", ["q\nr.csv", "q\rr.csv", "q\r\nr.csv"])
    def test_a_line_break_in_a_path_stays_in_its_meta_line(
        self, scenario_dir, monkeypatch, capsys, name
    ):
        monkeypatch.chdir(scenario_dir("out"))
        argv = ["simulate", "--scenario", "s.json", "--out", name]
        assert parse_and_dispatch(argv) == 0
        assert parse_and_dispatch(["estimate", "--panel", name, "--out", "r.json"]) == 0, (
            capsys.readouterr().err
        )
        escaped = name.replace("\r", "\\r").replace("\n", "\\n")
        lines = pathlib.Path(name).read_bytes().decode().split("\n")
        assert lines[:4] == [
            f"# version: {stfrontier.__version__}",
            f"# command: simulate --scenario s.json --out {escaped}",
            "# seed: 3",
            "unit,period,y,x1,x2,w1,z1",
        ]


# sha256 of each artifact of test_output_bytes_are_pinned on each dispatch
# path, recorded when the power grid still ran on a process pool. The
# estimate and test outputs were recorded again when the frontier came to be
# solved from moments and ln y from np.log (ledger D17); s2.json reads
# te.csv, so it moved with it. te.csv was recorded again when expit and logit
# came to use numpy's exp and log (ledger D22), and t1.json when the temporal
# test came to read the fit's innovations as fitted (ledger D26) and when its
# sieve's burn-in came to follow the pooled coefficient (ledger D27). The
# portable path moves every artifact built on the simulated panel but the
# power CSVs.
PINNED_SHA256 = {"avx512": {
    "e.json": "bf1da5dbf547554aed2c0488d7a1940c60443871ea4660e87869fab532fe8782",
    "grid1.csv": "4b8c8d2dd42dab666f9f1bdd4ccb565464c6681d920b47f43eb3de392a5ccdae",
    "grid2.csv": "4b8c8d2dd42dab666f9f1bdd4ccb565464c6681d920b47f43eb3de392a5ccdae",
    "p.csv": "2cbb7155659b96d200c27f270c8bf901e5e713ebc5c789648a100e9e10555879",
    "pw.csv": "69d8ae34aee4249ecee85ee7c4e2cf0858af86947dcf99b911e4623ff1e4e26b",
    "s1.json": "df762dc291fd9bbc4f14ecf71605efafcafb51f43ae996aac9774a3fb83342ea",
    "s2.json": "d607a80a001b9bf82578926ad6fe44668a3254d407737aae238e0b0cf2bc8958",
    "split.csv": "ad35f9188575b4915bc2e1695a702f768accc8d4f64123b88f89a6e988b985ec",
    "t1.json": "f22997acd2e1d45f53d03c55c40831d78238a8f3fcbf765c3a7f3e67c17866ec",
    "te.csv": "1fec02dd654926ad12ab7c91a80e6b460e0aebc83718084bc763e7986a0a1d30",
}}
PINNED_SHA256["portable"] = {
    **PINNED_SHA256["avx512"],
    "e.json": "01d26da76fd2a2fd5f00b25cba82d4a543cb961c1de8c0d7683b1963576e73af",
    "p.csv": "0fe3bc2c33a0f4249c159824e5a6024ab3208eba415072002bf84daf94224c42",
    "s1.json": "60da9547cbf486f86c7d9b65ef5d851979c71d470b8c5b691b9460c372efc600",
    "s2.json": "204ca71b4ddc4f6fe7f309fedc9e11dd0f1c4674bf1e14f6eb9522f6988bc36c",
    "split.csv": "fc75ac6af0a71f070076cf8c16370f76ddd5e2a82f7241aa38016cb723e8d682",
    "t1.json": "5a0282061854e4368df49b7edc52db70b6e568db4b0650a969b9eda1901da750",
    "te.csv": "ddf81aeb4b8f5b6e275afe430f9b3bae264af5dd574aea825d01636c072f6720",
}

# e.json of test_output_bytes_are_pinned as the quasi-difference GLS and
# math.log wrote it, before ledger D17
QUASI_DIFFERENCE_E_JSON = {
    "meta": {
        "version": "0.1.0",
        "command": "estimate --panel p.csv --out e.json --te-out te.csv",
        "seed": 0,
    },
    "beta0_hat": 0.021049680511452198,
    "beta_hat": [0.28184872487010965, 0.20233413627679722],
    "rho_hat": 0.4717655641243933,
    "gamma_hat": [1.727135143404786],
    "phi_hat": [3.9063010805971445],
    "iterations": 6,
    "converged": True,
    "clamp_count": 62,
    "clamp_fraction": 0.5166666666666667,
    "clamp_flagged": True,
}


def test_estimate_report_moves_by_rounding_only(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "s.json").write_text(json.dumps({"n_units": 12, "n_periods": 10, "seed": 4}))
    for argv in (
        "simulate --scenario s.json --out p.csv",
        "estimate --panel p.csv --out e.json --te-out te.csv",
    ):
        assert parse_and_dispatch(argv.split()) == 0
    report = json.loads((tmp_path / "e.json").read_text())
    assert_reports_close(QUASI_DIFFERENCE_E_JSON, report, rtol=1e-13)


TEMPORAL_DECISION_RULE = (
    "reject if at least one per-unit simultaneous (max-t, null-imposing sieve) interval "
    "excludes the cross-unit mean"
)

# t1.json of test_output_bytes_are_pinned as the per-row least-squares AR
# fits wrote it, before ledger D18
PER_ROW_LSTSQ_T_JSON = {
    "t1.json": {
        "meta": {"version": "0.1.0",
                 "command": "test-temporal --panel p.csv --boot-k 100 --seed 1 --out t1.json",
                 "seed": 1},
        "test_kind": "temporal",
        "reference_value": -0.06075473313742264,
        "n_failing": 0,
        "reject": False,
        "decision_rule": TEMPORAL_DECISION_RULE,
        "alpha": 0.05,
        "blocks": [
            {"label": "0", "estimate": 0.22281259383465418,
             "interval": [-0.6004231570201221, 1.0460483446894306], "excludes_reference": False},
            {"label": "1", "estimate": 0.3448519003544308,
             "interval": [-0.5679383651257139, 1.2576421658345756], "excludes_reference": False},
            {"label": "2", "estimate": -0.33555371290642866,
             "interval": [-1.2119650656866965, 0.5408576398738391], "excludes_reference": False},
            {"label": "3", "estimate": -0.5036554724734215,
             "interval": [-1.2900820248104512, 0.2827710798636082], "excludes_reference": False},
            {"label": "4", "estimate": 0.1737014099801808,
             "interval": [-0.694483348262739, 1.0418861682231007], "excludes_reference": False},
            {"label": "5", "estimate": 0.05335657690173399,
             "interval": [-0.9028455246502443, 1.0095586784537123], "excludes_reference": False},
            {"label": "6", "estimate": -0.023155956239820714,
             "interval": [-0.9881267027799867, 0.9418147903003453], "excludes_reference": False},
            {"label": "7", "estimate": -0.5321493983092833,
             "interval": [-1.4648931081013612, 0.4005943114827946], "excludes_reference": False},
            {"label": "8", "estimate": -0.10200459968336778,
             "interval": [-1.0323322303112545, 0.8283230309445188], "excludes_reference": False},
            {"label": "9", "estimate": 0.43970073806212506,
             "interval": [-0.41786135719058587, 1.2972628333148362], "excludes_reference": False},
            {"label": "10", "estimate": -0.11194390884795358,
             "interval": [-1.0051364279965727, 0.7812486103006654], "excludes_reference": False},
            {"label": "11", "estimate": -0.355016968321921,
             "interval": [-1.2584950997933921, 0.5484611631495502], "excludes_reference": False},
        ],
    },
}


def _fit_fields(report):
    """The fields of a temporal report that its sieve draws do not touch: the
    meta record, the test kind, the reference, the decision rule, alpha, and
    each block's label and estimate."""
    kept = {key: value for key, value in report.items() if key not in ("n_failing", "reject")}
    kept["blocks"] = [{key: block[key] for key in ("label", "estimate")}
                      for block in report["blocks"]]
    return kept


def test_temporal_reports_move_by_rounding_only(tmp_path, monkeypatch):
    """The batched SVD AR fits moved t1.json at rounding level only, largest
    move 2.5e-15 relative. The intervals and the decision came from draws
    that the sieve's burn-in rule replaced (ledger D27), so only the fields
    built on the fits are compared; the t1.json pin holds the rest."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "s.json").write_text(json.dumps({"n_units": 12, "n_periods": 10, "seed": 4}))
    for argv in (
        "simulate --scenario s.json --out p.csv",
        "test-temporal --panel p.csv --boot-k 100 --seed 1 --out t1.json",
    ):
        assert parse_and_dispatch(argv.split()) == 0
    for name, old in PER_ROW_LSTSQ_T_JSON.items():
        report = json.loads((tmp_path / name).read_text())
        assert_reports_close(_fit_fields(old), _fit_fields(report), rtol=1e-12)


@pytest.mark.parametrize(
    "new, close",
    [
        ({"a": 1.0 + 5e-14, "b": [2, True, "x"]}, True),
        ({"a": 1.0 + 2e-13, "b": [2, True, "x"]}, False),
        ({"a": 1.0, "b": [3, True, "x"]}, False),
        ({"a": 1.0, "b": [2, False, "x"]}, False),
        ({"a": 1.0, "b": [2.0, True, "x"]}, False),
        ({"a": 1.0, "b": [2, True]}, False),
        ({"b": [2, True, "x"], "a": 1.0}, False),
    ],
)
def test_assert_reports_close(new, close):
    old = {"a": 1.0, "b": [2, True, "x"]}
    if close:
        assert_reports_close(old, new, rtol=1e-13)
    else:
        with pytest.raises(AssertionError):
            assert_reports_close(old, new, rtol=1e-13)


def test_output_bytes_are_pinned(tmp_path, monkeypatch, capsys):
    """Every command on a small fixed-seed panel, the power grid on one and
    two workers, and a panel written and read back split keep their bytes.
    Relative paths keep the command lines in the meta records fixed."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "s.json").write_text(json.dumps({"n_units": 12, "n_periods": 10, "seed": 4}))
    grid = {"test_kinds": ["temporal", "spatial"], "n_values": [12], "t_values": [10],
            "dominances": ["equal"], "fractions": [0.2], "shifts": [1.0], "boot_k": 100}
    (tmp_path / "g.json").write_text(json.dumps(grid))
    for argv in (
        "simulate --scenario s.json --out p.csv",
        "estimate --panel p.csv --out e.json --te-out te.csv",
        "test-temporal --panel p.csv --boot-k 100 --seed 1 --out t1.json",
        "test-spatial --panel p.csv --boot-k 100 --seed 1 --out s1.json",
        "test-spatial --panel p.csv --te te.csv --boot-k 100 --seed 1 --out s2.json",
        "power --grid g.json --reps 2 --seed 1 --out pw.csv",
    ):
        assert parse_and_dispatch(argv.split()) in (0, 3), capsys.readouterr().err
    # two CPUs, and blocks of a few rows and lines that split from two on
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(stio, "_READ_BLOCK_CHARS", 64)
    monkeypatch.setattr(stio, "_WRITE_BLOCK_BYTES", 1)
    monkeypatch.setattr(stio, "_SPLIT_MIN_BLOCKS", 2)
    write_panel_csv(read_panel_csv("p.csv"), "split.csv", {"seed": 4})
    for n_workers in (1, 2):
        table = run_grid(stio.read_grid_json("g.json"), 2, 1, n_workers=n_workers)
        stio.write_power_csv(table, f"grid{n_workers}.csv")
    inputs = {"s.json", "g.json"}
    written = {path.name: sha(path) for path in sorted(tmp_path.iterdir()) if path.name not in inputs}
    assert written == PINNED_SHA256[dispatch_path()]


# Reports and a temporal-only power grid as the tree wrote them before the
# temporal test was fixed at AR(1) (ledger D21): the kernel's bits held. The
# second and third reports were recorded again when expit came to use numpy's
# exp (ledger D22), which moves the simulated panels at rounding level, and
# all three when the temporal test came to read the fit's innovations as
# fitted (ledger D26) and when its sieve's burn-in came to follow the pooled
# coefficient (ledger D27); each report has one digest per dispatch path. The
# 20x60 panel rejected until D27: its largest studentised deviation, 3.55
# against c = 3.16, now reads 2.83 against 2.97, within the bootstrap noise
# of k = 100 draws.
@pytest.mark.parametrize(
    "scenario, flags, code, digests",
    [
        ({"n_units": 12, "n_periods": 10, "seed": 4}, "--alpha 0.1 --boot-k 200 --seed 3", 0,
         {"avx512": "da15bd24ca55730a34ffeda71895e3ddc82ff005f44a609c650a2f8617194f94",
          "portable": "9227ad692aef24857a5c1647d0201760119d24952a9a74d1d98a8bed5cb930c5"}),
        ({"n_units": 20, "n_periods": 60, "seed": 5, "contamination_fraction": 0.1,
          "temporal_shift_r": 0.6}, "--boot-k 100 --seed 1", 0,
         {"avx512": "2522d021bb5d172770b73a47822c36f07599ef5cbf36c5d72aa52a9b98026fcc",
          "portable": "de2ce431756bb9b2a85e748da72f465d38096ada94efeb1034d324745ef4a848"}),
        ({"n_units": 30, "n_periods": 12, "seed": 6}, "--boot-k 300 --seed 4", 0,
         {"avx512": "e93f9bb9dc211b24ee265c33ca412972a9871ebe054a982cfd67c8224c3a4360",
          "portable": "990d58058e8e26f6229d9fc11c7d6a8c742f18d5213196c75909415a0cef0be3"}),
    ],
    ids=["12x10", "20x60", "30x12"],
)
def test_temporal_report_bytes_are_pinned(tmp_path, monkeypatch, scenario, flags, code, digests):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "s.json").write_text(json.dumps(scenario))
    assert parse_and_dispatch("simulate --scenario s.json --out p.csv".split()) == 0
    assert parse_and_dispatch(f"test-temporal --panel p.csv {flags} --out t.json".split()) == code
    assert sha(tmp_path / "t.json") == digests[dispatch_path()]


@pytest.mark.parametrize("n_workers", [1, 2])
def test_temporal_grid_bytes_are_pinned(tmp_path, monkeypatch, n_workers):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    grid = tmp_path / "g.json"
    grid.write_text(json.dumps(
        {"test_kinds": ["temporal"], "n_values": [10], "t_values": [8, 30],
         "dominances": ["equal"], "fractions": [0.2], "shifts": [1.5], "boot_k": 100}
    ))
    table = run_grid(stio.read_grid_json(str(grid)), 3, 5, n_workers=n_workers)
    stio.write_power_csv(table, str(tmp_path / "grid.csv"))
    assert sha(tmp_path / "grid.csv") == (
        "05612d369d3058156a0cf25f5b496d55f20ffc7d10e7873ac41881ac450bd64a"
    )
