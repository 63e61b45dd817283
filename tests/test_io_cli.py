import csv
import hashlib
import io
import json
import math
import os
import re
from array import array

import numpy as np
import pytest

import stfrontier.io as stio
from stfrontier import (
    DataError,
    ModelParams,
    PanelDataset,
    Scenario,
    ValidationError,
    simulate_panel,
)
from stfrontier.cli import parse_and_dispatch
from stfrontier.io import (
    _parse_header,
    read_panel_csv,
    read_scenario_json,
    read_te_csv,
    write_json,
    write_panel_csv,
    write_scenario_json,
    write_te_csv,
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
            values[0] = math.log(values[0])
            if not cells.add(unit, period, values):
                raise DataError(f"row {lineno}: duplicate cell (unit {unit}, period {period})")
    if header is None:
        raise DataError(f"{path}: no header row found")
    table = cells.grid("panel")
    return PanelDataset(
        log_output=table[..., 0],
        log_inputs=np.log(table[..., 1 : 1 + p]),
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


def assert_same_outcome(path, te=False):
    new, old = (
        outcome(read, path)
        for read in ((read_te_csv, oracle_read_te_csv) if te
                     else (read_panel_csv, oracle_read_panel_csv))
    )
    assert len(new) == len(old)
    for a, b in zip(new, old):
        if isinstance(a, np.ndarray):
            assert np.array_equal(a, b, equal_nan=True)
        else:
            assert a == b
    return new


@pytest.fixture(params=["one-block", "many-blocks"])
def read_blocks(request, monkeypatch):
    """Run each reader test on whole-file blocks and on blocks of one or two lines."""
    if request.param == "many-blocks":
        monkeypatch.setattr(stio, "_READ_BLOCK_CHARS", 40)


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

    def test_three_inputs(self, tmp_path, read_blocks):
        params = ModelParams(beta=(0.3, 0.2, 0.1))
        target = tmp_path / "panel.csv"
        target.write_text(with_comments_and_blanks(panel_text(tmp_path, params)))
        result = assert_same_outcome(target)
        assert result[1].shape == (7, 6, 3)

    def test_large_panel(self, tmp_path, read_blocks):
        # enough values for np.log and math.log to differ in the last bit
        panel = simulate_panel(Scenario(n_units=300, n_periods=20, seed=3))[0]
        target = tmp_path / "panel.csv"
        write_panel_csv(panel, str(target))
        y = np.exp(panel.log_output)
        assert (np.log(y) != np.array([math.log(v) for v in y.ravel()]).reshape(y.shape)).any()
        assert_same_outcome(target)

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
        assert oracle_read_panel_csv(str(target)).log_output[0, 1] == math.log(float(number))
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
    @pytest.mark.parametrize("block_rows", [8192, 7, 1])
    def test_blocks_write_the_column_wise_bytes(self, tmp_path, monkeypatch, block_rows):
        monkeypatch.setattr(stio, "_WRITE_BLOCK_ROWS", block_rows)
        scales = 10.0 ** np.arange(-6, 9).reshape(5, 3)  # plain and exponent reprs
        te = np.random.default_rng(3).uniform(size=(5, 3)) * scales
        units, periods = ["a,b", 'c"d', "e#f", "", 5], ["1", " 2", "#x y"]
        target = tmp_path / "te.csv"
        write_te_csv(te, units, periods, str(target), {"command": "t", "seed": 2})
        expected = oracle_long_csv(["# version: " + stio.__version__, "# command: t", "# seed: 2"],
                                   units, periods, {"te": te})
        assert target.read_bytes() == expected.encode()

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
