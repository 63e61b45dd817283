"""File formats: long-format panel CSV, TE CSV, scenario/grid JSON, reports.

Every writer embeds the tool version, the issuing command, and the effective
seed (as '#' comment lines in CSV, a "meta" object in JSON) and writes
atomically (temp file + rename) with the file mode a plain open() would give.
No timestamps, so identical runs produce identical bytes.

Both long-CSV readers share one parser: it reads the file once, in blocks of
lines, and parses each block with one np.loadtxt call; every row check is an
array mask. The long-CSV writer formats and writes one block of units at a
time, so neither direction holds the whole text in memory.
"""

from __future__ import annotations

import csv
import json
import math
import os
import re
import stat
import tempfile
from contextlib import contextmanager
from dataclasses import asdict

import numpy as np

from . import __version__
from .assumption_tests import TestReport
from .errors import DataError, ValidationError
from .estimation import EstimationResult
from .power import GridSpec, PowerTable
from .types import ModelParams, PanelDataset, Scenario


def _versioned(meta: dict | None) -> dict:
    """The meta record: version first, then the caller's keys in order."""
    return {"version": __version__, **(meta or {})}


def _meta_lines(meta: dict | None) -> list[str]:
    return [f"# {key}: {value}" for key, value in _versioned(meta).items()]


@contextmanager
def _atomic_open(path: str):
    """A text handle on a temp file that replaces `path` when the block exits.

    The file gets the mode the target already has, or 0o666 less the umask
    for a new file; mkstemp alone would leave it at 0o600.
    """
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "w", newline="") as handle:
            yield handle
        try:
            mode = stat.S_IMODE(os.stat(path).st_mode)
        except FileNotFoundError:
            umask = os.umask(0)  # the umask can only be read by setting it
            os.umask(umask)
            mode = 0o666 & ~umask
        os.chmod(tmp, mode)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _atomic_write(path: str, text: str) -> None:
    with _atomic_open(path) as handle:
        handle.write(text)


# Block sizes for writing and reading long CSVs: they bound the memory that a
# write or a parse holds beyond its input or its result.
_WRITE_BLOCK_ROWS = 8192
_READ_BLOCK_CHARS = 1 << 20


class _Echo:
    """A sink whose write() returns its text; csv.writer.writerow returns
    what write() returns, so it hands back each formatted row."""

    def write(self, text: str) -> str:
        return text


def _csv_fields(labels) -> list[str]:
    """Each label as csv.writer writes it inside a row, quoted where needed."""
    writer = csv.writer(_Echo(), lineterminator="\n")
    return [writer.writerow(("", str(label)))[1:-1] for label in labels]


def _check_labels(unit_ids, period_ids) -> None:
    """Reject labels that would not read back: the reader takes one line as
    one row, and a line whose first field starts with '#' as a comment."""
    for kind, labels in (("unit", unit_ids), ("period", period_ids)):
        for label in map(str, labels):
            if "\n" in label or "\r" in label:
                raise ValidationError(
                    f"{kind} label {label!r} contains a line break; "
                    "a CSV row must fit on one line"
                )
    for label in map(str, unit_ids):
        if label.lstrip().startswith("#"):
            raise ValidationError(
                f"unit label {label!r} starts with '#'; its rows would read back as comments"
            )


def _write_long_csv(
    path: str, meta: dict | None, unit_ids, period_ids, columns: dict[str, np.ndarray]
) -> None:
    """One row per (unit, period), units outer; each column is an (N, T) array
    whose values are written as repr(float), one block of units at a time."""
    n, t = len(unit_ids), len(period_ids)
    values = []
    for name, column in columns.items():
        column = np.asarray(column, dtype=float)
        if column.shape != (n, t):
            raise ValidationError(f"column {name} has shape {column.shape}, not ({n}, {t})")
        values.append(column)
    _check_labels(unit_ids, period_ids)
    units, periods = _csv_fields(unit_ids), _csv_fields(period_ids)
    block_units = max(1, _WRITE_BLOCK_ROWS // max(t, 1))
    with _atomic_open(path) as handle:
        handle.writelines(line + "\n" for line in _meta_lines(meta))
        csv.writer(handle, lineterminator="\n").writerow(["unit", "period", *columns])
        for start in range(0, n, block_units):
            stop = min(start + block_units, n)
            block = np.stack([column[start:stop] for column in values], axis=-1)
            cells = map(repr, block.ravel().tolist())
            # zipping one iterator with itself groups each row's cells
            rows = map(",".join, zip(*[cells] * len(values)))
            keys = (f"{unit},{period}," for unit in units[start:stop] for period in periods)
            handle.write("".join(key + row + "\n" for key, row in zip(keys, rows)))


# ---------------------------------------------------------------------------
# panel CSV


def write_panel_csv(panel: PanelDataset, path: str, meta: dict | None = None) -> None:
    """Long format: one row per (unit, period); y is written on the raw scale."""
    columns = {"y": np.exp(panel.log_output)}
    for prefix, block in (
        ("x", np.exp(panel.log_inputs)),
        ("w", panel.spatial),
        ("z", panel.covariates),
    ):
        for j in range(block.shape[2]):
            columns[f"{prefix}{j + 1}"] = block[..., j]
    _write_long_csv(path, meta, panel.unit_ids, panel.period_ids, columns)


_HEADER_RE = re.compile(r"^(x|w|z)(\d+)$")


def _parse_header(fields: list[str]) -> tuple[int, int, int]:
    if fields[:3] != ["unit", "period", "y"]:
        raise DataError(
            f"panel CSV must start with columns unit,period,y; got {fields[:3]}"
        )
    counts = {"x": 0, "w": 0, "z": 0}
    order = "xwz"
    seen_kind = 0
    for name in fields[3:]:
        match = _HEADER_RE.match(name)
        if not match:
            raise DataError(f"unknown column {name!r} in panel CSV header")
        kind, num = match.group(1), int(match.group(2))
        kind_pos = order.index(kind)
        if kind_pos < seen_kind:
            raise DataError(f"column {name!r} out of order; expected x*, then w*, then z*")
        seen_kind = kind_pos
        counts[kind] += 1
        if num != counts[kind]:
            raise DataError(
                f"column {name!r} out of order; expected {kind}{counts[kind]}"
            )
    if counts["x"] < 1 or counts["w"] < 1 or counts["z"] < 1:
        raise DataError(
            "panel CSV needs at least one x, one w, and one z column; "
            f"found P={counts['x']}, Q={counts['w']}, R={counts['z']}"
        )
    return counts["x"], counts["w"], counts["z"]


def _is_data(line: str) -> bool:
    """Whether a line is neither blank nor a comment, where a comment is a line
    whose first CSV field, less leading blanks, starts with '#'."""
    if line == "\n":
        return False
    if "#" not in line:
        return True
    head = line[1:] if line.startswith('"') else line
    return not head.lstrip().startswith("#")


def _loadtxt(lines, dtype) -> np.ndarray:
    if not lines:
        return np.empty(0, dtype)
    return np.loadtxt(lines, delimiter=",", quotechar='"', comments=None, dtype=dtype, ndmin=1)


def _parses(line: str, dtype) -> bool:
    """Whether loadtxt reads the line as one row that closes its quotes.

    loadtxt reads its lines as one stream, so a quoted field left open runs
    on into the next line; the line is therefore read twice over.
    """
    try:
        return len(_loadtxt([line, line], dtype)) == 2
    except ValueError:
        return False


def _load_rows(handle, number: int, width: int):
    """Parse the data lines after file line `number` with np.loadtxt, one
    block of about _READ_BLOCK_CHARS characters per call.

    Returns the (M, width) values, the (2, M) unit and period index of each
    row, the unit and period labels in first-seen order and each row's file
    line number. The last item is the first (number, line) that loadtxt
    rejects, or None; parsing stops before it.
    """
    dtype = [("unit", object), ("period", object), ("values", float, (width,))]
    labels: tuple[dict, dict] = ({}, {})  # label -> index, in first-seen order
    values, codes = [np.empty((0, width))], [np.empty((2, 0), np.intp)]
    numbers = [np.empty(0, np.int64)]
    bad = None
    while bad is None and (chunk := handle.readlines(_READ_BLOCK_CHARS)):
        keep = [i for i, line in enumerate(chunk) if _is_data(line)]
        lines = [chunk[i] for i in keep]
        block_numbers = np.array(keep, dtype=np.int64) + (number + 1)
        number += len(chunk)
        try:
            rows = _loadtxt(lines, dtype)
        except ValueError:
            rows = None
        if rows is None or len(rows) != len(lines):
            k = next(i for i, line in enumerate(lines) if not _parses(line, dtype))
            bad = int(block_numbers[k]), lines[k]
            block_numbers, rows = block_numbers[:k], _loadtxt(lines[:k], dtype)
        numbers.append(block_numbers)
        values.append(rows["values"])
        block_codes = np.empty((2, len(rows)), np.intp)
        for index, column, out in zip(labels, ("unit", "period"), block_codes):
            found = rows[column].tolist()
            for label in dict.fromkeys(found):
                index.setdefault(label, len(index))
            out[:] = np.fromiter(map(index.__getitem__, found), np.intp, len(found))
        codes.append(block_codes)
    units, periods = map(tuple, labels)
    return (
        np.concatenate(values),
        np.hstack(codes),
        units,
        periods,
        np.concatenate(numbers),
        bad,
    )


def _malformed(line: str, width: int) -> str:
    """The error for a data line that np.loadtxt rejects, worded as float() words it."""
    reader = csv.reader([line, "\n"])
    fields = next(reader)
    if reader.line_num > 1:
        return "quoted field not closed on its line; a field may not span lines"
    if len(fields) != 2 + width:
        return f"expected {2 + width} fields, got {len(fields)}"
    # each value alone, quoted so that loadtxt reads exactly the field's text
    field = next(v for v in fields[2:] if not _parses('"' + v.replace('"', '""') + '"', float))
    return f"malformed number: could not convert string to float: {field!r}"


def _read_long_csv(path: str, what: str, read_header, row_checks, duplicate):
    """Parse a long CSV into an (N, T, width) array plus unit and period labels.

    Units and periods keep the order in which they first appear, so rows may
    come in any order. `read_header(fields)` validates the header and returns
    the number of value columns. `row_checks(values)` gives (mask, describe)
    pairs in the order a row is checked, where `describe(row)` words the
    error; `duplicate(unit, period)` words the duplicate-cell error. An error
    names the file line of the first row that fails any check.
    """
    with open(path, encoding="utf-8-sig") as handle:
        for number, line in enumerate(handle, start=1):
            if _is_data(line):
                break
        else:
            raise DataError(f"{path}: no header row found")
        width = read_header(next(csv.reader([line])))
        values, codes, units, periods, numbers, bad = _load_rows(handle, number, width)
    n, t = len(units), len(periods)
    cell = codes[0] * t + codes[1]
    index = np.arange(len(cell))
    first = np.full(n * t, -1)
    first[cell[::-1]] = index[::-1]  # the last write wins: each cell's first row
    checks = [
        *row_checks(values),
        (first[cell] != index, lambda i: duplicate(units[codes[0, i]], periods[codes[1, i]])),
    ]
    failing = np.array([mask for mask, _ in checks])
    if failing.any():
        row = int(failing.any(axis=0).argmax())
        describe = checks[int(failing[:, row].argmax())][1]
        raise DataError(f"row {numbers[row]}: {describe(row)}")
    if bad is not None:
        raise DataError(f"row {bad[0]}: {_malformed(bad[1], width)}")
    if (first < 0).any():
        i, j = divmod(int((first < 0).argmax()), t)
        raise DataError(
            f"unbalanced {what}: missing cell (unit {units[i]}, period {periods[j]})"
        )
    table = np.empty((n, t, width))
    table.reshape(n * t, width)[cell] = values
    return table, units, periods


def read_panel_csv(path: str) -> PanelDataset:
    """Parse and validate a long-format panel CSV; y is converted to ln y.

    Units and periods keep the order in which they first appear; the rows
    may come in any order.
    """
    p = q = r = 0

    def read_header(fields):
        nonlocal p, q, r
        p, q, r = _parse_header(fields)
        return 1 + p + q + r

    def row_checks(values):
        def positive(j, name, got=""):
            return values[:, j] <= 0, lambda i: (
                f"{name} must be positive to take logs, got {got}{float(values[i, j])!r}"
            )

        return [
            (~np.isfinite(values).all(axis=1), lambda i: "non-finite value"),
            positive(0, "output", "y="),
            *(positive(j, f"input x{j}") for j in range(1, 1 + p)),
        ]

    table, units, periods = _read_long_csv(
        path,
        "panel",
        read_header,
        row_checks,
        lambda unit, period: f"duplicate cell (unit {unit}, period {period})",
    )
    y = table[..., 0].ravel().tolist()
    return PanelDataset(
        log_output=np.fromiter(map(math.log, y), float, len(y)).reshape(table.shape[:2]),
        log_inputs=np.log(table[..., 1 : 1 + p]),
        spatial=table[..., 1 + p : 1 + p + q],
        covariates=table[..., 1 + p + q :],
        unit_ids=units,
        period_ids=periods,
    )


# ---------------------------------------------------------------------------
# TE CSV


def write_te_csv(
    te: np.ndarray, unit_ids, period_ids, path: str, meta: dict | None = None
) -> None:
    _write_long_csv(path, meta, unit_ids, period_ids, {"te": te})


def read_te_csv(path: str) -> tuple[np.ndarray, tuple, tuple]:
    """Read a TE CSV back into an (N, T) matrix plus its labels.

    Units and periods keep the order in which they first appear.
    """

    def read_header(fields):
        if fields != ["unit", "period", "te"]:
            raise DataError(f"TE CSV must have header unit,period,te; got {fields}")
        return 1

    table, units, periods = _read_long_csv(
        path,
        "TE matrix",
        read_header,
        lambda values: [],
        lambda unit, period: f"duplicate cell {(unit, period)}",
    )
    return table[..., 0], units, periods


# ---------------------------------------------------------------------------
# scenario / grid JSON


def scenario_to_dict(scenario: Scenario) -> dict:
    out = asdict(scenario)
    out["base_params"] = asdict(scenario.base_params)
    return out


def scenario_from_dict(data: dict) -> Scenario:
    data = dict(data)
    params = data.pop("base_params", None)
    try:
        base = ModelParams(**params) if params is not None else ModelParams()
        return Scenario(base_params=base, **data)
    except TypeError as err:
        raise DataError(f"bad scenario JSON: {err}") from err


def read_scenario_json(path: str) -> Scenario:
    with open(path) as handle:
        try:
            data = json.load(handle)
        except json.JSONDecodeError as err:
            raise DataError(f"{path}: invalid JSON: {err}") from err
    if not isinstance(data, dict):
        raise DataError(f"{path}: scenario JSON must be an object")
    data.pop("meta", None)
    return scenario_from_dict(data)


def write_scenario_json(scenario: Scenario, path: str, meta: dict | None = None) -> None:
    payload: dict = {}
    if meta is not None:
        payload["meta"] = _versioned(meta)
    payload.update(scenario_to_dict(scenario))
    _atomic_write(path, json.dumps(payload, indent=2) + "\n")


def grid_from_dict(data: dict) -> GridSpec:
    data = dict(data)
    data.pop("meta", None)
    params = data.pop("base_params", None)
    kwargs: dict = {}
    list_fields = {
        "test_kinds": str,
        "n_values": int,
        "t_values": int,
        "dominances": str,
        "fractions": float,
        "shifts": float,
    }
    for name, cast in list_fields.items():
        if name in data:
            kwargs[name] = tuple(cast(v) for v in data.pop(name))
    for name in ("boot_k", "alpha", "ar_order_p", "series_source", "te_source"):
        if name in data:
            kwargs[name] = data.pop(name)
    if data:
        raise DataError(f"unknown grid fields: {sorted(data)}")
    from .power import default_power_params

    base = ModelParams(**params) if params is not None else default_power_params()
    try:
        return GridSpec(base_params=base, **kwargs)
    except TypeError as err:
        raise DataError(f"bad grid JSON: {err}") from err


def read_grid_json(path: str) -> GridSpec:
    with open(path) as handle:
        try:
            data = json.load(handle)
        except json.JSONDecodeError as err:
            raise DataError(f"{path}: invalid JSON: {err}") from err
    if not isinstance(data, dict):
        raise DataError(f"{path}: grid JSON must be an object")
    return grid_from_dict(data)


# ---------------------------------------------------------------------------
# reports


def estimation_report_dict(result: EstimationResult, meta: dict | None = None) -> dict:
    frontier = result.frontier
    return {
        "meta": _versioned(meta),
        "beta0_hat": frontier.beta0_hat,
        "beta_hat": list(frontier.beta_hat),
        "rho_hat": frontier.rho_hat,
        "gamma_hat": list(result.gamma_hat),
        "phi_hat": list(result.phi_hat),
        "iterations": frontier.iterations,
        "converged": frontier.converged,
        "clamp_count": result.clamp_count,
        "clamp_fraction": result.clamp_fraction,
        "clamp_flagged": result.clamp_flagged,
    }


def test_report_dict(report: TestReport, meta: dict | None = None) -> dict:
    return {
        "meta": _versioned(meta),
        "test_kind": report.test_kind,
        "reference_value": report.reference_value,
        "n_failing": report.n_failing,
        "reject": report.reject,
        "decision_rule": report.decision_rule,
        "alpha": report.alpha,
        "blocks": [
            {
                "label": str(label),
                "estimate": est,
                "interval": [lo, hi],
                "excludes_reference": bool(
                    report.reference_value < lo or report.reference_value > hi
                ),
            }
            for label, est, (lo, hi) in zip(
                report.block_labels, report.per_block_estimate, report.per_block_interval
            )
        ],
    }


def write_json(payload: dict, path: str) -> None:
    _atomic_write(path, json.dumps(payload, indent=2) + "\n")


def write_power_csv(table: PowerTable, path: str, meta: dict | None = None) -> None:
    lines = _meta_lines(meta) + table.csv_rows()
    _atomic_write(path, "\n".join(lines) + "\n")
