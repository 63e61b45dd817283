"""File formats: long-format panel CSV, TE CSV, scenario/grid JSON, reports.

Every writer embeds the tool version, the issuing command, and the effective
seed (as '#' comment lines in CSV, a "meta" object in JSON) and writes
atomically (temp file + rename). No timestamps, so identical runs produce
identical bytes.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import re
import tempfile
from array import array
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


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "w", newline="") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_long_csv(
    path: str, meta: dict | None, unit_ids, period_ids, columns: dict[str, np.ndarray]
) -> None:
    """One row per (unit, period), units outer; each column is an (N, T) array
    whose values are written as repr(float)."""
    n, t = len(unit_ids), len(period_ids)
    cells = []
    for name, values in columns.items():
        values = np.asarray(values, dtype=float)
        if values.shape != (n, t):
            raise ValidationError(f"column {name} has shape {values.shape}, not ({n}, {t})")
        cells.append(list(map(repr, values.ravel().tolist())))
    units = [label for label in map(str, unit_ids) for _ in range(t)]
    periods = [str(period) for period in period_ids] * n
    buf = io.StringIO()
    buf.writelines(line + "\n" for line in _meta_lines(meta))
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["unit", "period", *columns])
    writer.writerows(zip(units, periods, *cells))
    _atomic_write(path, buf.getvalue())


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


class _Cells:
    """The (unit, period) cells of a long-format CSV.

    Units and periods keep the order in which they first appear, so rows may
    come in any order. Values are packed as they arrive, so no Python object
    outlives its row.
    """

    def __init__(self, width: int):
        self.units: dict[str, int] = {}  # label -> index
        self.periods: dict[str, int] = {}
        self._seen: set[tuple[int, int]] = set()
        self._unit_pos, self._period_pos = array("q"), array("q")
        self._values = array("d")
        self._width = width

    def add(self, unit: str, period: str, values) -> bool:
        """Store one cell's values; False when the cell is already stored."""
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

    def grid(self, what: str) -> np.ndarray:
        """(N, T, width) array of the values; raises naming the first missing cell."""
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


def read_panel_csv(path: str) -> PanelDataset:
    """Parse and validate a long-format panel CSV; y is converted to ln y.

    Units and periods keep the order in which they first appear; the rows
    may come in any order.
    """
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
                cells = _Cells(1 + p + q + r)
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
    cells = _Cells(1)
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
