"""In-memory span tracer for the traced benchmark run.

Spans are recorded by wrapping stfrontier's functions at the module
attributes through which one module calls another (``power.simulate_panel``,
``assumption_tests.ar_fit``, ``cli.io.read_panel_csv``, ...), so nothing in
the package changes. A wrapped name that no longer exists is recorded as
missing, and every metric that depends on it is reported as missing.

Each span has a name, start, end, parent and thread. Parents come from a
per-thread stack; a span opened on a thread with an empty stack (a run_grid
pool worker) is parented to the current op span, so the 2-thread grid nests
under the op that started it.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import itertools
import json
import os
import statistics
import threading
import time
from collections import defaultdict
from dataclasses import asdict, dataclass, field
from typing import Callable


@dataclass
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._root: int | None = None

    def _stack(self) -> list[int]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    @contextlib.contextmanager
    def span(self, name: str):
        stack = self._stack()
        span = Span(next(self._ids), name, time.perf_counter(), 0.0,
                    stack[-1] if stack else self._root, threading.get_ident())
        stack.append(span.sid)
        try:
            yield span
        finally:
            stack.pop()
            span.end = time.perf_counter()
            self.spans.append(span)

    @contextlib.contextmanager
    def op(self):
        """Root span of one benchmark op; pool threads parent their spans to it."""
        with self.span("op") as span:
            self._root = span.sid
            try:
                yield span
            finally:
                self._root = None

    def write(self, path) -> None:
        with open(path, "w") as handle:
            json.dump([asdict(s) for s in self.spans], handle)


@dataclass(frozen=True)
class Hook:
    """One wrapped name: ``stfrontier.<module>.<attr>`` records span ``span``.

    ``span`` may be a function of the bound arguments; ``count`` maps the
    bound arguments and the result to work counts stored on the span.
    """

    module: str
    attr: str
    span: str | Callable[[dict], str]
    count: Callable[[dict, object], dict] | None = None

    @property
    def target(self) -> str:
        return f"{self.module}.{self.attr}"


def _panel_cells(panel) -> int:
    return panel.n_units * panel.n_periods


def _clamp_share(bound: dict, result) -> dict:
    return {"clamp_share": result.clamp_fraction}


def _gls_iterations(bound: dict, result) -> dict:
    return {"iterations": result.iterations}


HOOKS = (
    Hook("power", "run_power_cell", "power.run_power_cell",
         lambda a, r: {"reps": r.n_reps, "failed": r.n_failures}),
    Hook("power", "simulate_panel", "simulate.panel"),
    Hook("cli", "simulate_panel", "simulate.panel"),
    Hook("power", "estimate_model", "estimation.model", _clamp_share),
    Hook("cli", "estimate_model", "estimation.model", _clamp_share),
    Hook("estimation", "fit_frontier_gls", "estimation.gls", _gls_iterations),
    Hook("assumption_tests", "fit_frontier_gls", "estimation.gls", _gls_iterations),
    Hook("power", "test_constant_temporal", "assumption_tests.temporal",
         lambda a, r: {"refits": a["panel"].n_units * a["config"].n_boot_k}),
    Hook("assumption_tests", "ar_fit", "assumption_tests.ar_fit"),
    Hook("power", "test_constant_spatial", "assumption_tests.spatial",
         lambda a, r: {"resamples": len(a["te"][0]) * a["config"].n_boot_k}),
    Hook("assumption_tests", "fit_spatial_slice", "assumption_tests.spatial_slice"),
    Hook("assumption_tests", "te_to_logit", "assumption_tests.te_to_logit"),
    Hook("io", "read_panel_csv", "io.read_panel", lambda a, r: {"rows": _panel_cells(r)}),
    Hook("io", "write_panel_csv", "io.write_panel",
         lambda a, r: {"rows": _panel_cells(a["panel"]), "bytes": os.path.getsize(a["path"])}),
    Hook("io", "write_te_csv", "io.write_te"),
    Hook("io", "write_json", "io.write_json"),
    Hook("cli", "parse_and_dispatch", lambda a: f"cli.{a['argv'][0]}"),
)


class Instrumentation:
    """Installs the HOOKS wrappers around a block and restores the originals."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.missing: set[str] = set()

    @contextlib.contextmanager
    def installed(self):
        saved = []
        try:
            for hook in HOOKS:
                module = importlib.import_module(f"stfrontier.{hook.module}")
                original = getattr(module, hook.attr, None)
                if original is None:
                    self.missing.add(hook.target)
                    continue
                setattr(module, hook.attr, self._wrap(original, hook))
                saved.append((module, hook.attr, original))
            yield
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def _wrap(self, fn, hook: Hook):
        signature = inspect.signature(fn)
        tracer = self.tracer

        def wrapper(*args, **kwargs):
            bound = signature.bind(*args, **kwargs).arguments
            name = hook.span(bound) if callable(hook.span) else hook.span
            with tracer.span(name) as span:
                result = fn(*args, **kwargs)
            if hook.count is not None:
                try:
                    span.attrs.update(hook.count(bound, result))
                except (AttributeError, KeyError, OSError, TypeError) as err:
                    span.attrs["count_error"] = f"{hook.target}: {err}"
            return result

        return wrapper


# ---------------------------------------------------------------------------
# per-layer metrics derived from the spans


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


class SpanIndex:
    def __init__(self, spans: list[Span]):
        self.by_name: dict[str, list[Span]] = defaultdict(list)
        self.children: dict[int, list[Span]] = defaultdict(list)
        for span in spans:
            self.by_name[span.name].append(span)
            if span.parent is not None:
                self.children[span.parent].append(span)

    def self_seconds(self, span: Span) -> float:
        """Duration minus the part of the span's interval its children cover."""
        intervals = sorted(
            (max(c.start, span.start), min(c.end, span.end)) for c in self.children[span.sid]
        )
        covered, reach = 0.0, span.start
        for lo, hi in intervals:
            lo = max(lo, reach)
            if hi > lo:
                covered += hi - lo
                reach = hi
        return span.seconds - covered

    def child_seconds(self, span: Span, name: str) -> float:
        return sum(c.seconds for c in self.children[span.sid] if c.name == name)

    def attr(self, name: str, key: str) -> list:
        """Values of one work count over the spans of a name; KeyError if any lacks it."""
        return [s.attrs[key] for s in self.by_name[name]]

    def median_ms(self, name: str) -> float:
        return 1e3 * _median(s.seconds for s in self.by_name[name])

    def median_self_ms(self, name: str) -> float:
        return 1e3 * _median(self.self_seconds(s) for s in self.by_name[name])

    def rate(self, name: str, key: str) -> float:
        """Work count per second of the spans' self time."""
        busy = sum(self.self_seconds(s) for s in self.by_name[name])
        return sum(self.attr(name, key)) / busy if busy > 0 else 0.0


def _per_rep_ms(ix: SpanIndex, seconds) -> float:
    cells = ix.by_name["power.run_power_cell"]
    return 1e3 * _median(seconds(c) / c.attrs["reps"] for c in cells)


#: name -> (unit, wrapped names it needs, derivation from a SpanIndex)
SPAN_METRICS: dict[str, tuple[str, tuple[str, ...], Callable[[SpanIndex], float]]] = {
    "simulate.panel_ms": ("ms", ("power.simulate_panel", "cli.simulate_panel"),
                          lambda ix: ix.median_ms("simulate.panel")),
    "estimation.gls_ms": ("ms", ("estimation.fit_frontier_gls", "assumption_tests.fit_frontier_gls"),
                          lambda ix: ix.median_ms("estimation.gls")),
    "estimation.model_ms": ("ms", ("power.estimate_model", "cli.estimate_model"),
                            lambda ix: ix.median_ms("estimation.model")),
    "estimation.gls_iterations": ("count", ("estimation.fit_frontier_gls", "assumption_tests.fit_frontier_gls"),
                                  lambda ix: _median(ix.attr("estimation.gls", "iterations"))),
    "estimation.clamp_share": ("share", ("power.estimate_model", "cli.estimate_model"),
                               lambda ix: _median(ix.attr("estimation.model", "clamp_share"))),
    "assumption_tests.temporal_ms": ("ms", ("power.test_constant_temporal",),
                                     lambda ix: ix.median_ms("assumption_tests.temporal")),
    "assumption_tests.ar_fit_ms": (
        "ms", ("power.test_constant_temporal", "assumption_tests.ar_fit"),
        lambda ix: 1e3 * _median(ix.child_seconds(s, "assumption_tests.ar_fit")
                                 for s in ix.by_name["assumption_tests.temporal"])),
    "assumption_tests.temporal_self_ms": (
        "ms", ("power.test_constant_temporal", "assumption_tests.ar_fit", "assumption_tests.fit_frontier_gls"),
        lambda ix: ix.median_self_ms("assumption_tests.temporal")),
    "assumption_tests.refits_per_s": (
        "1/s", ("power.test_constant_temporal", "assumption_tests.ar_fit", "assumption_tests.fit_frontier_gls"),
        lambda ix: ix.rate("assumption_tests.temporal", "refits")),
    "assumption_tests.spatial_ms": ("ms", ("power.test_constant_spatial",),
                                    lambda ix: ix.median_ms("assumption_tests.spatial")),
    "assumption_tests.spatial_self_ms": (
        "ms", ("power.test_constant_spatial", "assumption_tests.fit_spatial_slice", "assumption_tests.te_to_logit"),
        lambda ix: ix.median_self_ms("assumption_tests.spatial")),
    "assumption_tests.resamples_per_s": (
        "1/s", ("power.test_constant_spatial", "assumption_tests.fit_spatial_slice", "assumption_tests.te_to_logit"),
        lambda ix: ix.rate("assumption_tests.spatial", "resamples")),
    "power.ms_per_rep": ("ms", ("power.run_power_cell",),
                         lambda ix: _per_rep_ms(ix, lambda c: c.seconds)),
    "power.overhead_ms": (
        "ms", ("power.run_power_cell", "power.simulate_panel", "power.estimate_model",
               "power.test_constant_temporal", "power.test_constant_spatial"),
        lambda ix: _per_rep_ms(ix, ix.self_seconds)),
    "io.read_panel_ms": ("ms", ("io.read_panel_csv",), lambda ix: ix.median_ms("io.read_panel")),
    "io.read_rows_per_s": ("1/s", ("io.read_panel_csv",), lambda ix: ix.rate("io.read_panel", "rows")),
    "io.write_te_ms": ("ms", ("io.write_te_csv",), lambda ix: ix.median_ms("io.write_te")),
    "io.write_panel_ms": ("ms", ("io.write_panel_csv",), lambda ix: ix.median_ms("io.write_panel")),
    "io.panel_csv_mb": ("MB", ("io.write_panel_csv",),
                        lambda ix: _median(ix.attr("io.write_panel", "bytes")) / 1e6),
    "cli.simulate_self_ms": (
        "ms", ("cli.parse_and_dispatch", "cli.simulate_panel", "io.write_panel_csv"),
        lambda ix: ix.median_self_ms("cli.simulate")),
    "cli.estimate_self_ms": (
        "ms", ("cli.parse_and_dispatch", "cli.estimate_model", "io.read_panel_csv",
               "io.write_te_csv", "io.write_json"),
        lambda ix: ix.median_self_ms("cli.estimate")),
    "trace.unaccounted_share": (
        "share", (),
        lambda ix: (sum(ix.self_seconds(s) for s in ix.by_name["op"])
                    / max(sum(s.seconds for s in ix.by_name["op"]), 1e-12))),
}


def span_metrics(spans: list[Span], missing: set[str]) -> dict[str, dict]:
    """Per-layer metrics from the spans; 0 where the workload makes no such call."""
    ix = SpanIndex(spans)
    out = {}
    for name, (unit, needs, derive) in SPAN_METRICS.items():
        lost = sorted(set(needs) & missing)
        if lost:
            out[name] = {"value": None, "unit": unit, "missing": f"no such name: {', '.join(lost)}"}
            continue
        try:
            out[name] = {"value": float(derive(ix)), "unit": unit}
        except KeyError as err:
            errors = {s.attrs["count_error"] for s in spans if "count_error" in s.attrs}
            reason = "; ".join(sorted(errors)) or f"work count {err} not recorded"
            out[name] = {"value": None, "unit": unit, "missing": reason}
    return out
