"""The benchmark's tracer still fits the package.

perfbench/tracing.py wraps stfrontier's functions by module attribute and
reads work counts off their arguments and results. A name it cannot find,
or a count it cannot read, turns that layer's metric null in the benchmark
run. This test runs one call of each kind the workloads make under the
tracer, so such a rename fails here first.
"""

import importlib.util
import json
import sys
from pathlib import Path

from stfrontier import Scenario, cli, power

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"

#: The span of every hooked layer the four calls below reach. Only
#: assumption_tests.ar_fit is hooked and not reached: no code in the
#: package calls it.
REACHED = {
    "op",
    "cli.simulate",
    "cli.estimate",
    "simulate.panel",
    "estimation.model",
    "estimation.gls",
    "io.write_panel",
    "io.read_panel",
    "io.write_te",
    "io.write_json",
    "power.run_power_cell",
    "assumption_tests.temporal",
    "assumption_tests.spatial",
    "assumption_tests.spatial_slice",
    "assumption_tests.te_to_logit",
}


def load_tracing(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up by name
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_every_hook_is_found_and_every_layer_metric_is_read(tmp_path, monkeypatch, capsys):
    tracing = load_tracing(monkeypatch)
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps({"n_units": 20, "n_periods": 12}))
    panel, report, te = (str(tmp_path / name) for name in ("p.csv", "r.json", "te.csv"))
    cell = Scenario(n_units=20, n_periods=12, base_params=power.default_power_params())
    calls = [
        # through the module attribute, as the workloads call it, so the hook sees it
        lambda: cli.parse_and_dispatch(["simulate", "--scenario", str(scenario), "--seed", "7",
                                        "--out", panel]),
        lambda: cli.parse_and_dispatch(["estimate", "--panel", panel, "--out", report,
                                        "--te-out", te]),
        lambda: power.run_power_cell(cell, "temporal", 1, 11, boot_k=100),
        lambda: power.run_power_cell(cell, "spatial", 1, 12, boot_k=100,
                                     te_source="estimated"),
    ]
    tracer = tracing.Tracer()
    hooks = tracing.Instrumentation(tracer)
    results = []
    with hooks.installed():
        for call in calls:
            with tracer.op():
                results.append(call())
    capsys.readouterr()
    assert results[:2] == [0, 0]
    assert [cell.n_failures for cell in results[2:]] == [0, 0]
    assert hooks.missing == set()
    assert {span.name for span in tracer.spans} == REACHED
    assert [span.attrs for span in tracer.spans if "count_error" in span.attrs] == []
    metrics = tracing.span_metrics(tracer.spans, hooks.missing)
    assert {name: m for name, m in metrics.items() if m["value"] is None} == {}
