"""stfrontier benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. With --trace 0 the last stdout line carries
the end-to-end metrics; with --trace 1 it carries the per-layer metrics of a
traced run. The line before it is a JSON context record (thread settings, op
counts, failure share, tail percentiles). Exits 1 when an output check fails
and 2 when the package cannot be found. See perfbench/README.md.
"""

from __future__ import annotations

import os

# Thread budget: the two run_grid pool workers use the machine's 2 cores, so
# BLAS runs single-threaded. Set before numpy is imported.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import collections  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "stfrontier"
OUT = ROOT / ".perfbench_out"

#: Fresh processes timed per run for setup_s; the median is reported.
SETUP_PROBES = 7

#: Ops run even when --seconds has already elapsed.
MIN_OPS = 3


def import_package() -> float:
    """Import stfrontier from this checkout's src/; returns the import time in ms."""
    if not (PACKAGE / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: {PACKAGE} not found; run from a checkout of the repository\n")
        sys.exit(2)
    sys.path.insert(0, str(PACKAGE.parent))
    start = time.perf_counter()
    import stfrontier

    elapsed_ms = 1e3 * (time.perf_counter() - start)
    if Path(stfrontier.__file__).resolve().parent != PACKAGE.resolve():
        sys.stderr.write(f"perfbench: imported stfrontier from {stfrontier.__file__}, not {PACKAGE}\n")
        sys.exit(2)
    return elapsed_ms


def setup_probe(workloads, name: str, seed: int, import_ms: float) -> None:
    """Child-process body of one setup measurement: build the inputs, report."""
    workdir = OUT / f"probe-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workloads.WORKLOADS[name](seed, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"import_ms": import_ms}))


def probe_setup(workload: str, seed: int) -> tuple[float, float]:
    """One fresh process: wall seconds from its start to inputs ready, and its import ms."""
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, __file__, "--setup-probe", "--workload", workload, "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    wall = time.perf_counter() - start
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        sys.exit(done.returncode or 2)
    return wall, json.loads(done.stdout.splitlines()[-1])["import_ms"]


#: Share of samples dropped at each end before the CLI latencies are averaged.
TRIM = 0.1


def trimmed_mean(values: list[float]) -> float:
    """Mean of the samples left after dropping the lowest and highest TRIM of them.

    With a handful of samples (a run of cli-large-panel holds about seven)
    the mean is steadier than the median; trimming keeps one stalled side
    pair from moving it.
    """
    values = sorted(values)
    cut = int(len(values) * TRIM)
    return statistics.fmean(values[cut:len(values) - cut])


def tail(values: list[float]) -> dict:
    """Sample count, median, and the highest percentile with ten samples beyond it."""
    out = {"n": len(values), "p50": statistics.median(values)}
    if len(values) >= 20:
        pct = int(100 * (1 - 10 / len(values)))
        out[f"p{pct}"] = sorted(values)[max(0, -(-pct * len(values) // 100) - 1)]
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()

    import_ms = import_package()
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    if args.setup_probe:
        setup_probe(workloads, args.workload, args.seed, import_ms)
        return 0

    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        tracer = tracing.Tracer()
        instr = tracing.Instrumentation(tracer)

        def timed(index: int, fn, *fn_args):
            """Run one op from a collected heap; in a traced run every other op is traced.

            Without the collection, garbage left by the Monte Carlo ops
            slows the side pairs run between them.
            """
            gc.collect()
            if not (args.trace and index % 2 == 0):
                return False, fn(*fn_args)
            with instr.installed(), tracer.op():
                return True, fn(*fn_args)

        # Setup probes and side work are spread evenly over the timed window,
        # so that every metric averages over the same stretch of machine noise.
        pending = workload.side_work()
        ops, side, probes = [], [], []
        kind_runs = collections.Counter()
        start = time.perf_counter()

        def due(done: int, total: int) -> bool:
            return done < total and time.perf_counter() - start >= done * args.seconds / total

        def run_side() -> None:
            seed, runner = pending[len(side)]
            kind_runs[type(runner)] += 1
            _, result = timed(kind_runs[type(runner)] - 1, runner.run, seed)
            side.append((seed, runner, result))

        while len(ops) < MIN_OPS or time.perf_counter() < start + args.seconds:
            ops.append(timed(len(ops), workload.run_op, workload.op_seed(len(ops))))
            while due(len(probes), SETUP_PROBES):
                probes.append(probe_setup(args.workload, args.seed))
            while due(len(side), len(pending)):
                run_side()
        probes += [probe_setup(args.workload, args.seed) for _ in range(SETUP_PROBES - len(probes))]
        while len(side) < len(pending):
            run_side()
        failures, checked = workload.check(ops[0][1], [op for _, op in ops], side)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    setup_walls, probe_import_ms = zip(*probes)
    main_ops = [op for _, op in ops]
    results = main_ops + [op for _, _, op in side]
    failures = [e for op in results for e in op.errors] + failures
    attempted = sum(op.attempted for op in results)
    failed = sum(op.failed for op in results)
    pairs = [op for op in results if "simulate_s" in op.phases and not op.errors]
    simulate_s = [op.phases["simulate_s"] for op in pairs] or [float("nan")]
    estimate_s = [op.phases["estimate_s"] for op in pairs] or [float("nan")]
    context = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "threads": {"pool_workers": workload.pool_workers, "blas": int(BLAS_THREADS),
                    "nproc": os.cpu_count()},
        "ops": len(main_ops),
        "op_s": tail([op.wall_s for op in main_ops]),
        "simulate_s": tail(simulate_s),
        "estimate_s": tail(estimate_s),
        "failed_share": {"value": failed / attempted, "unit": "share"},
        "first_op_counts": main_ops[0].counts,
        "checks_failed": failures,
    }

    OUT.mkdir(exist_ok=True)
    samples = {"op_s": [op.wall_s for op in main_ops], "simulate_s": simulate_s,
               "estimate_s": estimate_s, "setup_s": list(setup_walls)}
    samples_file = OUT / f"samples-{args.workload}-{args.seed}-trace{args.trace}.json"
    samples_file.write_text(json.dumps(samples))
    context["samples_file"] = str(samples_file.relative_to(ROOT))

    if args.trace:
        trace_file = OUT / f"trace-{args.workload}.json"
        tracer.write(trace_file)
        traced = [op.wall_s for was_traced, op in ops if was_traced]
        untraced = [op.wall_s for was_traced, op in ops if not was_traced]
        metrics = {"setup.import_ms": {"value": statistics.median(probe_import_ms), "unit": "ms"}}
        metrics.update(tracing.span_metrics(tracer.spans, instr.missing))
        metrics["power.failed_reps"] = {
            "value": sum(op.counts.get("failed_reps", 0) for op in results), "unit": "count"}
        metrics["power.pool_speedup"] = {
            "value": checked.get("power.pool_speedup", 0.0), "unit": "ratio"}
        metrics["trace.overhead_share"] = {
            "value": (statistics.median(traced) / statistics.median(untraced) - 1.0
                      if traced and untraced else 0.0),
            "unit": "share"}
        context["trace_file"] = str(trace_file.relative_to(ROOT))
        context["missing_names"] = sorted(instr.missing)
    else:
        reps = sum(workload.completed_reps(op) for op in main_ops)
        metrics = {
            "setup_s": {"value": statistics.median(setup_walls), "unit": "s"},
            "reps_per_s": {"value": reps / sum(op.wall_s for op in main_ops), "unit": "1/s"},
            "simulate_s": {"value": trimmed_mean(simulate_s), "unit": "s"},
            "estimate_s": {"value": trimmed_mean(estimate_s), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                            "unit": "MB"},
        }

    for failure in failures:
        sys.stderr.write(f"check failed: {failure}\n")
    print(json.dumps({"context": context}))
    print(json.dumps({"correct": not failures, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
