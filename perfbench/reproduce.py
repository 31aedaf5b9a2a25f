"""The reproduce_all workload: regenerate every artefact, fresh interpreter.

The parent (:func:`run`) starts child interpreters with
``python -m perfbench.reproduce``:

* ``setup_repeats`` children that only import the runner, half before
  the regeneration and half after; ``setup_s`` is the median of their
  wall times (interpreter start plus imports, up to the first
  experiment);
* one child that regenerates Table 1 through Fig. 11 with their metrics
  documents exactly as ``repro-experiments all --metrics-out PATH`` does
  (it calls ``repro.experiments.runner.main``), at the simulation budget
  in the workload's ``config`` in ``workloads.json``.  A traced run
  starts an untraced child first, so tracing overhead is the traced
  wall time over the untraced one.

The child (:func:`main`) checks the correctness gates and prints one JSON
line.  An experiment that raises or fails a gate is one failed operation
out of nine.  The children's environment carries no other ``REPRO_*``
setting, so the run is the default user path.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from repro import datasets, model, packing, simulation
from repro.accel import DenseStabber, GridStabbingIndex
from repro.experiments import runner
from repro.obs import (
    Tracer,
    span,
    use_tracer,
    validate_document,
    validate_report,
    write_chrome_trace,
)
from repro.queries import (
    DataDrivenWorkload,
    MixedWorkload,
    UniformRegionWorkload,
)

from . import host
from .layers import (
    ROOT,
    Shims,
    count_call,
    count_nodes,
    count_stab,
    fold,
    loader_sub,
)
from .report import Outcome, fold_lines, percentile, ratio

ROOT_DIR = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT_DIR / ".perfbench_out" / "reproduce_all"

SETUP_TIMEOUT_S = 20.0
CHILD_TIMEOUT_S = {False: 160.0, True: 85.0}
"""Per-child limits, keyed by whether the run is traced (a traced run
starts two regeneration children and must still end within 180 s)."""

PROBE_TIMERS = ("probe.wall", "sweep_probe.wall")
"""Registry timers the runner records around each experiment's probes."""

TABLE1_BAND_PCT = {True: 4.0, False: 20.0}
"""Table 1's allowed simulated-vs-model difference, keyed by whether the
buffer holds at least 50 pages (``benchmarks/test_table1_validation.py``)."""


def _child(
    args: list[str], config: dict, timeout: float
) -> subprocess.CompletedProcess:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT_DIR / "src"), str(ROOT_DIR)])
    env["REPRO_SIM_BATCHES"] = str(config["sim_batches"])
    env["REPRO_SIM_QUERIES"] = str(config["sim_queries"])
    return subprocess.run(
        [sys.executable, "-m", "perfbench.reproduce", *args],
        cwd=ROOT_DIR,
        env=env,
        capture_output=True,
        text=True,
        timeout=timeout,
        check=False,
    )


def _regenerate(
    config: dict,
    experiments: list[str],
    *,
    trace: bool,
    delays: dict[str, float],
) -> dict:
    """One regeneration child; returns its JSON result plus its stderr."""
    out = OUT_DIR / ("traced" if trace else "untraced")
    args = ["--out", str(out), "--experiments", ",".join(experiments)]
    if trace:
        args.append("--trace")
    for layer, seconds in delays.items():
        args += ["--delay", f"{layer}={seconds}"]
    done = _child(args, config, CHILD_TIMEOUT_S[trace])
    if done.returncode != 0 or not done.stdout.strip():
        raise RuntimeError(
            f"regeneration child exited {done.returncode}: "
            f"{done.stderr[-2000:]}"
        )
    result = json.loads(done.stdout.strip().splitlines()[-1])
    result["stderr"] = done.stderr
    return result


def _import_times(config: dict, repeats: int) -> list[float]:
    """Wall times of ``repeats`` fresh interpreters importing the runner."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        done = _child(["--import-only"], config, SETUP_TIMEOUT_S)
        times.append(time.perf_counter() - start)
        if done.returncode != 0:
            raise RuntimeError(
                f"import-only child failed: {done.stderr[-2000:]}"
            )
    return times


def run(
    config: dict,
    *,
    trace: bool,
    setup_repeats: int = host.SETUP_REPEATS,
    delays: dict[str, float] | None = None,
    experiments: list[str] | None = None,
) -> Outcome:
    """One run of reproduce_all (see the module docstring).

    ``delays`` and ``experiments`` exist for the attribution self-test:
    it injects a delay into one layer's shims and regenerates a subset.
    """
    experiments = experiments or list(runner.EXPERIMENTS)
    steal = host.StealMeter()
    # Half the set-ups before the regeneration and half after, so their
    # median is not that of one moment of the host.
    setup_times = _import_times(config, (setup_repeats + 1) // 2)
    untraced = _regenerate(config, experiments, trace=False, delays={})
    result = untraced
    if trace:
        result = _regenerate(
            config, experiments, trace=True, delays=delays or {}
        )
    setup_times += _import_times(config, setup_repeats // 2)
    times = ", ".join(f"{k} {v:.2f}" for k, v in result["artefact_s"].items())
    outcome = Outcome(
        workload="reproduce_all",
        attempted=len(experiments),
        failed=len(result["failed"]),
        gate_failures=list(result["gate_failures"]),
        metrics=dict(result["metrics"]),
        notes=[
            f"reproduce_all: {len(experiments)} artefacts at "
            f"{config['sim_batches']} x {config['sim_queries']} simulated "
            "queries, one fresh interpreter",
            f"artefact times (s): {times}",
        ],
    )
    stderr = result["stderr"].strip()
    if stderr:
        outcome.notes.append(f"runner stderr: {stderr[-500:]}")
    outcome.metrics["setup_s"] = statistics.median(setup_times)
    outcome.metrics["host.steal_frac"] = steal.fraction()
    if trace:
        traced_s = result["metrics"]["trace.wall_s"]
        untraced_s = untraced["metrics"]["reproduce_s"]
        overhead = traced_s / untraced_s - 1.0
        outcome.metrics["trace.overhead_frac"] = overhead
        outcome.notes.append(
            f"tracing overhead: regeneration {traced_s:.3f} s traced, "
            f"{untraced_s:.3f} s untraced ({overhead:+.1%})"
        )
        outcome.notes += result["fold_lines"]
        outcome.counts = result["counts"]
    return outcome


# ----------------------------------------------------------------------
# Child side
# ----------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m perfbench.reproduce")
    parser.add_argument("--import-only", action="store_true")
    parser.add_argument("--out", type=Path)
    parser.add_argument("--experiments", default="")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument(
        "--delay", action="append", default=[], metavar="LAYER=SECONDS"
    )
    args = parser.parse_args(argv)
    if args.import_only:
        return 0
    workloads = ROOT_DIR / "perfbench" / "workloads.json"
    entry = json.loads(workloads.read_text())["workloads"]["reproduce_all"]
    config = entry["config"]
    experiments = (
        args.experiments.split(",")
        if args.experiments
        else list(runner.EXPERIMENTS)
    )
    delays = {k: float(v) for k, v in (d.split("=", 1) for d in args.delay)}
    args.out.mkdir(parents=True, exist_ok=True)
    report_path = args.out / "metrics.json"
    report_path.unlink(missing_ok=True)
    argv = [*experiments, "--metrics-out", str(report_path)]

    tracer = shims = previous = None
    if args.trace:
        tracer, shims = Tracer(), Shims(delays)
        _install_shims(shims)
        previous = use_tracer(tracer)
    crash = None
    cpu0 = host.process_cpu_s()
    start = time.perf_counter()
    artefacts = args.out / "artefacts.txt"
    try:
        with span(ROOT), open(artefacts, "w", encoding="utf-8") as text:
            with contextlib.redirect_stdout(text):
                runner.main(argv)
    except Exception as exc:  # the runner's own report validation, a crash
        crash = f"{type(exc).__name__}: {exc}"
    finally:
        if shims is not None:
            shims.restore()
            use_tracer(previous)
    wall = time.perf_counter() - start
    cpu = host.process_cpu_s() - cpu0
    traced = {}
    if tracer is not None:
        traced = _trace_metrics(
            tracer, shims, experiments, args.out, entry["predictions"]
        )

    gate_failures, failed, artefact_s, metrics = check_report(
        report_path, experiments, config, crash
    )
    metrics["max_qps"] = metrics.pop("simulated_queries") / wall
    metrics["reproduce_s"] = wall
    metrics["cpu_s"] = cpu
    metrics["peak_rss_mb"] = host.peak_rss_mb()
    metrics.update(traced.get("metrics", {}))
    result = {
        "failed": sorted(failed),
        "gate_failures": gate_failures + traced.get("errors", []),
        "metrics": metrics,
        "artefact_s": artefact_s,
        "fold_lines": traced.get("lines", []),
        "counts": traced.get("counts", {}),
    }
    print(json.dumps(result))
    return 0


def check_report(
    report_path: Path, experiments: list[str], config: dict, crash: str | None
) -> tuple[list[str], set[str], dict[str, float], dict[str, float]]:
    """The correctness gates over the written metrics report.

    Returns gate failures, the failed experiments, each artefact's time
    (its run plus its probes, in seconds), and the report-derived
    metrics: the p50 and p99 of the times at which the artefacts are
    out (the fifth and the last of nine), Table 1's disk reads per query
    at the serve_uniform configuration (HS, B=100), and the number of
    simulated queries.
    """
    if crash is not None or not report_path.exists():
        failure = f"runner: {crash or 'no metrics report written'}"
        metrics = dict.fromkeys(
            ("p50_ms", "p99_ms", "disk_reads_per_query", "simulated_queries"),
            0.0,
        )
        return [failure], set(experiments), {}, metrics
    report = json.loads(report_path.read_text(encoding="utf-8"))
    failures: list[str] = []
    failed: set[str] = set()
    try:
        validate_report(report)
    except ValueError as exc:
        failures.append(f"metrics report invalid: {exc}")
    documents = {}
    for document in report.get("documents", []):
        name = document["experiment"]["name"]
        try:
            validate_document(document)
        except ValueError as exc:
            failures.append(f"{name}: document invalid: {exc}")
            failed.add(name)
        documents[name] = document
    for name in experiments:
        if name not in documents:
            failures.append(f"{name}: raised (no document)")
            failed.add(name)

    artefact_s = {}
    simulated = 0
    for name, document in documents.items():
        timers = document["metrics"]["timers"]
        artefact_s[name] = document["wall_seconds"] + sum(
            timers[t]["total_seconds"] for t in PROBE_TIMERS if t in timers
        )
        for section in ("simulation", "sweep"):
            probe = (document.get(section) or {}).get("probe")
            if probe:
                simulated += probe["n_batches"] * probe["batch_size"]

    disk_reads = 0.0
    table1 = documents.get("table1")
    if table1 is not None:
        result = table1["result"]
        budget = config["sim_batches"] * config["sim_queries"]
        simulated += len(result["total_nodes"]) * budget
        for row in result["rows"]:
            limit = TABLE1_BAND_PCT[row["buffer_size"] >= 50]
            if not abs(row["percent_difference"]) < limit:
                failures.append(
                    f"table1: {row['loader']} B={row['buffer_size']} differs "
                    f"by {row['percent_difference']:.2f}% (band {limit}%)"
                )
                failed.add("table1")
            if row["loader"] == "hs" and row["buffer_size"] == 100:
                disk_reads = row["simulated"]
    # When each artefact is out, counted from the start of the run: the
    # runner regenerates them in order, each with its probes.
    done_ms = np.cumsum(
        [1e3 * artefact_s[n] for n in experiments if n in artefact_s]
    )
    metrics = {
        "p50_ms": percentile(done_ms, 50),
        "p99_ms": percentile(done_ms, 99),
        "disk_reads_per_query": disk_reads,
        "simulated_queries": float(simulated),
    }
    return failures, failed, artefact_s, metrics


# ----------------------------------------------------------------------
# Traced child: shims and per-layer metrics
# ----------------------------------------------------------------------


def _install_shims(shims: Shims) -> None:
    """Spans around each layer's entry points, where experiments bind them."""
    modules = [
        module
        for name, module in sorted(sys.modules.items())
        if name.startswith("repro.experiments") and module is not None
    ]
    bindings = [
        (datasets.tiger_like, "datasets", {}),
        (datasets.cfd_like, "datasets", {}),
        (datasets.synthetic_region, "datasets", {}),
        (datasets.synthetic_point, "datasets", {}),
        (
            packing.load_description,
            "packing",
            {"sub": loader_sub, "count": count_nodes},
        ),
        (
            simulation.simulate_sweep,
            "simulation",
            {"sub": "sweep", "count": _count_sweep},
        ),
        (
            simulation.simulate,
            "simulation",
            {"sub": "simulate", "count": _count_simulate},
        ),
        (model.buffer_model, "model", {"count": count_call}),
        (model.buffer_model_sweep, "model", {"count": count_call}),
        (model.expected_node_accesses, "model", {"count": count_call}),
    ]
    for function, layer, options in bindings:
        if not shims.patch_bindings(modules, function, layer, **options):
            shims.errors.append(
                f"no experiment module binds {function.__name__}"
            )
    methods = (("sample_points", "sample"), ("transformed_rects", "transform"))
    for cls in (UniformRegionWorkload, DataDrivenWorkload, MixedWorkload):
        for attr, sub in methods:
            if attr in vars(cls):
                shims.patch_attr(cls, attr, "queries", sub=sub)
    for cls in (GridStabbingIndex, DenseStabber):
        shims.patch_attr(cls, "stab", "accel", sub="stab", count=count_stab)


def _measured_queries(result) -> tuple[int, int, int, int]:
    """``(queries, requests, hits, evictions)`` of one measurement window."""
    requests = sum(b.requests for b in result.batch_stats)
    hits = sum(b.hits for b in result.batch_stats)
    evictions = sum(b.evictions for b in result.batch_stats)
    mean = result.node_accesses.mean
    queries = round(requests / mean) if mean > 0 else 0
    return queries, requests, hits, evictions


def _count_sweep(shims: Shims, args, kwargs, results) -> None:
    for result in results:
        queries = _measured_queries(result)[0]
        shims.counts["simulation.capacity_queries"] += queries


def _count_simulate(shims: Shims, args, kwargs, result) -> None:
    """Capacity-queries, plus the buffer loop's counts: the simulator's
    buffer is a BufferPool driven one request at a time, so its counters
    are read here rather than per request.  Warm-up requests are
    estimated from the warm-up query count and nodes per query."""
    queries, requests, hits, evictions = _measured_queries(result)
    counts = shims.counts
    counts["simulation.capacity_queries"] += queries
    counts["buffer.requests"] += requests + round(
        result.warmup_queries * result.node_accesses.mean
    )
    counts["buffer.measured_requests"] += requests
    counts["buffer.measured_hits"] += hits
    counts["buffer.measured_evictions"] += evictions
    counts["buffer.measured_queries"] += queries


def _trace_metrics(
    tracer: Tracer,
    shims: Shims,
    experiments: list[str],
    out: Path,
    predictions: dict,
) -> dict:
    """Fold the child's spans into per-layer metrics and report lines."""
    spans = tracer.finished()
    write_chrome_trace(out / "trace.json", spans)
    folded = fold(spans)
    totals = folded.totals()
    counts = shims.counts
    metrics: dict[str, float] = dict(totals)
    for name in experiments:
        metrics[f"experiments.{name}_s"] = sum(
            s.duration_ns
            for s in spans
            if s.name.startswith("experiment")
            and s.attrs.get("experiment") == name
        ) / 1e9
    simulation_s = (
        totals["simulation.sweep_s"] + totals["simulation.simulate_s"]
    )
    metrics.update(
        {
            "packing.nodes_built": counts["packing.nodes"],
            "simulation.capacity_queries_per_s": ratio(
                counts["simulation.capacity_queries"], simulation_s
            ),
            "model.calls": counts["model.calls"],
            "accel.ids_per_query": ratio(
                counts["accel.ids"], counts["accel.points"]
            ),
            "buffer.ns_per_request": ratio(
                totals["buffer.request_s"] * 1e9, counts["buffer.requests"]
            ),
            "buffer.hit_ratio": ratio(
                counts["buffer.measured_hits"],
                counts["buffer.measured_requests"],
            ),
            "buffer.evictions_per_query": ratio(
                counts["buffer.measured_evictions"],
                counts["buffer.measured_queries"],
            ),
            "trace.wall_s": folded.wall_s,
            "trace.spans": float(folded.spans),
            "unattributed_s": folded.unattributed_s,
            "concurrent.unattributed_s": folded.concurrent_unattributed_s,
        }
    )
    shares = {
        layer: folded.layer_share(layer) for layer in predictions["shares"]
    }
    return {
        "metrics": metrics,
        "counts": dict(counts),
        "errors": [f"layer fold: {e}" for e in folded.errors + shims.errors],
        "lines": fold_lines(folded, predictions, shares),
    }


if __name__ == "__main__":
    sys.exit(main())
