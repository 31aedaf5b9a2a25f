"""Command-line front end: ``repro-experiments <name> [...]``.

Runs any of the paper's tables/figures and prints the regenerated
rows/series.  ``repro-experiments all`` runs everything (Table 1 is
the slow one — it simulates; its budget is controlled by the
``REPRO_SIM_BATCHES`` / ``REPRO_SIM_QUERIES`` environment variables).
Those and ``REPRO_SERVE_SHARDS`` are validated before the first
experiment starts; a malformed value is a usage error (exit 2).

``--metrics-out PATH`` additionally writes one ``repro-metrics`` JSON
document per experiment — its result data, its wall-clock timing and
each probe's, and an instrumented probe simulation's per-level buffer
breakdown (see ``docs/OBSERVABILITY.md`` for the schema).

``--trace-out PATH`` installs a process-wide span tracer for the whole
run: one root span per experiment, nested phase spans from the
simulator, model, accel and packing layers, exported as Chrome
trace-event JSON (drop the file on https://ui.perfetto.dev) plus a
folded flamegraph text file at ``PATH`` + ``.folded``.  ``--profile``
layers ``tracemalloc`` on top: spans gain ``mem_delta_kb`` tags and
the export embeds a top-allocation-sites report under ``"profile"``.
"""

from __future__ import annotations

import argparse
import sys
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Iterator

from ..obs import (
    Profiler,
    Tracer,
    experiment_document,
    metrics_report,
    serving_section,
    simulation_section,
    span,
    sweep_section,
    use_tracer,
    write_chrome_trace,
    write_folded,
    write_report,
)
from . import fig5, fig6, fig7, fig8, fig9, fig10, fig11, table1, table2
from .common import RunConfig, run_config
from .probes import (
    METRICS_PROBES,
    SERVE_PROBES,
    SWEEP_PROBES,
    run_probe,
    run_serve_probe,
    run_sweep_probe,
)

__all__ = ["main", "EXPERIMENTS"]

EXPERIMENTS: dict[str, Callable[[], object]] = {
    "table1": table1.run,
    "table2": table2.run,
    "fig5": fig5.run,
    "fig6": fig6.run,
    "fig7": fig7.run,
    "fig8": fig8.run,
    "fig9": fig9.run,
    "fig10": fig10.run,
    "fig11": fig11.run,
}
"""Experiment names to zero-argument runners (paper defaults)."""

METAS: dict[str, dict[str, str]] = {
    "table1": table1.META,
    "table2": table2.META,
    "fig5": fig5.META,
    "fig6": fig6.META,
    "fig7": fig7.META,
    "fig8": fig8.META,
    "fig9": fig9.META,
    "fig10": fig10.META,
    "fig11": fig11.META,
}
"""Experiment names to their module ``META`` blocks (RL004)."""


def main(argv: list[str] | None = None) -> int:
    """Entry point for the ``repro-experiments`` console script."""
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "names",
        nargs="+",
        metavar="experiment",
        help=f"one or more of: {', '.join(EXPERIMENTS)}, or 'all'",
    )
    parser.add_argument(
        "--metrics-out",
        metavar="PATH",
        default=None,
        help=(
            "write a repro-metrics JSON report (one document per "
            "experiment: results, timings, per-level buffer stats from "
            "an instrumented probe simulation)"
        ),
    )
    parser.add_argument(
        "--trace-out",
        metavar="PATH",
        default=None,
        help=(
            "trace the run and write Chrome trace-event JSON "
            "(Perfetto-loadable; a folded flamegraph lands next to it)"
        ),
    )
    parser.add_argument(
        "--serve",
        action="store_true",
        help=(
            "additionally run each experiment's open-loop serving "
            "probe (Poisson load through the query service; buffer "
            "shards from REPRO_SERVE_SHARDS, default 1) and export latency "
            "percentiles + throughput in the document's 'serving' "
            "section (requires --metrics-out)"
        ),
    )
    parser.add_argument(
        "--telemetry-out",
        metavar="PATH",
        default=None,
        help=(
            "with --serve: stream live serving telemetry "
            "(repro-telemetry/2 JSONL, one line per 100 ms tick: "
            "per-shard counters, queue depth, latency percentiles, "
            "SLO burn) to PATH; with several experiments "
            "the experiment name is inserted before the suffix; "
            "render with tools/serve_report.py"
        ),
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help=(
            "profile allocations with tracemalloc: spans gain "
            "mem_delta_kb tags and the trace export embeds a "
            "top-allocation-sites report (slower; implies tracing)"
        ),
    )
    args = parser.parse_args(argv)
    if args.serve and args.metrics_out is None:
        parser.error("--serve requires --metrics-out (it only adds a "
                     "'serving' section to the metrics report)")
    if args.telemetry_out is not None and not args.serve:
        parser.error("--telemetry-out requires --serve (telemetry "
                     "samples the serving probe)")

    names = list(EXPERIMENTS) if "all" in args.names else args.names
    unknown = [n for n in names if n not in EXPERIMENTS]
    if unknown:
        parser.error(f"unknown experiment(s): {', '.join(unknown)}")
    try:
        config = run_config()
    except ValueError as exc:
        parser.error(str(exc))

    tracer: Tracer | None = None
    profiler: Profiler | None = None
    previous_tracer: Tracer | None = None
    if args.trace_out is not None or args.profile:
        tracer = Tracer()
        previous_tracer = use_tracer(tracer)
        if args.profile:
            profiler = Profiler()
            profiler.start()
            profiler.attach(tracer)

    try:
        failed: list[str] = []
        documents: list[dict[str, object]] = []
        for name in names:
            start = time.perf_counter()
            try:
                with span("experiment", experiment=name):
                    result = _run(name, config)
            except Exception as exc:
                elapsed = time.perf_counter() - start
                print(
                    f"[{name} FAILED after {elapsed:.1f}s: "
                    f"{type(exc).__name__}: {exc}]",
                    file=sys.stderr,
                )
                failed.append(name)
                continue
            elapsed = time.perf_counter() - start
            print(result.to_text())
            print(f"[{name} completed in {elapsed:.1f}s]")
            print()
            if args.metrics_out is not None:
                documents.append(
                    _collect_metrics(
                        name,
                        result,
                        elapsed,
                        args.trace_out,
                        serve=args.serve,
                        shards=config.serve_shards,
                        telemetry_out=_telemetry_path(
                            args.telemetry_out, name, len(names)
                        ),
                    )
                )
    finally:
        if tracer is not None:
            use_tracer(previous_tracer)

    if args.metrics_out is not None:
        write_report(args.metrics_out, metrics_report(documents))
        print(
            f"[metrics for {len(documents)} experiment(s) written to "
            f"{args.metrics_out}]"
        )

    if tracer is not None:
        profile_report = profiler.report() if profiler is not None else None
        if args.trace_out is not None:
            write_chrome_trace(
                args.trace_out, tracer.finished(), profile=profile_report
            )
            folded_path = args.trace_out + ".folded"
            write_folded(folded_path, tracer.finished())
            print(
                f"[trace with {len(tracer)} span(s) written to "
                f"{args.trace_out}; folded flamegraph in {folded_path}]"
            )
        if profiler is not None:
            _print_profile(profile_report)
            profiler.stop()

    if failed:
        print(
            f"{len(failed)} of {len(names)} experiment(s) failed: "
            f"{', '.join(failed)}",
            file=sys.stderr,
        )
        return 1
    return 0


def _run(name: str, config: RunConfig) -> object:
    """One experiment; Table 1, the one that simulates, at the run's budget."""
    if name == "table1":
        return table1.run(
            n_batches=config.sim_batches, batch_size=config.sim_queries
        )
    return EXPERIMENTS[name]()


def _print_profile(report: dict[str, object] | None) -> None:
    """Render the top-allocation-sites table on stdout."""
    if not report:
        return
    print(
        f"[profile: current {report['current_kb']:.0f} KiB, "
        f"peak {report['peak_kb']:.0f} KiB]"
    )
    for site in report["top_allocations"]:
        print(f"  {site['kb']:>12.1f} KiB  {site['blocks']:>8d} blocks  "
              f"{site['site']}")


def _telemetry_path(
    telemetry_out: str | None, name: str, n_experiments: int
) -> str | None:
    """Per-experiment telemetry path: insert the experiment name.

    One experiment writes to the path verbatim; several would
    otherwise overwrite each other's streams, so ``telemetry.jsonl``
    becomes ``telemetry-fig6.jsonl`` and so on.
    """
    if telemetry_out is None or n_experiments == 1:
        return telemetry_out
    path = Path(telemetry_out)
    return str(path.with_name(f"{path.stem}-{name}{path.suffix}"))


@contextmanager
def _timed_probe(probe: str, experiment: str) -> Iterator[dict[str, float]]:
    """Run one probe under its ``experiment.<probe>`` span; the yielded
    timer row gets the probe's wall time on exit.

    Timed with ``time.perf_counter``, like the experiment's own
    ``wall_seconds``: spans record only under a tracer, and the
    document carries the probe times either way.
    """
    timer = {"total_seconds": 0.0, "count": 1}
    with span(f"experiment.{probe}", experiment=experiment):
        start = time.perf_counter()
        yield timer
        timer["total_seconds"] = time.perf_counter() - start


def _collect_metrics(
    name: str,
    result: object,
    wall_seconds: float,
    trace_out: str | None = None,
    serve: bool = False,
    shards: int = 1,
    telemetry_out: str | None = None,
) -> dict[str, object]:
    """Build one metrics document, running the experiment's probes."""
    timers: dict[str, dict[str, float]] = {}
    simulation = None
    spec = METRICS_PROBES.get(name)
    if spec is not None:
        with _timed_probe("probe", name) as timers["probe.wall"]:
            sim_result, probe = run_probe(spec)
        simulation = simulation_section(sim_result, probe)
    sweep = None
    sweep_spec = SWEEP_PROBES.get(name)
    if sweep_spec is not None:
        with _timed_probe("sweep_probe", name) as timers["sweep_probe.wall"]:
            sweep_results, sweep_probe = run_sweep_probe(sweep_spec)
        sweep = sweep_section(sweep_results, sweep_probe)
    serving = None
    serve_spec = SERVE_PROBES.get(name) if serve else None
    if serve_spec is not None:
        with _timed_probe("serve_probe", name) as timers["serve_probe.wall"]:
            load_report, serve_probe, telemetry_ptr = run_serve_probe(
                serve_spec, shards=shards, telemetry_out=telemetry_out
            )
        serving = serving_section(
            load_report, serve_probe, telemetry=telemetry_ptr
        )
    return experiment_document(
        name=name,
        meta=METAS.get(name, {}),
        result=result,
        wall_seconds=wall_seconds,
        simulation=simulation,
        sweep=sweep,
        serving=serving,
        timers=timers,
        trace=trace_out,
    )


if __name__ == "__main__":  # pragma: no cover - exercised via console script
    sys.exit(main())
