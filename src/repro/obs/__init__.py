"""Observability: metrics registry, per-level buffer stats, traces.

The paper's thesis is that one aggregate number (node accesses) hides
the behaviour that decides performance (which pages the buffer
serves).  This package applies the same lesson to the reproduction
itself:

* :class:`MetricsRegistry` — named counters / gauges / timers;
* :class:`LevelStatsTable` — per-level request/hit/miss/eviction
  counters built from each chunk's page and miss arrays, levels
  resolved via ``TreeDescription.level_offsets``;
* :class:`QueryTrace` — a ring buffer of the last K queries' touched
  node ids and miss sets;
* :class:`LatencyRecorder` — a thread-safe per-query latency
  reservoir with exact nearest-rank percentiles and a log-spaced
  histogram, feeding the serving engine's ``serving`` export section;
* :class:`TelemetrySink` / :class:`SLOMonitor` — live serving
  telemetry: fixed-interval sampling of a running ``QueryService``
  into sliding windows (per-shard hit-ratio deltas, queue depth,
  windowed percentiles), error-budget burn accounting, and the
  streaming ``repro-telemetry/1`` JSONL format;
* :class:`Tracer` / :func:`span` — nested, attributed wall-clock spans
  with Chrome-trace (Perfetto) and folded-flamegraph exporters behind
  ``repro-experiments --trace-out``;
* :class:`Profiler` — opt-in ``tracemalloc`` allocation profiling with
  a top-N-allocation-sites report (``--profile``);
* :mod:`repro.obs.export` — the versioned ``repro-metrics`` JSON
  schema behind ``repro-experiments --metrics-out``;
* :mod:`repro.obs.history` — the ``BENCH_history.jsonl`` benchmark
  ledger and regression gate behind ``tools/bench_history.py``.

Everything here is optional and stays off the per-request path: a
registry adds a few array operations per chunk of queries, and
``tests/obs/test_overhead.py`` holds ``simulate()`` with a registry
within a constant of ``simulate()`` without one; with no tracer
installed, :func:`span` hands back a shared no-op singleton, which
the same file and ``benchmarks/test_obs_overhead.py`` hold to the
same standard.
"""

from __future__ import annotations

from .export import (
    SCHEMA_NAME,
    SCHEMA_VERSION,
    experiment_document,
    load_report,
    metrics_report,
    serving_section,
    simulation_section,
    sweep_section,
    validate_document,
    validate_report,
    write_report,
)
from .history import (
    Comparison,
    MetricDelta,
    append_entry,
    compare_reports,
    find_baseline,
    history_entry,
    load_history,
    validate_bench_report,
)
from .latency import LatencyRecorder
from .levels import LevelStats, LevelStatsTable
from .profile import AllocationSite, Profiler
from .registry import Counter, Gauge, MetricsRegistry, Timer
from .spans import (
    NULL_SPAN,
    Span,
    SpanNode,
    Tracer,
    chrome_trace,
    current_tracer,
    folded_stacks,
    parse_chrome_trace,
    span,
    span_tree,
    use_tracer,
    write_chrome_trace,
    write_folded,
)
from .telemetry import (
    TELEMETRY_SCHEMA,
    SLOMonitor,
    TelemetrySink,
    read_telemetry,
    validate_telemetry,
)
from .trace import QueryTrace, QueryTraceEntry

__all__ = [
    "AllocationSite",
    "Comparison",
    "Counter",
    "Gauge",
    "LatencyRecorder",
    "LevelStats",
    "LevelStatsTable",
    "MetricDelta",
    "MetricsRegistry",
    "NULL_SPAN",
    "Profiler",
    "QueryTrace",
    "QueryTraceEntry",
    "SCHEMA_NAME",
    "SCHEMA_VERSION",
    "SLOMonitor",
    "Span",
    "SpanNode",
    "TELEMETRY_SCHEMA",
    "TelemetrySink",
    "Timer",
    "Tracer",
    "append_entry",
    "chrome_trace",
    "compare_reports",
    "current_tracer",
    "experiment_document",
    "find_baseline",
    "folded_stacks",
    "history_entry",
    "load_history",
    "load_report",
    "metrics_report",
    "parse_chrome_trace",
    "read_telemetry",
    "serving_section",
    "simulation_section",
    "span",
    "span_tree",
    "sweep_section",
    "use_tracer",
    "validate_bench_report",
    "validate_document",
    "validate_report",
    "validate_telemetry",
    "write_chrome_trace",
    "write_folded",
    "write_report",
]
