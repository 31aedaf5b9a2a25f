"""Versioned JSON export of experiment metrics (``--metrics-out``).

One *report* file holds one *document* per experiment run.  The format
is deliberately boring — plain JSON, schema identified by
``("repro-metrics", schema_version)`` — so that ``benchmarks/`` can
diff two runs with ``json.load`` and no further tooling, and CI can
archive the file as an artifact.  The full field-by-field schema is
documented in ``docs/OBSERVABILITY.md``; bump :data:`SCHEMA_VERSION`
whenever a field changes meaning or disappears (adding fields is
backward compatible and needs no bump).

:func:`validate_document` doubles as the invariant check the paper's
bookkeeping demands: the per-level hit/miss/request columns must sum
exactly to the aggregate ``BufferStats`` totals of the same window —
a document that fails this was produced by broken accounting, not a noisy
measurement, so validation raises instead of warning.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path
from typing import Any, Mapping, Sequence

__all__ = [
    "SCHEMA_NAME",
    "SCHEMA_VERSION",
    "experiment_document",
    "load_report",
    "metrics_report",
    "sanitize",
    "serving_section",
    "simulation_section",
    "sweep_section",
    "validate_document",
    "validate_report",
    "write_report",
]

SCHEMA_NAME = "repro-metrics"
SCHEMA_VERSION = 3
"""Version 3 drops ``metrics.counters``, ``metrics.gauges`` and
``simulation.trace``: ``metrics`` holds only the runner's probe
``timers``, since the counters repeated the sections' own totals.
Version 2 added the optional per-document ``trace`` pointer (the path
of the Chrome-trace JSON written by ``--trace-out``).  Version-1 and
version-2 documents remain readable."""

_SUPPORTED_VERSIONS = (1, 2, 3)

_LEVEL_SUM_KEYS = ("requests", "hits", "misses", "evictions")
#: Stream schemas a ``serving.telemetry`` pointer may name: both keep
#: the pointer's shape, so version 3 documents written before the
#: stream's version 2 still load.
_TELEMETRY_SCHEMAS = ("repro-telemetry/1", "repro-telemetry/2")
_BATCH_KEYS = ("requests", "hits", "misses", "evictions")


def sanitize(value: Any) -> Any:
    """Recursively convert ``value`` into JSON-serialisable types.

    Handles dataclasses, mappings (keys coerced to ``str``),
    sequences, sets (sorted for determinism), numpy scalars/arrays
    (via their ``item``/``tolist`` protocols), and objects exposing
    ``as_dict``.  Anything else must already be JSON-native.
    """
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        return value
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            f.name: sanitize(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
    if isinstance(value, Mapping):
        return {_key(k): sanitize(v) for k, v in value.items()}
    if isinstance(value, (set, frozenset)):
        return [sanitize(v) for v in sorted(value, key=repr)]
    if isinstance(value, (list, tuple)):
        return [sanitize(v) for v in value]
    if hasattr(value, "tolist"):  # numpy arrays
        return sanitize(value.tolist())
    if hasattr(value, "item"):  # numpy scalars
        return sanitize(value.item())
    if hasattr(value, "as_dict"):
        return sanitize(value.as_dict())
    raise TypeError(f"cannot sanitise {type(value).__name__} for JSON export")


def _key(key: Any) -> str:
    if isinstance(key, str):
        return key
    if isinstance(key, (list, tuple)):
        return "/".join(str(part) for part in key)
    return str(key)


def _estimate_dict(estimate: Any) -> dict[str, Any]:
    """A ``BatchMeansEstimate`` as schema fields."""
    return {
        "mean": float(estimate.mean),
        "half_width": float(estimate.half_width),
        "confidence": float(estimate.confidence),
        "batch_values": [float(v) for v in estimate.batch_values],
    }


def simulation_section(result: Any, probe: Mapping[str, Any]) -> dict[str, Any]:
    """The ``simulation`` section of a document, from a
    :class:`~repro.simulation.SimulationResult` produced with
    ``level_stats=True`` (``level_stats`` must be populated).

    ``probe`` records the configuration the simulation ran with
    (dataset, loader, buffer size, ...), verbatim.
    """
    if result.level_stats is None:
        raise ValueError(
            "simulation_section needs a result with per-level stats; "
            "pass level_stats=True to simulate()"
        )
    per_level = [row.as_dict() for row in result.level_stats]
    per_batch = [stats.as_dict() for stats in result.batch_stats]
    aggregate = {
        key: sum(batch[key] for batch in per_batch) for key in _BATCH_KEYS
    }
    requests = aggregate["requests"]
    aggregate["hit_ratio"] = aggregate["hits"] / requests if requests else 0.0
    return {
        "probe": sanitize(dict(probe)),
        "aggregate": aggregate,
        "per_level": per_level,
        "per_batch": per_batch,
        "disk_accesses": _estimate_dict(result.disk_accesses),
        "node_accesses": _estimate_dict(result.node_accesses),
        "warmup_queries": int(result.warmup_queries),
        "buffer_filled": bool(result.buffer_filled),
    }


def sweep_section(
    results: Sequence[Any], probe: Mapping[str, Any]
) -> dict[str, Any]:
    """The ``sweep`` section of a document: one stack-distance pass
    over several buffer sizes (see
    :func:`~repro.simulation.simulate_sweep`).

    ``results`` are the per-capacity
    :class:`~repro.simulation.SimulationResult` rows, ordered like the
    probe's ``buffer_sizes``; ``probe`` records the configuration the
    sweep ran with, verbatim.  Unlike :func:`simulation_section` there
    is no per-level breakdown — the offline engine has no buffer pool
    whose residency the per-level table could read.
    """
    buffer_sizes = list(probe.get("buffer_sizes", ()))
    if len(buffer_sizes) != len(results):
        raise ValueError(
            f"probe lists {len(buffer_sizes)} buffer sizes but "
            f"{len(results)} results were given"
        )
    per_capacity = []
    for buffer_size, result in zip(buffer_sizes, results):
        totals = {
            key: sum(getattr(stats, key) for stats in result.batch_stats)
            for key in _BATCH_KEYS
        }
        requests = totals["requests"]
        per_capacity.append(
            {
                "buffer_size": int(buffer_size),
                **totals,
                "hit_ratio": totals["hits"] / requests if requests else 0.0,
                "disk_accesses": _estimate_dict(result.disk_accesses),
                "node_accesses": _estimate_dict(result.node_accesses),
                "warmup_queries": int(result.warmup_queries),
                "buffer_filled": bool(result.buffer_filled),
            }
        )
    return {"probe": sanitize(dict(probe)), "per_capacity": per_capacity}


def serving_section(
    report: Any, probe: Mapping[str, Any],
    telemetry: Mapping[str, Any] | None = None,
) -> dict[str, Any]:
    """The ``serving`` section of a document, from a load-generator
    :class:`~repro.serving.loadgen.LoadReport`.

    ``probe`` records the service configuration the run played
    against (dataset, buffer size, shard count, batching knobs, ...),
    verbatim.  Latency values are microseconds throughout; the buffer
    block carries the aggregate counters plus the per-shard rows
    (``shard_id``, ``capacity``, counters) they must sum-reconcile
    with (checked by :func:`validate_document`).

    ``telemetry`` is the optional pointer block from
    :meth:`repro.obs.TelemetrySink.pointer`: the stream path plus the
    final tick's cumulative counters, which the validator reconciles
    against this section's buffer stats — the proof that the
    time-series and the terminal aggregate describe the same run.
    """
    aggregate = dict(report.buffer_aggregate)
    requests = int(aggregate.get("requests", 0))
    aggregate["hit_ratio"] = (
        aggregate["hits"] / requests if requests else 0.0
    )
    return {
        "probe": sanitize(dict(probe)),
        "queries": int(report.queries),
        "wall_seconds": float(report.wall_seconds),
        "throughput_qps": float(report.throughput_qps),
        "offered_rate_qps": float(report.offered_rate_qps),
        "batches": {
            "count": int(report.batches),
            "mean_queries": (
                report.queries / report.batches if report.batches else 0.0
            ),
        },
        "latency_us": {
            key: (int(v) if key == "count" else float(v))
            for key, v in report.latency_summary_us.items()
        },
        "histogram_us": sanitize(dict(report.latency_histogram_us)),
        "buffer": {
            "shards": int(report.shards),
            "capacity": int(report.buffer_capacity),
            "aggregate": aggregate,
            "per_shard": [dict(row) for row in report.buffer_per_shard],
        },
        "telemetry": dict(telemetry) if telemetry is not None else None,
    }


def experiment_document(
    name: str,
    meta: Mapping[str, str],
    result: Any,
    wall_seconds: float,
    simulation: Mapping[str, Any] | None = None,
    sweep: Mapping[str, Any] | None = None,
    serving: Mapping[str, Any] | None = None,
    timers: Mapping[str, Mapping[str, float]] | None = None,
    trace: str | None = None,
) -> dict[str, Any]:
    """One schema-v3 document for a completed experiment.

    ``result`` is the experiment's result object (model predictions
    and simulated means, whatever the experiment produces), sanitised
    wholesale; ``simulation`` is an optional
    :func:`simulation_section`; ``sweep`` an optional
    :func:`sweep_section` (multi-capacity probe); ``serving`` an
    optional :func:`serving_section` (open-loop load-test; like
    ``sweep`` it is added without a version bump — adding fields is
    backward compatible); ``timers`` an optional mapping of timer
    name to ``{"total_seconds", "count"}`` (the runner's probe wall
    times), exported under ``"metrics"`` as ``{"timers": ...}`` with
    names sorted; ``trace`` an optional
    pointer (a path) to the Chrome-trace JSON covering this run,
    written by ``repro-experiments --trace-out``.
    """
    document: dict[str, Any] = {
        "schema": SCHEMA_NAME,
        "schema_version": SCHEMA_VERSION,
        "experiment": {
            "name": name,
            "title": str(meta.get("title", "")),
            "source": str(meta.get("source", "")),
        },
        "wall_seconds": float(wall_seconds),
        "result": sanitize(result),
        "simulation": dict(simulation) if simulation is not None else None,
        "sweep": dict(sweep) if sweep is not None else None,
        "serving": dict(serving) if serving is not None else None,
        "metrics": (
            {"timers": dict(sorted(timers.items()))}
            if timers is not None
            else None
        ),
        "trace": str(trace) if trace is not None else None,
    }
    return document


def metrics_report(
    documents: Sequence[Mapping[str, Any]],
    generated_by: str = "repro-experiments",
) -> dict[str, Any]:
    """The top-level report envelope around per-experiment documents."""
    return {
        "schema": SCHEMA_NAME,
        "schema_version": SCHEMA_VERSION,
        "generated_by": generated_by,
        "documents": [dict(d) for d in documents],
    }


def validate_document(document: Mapping[str, Any]) -> None:
    """Raise ``ValueError`` if ``document`` is not valid under its
    schema version.

    Beyond shape checks, enforces the accounting invariant: per-level
    requests/hits/misses/evictions sum exactly to the aggregate
    totals, and the per-batch rows sum to the same aggregate.  A v3
    ``metrics`` block must hold only ``timers``.
    """
    if document.get("schema") != SCHEMA_NAME:
        raise ValueError(f"not a {SCHEMA_NAME} document")
    if document.get("schema_version") not in _SUPPORTED_VERSIONS:
        raise ValueError(
            f"unsupported schema_version {document.get('schema_version')!r}"
        )
    experiment = document.get("experiment")
    if not isinstance(experiment, Mapping) or "name" not in experiment:
        raise ValueError("document missing experiment.name")
    if not isinstance(document.get("wall_seconds"), (int, float)):
        raise ValueError("document missing numeric wall_seconds")
    if "result" not in document:
        raise ValueError("document missing result")
    trace = document.get("trace")
    if trace is not None and not isinstance(trace, str):
        raise ValueError("trace must be a path string or null")
    metrics = document.get("metrics")
    if document["schema_version"] >= 3 and metrics is not None:
        _validate_timers(metrics)
    simulation = document.get("simulation")
    if simulation is not None:
        _validate_simulation(simulation)
    sweep = document.get("sweep")
    if sweep is not None:
        _validate_sweep(sweep)
    serving = document.get("serving")
    if serving is not None:
        _validate_serving(serving)


def _validate_timers(metrics: Any) -> None:
    if not isinstance(metrics, Mapping) or set(metrics) != {"timers"}:
        raise ValueError("v3 metrics must hold exactly one key, 'timers'")
    for name, timer in metrics["timers"].items():
        if not (
            isinstance(timer, Mapping)
            and isinstance(timer.get("total_seconds"), (int, float))
            and isinstance(timer.get("count"), int)
        ):
            raise ValueError(
                f"timer {name!r} needs numeric total_seconds and an "
                "integer count"
            )


def _validate_simulation(simulation: Mapping[str, Any]) -> None:
    for key in ("probe", "aggregate", "per_level", "per_batch"):
        if key not in simulation:
            raise ValueError(f"simulation section missing {key!r}")
    aggregate = simulation["aggregate"]
    per_level = simulation["per_level"]
    per_batch = simulation["per_batch"]
    for key in _LEVEL_SUM_KEYS:
        level_sum = sum(int(row[key]) for row in per_level)
        batch_sum = sum(int(row[key]) for row in per_batch)
        total = int(aggregate[key])
        if level_sum != total:
            raise ValueError(
                f"per-level {key} sum {level_sum} != aggregate {total}"
            )
        if batch_sum != total:
            raise ValueError(
                f"per-batch {key} sum {batch_sum} != aggregate {total}"
            )
    requests = int(aggregate["requests"])
    if int(aggregate["hits"]) + int(aggregate["misses"]) != requests:
        raise ValueError("aggregate hits + misses != requests")


def _validate_sweep(sweep: Mapping[str, Any]) -> None:
    """Shape checks plus the LRU inclusion invariant.

    Each per-capacity row must balance (hits + misses == requests).
    When every capacity measured the same window (identical
    ``warmup_queries``, the sweep probes' configuration), total misses
    must additionally be monotone non-increasing in buffer size — a
    violation means the stack-distance accounting is broken, not that
    the measurement was noisy.
    """
    for key in ("probe", "per_capacity"):
        if key not in sweep:
            raise ValueError(f"sweep section missing {key!r}")
    rows = sweep["per_capacity"]
    if not isinstance(rows, list) or not rows:
        raise ValueError("sweep per_capacity must be a non-empty list")
    for row in rows:
        for key in ("buffer_size", "warmup_queries", *_BATCH_KEYS):
            if key not in row:
                raise ValueError(f"sweep capacity row missing {key!r}")
        if int(row["hits"]) + int(row["misses"]) != int(row["requests"]):
            raise ValueError("sweep row hits + misses != requests")
    warmups = {int(row["warmup_queries"]) for row in rows}
    if len(warmups) == 1:
        by_size = sorted(rows, key=lambda row: int(row["buffer_size"]))
        for smaller, larger in zip(by_size, by_size[1:]):
            if int(larger["misses"]) > int(smaller["misses"]):
                raise ValueError(
                    "sweep misses increase with buffer size "
                    f"({smaller['buffer_size']} -> {larger['buffer_size']}): "
                    "the LRU inclusion property is violated"
                )


def _validate_serving(serving: Mapping[str, Any]) -> None:
    """Shape checks plus the serving accounting invariants.

    The buffer aggregate must balance (hits + misses == requests) and
    equal the per-shard sums field by field; latency percentiles must
    be ordered (p50 <= p95 <= p99 <= max); the histogram counts must
    sum to the latency sample count, which must equal the number of
    queries served.  A violation means a broken recorder or a shard
    that dodged the accounting, not measurement noise.
    """
    for key in (
        "probe",
        "queries",
        "wall_seconds",
        "throughput_qps",
        "batches",
        "latency_us",
        "histogram_us",
        "buffer",
    ):
        if key not in serving:
            raise ValueError(f"serving section missing {key!r}")
    latency = serving["latency_us"]
    for key in ("count", "mean", "max", "p50", "p95", "p99"):
        if key not in latency:
            raise ValueError(f"serving latency_us missing {key!r}")
    if not (
        float(latency["p50"])
        <= float(latency["p95"])
        <= float(latency["p99"])
        <= float(latency["max"])
    ):
        raise ValueError("serving latency percentiles are not ordered")
    if int(latency["count"]) != int(serving["queries"]):
        raise ValueError(
            f"latency count {latency['count']} != queries "
            f"{serving['queries']}"
        )
    histogram = serving["histogram_us"]
    if sum(int(c) for c in histogram["counts"]) != int(latency["count"]):
        raise ValueError("histogram counts do not sum to latency count")
    if len(histogram["bounds_us"]) != len(histogram["counts"]) + 1:
        raise ValueError("histogram needs len(counts) + 1 bucket bounds")
    buffer = serving["buffer"]
    for key in ("shards", "aggregate", "per_shard"):
        if key not in buffer:
            raise ValueError(f"serving buffer block missing {key!r}")
    aggregate = buffer["aggregate"]
    per_shard = buffer["per_shard"]
    if int(buffer["shards"]) != len(per_shard):
        raise ValueError("per_shard row count != shards")
    for s, row in enumerate(per_shard):
        if int(row.get("shard_id", -1)) != s:
            raise ValueError(
                f"per_shard row {s} carries shard_id {row.get('shard_id')!r}"
            )
        if int(row.get("capacity", 0)) < 1:
            raise ValueError(f"per_shard row {s} missing a positive capacity")
    if "capacity" in buffer:
        capacity_sum = sum(int(row["capacity"]) for row in per_shard)
        if capacity_sum != int(buffer["capacity"]):
            raise ValueError(
                f"per-shard capacities sum to {capacity_sum}, buffer "
                f"capacity is {buffer['capacity']}"
            )
    for key in _LEVEL_SUM_KEYS:
        shard_sum = sum(int(row[key]) for row in per_shard)
        if shard_sum != int(aggregate[key]):
            raise ValueError(
                f"per-shard {key} sum {shard_sum} != aggregate "
                f"{aggregate[key]}"
            )
    requests = int(aggregate["requests"])
    if int(aggregate["hits"]) + int(aggregate["misses"]) != requests:
        raise ValueError("serving aggregate hits + misses != requests")
    telemetry = serving.get("telemetry")
    if telemetry is not None:
        _validate_serving_telemetry(telemetry, buffer)


def _validate_serving_telemetry(
    telemetry: Mapping[str, Any], buffer: Mapping[str, Any]
) -> None:
    """Reconcile the telemetry pointer against the buffer block.

    The pointer embeds the stream's *final tick* cumulative counters
    (see ``repro.obs.telemetry``); a run whose telemetry sink took its
    last tick after the drain must agree with the load report's
    terminal counters exactly — per shard and in aggregate.  Any
    difference means the time-series and the aggregate describe
    different windows, which is a sink bug, not noise.
    """
    for key in ("schema", "ticks", "final"):
        if key not in telemetry:
            raise ValueError(f"serving telemetry block missing {key!r}")
    if telemetry["schema"] not in _TELEMETRY_SCHEMAS:
        raise ValueError(
            f"unsupported telemetry schema {telemetry['schema']!r}"
        )
    if int(telemetry["ticks"]) < 1:
        raise ValueError("telemetry block with no ticks cannot reconcile")
    path = telemetry.get("path")
    if path is not None and not isinstance(path, str):
        raise ValueError("telemetry path must be a string or null")
    final = telemetry["final"]
    final_rows = final["shards"]
    per_shard = buffer["per_shard"]
    if len(final_rows) != len(per_shard):
        raise ValueError(
            f"telemetry final has {len(final_rows)} shard rows, serving "
            f"buffer has {len(per_shard)}"
        )
    for s, (tick_row, shard_row) in enumerate(zip(final_rows, per_shard)):
        if int(tick_row.get("shard_id", -1)) != s:
            raise ValueError(
                f"telemetry final row {s} carries shard_id "
                f"{tick_row.get('shard_id')!r}"
            )
        for key in _LEVEL_SUM_KEYS:
            if int(tick_row[key]) != int(shard_row[key]):
                raise ValueError(
                    f"telemetry final shard {s} {key} {tick_row[key]} != "
                    f"serving per-shard {shard_row[key]}"
                )
    for key in _LEVEL_SUM_KEYS:
        if int(final["aggregate"][key]) != int(buffer["aggregate"][key]):
            raise ValueError(
                f"telemetry final aggregate {key} "
                f"{final['aggregate'][key]} != serving aggregate "
                f"{buffer['aggregate'][key]}"
            )


def validate_report(report: Mapping[str, Any]) -> None:
    """Raise ``ValueError`` if ``report`` or any of its documents is
    not valid."""
    if report.get("schema") != SCHEMA_NAME:
        raise ValueError(f"not a {SCHEMA_NAME} report")
    if report.get("schema_version") not in _SUPPORTED_VERSIONS:
        raise ValueError(
            f"unsupported schema_version {report.get('schema_version')!r}"
        )
    documents = report.get("documents")
    if not isinstance(documents, list):
        raise ValueError("report missing documents list")
    for document in documents:
        validate_document(document)


def write_report(path: str | Path, report: Mapping[str, Any]) -> None:
    """Validate and write a report as pretty-printed JSON."""
    validate_report(report)
    Path(path).write_text(
        json.dumps(report, indent=2, sort_keys=False) + "\n", encoding="utf-8"
    )


def load_report(path: str | Path) -> dict[str, Any]:
    """Read and validate a report written by :func:`write_report`."""
    report = json.loads(Path(path).read_text(encoding="utf-8"))
    validate_report(report)
    return report
