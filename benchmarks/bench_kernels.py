"""Benchmark the spatial-acceleration kernels and write ``BENCH_repro.json``.

Measures the sparse kernels of :mod:`repro.accel` against their dense
oracles on the two compute-dominant paths of the reproduction:

* ``data_driven_access_probabilities`` — Eq. 4 probabilities (sorted
  range-count kernel vs the dense containment matrix);
* ``point_stab`` — CSR point-stabbing (grid index vs dense matrix);
* ``simulator_query_throughput`` — the §4 simulator's per-query loop
  (stab + LRU buffer requests) end to end;
* ``stack_distance_sweep`` — one offline Mattson pass over all buffer
  sizes (:func:`repro.simulation.simulate_sweep`) vs per-capacity
  online simulation, asserted bit-exact;
* ``probe_simulation_throughput`` — the instrumented metrics-probe
  simulation in queries/s, grid vs dense stabbing backend.  It runs
  with ``level_stats=True``, the per-level table the probes export;
  ledger entries from before the metrics registry and the query-trace
  ring were deleted also timed those;
* ``serving_throughput`` — the serving engine's micro-batched
  admission (:class:`repro.serving.QueryService`, ``max_batch=4096``)
  vs the naive per-query loop (``max_batch=0``: one stab call per
  query) over identical points, asserted to produce identical buffer
  counters.  ``speedup_vs_dense`` is the batching amortization — the
  PR's gated >= 10x claim at 100k queries;
* ``serving_latency_p99`` — saturation-mode tail latency: every query
  "arrives" at t0 and ``seconds`` is the batched p99 (so
  ``ops_per_s`` is the achieved drain rate), ``dense_seconds`` the
  per-query-loop p99 over the same points;
* ``telemetry_overhead`` — identical batched serving runs with a live
  :class:`repro.obs.TelemetrySink` (background ticker streaming JSONL
  to a scratch file) vs the None-default sink, asserted to produce
  identical buffer counters.  ``speedup_vs_dense`` is
  disabled/enabled wall time — the observability tax, gated at
  <= 1.10x slowdown by ``tests/accel/test_bench_schema.py``.

The report is a machine-readable JSON file (schema ``repro-bench/1``,
see :data:`RECORD_FIELDS` and ``docs/PERFORMANCE.md``) written to the
repo root so successive PRs accumulate a performance trajectory to
regress against.  CI runs the ``--smoke`` sizes and validates the
emitted file with ``--validate``.

Usage::

    python benchmarks/bench_kernels.py                 # full sizes (~10 min)
    python benchmarks/bench_kernels.py --smoke         # CI-sized, seconds
    python benchmarks/bench_kernels.py --validate BENCH_repro.json
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent

try:  # installed package (CI) or PYTHONPATH=src
    import repro  # noqa: F401
except ImportError:  # plain checkout: python benchmarks/bench_kernels.py
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.accel import DenseStabber, GridStabbingIndex, SortedRangeCounter
from repro.buffer import LRUBuffer
from repro.geometry import RectArray
from repro.model.access import data_driven_probabilities
from repro.obs import TelemetrySink
from repro.obs.history import (
    BENCH_SCHEMA,
    RECORD_FIELDS,
    validate_bench_report,
)
from repro.packing import pack_description
from repro.queries import UniformPointWorkload
from repro.serving import QueryService
from repro.simulation import simulate, simulate_sweep

__all__ = [
    "RECORD_FIELDS",
    "SCHEMA",
    "build_report",
    "main",
    "validate_report",
]

SCHEMA = BENCH_SCHEMA
"""Report schema tag (canonical home: :mod:`repro.obs.history`)."""

_QUERY_CHUNK = 4096
"""Queries per stab batch in the simulator-loop benchmark (matches
``repro.simulation.engine._CHUNK``)."""


def _node_like_rects(rng: np.random.Generator, n: int) -> RectArray:
    """``n`` node-MBR-like rectangles in the unit square.

    Sides are ~``1/sqrt(n)`` with lognormal jitter — roughly the MBR
    population of a packed R-tree's leaf level over uniform data.
    """
    sides = rng.lognormal(mean=0.0, sigma=0.5, size=(n, 2)) / np.sqrt(n)
    sides = np.minimum(sides, 0.9)
    lo = rng.random((n, 2)) * (1.0 - sides)
    return RectArray(lo, lo + sides)


def _bench_data_driven(rng: np.random.Generator, n_rects: int, n_points: int) -> dict:
    """Eq. 4 access probabilities: sorted kernel vs dense matrix."""
    rects = _node_like_rects(rng, n_rects)
    centers = rng.random((n_points, 2))
    extents = (0.01, 0.01)

    started = time.perf_counter()
    counter = SortedRangeCounter(centers)
    fast = data_driven_probabilities(
        rects, centers, extents, counter=counter
    )
    seconds = time.perf_counter() - started

    started = time.perf_counter()
    expanded = rects.expanded_centered(extents)
    dense = expanded.count_points_inside(centers) / n_points
    dense_seconds = time.perf_counter() - started

    if not np.array_equal(fast, dense):
        raise AssertionError("sorted kernel diverged from the dense oracle")
    return _record(
        "data_driven_access_probabilities",
        n_rects,
        n_points,
        seconds,
        dense_seconds,
        ops=n_rects * n_points,
        unit="pair-tests/s",
    )


def _bench_point_stab(rng: np.random.Generator, n_rects: int, n_points: int) -> dict:
    """CSR point stabbing: grid index (incl. build) vs dense matrix."""
    rects = _node_like_rects(rng, n_rects)
    points = rng.random((n_points, 2))

    started = time.perf_counter()
    sparse = GridStabbingIndex(rects).stab(points)
    seconds = time.perf_counter() - started

    started = time.perf_counter()
    dense = DenseStabber(rects).stab(points)
    dense_seconds = time.perf_counter() - started

    if not (
        np.array_equal(sparse.indptr, dense.indptr)
        and np.array_equal(sparse.ids, dense.ids)
    ):
        raise AssertionError("grid stab diverged from the dense oracle")
    return _record(
        "point_stab",
        n_rects,
        n_points,
        seconds,
        dense_seconds,
        ops=n_rects * n_points,
        unit="pair-tests/s",
    )


def _run_sim_loop(stabber, points: np.ndarray, buffer_size: int) -> int:
    """The simulator's measurement loop: stab a chunk, then request its
    pages top-down in one batch."""
    buffer = LRUBuffer(buffer_size, ())
    misses = 0
    for start in range(0, points.shape[0], _QUERY_CHUNK):
        sparse = stabber.stab(points[start : start + _QUERY_CHUNK])
        misses += len(buffer.request_batch(sparse.ids))
    return misses


def _bench_sim_throughput(
    rng: np.random.Generator, n_rects: int, n_points: int
) -> dict:
    """End-to-end simulator query throughput, grid vs dense backend."""
    rects = _node_like_rects(rng, n_rects)
    points = rng.random((n_points, 2))
    buffer_size = max(1, n_rects // 10)

    started = time.perf_counter()
    misses_grid = _run_sim_loop(GridStabbingIndex(rects), points, buffer_size)
    seconds = time.perf_counter() - started

    started = time.perf_counter()
    misses_dense = _run_sim_loop(DenseStabber(rects), points, buffer_size)
    dense_seconds = time.perf_counter() - started

    if misses_grid != misses_dense:
        raise AssertionError("sim loop miss counts diverged across backends")
    return _record(
        "simulator_query_throughput",
        n_rects,
        n_points,
        seconds,
        dense_seconds,
        ops=n_points,
        unit="queries/s",
    )


def _same_result(a, b) -> bool:
    """Bit-exact equality of two ``SimulationResult`` measurements."""
    return (
        a.warmup_queries == b.warmup_queries
        and a.buffer_filled == b.buffer_filled
        and len(a.batch_stats) == len(b.batch_stats)
        and all(
            x.as_dict() == y.as_dict()
            for x, y in zip(a.batch_stats, b.batch_stats)
        )
        and a.disk_accesses == b.disk_accesses
        and a.node_accesses == b.node_accesses
    )


def _bench_stack_distance_sweep(
    rng: np.random.Generator, n_rects: int, n_queries: int
) -> dict:
    """One Mattson pass over 8 capacities vs 8 online simulations."""
    rects = _node_like_rects(rng, n_rects)
    capacity = 100 if n_rects >= 20_000 else 25
    desc = pack_description(rects, capacity, "hs")
    workload = UniformPointWorkload()
    buffer_sizes = tuple(
        int(b)
        for b in np.unique(
            np.geomspace(2, max(8, int(desc.total_nodes * 0.8)), 8).round()
        )
    )
    n_batches = 10
    batch_size = max(1, n_queries // n_batches)
    seed = int(rng.integers(1 << 31))
    kwargs = dict(n_batches=n_batches, batch_size=batch_size, rng=seed)

    started = time.perf_counter()
    sweep = simulate_sweep(desc, workload, buffer_sizes, **kwargs)
    seconds = time.perf_counter() - started

    started = time.perf_counter()
    online = [simulate(desc, workload, b, **kwargs) for b in buffer_sizes]
    dense_seconds = time.perf_counter() - started

    for b, fast, slow in zip(buffer_sizes, sweep, online):
        if not _same_result(fast, slow):
            raise AssertionError(
                f"stack-distance sweep diverged from the online LRU "
                f"engine at buffer size {b}"
            )
    return _record(
        "stack_distance_sweep",
        n_rects,
        n_queries,
        seconds,
        dense_seconds,
        ops=len(buffer_sizes) * n_batches * batch_size,
        unit="capacity-queries/s",
    )


def _bench_probe_throughput(
    rng: np.random.Generator, n_rects: int, n_queries: int
) -> dict:
    """The instrumented metrics-probe simulation (``level_stats=True``,
    no registry or trace ring), grid vs dense."""
    rects = _node_like_rects(rng, n_rects)
    capacity = 100 if n_rects >= 20_000 else 25
    desc = pack_description(rects, capacity, "hs")
    workload = UniformPointWorkload()
    n_batches = 5
    batch_size = max(1, n_queries // n_batches)
    seed = int(rng.integers(1 << 31))
    kwargs = dict(
        buffer_size=max(2, desc.total_nodes // 5),
        n_batches=n_batches,
        batch_size=batch_size,
        warmup_queries=2048,
        level_stats=True,
        rng=seed,
    )

    started = time.perf_counter()
    fast = simulate(desc, workload, accel="auto", **kwargs)
    seconds = time.perf_counter() - started

    started = time.perf_counter()
    dense = simulate(desc, workload, accel="dense", **kwargs)
    dense_seconds = time.perf_counter() - started

    if not _same_result(fast, dense):
        raise AssertionError("probe results diverged across accel backends")
    return _record(
        "probe_simulation_throughput",
        n_rects,
        n_queries,
        seconds,
        dense_seconds,
        ops=kwargs["warmup_queries"] + n_batches * batch_size,
        unit="queries/s",
    )


def _serving_pair(
    rng: np.random.Generator, n_rects: int, n_queries: int
):
    """Two services over one tree — batched and per-query — plus points.

    Both run the same LRU pool (K=1) over the same point sequence, so
    their buffer counters must match exactly; the callers assert it.
    """
    rects = _node_like_rects(rng, n_rects)
    capacity = 100 if n_rects >= 20_000 else 25
    desc = pack_description(rects, capacity, "hs")
    workload = UniformPointWorkload()
    buffer_size = max(2, desc.total_nodes // 5)
    points = workload.sample_points(n_queries, rng)
    batched = QueryService(
        desc, workload, buffer_size,
        max_batch=4096, expected_queries=n_queries,
    )
    naive = QueryService(
        desc, workload, buffer_size,
        max_batch=0, expected_queries=n_queries,
    )
    return batched, naive, points


def _bench_serving_throughput(
    rng: np.random.Generator, n_rects: int, n_queries: int
) -> dict:
    """Micro-batched admission vs the naive per-query serving loop."""
    batched, naive, points = _serving_pair(rng, n_rects, n_queries)

    started = time.perf_counter()
    batched.process(points)
    seconds = time.perf_counter() - started

    started = time.perf_counter()
    naive.process(points)
    dense_seconds = time.perf_counter() - started

    if (
        batched.aggregate_stats().as_dict()
        != naive.aggregate_stats().as_dict()
    ):
        raise AssertionError(
            "batched serving buffer counters diverged from the "
            "per-query loop"
        )
    return _record(
        "serving_throughput",
        n_rects,
        n_queries,
        seconds,
        dense_seconds,
        ops=n_queries,
        unit="queries/s",
    )


def _bench_serving_latency(
    rng: np.random.Generator, n_rects: int, n_queries: int
) -> dict:
    """Saturation p99: all queries arrive at t0, measure the tail.

    ``seconds`` is the batched p99 itself (so ``ops_per_s`` reads as
    the achieved drain rate at the tail) and ``dense_seconds`` the
    per-query loop's p99 — ``speedup_vs_dense`` is the tail-latency
    improvement batching buys under saturation.
    """
    batched, naive, points = _serving_pair(rng, n_rects, n_queries)

    arrivals = np.full(n_queries, time.perf_counter_ns(), dtype=np.int64)
    batched.process(points, arrivals_ns=arrivals)
    p99_batched = batched.latency.percentile_us(99) / 1e6

    arrivals = np.full(n_queries, time.perf_counter_ns(), dtype=np.int64)
    naive.process(points, arrivals_ns=arrivals)
    p99_naive = naive.latency.percentile_us(99) / 1e6

    if (
        batched.aggregate_stats().as_dict()
        != naive.aggregate_stats().as_dict()
    ):
        raise AssertionError(
            "batched serving buffer counters diverged from the "
            "per-query loop"
        )
    return _record(
        "serving_latency_p99",
        n_rects,
        n_queries,
        p99_batched,
        p99_naive,
        ops=n_queries,
        unit="queries/s",
    )


def _bench_telemetry_overhead(
    rng: np.random.Generator, n_rects: int, n_queries: int
) -> dict:
    """Serving wall time with a live telemetry sink vs without.

    Both services run the same batched admission over the same points
    with per-query arrivals (so the latency recorder is hot in both);
    the instrumented one additionally carries a started
    :class:`TelemetrySink` streaming ticks to a scratch file.  The
    counters must match exactly — telemetry observes, it never steers.
    """
    rects = _node_like_rects(rng, n_rects)
    capacity = 100 if n_rects >= 20_000 else 25
    desc = pack_description(rects, capacity, "hs")
    workload = UniformPointWorkload()
    buffer_size = max(2, desc.total_nodes // 5)
    points = workload.sample_points(n_queries, rng)

    def run(telemetry_enabled: bool) -> tuple[float, dict]:
        service = QueryService(
            desc, workload, buffer_size,
            shards=2, max_batch=4096, expected_queries=n_queries,
        )
        sink = None
        scratch = None
        if telemetry_enabled:
            scratch = tempfile.NamedTemporaryFile(
                mode="w", suffix=".jsonl", delete=False
            )
            scratch.close()
            sink = TelemetrySink(
                service, interval_s=0.01, path=scratch.name
            )
            service.telemetry = sink
            sink.start()
        arrivals = np.full(
            n_queries, time.perf_counter_ns(), dtype=np.int64
        )
        started = time.perf_counter()
        service.process(points, arrivals_ns=arrivals)
        seconds = time.perf_counter() - started
        if sink is not None:
            sink.close()
            Path(scratch.name).unlink()
        return seconds, service.aggregate_stats().as_dict()

    seconds, enabled_stats = run(telemetry_enabled=True)
    dense_seconds, disabled_stats = run(telemetry_enabled=False)

    if enabled_stats != disabled_stats:
        raise AssertionError(
            "telemetry-enabled serving buffer counters diverged from "
            "the telemetry-free run"
        )
    return _record(
        "telemetry_overhead",
        n_rects,
        n_queries,
        seconds,
        dense_seconds,
        ops=n_queries,
        unit="queries/s",
    )


def _record(
    kernel: str,
    n_rects: int,
    n_points: int,
    seconds: float,
    dense_seconds: float,
    *,
    ops: int,
    unit: str,
) -> dict:
    seconds = max(seconds, 1e-9)
    dense_seconds = max(dense_seconds, 1e-9)
    return {
        "kernel": kernel,
        "n_rects": int(n_rects),
        "n_points": int(n_points),
        "seconds": seconds,
        "ops_per_s": ops / seconds,
        "unit": unit,
        "dense_seconds": dense_seconds,
        "speedup_vs_dense": dense_seconds / seconds,
    }


_FULL_SIZES = {
    "data_driven": (100_000, 100_000),
    "point_stab": (50_000, 20_000),
    "sim_throughput": (50_000, 20_000),
    "stack_sweep": (50_000, 200_000),
    "probe_throughput": (50_000, 20_000),
    "serving_throughput": (50_000, 100_000),
    "serving_latency": (50_000, 20_000),
    "telemetry_overhead": (50_000, 100_000),
}

_SMOKE_SIZES = {
    "data_driven": (1_500, 1_500),
    "point_stab": (4_000, 2_000),
    "sim_throughput": (4_000, 2_000),
    "stack_sweep": (4_000, 10_000),
    "probe_throughput": (4_000, 2_000),
    "serving_throughput": (4_000, 5_000),
    "serving_latency": (4_000, 2_000),
    "telemetry_overhead": (4_000, 5_000),
}


def build_report(seed: int = 0, smoke: bool = False) -> dict:
    """Run every kernel benchmark and assemble the report dict."""
    sizes = _SMOKE_SIZES if smoke else _FULL_SIZES
    rng = np.random.default_rng(seed)
    records = [
        _bench_data_driven(rng, *sizes["data_driven"]),
        _bench_point_stab(rng, *sizes["point_stab"]),
        _bench_sim_throughput(rng, *sizes["sim_throughput"]),
        _bench_stack_distance_sweep(rng, *sizes["stack_sweep"]),
        _bench_probe_throughput(rng, *sizes["probe_throughput"]),
        _bench_serving_throughput(rng, *sizes["serving_throughput"]),
        _bench_serving_latency(rng, *sizes["serving_latency"]),
        _bench_telemetry_overhead(rng, *sizes["telemetry_overhead"]),
    ]
    return {
        "schema": SCHEMA,
        "seed": int(seed),
        "smoke": bool(smoke),
        "records": records,
    }


def validate_report(report: object) -> list[str]:
    """Schema errors in a parsed report (empty list = valid).

    Delegates to :func:`repro.obs.history.validate_bench_report` — the
    ledger owns the schema, so the producer can never drift from it.
    """
    return validate_bench_report(report)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out",
        type=Path,
        default=REPO_ROOT / "BENCH_repro.json",
        help="report path (default: BENCH_repro.json at the repo root)",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="run CI-sized inputs (seconds instead of minutes)",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--validate",
        type=Path,
        metavar="FILE",
        help="validate an existing report against the schema and exit",
    )
    args = parser.parse_args(argv)

    if args.validate is not None:
        try:
            report = json.loads(args.validate.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            print(f"{args.validate}: unreadable report: {exc}")
            return 1
        errors = validate_report(report)
        for error in errors:
            print(f"{args.validate}: {error}")
        if errors:
            return 1
        print(f"{args.validate}: valid {SCHEMA} report "
              f"({len(report['records'])} record(s))")
        return 0

    report = build_report(seed=args.seed, smoke=args.smoke)
    for record in report["records"]:
        print(
            f"{record['kernel']}: {record['n_rects']} rects x "
            f"{record['n_points']} points -> {record['seconds']:.3f}s "
            f"(dense {record['dense_seconds']:.3f}s, "
            f"{record['speedup_vs_dense']:.1f}x)"
        )
    args.out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
