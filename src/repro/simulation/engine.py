"""The validation simulator of the paper's §4.

"The simulation models an LRU buffer and, like the model, takes as
input the list of the MBRs for all nodes at all levels.  It then
generates random point queries in the unit square and checks each
node's MBR to see if it contains the point.  If the MBR does contain
the point, the node is requested from the buffer pool."

Every query model in the paper reduces to a point test against
transformed node MBRs (see :mod:`repro.queries`), so the simulator is a
single loop: sample representative points, find the containing
(transformed) MBRs, and request those nodes from the buffer top-down.
Disk accesses are buffer misses; estimates carry batch-means confidence
intervals exactly as in the paper.

The containment step runs on the :mod:`repro.accel` layer: a point
stabber is built once per transformed rect set (a uniform grid above a
size threshold, the dense matrix below — ``accel=`` overrides) and
returns per-query candidate id lists in CSR form.  The flat id array
of a chunk *is* its page stream (query order, ascending within each
query), so the buffer serves it with one ``request_batch`` call.  Both
backends produce byte-identical id sequences (ascending = level-major
= top-down), so traces, per-level counters and measured statistics do
not depend on the backend.

Observability: measurement batches are bracketed by
``BufferStats.reset()`` so every batch's counters are independent
(``SimulationResult.batch_stats``), and passing a
:class:`~repro.obs.MetricsRegistry` adds per-level counters, built
from each chunk's page and miss arrays, and phase timers — see
``docs/OBSERVABILITY.md``.  The buffer loop is the same either way.
Independently, when a process-wide tracer is installed
(``repro.obs.use_tracer``) the phases emit nested spans — simulate →
warmup/measure → per-batch → sample/stab/buffer loop — at chunk
granularity, so the un-traced run pays only the no-op span dispatch
(held within a constant by ``tests/obs/test_overhead.py``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ..accel import make_stabber
from ..buffer import BufferPool, BufferStats, POLICIES
from ..obs import LevelStats, LevelStatsTable, MetricsRegistry, QueryTrace, QueryTraceEntry
from ..obs.spans import span
from ..queries.mixed import MixedWorkload
from ..rtree import TreeDescription
from .batchmeans import BatchMeansEstimate, batch_means

__all__ = ["SimulationResult", "build_stabbers", "simulate"]

_CHUNK = 4096
"""Queries vectorised per containment-matrix block."""


@dataclass(frozen=True)
class SimulationResult:
    """Measured per-query costs for one tree / workload / buffer setup."""

    disk_accesses: BatchMeansEstimate
    """Pages required from disk per query (buffer misses)."""
    node_accesses: BatchMeansEstimate
    """Nodes touched per query (the bufferless metric)."""
    warmup_queries: int
    """Queries executed before measurement began."""
    buffer_filled: bool
    """Whether the buffer was full when measurement began."""
    batch_stats: tuple[BufferStats, ...] = ()
    """Independent buffer counters per measurement batch (warm-up
    excluded); each batch's counters are snapshot then reset."""
    level_stats: tuple[LevelStats, ...] | None = None
    """Per-tree-level request/hit/miss/eviction/pin-hit counters over
    the whole measurement window; ``None`` unless ``simulate`` was
    given a registry."""
    trace: tuple[QueryTraceEntry, ...] = ()
    """The last ``trace_last`` queries' touched node ids and miss
    sets; empty unless tracing was requested."""

    @property
    def hit_ratio(self) -> float:
        """Measured steady-state buffer hit probability."""
        if self.node_accesses.mean == 0.0:
            return 1.0
        return 1.0 - self.disk_accesses.mean / self.node_accesses.mean


def simulate(
    desc: TreeDescription,
    workload,
    buffer_size: int,
    *,
    pinned_levels: int = 0,
    n_batches: int = 20,
    batch_size: int = 5000,
    warmup_queries: int | None = None,
    warmup_cap: int = 100_000,
    policy: str = "lru",
    confidence: float = 0.90,
    rng: np.random.Generator | int | None = None,
    registry: MetricsRegistry | None = None,
    trace_last: int = 0,
    accel: str = "auto",
) -> SimulationResult:
    """Simulate the buffer and measure disk accesses per query.

    Parameters
    ----------
    desc:
        Per-level node MBRs (level-major node ids are the page ids).
    workload:
        A workload from :mod:`repro.queries` (anything exposing
        ``transformed_rects`` and ``sample_points``).
    buffer_size:
        Buffer capacity in pages.
    pinned_levels:
        Top tree levels preloaded and pinned (they always hit and are
        excluded from replacement, as in §3.3 / §5.5).
    n_batches, batch_size, confidence:
        Batch-means measurement parameters (the paper uses 20 batches;
        its batch size of 10⁶ is configurable here for runtime).
    warmup_queries:
        Queries run before measurement.  ``None`` (default) warms up
        until the buffer first fills, capped at ``warmup_cap`` — the
        moment the model's steady-state approximation refers to.
    policy:
        Replacement policy name (``lru``, ``fifo``, ``clock``,
        ``random``); the paper's model targets LRU.
    rng:
        Seed or generator for query sampling (default: seed 0).
    registry:
        Optional :class:`~repro.obs.MetricsRegistry`.  When given, a
        :class:`~repro.obs.LevelStatsTable` counts the measurement
        window's requests per tree level (levels resolved via
        ``desc.level_offsets``), the warm-up and measurement phases
        are timed into ``simulate.warmup`` / ``simulate.measure``, and
        the aggregate measurement-window counters land in ``buffer.*``
        counters.  The result then carries ``level_stats``.
    trace_last:
        Retain the last this-many queries' touched node ids and miss
        sets on ``SimulationResult.trace`` (0 disables tracing).
    accel:
        Containment backend: ``"auto"`` (grid index for large rect
        sets, dense below the size threshold), ``"grid"``, or
        ``"dense"``.  All backends are bit-exact, so every measured
        statistic is independent of this choice.
    """
    if n_batches < 2:
        raise ValueError("need at least two batches for confidence intervals")
    if batch_size < 1:
        raise ValueError("batch_size must be positive")
    if warmup_cap < 0:
        raise ValueError("warmup_cap must be non-negative")
    if trace_last < 0:
        raise ValueError("trace_last must be non-negative")
    if not 0 <= pinned_levels <= desc.height:
        raise ValueError(f"pinned_levels must be in [0, {desc.height}]")
    if rng is None or isinstance(rng, int):
        rng = np.random.default_rng(0 if rng is None else rng)

    root_span = span(
        "simulate",
        buffer_size=buffer_size,
        policy=policy,
        accel=accel,
        levels=desc.height,
        nodes=desc.total_nodes,
        pinned_levels=pinned_levels,
        n_batches=n_batches,
        batch_size=batch_size,
    )
    with root_span:
        # The stabber sees the whole run: warm-up (bounded by the cap
        # or the explicit count) plus every measurement batch.  The
        # work hint lets make_stabber promote small trees to the grid
        # when the probe volume is large (fig6-sized runs), exactly as
        # the sweep path does — backends are bit-exact, so the hint
        # only ever changes speed.
        probe_budget = (
            warmup_cap if warmup_queries is None else warmup_queries
        ) + n_batches * batch_size
        stabber, backend = build_stabbers(
            desc, workload, accel=accel, n_points=probe_budget
        )
        root_span.set_attrs(backend=backend)
        pinned_ids = range(desc.level_offsets[pinned_levels])
        buffer = _make_buffer(policy, buffer_size, pinned_ids, rng)

        levels = (
            LevelStatsTable(desc.level_offsets)
            if registry is not None
            else None
        )
        trace = QueryTrace(trace_last) if trace_last > 0 else None

        # --------------------------------------------------------------
        # Warm-up: reach the state the model's steady-state estimate
        # targets.
        # --------------------------------------------------------------
        started = time.perf_counter_ns() if registry is not None else 0
        warmed = 0
        with span("simulate.warmup"):
            for step in _warmup_schedule(warmup_queries, warmup_cap):
                if warmup_queries is None and buffer.is_full():
                    break
                _run_queries(buffer, stabber, workload, rng, step, trace)
                warmed += step
        buffer_filled = buffer.is_full()
        if registry is not None:
            registry.timer("simulate.warmup").record(
                (time.perf_counter_ns() - started) / 1e9
            )

        # --------------------------------------------------------------
        # Measurement: batch means over misses and accesses per query.
        # Counters are reset at every batch boundary, so each batch's
        # statistics are independent and the batch snapshots sum to the
        # measurement-window totals.
        # --------------------------------------------------------------
        started = time.perf_counter_ns() if registry is not None else 0
        buffer.stats.reset()
        if levels is not None:
            levels.reset(buffer)
        batch_snapshots: list[BufferStats] = []
        miss_means: list[float] = []
        access_means: list[float] = []
        with span("simulate.measure"):
            for batch_index in range(n_batches):
                with span("simulate.batch", batch=batch_index):
                    remaining = batch_size
                    while remaining > 0:
                        step = min(_CHUNK, remaining)
                        _run_queries(
                            buffer, stabber, workload, rng, step, trace,
                            levels,
                        )
                        remaining -= step
                snapshot = buffer.stats.snapshot()
                batch_snapshots.append(snapshot)
                miss_means.append(snapshot.misses / batch_size)
                access_means.append(snapshot.requests / batch_size)
                buffer.stats.reset()

    if registry is not None:
        registry.timer("simulate.measure").record(
            (time.perf_counter_ns() - started) / 1e9
        )
        totals = _sum_stats(batch_snapshots)
        registry.counter("buffer.requests").inc(totals.requests)
        registry.counter("buffer.hits").inc(totals.hits)
        registry.counter("buffer.misses").inc(totals.misses)
        registry.counter("buffer.evictions").inc(totals.evictions)
        registry.gauge("buffer.capacity").set(buffer_size)
        registry.gauge("buffer.pinned_pages").set(len(buffer.pinned))
        registry.gauge("sim.batches").set(n_batches)
        registry.gauge("sim.batch_size").set(batch_size)

    return SimulationResult(
        disk_accesses=batch_means(miss_means, confidence=confidence),
        node_accesses=batch_means(access_means, confidence=confidence),
        warmup_queries=warmed,
        buffer_filled=buffer_filled,
        batch_stats=tuple(batch_snapshots),
        level_stats=levels.snapshot(buffer) if levels is not None else None,
        trace=trace.entries() if trace is not None else (),
    )


def build_stabbers(
    desc: TreeDescription,
    workload,
    *,
    accel: str = "auto",
    n_points: int = 0,
):
    """Build the point stabber(s) for ``workload`` over ``desc``.

    Returns ``(stabber, backend)``: one stabber over the workload's
    transformed MBRs, or a list of per-component stabbers for a
    :class:`~repro.queries.mixed.MixedWorkload`; ``backend`` names the
    chosen accel class(es) for span attribution.  ``n_points`` is the
    expected probe volume — the work hint that lets ``make_stabber``
    promote small trees to the grid index (bit-exact either way).

    Shared by the batch simulator, the capacity sweep and the serving
    engine so every path stabs through identical structures — part of
    the K=1 exactness argument in ``docs/SERVING.md``.
    """
    if isinstance(workload, MixedWorkload):
        transformed = workload.component_transforms(desc.all_rects)
        stabbers = [
            make_stabber(t, mode=accel, n_points=n_points)
            for t in transformed
        ]
        backend = ",".join(sorted({type(s).__name__ for s in stabbers}))
        return stabbers, backend
    transformed = workload.transformed_rects(desc.all_rects)
    stabber = make_stabber(transformed, mode=accel, n_points=n_points)
    return stabber, type(stabber).__name__


def _warmup_schedule(warmup_queries: int | None, warmup_cap: int) -> list[int]:
    """The warm-up chunk sizes, in order: ``min(_CHUNK, remaining)``
    steps over ``warmup_queries``, or over ``warmup_cap`` when warming
    up until the buffer fills (checked before each step).

    :func:`simulate` and the capacity sweep both walk this one
    schedule, so the buffer-full check lands on the same query
    boundaries in each — part of the sweep's bit-exactness.
    """
    total = warmup_cap if warmup_queries is None else warmup_queries
    return [min(_CHUNK, total - done) for done in range(0, total, _CHUNK)]


def _sum_stats(snapshots: list[BufferStats]) -> BufferStats:
    """Column sums over per-batch snapshots."""
    totals = BufferStats()
    for snapshot in snapshots:
        totals.requests += snapshot.requests
        totals.hits += snapshot.hits
        totals.misses += snapshot.misses
        totals.evictions += snapshot.evictions
    return totals


def _make_buffer(
    policy: str,
    buffer_size: int,
    pinned_ids,
    rng: np.random.Generator,
) -> BufferPool:
    if policy == "random":
        return POLICIES["random"](buffer_size, pinned_ids, rng=rng)
    try:
        cls = POLICIES[policy]
    except KeyError:
        raise ValueError(
            f"unknown policy {policy!r}; choices: {sorted(POLICIES)}"
        ) from None
    return cls(buffer_size, pinned_ids)


def _run_queries(
    buffer: BufferPool,
    stabber,
    workload,
    rng: np.random.Generator,
    count: int,
    trace: QueryTrace | None = None,
    levels: LevelStatsTable | None = None,
) -> None:
    """Run ``count`` queries through the buffer.

    All aggregate accounting lives in ``buffer.stats`` (snapshot/reset
    at batch boundaries by the caller) — this function deliberately
    returns nothing, so there is exactly one source of truth for
    hit/miss counts.

    ``stabber`` answers point-stabbing queries in CSR form (one per
    component for mixtures); node ids arrive ascending (level-major),
    i.e. top-down, matching a recursive traversal's request order.
    The chunk's flat id array is handed to the buffer in one
    ``request_batch`` call, whose miss positions feed ``levels``
    (per-level counters) and ``trace`` (the last queries' touched ids
    and miss sets, located through the CSR ``indptr``) when given.

    Spans are emitted per *chunk* (this function runs once per
    ``_CHUNK`` queries), never per query or per request, so the
    disabled-tracer cost is three no-op context managers per 4096
    queries.
    """
    if isinstance(workload, MixedWorkload):
        with span("simulate.stab", queries=count, mixed=True):
            ids, indptr = _mixed_pages(stabber, workload, rng, count)
    else:
        with span("simulate.sample", queries=count):
            points = workload.sample_points(count, rng)
        with span("simulate.stab", queries=count):
            sparse = stabber.stab(points)
            ids, indptr = sparse.ids, sparse.indptr
    with span("simulate.buffer_loop", queries=count):
        missed = buffer.request_batch(ids.tolist())
        if levels is not None:
            levels.record(ids, missed)
        if trace is not None:
            trace.record_chunk(ids, indptr, missed)


def _mixed_pages(
    stabbers,
    workload: MixedWorkload,
    rng: np.random.Generator,
    count: int,
) -> tuple[np.ndarray, np.ndarray]:
    """A mixture chunk's page stream in CSR form ``(ids, indptr)``:
    each query is drawn from one component and stabbed against that
    component's transformed MBRs, and the rows are laid out in the
    original query order for the buffer."""
    assignments = workload.sample_assignments(count, rng)
    lengths = np.zeros(count, dtype=np.int64)
    parts = []
    for c, component in enumerate(workload.workloads):
        idx = np.nonzero(assignments == c)[0]
        if idx.size == 0:
            continue
        points = component.sample_points(idx.size, rng)
        sparse = stabbers[c].stab(points)
        lengths[idx] = np.diff(sparse.indptr)
        parts.append((idx, sparse))
    indptr = np.zeros(count + 1, dtype=np.int64)
    np.cumsum(lengths, out=indptr[1:])
    ids = np.empty(int(indptr[-1]), dtype=np.int64)
    for idx, sparse in parts:
        # Component row j is query idx[j]: its k-th id moves from
        # position sparse.indptr[j] + k to indptr[idx[j]] + k.
        shift = indptr[idx] - sparse.indptr[:-1]
        row_lengths = np.diff(sparse.indptr)
        ids[np.repeat(shift, row_lengths) + np.arange(sparse.nnz)] = sparse.ids
    return ids, indptr
