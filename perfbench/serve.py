"""The serve workloads: open-loop Poisson load against a live QueryService.

One run does, in order:

1. **Set-up**: generate the data set, pack the tree, build the
   :class:`~repro.serving.QueryService` (its stabber) and warm the
   buffer synchronously until ``pool.is_full()``.  The run repeats the
   set-up ``setup_repeats - 1`` more times, spread over the rounds and
   each dropped at once; ``setup_s`` is the median of all of them.
2. :data:`ROUNDS` rounds, each of these parts:

   * a **fixed-rate segment**: after ``reset_measurement()``, the main
     thread plays the next part of one seeded Poisson schedule at the
     workload's rate into the live service's one dispatcher thread.
     Each query's latency runs from its *scheduled* arrival, so
     generator lateness is charged, not hidden.
   * its **replay**: a second service, warmed with the same queries and
     fed every earlier segment, serves the segment's points
     synchronously with ``process()``.  With one dispatcher the stream
     order is the same, so its aggregate and per-shard counters must
     equal the segment's exactly (a gate).
   * the next **max_qps rungs** of one :class:`Staircase` over the
     offered rate, on a third service.  A rung passes when nothing is
     lost, its p99 is within the SLO and the queue-depth trend shows no
     growing backlog.
   * its share of the repeated set-ups.

   The segments together are the fixed-rate phase, read in slices of
   :data:`CPU_SLICE_S`; the replay is read call by call.  Each slice
   and call records the jiffies stolen from the pinned CPU, and the
   metrics come from the quiet ones (:func:`host.quiet`).  ``p50_ms``,
   ``p99_ms`` and ``disk_reads_per_query`` come from the fixed-rate
   phase; ``p99_ms`` is the p99 of its typical 10 ms window
   (:attr:`Phase.window_p99_ms`; the README says why not the p99 over
   every query, which is printed).  ``cpu_s`` is its process CPU time,
   all threads, and ``reproduce_s`` the wall time of its replay; both
   are charged at the run's slower-quartile speed over the quiet slices
   (:func:`host.slow_share`).  ``max_qps`` is the slower quartile of
   the rates the staircase settles at, where 3 of 4 rungs pass.
   ``peak_rss_mb`` is read after the first segment, before the replay
   and search services exist, so it is one serving process's.

Arrivals come from ``seed`` and query points from ``seed + 1`` -- the
streams :class:`~repro.serving.LoadGenerator` draws -- warm-up points
from ``seed + 3`` and max_qps rung ``k`` from ``seed + 4 + 2k``.
"""

from __future__ import annotations

import gc
import math
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro import datasets, packing
from repro.accel import DenseStabber, GridStabbingIndex
from repro.buffer import ShardedBufferPool
from repro.experiments.common import DATASET_SEEDS, serve_slo
from repro.obs import (
    LatencyRecorder,
    Tracer,
    current_tracer,
    span,
    use_tracer,
    write_chrome_trace,
)
from repro.queries import UniformPointWorkload, UniformRegionWorkload
from repro.serving import LoadGenerator, QueryService

from . import host
from .layers import (
    ROOT,
    WINDOW,
    Shims,
    count_nodes,
    count_stab,
    fold,
    loader_sub,
)
from .report import Outcome, fold_lines, percentile, ratio

OUT_DIR = Path(__file__).resolve().parent.parent / ".perfbench_out"

GENERATORS = {"region": "synthetic_region", "point": "synthetic_point"}
"""Data set family -> generator in :mod:`repro.datasets` (Table 1 and
Fig. 10's families, generated with the artefacts' own seeds)."""

WARM_BLOCK = 64
"""Warm-up points are drawn ``WARM_BLOCK * max_batch`` at a time."""

ROUNDS = 6
"""Fixed-rate segments, each followed by its replay and some rungs."""

FIXED_SHARE = 0.35
"""Share of ``--seconds`` given to the fixed-rate segments."""

SEARCH_SHARE = 0.55
"""Share of ``--seconds`` given to the max_qps rungs."""

RUNG_S = 0.5
"""Seconds of arrivals in one max_qps rung."""

ACQUIRE_QPS = 40_000.0
ACQUIRE_FACTOR = 1.5
"""The first rung offers ``ACQUIRE_QPS``; each pass multiplies the rate
by ``ACQUIRE_FACTOR`` until a rung fails."""

STEP_FACTOR = 1.03
"""After that, a pass multiplies the rate by ``STEP_FACTOR`` and a
failure divides it by ``STEP_FACTOR ** 3``."""

CPU_SLICE_S = 0.25
"""Process CPU time is read every this many seconds of arrivals."""

OVERHEAD_PAIRS = 3
"""Untraced/traced replay pairs behind ``trace.overhead_frac``."""

DRAIN_TIMEOUT_S = 60.0
"""Queries not served this long after the schedule ends count as lost."""

QUEUE_SAMPLE = 64
"""The generator reads the queue depth every this many arrivals."""

WINDOW_S = 0.01
"""``p99_ms`` is the median over windows of this many seconds of
arrivals of each window's p99."""


@dataclass(frozen=True)
class ServeSpec:
    """One serve workload's configuration (``workloads.json``)."""

    name: str
    dataset: str
    n: int
    capacity: int
    loader: str
    tree_pages: int
    buffer_pages: int
    pinned_levels: int
    shards: int
    zipf_keys: int
    rate_qps: float
    max_batch: int
    max_wait_us: float


@dataclass
class Setup:
    """A ready service: tree built, buffer warm, counters reset."""

    desc: object
    service: QueryService
    keys: np.ndarray | None
    warm_points: np.ndarray
    seconds: float


@dataclass
class Phase:
    """One or more open-loop schedules, measured from scheduled arrivals."""

    rate_qps: float
    submitted: int
    refused: int
    served: int
    latency_ns: np.ndarray
    lag_ns: np.ndarray
    queue_max: int
    backlog_growth: float
    """Queue-depth growth over the schedule (least-squares trend), queries."""
    drain_ms: float
    wall_s: float
    cpu_s: float
    cpu_per_query: list[float]
    """Process CPU seconds per arrival, one value per CPU slice."""
    slice_ends: list[int]
    """Index of the first arrival after each CPU slice."""
    slice_steal: list[int]
    """Jiffies stolen from the pinned CPU during each CPU slice."""
    aggregate: dict[str, int]
    per_shard: list[dict[str, int]]

    @property
    def lost(self) -> int:
        return self.submitted - self.served

    @property
    def stolen(self) -> int:
        return sum(self.slice_steal)

    def quiet_cpu_per_query(self) -> list[float]:
        return [self.cpu_per_query[k] for k in host.quiet(self.slice_steal)]

    def quiet_latency_ns(self) -> np.ndarray:
        """Latencies of the queries that arrived in quiet slices.

        Queries complete in arrival order (one dispatcher), so sample
        ``i`` is arrival ``i``; if any was refused, every sample counts.
        """
        if self.latency_ns.size != self.submitted:
            return self.latency_ns
        starts = [0] + self.slice_ends[:-1]
        return np.concatenate(
            [np.empty(0, dtype=self.latency_ns.dtype)]
            + [
                self.latency_ns[starts[k] : self.slice_ends[k]]
                for k in host.quiet(self.slice_steal)
            ]
        )

    @property
    def p50_ms(self) -> float:
        return percentile(self.latency_ns, 50) / 1e6

    @property
    def p99_ms(self) -> float:
        """p99 over every query: the figure the SLO bounds."""
        return percentile(self.latency_ns, 99) / 1e6

    def window_p99s_ms(self) -> np.ndarray:
        """Each :data:`WINDOW_S` window's p99, over the quiet slices.

        Queries complete in arrival order (one dispatcher), so equal
        counts of a Poisson stream are windows of about equal time.
        """
        latency_ns = self.quiet_latency_ns()
        windows = round(latency_ns.size / self.rate_qps / WINDOW_S)
        windows = min(max(1, windows), max(1, latency_ns.size))
        return np.array(
            [
                percentile(window, 99)
                for window in np.array_split(latency_ns, windows)
            ]
        ) / 1e6

    @property
    def window_p99_ms(self) -> float:
        """The p99 of the typical window: a host stall delays the queries
        of the few windows it falls in, not the median window's."""
        return float(np.median(self.window_p99s_ms()))

    def lag_ms(self, q: float) -> float:
        return percentile(self.lag_ns, q) / 1e6

    def backlog_grows(self, slo_ms: float) -> bool:
        """The queue grew by more than the SLO's worth of arrivals."""
        return self.backlog_growth > self.rate_qps * slo_ms / 1e3

    def meets_slo(self, slo_ms: float) -> bool:
        return (
            self.refused == 0
            and self.lost == 0
            and self.p99_ms <= slo_ms
            and not self.backlog_grows(slo_ms)
        )


def merged(phases: list[Phase]) -> Phase:
    """Several schedules at one rate as one phase: samples pooled,
    counters summed."""
    first = phases[0]

    def summed(rows: list[dict[str, int]]) -> dict[str, int]:
        return {key: sum(row[key] for row in rows) for key in rows[0]}

    return Phase(
        rate_qps=first.rate_qps,
        submitted=sum(p.submitted for p in phases),
        refused=sum(p.refused for p in phases),
        served=sum(p.served for p in phases),
        latency_ns=np.concatenate([p.latency_ns for p in phases]),
        lag_ns=np.concatenate([p.lag_ns for p in phases]),
        queue_max=max(p.queue_max for p in phases),
        backlog_growth=max(p.backlog_growth for p in phases),
        drain_ms=max(p.drain_ms for p in phases),
        wall_s=sum(p.wall_s for p in phases),
        cpu_s=sum(p.cpu_s for p in phases),
        cpu_per_query=[x for p in phases for x in p.cpu_per_query],
        slice_ends=[
            sum(q.submitted for q in phases[:k]) + end
            for k, p in enumerate(phases)
            for end in p.slice_ends
        ],
        slice_steal=[x for p in phases for x in p.slice_steal],
        aggregate=summed([p.aggregate for p in phases]),
        per_shard=[
            summed([p.per_shard[i] for p in phases])
            for i in range(len(first.per_shard))
        ],
    )


def set_up(spec: ServeSpec, seed: int, expected_queries: int) -> Setup:
    """Data set, tree, service and warm buffer, as a user starts one."""
    start = time.perf_counter()
    generate = getattr(datasets, GENERATORS[spec.dataset])
    data = generate(spec.n, rng=DATASET_SEEDS[spec.dataset])
    desc = packing.load_description(spec.loader, data, spec.capacity)
    keys = data.centers()[: spec.zipf_keys] if spec.zipf_keys else None
    service = _service(spec, desc, expected_queries)
    warm = LoadGenerator(
        service,
        rate_qps=spec.rate_qps,
        n_queries=WARM_BLOCK * spec.max_batch,
        seed=seed + 2,
        key_points=keys,
    ).query_points()
    used = 0
    while not service.pool.is_full():
        if used >= len(warm):
            raise RuntimeError(
                f"buffer not full after {used} warm-up queries"
            )
        service.process(warm[used : used + spec.max_batch])
        used += spec.max_batch
    service.reset_measurement()
    return Setup(desc, service, keys, warm[:used], time.perf_counter() - start)


def _service(spec: ServeSpec, desc, expected_queries: int) -> QueryService:
    return QueryService(
        desc,
        UniformPointWorkload(),
        spec.buffer_pages,
        shards=spec.shards,
        max_batch=spec.max_batch,
        max_wait_us=spec.max_wait_us,
        pinned_levels=spec.pinned_levels,
        expected_queries=expected_queries,
    )


def _warm_copy(spec: ServeSpec, setup: Setup, expected: int) -> QueryService:
    """A fresh service in the state the set-up left its own in."""
    service = _service(spec, setup.desc, expected)
    service.process(setup.warm_points)
    service.reset_measurement()
    return service


def play(
    service: QueryService,
    offsets_ns: np.ndarray,
    points: np.ndarray,
    rate_qps: float,
    kind: str,
) -> Phase:
    """Play arrivals at ``offsets_ns`` from now into a stopped service,
    started for the purpose, and wait until it has served them."""
    n = len(points)
    points = list(points)
    service.reset_measurement()
    lag_ns = np.zeros(n, dtype=np.int64)
    depths = np.zeros((n + QUEUE_SAMPLE - 1) // QUEUE_SAMPLE, dtype=np.int64)
    slice_n = max(1, int(rate_qps * CPU_SLICE_S))
    submit = service.submit
    now = time.perf_counter_ns
    sleep = time.sleep
    cpu = host.process_cpu_s
    stolen = host.CpuSteal(host.pinned_cpu()).ticks
    refused = 0
    with span(WINDOW):
        service.start(workers=1)
        try:
            with span("loadgen:play", rate_qps=rate_qps, kind=kind):
                cpu_marks = [(0, 0.0, stolen())]
                cpu0 = cpu()
                t0 = now()
                scheduled = (offsets_ns + t0).tolist()
                for i in range(n):
                    due = scheduled[i]
                    ahead = due - now()
                    if ahead > 0:
                        sleep(ahead / 1e9)
                    try:
                        submit(points[i], due)
                    except RuntimeError:
                        refused += 1
                    lag_ns[i] = now() - due
                    if not i % QUEUE_SAMPLE:
                        depths[i // QUEUE_SAMPLE] = service.queue_depth
                    if i and not i % slice_n:
                        cpu_marks.append((i, cpu() - cpu0, stolen()))
                target = n - refused
                deadline = time.monotonic() + DRAIN_TIMEOUT_S
                while (
                    service.queries_served < target
                    and time.monotonic() < deadline
                ):
                    sleep(0.0002)
                drained_ns = now()
                served = service.queries_served
                cpu_marks.append((n, cpu() - cpu0, stolen()))
        finally:
            service.stop()  # serves what the timeout left, after counting
    slices = [
        (i1, (c1 - c0) / (i1 - i0), s1 - s0)
        for (i0, c0, s0), (i1, c1, s1) in zip(cpu_marks, cpu_marks[1:])
        if i1 > i0
    ]
    trend = 0.0
    if depths.size > 1:
        trend = np.polyfit(np.arange(depths.size), depths, 1)[0]
    return Phase(
        rate_qps=rate_qps,
        submitted=n,
        refused=refused,
        served=served,
        latency_ns=service.latency.samples_ns(),
        lag_ns=lag_ns,
        queue_max=int(depths.max(initial=0)),
        backlog_growth=float(trend * depths.size),
        drain_ms=(drained_ns - scheduled[-1]) / 1e6,
        wall_s=(drained_ns - t0) / 1e9,
        cpu_s=cpu_marks[-1][1],
        cpu_per_query=[per_query for _, per_query, _ in slices],
        slice_ends=[end for end, _, _ in slices],
        slice_steal=[ticks for _, _, ticks in slices],
        aggregate=service.aggregate_stats().as_dict(),
        per_shard=[s.as_dict() for s in service.pool.shard_stats()],
    )


@dataclass
class Staircase:
    """The max_qps search: a weighted up-down staircase over the rate.

    It first climbs by :data:`ACQUIRE_FACTOR` until a rung fails, then
    restarts between the last pass and that failure with fine steps: up
    one step after a pass, down three after a failure.  Those steps
    balance where 3 of 4 rungs pass, and every rung counts instead of
    one stall deciding a bisection.  The rate follows the host's speed
    spells, so :attr:`estimate` is the slower quartile of the rates from
    the first reversal of the fine steps on, the quantile
    :func:`host.slow_share` charges the other speed figures at.
    """

    rate: float
    climbing: bool = True
    previous: bool | None = None
    settled: list[float] = field(default_factory=list)
    passed: list[float] = field(default_factory=list)

    def record(self, passed: bool) -> None:
        """Take the outcome of a rung run at :attr:`rate`; move the rate."""
        if passed:
            self.passed.append(self.rate)
        if self.climbing:
            if passed:
                self.rate *= ACQUIRE_FACTOR
            else:
                self.climbing = False
                self.rate /= math.sqrt(ACQUIRE_FACTOR)
            return
        reversal = self.previous is not None and passed != self.previous
        if self.settled or reversal:
            self.settled.append(self.rate)
        self.previous = passed
        self.rate *= STEP_FACTOR if passed else STEP_FACTOR**-3

    @property
    def estimate(self) -> float:
        """The settled rates' quantile at ``1 - host.SLOW_QUANTILE``;
        before any settle, the highest rate that passed (0 if none did)."""
        if not self.settled:
            return max(self.passed, default=0.0)
        return float(np.quantile(self.settled, 1 - host.SLOW_QUANTILE))


def _rung(
    service: QueryService,
    rate_qps: float,
    seconds: float,
    seed: int,
    keys: np.ndarray | None,
) -> Phase:
    """One max_qps rung: ``seconds`` of seeded Poisson load at a rate."""
    generator = LoadGenerator(
        service,
        rate_qps=rate_qps,
        n_queries=max(1, int(rate_qps * seconds)),
        seed=seed,
        key_points=keys,
    )
    return play(
        service,
        generator.schedule_offsets_ns(),
        generator.query_points(),
        rate_qps,
        "rung",
    )


@dataclass
class Replayed:
    """One segment replayed synchronously: counters, and the time per
    query and the jiffies stolen from the pinned CPU of each call."""

    aggregate: dict[str, int]
    per_shard: list[dict[str, int]]
    seconds_per_query: list[float]
    steal: list[int]


def replay(service: QueryService, points: np.ndarray) -> Replayed:
    """``points`` through ``process()``, one ``max_batch`` call at a time."""
    service.reset_measurement()
    times = []
    steal = []
    stolen = host.CpuSteal(host.pinned_cpu()).ticks
    step = service.max_batch
    with span("perfbench:replay"):
        for start in range(0, len(points), step):
            chunk = points[start : start + step]
            ticks = stolen()
            began = time.perf_counter()
            service.process(chunk)
            times.append((time.perf_counter() - began) / len(chunk))
            steal.append(stolen() - ticks)
    return Replayed(
        service.aggregate_stats().as_dict(),
        [s.as_dict() for s in service.pool.shard_stats()],
        times,
        steal,
    )


def _counter_gates(label: str, phase: Phase) -> list[str]:
    """Served equals submitted; hits + misses = requests; shards sum."""
    failures = []
    if phase.refused or phase.lost:
        failures.append(
            f"{label}: {phase.served} served of {phase.submitted} submitted "
            f"({phase.refused} refused)"
        )
    agg = phase.aggregate
    if agg["hits"] + agg["misses"] != agg["requests"]:
        failures.append(f"{label}: hits + misses != requests ({agg})")
    for key in agg:
        if sum(shard[key] for shard in phase.per_shard) != agg[key]:
            failures.append(
                f"{label}: shard {key} do not sum to the aggregate"
            )
    return failures


def _install_shims(shims: Shims) -> None:
    """Spans around each layer's entry points on the serving path."""
    for name in GENERATORS.values():
        shims.patch_attr(datasets, name, "datasets")
    shims.patch_attr(
        packing,
        "load_description",
        "packing",
        sub=loader_sub,
        count=count_nodes,
    )
    methods = (("sample_points", "sample"), ("transformed_rects", "transform"))
    for attr, sub in methods:
        shims.patch_attr(UniformRegionWorkload, attr, "queries", sub=sub)
    for cls in (GridStabbingIndex, DenseStabber):
        shims.patch_attr(cls, "stab", "accel", sub="stab", count=count_stab)
    shims.patch_attr(
        ShardedBufferPool, "request_batch", "buffer", count=_count_requests
    )
    shims.replace(QueryService, "submit", _aggregating_submit(shims))
    shims.replace(
        LatencyRecorder, "record_many_ns", _queue_wait_recorder(shims)
    )


def _count_requests(shims: Shims, args, kwargs, hits) -> None:
    shims.counts["buffer.calls"] += 1
    shims.counts["buffer.requests"] += len(args[1])


def _aggregating_submit(shims: Shims):
    """``submit`` runs once per query, so it records a total, not spans."""
    original = QueryService.submit
    now = time.perf_counter_ns
    counts = shims.counts

    def submit(service, point, arrival_ns=None):
        start = now()
        try:
            return original(service, point, arrival_ns)
        finally:
            counts["serving.submit_ns"] += now() - start
            counts["serving.submit_calls"] += 1

    return submit


def _queue_wait_recorder(shims: Shims):
    """``record_many_ns`` shim that also derives each query's queue wait.

    It runs inside ``serve.batch``: queue wait = latency - (now - batch
    start), i.e. the time before the dispatcher began the batch.
    """
    traced = shims.shim(
        LatencyRecorder.record_many_ns, "obs", "record_many_ns"
    )

    def record_many_ns(recorder, latencies_ns):
        tracer = current_tracer()
        batch = tracer.current() if tracer is not None else None
        if batch is not None and batch.name == "serve.batch":
            in_batch = time.perf_counter_ns() - batch.start_ns
            queue = np.maximum(np.asarray(latencies_ns) - in_batch, 0)
            shims.samples["serving.queue_ns"].append((batch.start_ns, queue))
        return traced(recorder, latencies_ns)

    return record_many_ns


def run(spec: ServeSpec, **options) -> Outcome:
    """One run of a serve workload (see the module docstring).

    The run is pinned to one CPU.  The generator and the dispatcher are
    two threads sharing one interpreter lock; on two CPUs every lock
    handoff wakes the other CPU, and on a virtual machine the hypervisor
    can delay those wake-ups by milliseconds.  Back-to-back runs on a
    2-vCPU VM measured 2-7% steal pinned against 13-19% unpinned, with
    max_qps 74-85k against 56-78k: unpinned, host stalls swamp the
    program's own latency.
    """
    with host.one_cpu() as allowed:
        outcome = _run(spec, **options)
    outcome.notes.insert(0, f"pinned to 1 of {allowed} CPUs")
    return outcome


def _run(
    spec: ServeSpec,
    *,
    seed: int,
    seconds: float,
    trace: bool,
    predictions: dict,
    setup_repeats: int = host.SETUP_REPEATS,
    rung_qps: float | None = None,
    delays: dict[str, float] | None = None,
) -> Outcome:
    """The measurement itself; with ``trace`` the same run is made under
    the tracer and shims, and the outcome carries per-layer metrics and
    the fold instead of the end-to-end metrics.  ``rung_qps`` runs every
    max_qps rung at that rate instead of searching, so that two runs do
    the same work."""
    slo_ms = serve_slo()[0] / 1e3
    steal = host.StealMeter()
    segment_n = max(1, int(spec.rate_qps * FIXED_SHARE * seconds / ROUNDS))
    n_fixed = segment_n * ROUNDS
    search = Staircase(ACQUIRE_QPS)
    n_rungs = max(1, round(SEARCH_SHARE * seconds / RUNG_S))
    rungs_of_round = np.array_split(np.arange(n_rungs), ROUNDS)
    extra_setups = np.array_split(np.arange(setup_repeats - 1), ROUNDS)

    tracer = shims = previous = None
    if trace:
        tracer, shims = Tracer(), Shims(delays)
        previous = use_tracer(tracer)
        _install_shims(shims)
    segments: list[Phase] = []
    rungs: list[Phase] = []
    replays: list[Replayed] = []
    services: list[QueryService] = []
    try:
        with span(ROOT):
            setup = set_up(spec, seed, n_fixed)
            setup_times = [setup.seconds]
            live = setup.service
            services.append(live)
            measured = LoadGenerator(
                live,
                rate_qps=spec.rate_qps,
                n_queries=n_fixed,
                seed=seed,
                key_points=setup.keys,
            )
            offsets = measured.schedule_offsets_ns()
            points = measured.query_points()
            for k in range(ROUNDS):
                part = slice(k * segment_n, (k + 1) * segment_n)
                start_ns = offsets[part][0]
                segments.append(
                    play(
                        live,
                        offsets[part] - start_ns,
                        points[part],
                        spec.rate_qps,
                        "fixed",
                    )
                )
                if k == 0:
                    peak_rss_mb = host.peak_rss_mb()
                    replayer = _warm_copy(spec, setup, n_fixed)
                    searcher = _warm_copy(spec, setup, n_fixed)
                    services += [replayer, searcher]
                replays.append(replay(replayer, points[part]))
                for r in rungs_of_round[k]:
                    rung = _rung(
                        searcher,
                        rung_qps or search.rate,
                        RUNG_S,
                        seed + 4 + 2 * int(r),
                        setup.keys,
                    )
                    rungs.append(rung)
                    search.record(rung.meets_slo(slo_ms))
                for _ in extra_setups[k]:
                    setup_times.append(set_up(spec, seed, n_fixed).seconds)
                    gc.collect()
    finally:
        for service in services:
            service.close()
        if shims is not None:
            shims.restore()
            use_tracer(previous)

    fixed = merged(segments)
    failures = []
    if setup.desc.total_nodes != spec.tree_pages:
        failures.append(
            f"tree has {setup.desc.total_nodes} pages, the workload "
            f"record says {spec.tree_pages}"
        )
    for k, (segment, replayed) in enumerate(zip(segments, replays)):
        failures += _counter_gates(f"fixed-rate segment {k}", segment)
        live_counters = (segment.aggregate, segment.per_shard)
        if (replayed.aggregate, replayed.per_shard) != live_counters:
            failures.append(
                f"segment {k}: replay counters {replayed.aggregate} / "
                f"{replayed.per_shard} differ from the open-loop run's "
                f"{segment.aggregate} / {segment.per_shard}"
            )
    for k, rung in enumerate(rungs):
        failures += _counter_gates(f"max_qps rung {k}", rung)
    phases = segments + rungs
    outcome = Outcome(
        workload=spec.name,
        attempted=sum(p.submitted for p in phases),
        failed=sum(p.refused + p.lost for p in phases),
        gate_failures=failures,
        metrics={},
    )
    steal_frac = steal.fraction()
    outcome.notes = _phase_notes(spec, setup, fixed, rungs, search, slo_ms)
    if trace:
        overhead = _tracing_overhead(spec, setup, points, n_fixed)
        outcome.notes.append(
            f"tracing overhead: {overhead:+.1%} (median of {OVERHEAD_PAIRS} "
            "alternating untraced/traced synchronous replays)"
        )
        _add_layer_report(
            outcome, spec, tracer.finished(), shims, fixed, predictions
        )
        outcome.metrics["trace.overhead_frac"] = overhead
    else:
        per_query = [t for r in replays for t in r.seconds_per_query]
        steal_ticks = [t for r in replays for t in r.steal]
        quiet_replay = [per_query[k] for k in host.quiet(steal_ticks)]
        outcome.metrics = {
            "setup_s": statistics.median(setup_times),
            "reproduce_s": host.slow_share(quiet_replay, n_fixed),
            "cpu_s": host.slow_share(fixed.quiet_cpu_per_query(), n_fixed),
            "peak_rss_mb": peak_rss_mb,
            "p50_ms": percentile(fixed.quiet_latency_ns(), 50) / 1e6,
            "p99_ms": fixed.window_p99_ms,
            "max_qps": search.estimate,
            "disk_reads_per_query": fixed.aggregate["misses"] / fixed.served,
        }
    outcome.metrics["host.steal_frac"] = steal_frac
    return outcome


def batch_span_stats(
    spans, main_thread: int, windows: list[tuple[int, int]]
) -> dict[str, float]:
    """``serve.batch`` spans a dispatcher thread started inside ``windows``."""
    batches = [
        s
        for s in spans
        if s.name == "serve.batch"
        and s.thread_index != main_thread
        and _inside(s.start_ns, windows)
    ]
    durations = np.array([s.duration_ns for s in batches], dtype=np.float64)
    sizes = np.array(
        [s.attrs.get("queries", 0) for s in batches], dtype=np.float64
    )
    return {
        "batches": float(len(batches)),
        "mean_queries": float(sizes.mean()) if sizes.size else 0.0,
        "ms_p50": percentile(durations, 50) / 1e6,
        "ms_p99": percentile(durations, 99) / 1e6,
    }


def _inside(ns: int, windows: list[tuple[int, int]]) -> bool:
    return any(lo <= ns <= hi for lo, hi in windows)


def serving_time_s(spans, main_thread: int) -> float:
    """Time in ``serve.batch`` spans, measured as the fold measures it:
    wall time on the main thread, CPU time on other threads."""
    return sum(
        s.duration_ns if s.thread_index == main_thread else s.cpu_ns
        for s in spans
        if s.name == "serve.batch"
    ) / 1e9


def _replay_wall_s(
    spec: ServeSpec, setup: Setup, points: np.ndarray, n_fixed: int
) -> float:
    service = _warm_copy(spec, setup, n_fixed)
    start = time.perf_counter()
    service.process(points)
    return time.perf_counter() - start


def _tracing_overhead(
    spec: ServeSpec, setup: Setup, points: np.ndarray, n_fixed: int
) -> float:
    """Traced over untraced wall time of the synchronous replay, minus 1.

    A replay lasts about a second, so single pairs are at the mercy of
    host noise: the median over alternating pairs is reported.
    """
    ratios = []
    for _ in range(OVERHEAD_PAIRS):
        untraced = _replay_wall_s(spec, setup, points, n_fixed)
        tracer, shims = Tracer(), Shims()
        previous = use_tracer(tracer)
        _install_shims(shims)
        try:
            traced = _replay_wall_s(spec, setup, points, n_fixed)
        finally:
            shims.restore()
            use_tracer(previous)
        ratios.append(traced / untraced)
    return statistics.median(ratios) - 1.0


def _serving_shares(folded, spans) -> dict[str, float]:
    """Buffer and accel shares of serving time (all ``serve.batch`` spans)."""
    totals = folded.totals()
    main_thread = next(s.thread_index for s in spans if s.name == ROOT)
    serving = serving_time_s(spans, main_thread)
    if serving <= 0:
        return {}
    return {
        "buffer": totals["buffer.request_s"] / serving,
        "accel": totals["accel.stab_s"] / serving,
    }


def _add_layer_report(
    outcome: Outcome,
    spec: ServeSpec,
    spans,
    shims: Shims,
    fixed: Phase,
    predictions: dict,
) -> None:
    """Fold the traced run's spans into the outcome's per-layer metrics,
    fold lines and (on a fold inconsistency) gate failures."""
    out = OUT_DIR / spec.name
    out.mkdir(parents=True, exist_ok=True)
    write_chrome_trace(out / "trace.json", spans)
    folded = fold(spans)
    submit_s = shims.counts["serving.submit_ns"] / 1e9
    folded.move(submit_s, "loadgen.self_s", "serving.self_s")
    outcome.counts = dict(shims.counts)
    outcome.metrics = _layer_metrics(spec, folded, shims, spans, fixed)
    shares = _serving_shares(folded, spans)
    outcome.notes += fold_lines(folded, predictions, shares)
    outcome.gate_failures += [f"layer fold: {e}" for e in folded.errors]


def _layer_metrics(
    spec: ServeSpec, folded, shims: Shims, spans, fixed: Phase
) -> dict[str, float]:
    totals = folded.totals()
    counts = shims.counts
    main_thread = next(s.thread_index for s in spans if s.name == ROOT)
    # Serving-layer numbers describe the fixed-rate segments, not the
    # max_qps search's overload rungs.
    windows = [
        (s.start_ns, s.end_ns)
        for s in spans
        if s.name == "loadgen:play" and s.attrs.get("kind") == "fixed"
    ]
    batches = batch_span_stats(spans, main_thread, windows)
    queue = np.concatenate(
        [np.empty(0)]
        + [
            q
            for start, q in shims.samples["serving.queue_ns"]
            if _inside(start, windows)
        ]
    )
    agg = fixed.aggregate
    requests = counts["buffer.requests"]
    metrics = dict(totals)
    metrics.update(
        {
            "packing.nodes_built": counts["packing.nodes"],
            "accel.ids_per_query": ratio(
                counts["accel.ids"], counts["accel.points"]
            ),
            "buffer.ns_per_request": ratio(
                totals["buffer.request_s"] * 1e9, requests
            ),
            "buffer.hit_ratio": ratio(agg["hits"], agg["requests"]),
            "buffer.evictions_per_query": ratio(
                agg["evictions"], fixed.served
            ),
            "serving.submit_us": ratio(
                counts["serving.submit_ns"] / 1e3,
                counts["serving.submit_calls"],
            ),
            "serving.batches": batches["batches"],
            "serving.batch_fill": batches["mean_queries"] / spec.max_batch,
            "serving.batch_ms_p50": batches["ms_p50"],
            "serving.batch_ms_p99": batches["ms_p99"],
            "serving.queue_ms_p50": percentile(queue, 50) / 1e6,
            "serving.queue_ms_p99": percentile(queue, 99) / 1e6,
            "loadgen.lag_ms_p50": fixed.lag_ms(50),
            "loadgen.lag_ms_p99": fixed.lag_ms(99),
            "loadgen.queue_max": float(fixed.queue_max),
            "loadgen.drain_ms": fixed.drain_ms,
            "trace.wall_s": folded.wall_s,
            "trace.spans": float(folded.spans),
            "unattributed_s": folded.unattributed_s,
            "concurrent.unattributed_s": folded.concurrent_unattributed_s,
        }
    )
    return metrics


def _phase_notes(
    spec: ServeSpec,
    setup: Setup,
    fixed: Phase,
    rungs: list[Phase],
    search: Staircase,
    slo_ms: float,
) -> list[str]:
    """Open-loop honesty: generator lateness, deepest queue, drain."""
    drained = "drained" if fixed.lost == 0 else "NOT drained"
    quiet_ns = fixed.quiet_latency_ns()
    windows = fixed.window_p99s_ms()
    lines = [
        f"{spec.name}: tree {setup.desc.total_nodes} pages, buffer "
        f"{spec.buffer_pages} pages ({spec.pinned_levels} levels pinned), "
        f"K={spec.shards}; open loop, Poisson {spec.rate_qps:.0f} q/s, "
        "1 generator + 1 dispatcher thread",
        f"fixed-rate phase ({ROUNDS} segments): {fixed.served}/"
        f"{fixed.submitted} served in {fixed.wall_s:.2f} s with "
        f"{fixed.cpu_s:.2f} s of CPU; generator lag p50 "
        f"{fixed.lag_ms(50):.3f} ms, p99 {fixed.lag_ms(99):.3f} ms; deepest "
        f"queue {fixed.queue_max}; {drained}, at most {fixed.drain_ms:.2f} "
        "ms after a segment's last arrival",
        f"steal on the pinned CPU: {fixed.stolen} jiffies over "
        f"{len(fixed.slice_steal)} slices of {CPU_SLICE_S:g} s; "
        f"{len(host.quiet(fixed.slice_steal))} quiet slices measured",
        f"fixed-rate latency, every query: p50 {fixed.p50_ms:.3f} ms, p99 "
        f"{fixed.p99_ms:.3f} ms; quiet slices: p50 "
        f"{percentile(quiet_ns, 50) / 1e6:.3f} ms (p50_ms), p99 "
        f"{percentile(quiet_ns, 99) / 1e6:.3f} ms; p99 of their "
        f"{windows.size} windows of {WINDOW_S * 1e3:.0f} ms: median "
        f"{fixed.window_p99_ms:.3f} ms (p99_ms), 90th percentile "
        f"{np.quantile(windows, 0.9):.3f} ms, worst {windows.max():.3f} ms",
    ]
    for k, rung in enumerate(rungs):
        verdict = "pass" if rung.meets_slo(slo_ms) else "fail"
        lines.append(
            f"max_qps rung {k:2d}: {rung.rate_qps:9.0f} q/s  "
            f"p99 {rung.p99_ms:9.3f} ms  "
            f"backlog growth {rung.backlog_growth:9.0f}  "
            f"queue max {rung.queue_max:6d}  "
            f"lag p99 {rung.lag_ms(99):7.3f} ms  "
            f"stolen {rung.stolen:3d}  {verdict}"
        )
    how = (
        f"the {1 - host.SLOW_QUANTILE:.0%} quantile of the last "
        f"{len(search.settled)} of {len(rungs)} rungs' rates, where 3 of "
        "4 rungs pass"
        if search.settled
        else "the highest rate that passed: too few rungs to settle"
    )
    lines.append(
        f"max_qps = {search.estimate:.0f} q/s, {how} (p99 <= {slo_ms:g} ms, "
        "nothing lost, and the queue grows by less than "
        f"{slo_ms:g} ms of arrivals)"
    )
    return lines
