"""The query service: admission queue → micro-batch → stab → buffer.

One service instance owns the three pieces the batch simulator keeps
implicit: the stabber(s) built over the workload's transformed MBRs
(shared code: :func:`repro.simulation.build_stabbers`), a
:class:`~repro.buffer.ShardedBufferPool`, and a
:class:`~repro.obs.LatencyRecorder` (``latency``), which a telemetry
sink reads between its ticks.

Two entry points share one serving core (:meth:`QueryService.process`
→ ``_serve_batch``):

* **Synchronous**: ``process(points)`` slices a point array into
  micro-batches of ``max_batch`` and serves them in order on the
  calling thread.  Deterministic — this is the path the bit-exactness
  tests and benchmarks drive.
* **Asynchronous**: ``start()`` spawns dispatcher threads; ``submit()``
  appends to the admission queue; a dispatcher closes a micro-batch at
  the earlier of ``max_batch`` pending queries or ``max_wait_us``
  after the *oldest* pending query arrived, then serves it.  ``drain``
  blocks until the queue and all in-flight batches are empty; ``stop``
  flushes what remains and joins the threads.  A batch that raises
  stops the service: ``drain`` raises the failure and ``submit``
  refuses further queries.

Queries are *points* in the workload's transformed space — exactly
what the simulator feeds its stabbers; region queries arrive already
reduced to point stabs by the workload transform (the paper's §3
reduction).  Within a micro-batch pages are requested in query order,
each query's pages ascending (level-major = top-down), identical to
``simulate()``'s ``_run_queries`` — the order half of the K=1
exactness argument (``docs/SERVING.md``).

Mixed workloads are refused: a mixture decides each query's component
at sampling time, so a bare point does not identify which component's
transformed MBRs to stab.  Serve each component through its own
service instead.
"""

from __future__ import annotations

import threading
import time
from collections import deque

import numpy as np

from ..buffer import BufferStats, ShardedBufferPool
from ..obs import LatencyRecorder
from ..obs.spans import span
from ..queries.mixed import MixedWorkload
from ..rtree import TreeDescription
from ..simulation import build_stabbers

__all__ = ["QueryService"]


class QueryService:
    """A long-lived concurrent point-query service over one tree.

    Parameters
    ----------
    desc:
        Per-level node MBRs (level-major node ids are the page ids).
    workload:
        A non-mixed workload from :mod:`repro.queries`; its
        ``transformed_rects`` defines the stab space and its
        ``sample_points`` is what load generators draw from.
    buffer_size:
        Total buffer capacity in pages, split across ``shards``.
    shards:
        Number of buffer shards (K).  K=1 is the paper's single
        buffer, bit-exactly.
    policy:
        Replacement policy per shard (``lru``/``fifo``/``clock``/
        ``random``).
    max_batch:
        Micro-batch size trigger; ``0`` disables batching (every
        query served alone — the bit-exactness reference mode).
    max_wait_us:
        Deadline trigger: an async micro-batch closes at most this
        long after its oldest query arrived, full or not.
    pinned_levels:
        Top tree levels preloaded and pinned (§3.3), as in
        ``simulate()``.
    accel:
        Stabber backend (``auto``/``grid``/``dense``), bit-exact.
    expected_queries:
        Work hint forwarded to ``make_stabber`` (grid promotion for
        large runs; never changes results).
    """

    def __init__(
        self,
        desc: TreeDescription,
        workload,
        buffer_size: int,
        *,
        shards: int = 1,
        policy: str = "lru",
        max_batch: int = 4096,
        max_wait_us: float = 500.0,
        pinned_levels: int = 0,
        accel: str = "auto",
        expected_queries: int = 0,
    ) -> None:
        if isinstance(workload, MixedWorkload):
            raise ValueError(
                "QueryService serves one stab space; a MixedWorkload "
                "chooses a component per query at sampling time — run "
                "one service per component instead"
            )
        if max_batch < 0:
            raise ValueError("max_batch must be >= 0 (0 disables batching)")
        if max_wait_us < 0:
            raise ValueError("max_wait_us must be >= 0")
        if not 0 <= pinned_levels <= desc.height:
            raise ValueError(f"pinned_levels must be in [0, {desc.height}]")
        self.desc = desc
        self.workload = workload
        self._point_shape = (desc.dim,)
        self.max_batch = int(max_batch)
        self.max_wait_us = float(max_wait_us)
        self._batch_limit = max(1, self.max_batch)
        self._wait_ns = int(max_wait_us * 1_000.0)

        self._stabber, self.backend = build_stabbers(
            desc, workload, accel=accel, n_points=expected_queries
        )
        self.pool = ShardedBufferPool(
            buffer_size,
            shards,
            policy=policy,
            pinned=range(desc.level_offsets[pinned_levels]),
        )
        self.latency = LatencyRecorder()

        self._totals_lock = threading.Lock()
        self._queries = 0
        self._batches = 0
        self._resets = 0

        self._cond = threading.Condition()
        self._pending: deque[tuple[np.ndarray, int]] = deque()
        self._inflight = 0
        self._running = False
        self._error: Exception | None = None
        self._threads: list[threading.Thread] = []

    # ------------------------------------------------------------------
    # The serving core (shared by both entry points)
    # ------------------------------------------------------------------
    def _serve_batch(
        self, points: np.ndarray, arrivals_ns: np.ndarray | None
    ) -> None:
        """Stab one micro-batch and request every touched page.

        Pages are requested in query order, ascending within a query —
        the simulator's exact order — so with K=1 the buffer walks the
        identical state sequence as ``simulate()`` on the same stream.
        """
        with span("serve.batch", queries=len(points)):
            sparse = self._stabber.stab(points)
            # The CSR ids are the batch's pages in query order,
            # ascending within each query — handing the flat array to
            # the pool is the same stream the per-row loop produced,
            # and lets the pool partition it once per batch.
            self.pool.request_batch(sparse.ids)
            if arrivals_ns is not None:
                done = time.perf_counter_ns()
                self.latency.record_many_ns(done - arrivals_ns)
        with self._totals_lock:
            self._queries += len(points)
            self._batches += 1

    def process(
        self,
        points: np.ndarray,
        arrivals_ns: np.ndarray | None = None,
    ) -> int:
        """Serve ``points`` synchronously, in order, in micro-batches.

        ``arrivals_ns`` (optional, ``perf_counter_ns`` timebase, one
        per point) enables per-query latency recording: each query's
        latency is its micro-batch completion minus its arrival.
        Returns the number of queries served.
        """
        points = np.asarray(points, dtype=np.float64)
        if points.ndim != 2:
            raise ValueError("points must be an (n, d) array")
        if arrivals_ns is not None and len(arrivals_ns) != len(points):
            raise ValueError("need one arrival timestamp per point")
        step = self._batch_limit
        for start in range(0, len(points), step):
            chunk_arrivals = (
                None
                if arrivals_ns is None
                else np.asarray(
                    arrivals_ns[start : start + step], dtype=np.int64
                )
            )
            self._serve_batch(points[start : start + step], chunk_arrivals)
        return len(points)

    # ------------------------------------------------------------------
    # Async admission
    # ------------------------------------------------------------------
    @property
    def running(self) -> bool:
        """True between :meth:`start` and :meth:`stop`."""
        with self._cond:
            return self._running

    def start(self, workers: int = 1) -> None:
        """Spawn ``workers`` dispatcher threads consuming the queue.

        Raises ``RuntimeError`` on a service stopped by a failed batch.
        """
        if workers < 1:
            raise ValueError("need at least one worker")
        with self._cond:
            self._raise_failure()
            if self._running:
                raise RuntimeError("service already started")
            self._running = True
        self._threads = [
            threading.Thread(
                target=self._dispatch_loop,
                name=f"serve-dispatch-{i}",
                daemon=True,
            )
            for i in range(workers)
        ]
        for thread in self._threads:
            thread.start()

    def submit(self, point: np.ndarray, arrival_ns: int | None = None) -> None:
        """Enqueue one query; returns immediately.

        ``arrival_ns`` defaults to now; an open-loop load generator
        passes the *scheduled* arrival instead, so queueing delay from
        a lagging submit loop is charged to latency, not hidden.

        Raises :class:`~repro.geometry.GeometryError` for a point whose
        shape is not ``(desc.dim,)``, before it is queued: a dispatcher
        could not stab it.  Raises ``RuntimeError`` when the service is
        not running, or has stopped on a failed batch.
        """
        point = np.asarray(point, dtype=np.float64)
        if point.shape != self._point_shape:
            # The layering DAG (RL008) keeps geometry out of serving's
            # top-level imports; the error type loads only when raised.
            from ..geometry import GeometryError

            raise GeometryError(
                f"a query point must have shape {self._point_shape}, "
                f"not {point.shape}"
            )
        if arrival_ns is None:
            arrival_ns = time.perf_counter_ns()
        with self._cond:
            if not self._running or self._error is not None:
                self._raise_failure()
                raise RuntimeError("service not started")
            self._pending.append((point, int(arrival_ns)))
            self._cond.notify_all()

    def drain(self) -> None:
        """Block until the queue and all in-flight batches are empty.

        Raises ``RuntimeError``, chained to the batch's exception, as
        soon as a dispatcher has failed: the queries still queued would
        never be served.
        """
        with self._cond:
            while (self._pending or self._inflight) and self._error is None:
                self._cond.wait()
            self._raise_failure()

    def _raise_failure(self) -> None:
        """Raise the dispatcher failure, if any; caller holds ``_cond``."""
        if self._error is not None:
            raise RuntimeError(
                "the query service stopped: a micro-batch failed"
            ) from self._error

    def stop(self) -> None:
        """Flush remaining queries, then join the dispatcher threads.

        After a failed batch the dispatchers have already returned and
        the queued queries stay unserved; ``stop`` still joins them and
        returns, so a caller's ``finally`` block runs.
        """
        with self._cond:
            self._running = False
            self._cond.notify_all()
        for thread in self._threads:
            thread.join()
        self._threads = []

    def close(self) -> None:
        """Stop the dispatchers if running (idempotent).

        The teardown a ``with`` block runs: :meth:`stop` flushes the
        queue and joins the dispatcher threads.  The pool holds
        nothing else to release.
        """
        if self.running:
            self.stop()

    def __enter__(self) -> QueryService:
        if not self.running:
            self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _dispatch_loop(self) -> None:
        """One dispatcher: wait → close a micro-batch → serve it.

        A batch closes at the earlier of ``max_batch`` pending queries
        or ``max_wait_us`` after the oldest pending query arrived.
        After :meth:`stop`, whatever is queued is flushed without
        waiting on the deadline.  A batch that raises is kept as the
        service's failure: every dispatcher returns, and every waiter
        wakes to it.
        """
        while True:
            with self._cond:
                while (
                    not self._pending
                    and self._running
                    and self._error is None
                ):
                    self._cond.wait()
                if not self._pending or self._error is not None:
                    return
                if self._running and len(self._pending) < self._batch_limit:
                    deadline = self._pending[0][1] + self._wait_ns
                    while (
                        self._running
                        and self._pending
                        and len(self._pending) < self._batch_limit
                        and self._error is None
                    ):
                        now = time.perf_counter_ns()
                        if now >= deadline:
                            break
                        self._cond.wait((deadline - now) / 1e9)
                    if not self._pending or self._error is not None:
                        # Another dispatcher took the whole queue, or
                        # failed, while we slept on the deadline.
                        continue
                take = min(self._batch_limit, len(self._pending))
                batch = [self._pending.popleft() for _ in range(take)]
                self._inflight += 1
            error = None
            try:
                points = np.stack([point for point, _ in batch])
                arrivals = np.asarray(
                    [arrival for _, arrival in batch], dtype=np.int64
                )
                self._serve_batch(points, arrivals)
            except Exception as exc:
                error = exc
            finally:
                with self._cond:
                    self._inflight -= 1
                    if self._error is None:
                        self._error = error
                    self._cond.notify_all()

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    @property
    def queries_served(self) -> int:
        with self._totals_lock:
            return self._queries

    @property
    def batches_served(self) -> int:
        with self._totals_lock:
            return self._batches

    @property
    def resets(self) -> int:
        """How many times :meth:`reset_measurement` has run.

        A telemetry sink records it each tick: where it changes, the
        counters restarted from zero.
        """
        with self._totals_lock:
            return self._resets

    @property
    def queue_depth(self) -> int:
        """Queries waiting in the admission queue right now.

        A telemetry gauge: the sink samples it each tick.  Always 0
        for purely synchronous (``process``) use.
        """
        with self._cond:
            return len(self._pending)

    def aggregate_stats(self) -> BufferStats:
        """The pool's summed counters (see
        :meth:`~repro.buffer.ShardedBufferPool.aggregate_stats`)."""
        return self.pool.aggregate_stats()

    def reset_measurement(self) -> None:
        """Zero counters and latency samples; keep buffer contents.

        The serving analogue of the simulator's warm-up/measurement
        boundary: warm the buffer with any traffic, reset, then
        measure — resident pages survive, accounting starts clean.
        """
        if self.running:
            self.drain()
        # One critical section with the count, so a sampler that reads
        # the count before and after its sample sees any reset between.
        with self._totals_lock:
            self.pool.reset_stats()
            self._queries = 0
            self._batches = 0
            self.latency.reset()
            self._resets += 1
