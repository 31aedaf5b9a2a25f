"""Single-pass multi-capacity LRU simulation via Mattson stack distances.

A buffer-size sweep (fig6 / fig9 / fig11, Table 1, ``validate_model``)
replays the same query stream once per buffer size; since the stabbing
side went sparse (PR 3) the per-request Python LRU loop in
:mod:`repro.simulation.engine` dominates, and the sweep pays it ``K``
times for ``K`` capacities.  Mattson's *inclusion property* removes
the ``K``: an LRU buffer of capacity ``C`` always holds the ``C`` most
recently used distinct pages, so a single offline pass that computes
each access's **stack distance** — the number of distinct pages
touched since the previous access to the same page — determines the
hit/miss outcome at *every* capacity at once:

    miss at capacity ``C``  ⇔  first access, or stack distance ≥ ``C``.

The stack distance itself is a 2-D dominance count.  With ``prev[t]``
the position of the previous access to ``page[t]`` (−1 when cold),

    D(t) = #{ s : prev[t] < s < t  and  prev[s] <= prev[t] }

(an access ``s`` inside the reuse window contributes one *distinct*
page exactly when its own previous access lies outside the window).
Because ``prev[s] < s`` always, every ``s <= prev[t]`` satisfies the
value condition for free, which collapses the window count into a pure
positional *left rank*:

    D(t) = #{ s < t : prev[s] <= prev[t] } − prev[t] − 1.

A global left rank is still O(n log² n) with fat constants (the
binary-indexed mergesort tree of
:meth:`repro.accel.SortedRangeCounter.prefix_rank`, kept as the
reference oracle in the tests).  The engine instead splits the stream
into fixed segments and exploits the small page alphabet (pages =
tree nodes):

* ``prev[t]`` inside ``t``'s segment — the count telescopes to the
  segment-local left rank of
  :func:`repro.accel.segmented_left_rank`, a shallow two-level
  merge-count kernel run over all segments in lock-step (and in
  parallel across segment spans);
* ``prev[t]`` before the segment — the distinct pages in the window
  split at the segment boundary into a *snapshot* term (live pages at
  the boundary whose last access is after ``prev[t]``) plus the same
  segment-local rank.  Each position ``q`` is live for a contiguous
  run of segment boundaries (until its page's next access), so every
  snapshot table materialises at once from one ``np.repeat`` and one
  sort, and one flat offset-keyed ``searchsorted`` serves every
  query — no per-segment Python loop anywhere.

Pinning reduction (§3.3): pinned pages always hit and never occupy the
LRU area, so they are excluded from the access stream and every
capacity is reduced by the pin count before the comparison; requests
against pinned pages still count as node accesses.

Warm-up honours the online engine's semantics exactly: the measurement
window of capacity ``C`` starts at the first warm-up chunk boundary at
which the buffer has filled (the number of *distinct* unpinned pages
seen reaches the unpinned capacity), capped at ``warmup_cap`` — so a
bigger buffer warms up longer, just as in per-capacity simulation, and
the per-batch counters are bit-exact against
:func:`~repro.simulation.engine.simulate` (same batch-means values,
same :class:`~repro.buffer.BufferStats` snapshots).

The inclusion property is LRU-specific — FIFO/CLOCK/RANDOM buffers do
not nest — but a weaker, still valuable saving applies to FIFO and
CLOCK: the *query stream* is shared across capacities even when the
hit/miss outcomes are not.  Those policies take the **replay** path:
sample and stab the stream once (the expensive, vectorizable part),
then replay the unpinned page sequence through one real buffer per
capacity — bit-exact against per-capacity ``simulate()`` by
construction, paying the Python buffer loop per capacity but the
sampling/stabbing only once.  :class:`~repro.queries.MixedWorkload`
joins the same path (for LRU/FIFO/CLOCK) when ``warmup_queries`` is
explicit, which fixes the chunk schedule so every capacity consumes
the generator identically; with warm-up-until-full its component/point
draws would interleave differently per warm-up length, so that
combination — and RANDOM, whose eviction draws share the sampling
generator — falls back to per-capacity simulation (still one call,
same results, no speedup).

One small thread pool serves the whole pass: the measurement tail is
stabbed in contiguous spans (stabbers are pure reads over prebuilt
arrays), the left-rank kernel splits across segment-aligned spans
(segments are independent by construction), and per-capacity
accounting fans out one task per buffer size.  Every split is
order-preserving, so results never depend on the thread count — and
the sweep is the first genuinely concurrent workload under the
thread-safe span tracer (``stackdist.capacity`` spans carry worker
thread ids).
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from ..accel import make_stabber, segmented_left_rank
from ..buffer import BufferStats, PinningError, POLICIES
from ..obs import MetricsRegistry
from ..obs.spans import span
from ..queries.mixed import MixedWorkload
from ..rtree import TreeDescription
from .batchmeans import batch_means
from .engine import _CHUNK, SimulationResult, _mixed_rows, simulate

__all__ = ["simulate_sweep"]

_MAX_SWEEP_THREADS = 4
"""Default upper bound on the sweep's worker thread pool."""

_LR_SEGMENT = 512
"""Segment length of the stack-distance kernel: both the left-rank
segments and the snapshot boundaries.  Must be a multiple of the
left-rank block (64).  Short segments keep the lock-step merge shallow
— measured fastest around 512 for streams near 10⁶ accesses."""


def simulate_sweep(
    desc: TreeDescription,
    workload,
    buffer_sizes,
    *,
    pinned_levels: int = 0,
    n_batches: int = 20,
    batch_size: int = 5000,
    warmup_queries: int | None = None,
    warmup_cap: int = 100_000,
    policy: str = "lru",
    confidence: float = 0.90,
    rng: int | None = None,
    registry: MetricsRegistry | None = None,
    accel: str = "auto",
    max_threads: int = _MAX_SWEEP_THREADS,
) -> tuple[SimulationResult, ...]:
    """Simulate every buffer size in one pass over one query stream.

    This is the engine behind every buffer-sensitivity curve of the
    paper — Fig. 6 (buffer size vs. disk accesses), Fig. 9 (loader
    comparison) and Fig. 11 (pinning levels), plus the Table 1 probes
    and the analytic-model validation — all of which sweep the same
    workload over many buffer capacities.

    Returns one :class:`~repro.simulation.SimulationResult` per entry
    of ``buffer_sizes`` (in order), each bit-exact against the result
    of :func:`~repro.simulation.simulate` called with the same
    parameters and that single buffer size: identical per-batch
    :class:`~repro.buffer.BufferStats`, batch-means estimates, warm-up
    counts and ``buffer_filled`` flags.

    **Determinism guarantee.**  For a fixed ``(workload, seed)`` the
    returned tuple is a pure function of the simulation parameters:
    it does not depend on ``max_threads``, on the ``accel`` backend,
    or on how the OS schedules threads.  Every internal split is over
    contiguous stream ranges merged in range order, and every
    floating-point reduction runs on one code path from identical
    integer counts (see ``docs/PERFORMANCE.md``).

    Parameters mirror :func:`~repro.simulation.simulate`, except:

    rng:
        A seed (or ``None`` for the default seed 0).  A live
        ``Generator`` is rejected — per-capacity equivalence requires
        replaying the stream from a known seed.
    registry:
        When given, the sweep records a ``simulate.sweep`` timer and
        ``sweep.*`` gauges.  Per-level sinks and query traces are a
        per-capacity affair — use :func:`~repro.simulation.simulate`
        (e.g. the metrics probes) when you need ``level_stats``.
    max_threads:
        Worker threads shared by every phase of the in-process pass —
        stabbing the measurement tail, the segmented left-rank kernel,
        and per-capacity accounting.  Results never depend on it.

    Raises :class:`~repro.buffer.PinningError` when any swept size
    cannot hold the pinned levels — filter infeasible sizes first
    (fig11 does).  FIFO/CLOCK (and mixed workloads with explicit
    ``warmup_queries``) take the shared-stream *replay* path; RANDOM
    and until-full mixed sweeps fall back to per-capacity simulation
    internally.  Results are identical on every route — the route only
    changes speed.
    """
    if n_batches < 2:
        raise ValueError("need at least two batches for confidence intervals")
    if batch_size < 1:
        raise ValueError("batch_size must be positive")
    if warmup_cap < 0:
        raise ValueError("warmup_cap must be non-negative")
    if not 0 <= pinned_levels <= desc.height:
        raise ValueError(f"pinned_levels must be in [0, {desc.height}]")
    if policy not in POLICIES:
        raise ValueError(
            f"unknown policy {policy!r}; choices: {sorted(POLICIES)}"
        )
    if rng is not None and not isinstance(rng, (int, np.integer)):
        raise TypeError(
            "simulate_sweep needs a reproducible seed (int or None), not a "
            "Generator: every capacity must replay the same query stream"
        )
    buffer_sizes = tuple(int(b) for b in buffer_sizes)
    if not buffer_sizes:
        raise ValueError("buffer_sizes must not be empty")
    if any(b < 1 for b in buffer_sizes):
        raise ValueError("buffer capacity must be at least 1 page")
    pinned_count = int(desc.level_offsets[pinned_levels])
    too_small = [b for b in buffer_sizes if b < pinned_count]
    if too_small:
        raise PinningError(
            f"cannot pin {pinned_count} pages in a "
            f"{min(too_small)}-page buffer"
        )
    seed = 0 if rng is None else int(rng)

    mixed = isinstance(workload, MixedWorkload)
    stackdist_ok = policy == "lru" and not mixed
    replay_ok = (
        not stackdist_ok
        and policy in ("lru", "fifo", "clock")
        and (not mixed or warmup_queries is not None)
    )
    fallback = not stackdist_ok and not replay_ok
    mode = (
        "stackdist" if stackdist_ok else "replay" if replay_ok else "fallback"
    )
    root = span(
        "simulate.sweep",
        capacities=len(buffer_sizes),
        policy=policy,
        accel=accel,
        levels=desc.height,
        nodes=desc.total_nodes,
        pinned_levels=pinned_levels,
        n_batches=n_batches,
        batch_size=batch_size,
        mode=mode,
    )
    started = time.perf_counter_ns() if registry is not None else 0
    with root:
        if fallback:
            results = tuple(
                simulate(
                    desc,
                    workload,
                    b,
                    pinned_levels=pinned_levels,
                    n_batches=n_batches,
                    batch_size=batch_size,
                    warmup_queries=warmup_queries,
                    warmup_cap=warmup_cap,
                    policy=policy,
                    confidence=confidence,
                    rng=seed,
                    accel=accel,
                )
                for b in buffer_sizes
            )
        elif replay_ok:
            results = _replay_sweep(
                desc,
                workload,
                buffer_sizes,
                pinned_count=pinned_count,
                policy=policy,
                n_batches=n_batches,
                batch_size=batch_size,
                warmup_queries=warmup_queries,
                warmup_cap=warmup_cap,
                confidence=confidence,
                seed=seed,
                accel=accel,
            )
        else:
            results = _stackdist_sweep(
                desc,
                workload,
                buffer_sizes,
                pinned_count=pinned_count,
                n_batches=n_batches,
                batch_size=batch_size,
                warmup_queries=warmup_queries,
                warmup_cap=warmup_cap,
                confidence=confidence,
                seed=seed,
                accel=accel,
                max_threads=max_threads,
            )
    if registry is not None:
        registry.timer("simulate.sweep").record(
            (time.perf_counter_ns() - started) / 1e9
        )
        registry.gauge("sweep.capacities").set(len(buffer_sizes))
        registry.gauge("sweep.pinned_pages").set(pinned_count)
        registry.gauge("sim.batches").set(n_batches)
        registry.gauge("sim.batch_size").set(batch_size)
    return results


# ----------------------------------------------------------------------
# The offline engine
# ----------------------------------------------------------------------


class _Stream:
    """The flattened access stream shared by every capacity.

    ``q_indptr`` delimits each query's accesses (pinned included), so
    ``q_indptr[q+1] - q_indptr[q]`` is query ``q``'s node-access
    count.  ``pages`` / ``q_of_page`` are the unpinned subsequence the
    LRU area sees, in request order.  ``bounds`` / ``bound_distinct``
    are the warm-up chunk boundaries (cumulative query counts) with
    the number of distinct unpinned pages seen at each — the data the
    online engine's "warm up until full" check reads.
    """

    __slots__ = (
        "q_indptr",
        "pages",
        "q_of_page",
        "bounds",
        "bound_distinct",
        "backend",
    )

    def __init__(
        self,
        q_indptr: np.ndarray,
        pages: np.ndarray,
        q_of_page: np.ndarray,
        bounds: np.ndarray,
        bound_distinct: np.ndarray,
        backend: str,
    ) -> None:
        self.q_indptr = q_indptr
        self.pages = pages
        self.q_of_page = q_of_page
        self.bounds = bounds
        self.bound_distinct = bound_distinct
        self.backend = backend

    @property
    def n_queries(self) -> int:
        return self.q_indptr.shape[0] - 1


def _warmup_schedule(warmup_queries: int | None, warmup_cap: int) -> list[int]:
    """The online engine's warm-up chunk sizes, in order.

    ``simulate`` warms up in ``min(_CHUNK, remaining)`` steps — either
    until the buffer fills (capped at ``warmup_cap``) or for exactly
    ``warmup_queries``.  The sweep samples the same chunks so the
    buffer-full check lands on the same query boundaries.
    """
    total = warmup_cap if warmup_queries is None else warmup_queries
    steps: list[int] = []
    done = 0
    while done < total:
        step = min(_CHUNK, total - done)
        steps.append(step)
        done += step
    return steps


def _generate_stream(
    desc: TreeDescription,
    workload,
    *,
    pinned_count: int,
    max_capacity: int,
    measurement: int,
    warmup_queries: int | None,
    warmup_cap: int,
    seed: int,
    accel: str,
    tail_stab=None,
) -> _Stream:
    """Sample and stab the shared query stream, chunk by chunk.

    The warm-up region reproduces the online engine's chunk schedule
    so the buffer-full boundaries land on the same query indices.
    Every built-in non-mixed workload consumes the generator as a
    function of the *total* sample count only, so chunk boundaries
    never change the sampled stream — the contract the sweep's
    bit-exactness rests on.  It also lets the measurement tail sample
    in one draw and hand the points to ``tail_stab`` — a strategy
    callable ``(stabber, points) -> iterable of sparse chunks`` that
    may stab contiguous point spans on a thread pool or a process
    pool (stabbers are stateless pure reads), as long as it yields
    the chunks in stream order.  ``None`` stabs in one serial call.
    Any order-preserving split produces the identical stream, so the
    sampled/stabbed result never depends on the execution strategy.
    """
    transformed = workload.transformed_rects(desc.all_rects)
    budget = warmup_cap if warmup_queries is None else warmup_queries
    stabber = make_stabber(
        transformed, mode=accel, n_points=budget + measurement
    )
    rng = np.random.default_rng(seed)

    lengths: list[np.ndarray] = []
    id_chunks: list[np.ndarray] = []
    seen = np.zeros(desc.total_nodes, dtype=bool)
    distinct = 0
    generated = 0
    bounds = [0]
    bound_distinct = [0]

    def ingest(sparse) -> np.ndarray:
        ids = sparse.ids.astype(np.int64, copy=False)
        lengths.append(np.diff(sparse.indptr).astype(np.int64))
        id_chunks.append(ids)
        return ids

    # Warm-up region: stop early once every swept capacity can have
    # filled (the remaining schedule steps cannot change any W).  The
    # distinct-page tracking is sequential, so this part stays serial.
    for step in _warmup_schedule(warmup_queries, warmup_cap):
        if warmup_queries is None and distinct >= max_capacity:
            break
        ids = ingest(stabber.stab(workload.sample_points(step, rng)))
        fresh = np.unique(ids[ids >= pinned_count])
        fresh = fresh[~seen[fresh]]
        seen[fresh] = True
        distinct += int(fresh.size)
        generated += step
        bounds.append(generated)
        bound_distinct.append(distinct)

    # Measurement tail: the largest warm-up any capacity can report is
    # the last recorded boundary, so `generated` already covers every
    # W; extend by the measurement window.
    target = (bounds[-1] if warmup_queries is None else warmup_queries)
    target += measurement
    remaining = target - generated
    if remaining > 0:
        points = workload.sample_points(remaining, rng)
        if tail_stab is None:
            ingest(stabber.stab(points))
        else:
            for sparse in tail_stab(stabber, points):
                ingest(sparse)

    all_lengths = np.concatenate(lengths)[:target]
    q_indptr = np.zeros(target + 1, dtype=np.int64)
    np.cumsum(all_lengths, out=q_indptr[1:])
    ids = np.concatenate(id_chunks)[: q_indptr[-1]]
    q_of_access = np.repeat(np.arange(target, dtype=np.int64), all_lengths)
    unpinned = ids >= pinned_count
    return _Stream(
        q_indptr=q_indptr,
        pages=ids[unpinned],
        q_of_page=q_of_access[unpinned],
        bounds=np.asarray(bounds, dtype=np.int64),
        bound_distinct=np.asarray(bound_distinct, dtype=np.int64),
        backend=type(stabber).__name__,
    )


def _left_ranks(
    prev: np.ndarray,
    pool: ThreadPoolExecutor | None,
    workers: int,
) -> np.ndarray:
    """Segment-local left ranks of ``prev``, split across the pool.

    Segments are independent in :func:`~repro.accel.
    segmented_left_rank`, so slicing on segment-aligned boundaries and
    concatenating in order is exact regardless of ``workers``.
    """
    n = prev.shape[0]
    if pool is None or workers < 2 or n < 4 * _LR_SEGMENT:
        return segmented_left_rank(prev, _LR_SEGMENT)
    n_segments = -(-n // _LR_SEGMENT)
    width = -(-n_segments // workers) * _LR_SEGMENT
    cuts = range(0, n, width)
    parts = pool.map(
        lambda at: segmented_left_rank(prev[at : at + width], _LR_SEGMENT),
        cuts,
    )
    return np.concatenate(list(parts))


def _stack_distances(
    pages: np.ndarray,
    pool: ThreadPoolExecutor | None = None,
    workers: int = 1,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-access ``(cold, depth, ccold)`` arrays.

    ``cold`` marks first accesses (misses at every capacity);
    ``depth`` is the stack distance of each non-cold access (distinct
    pages touched since the previous access to the same page — the
    access hits a capacity-``C`` LRU iff ``depth < C``);
    ``ccold`` (length ``n + 1``) is the running distinct-page count:
    ``ccold[t]`` pages were seen strictly before access ``t`` — the
    online buffer's resident count until it fills, which decides
    whether a miss evicts and whether the buffer is full at the
    warm-up boundary.

    Distances come from the left-rank identity split at segment
    boundaries (see the module docstring).  Writing ``T`` for the
    start of ``t``'s segment, ``p = prev[t]`` and ``W(t)`` for the
    segment-local left rank of ``p`` among ``prev[T:t]``:

    * ``p >= T``:  the global left rank below ``T`` telescopes — every
      ``s < T`` has ``prev[s] < T <= p`` — so
      ``depth = T + W(t) - p - 1``;
    * ``p < T``:  the in-segment part is ``W(t)`` verbatim, and the
      part in ``(p, T)`` is the number of distinct pages touched there
      — the live positions at ``T`` greater than ``p``, read off the
      snapshot table (``p`` itself is live and lands on the ``<= p``
      side, so ``page[t]`` is never double-counted).
    """
    n = pages.shape[0]
    prev = np.full(n, -1, dtype=np.int64)
    if n:
        order = np.argsort(pages, kind="stable")
        sorted_pages = pages[order]
        same = sorted_pages[1:] == sorted_pages[:-1]
        prev[order[1:][same]] = order[:-1][same]
    cold = prev < 0
    ccold = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(cold, out=ccold[1:])

    depth = np.zeros(n, dtype=np.int64)
    if n == 0:
        return cold, depth, ccold

    ranks = _left_ranks(prev, pool, workers)
    t = np.arange(n, dtype=np.int64)
    seg_start = t - t % _LR_SEGMENT
    near = prev >= seg_start  # implies warm: cold prev = -1 < seg_start
    depth[near] = seg_start[near] + ranks[near] - prev[near] - 1
    far = ~near & ~cold
    if np.any(far):
        # Live-position snapshot tables, all segments at once.  A
        # position q is *live* at boundary c·S when its page is not
        # re-accessed before the boundary: q's liveness run spans
        # boundaries (q // S)+1 .. min(nxt[q] // S, last).  depth for
        # a far access then counts live positions > p at its boundary
        # (distinct pages last touched after p) plus W(t), whose
        # below-boundary candidates (prev < T, including cold) all
        # have prev <= p counted consistently by construction.
        nxt = np.full(n, n, dtype=np.int64)
        warm_idx = np.nonzero(~cold)[0]
        nxt[prev[warm_idx]] = warm_idx
        n_segments = -(-n // _LR_SEGMENT)
        first = t // _LR_SEGMENT + 1
        last = np.minimum(nxt // _LR_SEGMENT, n_segments - 1)
        runs = np.maximum(last - first + 1, 0)
        live_pos = np.repeat(t, runs)
        run_base = np.repeat(np.cumsum(runs) - runs, runs)
        offsets = np.arange(live_pos.shape[0], dtype=np.int64) - run_base
        keys = (np.repeat(first, runs) + offsets) * n + live_pos
        keys.sort()
        starts = np.searchsorted(
            keys, np.arange(n_segments, dtype=np.int64) * n, side="left"
        )
        sizes = np.diff(np.append(starts, keys.shape[0]))
        qseg = t[far] // _LR_SEGMENT
        at_most_p = (
            np.searchsorted(keys, qseg * n + prev[far], side="right")
            - starts[qseg]
        )
        depth[far] = sizes[qseg] - at_most_p + ranks[far]
    return cold, depth, ccold


def _warmup_for(
    stream: _Stream,
    capacity: int,
    warmup_queries: int | None,
    warmup_cap: int,
) -> int:
    """Queries this capacity warms up for — the online ``W``.

    With an explicit ``warmup_queries`` every capacity uses it; with
    warm-up-until-full it is the first chunk boundary at which the
    distinct unpinned pages seen reach the (unpinned) capacity, capped
    at ``warmup_cap``.  A zero-capacity LRU area is full immediately.
    """
    if warmup_queries is not None:
        return warmup_queries
    if capacity <= 0:
        return 0
    filled = np.nonzero(stream.bound_distinct >= capacity)[0]
    if filled.size:
        return int(stream.bounds[filled[0]])
    return warmup_cap


def _capacity_bounds(
    stream: _Stream,
    warmed: int,
    n_batches: int,
    batch_size: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Batch boundaries of one capacity's measurement window.

    Returns ``(batch_queries, access_bounds)``: the cumulative query
    counts delimiting each batch and the matching unpinned-access
    bounds — the only quantities the counting kernels need, shared
    verbatim by the stack-distance and replay accounting paths.
    """
    batch_queries = warmed + batch_size * np.arange(
        n_batches + 1, dtype=np.int64
    )
    access_bounds = np.searchsorted(stream.q_of_page, batch_queries, "left")
    return batch_queries, access_bounds


def _assemble_result(
    stream: _Stream,
    *,
    capacity: int,
    warmed: int,
    batch_queries: np.ndarray,
    miss_b: np.ndarray,
    evict_b: np.ndarray,
    resident: int,
    batch_size: int,
    confidence: float,
    filled: bool | None = None,
) -> SimulationResult:
    """Integer per-batch counts → one ``SimulationResult``.

    The single float path of the sweep: the stack-distance and replay
    counts are both exact int64 per-batch totals, so routing them
    through this one function makes the two paths bit-identical by
    construction.  ``resident`` is the distinct unpinned pages seen
    before the first measured access (``ccold`` at the window start) —
    the online buffer's resident count when ``is_full`` was last
    checked.  The replay path passes ``filled`` explicitly (it read
    ``is_full()`` off a real buffer) and ``resident=0``.
    """
    req_b = stream.q_indptr[batch_queries[1:]] - stream.q_indptr[
        batch_queries[:-1]
    ]

    snapshots = []
    for requests, misses, evictions in zip(req_b, miss_b, evict_b):
        stats = BufferStats()
        stats.requests = int(requests)
        stats.hits = int(requests - misses)
        stats.misses = int(misses)
        stats.evictions = int(evictions)
        snapshots.append(stats)

    if filled is None:
        filled = capacity <= 0 or resident >= capacity

    return SimulationResult(
        disk_accesses=batch_means(
            [m / batch_size for m in miss_b], confidence=confidence
        ),
        node_accesses=batch_means(
            [r / batch_size for r in req_b], confidence=confidence
        ),
        warmup_queries=warmed,
        buffer_filled=filled,
        batch_stats=tuple(snapshots),
    )


def _account_capacity(
    stream: _Stream,
    cold: np.ndarray,
    depth: np.ndarray,
    ccold: np.ndarray,
    *,
    capacity: int,
    warmed: int,
    n_batches: int,
    batch_size: int,
    confidence: float,
) -> SimulationResult:
    """Batch-means accounting for one capacity over the shared arrays.

    Reproduces exactly what the online engine's ``BufferStats`` would
    have counted in each measurement batch: every node access is a
    request, an unpinned access misses iff it is cold or its stack
    distance reaches the capacity, and a miss evicts iff the buffer
    was already full (``ccold[t] >= capacity``; never when the
    unpinned area has zero capacity, where pages are read and
    discarded).
    """
    batch_queries, access_bounds = _capacity_bounds(
        stream, warmed, n_batches, batch_size
    )
    # Unpinned-access bounds of each batch, then exclusive prefix sums
    # -> exact integer per-batch counts.
    lo, hi = access_bounds[0], access_bounds[-1]
    miss = cold[lo:hi] | (depth[lo:hi] >= capacity)
    if capacity > 0:
        evict = miss & (ccold[lo:hi] >= capacity)
    else:
        evict = np.zeros_like(miss)
    cmiss = np.concatenate(
        [np.zeros(1, dtype=np.int64), np.cumsum(miss, dtype=np.int64)]
    )
    cevict = np.concatenate(
        [np.zeros(1, dtype=np.int64), np.cumsum(evict, dtype=np.int64)]
    )
    rel = access_bounds - lo
    miss_b = cmiss[rel[1:]] - cmiss[rel[:-1]]
    evict_b = cevict[rel[1:]] - cevict[rel[:-1]]
    return _assemble_result(
        stream,
        capacity=capacity,
        warmed=warmed,
        batch_queries=batch_queries,
        miss_b=miss_b,
        evict_b=evict_b,
        resident=int(ccold[lo]),
        batch_size=batch_size,
        confidence=confidence,
    )


# ----------------------------------------------------------------------
# The shared-stream replay engine (FIFO/CLOCK, fixed-warm-up mixtures)
# ----------------------------------------------------------------------


def _generate_mixed_stream(
    desc: TreeDescription,
    workload: MixedWorkload,
    *,
    pinned_count: int,
    n_batches: int,
    batch_size: int,
    warmup_queries: int,
    warmup_cap: int,
    seed: int,
    accel: str,
) -> _Stream:
    """The shared stream for a mixture with an explicit warm-up.

    A mixture's generator consumption *does* depend on chunk
    boundaries (component assignments and per-component point draws
    interleave per chunk), so this replays the online engine's exact
    chunk schedule: the ``_warmup_schedule`` steps followed by each
    batch in ``min(_CHUNK, remaining)`` steps.  With ``warmup_queries``
    fixed, that schedule — hence the sampled stream — is identical for
    every capacity, which is precisely why the replay path requires an
    explicit warm-up for mixtures.
    """
    transformed = workload.component_transforms(desc.all_rects)
    budget = warmup_queries + n_batches * batch_size
    stabbers = [
        make_stabber(t, mode=accel, n_points=budget) for t in transformed
    ]
    rng = np.random.default_rng(seed)

    schedule = _warmup_schedule(warmup_queries, warmup_cap)
    for _ in range(n_batches):
        remaining = batch_size
        while remaining > 0:
            step = min(_CHUNK, remaining)
            schedule.append(step)
            remaining -= step

    lengths: list[np.ndarray] = []
    id_chunks: list[np.ndarray] = []
    for count in schedule:
        rows = _mixed_rows(stabbers, workload, rng, count)
        lengths.append(
            np.fromiter((row.size for row in rows), np.int64, count=count)
        )
        id_chunks.append(
            np.concatenate(rows) if rows else np.empty(0, dtype=np.int64)
        )

    total = budget
    all_lengths = (
        np.concatenate(lengths) if lengths else np.empty(0, dtype=np.int64)
    )
    q_indptr = np.zeros(total + 1, dtype=np.int64)
    np.cumsum(all_lengths, out=q_indptr[1:])
    ids = (
        np.concatenate(id_chunks)
        if id_chunks
        else np.empty(0, dtype=np.int64)
    ).astype(np.int64, copy=False)
    q_of_access = np.repeat(np.arange(total, dtype=np.int64), all_lengths)
    unpinned = ids >= pinned_count
    return _Stream(
        q_indptr=q_indptr,
        pages=ids[unpinned],
        q_of_page=q_of_access[unpinned],
        # Warm-up is explicit, so the until-full boundary tables are
        # never consulted; keep them trivially empty.
        bounds=np.zeros(1, dtype=np.int64),
        bound_distinct=np.zeros(1, dtype=np.int64),
        backend=",".join(sorted({type(s).__name__ for s in stabbers})),
    )


def _replay_capacity(
    stream: _Stream,
    *,
    policy: str,
    capacity: int,
    warmed: int,
    n_batches: int,
    batch_size: int,
    confidence: float,
) -> SimulationResult:
    """Replay the shared unpinned page sequence through one buffer.

    The buffer has capacity equal to the *unpinned* capacity and no
    pinned set: pinned requests never touch the online pool's
    replacement structures (``BufferPool.request`` short-circuits
    them), so feeding only the unpinned subsequence through an
    unpinned pool of the reduced capacity walks the identical state
    sequence.  Per-batch requests come from ``q_indptr`` (they include
    pinned accesses); hits are requests minus misses, exactly the
    online accounting.
    """
    batch_queries, access_bounds = _capacity_bounds(
        stream, warmed, n_batches, batch_size
    )
    pages = stream.pages
    lo = int(access_bounds[0])
    if capacity <= 0:
        # A zero-capacity unpinned area: every unpinned access is read
        # and discarded — all misses, no evictions, trivially full.
        miss_b = np.diff(access_bounds).astype(np.int64)
        evict_b = np.zeros(n_batches, dtype=np.int64)
        filled = True
    else:
        buffer = POLICIES[policy](capacity)
        request = buffer.request
        for page in pages[:lo]:
            request(int(page))
        filled = buffer.is_full()
        stats = buffer.stats
        stats.reset()
        miss_b = np.zeros(n_batches, dtype=np.int64)
        evict_b = np.zeros(n_batches, dtype=np.int64)
        for index in range(n_batches):
            for page in pages[access_bounds[index] : access_bounds[index + 1]]:
                request(int(page))
            miss_b[index] = stats.misses
            evict_b[index] = stats.evictions
            stats.reset()
    return _assemble_result(
        stream,
        capacity=capacity,
        warmed=warmed,
        batch_queries=batch_queries,
        miss_b=miss_b,
        evict_b=evict_b,
        resident=0,
        batch_size=batch_size,
        confidence=confidence,
        filled=filled,
    )


def _replay_sweep(
    desc: TreeDescription,
    workload,
    buffer_sizes: tuple[int, ...],
    *,
    pinned_count: int,
    policy: str,
    n_batches: int,
    batch_size: int,
    warmup_queries: int | None,
    warmup_cap: int,
    confidence: float,
    seed: int,
    accel: str,
) -> tuple[SimulationResult, ...]:
    """Sample/stab once, replay per capacity through a real buffer.

    The saving relative to the fallback is everything upstream of the
    buffer loop — sampling and stabbing run once instead of once per
    capacity; the Python replacement loop itself is inherently
    per-capacity for non-nesting policies.  Bit-exact against
    per-capacity :func:`~repro.simulation.engine.simulate` by
    construction: same stream (chunk-independence for non-mixed
    workloads, replicated chunk schedule for mixtures), same warm-up
    boundaries, same buffer implementation.
    """
    capacities = [b - pinned_count for b in buffer_sizes]
    measurement = n_batches * batch_size
    with span("stackdist.stream") as stream_span:
        if isinstance(workload, MixedWorkload):
            assert warmup_queries is not None  # guaranteed by the gate
            stream = _generate_mixed_stream(
                desc,
                workload,
                pinned_count=pinned_count,
                n_batches=n_batches,
                batch_size=batch_size,
                warmup_queries=warmup_queries,
                warmup_cap=warmup_cap,
                seed=seed,
                accel=accel,
            )
        else:
            stream = _generate_stream(
                desc,
                workload,
                pinned_count=pinned_count,
                max_capacity=max(capacities),
                measurement=measurement,
                warmup_queries=warmup_queries,
                warmup_cap=warmup_cap,
                seed=seed,
                accel=accel,
            )
        stream_span.set_attrs(
            queries=stream.n_queries,
            accesses=int(stream.q_indptr[-1]),
            unpinned=int(stream.pages.size),
            backend=stream.backend,
        )

    results = []
    for buffer_size, capacity in zip(buffer_sizes, capacities):
        warmed = _warmup_for(stream, capacity, warmup_queries, warmup_cap)
        with span(
            "stackdist.capacity",
            buffer_size=buffer_size,
            capacity=capacity,
            warmup=warmed,
        ):
            results.append(
                _replay_capacity(
                    stream,
                    policy=policy,
                    capacity=capacity,
                    warmed=warmed,
                    n_batches=n_batches,
                    batch_size=batch_size,
                    confidence=confidence,
                )
            )
    return tuple(results)


def _stackdist_sweep(
    desc: TreeDescription,
    workload,
    buffer_sizes: tuple[int, ...],
    *,
    pinned_count: int,
    n_batches: int,
    batch_size: int,
    warmup_queries: int | None,
    warmup_cap: int,
    confidence: float,
    seed: int,
    accel: str,
    max_threads: int,
) -> tuple[SimulationResult, ...]:
    """The Mattson fast path (LRU, single-transform workloads)."""
    capacities = [b - pinned_count for b in buffer_sizes]
    measurement = n_batches * batch_size

    workers = max(1, max_threads)
    pool = ThreadPoolExecutor(max_workers=workers) if workers > 1 else None

    def tail_stab(stabber, points):
        """Thread-pooled span stabbing, reassembled in stream order."""
        remaining = points.shape[0]
        if pool is None or remaining < 2 * _CHUNK:
            return [stabber.stab(points)]
        width = max(_CHUNK, -(-remaining // (2 * workers)))
        cuts = range(0, remaining, width)
        return pool.map(
            lambda at: stabber.stab(points[at : at + width]), cuts
        )

    try:
        with span("stackdist.stream") as stream_span:
            stream = _generate_stream(
                desc,
                workload,
                pinned_count=pinned_count,
                max_capacity=max(capacities),
                measurement=measurement,
                warmup_queries=warmup_queries,
                warmup_cap=warmup_cap,
                seed=seed,
                accel=accel,
                tail_stab=tail_stab,
            )
            stream_span.set_attrs(
                queries=stream.n_queries,
                accesses=int(stream.q_indptr[-1]),
                unpinned=int(stream.pages.size),
                backend=stream.backend,
            )

        with span("stackdist.distances", accesses=int(stream.pages.size)):
            cold, depth, ccold = _stack_distances(stream.pages, pool, workers)

        warmups = [
            _warmup_for(stream, c, warmup_queries, warmup_cap)
            for c in capacities
        ]

        def account(index: int) -> SimulationResult:
            with span(
                "stackdist.capacity",
                buffer_size=buffer_sizes[index],
                capacity=capacities[index],
                warmup=warmups[index],
            ):
                return _account_capacity(
                    stream,
                    cold,
                    depth,
                    ccold,
                    capacity=capacities[index],
                    warmed=warmups[index],
                    n_batches=n_batches,
                    batch_size=batch_size,
                    confidence=confidence,
                )

        if pool is None:
            return tuple(account(i) for i in range(len(buffer_sizes)))
        return tuple(pool.map(account, range(len(buffer_sizes))))
    finally:
        if pool is not None:
            pool.shutdown()
