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

A global left rank is O(n log² n) with fat constants.  The engine
instead splits the stream into fixed segments and exploits the small
page alphabet (pages = tree nodes):

* ``prev[t]`` inside ``t``'s segment (a *near* access) — the count
  telescopes to the segment-local left rank of
  :func:`repro.accel.segmented_left_rank`, a bottom-up merge tree run
  over all segments in lock-step (and in parallel across segment
  spans);
* ``prev[t]`` before the segment (a *far* access) — the distinct
  pages in the window split at the segment boundary into a *stack*
  term (pages whose last access before the boundary is after
  ``prev[t]``) plus the same segment-local rank.  One walk over the
  boundaries keeps a single ``last[page]`` table: at each boundary it
  writes the previous segment's last positions, and the sorted live
  entries are the LRU stack there, so the walk's memory is bounded
  by the tree, not by the stream.  The walk is a Python loop with one
  step per segment; boundaries without a far access only write.

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
not nest — and a :class:`~repro.queries.MixedWorkload` draws its
component assignments chunk by chunk, so its stream depends on the
chunk schedule that the one-draw measurement tail below skips.  Those
sweeps run per-capacity :func:`~repro.simulation.engine.simulate`
inside the same call: same results, no speedup.

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

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from ..accel import segmented_left_rank
from ..buffer import BufferStats, PinningError, POLICIES
from ..obs.spans import span
from ..queries.mixed import MixedWorkload
from ..rtree import TreeDescription
from .batchmeans import batch_means
from .engine import (
    _CHUNK,
    SimulationResult,
    _warmup_schedule,
    build_stabbers,
    simulate,
)

__all__ = ["simulate_sweep"]

_MAX_SWEEP_THREADS = 4
"""Worker threads of the sweep's pool: tail stabbing, the left-rank
kernel and per-capacity accounting.  Results never depend on it."""

_LR_SEGMENT = 512
"""Segment length of the stack-distance kernel: both the left-rank
segments and the boundaries the far-access walk stops at.  Must be a
power of two: the merge tree pads every segment to one, and
``_stack_distances`` finds each segment start as ``t & -_LR_SEGMENT``.
Longer segments deepen the merge tree by one level per doubling and
halve the walk's steps; on Table 1's streams 1,024 and 2,048 ran
within run-to-run noise of 512, and 256 ran slower through the pool
(docs/PERFORMANCE.md)."""


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
    it does not depend on the size of the sweep's thread pool or on
    how the OS schedules threads.  Every internal split is over
    contiguous stream ranges merged in range order, and every
    floating-point reduction runs on one code path from identical
    integer counts (see ``docs/PERFORMANCE.md``).

    Parameters mirror :func:`~repro.simulation.simulate`, except:

    rng:
        A seed (or ``None`` for the default seed 0).  A live
        ``Generator`` is rejected — per-capacity equivalence requires
        replaying the stream from a known seed.

    The ``simulate.sweep`` span times the sweep.  Per-level counters
    are a per-capacity affair — use :func:`~repro.simulation.simulate`
    with ``level_stats=True`` (as the metrics probes do) when you need
    them.

    Raises :class:`~repro.buffer.PinningError` when any swept size
    cannot hold the pinned levels — filter infeasible sizes first
    (fig11 does).  LRU sweeps of single-transform workloads take the
    stack-distance pass; other policies and mixed workloads run
    per-capacity simulation internally.  Results are identical on both
    routes — the route only changes speed.
    """
    if n_batches < 2:
        raise ValueError("need at least two batches for confidence intervals")
    if batch_size < 1:
        raise ValueError("batch_size must be positive")
    if warmup_cap < 0:
        raise ValueError("warmup_cap must be non-negative")
    if warmup_queries is not None and warmup_queries < 0:
        raise ValueError("warmup_queries must be non-negative")
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

    stackdist = policy == "lru" and not isinstance(workload, MixedWorkload)
    root = span(
        "simulate.sweep",
        capacities=len(buffer_sizes),
        policy=policy,
        levels=desc.height,
        nodes=desc.total_nodes,
        pinned_levels=pinned_levels,
        n_batches=n_batches,
        batch_size=batch_size,
        mode="stackdist" if stackdist else "fallback",
    )
    with root:
        if stackdist:
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
            )
        else:
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
                )
                for b in buffer_sizes
            )
    return results


# ----------------------------------------------------------------------
# The offline engine
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class _Stream:
    """The flattened access stream shared by every capacity.

    ``q_indptr`` delimits each query's accesses (pinned included), so
    ``q_indptr[q+1] - q_indptr[q]`` is query ``q``'s node-access
    count.  ``pages`` is the unpinned subsequence the LRU area sees,
    in request order, and ``page_indptr`` delimits each query's part
    of it: ``page_indptr[q]`` unpinned accesses precede query ``q``.
    ``bounds`` / ``bound_distinct`` are the warm-up chunk boundaries
    (cumulative query counts) with the number of distinct unpinned
    pages seen at each — the data the online engine's "warm up until
    full" check reads.
    """

    q_indptr: np.ndarray
    pages: np.ndarray
    page_indptr: np.ndarray
    bounds: np.ndarray
    bound_distinct: np.ndarray
    backend: str

    @property
    def n_queries(self) -> int:
        return self.q_indptr.shape[0] - 1


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
    pool: ThreadPoolExecutor,
) -> _Stream:
    """Sample and stab the shared query stream, chunk by chunk.

    The warm-up region reproduces the online engine's chunk schedule
    so the buffer-full boundaries land on the same query indices.
    Every built-in non-mixed workload consumes the generator as a
    function of the *total* sample count only, so chunk boundaries
    never change the sampled stream — the contract the sweep's
    bit-exactness rests on.  It also lets the measurement tail sample
    in one draw and stab contiguous point spans on ``pool`` (stabbers
    are stateless pure reads), reassembled in stream order: any
    order-preserving split produces the identical stream.
    """
    budget = warmup_cap if warmup_queries is None else warmup_queries
    stabber, backend = build_stabbers(
        desc, workload, n_points=budget + measurement
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
        width = max(_CHUNK, -(-remaining // (2 * _MAX_SWEEP_THREADS)))
        stabbed = pool.map(
            lambda at: stabber.stab(points[at : at + width]),
            range(0, remaining, width),
        )
        for sparse in stabbed:
            ingest(sparse)

    all_lengths = np.concatenate(lengths)[:target]
    q_indptr = np.zeros(target + 1, dtype=np.int64)
    np.cumsum(all_lengths, out=q_indptr[1:])
    ids = np.concatenate(id_chunks)[: q_indptr[-1]]
    unpinned = ids >= pinned_count
    unpinned_before = np.zeros(ids.shape[0] + 1, dtype=np.int64)
    np.cumsum(unpinned, out=unpinned_before[1:])
    return _Stream(
        q_indptr=q_indptr,
        pages=ids[unpinned],
        page_indptr=unpinned_before[q_indptr],
        bounds=np.asarray(bounds, dtype=np.int64),
        bound_distinct=np.asarray(bound_distinct, dtype=np.int64),
        backend=backend,
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
      — the entries greater than ``p`` in the LRU stack at ``T`` (each
      page's last position before ``T``, sorted); ``p`` itself is in
      the stack and lands on the ``<= p`` side, so ``page[t]`` is
      never double-counted.
    """
    n = pages.shape[0]
    prev = np.full(n, -1, dtype=np.int64)
    if n:
        order = np.argsort(pages, kind="stable")
        sorted_pages = pages[order]
        same = sorted_pages[1:] == sorted_pages[:-1]
        prev[order[1:][same]] = order[:-1][same]
        del order, sorted_pages, same  # not held through the left ranks
    cold = prev < 0
    ccold = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(cold, out=ccold[1:])

    if n == 0:
        return cold, np.zeros(0, dtype=np.int64), ccold

    # ``depth`` starts as the segment-local left ranks W(t) and is
    # finished in place: a near access adds T - p - 1, a far access
    # its stack term (the walk below), and a cold access reads 0.
    depth = _left_ranks(prev, pool, workers)
    before = np.arange(n, dtype=np.int64)
    before &= -_LR_SEGMENT  # T: the accesses before t's segment
    near = prev >= before  # implies warm: cold prev = -1 < T
    before -= prev
    before -= 1
    np.add(depth, before, out=depth, where=near)
    del before
    depth[cold] = 0
    far = ~(near | cold)
    if np.any(far):
        # One last-position table walks the boundaries.  Before
        # boundary c·S it takes each page's final position in segment
        # c−1, the one no near access points back to (one write per
        # page: fancy assignment leaves repeated indices unordered).
        # Its sorted live entries are the LRU stack, holding prev[t].
        final = np.ones(n, dtype=bool)
        final[prev[near]] = False
        final_pos = np.nonzero(final)[0]
        far_pos = np.nonzero(far)[0]
        cuts = np.arange(0, n + _LR_SEGMENT, _LR_SEGMENT)
        final_cut = np.searchsorted(final_pos, cuts)
        far_cut = np.searchsorted(far_pos, cuts)
        last = np.full(int(pages.max()) + 1, -1, dtype=np.int64)
        for c in range(1, cuts.shape[0] - 1):
            ends = final_pos[final_cut[c - 1] : final_cut[c]]
            last[pages[ends]] = ends
            queries = far_pos[far_cut[c] : far_cut[c + 1]]
            if queries.size:
                stack = np.sort(last[last >= 0])
                after_p = stack.shape[0] - np.searchsorted(
                    stack, prev[queries], side="right"
                )
                depth[queries] += after_p
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
    discarded).  The buffer was full at the window start iff the
    distinct unpinned pages seen by then (``ccold`` there, the online
    buffer's resident count) reach the capacity.

    Counts are exact int64 per-batch totals; the floats derive from
    them in one place, so results never depend on how the accesses
    were split across threads.
    """
    batch_queries = warmed + batch_size * np.arange(
        n_batches + 1, dtype=np.int64
    )
    access_bounds = stream.page_indptr[batch_queries]
    lo, hi = access_bounds[0], access_bounds[-1]
    rel = access_bounds - lo

    def per_batch(flags: np.ndarray) -> np.ndarray:
        totals = np.zeros(flags.shape[0] + 1, dtype=np.int64)
        np.cumsum(flags, dtype=np.int64, out=totals[1:])
        return totals[rel[1:]] - totals[rel[:-1]]

    miss = cold[lo:hi] | (depth[lo:hi] >= capacity)
    miss_b = per_batch(miss)
    evict_b = per_batch(miss & (ccold[lo:hi] >= capacity) & (capacity > 0))
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

    return SimulationResult(
        disk_accesses=batch_means(
            [m / batch_size for m in miss_b], confidence=confidence
        ),
        node_accesses=batch_means(
            [r / batch_size for r in req_b], confidence=confidence
        ),
        warmup_queries=warmed,
        buffer_filled=capacity <= 0 or int(ccold[lo]) >= capacity,
        batch_stats=tuple(snapshots),
    )


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
) -> tuple[SimulationResult, ...]:
    """The Mattson pass (LRU, single-transform workloads)."""
    capacities = [b - pinned_count for b in buffer_sizes]
    with ThreadPoolExecutor(max_workers=_MAX_SWEEP_THREADS) as pool:
        with span("stackdist.stream") as stream_span:
            stream = _generate_stream(
                desc,
                workload,
                pinned_count=pinned_count,
                max_capacity=max(capacities),
                measurement=n_batches * batch_size,
                warmup_queries=warmup_queries,
                warmup_cap=warmup_cap,
                seed=seed,
                pool=pool,
            )
            stream_span.set_attrs(
                queries=stream.n_queries,
                accesses=int(stream.q_indptr[-1]),
                unpinned=int(stream.pages.size),
                backend=stream.backend,
            )

        with span("stackdist.distances", accesses=int(stream.pages.size)):
            cold, depth, ccold = _stack_distances(
                stream.pages, pool, _MAX_SWEEP_THREADS
            )

        def account(buffer_size: int) -> SimulationResult:
            capacity = buffer_size - pinned_count
            warmed = _warmup_for(stream, capacity, warmup_queries, warmup_cap)
            with span(
                "stackdist.capacity",
                buffer_size=buffer_size,
                capacity=capacity,
                warmup=warmed,
            ):
                return _account_capacity(
                    stream,
                    cold,
                    depth,
                    ccold,
                    capacity=capacity,
                    warmed=warmed,
                    n_batches=n_batches,
                    batch_size=batch_size,
                    confidence=confidence,
                )

        return tuple(pool.map(account, buffer_sizes))
