"""The paper's buffer model (§3.3): expected *disk accesses* per query.

Following Bhide, Dan & Dias [2], the steady-state LRU hit probability
is approximated by the hit probability at the moment the buffer first
fills.  With per-node access probabilities ``p_j = A^Q_ij``:

* the expected number of distinct nodes touched in ``N`` queries is
  ``D(N) = M − Σ_j (1 − p_j)^N``                      (Eq. 5);
* the buffer of ``B`` pages first fills after ``N*`` queries, the
  smallest integer with ``D(N*) ≥ B`` (found by binary search);
* the expected number of disk accesses per query at steady state is
  ``ED = Σ_j p_j · (1 − p_j)^{N*}``                   (Eq. 6).

Pinning the top levels is handled exactly as the paper prescribes:
"simply reduce the number of buffer pages by the number of pages in
these pinned levels and omit the top levels from the model."
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..buffer import PinningError
from ..geometry import near_zero
from ..obs.spans import span
from ..rtree import TreeDescription

__all__ = [
    "BufferModelResult",
    "buffer_model",
    "buffer_model_sweep",
    "expected_distinct_nodes",
    "queries_to_fill_buffer",
    "steady_state_disk_accesses",
]

_MAX_FILL_QUERIES = 1 << 62
"""Search cap for ``N*``; beyond this the buffer is treated as never
filling (only reachable with access probabilities below ~1e-18)."""


def _checked_probabilities(probs) -> np.ndarray:
    """``probs`` as a float64 array; ``ValueError`` unless all lie in [0, 1].

    Out-of-range values (and NaN) would otherwise flow through the
    log/exp formulas into a NaN or zero ``ED`` without complaint.
    """
    probs = np.asarray(probs, dtype=np.float64)
    bad = np.flatnonzero(~((probs >= 0.0) & (probs <= 1.0)))
    if bad.size:
        index = int(bad[0])
        raise ValueError(
            f"access probability at index {index} is "
            f"{float(probs.flat[index])}, outside [0, 1]"
        )
    return probs


def _log_miss(probs: np.ndarray) -> np.ndarray:
    """``log(1 − p)`` per node, computed stably (``-inf`` where p = 1)."""
    with np.errstate(divide="ignore"):
        return np.log1p(-probs)


def _distinct_from_log(log_miss: np.ndarray, n_queries: int) -> float:
    """``D(N)`` from precomputed ``log(1 − p)`` — the search hot path."""
    if n_queries == 0:
        return 0.0
    return float(log_miss.size - np.sum(np.exp(n_queries * log_miss)))


def expected_distinct_nodes(probs: np.ndarray, n_queries: int) -> float:
    """``D(N)`` — expected distinct nodes accessed in ``N`` queries (Eq. 5).

    Computed as ``M − Σ exp(N · log1p(−p))`` for numerical stability
    with very small access probabilities.  Nodes with ``p = 1`` (e.g. a
    root MBR covering the whole data space) contribute 1 for any
    ``N >= 1``; nodes with ``p = 0`` never contribute.
    """
    probs = _checked_probabilities(probs)
    if n_queries < 0:
        raise ValueError("n_queries must be non-negative")
    return _distinct_from_log(_log_miss(probs), n_queries)


def queries_to_fill_buffer(
    probs: np.ndarray, buffer_pages: int, *, lower_bound: int = 0
) -> int | None:
    """``N*`` — the smallest ``N`` with ``D(N) >= buffer_pages``.

    Returns ``None`` when the buffer can never fill: fewer than
    ``buffer_pages`` nodes have positive access probability (every
    reachable node then stays resident and steady-state disk accesses
    are zero), or filling would take more than ``2**62`` queries.

    ``log1p(-probs)`` is hoisted out of the search, so each of the
    O(log N*) probes costs one ``exp`` pass instead of two transcendental
    passes.  ``lower_bound`` seeds the bracket with an ``N`` already
    known to leave the buffer unfilled (``D(lower_bound) <
    buffer_pages``): :func:`buffer_model_sweep` passes the previous
    size's ``N* − 1``, exploiting that ``N*`` is non-decreasing in the
    buffer size.  An invalid hint is checked once and discarded.
    """
    probs = _checked_probabilities(probs)
    if buffer_pages < 1:
        raise ValueError("buffer_pages must be at least 1")
    if lower_bound < 0:
        raise ValueError("lower_bound must be non-negative")
    reachable = int(np.count_nonzero(probs > 0.0))
    if reachable < buffer_pages:
        return None

    log_miss = _log_miss(probs)
    lo = lower_bound
    if lo > 0 and _distinct_from_log(log_miss, lo) >= buffer_pages:
        lo = 0  # stale hint: restore the bracket invariant
    # Gallop upward from the bracket: D(lo) < buffer_pages <= D(hi).
    step = 1
    hi = lo + step
    while _distinct_from_log(log_miss, hi) < buffer_pages:
        lo = hi
        step <<= 1
        hi = lo + step
        if hi > _MAX_FILL_QUERIES:
            return None
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _distinct_from_log(log_miss, mid) >= buffer_pages:
            hi = mid
        else:
            lo = mid
    return hi


def steady_state_disk_accesses(probs: np.ndarray, n_star: int) -> float:
    """``ED`` — expected disk accesses per query at steady state (Eq. 6).

    ``Σ_j p_j (1 − p_j)^{N*}``: node ``j`` costs a disk access iff it is
    accessed (probability ``p_j``) while not resident, and the
    probability of non-residence is approximated by the probability of
    not having been touched during the ``N*`` warm-up queries.
    """
    probs = _checked_probabilities(probs)
    if n_star < 0:
        raise ValueError("n_star must be non-negative")
    with np.errstate(divide="ignore", invalid="ignore"):
        log_miss = np.log1p(-probs)
        miss = np.exp(n_star * log_miss)
    if n_star == 0:
        miss = np.ones_like(probs)
    return float(np.sum(probs * miss))


@dataclass(frozen=True)
class BufferModelResult:
    """Everything the buffer model computes for one configuration."""

    disk_accesses: float
    """``ED`` — expected disk accesses per query at steady state."""
    node_accesses: float
    """``EPT`` — expected node accesses per query (bufferless metric)."""
    n_star: int | None
    """Queries needed to first fill the buffer (None: never fills)."""
    buffer_size: int
    """Total buffer pages ``B``."""
    pinned_levels: int
    """Number of top tree levels pinned."""
    pinned_pages: int
    """Pages occupied by the pinned levels."""
    total_nodes: int
    """``M`` — nodes (pages) in the whole tree."""

    @property
    def effective_buffer(self) -> int:
        """Pages left to the LRU area after pinning."""
        return self.buffer_size - self.pinned_pages

    @property
    def hit_ratio(self) -> float:
        """Steady-state buffer hit probability implied by the model."""
        if near_zero(self.node_accesses):
            return 1.0
        return 1.0 - self.disk_accesses / self.node_accesses


def buffer_model(
    desc: TreeDescription,
    workload,
    buffer_size: int,
    pinned_levels: int = 0,
) -> BufferModelResult:
    """Run the full buffer model for one tree / workload / buffer setup.

    Parameters
    ----------
    desc:
        Per-level node MBRs of the tree (see
        :class:`~repro.rtree.TreeDescription`).
    workload:
        Any object with ``access_probabilities(rects) -> array`` — the
        workloads of :mod:`repro.queries`.
    buffer_size:
        Buffer capacity ``B`` in pages.
    pinned_levels:
        How many top levels of the tree to pin (0 = plain LRU).

    Raises
    ------
    PinningError
        If the pinned levels alone exceed the buffer capacity.
    """
    return buffer_model_sweep(desc, workload, (buffer_size,), pinned_levels)[0]


def buffer_model_sweep(
    desc: TreeDescription,
    workload,
    buffer_sizes,
    pinned_levels: int = 0,
) -> list[BufferModelResult]:
    """The buffer model over several buffer sizes at once.

    The per-node access probabilities — the expensive part for
    data-driven workloads, which scan every data centre per node — are
    computed once and shared across the whole sweep.
    """
    buffer_sizes = [int(b) for b in buffer_sizes]
    if any(b < 1 for b in buffer_sizes):
        raise ValueError("buffer sizes must be at least 1 page")
    if not 0 <= pinned_levels <= desc.height:
        raise ValueError(
            f"pinned_levels must be in [0, {desc.height}], got {pinned_levels}"
        )

    pinned_pages = desc.pages_in_top_levels(pinned_levels)
    too_small = [b for b in buffer_sizes if pinned_pages > b]
    if too_small:
        raise PinningError(
            f"pinning {pinned_levels} levels needs {pinned_pages} pages "
            f"but the buffer holds only {min(too_small)}"
        )

    with span(
        "model.access_probabilities",
        nodes=desc.total_nodes,
        levels=desc.height,
        workload=type(workload).__name__,
    ):
        probs_all = np.asarray(
            workload.access_probabilities(desc.all_rects), dtype=np.float64
        )
    if probs_all.shape != (desc.total_nodes,):
        raise ValueError("workload returned a misshapen probability array")
    _checked_probabilities(probs_all)
    node_accesses = float(np.sum(probs_all))

    first_unpinned = desc.level_offsets[pinned_levels]
    probs = probs_all[first_unpinned:]
    reachable = int(np.count_nonzero(probs > 0.0))

    # Walk the sizes in ascending order: the effective buffer grows, so
    # N* is non-decreasing and each binary search can start from the
    # previous N* instead of from scratch; once one size's fill point
    # exceeds the search cap, every larger size's does too.  Results
    # are reported in the caller's original order.
    results: list[BufferModelResult | None] = [None] * len(buffer_sizes)
    order = sorted(range(len(buffer_sizes)), key=buffer_sizes.__getitem__)
    last_n_star = 0
    never_fills = False
    for i in order:
        buffer_size = buffer_sizes[i]
        effective = buffer_size - pinned_pages
        if probs.size == 0 or (effective > 0 and effective >= reachable):
            # Every reachable unpinned node eventually stays resident.
            n_star: int | None = None
            disk = 0.0
        elif effective == 0:
            # Pinned pages consume the whole buffer: each unpinned
            # access is a disk access.
            n_star = None
            disk = float(np.sum(probs))
        elif never_fills:
            n_star = None
            disk = 0.0
        else:
            with span("model.n_star_search", buffer_size=buffer_size):
                n_star = queries_to_fill_buffer(
                    probs, effective, lower_bound=max(0, last_n_star - 1)
                )
            if n_star is None:
                never_fills = True
                disk = 0.0
            else:
                last_n_star = n_star
                with span(
                    "model.ed_sum", buffer_size=buffer_size, n_star=n_star
                ):
                    disk = steady_state_disk_accesses(probs, n_star)
        results[i] = BufferModelResult(
            disk_accesses=disk,
            node_accesses=node_accesses,
            n_star=n_star,
            buffer_size=buffer_size,
            pinned_levels=pinned_levels,
            pinned_pages=pinned_pages,
            total_nodes=desc.total_nodes,
        )
    return results
