"""Offline dominance counting on one sorted-block layout.

Both kernels of this module rank queries against *sorted blocks*: a
level ``b`` holds integer keys in aligned blocks of ``2^b``, each
block sorted and each key raised by its block index times a stride
above every key.  The raised level is one globally sorted array, so a
single ``np.searchsorted`` call ranks every query against its own
block (:func:`_block_rank`).

* :class:`SortedRangeCounter` — the data-driven query model (Eq. 4)
  needs, for every (expanded) node MBR, the number of data centres
  inside it.  The dense evaluation tests every centre against every
  rect — O(M·n) boolean cells, the dominant cost of the data-driven
  figures on large data sets.  The counter sorts the centres **once**
  by x and stores their integer y-ranks as the levels of a merge
  tree.  A rect's x-slab is a pair of prefix lengths (``side='right'``
  at ``hi_x`` keeps every ``px <= hi_x``, ``side='left'`` at ``lo_x``
  drops every ``px >= lo_x``), and its y-range a pair of rank bounds,
  so the count is an inclusion–exclusion of four dominance counts
  ``#{i < k : rank_i < r}``.  A prefix ``[0, k)`` splits into the
  aligned blocks named by the set bits of ``k``, one per level, and
  each level answers all its queries with one ``searchsorted``.
  Total cost O((M + n) · log n) searches instead of O(M · n) tests,
  and — because every comparison is the same exact float comparison
  the dense kernel performs — the counts are *bit-identical* to
  :meth:`RectArray.count_points_inside`.  Dimensions above 2 fall
  back to the chunked dense kernel (the paper's workloads are 2-D;
  the 3-D ablation stays on the oracle path).
* :func:`segmented_left_rank` — the inner kernel of the offline LRU
  stack-distance engine: a bottom-up merge tree over fixed segments,
  which ranks each right half against its sorted left half level by
  level.
"""

from __future__ import annotations

import numpy as np

from ..geometry import GeometryError, RectArray
from ..obs.spans import span

__all__ = ["SortedRangeCounter", "count_points_inside", "segmented_left_rank"]

_SORTED_MIN_CELLS = 1 << 22
""":func:`count_points_inside` switches to the sorted kernel once the
dense matrix would exceed this many ``n_rects * n_points`` cells."""


def _raise_blocks(blocks: np.ndarray, stride: int) -> np.ndarray:
    """Flatten ``(rows, width)`` sorted rows, row ``r`` raised by
    ``r * stride``: with ``stride`` above every key, the result is one
    globally sorted array."""
    rows = np.arange(blocks.shape[0], dtype=np.int64) * stride
    return (blocks + rows[:, None]).ravel()


def _block_rank(
    raised: np.ndarray,
    width: int,
    stride: int,
    block: np.ndarray,
    keys: np.ndarray,
    side: str,
) -> np.ndarray:
    """Rank each query key within its own block of a raised level.

    ``raised`` is a level of :func:`_raise_blocks` with blocks of
    ``width`` keys; ``block`` names each query's block (broadcast
    against ``keys``).  Returns ``#{key in the block <= query}`` for
    ``side="right"`` and ``< query`` for ``side="left"``; ``keys`` must
    lie in ``[0, stride)`` so a query never reaches a neighbour block.
    """
    rank = np.searchsorted(raised, block * stride + keys, side=side)
    rank -= block * width
    return rank


class SortedRangeCounter:
    """Reusable range-count structure over a fixed ``(n, d)`` point set.

    Supports ``d <= 2``.  Build cost is O(n log n) and memory one
    int64 key per point per level (``log2 n`` levels); each
    :meth:`count` call costs O(m log n) searches for ``m`` rects.
    Counts are bit-identical to the dense kernel (closed boundaries
    throughout).
    """

    def __init__(self, points: np.ndarray) -> None:
        points = np.asarray(points, dtype=np.float64)
        if points.ndim != 2:
            raise GeometryError("points must be an (n, d) array")
        if points.shape[1] > 2:
            raise GeometryError(
                "SortedRangeCounter supports 1-D and 2-D points only; "
                "use the dense kernel for higher dimensions"
            )
        self.dim = int(points.shape[1])
        self.n_points = n = int(points.shape[0])
        order = np.argsort(points[:, 0], kind="stable")
        self._xs = points[order, 0]
        self._levels: list[np.ndarray] = []
        if self.dim == 2:
            # y-values become dense ranks: ``y <= Y`` iff ``rank <
            # searchsorted(ys, Y, "right")`` and ``y < Y`` iff ``rank <
            # searchsorted(ys, Y, "left")``.  NaN sorts last, above
            # every bound a query can name, so it never counts.
            self._ys, ranks = np.unique(points[order, 1], return_inverse=True)
            self._stride = self._ys.shape[0] + 1
            # Pad to a power of two with a key below the stride, so
            # every raised level stays sorted; no prefix reaches it.
            keys = np.full(1 << max(n - 1, 0).bit_length(), self._ys.shape[0])
            keys[:n] = ranks
            # A prefix [0, k) with k <= n uses the levels below
            # n.bit_length().
            for b in range(n.bit_length()):
                rows = keys.reshape(-1, 1 << b)
                rows.sort(axis=1)
                self._levels.append(_raise_blocks(rows, self._stride))

    def _below(self, k: np.ndarray, r: np.ndarray) -> np.ndarray:
        """``#{i < k : rank_i < r}`` over the x-sorted points.

        The blocks of prefix ``[0, k)`` are, high bit first, the set
        bits of ``k``: bit ``b`` names the level-``b`` block that
        starts at ``k`` with bits ``b`` and below cleared.
        """
        # Queries sorted by k visit each level's blocks in order, which
        # keeps the searches cache-local on large point sets.
        order = np.argsort(k, kind="stable")
        k, r = k[order], r[order]
        total = np.zeros(k.shape[0], dtype=np.int64)
        for b, level in enumerate(self._levels):
            sel = np.nonzero((k >> b) & 1)[0]
            block = (k[sel] >> (b + 1)) << 1
            total[sel] += _block_rank(
                level, 1 << b, self._stride, block, r[sel], "left"
            )
        below = np.empty_like(total)
        below[order] = total
        return below

    def count(self, rects: RectArray) -> np.ndarray:
        """``(n_rects,)`` int64 count of points inside each rect."""
        if rects.dim != self.dim:
            raise GeometryError(
                f"counter is {self.dim}-D but rects are {rects.dim}-D"
            )
        k_hi = np.searchsorted(self._xs, rects.hi[:, 0], side="right")
        k_lo = np.searchsorted(self._xs, rects.lo[:, 0], side="left")
        if self.dim == 1:
            return (k_hi - k_lo).astype(np.int64)
        # Inclusion–exclusion over the x-slab [k_lo, k_hi) and the
        # rank range [r_lo, r_hi) of the y-values in [lo_y, hi_y].
        r_hi = np.searchsorted(self._ys, rects.hi[:, 1], side="right")
        r_lo = np.searchsorted(self._ys, rects.lo[:, 1], side="left")
        below = self._below(
            np.concatenate([k_hi, k_lo, k_hi, k_lo]),
            np.concatenate([r_hi, r_hi, r_lo, r_lo]),
        ).reshape(4, -1)
        return (below[0] - below[1]) - (below[2] - below[3])

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SortedRangeCounter(n={self.n_points}, dim={self.dim})"


def segmented_left_rank(values: np.ndarray, segment: int) -> np.ndarray:
    """``r[i] = #{j < i in i's segment : values[j] <= values[i]}``.

    The positional *left rank* of every element among the elements
    before it in its own length-``segment`` span (segments are
    consecutive: element ``i`` belongs to segment ``i // segment``;
    the last segment may be short).  This is the inner kernel of the
    offline LRU stack-distance engine
    (:mod:`repro.simulation.stackdist`), which turns a global
    dominance count into a per-segment one plus the LRU stack at each
    segment boundary — cheaper because a segment's merge tree is
    shallow and because segments are independent (and therefore
    trivially parallel).
    That engine decides every buffer size of the paper's buffer
    curves (Fig. 6, 9 and 11) in one pass via the left-rank identity
    ``D(t) = rank(t) − prev[t] − 1`` for within-segment reuse; the
    independence of segments is also what lets the sweep's thread
    pool cut the stream on segment-aligned boundaries and stay
    bit-exact.

    **Determinism guarantee.**  The result is a pure function of
    ``(values, segment)``: batching, thread count and span boundaries
    chosen by callers never change a single count, because every
    level computes an exact integer dominance count, not an
    approximation.

    A bottom-up merge tree, every segment in lock-step: each segment
    is padded to a power of two, and at level ``b`` every aligned
    ``2^(b+1)`` block splits into a left and a right half of ``2^b``.
    The sorted left halves, each raised by its block index, form one
    sorted array, so one ``searchsorted`` adds to every right-half
    element its count among the left half; sorting each block's rows
    in place then makes the next level's halves.  Summed over the
    levels, those counts are the left rank.  Padding sits at the end
    of its segment, so it never precedes a real element.  Values whose
    raised keys would overflow int64 are replaced by their dense ranks
    first, which keeps every ``<=`` comparison.

    ``values`` must be an integer array; ``segment`` must be positive.
    Returns int64 counts, one per element (ties count: equal earlier
    values are included).
    """
    v = np.asarray(values)
    if v.ndim != 1:
        raise GeometryError("values must be a 1-D array")
    if v.dtype.kind not in "iu":
        raise GeometryError("values must be an integer array")
    if segment < 1:
        raise GeometryError("segment must be positive")
    n = v.shape[0]
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    width = 1 << (segment - 1).bit_length()
    n_seg = -(-n // segment)
    vmin, vmax = int(v.min()), int(v.max())
    # The widest level raises n_seg·width/2 left halves by their index.
    limit = int(np.iinfo(np.int64).max)
    if vmax > limit or (n_seg * width // 2) * (vmax - vmin + 1) > limit:
        v = np.unique(v, return_inverse=True)[1]
        vmin, vmax = 0, int(v.max())
    stride = vmax - vmin + 1

    keys = np.zeros(n_seg * segment, dtype=np.int64)
    np.subtract(v, vmin, out=keys[:n], dtype=np.int64, casting="unsafe")
    if width > segment:
        keys = np.pad(keys.reshape(n_seg, segment), ((0, 0), (0, width - segment)))
    keys = keys.reshape(-1)
    rank = np.zeros_like(keys)
    merged = keys.copy()
    half = 1
    while half < width:
        rows = keys.shape[0] // (2 * half)
        left = merged.reshape(rows, 2, half)[:, 0, :]  # sorted
        right = keys.reshape(rows, 2, half)[:, 1, :]  # in position order
        rank.reshape(rows, 2, half)[:, 1, :] += _block_rank(
            _raise_blocks(left, stride),
            half,
            stride,
            np.arange(rows, dtype=np.int64)[:, None],
            right,
            "right",
        )
        half *= 2
        if half < width:
            merged.reshape(rows, half).sort(axis=1)
    return rank.reshape(n_seg, width)[:, :segment].reshape(-1)[:n]


def count_points_inside(
    rects: RectArray,
    points: np.ndarray,
    *,
    counter: SortedRangeCounter | None = None,
) -> np.ndarray:
    """Count ``points`` inside each rect, choosing a kernel by size.

    Parameters
    ----------
    rects, points:
        The rect set and the ``(n, d)`` point set (closed boundaries).
    counter:
        A prebuilt :class:`SortedRangeCounter` over ``points`` — lets
        callers with a fixed point set (e.g. the data-driven workload's
        centres) amortise the sort across many calls.

    The sorted kernel runs when a ``counter`` is supplied, or when
    ``d <= 2`` and the dense matrix would exceed ``_SORTED_MIN_CELLS``
    cells; the chunked dense kernel runs otherwise.  Both return
    bit-identical int64 counts.
    """
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2 or points.shape[1] != rects.dim:
        raise GeometryError("points must be (n_points, d)")
    if counter is None and not (
        rects.dim <= 2 and len(rects) * points.shape[0] >= _SORTED_MIN_CELLS
    ):
        with span(
            "accel.count",
            backend="dense",
            n_rects=len(rects),
            n_points=points.shape[0],
        ):
            return rects.count_points_inside(points)
    if counter is None:
        with span("accel.counter_build", n_points=points.shape[0]):
            counter = SortedRangeCounter(points)
    elif counter.dim != rects.dim or counter.n_points != points.shape[0]:
        raise GeometryError("counter does not match the supplied points")
    with span(
        "accel.count",
        backend="sorted",
        n_rects=len(rects),
        n_points=points.shape[0],
    ):
        return counter.count(rects)
