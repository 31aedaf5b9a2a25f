"""Offline orthogonal range counting over a fixed point set.

The data-driven query model (Eq. 4) needs, for every (expanded) node
MBR, the number of data centres inside it.  The dense evaluation tests
every centre against every rect — O(M·n) boolean cells, the dominant
cost of the data-driven figures on large data sets.

:class:`SortedRangeCounter` sorts the centres **once** and answers a
whole batch of rects with searchsorted prefix cuts plus merge
counting:

* **1-D**: ``count = searchsorted(x, hi, 'right') −
  searchsorted(x, lo, 'left')`` — two binary searches per rect.
* **2-D**: sort points by x; a rect's x-slab is then a pair of prefix
  lengths (``side='right'`` at ``hi_x`` keeps every ``px <= hi_x``,
  ``side='left'`` at ``lo_x`` drops every ``px >= lo_x``), and the
  rect count is an inclusion–exclusion of four *dominance* counts
  ``#{px in prefix, py <= Y}``.  Dominance counts are answered by a
  Fenwick-style binary decomposition of the prefix into aligned
  power-of-two blocks whose y-values are pre-sorted (a binary indexed
  mergesort tree): each query touches at most ``log2(n)`` blocks and
  does one binary search per block, all lanes advancing together in
  vectorised lock-step.

Total cost O((M + n) · log² n) instead of O(M · n), and — because
every comparison is the same exact float comparison the dense kernel
performs — the counts are *bit-identical* to
:meth:`RectArray.count_points_inside`.  Dimensions above 2 fall back
to the chunked dense kernel (the paper's workloads are 2-D; the 3-D
ablation stays on the oracle path).
"""

from __future__ import annotations

import numpy as np

from ..geometry import GeometryError, RectArray
from ..obs.spans import span

__all__ = ["SortedRangeCounter", "count_points_inside", "segmented_left_rank"]

_SORTED_MIN_CELLS = 1 << 22
"""``method="auto"`` switches to the sorted kernel once the dense
matrix would exceed this many ``n_rects * n_points`` cells."""

COUNT_METHODS = ("auto", "sorted", "dense")
"""Accepted values for the ``method`` argument of
:func:`count_points_inside`."""


class SortedRangeCounter:
    """Reusable range-count structure over a fixed ``(n, d)`` point set.

    Supports ``d <= 2``.  Build cost is O(n log n); each
    :meth:`count` call costs O(m log² n) for ``m`` rects.  Counts are
    bit-identical to the dense kernel (closed boundaries throughout).
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
        self.n_points = int(points.shape[0])
        order = np.argsort(points[:, 0], kind="stable")
        self._xs = points[order, 0]
        self._levels: list[np.ndarray] = []
        self._n_levels = 0
        if self.dim == 2:
            ys = points[order, 1]
            n = ys.shape[0]
            # Number of bits needed to decompose any prefix length <= n.
            self._n_levels = max(int(n - 1).bit_length(), 1) + 1 if n else 1
            padded_n = 1 << (self._n_levels - 1)
            for b in range(self._n_levels):
                size = 1 << b
                # Pad to a whole number of blocks with NaN: NaN compares
                # False against everything, so padding never counts and
                # np.sort parks it at the end of each block.
                padded = np.full(padded_n + 1, np.nan)
                padded[:n] = ys
                blocks = padded[:padded_n].reshape(-1, size)
                level = np.empty(padded_n + 1)
                level[:padded_n] = np.sort(blocks, axis=1).ravel()
                level[padded_n] = np.nan  # sentinel: safe overshoot reads
                self._levels.append(level)

    def _prefix_rank(
        self, k: np.ndarray, y: np.ndarray, strict: bool
    ) -> np.ndarray:
        """``#{i < k : ys[i] <= y}`` (or ``< y`` when ``strict``).

        ``k`` holds prefix lengths into the x-sorted y-array; the
        Fenwick decomposition of each ``k`` visits at most one aligned
        block per level, located purely from the bits of ``k`` (the
        blocks for prefix ``[0, k)`` are, high bit first, exactly the
        set bits of ``k``), so all queries advance level by level in
        lock-step with a vectorised binary search inside each block.
        """
        total = np.zeros(k.shape[0], dtype=np.int64)
        for b in range(self._n_levels):
            sel = np.nonzero((k >> b) & 1)[0]
            if sel.size == 0:
                continue
            size = 1 << b
            # Offset of this block = the bits of k above b; aligned to
            # a multiple of 2^(b+1), hence a whole block at level b.
            base = (k[sel] >> (b + 1)) << (b + 1)
            arr = self._levels[b]
            yq = y[sel]
            lo = np.zeros(sel.size, dtype=np.int64)
            hi = np.full(sel.size, size, dtype=np.int64)
            for _ in range(b + 1):
                active = lo < hi
                mid = (lo + hi) >> 1
                v = arr[base + mid]
                if strict:
                    cond = active & (v < yq)
                else:
                    cond = active & (v <= yq)
                lo = np.where(cond, mid + 1, lo)
                hi = np.where(active & ~cond, mid, hi)
            total[sel] += lo
        return total

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
        # Inclusion–exclusion over the x-slab [k_lo, k_hi):
        #   #{lo <= p <= hi} = #{py <= hi_y} − #{py < lo_y} within the slab.
        below_hi = self._prefix_rank(
            np.concatenate([k_hi, k_lo]),
            np.concatenate([rects.hi[:, 1], rects.hi[:, 1]]),
            strict=False,
        )
        below_lo = self._prefix_rank(
            np.concatenate([k_hi, k_lo]),
            np.concatenate([rects.lo[:, 1], rects.lo[:, 1]]),
            strict=True,
        )
        m = len(rects)
        inside_hi = below_hi[:m] - below_hi[m:]
        inside_lo = below_lo[:m] - below_lo[m:]
        return (inside_hi - inside_lo).astype(np.int64)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SortedRangeCounter(n={self.n_points}, dim={self.dim})"


def segmented_left_rank(
    values: np.ndarray,
    segment: int,
    *,
    block: int = 64,
) -> np.ndarray:
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
    ``(values, segment, block)``: batching, thread count and span
    boundaries chosen by callers never change a single count, because
    every block and every prefix merge computes an exact integer
    dominance count, not an approximation.

    Two-level scheme, everything in vectorised lock-step across all
    segments at once:

    * **blocks** (``block`` elements): brute-force dominance inside
      each block via one boolean ``(rows, block, block)`` tensor;
    * **block prefixes**: per segment, a sorted running prefix of the
      blocks so far, stored packed with per-segment key offsets so a
      single flat ``searchsorted`` ranks every segment's next block
      simultaneously; prefixes grow by classic two-``searchsorted``
      merges (no re-sorting).

    ``values`` must be an integer array; ``segment`` must be a
    positive multiple of ``block``.  Returns int64 counts, one per
    element (ties count: equal earlier values are included).
    """
    v = np.asarray(values)
    if v.ndim != 1:
        raise GeometryError("values must be a 1-D array")
    if v.dtype.kind not in "iu":
        raise GeometryError("values must be an integer array")
    if block < 1 or segment < 1 or segment % block:
        raise GeometryError("segment must be a positive multiple of block")
    n = v.shape[0]
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    n_pad = -(-n // segment) * segment
    vmin = int(v.min())
    sentinel = int(v.max()) - vmin + 1
    padded = np.empty(n_pad, dtype=np.int64)
    np.subtract(v, vmin, out=padded[:n], casting="unsafe")
    # Padding sorts above every real value, so it only ever counts for
    # padded (discarded) queries.
    padded[n:] = sentinel

    n_blocks = n_pad // block
    per_seg = segment // block
    n_seg = n_pad // segment
    rank = np.zeros((n_blocks, block), dtype=np.int64)

    # Bottom level: dominance inside each block, brute force, batched
    # so the boolean tensor stays ~16M cells.
    blocks = padded.reshape(n_blocks, block)
    tri = np.tril(np.ones((block, block), dtype=bool), k=-1)
    batch = max(1, (1 << 24) // (block * block))
    for s in range(0, n_blocks, batch):
        sub = blocks[s : s + batch]
        np.sum(
            (sub[:, None, :] <= sub[:, :, None]) & tri,
            axis=2,
            dtype=np.int64,
            out=rank[s : s + batch],
        )

    if per_seg > 1:
        # Mid level: each block is ranked against the merged sorted
        # prefix of its segment's earlier blocks.  Keys carry a
        # per-segment offset (stride > any real value) so the packed
        # prefixes of all segments form one globally sorted array and
        # a single flat searchsorted serves every segment at once.
        stride = np.int64(sentinel) + 1
        rows = np.arange(n_seg, dtype=np.int64)
        keys = padded.reshape(n_seg, per_seg, block) + (rows * stride)[
            :, None, None
        ]
        rank3 = rank.reshape(n_seg, per_seg, block)
        prefix = np.sort(keys[:, 0, :], axis=1).ravel()
        for j in range(1, per_seg):
            width = j * block
            q = keys[:, j, :]
            cnt = np.searchsorted(prefix, q.ravel(), side="right")
            rank3[:, j, :] += cnt.reshape(n_seg, block) - (rows * width)[
                :, None
            ]
            if j == per_seg - 1:
                break
            # Merge block j into each prefix: an element's merged slot
            # is its rank among the other side plus its own rank, with
            # prefix elements winning ties (matching side="right"
            # above).  Row r's packed prefix starts at r*width before
            # and r*(width+block) after, which the row offsets absorb.
            small = np.sort(q, axis=1)
            pos_s = (
                np.searchsorted(prefix, small.ravel(), side="right").reshape(
                    n_seg, block
                )
                + np.arange(block, dtype=np.int64)[None, :]
                + (rows * block)[:, None]
            )
            pos_b = (
                np.searchsorted(small.ravel(), prefix, side="left").reshape(
                    n_seg, width
                )
                + np.arange(width, dtype=np.int64)[None, :]
                + (rows * width)[:, None]
            )
            merged = np.empty(n_seg * (width + block), dtype=np.int64)
            merged[pos_s.ravel()] = small.ravel()
            merged[pos_b.ravel()] = prefix
            prefix = merged
    return rank.reshape(-1)[:n]


def count_points_inside(
    rects: RectArray,
    points: np.ndarray,
    *,
    method: str = "auto",
    counter: SortedRangeCounter | None = None,
) -> np.ndarray:
    """Count ``points`` inside each rect, choosing a kernel by size.

    Parameters
    ----------
    rects, points:
        The rect set and the ``(n, d)`` point set (closed boundaries).
    method:
        ``"auto"`` uses the sorted kernel when ``d <= 2`` and the dense
        matrix would exceed ``_SORTED_MIN_CELLS`` cells (or whenever a
        prebuilt ``counter`` is supplied), the chunked dense kernel
        otherwise; ``"sorted"`` / ``"dense"`` force the choice.
    counter:
        A prebuilt :class:`SortedRangeCounter` over ``points`` — lets
        callers with a fixed point set (e.g. the data-driven workload's
        centres) amortise the sort across many calls.

    All kernels return bit-identical int64 counts.
    """
    if method not in COUNT_METHODS:
        raise ValueError(
            f"unknown count method {method!r}; choices: {COUNT_METHODS}"
        )
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2 or points.shape[1] != rects.dim:
        raise GeometryError("points must be (n_points, d)")
    if method == "dense":
        with span(
            "accel.count",
            backend="dense",
            n_rects=len(rects),
            n_points=points.shape[0],
        ):
            return rects.count_points_inside(points)
    sortable = rects.dim <= 2
    if method == "sorted":
        if not sortable:
            raise GeometryError(
                "the sorted kernel supports 1-D and 2-D only; "
                "use method='dense' for higher dimensions"
            )
    elif counter is None and not (
        sortable and len(rects) * points.shape[0] >= _SORTED_MIN_CELLS
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
