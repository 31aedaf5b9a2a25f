"""A uniform-grid point-stabbing index over a :class:`RectArray`.

The simulator's hot loop asks "which rects contain this point?" for
millions of points against a *fixed* rect set (the workload-transformed
node MBRs).  A uniform grid turns that from O(n_rects) per point into
O(candidates): each rect is registered in every grid cell it overlaps
(built once, vectorised), a point hashes to exactly one cell, and the
exact closed-boundary containment test runs only against that cell's
candidate list.

Cell resolution is chosen from the *median* MBR extent per axis — the
typical node MBR then overlaps O(2^d) cells, so the index stays linear
in the number of rects — then capped so the flattened cell table and
the entry table stay small; pathological inputs (a rect covering the
whole space inflating the entry count) trigger automatic coarsening.

Correctness does not depend on any of these heuristics: the grid only
proposes a candidate *superset* (cell assignment uses the same
monotone ``floor((x - origin) * inv)`` arithmetic for rect corners and
query points, so a containing rect's cell range always covers the
point's cell) and membership is decided by the exact comparison
``lo <= p <= hi`` — bit-identical to the dense oracle.
"""

from __future__ import annotations

import numpy as np

from ..geometry import GeometryError, RectArray
from ..obs.spans import span
from .sparse import DenseStabber, SparseContainment

__all__ = ["GridStabbingIndex", "make_stabber"]

_GRID_MIN_RECTS = 64
"""``mode="auto"`` builds a grid at or above this many rects.  From
about 48 node MBRs up, one grid build plus one 1,024-point call beats
the dense matrix (``docs/PERFORMANCE.md`` has the crossover table)."""

_DENSE_MAX_WORK = 1 << 22
"""``mode="auto"`` with an ``n_points`` hint switches to the grid once
the dense matrix would evaluate this many rect-point pairs — even a
small rect set loses to the grid when probed with enough points."""

_MAX_CELLS = 1 << 22
"""Hard cap on the flattened cell count (indptr memory)."""

_ENTRIES_PER_RECT_CAP = 64
"""Coarsen the grid while the (cell, rect) entry table exceeds
``_ENTRIES_PER_RECT_CAP * n_rects + 1024`` entries."""

STABBER_MODES = ("auto", "grid", "dense")
"""Accepted values for the ``mode`` argument of :func:`make_stabber`."""


def _cell_coords(
    x: np.ndarray, origin: np.ndarray, inv: np.ndarray, top: np.ndarray
) -> np.ndarray:
    """Grid coordinates of the ``(m, d)`` rows of ``x``, one int64 row per axis.

    ``floor((x - origin) * inv)`` clipped into ``[0, top]``, the one
    mapping rect corners and query points share.  Every step is
    monotone in ``x``, which is the superset guarantee: ``lo <= p <= hi``
    implies ``cell(lo) <= cell(p) <= cell(hi)`` axis-wise.  ``fmax``
    sends a NaN to cell 0.  A NaN comes from a NaN or infinite point,
    which no rect contains, or from ``0 * inf``: a coordinate at the
    origin on an axis whose subnormal span saturates ``inv``.  A rect
    whose upper corner sits there contains only points at the origin,
    which map to cell 0 as well.
    """
    with np.errstate(invalid="ignore", over="ignore"):
        c = np.subtract(x.T, origin[:, None], order="C")
        c *= inv[:, None]
    np.floor(c, out=c)
    np.fmax(c, 0.0, out=c)
    np.minimum(c, top[:, None], out=c)
    return c.astype(np.int64)


def _choose_bins(rects: RectArray, span: np.ndarray, max_cells: int) -> np.ndarray:
    """Bins per axis from the median MBR extent, capped to ``max_cells``.

    A cell of roughly the median extent makes the typical rect overlap
    about two cells per axis.  Axes where the median extent is zero
    (point-heavy data) fall back to the mean extent, then to an
    ``n^(1/d)`` spatial hash.
    """
    n = len(rects)
    d = rects.dim
    extents = rects.extents()
    target = np.median(extents, axis=0)
    mean = np.mean(extents, axis=0)
    target = np.where(target > 0.0, target, mean)
    default = float(np.ceil(n ** (1.0 / d)))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        bins = np.where(
            (target > 0.0) & (span > 0.0), span / target, default
        )
    bins = np.where(span > 0.0, np.maximum(bins, 1.0), 1.0)
    bins = np.minimum(bins, float(max_cells))
    total = float(np.prod(bins))
    if total > max_cells:
        bins = np.maximum(1.0, np.floor(bins * (max_cells / total) ** (1.0 / d)))
    return np.maximum(1, np.floor(bins)).astype(np.int64)


def _expand_entries(
    i_lo: np.ndarray, i_hi: np.ndarray, nbins: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """All (flat cell, rect id) pairs covered by each rect's cell range.

    ``i_lo`` and ``i_hi`` hold one row per axis.  Mixed-radix
    expansion, one axis at a time: after axis ``k`` the ``flat`` array
    holds the flattened prefix coordinate of every partial cell tuple,
    and ``rect_idx`` the owning rect of each.
    """
    d, n = i_lo.shape
    rect_idx = np.arange(n, dtype=np.int64)
    flat = np.zeros(n, dtype=np.int64)
    for axis in range(d):
        first = i_lo[axis].take(rect_idx)
        counts = i_hi[axis].take(rect_idx) - first + 1
        total = int(counts.sum())
        starts = np.cumsum(counts) - counts
        offsets = np.arange(total, dtype=np.int64) - np.repeat(starts, counts)
        base = np.repeat(flat * nbins[axis] + first, counts)
        flat = base + offsets
        rect_idx = np.repeat(rect_idx, counts)
    return flat, rect_idx


class GridStabbingIndex:
    """Point-stabbing over a fixed rect set via a uniform grid.

    Build once per rect set (O(n_rects + n_entries)), then
    :meth:`stab` answers point batches in O(candidates) — exact,
    closed-boundary, byte-identical to :class:`DenseStabber`.

    Parameters
    ----------
    rects:
        The rectangles to index (e.g. workload-transformed node MBRs).
    max_cells:
        Upper bound on the flattened cell count; defaults to
        ``min(2**22, max(1024, 8 * len(rects)))``.
    """

    def __init__(self, rects: RectArray, *, max_cells: int | None = None) -> None:
        if max_cells is None:
            max_cells = min(_MAX_CELLS, max(1024, 8 * len(rects)))
        if max_cells < 1:
            raise GeometryError("max_cells must be positive")
        self.rects = rects
        n = len(rects)
        d = rects.dim
        # One contiguous row per axis: lower bounds in rows 0..d-1,
        # upper bounds in rows d..2d-1, one column per rect.
        self._bounds = np.concatenate([rects.lo.T, rects.hi.T])
        if n == 0:
            self._origin = np.zeros(d)
            self._inv = np.zeros(d)
            self._top = np.zeros(d)
            self._strides = np.ones(d, dtype=np.int64)
            self._indptr = np.zeros(2, dtype=np.int64)
            self._entries = np.empty(0, dtype=np.int64)
            return

        origin = rects.lo.min(axis=0)
        span = rects.hi.max(axis=0) - origin
        nbins = _choose_bins(rects, span, max_cells)
        entry_cap = _ENTRIES_PER_RECT_CAP * n + 1024
        while True:
            # Subnormal spans may saturate ``inv`` to +inf; cell
            # arithmetic stays monotone (see ``_cell_coords``), so
            # exactness is unaffected.
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                inv = np.where(span > 0.0, nbins / span, 0.0)
            top = (nbins - 1).astype(np.float64)
            i_lo = _cell_coords(rects.lo, origin, inv, top)
            i_hi = _cell_coords(rects.hi, origin, inv, top)
            n_entries = int(np.prod(i_hi - i_lo + 1, axis=0).sum())
            if n_entries <= entry_cap or bool(np.all(nbins == 1)):
                break
            nbins = np.maximum(1, nbins // 2)

        flat, rect_idx = _expand_entries(i_lo, i_hi, nbins)
        n_cells = int(np.prod(nbins))
        # Sort by (cell, rect id): each cell's candidate run is then
        # ascending, so filtered rows inherit the dense nonzero order.
        order = np.lexsort((rect_idx, flat))
        cells_sorted = flat[order]
        entries = rect_idx[order]
        indptr = np.zeros(n_cells + 1, dtype=np.int64)
        np.cumsum(np.bincount(cells_sorted, minlength=n_cells), out=indptr[1:])

        strides = np.ones(d, dtype=np.int64)
        for axis in range(d - 2, -1, -1):
            strides[axis] = strides[axis + 1] * nbins[axis + 1]

        self._origin = origin
        self._inv = inv
        self._top = top
        self._strides = strides
        self._indptr = indptr
        self._entries = entries

    def __len__(self) -> int:
        return len(self.rects)

    @property
    def n_cells(self) -> int:
        """Flattened cell count of the grid."""
        return self._indptr.shape[0] - 1

    @property
    def n_entries(self) -> int:
        """Total (cell, rect) registrations in the index."""
        return int(self._entries.shape[0])

    @property
    def bins(self) -> tuple[int, ...]:
        """Bins per axis."""
        return tuple(int(t) + 1 for t in self._top)

    def stab(self, points: np.ndarray) -> SparseContainment:
        """Exact CSR containment of ``points`` (closed boundaries).

        Each point's cell holds a run of candidate rect ids, ascending.
        The runs are laid end to end, each axis's bounds are gathered by
        rect id and compared row by row against the repeated point
        coordinates, and a point's CSR row is what its run keeps.
        """
        points = np.asarray(points, dtype=np.float64)
        d = self.rects.dim
        if points.ndim != 2 or points.shape[1] != d:
            raise GeometryError("points must be (n_points, d)")
        m = points.shape[0]
        flat = self._strides @ _cell_coords(
            points, self._origin, self._inv, self._top
        )
        start = self._indptr.take(flat)
        counts = self._indptr.take(flat + 1) - start
        # The run layout and the recount keep the allocation order of
        # the kernel this one replaced: one repeat and a running count
        # were 10-20% faster, but left the capacity sweep's thread
        # arenas untrimmed, 7-25% more peak RSS (docs/PERFORMANCE.md).
        total = int(counts.sum())
        run_starts = np.cumsum(counts) - counts
        offsets = np.arange(total, dtype=np.int64) - np.repeat(run_starts, counts)
        rect_ids = self._entries.take(np.repeat(start, counts) + offsets)
        point_idx = np.repeat(np.arange(m, dtype=np.int64), counts)
        coords = np.repeat(points.T, counts, axis=1)
        inside = self._bounds[:d].take(rect_ids, axis=1) <= coords
        inside &= coords <= self._bounds[d:].take(rect_ids, axis=1)
        keep = inside[0]
        for axis in range(1, d):
            keep &= inside[axis]
        kept_points = point_idx.compress(keep)
        ids = rect_ids.compress(keep)
        indptr = np.zeros(m + 1, dtype=np.int64)
        np.cumsum(np.bincount(kept_points, minlength=m), out=indptr[1:])
        return SparseContainment(
            indptr=indptr, ids=ids, n_rects=len(self.rects)
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        bins = "x".join(str(b) for b in self.bins)
        return (
            f"GridStabbingIndex(n={len(self.rects)}, bins={bins}, "
            f"entries={self.n_entries})"
        )


def make_stabber(
    rects: RectArray, mode: str = "auto", *, n_points: int | None = None
) -> GridStabbingIndex | DenseStabber:
    """Pick a point-stabbing backend for ``rects``.

    ``"auto"`` builds a :class:`GridStabbingIndex` at or above
    ``_GRID_MIN_RECTS`` rects and falls back to the
    :class:`DenseStabber` oracle below (for a few dozen rects the
    dense matrix costs less than building an index); ``"grid"`` and
    ``"dense"`` force the choice.  Both backends return
    byte-identical :class:`~repro.accel.sparse.SparseContainment`.

    ``n_points`` is an optional hint: roughly how many points the
    caller will stab over the stabber's lifetime.  ``"auto"`` then
    also takes the grid whenever the dense matrix would touch
    ``_DENSE_MAX_WORK`` rect-point pairs — a handful of tree nodes
    probed by a whole measurement window (the single-pass sweep of
    :mod:`repro.simulation.stackdist`) favour the grid even though a
    4096-point chunk would not.  The hint only ever changes *speed*:
    backends are bit-exact, so results are hint-independent.
    """
    if mode not in STABBER_MODES:
        raise ValueError(
            f"unknown stabber mode {mode!r}; choices: {STABBER_MODES}"
        )
    hinted = n_points is not None and len(rects) * n_points >= _DENSE_MAX_WORK
    if mode == "grid" or (
        mode == "auto" and (len(rects) >= _GRID_MIN_RECTS or hinted)
    ):
        with span("accel.build", backend="grid", n_rects=len(rects)):
            return GridStabbingIndex(rects)
    with span("accel.build", backend="dense", n_rects=len(rects)):
        return DenseStabber(rects)
