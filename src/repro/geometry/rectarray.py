"""Vectorised storage for large collections of rectangles.

The analytical model and the simulator both operate on *every* node MBR
of a tree for *every* query, so the hot paths are expressed over a
struct-of-arrays representation: ``lo`` and ``hi`` are ``(n, d)`` float
arrays.  :class:`RectArray` is deliberately minimal — it is a data
carrier plus the handful of bulk operations the model needs (areas,
extents, extension, clipping, containment tests).
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence

import numpy as np

from .rect import GeometryError, Rect

__all__ = ["RectArray"]

_DENSE_CHUNK_CELLS = 16_000_000
"""Point-chunk size (in boolean cells) for the dense containment
kernels; bounds peak memory of intermediates to tens of megabytes."""


class RectArray:
    """An immutable array of ``n`` axis-parallel rectangles in d dimensions.

    Parameters
    ----------
    lo, hi:
        Arrays of shape ``(n, d)`` with ``lo <= hi`` elementwise.

    The constructor copies and validates its input; all bulk operations
    return fresh arrays and never mutate ``self``.
    """

    __slots__ = ("lo", "hi", "_hash")

    def __init__(self, lo: np.ndarray, hi: np.ndarray) -> None:
        lo = np.array(lo, dtype=np.float64, copy=True)
        hi = np.array(hi, dtype=np.float64, copy=True)
        if lo.ndim != 2 or hi.ndim != 2:
            raise GeometryError("lo/hi must be 2-D arrays of shape (n, d)")
        if lo.shape != hi.shape:
            raise GeometryError(f"shape mismatch: {lo.shape} != {hi.shape}")
        if lo.shape[1] < 1:
            raise GeometryError("rectangles must have at least one dimension")
        if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
            raise GeometryError("non-finite coordinates are not allowed")
        if (lo > hi).any():
            raise GeometryError("lo > hi for at least one rectangle")
        lo.setflags(write=False)
        hi.setflags(write=False)
        self.lo = lo
        self.hi = hi
        self._hash: int | None = None

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_rects(cls, rects: Iterable[Rect]) -> "RectArray":
        """Build from an iterable of :class:`Rect` objects."""
        rects = list(rects)
        if not rects:
            raise GeometryError("RectArray.from_rects() requires >= 1 rectangle")
        dim = rects[0].dim
        if any(r.dim != dim for r in rects):
            raise GeometryError("mixed dimensionality in from_rects()")
        lo = np.array([r.lo for r in rects], dtype=np.float64)
        hi = np.array([r.hi for r in rects], dtype=np.float64)
        return cls(lo, hi)

    @classmethod
    def from_points(cls, points: np.ndarray) -> "RectArray":
        """Degenerate rectangles from an ``(n, d)`` array of points."""
        points = np.asarray(points, dtype=np.float64)
        if points.ndim != 2:
            raise GeometryError("points must be an (n, d) array")
        return cls(points, points)

    @classmethod
    def empty(cls, dim: int) -> "RectArray":
        """An array of zero rectangles (useful as an identity for concat)."""
        z = np.empty((0, dim), dtype=np.float64)
        return cls(z, z)

    @classmethod
    def concatenate(cls, parts: Sequence["RectArray"]) -> "RectArray":
        """Concatenate several arrays of matching dimensionality."""
        if not parts:
            raise GeometryError("concatenate() requires at least one part")
        dim = parts[0].dim
        if any(p.dim != dim for p in parts):
            raise GeometryError("mixed dimensionality in concatenate()")
        lo = np.concatenate([p.lo for p in parts], axis=0)
        hi = np.concatenate([p.hi for p in parts], axis=0)
        return cls(lo, hi)

    # ------------------------------------------------------------------
    # Shape and indexing
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self.lo.shape[0]

    @property
    def dim(self) -> int:
        """Number of dimensions."""
        return self.lo.shape[1]

    def __getitem__(self, index) -> "RectArray":
        """Slice / fancy-index into a new (possibly smaller) array."""
        lo = np.atleast_2d(self.lo[index])
        hi = np.atleast_2d(self.hi[index])
        return RectArray(lo, hi)

    def rect(self, i: int) -> Rect:
        """The ``i``-th rectangle as a :class:`Rect`."""
        return Rect(tuple(self.lo[i]), tuple(self.hi[i]))

    def __iter__(self) -> Iterator[Rect]:
        for i in range(len(self)):
            yield self.rect(i)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RectArray):
            return NotImplemented
        return (
            self.lo.shape == other.lo.shape
            and bool(np.array_equal(self.lo, other.lo))
            and bool(np.array_equal(self.hi, other.hi))
        )

    def __hash__(self) -> int:
        # tobytes() serialises both arrays, so the hash is computed at
        # most once; the arrays are read-only, making it stable.
        if self._hash is None:
            self._hash = hash(
                (self.lo.shape, self.lo.tobytes(), self.hi.tobytes())
            )
        return self._hash

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"RectArray(n={len(self)}, dim={self.dim})"

    # ------------------------------------------------------------------
    # Bulk measures
    # ------------------------------------------------------------------
    def extents(self) -> np.ndarray:
        """``(n, d)`` array of side lengths."""
        return self.hi - self.lo

    def centers(self) -> np.ndarray:
        """``(n, d)`` array of center points."""
        return (self.lo + self.hi) / 2.0

    def areas(self) -> np.ndarray:
        """``(n,)`` array of d-dimensional volumes (``A_ij``)."""
        return np.prod(self.extents(), axis=1)

    def margins(self) -> np.ndarray:
        """``(n,)`` array of summed side lengths (perimeter/2 in 2-D)."""
        return np.sum(self.extents(), axis=1)

    def total_area(self) -> float:
        """Sum of all areas — the paper's ``A``."""
        return float(np.sum(self.areas()))

    def total_extent(self, axis: int) -> float:
        """Sum of extents along one axis — the paper's ``L_x`` / ``L_y``."""
        return float(np.sum(self.extents()[:, axis]))

    def mbr(self) -> Rect:
        """Minimum bounding rectangle of the whole collection."""
        if len(self) == 0:
            raise GeometryError("mbr() of an empty RectArray")
        return Rect(tuple(self.lo.min(axis=0)), tuple(self.hi.max(axis=0)))

    # ------------------------------------------------------------------
    # Bulk transforms
    # ------------------------------------------------------------------
    def extended(self, amounts: Sequence[float]) -> "RectArray":
        """Kamel–Faloutsos extension of every rectangle (grow ``hi``)."""
        amounts = np.asarray(amounts, dtype=np.float64)
        if amounts.shape != (self.dim,):
            raise GeometryError("amounts must have one entry per axis")
        if (amounts < 0).any():
            raise GeometryError("extension amounts must be non-negative")
        return RectArray(self.lo, self.hi + amounts)

    def expanded_centered(self, amounts: Sequence[float]) -> "RectArray":
        """Center-preserving expansion of every rectangle (§3.2, Fig. 4)."""
        amounts = np.asarray(amounts, dtype=np.float64)
        if amounts.shape != (self.dim,):
            raise GeometryError("amounts must have one entry per axis")
        if (amounts < 0).any():
            raise GeometryError("expansion amounts must be non-negative")
        half = amounts / 2.0
        return RectArray(self.lo - half, self.hi + half)

    def clipped(self, window: Rect) -> "RectArray":
        """Clip every rectangle to ``window``.

        Rectangles disjoint from the window collapse to degenerate
        (zero-area) slivers on the window boundary, which contribute
        zero to every area-based quantity — exactly the behaviour the
        clipped access-probability formula of §3.1 needs.
        """
        if window.dim != self.dim:
            raise GeometryError("window dimensionality mismatch")
        w_lo = np.asarray(window.lo)
        w_hi = np.asarray(window.hi)
        lo = np.clip(self.lo, w_lo, w_hi)
        hi = np.clip(self.hi, w_lo, w_hi)
        hi = np.maximum(hi, lo)
        return RectArray(lo, hi)

    def clipped_areas(self, window: Rect) -> np.ndarray:
        """``(n,)`` areas of ``R ∩ window`` (zero where disjoint).

        This is the numerator of the clipped access probability without
        materialising an intermediate :class:`RectArray`.
        """
        if window.dim != self.dim:
            raise GeometryError("window dimensionality mismatch")
        lo = np.maximum(self.lo, np.asarray(window.lo))
        hi = np.minimum(self.hi, np.asarray(window.hi))
        sides = np.maximum(hi - lo, 0.0)
        return np.prod(sides, axis=1)

    def translated(self, offsets: Sequence[float]) -> "RectArray":
        """Shift every rectangle by ``offsets``."""
        offsets = np.asarray(offsets, dtype=np.float64)
        if offsets.shape != (self.dim,):
            raise GeometryError("offsets must have one entry per axis")
        return RectArray(self.lo + offsets, self.hi + offsets)

    def normalized(self, window: Rect | None = None) -> "RectArray":
        """Affinely map the collection into the unit cube.

        Parameters
        ----------
        window:
            The source window to map from.  Defaults to the collection's
            own MBR, which maps the data snugly into ``[0, 1]^d`` — the
            normalisation step the paper applies to every data set.

        Axes along which the window is degenerate are centred at 0.5.
        """
        if window is None:
            window = self.mbr()
        w_lo = np.asarray(window.lo)
        span = np.asarray(window.hi) - w_lo
        safe = np.where(span > 0.0, span, 1.0)
        lo = (self.lo - w_lo) / safe
        hi = (self.hi - w_lo) / safe
        flat = span <= 0.0
        if flat.any():
            lo[:, flat] = 0.5
            hi[:, flat] = 0.5
        return RectArray(lo, hi)

    # ------------------------------------------------------------------
    # Bulk predicates
    # ------------------------------------------------------------------
    def contains_points(self, points: np.ndarray) -> np.ndarray:
        """Boolean ``(n_points, n_rects)`` containment matrix.

        ``out[q, j]`` is True iff rectangle ``j`` contains point ``q``
        (closed on all sides).  This is the dense oracle the sparse
        kernels of :mod:`repro.accel` are verified against; peak
        memory is bounded the same way :meth:`count_points_inside`
        bounds it — the work proceeds in point chunks of ~16M cells
        and one axis at a time, so the only full-size allocation is
        the output matrix itself (never the ``(n_points, n_rects, d)``
        broadcast temporaries, which would OOM on large trees during
        equivalence tests).
        """
        points = np.asarray(points, dtype=np.float64)
        if points.ndim != 2 or points.shape[1] != self.dim:
            raise GeometryError("points must be (n_points, d)")
        n_points = points.shape[0]
        n_rects = len(self)
        out = np.empty((n_points, n_rects), dtype=bool)
        if n_points == 0 or n_rects == 0:
            return out
        chunk = max(1, _DENSE_CHUNK_CELLS // n_rects)
        lo_t = self.lo.T
        hi_t = self.hi.T
        for start in range(0, n_points, chunk):
            stop = min(start + chunk, n_points)
            block = out[start:stop]
            np.less_equal(lo_t[0], points[start:stop, 0, None], out=block)
            for axis in range(1, self.dim):
                coords = points[start:stop, axis, None]
                block &= lo_t[axis] <= coords
                block &= coords <= hi_t[axis]
            block &= points[start:stop, 0, None] <= hi_t[0]
        return out

    def count_points_inside(self, points: np.ndarray) -> np.ndarray:
        """``(n_rects,)`` count of ``points`` inside each rectangle.

        Used by the data-driven access model (Eq. 4): the access
        probability of an (expanded) MBR is the fraction of data centres
        it contains.  Chunked over points to bound peak memory.
        """
        points = np.asarray(points, dtype=np.float64)
        if points.ndim != 2 or points.shape[1] != self.dim:
            raise GeometryError("points must be (n_points, d)")
        n_rects = len(self)
        counts = np.zeros(n_rects, dtype=np.int64)
        if n_rects == 0 or points.shape[0] == 0:
            return counts
        # ~16M boolean cells per chunk keeps peak memory modest.
        chunk = max(1, _DENSE_CHUNK_CELLS // max(n_rects, 1))
        for start in range(0, points.shape[0], chunk):
            block = points[start : start + chunk]
            counts += self.contains_points(block).sum(axis=0)
        return counts

    def intersects_rect(self, rect: Rect) -> np.ndarray:
        """Boolean ``(n,)`` mask of rectangles intersecting ``rect``."""
        if rect.dim != self.dim:
            raise GeometryError("rect dimensionality mismatch")
        r_lo = np.asarray(rect.lo)
        r_hi = np.asarray(rect.hi)
        return np.all((self.lo <= r_hi) & (r_lo <= self.hi), axis=1)
