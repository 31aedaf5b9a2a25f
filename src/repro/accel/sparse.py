"""Sparse (CSR) point-in-rectangle containment results.

The §4 validation simulator asks, for a batch of query points, *which*
node MBRs contain each point.  The dense answer is a boolean
``(n_points, n_rects)`` matrix — quadratic in space and time even
though each query typically touches only a handful of nodes (one or
two per tree level).  :class:`SparseContainment` stores the same
information in CSR form: ``indptr`` delimits each query's run inside
``ids``, and ids within a row are ascending (level-major = top-down),
matching the order ``np.nonzero`` yields on a dense row.

:class:`DenseStabber` is the reference ("oracle") producer: it
evaluates the full dense matrix via
:meth:`~repro.geometry.RectArray.contains_points` and compresses it.
The grid-accelerated producer lives in :mod:`repro.accel.grid`; both
must return byte-identical results.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..geometry import GeometryError, RectArray

__all__ = ["DenseStabber", "SparseContainment"]


@dataclass(frozen=True)
class SparseContainment:
    """CSR containment: row ``q`` holds the rect ids containing point ``q``.

    ``indptr`` has ``n_points + 1`` entries; row ``q`` is
    ``ids[indptr[q]:indptr[q + 1]]``, ascending.
    """

    indptr: np.ndarray
    ids: np.ndarray
    n_rects: int

    def __post_init__(self) -> None:
        if self.indptr.ndim != 1 or self.ids.ndim != 1:
            raise GeometryError("indptr and ids must be 1-D arrays")
        if self.indptr.shape[0] < 1:
            raise GeometryError("indptr needs at least one entry")
        if int(self.indptr[-1]) != self.ids.shape[0]:
            raise GeometryError("indptr[-1] must equal len(ids)")

    @property
    def n_points(self) -> int:
        """Number of query points (rows)."""
        return self.indptr.shape[0] - 1

    @property
    def nnz(self) -> int:
        """Total number of (point, rect) containment pairs."""
        return self.ids.shape[0]

    def row(self, q: int) -> np.ndarray:
        """Ascending rect ids containing point ``q``."""
        return self.ids[self.indptr[q] : self.indptr[q + 1]]

    def to_dense(self) -> np.ndarray:
        """The equivalent boolean ``(n_points, n_rects)`` matrix."""
        out = np.zeros((self.n_points, self.n_rects), dtype=bool)
        rows = np.repeat(
            np.arange(self.n_points), np.diff(self.indptr.astype(np.int64))
        )
        out[rows, self.ids] = True
        return out

    @classmethod
    def from_dense(cls, matrix: np.ndarray) -> "SparseContainment":
        """Compress a boolean containment matrix to CSR.

        ``np.nonzero`` scans row-major, so ids come out grouped by row
        and ascending within each row — the exact order the simulator's
        per-query loop consumed from the dense matrix.
        """
        matrix = np.asarray(matrix, dtype=bool)
        if matrix.ndim != 2:
            raise GeometryError("containment matrix must be 2-D")
        counts = matrix.sum(axis=1, dtype=np.int64)
        indptr = np.zeros(matrix.shape[0] + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        ids = np.nonzero(matrix)[1].astype(np.int64, copy=False)
        return cls(indptr=indptr, ids=ids, n_rects=matrix.shape[1])


class DenseStabber:
    """The dense reference producer of :class:`SparseContainment`.

    Wraps a :class:`~repro.geometry.RectArray` and answers
    :meth:`stab` by evaluating the full containment matrix (chunked
    internally by ``RectArray.contains_points`` to bound peak memory)
    and compressing it.  Kept as the oracle the grid index is tested
    against, and as the fast path for small rect sets where building a
    grid costs more than it saves.
    """

    def __init__(self, rects: RectArray) -> None:
        self.rects = rects

    def __len__(self) -> int:
        return len(self.rects)

    def stab(self, points: np.ndarray) -> SparseContainment:
        """Exact CSR containment of ``points`` against all rects."""
        return SparseContainment.from_dense(self.rects.contains_points(points))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"DenseStabber(n={len(self.rects)})"
