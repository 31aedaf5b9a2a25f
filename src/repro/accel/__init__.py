"""Spatial-acceleration kernels for the simulator and the model.

The two compute-dominant paths of the reproduction — the §4 validation
simulator and the data-driven access probabilities (Eq. 4) — both
reduce to point-vs-rectangle problems over a *fixed* rect or point
set.  This package holds the sub-quadratic kernels they run on:

* :class:`GridStabbingIndex` / :func:`make_stabber` — uniform-grid
  point stabbing: which rects contain each query point, as a
  :class:`SparseContainment` CSR result (:class:`DenseStabber` is the
  dense oracle);
* :class:`SortedRangeCounter` / :func:`count_points_inside` — offline
  sorted range counting: how many points fall inside each rect;
* :func:`segmented_left_rank` — per-segment left ranks from a
  bottom-up merge tree, the inner kernel of the single-pass
  stack-distance sweep.

The last two share one sorted-block layout (``rangecount.py``).
Every kernel is *bit-exact* against its dense reference (closed
boundaries, degenerate slivers included).  :func:`make_stabber`'s
``auto`` mode selects by input size and can be overridden;
:func:`count_points_inside` picks its kernel by size alone, or takes
a prebuilt counter.  See ``docs/PERFORMANCE.md``.
"""

from __future__ import annotations

from .grid import GridStabbingIndex, make_stabber
from .rangecount import (
    SortedRangeCounter,
    count_points_inside,
    segmented_left_rank,
)
from .sparse import DenseStabber, SparseContainment

__all__ = [
    "DenseStabber",
    "GridStabbingIndex",
    "SortedRangeCounter",
    "SparseContainment",
    "count_points_inside",
    "make_stabber",
    "segmented_left_rank",
]
