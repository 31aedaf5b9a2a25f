"""Per-node access probabilities ``A^Q_ij`` (paper §3.1–§3.2).

These functions map node MBRs to the probability that a query touches
each node, under the paper's three query models:

* **uniform point / region queries** with the boundary correction of
  §3.1 (suggested by Pagel et al.): the query's top-right corner is
  uniform over ``U' = Π_k [q_k, 1]`` and the probability of touching
  ``R`` is ``area(R' ∩ U') / area(U')`` where ``R'`` is ``R`` with its
  top-right corner pushed out by the query extents;
* the **original Kamel–Faloutsos formula** without clipping (kept for
  the ablation of how much the correction matters);
* **data-driven queries** (§3.2): the query is centred on the centre of
  a uniformly chosen data rectangle, so the probability of touching
  ``R`` is the fraction of data centres inside ``R`` expanded by the
  query extents about its own centre (Eq. 4).

All functions are d-dimensional and vectorised over the node array.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from ..accel import SortedRangeCounter
from ..accel import count_points_inside as _accel_count
from ..geometry import GeometryError, Rect, RectArray, unit_rect

__all__ = [
    "data_driven_probabilities",
    "query_corner_domain",
    "raw_region_probabilities",
    "uniform_point_probabilities",
    "uniform_region_probabilities",
]


def _validate_extents(extents: Sequence[float], dim: int) -> np.ndarray:
    extents = np.asarray(extents, dtype=np.float64)
    if extents.shape != (dim,):
        raise GeometryError(
            f"query extents must have {dim} entries, got shape {extents.shape}"
        )
    if (extents < 0).any():
        raise GeometryError("query extents must be non-negative")
    if (extents >= 1).any():
        raise GeometryError("query extents must be smaller than the unit cube")
    return extents


def query_corner_domain(extents: Sequence[float], dim: int) -> Rect:
    """``U'`` — the domain of the query's top-right corner (§3.1, Fig. 3).

    For the whole query region to fit within the unit cube, the corner
    must lie in ``Π_k [q_k, 1]``.
    """
    extents = _validate_extents(extents, dim)
    return Rect(tuple(extents), (1.0,) * dim)


def uniform_region_probabilities(
    rects: RectArray, extents: Sequence[float]
) -> np.ndarray:
    """Clipped access probabilities for uniform region queries.

    Implements the corrected formula of §3.1:

        ``A^Q_ij = area(R' ∩ U') / area(U')``

    where ``R'`` is the Kamel–Faloutsos extension of ``R`` (top-right
    corner grown by the query extents) and ``U'`` the corner domain.
    """
    extents = _validate_extents(extents, rects.dim)
    domain = query_corner_domain(extents, rects.dim)
    numerators = rects.extended(extents).clipped_areas(domain)
    return numerators / domain.area


def uniform_point_probabilities(rects: RectArray) -> np.ndarray:
    """Access probabilities for uniform point queries.

    The special case ``q = 0``: the probability of touching ``R`` is
    the area of ``R ∩ U`` — "the probability of accessing ``R_ij`` is
    just the area of ``R_ij``" for data normalised into the unit cube.
    """
    return rects.clipped_areas(unit_rect(rects.dim))


def raw_region_probabilities(
    rects: RectArray, extents: Sequence[float]
) -> np.ndarray:
    """The original (unclipped) Kamel–Faloutsos access "probabilities".

    ``Π_k (X_k + q_k)`` — the area of the extended rectangle, which can
    exceed 1 near the boundary (Fig. 3b).  Kept for the clipping
    ablation; summing these over all nodes yields Eq. 2:
    ``A + qx·Ly + qy·Lx + M·qx·qy``.
    """
    extents = _validate_extents(extents, rects.dim)
    return np.prod(rects.extents() + extents, axis=1)


def data_driven_probabilities(
    rects: RectArray,
    centers: np.ndarray,
    extents: Sequence[float],
    *,
    counter: SortedRangeCounter | None = None,
) -> np.ndarray:
    """Access probabilities under the data-driven query model (Eq. 4).

    A query is a box of the given extents centred on the centre ``c_j``
    of a uniformly chosen data rectangle.  The query touches ``R`` iff
    ``c_j`` falls inside ``R'``, the centre-preserving expansion of
    ``R`` by the query extents (Fig. 4), so

        ``A^Q_ij = (1/n) Σ_k y_ijk``

    with ``y_ijk = 1`` iff centre ``k`` is inside ``R'_ij``.  With zero
    extents this degenerates to the point-query indicator ``x_ijk``.

    The counting step runs on :func:`repro.accel.count_points_inside`,
    which picks its kernel by size; ``counter`` lets callers with a
    fixed centre set amortise its sort across calls.  Both kernels are
    bit-exact, so the probabilities do not depend on the choice.
    """
    extents = _validate_extents(extents, rects.dim)
    centers = np.asarray(centers, dtype=np.float64)
    if centers.ndim != 2 or centers.shape[1] != rects.dim:
        raise GeometryError("centers must be an (n, d) array")
    if centers.shape[0] == 0:
        raise GeometryError("the data-driven model needs at least one center")
    expanded = rects.expanded_centered(extents)
    counts = _accel_count(expanded, centers, counter=counter)
    return counts / centers.shape[0]
