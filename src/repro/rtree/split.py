"""Node-splitting heuristics from Guttman's original R-tree paper.

The TAT loading algorithm of the paper inserts one tuple at a time
"using the quadratic split heuristic of Guttman [3]"; the linear split
is provided as well so the buffer model can be used to compare split
policies — one of the stated applications of the model ("the model can
be used to evaluate the quality of any R-tree update operation, such as
node splitting policies").

A split function receives the overflowing node's rectangles as two
``(d, n)`` float64 arrays ``lo`` and ``hi``, one row per axis and one
column per entry (``max + 1`` of them), and the minimum fill ``m``; it
returns two disjoint index groups, each of size at least ``m``,
covering all entries (:data:`SplitFunction`).  It must not change its
arrays.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .node import product, row_area

__all__ = [
    "SplitFunction",
    "greene_split",
    "linear_split",
    "quadratic_split",
    "SPLIT_FUNCTIONS",
]

SplitFunction = Callable[[np.ndarray, np.ndarray, int], tuple[list[int], list[int]]]
"""``split(lo, hi, min_fill) -> (group_a, group_b)``; see the module
docstring."""


def _validate_split_input(lo: np.ndarray, hi: np.ndarray, min_fill: int) -> None:
    n = lo.shape[1]
    if n < 2:
        raise ValueError("cannot split fewer than two entries")
    if min_fill < 1:
        raise ValueError("min_fill must be at least 1")
    if 2 * min_fill > n:
        raise ValueError(f"min_fill {min_fill} too large for {n} entries")


def quadratic_split(
    lo: np.ndarray, hi: np.ndarray, min_fill: int
) -> tuple[list[int], list[int]]:
    """Guttman's quadratic split.

    *PickSeeds* selects the pair of entries that would waste the most
    area if placed together; *PickNext* repeatedly assigns the entry
    with the greatest difference of enlargement between the two groups,
    breaking ties by smaller enlargement, then smaller area, then fewer
    entries — Guttman's tie-break chain.  Whenever one group must absorb
    all remaining entries to reach ``min_fill``, they are assigned
    wholesale.

    Both steps run on the entries as rows ``[hi; -lo]`` (see
    :mod:`repro.rtree.node`).  Each area is the product of the per-axis
    widths taken left to right and each waste is ``(union - area_i) -
    area_j``, so every area, waste and enlargement equals the one a
    scalar loop over the entries computes.  Ties go to the first pair
    in row-major order and to the first remaining entry in input order,
    which makes the groups identical to the scalar loop's, not merely
    as good.  This needs finite areas, which the tree guarantees (see
    :meth:`~repro.rtree.RTree.insert`): an infinite one would put ``inf
    - inf = NaN`` into the wastes, which ``argmax`` picks and a ``>``
    scan never does.
    """
    _validate_split_input(lo, hi, min_fill)
    d, n = lo.shape
    block = np.concatenate([hi, -lo])
    areas = product(hi - lo)

    # PickSeeds: maximise d = area(J) - area(E1) - area(E2) over the
    # pairs i < j.  waste[i, j] is computed for every pair at once; the
    # pairs j <= i are masked, and argmax over the flattened matrix
    # returns the first maximum in row-major order.
    union = np.maximum(block[:, :, None], block[:, None, :])
    waste = product(union[:d] + union[d:])
    waste -= areas[:, None]
    waste -= areas
    waste[np.tri(n, dtype=bool)] = -np.inf
    seed_a, seed_b = divmod(int(waste.argmax()), n)

    group_a = [seed_a]
    group_b = [seed_b]
    cover_a, cover_b = block[:, seed_a], block[:, seed_b]
    area_a, area_b = areas[seed_a], areas[seed_b]
    # Enlargement of each group's cover by every entry, and PickNext's
    # |d1 - d2| with assigned entries masked below any real difference.
    d1 = _union_areas(block, cover_a) - area_a
    d2 = _union_areas(block, cover_b) - area_b
    assigned = np.zeros(n, dtype=bool)
    assigned[[seed_a, seed_b]] = True
    diff = np.abs(d1 - d2)
    diff[assigned] = -1.0
    n_remaining = n - 2

    while n_remaining:
        # If one group needs every remaining entry to reach min_fill,
        # assign them all to it.
        if len(group_a) + n_remaining == min_fill:
            group_a.extend(np.flatnonzero(~assigned).tolist())
            break
        if len(group_b) + n_remaining == min_fill:
            group_b.extend(np.flatnonzero(~assigned).tolist())
            break

        # PickNext: first remaining entry with maximal |d1 - d2|.
        k = int(diff.argmax())
        assigned[k] = True
        diff[k] = -1.0
        n_remaining -= 1

        e1, e2 = float(d1[k]), float(d2[k])
        if e1 < e2:
            choose_a = True
        elif e2 < e1:
            choose_a = False
        elif area_a != area_b:
            choose_a = area_a < area_b
        else:
            choose_a = len(group_a) <= len(group_b)

        # Only the chosen group's cover can change, and only when entry
        # k lies outside it; then its area, its enlargement vector and
        # the differences are recomputed.  Containment is tested
        # exactly: a zero enlargement does not show it, since a
        # zero-area cover can grow at zero enlargement.
        column = block[:, k]
        if choose_a:
            group_a.append(k)
            if (cover_a >= column).all():
                continue
            cover_a = np.maximum(cover_a, column)
            area_a = row_area(cover_a)
            d1 = _union_areas(block, cover_a) - area_a
        else:
            group_b.append(k)
            if (cover_b >= column).all():
                continue
            cover_b = np.maximum(cover_b, column)
            area_b = row_area(cover_b)
            d2 = _union_areas(block, cover_b) - area_b
        diff = np.abs(d1 - d2)
        diff[assigned] = -1.0

    return group_a, group_b


def _union_areas(block: np.ndarray, row: np.ndarray) -> np.ndarray:
    """Area of each rectangle, a column ``[hi; -lo]`` of ``block``,
    united with the rectangle ``row``.

    The union's width on each axis is ``max(hi, r_hi) + max(-lo,
    -r_lo)``, which is ``max(hi, r_hi) - min(lo, r_lo)``, and the
    widths are multiplied left to right, as :attr:`Rect.area` does, so
    every area is the float a scalar loop over the rectangles computes.
    """
    d = len(block) // 2
    union = np.maximum(block, row[:, None])
    return product(union[:d] + union[d:])


_Corners = tuple[tuple[float, ...], tuple[float, ...]]
"""A rectangle's ``(lo, hi)`` corner tuples."""


def _corners(lo: np.ndarray, hi: np.ndarray) -> list[_Corners]:
    """Each entry's corner tuples, for the scalar splits."""
    return list(zip(map(tuple, lo.T.tolist()), map(tuple, hi.T.tolist())))


def _area(rect: _Corners) -> float:
    area = 1.0
    for a, b in zip(*rect):
        area *= b - a
    return area


def _union(r: _Corners, s: _Corners) -> _Corners:
    return tuple(map(min, r[0], s[0])), tuple(map(max, r[1], s[1]))


def _best_separated_axis(
    lo: np.ndarray, hi: np.ndarray
) -> tuple[int, int, int] | None:
    """Guttman's *LinearPickSeeds*: on each axis, the entry with the
    highest low side and the one with the lowest high side, their
    separation normalised by the axis' width; returns the axis with the
    greatest normalised separation and that pair (lowest high side
    first), or None when every axis' pair is one entry."""
    n = lo.shape[1]
    best_norm = -float("inf")
    best = None
    for axis in range(len(lo)):
        lows = lo[axis].tolist()
        highs = hi[axis].tolist()
        width = max(highs) - min(lows)
        i_high_low = max(range(n), key=lambda k: lows[k])
        i_low_high = min(range(n), key=lambda k: highs[k])
        if i_high_low == i_low_high:
            continue
        separation = lows[i_high_low] - highs[i_low_high]
        norm = separation / width if width > 0 else separation
        if norm > best_norm:
            best_norm = norm
            best = (axis, i_low_high, i_high_low)
    return best


def linear_split(
    lo: np.ndarray, hi: np.ndarray, min_fill: int
) -> tuple[list[int], list[int]]:
    """Guttman's linear split.

    *LinearPickSeeds* finds, on each axis, the pair with the greatest
    normalised separation (highest low side vs. lowest high side) and
    seeds the groups with the winning pair; the remaining entries are
    assigned in arbitrary (input) order to the group whose cover grows
    the least, with the same min-fill guarantee as the quadratic split.
    """
    _validate_split_input(lo, hi, min_fill)
    rects = _corners(lo, hi)
    n = len(rects)
    best = _best_separated_axis(lo, hi)
    seed_a, seed_b = (0, 1) if best is None else best[1:]

    group_a = [seed_a]
    group_b = [seed_b]
    cover_a = rects[seed_a]
    cover_b = rects[seed_b]
    remaining = [k for k in range(n) if k != seed_a and k != seed_b]

    for pos, k in enumerate(remaining):
        rest = len(remaining) - pos
        if len(group_a) + rest == min_fill:
            group_a.extend(remaining[pos:])
            break
        if len(group_b) + rest == min_fill:
            group_b.extend(remaining[pos:])
            break
        d1 = _area(_union(cover_a, rects[k])) - _area(cover_a)
        d2 = _area(_union(cover_b, rects[k])) - _area(cover_b)
        if d1 < d2 or (d1 == d2 and len(group_a) <= len(group_b)):
            group_a.append(k)
            cover_a = _union(cover_a, rects[k])
        else:
            group_b.append(k)
            cover_b = _union(cover_b, rects[k])

    return group_a, group_b


def greene_split(
    lo: np.ndarray, hi: np.ndarray, min_fill: int
) -> tuple[list[int], list[int]]:
    """Greene's split (ICDE 1989) — the classic third comparator.

    Choose the axis with the greatest *normalised separation* between
    the linear-pick-seeds pair, sort the entries by their lower value
    on that axis, and cut the sorted order in half.  The halves may
    violate a large ``min_fill``, so entries are rebalanced from the
    bigger half when needed (Greene's original splits at the midpoint
    with m = M/2, where no rebalance is ever required).
    """
    _validate_split_input(lo, hi, min_fill)
    n = lo.shape[1]
    best = _best_separated_axis(lo, hi)
    lows = lo[0 if best is None else best[0]].tolist()
    order = sorted(range(n), key=lambda k: lows[k])
    half = max(min_fill, min(n - min_fill, (n + 1) // 2))
    return order[:half], order[half:]


SPLIT_FUNCTIONS: dict[str, SplitFunction] = {
    "quadratic": quadratic_split,
    "linear": linear_split,
    "greene": greene_split,
}
"""Registry used by loaders and the experiment harness.

``repro.rtree.rstar`` registers a fourth entry, ``"rstar"``, on import.
"""
