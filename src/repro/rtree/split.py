"""Node-splitting heuristics from Guttman's original R-tree paper.

The TAT loading algorithm of the paper inserts one tuple at a time
"using the quadratic split heuristic of Guttman [3]"; the linear split
is provided as well so the buffer model can be used to compare split
policies — one of the stated applications of the model ("the model can
be used to evaluate the quality of any R-tree update operation, such as
node splitting policies").

A split function receives the overflowing list of entries (``max + 1``
of them) and the minimum fill ``m`` and returns two disjoint index
groups, each of size at least ``m``, covering all entries.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from ..geometry import Rect
from .node import Entry

__all__ = [
    "SplitFunction",
    "greene_split",
    "linear_split",
    "quadratic_split",
    "SPLIT_FUNCTIONS",
    "union_areas",
]

SplitFunction = Callable[[Sequence[Entry], int], tuple[list[int], list[int]]]


def _validate_split_input(entries: Sequence[Entry], min_fill: int) -> None:
    if len(entries) < 2:
        raise ValueError("cannot split fewer than two entries")
    if min_fill < 1:
        raise ValueError("min_fill must be at least 1")
    if 2 * min_fill > len(entries):
        raise ValueError(
            f"min_fill {min_fill} too large for {len(entries)} entries"
        )


def quadratic_split(
    entries: Sequence[Entry], min_fill: int
) -> tuple[list[int], list[int]]:
    """Guttman's quadratic split.

    *PickSeeds* selects the pair of entries that would waste the most
    area if placed together; *PickNext* repeatedly assigns the entry
    with the greatest difference of enlargement between the two groups,
    breaking ties by smaller enlargement, then smaller area, then fewer
    entries — Guttman's tie-break chain.  Whenever one group must absorb
    all remaining entries to reach ``min_fill``, they are assigned
    wholesale.

    Both steps run on numpy arrays of the corners, one row per axis.
    Each area is the product of the per-axis widths taken left to right
    and each waste is ``(union - area_i) - area_j``, so every area,
    waste and enlargement equals the one a scalar loop over the entries
    computes.  Ties go to the first pair in row-major order and to the
    first remaining entry in input order, which makes the groups
    identical to the scalar loop's, not merely as good.  This needs
    finite coordinates, which :class:`~repro.geometry.Rect` guarantees:
    an infinite one would put ``inf - inf = NaN`` into the areas, which
    ``argmax`` picks and a ``>`` scan never does.
    """
    _validate_split_input(entries, min_fill)
    n = len(entries)
    rects = [e.rect for e in entries]
    # Transposed corners, (d, n): one contiguous row per axis.
    los = np.array([r.lo for r in rects]).T.copy()
    his = np.array([r.hi for r in rects]).T.copy()
    areas = _product(his - los)

    # PickSeeds: maximise d = area(J) - area(E1) - area(E2) over the
    # pairs i < j.  waste[i, j] is computed for every pair at once; the
    # pairs j <= i are masked, and argmax over the flattened matrix
    # returns the first maximum in row-major order.
    widths = np.maximum(his[:, :, None], his[:, None, :])
    widths -= np.minimum(los[:, :, None], los[:, None, :])
    waste = _product(widths)
    waste -= areas[:, None]
    waste -= areas
    waste[np.tri(n, dtype=bool)] = -np.inf
    seed_a, seed_b = divmod(int(waste.argmax()), n)

    group_a = [seed_a]
    group_b = [seed_b]
    cover_a, cover_b = rects[seed_a], rects[seed_b]
    area_a, area_b = cover_a.area, cover_b.area
    # Enlargement of each group's cover by every entry, and PickNext's
    # |d1 - d2| with assigned entries masked below any real difference.
    d1 = union_areas(los, his, cover_a) - area_a
    d2 = union_areas(los, his, cover_b) - area_b
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
        if choose_a:
            group_a.append(k)
            if cover_a.contains_rect(rects[k]):
                continue
            cover_a = cover_a.union(rects[k])
            area_a = cover_a.area
            d1 = union_areas(los, his, cover_a) - area_a
        else:
            group_b.append(k)
            if cover_b.contains_rect(rects[k]):
                continue
            cover_b = cover_b.union(rects[k])
            area_b = cover_b.area
            d2 = union_areas(los, his, cover_b) - area_b
        diff = np.abs(d1 - d2)
        diff[assigned] = -1.0

    return group_a, group_b


def _product(widths: np.ndarray) -> np.ndarray:
    """Product over axis 0, multiplied left to right.

    ``np.prod`` may reorder (pairwise or vectorised) the multiplications;
    this keeps the order of ``1.0 * w_0 * w_1 * ...``.
    """
    result = widths[0]
    for axis in range(1, len(widths)):
        result = result * widths[axis]
    return result


def union_areas(los: np.ndarray, his: np.ndarray, box: Rect) -> np.ndarray:
    """Area of each rectangle, a column of ``los``/``his``, united with
    ``box``.

    The union's width on each axis is ``max(hi, box.hi) - min(lo,
    box.lo)`` and the widths are multiplied left to right, as
    :attr:`Rect.area` does, so every area is the float a scalar loop
    over the rectangles computes.
    """
    result = None
    for row_lo, row_hi, a, b in zip(los, his, box.lo, box.hi):
        width = np.maximum(row_hi, b)
        width -= np.minimum(row_lo, a)
        if result is None:
            result = width
        else:
            result *= width
    return result


def linear_split(
    entries: Sequence[Entry], min_fill: int
) -> tuple[list[int], list[int]]:
    """Guttman's linear split.

    *LinearPickSeeds* finds, on each axis, the pair with the greatest
    normalised separation (highest low side vs. lowest high side) and
    seeds the groups with the winning pair; the remaining entries are
    assigned in arbitrary (input) order to the group whose cover grows
    the least, with the same min-fill guarantee as the quadratic split.
    """
    _validate_split_input(entries, min_fill)
    rects = [e.rect for e in entries]
    n = len(rects)
    dim = rects[0].dim

    best_norm = -float("inf")
    seed_a, seed_b = 0, 1
    for axis in range(dim):
        lows = [r.lo[axis] for r in rects]
        highs = [r.hi[axis] for r in rects]
        width = max(highs) - min(lows)
        # Entry with the highest low side and entry with the lowest
        # high side form the most separated pair on this axis.
        i_high_low = max(range(n), key=lambda k: lows[k])
        i_low_high = min(range(n), key=lambda k: highs[k])
        if i_high_low == i_low_high:
            continue
        separation = lows[i_high_low] - highs[i_low_high]
        norm = separation / width if width > 0 else separation
        if norm > best_norm:
            best_norm = norm
            seed_a, seed_b = i_low_high, i_high_low

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
        d1 = cover_a.union(rects[k]).area - cover_a.area
        d2 = cover_b.union(rects[k]).area - cover_b.area
        if d1 < d2 or (d1 == d2 and len(group_a) <= len(group_b)):
            group_a.append(k)
            cover_a = cover_a.union(rects[k])
        else:
            group_b.append(k)
            cover_b = cover_b.union(rects[k])

    return group_a, group_b


def greene_split(
    entries: Sequence[Entry], min_fill: int
) -> tuple[list[int], list[int]]:
    """Greene's split (ICDE 1989) — the classic third comparator.

    Choose the axis with the greatest *normalised separation* between
    the linear-pick-seeds pair, sort the entries by their lower value
    on that axis, and cut the sorted order in half.  The halves may
    violate a large ``min_fill``, so entries are rebalanced from the
    bigger half when needed (Greene's original splits at the midpoint
    with m = M/2, where no rebalance is ever required).
    """
    _validate_split_input(entries, min_fill)
    rects = [e.rect for e in entries]
    n = len(rects)
    dim = rects[0].dim

    best_axis = 0
    best_norm = -float("inf")
    for axis in range(dim):
        lows = [r.lo[axis] for r in rects]
        highs = [r.hi[axis] for r in rects]
        width = max(highs) - min(lows)
        i_high_low = max(range(n), key=lambda k: lows[k])
        i_low_high = min(range(n), key=lambda k: highs[k])
        if i_high_low == i_low_high:
            continue
        separation = lows[i_high_low] - highs[i_low_high]
        norm = separation / width if width > 0 else separation
        if norm > best_norm:
            best_norm = norm
            best_axis = axis

    order = sorted(range(n), key=lambda k: rects[k].lo[best_axis])
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
