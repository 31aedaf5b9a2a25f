"""The R*-tree of Beckmann, Kriegel, Schneider & Seeger (SIGMOD 1990).

Reference [1] of the paper.  The buffer model is explicitly pitched as
a way "to evaluate the quality of any R-tree update operation", so this
module provides the strongest classic insertion policy as an extension:

* **ChooseSubtree** picks the child with the least *overlap*
  enlargement when the children are leaves (ties: least area
  enlargement, then least area), and the least area enlargement
  otherwise;
* **R\\* split** chooses the split axis by minimum total margin over
  all candidate distributions, then the distribution on that axis with
  minimum overlap (ties: minimum total area);
* **forced reinsertion**: the first time a node at a given level
  overflows during one data insertion, the 30% of its entries whose
  centres lie furthest from the node centre are removed and reinserted
  (closest first) instead of splitting.

The split function is registered in
:data:`repro.rtree.split.SPLIT_FUNCTIONS` under ``"rstar"`` so it can
also be used stand-alone with the plain Guttman insertion of
:class:`~repro.rtree.RTree`.
"""

from __future__ import annotations

import math
from typing import Any, Sequence

import numpy as np

from ..geometry import GeometryError, Rect, RectArray
from ..obs.spans import span
from .node import Node, product, row_area, row_corners
from .split import SPLIT_FUNCTIONS, _validate_split_input
from .tree import RTree

__all__ = ["RStarTree", "rstar_split", "rstar_tree"]

DEFAULT_REINSERT_FRACTION = 0.3
"""p = 30% of M+1 entries are reinserted on first overflow (R* paper)."""

_Entry = tuple[np.ndarray, float, Any]
"""An entry in flight: its row ``[hi; -lo]``, its area, its item or
child."""


# ----------------------------------------------------------------------
# The R* split (usable as a plain split function too)
# ----------------------------------------------------------------------
def rstar_split(
    lo: np.ndarray, hi: np.ndarray, min_fill: int
) -> tuple[list[int], list[int]]:
    """Topological R* split: margin-minimal axis, overlap-minimal cut.

    Every margin, overlap and area is the float the scalar loop over
    :class:`Rect` prefix and suffix unions computed: widths are
    ``hi - lo``, margins add them left to right, areas multiply them
    left to right, and the sums run in distribution order.
    """
    _validate_split_input(lo, hi, min_fill)
    total = lo.shape[1]
    # Group-1 sizes run from min_fill to total - min_fill, so there are
    # total - 2*min_fill + 1 distributions per sort order (the R* paper
    # counts M - 2m + 2 with total = M + 1 entries).
    n_dist = total - 2 * min_fill + 1
    first = slice(min_fill - 1, min_fill - 1 + n_dist)
    second = slice(min_fill, min_fill + n_dist)

    best_axis = 0
    best_margin_sum = math.inf
    for axis in range(len(lo)):
        margin_sum = 0.0
        for order in _axis_orders(lo, hi, axis):
            prefix, suffix = _prefix_suffix_mbrs(lo, hi, order)
            margins = _margins(*prefix)[first] + _margins(*suffix)[second]
            for margin in margins.tolist():
                margin_sum += margin
        if margin_sum < best_margin_sum:
            best_margin_sum = margin_sum
            best_axis = axis

    best_groups: tuple[list[int], list[int]] | None = None
    best_overlap = math.inf
    best_area = math.inf
    for order in _axis_orders(lo, hi, best_axis):
        (p_lo, p_hi), (s_lo, s_hi) = _prefix_suffix_mbrs(lo, hi, order)
        p_lo, p_hi = p_lo[:, first], p_hi[:, first]
        s_lo, s_hi = s_lo[:, second], s_hi[:, second]
        i_lo = np.maximum(p_lo, s_lo)
        i_hi = np.minimum(p_hi, s_hi)
        disjoint = (i_lo > i_hi).any(axis=0)
        overlaps = np.where(disjoint, 0.0, product(i_hi - i_lo)).tolist()
        areas = (product(p_hi - p_lo) + product(s_hi - s_lo)).tolist()
        for k, (overlap, area) in enumerate(zip(overlaps, areas)):
            if overlap < best_overlap or (
                overlap == best_overlap and area < best_area
            ):
                best_overlap = overlap
                best_area = area
                split_at = min_fill + k
                best_groups = (order[:split_at], order[split_at:])
    assert best_groups is not None
    return best_groups


def _axis_orders(
    lo: np.ndarray, hi: np.ndarray, axis: int
) -> tuple[list[int], list[int]]:
    """Index orders sorted (stably) by lower and by upper value on
    ``axis``."""
    return (
        np.argsort(lo[axis], kind="stable").tolist(),
        np.argsort(hi[axis], kind="stable").tolist(),
    )


def _prefix_suffix_mbrs(
    lo: np.ndarray, hi: np.ndarray, order: list[int]
) -> tuple[tuple[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]:
    """``(lo, hi)`` of the MBRs of every prefix and every suffix of the
    entries in ``order``; column ``i`` covers ``order[:i + 1]`` and
    ``order[i:]`` respectively."""
    lo, hi = lo[:, order], hi[:, order]
    prefix = (np.minimum.accumulate(lo, axis=1), np.maximum.accumulate(hi, axis=1))
    suffix = (
        np.minimum.accumulate(lo[:, ::-1], axis=1)[:, ::-1],
        np.maximum.accumulate(hi[:, ::-1], axis=1)[:, ::-1],
    )
    return prefix, suffix


def _margins(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Each column's :attr:`Rect.margin`: its widths added left to
    right."""
    widths = hi - lo
    margin = widths[0]
    for axis in range(1, len(widths)):
        margin = margin + widths[axis]
    return margin


SPLIT_FUNCTIONS["rstar"] = rstar_split


# ----------------------------------------------------------------------
# The R*-tree proper
# ----------------------------------------------------------------------
class RStarTree(RTree):
    """An R-tree with the R* insertion policy.

    Search and deletion are inherited from :class:`RTree`; insertion
    uses R* ChooseSubtree, the R* split, and forced reinsertion.
    """

    def __init__(
        self,
        max_entries: int = 50,
        min_entries: int | None = None,
        reinsert_fraction: float = DEFAULT_REINSERT_FRACTION,
    ) -> None:
        super().__init__(max_entries, min_entries, split=rstar_split)
        if not 0.0 <= reinsert_fraction < 0.5:
            raise ValueError("reinsert_fraction must be in [0, 0.5)")
        self.reinsert_count = int(reinsert_fraction * (max_entries + 1))
        # Reinserting may not push a node below min fill.
        self.reinsert_count = min(
            self.reinsert_count, max_entries + 1 - self.min_entries
        )
        self._treated_heights: set[int] = set()
        self._pending: list[tuple[list[_Entry], int]] = []

    # ------------------------------------------------------------------
    # Insertion machinery
    # ------------------------------------------------------------------
    def _insert_rows(
        self, rows: np.ndarray, areas: list[float], refs: list[Any], level: int = 0
    ) -> None:
        """One R* insertion per row, each with its forced reinserts.

        ``_treated_heights`` tracks node heights (1 = leaf) where
        OverflowTreatment already ran during one insertion, as the R*
        paper prescribes; heights are stable across the root splits
        that may happen mid-operation, unlike depths.
        """
        for entry in zip(rows, areas, refs):
            self._treated_heights = set()
            self._pending = []
            self._do_insert(entry, level)
            while self._pending:
                batch, subtree_height = self._pending.pop(0)
                for pending_entry in batch:
                    # The tree shrank below the entry's level (cannot
                    # happen on pure inserts; guards future use).
                    too_high = subtree_height > self._height - 1
                    self._do_insert(pending_entry, 0 if too_high else subtree_height)

    def _do_insert(self, entry: _Entry, level: int) -> None:
        # Subtree height of the entry being placed: 0 for data entries,
        # more for internal entries reinserted mid-operation.  Node
        # heights during this descent are derived from it.
        self._entry_height = level
        sibling, _ = self._insert_rec(self._root, entry, self._height - 1 - level)
        if sibling is not None:
            self._grow_root(sibling)

    def _insert_rec(
        self, node: Node, entry: _Entry, depth: int
    ) -> tuple[Node | None, bool]:
        """Returns (split sibling, whether a forced reinsert shrank the
        subtree) — the latter forces exact MBR recomputation upward."""
        row = entry[0]
        if depth == 0:
            node.append(*entry)
            if len(node.refs) > self.max_entries:
                return self._overflow_treatment(node, depth)
            return None, False

        i = self._choose_subtree_rstar(node, row, depth)
        child = node.refs[i]
        sibling, shrank = self._insert_rec(child, entry, depth - 1)
        if shrank or sibling is not None:
            node.set_cover(i, child.mbr_row())
        else:
            node.enlarge(i, row)
        if sibling is not None:
            cover = sibling.mbr_row()
            node.append(cover, row_area(cover), sibling)
            if len(node.refs) > self.max_entries:
                own_sibling, own_shrank = self._overflow_treatment(node, depth)
                return own_sibling, shrank or own_shrank
        return None, shrank

    def _overflow_treatment(
        self, node: Node, depth: int
    ) -> tuple[Node | None, bool]:
        """Forced reinsert on the first overflow per height, else split."""
        height = self._node_height(depth)
        is_root = node is self._root
        if (
            not is_root
            and self.reinsert_count > 0
            and height not in self._treated_heights
        ):
            self._treated_heights.add(height)
            removed = self._pick_reinsert_victims(node)
            self._pending.append((removed, height - 1))
            return None, True
        return self._split_if_full(node), False

    def _node_height(self, depth_remaining: int) -> int:
        """Height (1 = leaf) of the node ``depth_remaining`` levels
        above the target level of the entry being inserted."""
        return self._entry_height + 1 + depth_remaining

    def _pick_reinsert_victims(self, node: Node) -> list[_Entry]:
        """Remove the entries furthest from the node centre.

        Returns them sorted closest-first ("close reinsert"), the
        variant the R* paper found best.
        """
        center = _center(*row_corners(node.mbr_row()))
        lo, hi = node.corners()
        distances = [
            _distance2(_center(*corners), center)
            for corners in zip(lo.T.tolist(), hi.T.tolist())
        ]
        ranked = sorted(
            range(len(distances)), key=lambda i: distances[i], reverse=True
        )
        victims = sorted(ranked[: self.reinsert_count], reverse=True)
        removed = [(node.pop(i), distances[i]) for i in victims]
        removed.sort(key=lambda pair: pair[1])
        return [entry for entry, _ in removed]

    # ------------------------------------------------------------------
    # ChooseSubtree
    # ------------------------------------------------------------------
    def _choose_subtree_rstar(self, node: Node, row: np.ndarray, depth: int) -> int:
        if depth == 1:
            # Children are leaves: minimise overlap enlargement.
            return self._least_overlap_enlargement(node, row)
        slots, _ = self._choose_subtrees(node, row[None])  # Guttman criterion
        return slots[0]

    def _least_overlap_enlargement(self, node: Node, row: np.ndarray) -> int:
        # O(n^2) per insert and the hottest R* path: work on raw corner
        # tuples, as a scalar loop does.
        lo, hi = node.corners()
        los = lo.T.tolist()
        his = hi.T.tolist()
        r_lo, r_hi = row_corners(row)

        # Shortcut: an entry that already contains the rectangle has
        # zero overlap delta and zero enlargement — the minimum
        # possible key — so only the area tie-break matters among such
        # entries, and the quadratic scan can be skipped entirely.
        containing: int | None = None
        containing_area = math.inf
        for i in range(len(los)):
            if all(
                a <= c and d <= b
                for a, b, c, d in zip(los[i], his[i], r_lo, r_hi)
            ):
                area = _area_of(los[i], his[i])
                if area < containing_area:
                    containing_area = area
                    containing = i
        if containing is not None:
            return containing

        best: int | None = None
        best_key: tuple[float, float, float] | None = None
        for i in range(len(los)):
            e_lo, e_hi = los[i], his[i]
            u_lo = tuple(min(a, c) for a, c in zip(e_lo, r_lo))
            u_hi = tuple(max(b, d) for b, d in zip(e_hi, r_hi))
            area = _area_of(e_lo, e_hi)
            enlarged_area = _area_of(u_lo, u_hi)
            overlap_delta = 0.0
            for j in range(len(los)):
                if j == i:
                    continue
                o_lo, o_hi = los[j], his[j]
                overlap_delta += _intersection_area(
                    u_lo, u_hi, o_lo, o_hi
                ) - _intersection_area(e_lo, e_hi, o_lo, o_hi)
            key = (overlap_delta, enlarged_area - area, area)
            if best_key is None or key < best_key:
                best_key = key
                best = i
        assert best is not None
        return best


def _center(lo: Sequence[float], hi: Sequence[float]) -> tuple[float, ...]:
    """:attr:`Rect.center` of the rectangle with corners ``lo``, ``hi``."""
    return tuple((a + b) / 2.0 for a, b in zip(lo, hi))


def _distance2(a: tuple[float, ...], b: tuple[float, ...]) -> float:
    # A float product overflows to inf, where ``**`` would raise.
    return sum((x - y) * (x - y) for x, y in zip(a, b))


def _area_of(lo: tuple[float, ...], hi: tuple[float, ...]) -> float:
    result = 1.0
    for a, b in zip(lo, hi):
        result *= b - a
    return result


def _intersection_area(
    lo1: tuple[float, ...],
    hi1: tuple[float, ...],
    lo2: tuple[float, ...],
    hi2: tuple[float, ...],
) -> float:
    result = 1.0
    for a, b, c, d in zip(lo1, hi1, lo2, hi2):
        side = min(b, d) - max(a, c)
        if side <= 0.0:
            return 0.0
        result *= side
    return result


def rstar_tree(
    data: RectArray | Sequence[Rect],
    capacity: int,
    items: Sequence[Any] | None = None,
    min_entries: int | None = None,
) -> RStarTree:
    """Load an R*-tree one tuple at a time (the R* analogue of TAT)."""
    if len(data) == 0:
        raise GeometryError("cannot load an empty data set")
    if items is not None and len(items) != len(data):
        raise ValueError("items must align one-to-one with data rectangles")
    with span("rtree.rstar_build", capacity=capacity, n_rects=len(data)):
        tree = RStarTree(max_entries=capacity, min_entries=min_entries)
        tree.insert_many(data, items)
    return tree
