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

from ..geometry import Rect
from ..obs.spans import span
from .node import Entry, Node
from .split import SPLIT_FUNCTIONS, _validate_split_input
from .tree import RTree

__all__ = ["RStarTree", "rstar_split", "rstar_tree"]

DEFAULT_REINSERT_FRACTION = 0.3
"""p = 30% of M+1 entries are reinserted on first overflow (R* paper)."""


# ----------------------------------------------------------------------
# The R* split (usable as a plain split function too)
# ----------------------------------------------------------------------
def rstar_split(
    entries: Sequence[Entry], min_fill: int
) -> tuple[list[int], list[int]]:
    """Topological R* split: margin-minimal axis, overlap-minimal cut."""
    _validate_split_input(entries, min_fill)
    rects = [e.rect for e in entries]
    total = len(rects)
    dim = rects[0].dim
    # Group-1 sizes run from min_fill to total - min_fill, so there are
    # total - 2*min_fill + 1 distributions per sort order (the R* paper
    # counts M - 2m + 2 with total = M + 1 entries).
    n_dist = total - 2 * min_fill + 1

    best_axis = 0
    best_margin_sum = math.inf
    for axis in range(dim):
        margin_sum = 0.0
        for order in _axis_orders(rects, axis):
            prefix, suffix = _prefix_suffix_mbrs(rects, order)
            for k in range(n_dist):
                split_at = min_fill + k
                margin_sum += (
                    prefix[split_at - 1].margin + suffix[split_at].margin
                )
        if margin_sum < best_margin_sum:
            best_margin_sum = margin_sum
            best_axis = axis

    best_groups: tuple[list[int], list[int]] | None = None
    best_overlap = math.inf
    best_area = math.inf
    for order in _axis_orders(rects, best_axis):
        prefix, suffix = _prefix_suffix_mbrs(rects, order)
        for k in range(n_dist):
            split_at = min_fill + k
            bb1 = prefix[split_at - 1]
            bb2 = suffix[split_at]
            inter = bb1.intersection(bb2)
            overlap = inter.area if inter is not None else 0.0
            area = bb1.area + bb2.area
            if overlap < best_overlap or (
                overlap == best_overlap and area < best_area
            ):
                best_overlap = overlap
                best_area = area
                best_groups = (order[:split_at], order[split_at:])
    assert best_groups is not None
    return best_groups


def _axis_orders(rects: list[Rect], axis: int) -> tuple[list[int], list[int]]:
    """Index orders sorted by lower and by upper value on ``axis``."""
    by_lower = sorted(range(len(rects)), key=lambda i: rects[i].lo[axis])
    by_upper = sorted(range(len(rects)), key=lambda i: rects[i].hi[axis])
    return by_lower, by_upper


def _prefix_suffix_mbrs(
    rects: list[Rect], order: list[int]
) -> tuple[list[Rect], list[Rect]]:
    """MBRs of every prefix and suffix of ``rects`` in ``order``."""
    n = len(order)
    prefix: list[Rect] = [rects[order[0]]]
    for i in range(1, n):
        prefix.append(prefix[-1].union(rects[order[i]]))
    suffix: list[Rect] = [None] * n  # type: ignore[list-item]
    suffix[n - 1] = rects[order[n - 1]]
    for i in range(n - 2, -1, -1):
        suffix[i] = suffix[i + 1].union(rects[order[i]])
    return prefix, suffix


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
        self._pending: list[tuple[list[Entry], int]] = []

    # ------------------------------------------------------------------
    # Insertion machinery
    # ------------------------------------------------------------------
    def _insert_entry(self, entry: Entry, target_depth: int) -> None:
        """One data-rectangle insertion, including forced reinserts.

        ``_treated_heights`` tracks node heights (1 = leaf) where
        OverflowTreatment already ran during this operation, as the R*
        paper prescribes; heights are stable across the root splits
        that may happen mid-operation, unlike depths.
        """
        self._treated_heights = set()
        self._pending = []
        self._do_insert(entry, target_depth)
        while self._pending:
            batch, subtree_height = self._pending.pop(0)
            for pending_entry in batch:
                depth = self._height - 1 - subtree_height
                if depth < 0:
                    # The tree shrank below the entry's level (cannot
                    # happen on pure inserts; guards future use).
                    depth = self._height - 1
                self._do_insert(pending_entry, depth)

    def _do_insert(self, entry: Entry, target_depth: int) -> None:
        # Subtree height of the entry being placed: 0 for data entries,
        # more for internal entries reinserted mid-operation.  Node
        # heights during this descent are derived from it.
        self._entry_height = self._height - 1 - target_depth
        sibling, _ = self._insert_rec(self._root, entry, target_depth)
        if sibling is not None:
            old_root = self._root
            self._root = Node(
                is_leaf=False,
                entries=[
                    Entry(old_root.mbr(), child=old_root),
                    Entry(sibling.mbr(), child=sibling),
                ],
            )
            self._height += 1

    def _insert_rec(
        self, node: Node, entry: Entry, depth: int
    ) -> tuple[Node | None, bool]:
        """Returns (split sibling, whether a forced reinsert shrank the
        subtree) — the latter forces exact MBR recomputation upward."""
        if depth == 0:
            node.append(entry)
            if len(node.entries) > self.max_entries:
                return self._overflow_treatment(node, depth)
            return None, False

        i = self._choose_subtree_rstar(node, entry.rect, depth)
        child = node.entries[i].child
        sibling, shrank = self._insert_rec(child, entry, depth - 1)
        if shrank or sibling is not None:
            node.set_rect(i, child.mbr())
        else:
            node.enlarge(i, entry.rect)
        if sibling is not None:
            node.append(Entry(sibling.mbr(), child=sibling))
            if len(node.entries) > self.max_entries:
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
        return self._split_node(node), False

    def _node_height(self, depth_remaining: int) -> int:
        """Height (1 = leaf) of the node ``depth_remaining`` levels
        above the target level of the entry being inserted."""
        return self._entry_height + 1 + depth_remaining

    def _pick_reinsert_victims(self, node: Node) -> list[Entry]:
        """Remove the entries furthest from the node centre.

        Returns them sorted closest-first ("close reinsert"), the
        variant the R* paper found best.
        """
        center = node.mbr().center
        ranked = sorted(
            range(len(node.entries)),
            key=lambda i: _center_distance2(node.entries[i].rect, center),
            reverse=True,
        )
        victims = sorted(ranked[: self.reinsert_count], reverse=True)
        removed = [node.pop(i) for i in victims]
        removed.sort(key=lambda e: _center_distance2(e.rect, center))
        return removed

    # ------------------------------------------------------------------
    # ChooseSubtree
    # ------------------------------------------------------------------
    def _choose_subtree_rstar(self, node: Node, rect: Rect, depth: int) -> int:
        if depth == 1:
            # Children are leaves: minimise overlap enlargement.
            return self._least_overlap_enlargement(node, rect)
        return self._choose_subtree(node, rect)  # Guttman criterion

    def _least_overlap_enlargement(self, node: Node, rect: Rect) -> int:
        # O(n^2) per insert and the hottest R* path: work on raw corner
        # tuples, as the Guttman hot paths do.
        entries = node.entries
        los = [e.rect.lo for e in entries]
        his = [e.rect.hi for e in entries]
        r_lo, r_hi = rect.lo, rect.hi

        # Shortcut: an entry that already contains the rectangle has
        # zero overlap delta and zero enlargement — the minimum
        # possible key — so only the area tie-break matters among such
        # entries, and the quadratic scan can be skipped entirely.
        containing: int | None = None
        containing_area = math.inf
        for i in range(len(entries)):
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
        for i in range(len(entries)):
            e_lo, e_hi = los[i], his[i]
            u_lo = tuple(min(a, c) for a, c in zip(e_lo, r_lo))
            u_hi = tuple(max(b, d) for b, d in zip(e_hi, r_hi))
            area = _area_of(e_lo, e_hi)
            enlarged_area = _area_of(u_lo, u_hi)
            overlap_delta = 0.0
            for j in range(len(entries)):
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


def _center_distance2(rect: Rect, center: tuple[float, ...]) -> float:
    return sum((a - b) ** 2 for a, b in zip(rect.center, center))


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
    data,
    capacity: int,
    items: Sequence[Any] | None = None,
    min_entries: int | None = None,
) -> RStarTree:
    """Load an R*-tree one tuple at a time (the R* analogue of TAT)."""
    rects = list(data)
    if not rects:
        raise ValueError("cannot load an empty data set")
    if items is not None and len(items) != len(rects):
        raise ValueError("items must align one-to-one with data rectangles")
    with span("rtree.rstar_build", capacity=capacity, n_rects=len(rects)):
        tree = RStarTree(max_entries=capacity, min_entries=min_entries)
        for i, rect in enumerate(rects):
            tree.insert(rect, items[i] if items is not None else i)
    return tree
