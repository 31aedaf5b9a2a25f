"""A dynamic R-tree with Guttman insertion and deletion.

This is the substrate behind the paper's TAT ("tuple-at-a-time")
loading algorithm: tuples are inserted one at a time with Guttman's
*ChooseLeaf* descent and (by default) the quadratic split heuristic.
Deletion implements Guttman's *CondenseTree* with reinsertion of
orphaned entries at their original level.

Insertion runs one loop over rows ``[hi; -lo]`` (see
:mod:`repro.rtree.node`), for one rectangle (:meth:`RTree.insert`) or
many (:meth:`RTree.insert_many`).  An internal node's block rarely
changes between inserts, so ChooseLeaf is answered ahead: a node
computes the slots of many upcoming rows in one vectorised pass and
keeps them in its ``queue`` until its block changes.

Levels are numbered as in the paper: 0 is the root, ``height - 1`` is
the leaf level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Iterator, Sequence

import numpy as np

from ..geometry import GeometryError, Rect, RectArray
from .node import Node, array_rows, product, rect_rows, row_area
from .split import SPLIT_FUNCTIONS, SplitFunction

__all__ = ["RTree", "QueryResult"]

CHOOSE_AHEAD = 128
"""Rows the root answers ChooseLeaf for in one pass.

Each other internal node answers, in one pass, the row that reached it
plus the rows its parent's answers route to it.  On the Fig. 6 build
(53,145 Long Beach rectangles, capacity 100) 128 takes 5,047 passes,
computing 159,143 rows for the 99,379 answers used.  Five alternating
rounds of that build on a 2-vCPU host took a median 1.60 s at 8, 1.13 s
at 32, 1.03 s at 128 and 1.28 s at 512: small windows pay numpy's
per-call overhead on more passes, large ones compute more answers that
a change of the root's block throws away.  The trees do not depend on
it.
"""


@dataclass
class QueryResult:
    """Outcome of a single intersection query with access accounting.

    ``node_accesses`` counts every node whose parent entry rectangle
    intersected the query (the root is always accessed), i.e. the
    bufferless cost metric the paper argues against using on its own.
    """

    items: list[Any]
    node_accesses: int
    accesses_per_level: list[int] = field(default_factory=list)


class RTree:
    """An R-tree over axis-parallel rectangles.

    Parameters
    ----------
    max_entries:
        Node capacity ``n`` — the paper assumes exactly one node per
        disk page.
    min_entries:
        Minimum fill ``m <= n/2`` for non-root nodes; defaults to
        ``max(1, round(0.4 * max_entries))``, the conventional 40%.
    split:
        Split heuristic name (``"quadratic"`` or ``"linear"``) or a
        custom split function (see :data:`~repro.rtree.split.SplitFunction`).

    Examples
    --------
    >>> t = RTree(max_entries=4)
    >>> t.insert(Rect((0.1, 0.1), (0.2, 0.2)), "a")
    >>> t.search(Rect((0.0, 0.0), (0.5, 0.5)))
    ['a']
    """

    def __init__(
        self,
        max_entries: int = 50,
        min_entries: int | None = None,
        split: str | SplitFunction = "quadratic",
    ) -> None:
        if max_entries < 2:
            raise ValueError("max_entries must be at least 2")
        if min_entries is None:
            min_entries = max(1, round(0.4 * max_entries))
        if not 1 <= min_entries <= max_entries // 2:
            raise ValueError(
                f"min_entries must be in [1, {max_entries // 2}], got {min_entries}"
            )
        if isinstance(split, str):
            try:
                split_fn = SPLIT_FUNCTIONS[split]
            except KeyError:
                raise ValueError(
                    f"unknown split {split!r}; choices: {sorted(SPLIT_FUNCTIONS)}"
                ) from None
        else:
            split_fn = split
        self.max_entries = max_entries
        self.min_entries = min_entries
        self._split_fn = split_fn
        self._root: Node = Node(is_leaf=True)
        self._size = 0
        self._height = 1
        # Rows ever passed to the insert loop: each row's queue key.
        self._rows_seen = 0

    @classmethod
    def _from_prebuilt(
        cls,
        root: Node,
        height: int,
        size: int,
        max_entries: int,
        min_entries: int,
        split: str | SplitFunction = "quadratic",
    ) -> "RTree":
        """Wrap an externally constructed node structure (bulk loaders).

        The caller guarantees structural validity; packed trees use
        ``min_entries`` as loose as 1 because the last node of each
        level "may contain less than n rectangles" (paper §2.2).
        """
        tree = cls(max_entries=max_entries, min_entries=min_entries, split=split)
        tree._root = root
        tree._height = height
        tree._size = size
        return tree

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._size

    @property
    def height(self) -> int:
        """Number of levels (a single leaf root has height 1)."""
        return self._height

    @property
    def root(self) -> Node:
        """The root node (read access for stats/validation)."""
        return self._root

    def mbr(self) -> Rect:
        """MBR of the whole data set."""
        if self._size == 0:
            raise GeometryError("mbr() of an empty tree")
        return self._root.mbr()

    def nodes_by_level(self) -> list[list[Node]]:
        """All nodes, grouped by level (index 0 = root level)."""
        levels: list[list[Node]] = [[self._root]]
        while not levels[-1][0].is_leaf:
            nxt: list[Node] = []
            for node in levels[-1]:
                nxt.extend(node.refs)
            levels.append(nxt)
        return levels

    def node_count(self) -> int:
        """Total number of nodes ``M``."""
        return sum(len(level) for level in self.nodes_by_level())

    def items(self) -> Iterator[tuple[Rect, Any]]:
        """Iterate over all stored ``(rect, item)`` pairs."""

        def walk(node: Node) -> Iterator[tuple[Rect, Any]]:
            if node.is_leaf:
                for i, item in enumerate(node.refs):
                    yield node.rect(i), item
            else:
                for child in node.refs:
                    yield from walk(child)

        yield from walk(self._root)

    # ------------------------------------------------------------------
    # Insertion
    # ------------------------------------------------------------------
    def insert(self, rect: Rect, item: Any = None) -> None:
        """Insert ``rect`` with an optional payload ``item``.

        Raises :class:`~repro.geometry.GeometryError`, before any node
        changes, when ``rect`` has another dimensionality than the
        rectangles already stored, or when the area of the tree's MBR
        grown by ``rect`` overflows float64.
        """
        row = rect_rows(np.array(rect.lo), np.array(rect.hi))
        self._check_rows(row)
        self._insert_rows(row[None], [row_area(row)], [item])
        self._size += 1

    def insert_many(
        self,
        data: RectArray | Sequence[Rect],
        items: Sequence[Any] | None = None,
    ) -> None:
        """Insert every rectangle of ``data`` in order, ``items[i]`` (by
        default ``i``) with rectangle ``i``.

        The tree is the one that one :meth:`insert` per rectangle
        builds; the data's MBR is checked once, as :meth:`insert`
        checks each rectangle.
        """
        if items is not None and len(items) != len(data):
            raise ValueError("items must align one-to-one with data rectangles")
        if len(data) == 0:
            return
        if not isinstance(data, RectArray):
            data = RectArray.from_rects(data)
        rows, areas = array_rows(data)
        self._check_rows(rows.max(axis=0))
        refs = list(items) if items is not None else list(range(len(data)))
        self._insert_rows(rows, areas.tolist(), refs)
        self._size += len(data)

    def _check_rows(self, row: np.ndarray) -> None:
        """Reject ``row`` (one rectangle, or the MBR of many) if it has
        another dimensionality than the stored rectangles, or if the
        tree's MBR grown by it has an area that overflows.

        Every cover lies inside the tree's MBR, and max, min,
        subtraction and products of non-negative widths are monotone
        under rounding, so with that area finite every union area,
        enlargement and split waste stays finite too.
        """
        if self._root.refs:
            dim = self._root.dim
            if len(row) != 2 * dim:
                raise GeometryError(
                    f"dimensionality mismatch: {len(row) // 2} != {dim}"
                )
            row = np.maximum(self._root.mbr_row(), row)
        if not math.isfinite(row_area(row)):
            raise GeometryError(
                "the tree's MBR would have an area that overflows float64"
            )

    def _insert_rows(
        self, rows: np.ndarray, areas: list[float], refs: list[Any], level: int = 0
    ) -> None:
        """Guttman insertion of each row ``rows[j]`` (``(2d,)``, area
        ``areas[j]``) with its item or child ``refs[j]`` into a node
        ``level`` levels above the leaves, in order.

        Each internal node on the way answers ChooseLeaf from its
        ``queue``, keyed by the row's number among all rows this tree
        has seen.  A missing answer is computed, with the answers of
        upcoming rows, in one :meth:`_choose_subtrees` pass: the root
        answers the next :data:`CHOOSE_AHEAD` rows, any other node the
        arriving row plus the upcoming rows its parent's queue routes
        to it.  Every block write clears the written node's queue
        (see :class:`Node`), so each answer used was computed from the
        same floats a one-row pass would see now.
        """
        first = self._rows_seen
        stop = len(rows)
        self._rows_seen += stop
        for j in range(stop):
            row = rows[j]
            key = first + j
            node = self._root
            path: list[tuple[Node, tuple[int, bool]]] = []
            for _ in range(self._height - 1 - level):
                answer = node.queue.get(key)
                if answer is None:
                    if path:
                        parent, (slot, _) = path[-1]
                        keys = [key] + [
                            k
                            for k, routed in parent.queue.items()
                            if routed[0] == slot and k > key
                        ]
                        ahead = rows[[k - first for k in keys]]
                    else:
                        keys = range(key, first + min(j + CHOOSE_AHEAD, stop))
                        ahead = rows[j : j + CHOOSE_AHEAD]
                    slots, grows = self._choose_subtrees(node, ahead)
                    node.queue = dict(zip(keys, zip(slots, grows)))
                    answer = node.queue[key]
                path.append((node, answer))
                node = node.refs[answer[0]]

            node.append(row, areas[j], refs[j])
            sibling = self._split_if_full(node)
            for parent, (slot, grows) in reversed(path):
                if sibling is None:
                    if grows:
                        parent.enlarge(slot, row)
                    continue
                parent.set_cover(slot, parent.refs[slot].mbr_row())
                cover = sibling.mbr_row()
                parent.append(cover, row_area(cover), sibling)
                sibling = self._split_if_full(parent)
            if sibling is not None:
                self._grow_root(sibling)

    def _grow_root(self, sibling: Node) -> None:
        """A new root over the old root and its split ``sibling``."""
        old_root = self._root
        self._root = Node(is_leaf=False)
        for child in (old_root, sibling):
            cover = child.mbr_row()
            self._root.append(cover, row_area(cover), child)
        self._height += 1

    def _choose_subtrees(
        self, node: Node, rows: np.ndarray
    ) -> tuple[list[int], list[bool]]:
        """Guttman's ChooseLeaf step for ``k`` rows at once: for each
        row, the index of the entry needing the least enlargement to
        cover it, then of least area, then the first; and whether that
        entry's cover must grow to take the row.

        One ``(k, 2d, n)`` pass over the node's block.  Each union area
        and enlargement is the float a scalar loop over the entries
        computes, so each row's choice is the scalar loop's, ties
        included.  No area is infinite and no enlargement NaN: the
        tree's MBR has a finite area (:meth:`_check_rows`).
        """
        d = rows.shape[1] // 2
        block = node.columns()
        areas = node.areas[: block.shape[1]]
        union = np.maximum(block, rows[:, :, None])
        enlargement = product((union[:, :d] + union[:, d:]).swapaxes(0, 1))
        enlargement -= areas
        least = enlargement.min(axis=1, keepdims=True)
        tied = np.where(enlargement == least, areas, np.inf)
        slots = (tied == tied.min(axis=1, keepdims=True)).argmax(axis=1)
        grows = (block[:, slots].T < rows).any(axis=1)
        return slots.tolist(), grows.tolist()

    def _split_if_full(self, node: Node) -> Node | None:
        """Split an overflowing ``node``; return the new sibling."""
        if len(node.refs) <= self.max_entries:
            return None
        group_a, group_b = self._split_fn(*node.corners(), self.min_entries)
        return node.split(group_a, group_b)

    # ------------------------------------------------------------------
    # Deletion
    # ------------------------------------------------------------------
    def delete(self, rect: Rect, item: Any = None) -> bool:
        """Delete one entry matching ``(rect, item)`` exactly.

        Returns True if an entry was found and removed.  Underflowing
        nodes are dissolved and their entries reinserted at the level
        they came from (Guttman's CondenseTree).
        """
        if self._size == 0:
            return False
        self._check_dim(rect)
        row = rect_rows(np.array(rect.lo), np.array(rect.hi))
        orphans: list[tuple[Node, int]] = []
        found = self._delete_rec(self._root, row, item, self._height - 1, orphans)
        if not found:
            return False
        self._size -= 1

        # Shrink the root while it is an internal node with one child.
        while not self._root.is_leaf and len(self._root.refs) == 1:
            self._root = self._root.refs[0]
            self._height -= 1

        # Reinsert orphaned subtrees entry by entry at their old level.
        for orphan, level in orphans:
            for i in range(len(orphan.refs)):
                if level <= self._height - 1:
                    self._reinsert(orphan, i, level)
                else:
                    # The tree shrank below the orphan's level; demote
                    # by reinserting the underlying leaf entries.
                    for leaf, j in _leaf_entries(orphan, i):
                        self._reinsert(leaf, j, 0)
        return True

    def _reinsert(self, node: Node, i: int, level: int) -> None:
        """Insert entry ``i`` of the detached ``node`` into a node
        ``level`` levels above the leaves."""
        self._insert_rows(
            node.block[:, i][None], [float(node.areas[i])], [node.refs[i]], level
        )

    def _delete_rec(
        self,
        node: Node,
        row: np.ndarray,
        item: Any,
        depth: int,
        orphans: list[tuple[Node, int]],
    ) -> bool:
        block = node.columns()
        if depth == 0:
            for i in np.flatnonzero((block == row[:, None]).all(axis=0)).tolist():
                if node.refs[i] == item:
                    node.pop(i)
                    return True
            return False

        for i in np.flatnonzero((block >= row[:, None]).all(axis=0)).tolist():
            child = node.refs[i]
            if not self._delete_rec(child, row, item, depth - 1, orphans):
                continue
            if len(child.refs) < self.min_entries:
                node.pop(i)
                orphans.append((child, depth - 1))
            elif child.refs:
                node.set_cover(i, child.mbr_row())
            return True
        return False

    # ------------------------------------------------------------------
    # Search
    # ------------------------------------------------------------------
    def search(self, rect: Rect) -> list[Any]:
        """Items whose rectangles intersect ``rect``."""
        return self.query(rect).items

    def search_point(self, point: tuple[float, ...]) -> list[Any]:
        """Items whose rectangles contain ``point`` (a point query)."""
        return self.query(Rect.from_point(point)).items

    def query(self, rect: Rect) -> QueryResult:
        """Intersection query with per-level node-access accounting."""
        items: list[Any] = []
        per_level = [0] * self._height
        if self._size == 0:
            return QueryResult(items=items, node_accesses=0, accesses_per_level=per_level)
        probe = self._probe_row(rect)

        def visit(node: Node, level: int) -> None:
            per_level[level] += 1
            refs = node.refs
            hits = _intersecting(node, probe)
            if node.is_leaf:
                items.extend(refs[i] for i in hits)
            else:
                for i in hits:
                    visit(refs[i], level + 1)

        visit(self._root, 0)
        return QueryResult(
            items=items,
            node_accesses=sum(per_level),
            accesses_per_level=per_level,
        )

    def accessed_node_mbrs(self, rect: Rect) -> list[tuple[int, Rect]]:
        """``(level, mbr)`` of every node a query on ``rect`` visits.

        Used in tests to confirm that a real traversal touches exactly
        the nodes whose MBRs intersect the query (modulo the root,
        which a traversal always touches) — the premise that lets the
        paper's model and simulator work from MBR lists alone.
        """
        out: list[tuple[int, Rect]] = []
        if self._size == 0:
            return out
        probe = self._probe_row(rect)

        def visit(node: Node, level: int) -> None:
            out.append((level, node.mbr()))
            if node.is_leaf:
                return
            for i in _intersecting(node, probe):
                visit(node.refs[i], level + 1)

        visit(self._root, 0)
        return out

    def _check_dim(self, rect: Rect) -> None:
        dim = self._root.dim
        if rect.dim != dim:
            raise GeometryError(f"dimensionality mismatch: {dim} != {rect.dim}")

    def _probe_row(self, rect: Rect) -> np.ndarray:
        """The row ``[lo; -hi]`` an intersecting column is ``>=`` on
        every row."""
        self._check_dim(rect)
        return np.array(rect.lo + tuple(-x for x in rect.hi))


def _intersecting(node: Node, probe: np.ndarray) -> list[int]:
    """Indices of ``node``'s entries that intersect the query whose
    probe row is ``probe``, in order."""
    return np.flatnonzero((node.columns() >= probe[:, None]).all(axis=0)).tolist()


def _leaf_entries(node: Node, i: int) -> Iterator[tuple[Node, int]]:
    """``(leaf, column)`` of every leaf entry beneath entry ``i`` of
    ``node``: the entry itself when ``node`` is a leaf."""
    if node.is_leaf:
        yield node, i
        return
    stack = [node.refs[i]]
    while stack:
        node = stack.pop()
        if node.is_leaf:
            for j in range(len(node.refs)):
                yield node, j
        else:
            stack.extend(node.refs)
