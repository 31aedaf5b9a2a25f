"""A dynamic R-tree with Guttman insertion and deletion.

This is the substrate behind the paper's TAT ("tuple-at-a-time")
loading algorithm: tuples are inserted one at a time with Guttman's
*ChooseLeaf* descent and (by default) the quadratic split heuristic.
Deletion implements Guttman's *CondenseTree* with reinsertion of
orphaned entries at their original level.

Levels are numbered as in the paper: 0 is the root, ``height - 1`` is
the leaf level.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterator

import numpy as np

from ..geometry import GeometryError, Rect
from .node import Entry, Node
from .split import SPLIT_FUNCTIONS, SplitFunction, union_areas

__all__ = ["RTree", "QueryResult"]


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
        custom split function.

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
                nxt.extend(e.child for e in node.entries)
            levels.append(nxt)
        return levels

    def node_count(self) -> int:
        """Total number of nodes ``M``."""
        return sum(len(level) for level in self.nodes_by_level())

    def items(self) -> Iterator[tuple[Rect, Any]]:
        """Iterate over all stored ``(rect, item)`` pairs."""

        def walk(node: Node) -> Iterator[tuple[Rect, Any]]:
            if node.is_leaf:
                for e in node.entries:
                    yield e.rect, e.item
            else:
                for e in node.entries:
                    yield from walk(e.child)

        yield from walk(self._root)

    # ------------------------------------------------------------------
    # Insertion
    # ------------------------------------------------------------------
    def insert(self, rect: Rect, item: Any = None) -> None:
        """Insert ``rect`` with an optional payload ``item``.

        Raises :class:`~repro.geometry.GeometryError`, before any node
        changes, when ``rect`` has another dimensionality than the
        rectangles already stored.
        """
        stored = self._root.entries
        if stored and stored[0].rect.dim != rect.dim:
            raise GeometryError(
                f"dimensionality mismatch: {rect.dim} != {stored[0].rect.dim}"
            )
        self._insert_entry(Entry(rect, item=item), target_depth=self._height - 1)
        self._size += 1

    def _insert_entry(self, entry: Entry, target_depth: int) -> None:
        """Insert ``entry`` at ``target_depth`` levels below the root."""
        sibling = self._insert_rec(self._root, entry, target_depth)
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

    def _insert_rec(self, node: Node, entry: Entry, depth: int) -> Node | None:
        if depth == 0:
            node.append(entry)
            if len(node.entries) > self.max_entries:
                return self._split_node(node)
            return None

        i = self._choose_subtree(node, entry.rect)
        child = node.entries[i].child
        sibling = self._insert_rec(child, entry, depth - 1)
        if sibling is None:
            node.enlarge(i, entry.rect)
        else:
            node.set_rect(i, child.mbr())
            node.append(Entry(sibling.mbr(), child=sibling))
            if len(node.entries) > self.max_entries:
                return self._split_node(node)
        return None

    def _choose_subtree(self, node: Node, rect: Rect) -> int:
        """Guttman's ChooseLeaf step: the index of the entry needing the
        least enlargement to cover ``rect``, then of least area, then
        the first.

        One vectorised pass over the node's block.  Each union area and
        enlargement is the float a scalar loop over the entries computes
        (see :func:`~repro.rtree.split.union_areas`), so the choice is
        the scalar loop's, ties included.  ``fmin`` skips a NaN
        enlargement, which only an overflowing area can produce, as the
        scalar loop's comparisons do.
        """
        n = len(node.entries)
        areas = node.areas[:n]
        enlargement = union_areas(node.lo[:, :n], node.hi[:, :n], rect) - areas
        ties = (enlargement == np.fmin.reduce(enlargement)).nonzero()[0]
        if len(ties) == 1:
            return int(ties[0])
        return int(ties[areas[ties].argmin()])

    def _split_node(self, node: Node) -> Node:
        group_a, group_b = self._split_fn(node.entries, self.min_entries)
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
        orphans: list[tuple[Node, int]] = []
        found = self._delete_rec(self._root, rect, item, self._height - 1, orphans)
        if not found:
            return False
        self._size -= 1

        # Shrink the root while it is an internal node with one child.
        while not self._root.is_leaf and len(self._root.entries) == 1:
            self._root = self._root.entries[0].child
            self._height -= 1

        # Reinsert orphaned subtrees entry by entry at their old level.
        for orphan, subtree_height in orphans:
            for entry in orphan.entries:
                entry_subtree_height = subtree_height - 1
                target_depth = self._height - 1 - entry_subtree_height
                if target_depth < 0:
                    # The tree shrank below the orphan's level; demote
                    # by reinserting the underlying leaf entries.
                    for leaf_rect, leaf_item in _collect_leaf_entries(entry):
                        self._insert_entry(
                            Entry(leaf_rect, item=leaf_item),
                            target_depth=self._height - 1,
                        )
                else:
                    self._insert_entry(entry, target_depth=target_depth)
        return True

    def _delete_rec(
        self,
        node: Node,
        rect: Rect,
        item: Any,
        depth: int,
        orphans: list[tuple[Node, int]],
    ) -> bool:
        if depth == 0:
            for i, e in enumerate(node.entries):
                if e.rect == rect and e.item == item:
                    node.pop(i)
                    return True
            return False

        for i, e in enumerate(node.entries):
            if not e.rect.contains_rect(rect):
                continue
            if not self._delete_rec(e.child, rect, item, depth - 1, orphans):
                continue
            if len(e.child.entries) < self.min_entries:
                node.pop(i)
                orphans.append((e.child, depth))
            elif e.child.entries:
                node.set_rect(i, e.child.mbr())
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

        def visit(node: Node, level: int) -> None:
            per_level[level] += 1
            if node.is_leaf:
                for e in node.entries:
                    if e.rect.intersects(rect):
                        items.append(e.item)
            else:
                for e in node.entries:
                    if e.rect.intersects(rect):
                        visit(e.child, level + 1)

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

        def visit(node: Node, level: int) -> None:
            out.append((level, node.mbr()))
            if node.is_leaf:
                return
            for e in node.entries:
                if e.rect.intersects(rect):
                    visit(e.child, level + 1)

        visit(self._root, 0)
        return out


def _collect_leaf_entries(entry: Entry) -> Iterator[tuple[Rect, Any]]:
    """All leaf-level ``(rect, item)`` pairs beneath an internal entry."""
    if entry.child is None:
        yield entry.rect, entry.item
        return
    stack = [entry.child]
    while stack:
        node = stack.pop()
        if node.is_leaf:
            for e in node.entries:
                yield e.rect, e.item
        else:
            stack.extend(e.child for e in node.entries)
