"""R-tree node and entry structures.

An R-tree node stores up to ``max_entries`` entries.  Each entry pairs a
rectangle with either a child node (internal nodes) or an opaque item
(leaf nodes) — the ``(R, P)`` pairs of the paper's §2.1.  At the leaf
level ``R`` is the bounding box of an actual object; at internal nodes
``R`` is the MBR of everything stored in the subtree.

An internal node also keeps its children's rectangles in one numpy
block, so that *ChooseLeaf* scores every child in one vectorised pass
(:meth:`~repro.rtree.RTree._choose_subtree`).  The block is three
float64 arrays: ``lo`` and ``hi`` with one contiguous row per axis and
one column per entry, and ``areas`` with each child's area as
:attr:`Rect.area` computes it.  Column ``i`` mirrors
``entries[i].rect``; the columns past ``len(entries)`` are spare room
for appends.  To keep the mirror exact, only the methods of
:class:`Node` change an internal node's entries or child rectangles,
and :func:`~repro.rtree.check_tree` asserts the mirror.  Leaves have
no block.
"""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np

from ..geometry import GeometryError, Rect, mbr_of

__all__ = ["Entry", "Node"]


class Entry:
    """A single ``(rectangle, pointer)`` slot of an R-tree node."""

    __slots__ = ("rect", "child", "item")

    def __init__(
        self,
        rect: Rect,
        child: "Node | None" = None,
        item: Any = None,
    ) -> None:
        if child is not None and item is not None:
            raise ValueError("an entry points to a child node or an item, not both")
        self.rect = rect
        self.child = child
        self.item = item

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        target = "child" if self.child is not None else f"item={self.item!r}"
        return f"Entry({self.rect!r}, {target})"


class Node:
    """An R-tree node: a leaf holding items or an internal routing node."""

    __slots__ = ("is_leaf", "entries", "lo", "hi", "areas")

    def __init__(self, is_leaf: bool, entries: list[Entry] | None = None) -> None:
        self.is_leaf = is_leaf
        self.entries: list[Entry] = entries if entries is not None else []
        self.lo: np.ndarray | None = None
        self.hi: np.ndarray | None = None
        self.areas: np.ndarray | None = None
        if not is_leaf and self.entries:
            # Room for one more entry: a full node's overflowing insert.
            self._build_block(len(self.entries) + 1)

    def __len__(self) -> int:
        return len(self.entries)

    def mbr(self) -> Rect:
        """Minimum bounding rectangle of all entries in this node."""
        if not self.entries:
            raise GeometryError("mbr() of an empty node")
        return mbr_of(e.rect for e in self.entries)

    def children(self) -> list["Node"]:
        """Child nodes (internal nodes only)."""
        if self.is_leaf:
            return []
        return [e.child for e in self.entries if e.child is not None]

    # ------------------------------------------------------------------
    # Mutation: the only ways an internal node's block may change
    # ------------------------------------------------------------------
    def append(self, entry: Entry) -> None:
        """Add ``entry`` as the last entry."""
        self.entries.append(entry)
        if self.is_leaf:
            return
        n = len(self.entries)
        if self.lo is None or n > self.lo.shape[1]:
            self._build_block(2 * n)
        else:
            self._write(n - 1, entry.rect)

    def pop(self, i: int) -> Entry:
        """Remove and return entry ``i``; later entries move up one."""
        entry = self.entries.pop(i)
        if not self.is_leaf:
            n = len(self.entries)
            self.lo[:, i:n] = self.lo[:, i + 1 : n + 1]
            self.hi[:, i:n] = self.hi[:, i + 1 : n + 1]
            self.areas[i:n] = self.areas[i + 1 : n + 1]
        return entry

    def set_rect(self, i: int, rect: Rect) -> None:
        """Replace entry ``i``'s rectangle, e.g. after its child split."""
        self.entries[i].rect = rect
        if not self.is_leaf:
            self._write(i, rect)

    def enlarge(self, i: int, rect: Rect) -> None:
        """Grow entry ``i``'s rectangle to cover ``rect`` (a cover update).

        Most inserts land inside the cover already; only a cover that
        grows gets a new rectangle and a rewritten column.
        """
        cover = self.entries[i].rect
        if not cover.contains_rect(rect):
            self.set_rect(i, cover.union(rect))

    def split(self, keep: Sequence[int], move: Sequence[int]) -> "Node":
        """Keep entries ``keep`` here, in that order, and return a new
        sibling holding entries ``move`` (a split's two groups)."""
        entries = self.entries
        self.entries = [entries[i] for i in keep]
        if not self.is_leaf:
            self._build_block(self.lo.shape[1])
        return Node(self.is_leaf, [entries[i] for i in move])

    # ------------------------------------------------------------------
    # Block internals
    # ------------------------------------------------------------------
    def _build_block(self, columns: int) -> None:
        """Fill a block of ``columns`` columns from the entries."""
        rects = [e.rect for e in self.entries]
        n = len(rects)
        self.lo = np.zeros((rects[0].dim, columns))
        self.hi = np.zeros_like(self.lo)
        self.areas = np.zeros(columns)
        self.lo[:, :n] = np.array([r.lo for r in rects]).T
        self.hi[:, :n] = np.array([r.hi for r in rects]).T
        self.areas[:n] = [r.area for r in rects]

    def _write(self, i: int, rect: Rect) -> None:
        self.lo[:, i] = rect.lo
        self.hi[:, i] = rect.hi
        self.areas[i] = rect.area

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        kind = "leaf" if self.is_leaf else "internal"
        return f"Node({kind}, n={len(self.entries)})"
