"""R-tree nodes and the one copy of their entries' rectangles.

An R-tree node stores up to ``max_entries`` entries.  Each entry pairs a
rectangle with either a child node (internal nodes) or an opaque item
(leaf nodes) — the ``(R, P)`` pairs of the paper's §2.1.  At the leaf
level ``R`` is the bounding box of an actual object; at internal nodes
``R`` is the MBR of everything stored in the subtree.

Every node, leaves included, keeps its entries' rectangles in one
float64 block, their only copy.  ``block`` has shape ``(2d, columns)``
and column ``i`` is entry ``i``'s rectangle as the row ``[hi; -lo]``:
its upper corner on rows ``0..d-1``, its negated lower corner on rows
``d..2d-1``.  ``areas[i]`` is that rectangle's area and ``refs[i]`` its
child node or item.  Columns past ``len(refs)`` are spare room for
appends.  With that layout, for a query row ``q = [q_hi; -q_lo]``:

* the union with every entry is ``np.maximum(block, q)``, and the union
  widths are ``M[:d] + M[d:]``;
* an entry contains ``q`` iff its column is ``>= q`` on every row;
* an entry intersects ``Q`` iff its column is ``>= [Q_lo; -Q_hi]``;
* the node's MBR is one ``max(axis=1)``.

These are exactly the floats the scalar loops over corner tuples give:
``max(-lo, -a) == -min(lo, a)`` and ``x + (-y)`` is ``x - y`` in IEEE
754.  Areas multiply their widths left to right (:func:`product`), as
:attr:`Rect.area` does.

Only the methods of :class:`Node` write a block: :meth:`append`,
:meth:`pop`, :meth:`set_cover`, :meth:`enlarge` and :meth:`split`.
Each also clears the node's ``queue``, the ChooseLeaf answers
:class:`~repro.rtree.RTree` computed ahead against the block, so an
answer is never read after the block it came from changed.
:class:`Rect` objects are built only where a caller asks for one
(:meth:`rect`, :meth:`mbr`).
"""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np

from ..geometry import GeometryError, Rect, RectArray

__all__ = [
    "Node",
    "array_rows",
    "mbr_array",
    "product",
    "rect_rows",
    "row_area",
    "row_corners",
]


def rect_rows(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """The ``(n, 2d)`` rows ``[hi; -lo]`` of ``n`` rectangles given by
    their ``(n, d)`` corner arrays."""
    return np.concatenate([hi, -np.asarray(lo)], axis=-1)


def array_rows(data: RectArray) -> tuple[np.ndarray, np.ndarray]:
    """The rows ``[hi; -lo]`` of ``data``'s rectangles and their areas."""
    return rect_rows(data.lo, data.hi), product(data.hi.T - data.lo.T)


def mbr_array(nodes: Sequence["Node"]) -> RectArray:
    """The MBR of each of ``nodes``, one max-reduce over its block."""
    rows = np.array([node.mbr_row() for node in nodes])
    d = rows.shape[1] // 2
    return RectArray(-rows[:, d:], rows[:, :d])


def product(widths: np.ndarray) -> np.ndarray:
    """Product over axis 0, multiplied left to right.

    ``np.prod`` may reorder (pairwise or vectorised) the multiplications;
    this keeps the order of ``1.0 * w_0 * w_1 * ...``, the order of
    :attr:`Rect.area`.
    """
    result = widths[0]
    for axis in range(1, len(widths)):
        result = result * widths[axis]
    return result


def row_area(row: np.ndarray) -> float:
    """Area of the rectangle ``row = [hi; -lo]``, as :attr:`Rect.area`
    computes it."""
    d = len(row) // 2
    widths = (row[:d] + row[d:]).tolist()
    area = widths[0]
    for width in widths[1:]:
        area *= width
    return area


def row_corners(row: np.ndarray) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """The ``(lo, hi)`` corner tuples of the rectangle ``row = [hi;
    -lo]``, the floats it was built from."""
    values = row.tolist()
    d = len(values) // 2
    return tuple(-x for x in values[d:]), tuple(values[:d])


class Node:
    """An R-tree node: a leaf holding items or an internal routing node.

    ``block`` and ``areas`` are ``None`` until the first entry arrives
    (an empty tree's root does not know its dimensionality yet).
    """

    __slots__ = ("is_leaf", "block", "areas", "refs", "queue")

    def __init__(
        self,
        is_leaf: bool,
        block: np.ndarray | None = None,
        areas: np.ndarray | None = None,
        refs: Sequence[Any] = (),
    ) -> None:
        self.is_leaf = is_leaf
        self.block = block
        self.areas = areas
        self.refs: list[Any] = list(refs)
        self.queue: dict[int, tuple[int, bool]] = {}

    def __len__(self) -> int:
        return len(self.refs)

    @property
    def dim(self) -> int:
        """Dimensionality of the stored rectangles."""
        if self.block is None:
            raise GeometryError("an empty node has no dimensionality")
        return self.block.shape[0] // 2

    def columns(self) -> np.ndarray:
        """The ``(2d, n)`` view of the entries' columns."""
        return self.block[:, : len(self.refs)]

    def corners(self) -> tuple[np.ndarray, np.ndarray]:
        """The entries' ``(d, n)`` corner arrays ``lo`` and ``hi`` (the
        input of a split function), as fresh arrays."""
        block = self.columns()
        d = len(block) // 2
        return -block[d:], block[:d].copy()

    def rect(self, i: int) -> Rect:
        """Entry ``i``'s rectangle."""
        return Rect(*row_corners(self.block[:, i]))

    def mbr_row(self) -> np.ndarray:
        """Minimum bounding rectangle of all entries, as a row
        ``[hi; -lo]``."""
        if not self.refs:
            raise GeometryError("mbr() of an empty node")
        return self.columns().max(axis=1)

    def mbr(self) -> Rect:
        """Minimum bounding rectangle of all entries in this node."""
        return Rect(*row_corners(self.mbr_row()))

    def children(self) -> list["Node"]:
        """Child nodes (internal nodes only)."""
        if self.is_leaf:
            return []
        return list(self.refs)

    # ------------------------------------------------------------------
    # Mutation: the only ways a block may change
    # ------------------------------------------------------------------
    def append(self, row: np.ndarray, area: float, ref: Any) -> None:
        """Add the entry ``(row, ref)`` as the last entry; ``area`` is
        ``row``'s area."""
        n = len(self.refs)
        if self.block is None:
            self.block = np.empty((len(row), 2))
            self.areas = np.empty(2)
        elif n == self.block.shape[1]:
            # A Node does not know the tree's capacity: double the room.
            block = np.empty((len(row), 2 * n))
            block[:, :n] = self.block
            areas = np.empty(2 * n)
            areas[:n] = self.areas
            self.block, self.areas = block, areas
        self.block[:, n] = row
        self.areas[n] = area
        self.refs.append(ref)
        self.queue = {}

    def pop(self, i: int) -> tuple[np.ndarray, float, Any]:
        """Remove entry ``i`` and return its ``(row, area, ref)``; later
        entries move up one."""
        n = len(self.refs)
        row = self.block[:, i].copy()
        area = float(self.areas[i])
        self.block[:, i : n - 1] = self.block[:, i + 1 : n]
        self.areas[i : n - 1] = self.areas[i + 1 : n]
        self.queue = {}
        return row, area, self.refs.pop(i)

    def set_cover(self, i: int, row: np.ndarray) -> None:
        """Replace entry ``i``'s rectangle by ``row``, e.g. its child's
        MBR after the child split or shrank."""
        self.block[:, i] = row
        self.areas[i] = row_area(row)
        self.queue = {}

    def enlarge(self, i: int, row: np.ndarray) -> None:
        """Grow entry ``i``'s rectangle to cover ``row`` (a cover update).

        Most inserts land inside the cover already; only a cover that
        grows is rewritten.
        """
        cover = self.block[:, i]
        if (cover >= row).all():
            return
        self.set_cover(i, np.maximum(cover, row))

    def split(self, keep: Sequence[int], move: Sequence[int]) -> "Node":
        """Keep entries ``keep`` here, in that order, and return a new
        sibling holding entries ``move`` (a split's two groups).  The
        sibling's block has this block's width."""
        block, areas, refs = self.block, self.areas, self.refs
        sibling = Node(self.is_leaf, np.empty_like(block), np.empty_like(areas))
        sibling.block[:, : len(move)] = block[:, move]
        sibling.areas[: len(move)] = areas[move]
        sibling.refs = [refs[i] for i in move]
        block[:, : len(keep)] = block[:, keep]
        areas[: len(keep)] = areas[keep]
        self.refs = [refs[i] for i in keep]
        self.queue = {}
        return sibling

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        kind = "leaf" if self.is_leaf else "internal"
        return f"Node({kind}, n={len(self.refs)})"

