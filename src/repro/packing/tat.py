"""Tuple-At-a-Time (TAT) loading.

"This algorithm simply inserts one tuple at a time into the R-tree
using the quadratic split heuristic of Guttman [3]" (§2.2).  The
resulting tree has worse space utilisation and structure than the
packed trees, which is exactly what makes it an interesting input to
the buffer model.

The linear split is also accepted, so split policies themselves can be
compared under the model (one of the paper's stated applications).
"""

from __future__ import annotations

from typing import Any, Sequence

from ..geometry import GeometryError, Rect, RectArray
from ..obs.spans import span
from ..rtree import RTree, TreeDescription
from ..rtree.split import SplitFunction

__all__ = ["tat_tree", "tat_description"]


def tat_tree(
    data: RectArray | Sequence[Rect],
    capacity: int,
    items: Sequence[Any] | None = None,
    min_entries: int | None = None,
    split: str | SplitFunction = "quadratic",
) -> RTree:
    """Load a tree by repeated insertion (Guttman).

    ``items[i]`` defaults to the input index ``i``, matching the packed
    loaders.  The insertions read rows of the data's arrays
    (:meth:`RTree.insert_many`); the tree is the one that one
    :meth:`RTree.insert` per rectangle builds.
    """
    if len(data) == 0:
        raise GeometryError("cannot load an empty data set")
    if items is not None and len(items) != len(data):
        raise ValueError("items must align one-to-one with data rectangles")
    with span("packing.tat_build", capacity=capacity, n_rects=len(data)):
        tree = RTree(
            max_entries=capacity, min_entries=min_entries, split=split
        )
        tree.insert_many(data, items)
    return tree


def tat_description(
    data: RectArray | Sequence[Rect],
    capacity: int,
    min_entries: int | None = None,
    split: str | SplitFunction = "quadratic",
) -> TreeDescription:
    """Per-level node MBRs of the TAT-loaded tree.

    Unlike the packed loaders there is no fast path: the tree structure
    depends on the full insertion dynamics, so the tree is actually
    built.
    """
    tree = tat_tree(data, capacity, min_entries=min_entries, split=split)
    return TreeDescription.from_tree(tree)
