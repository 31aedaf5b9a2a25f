"""Tree descriptions: the MBR-per-level view the model consumes.

The paper's methodology is hybrid: a loading algorithm builds a real
R-tree, then "we compute the minimum bounding rectangles of tree nodes
and use these as input to our buffer model".  :class:`TreeDescription`
is exactly that input — one :class:`~repro.geometry.RectArray` per tree
level, root first — so the analytic layer never needs to know how the
tree was built.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from ..geometry import GeometryError, Rect, RectArray
from .node import mbr_array

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from .tree import RTree

__all__ = ["TreeDescription"]


@dataclass(frozen=True)
class TreeDescription:
    """Per-level node MBRs of an R-tree (level 0 = root).

    Global node ids are level-major: nodes of level 0 first, then level
    1, etc., and within a level in array order.  This matches the
    top-down order in which a traversal touches nodes and is the order
    the simulator presents accesses to the buffer.
    """

    levels: tuple[RectArray, ...]

    def __post_init__(self) -> None:
        if not self.levels:
            raise GeometryError("a tree description needs at least one level")
        dim = self.levels[0].dim
        for i, level in enumerate(self.levels):
            if level.dim != dim:
                raise GeometryError(f"level {i} dimensionality mismatch")
            if len(level) == 0:
                raise GeometryError(f"level {i} is empty")

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_tree(cls, tree: "RTree") -> "TreeDescription":
        """Extract the description from a live :class:`RTree`: each
        node's MBR is one max-reduce over its block."""
        if len(tree) == 0:
            raise GeometryError("cannot describe an empty tree")
        return cls(tuple(mbr_array(level) for level in tree.nodes_by_level()))

    @classmethod
    def from_level_rects(cls, levels: list[list[Rect]]) -> "TreeDescription":
        """Build from plain per-level rectangle lists (root first)."""
        return cls(tuple(RectArray.from_rects(level) for level in levels))

    # ------------------------------------------------------------------
    # Shape
    # ------------------------------------------------------------------
    @property
    def height(self) -> int:
        """Number of levels ``H + 1``."""
        return len(self.levels)

    @property
    def dim(self) -> int:
        """Dimensionality of the indexed space."""
        return self.levels[0].dim

    @property
    def node_counts(self) -> tuple[int, ...]:
        """``M_i`` for each level, root first."""
        return tuple(len(level) for level in self.levels)

    @property
    def total_nodes(self) -> int:
        """``M`` — the total number of nodes (= pages) in the tree."""
        return sum(self.node_counts)

    # ------------------------------------------------------------------
    # Flattened view
    # ------------------------------------------------------------------
    @cached_property
    def all_rects(self) -> RectArray:
        """All node MBRs concatenated in level-major (global id) order."""
        return RectArray.concatenate(list(self.levels))

    @cached_property
    def level_offsets(self) -> tuple[int, ...]:
        """Global id of the first node of each level, plus a final sentinel."""
        offsets = [0]
        for level in self.levels:
            offsets.append(offsets[-1] + len(level))
        return tuple(offsets)

    @cached_property
    def node_levels(self) -> np.ndarray:
        """``(M,)`` array mapping each global node id to its level."""
        return np.repeat(
            np.arange(self.height), np.fromiter(self.node_counts, dtype=np.int64)
        )

    def level_of(self, node_id: int) -> int:
        """Level of a global node id."""
        if not 0 <= node_id < self.total_nodes:
            raise IndexError(f"node id {node_id} out of range")
        return int(self.node_levels[node_id])

    def drop_top_levels(self, count: int) -> "TreeDescription":
        """The description with the top ``count`` levels removed.

        Used by the pinning model: "omit the top levels from the
        model".  The result's first level usually has more than one
        node — descriptions are per-level MBR collections, not
        necessarily rooted trees.
        """
        if count < 0:
            raise ValueError("count must be non-negative")
        if count >= self.height:
            raise ValueError(f"cannot drop {count} of {self.height} levels")
        if count == 0:
            return self
        return TreeDescription(self.levels[count:])

    # ------------------------------------------------------------------
    # Aggregate geometry (the paper's A, L_x, L_y)
    # ------------------------------------------------------------------
    def total_area(self) -> float:
        """``A`` — the sum of all node MBR areas."""
        return self.all_rects.total_area()

    def total_extent(self, axis: int) -> float:
        """``L_axis`` — the sum of node MBR extents along one axis."""
        return self.all_rects.total_extent(axis)

    def pages_in_top_levels(self, count: int) -> int:
        """Number of pages occupied by the top ``count`` levels."""
        if not 0 <= count <= self.height:
            raise ValueError(f"count must be in [0, {self.height}]")
        return sum(self.node_counts[:count])

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        counts = "/".join(str(c) for c in self.node_counts)
        return f"TreeDescription(levels={counts}, dim={self.dim})"
