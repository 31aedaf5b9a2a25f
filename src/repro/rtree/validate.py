"""Structural invariant checking for R-trees.

Used pervasively in the test suite (including the hypothesis-driven
random operation sequences) to assert that every tree produced by
insertion, deletion, or bulk loading is a well-formed R-tree.
"""

from __future__ import annotations

import numpy as np

from ..geometry import mbr_of
from .node import Node
from .tree import RTree

__all__ = ["InvariantViolation", "check_tree"]


class InvariantViolation(AssertionError):
    """An R-tree structural invariant does not hold."""


def check_tree(tree: RTree) -> None:
    """Verify all structural invariants of ``tree``.

    Checks, for every node:

    * leaves all sit at the same depth;
    * entry counts are within ``[min_entries, max_entries]`` for
      non-root nodes, and the root has >= 2 entries when internal;
    * every internal entry's rectangle equals its child's actual MBR;
    * every internal node's block columns and areas equal its entries'
      rectangles (the block ChooseLeaf reads, see :class:`Node`);
    * the number of stored items equals ``len(tree)``.

    Raises :class:`InvariantViolation` on the first failure.
    """
    root = tree.root
    if len(tree) == 0:
        if not root.is_leaf or root.entries:
            raise InvariantViolation("empty tree must be a bare leaf root")
        return

    leaf_depths: set[int] = set()
    item_count = 0

    def visit(node: Node, depth: int, is_root: bool) -> None:
        nonlocal item_count
        n = len(node.entries)
        if n > tree.max_entries:
            raise InvariantViolation(
                f"node at depth {depth} has {n} > max {tree.max_entries} entries"
            )
        if is_root:
            if not node.is_leaf and n < 2:
                raise InvariantViolation("internal root must have >= 2 entries")
            if node.is_leaf and n < 1:
                raise InvariantViolation("non-empty tree has an empty leaf root")
        elif n < tree.min_entries:
            raise InvariantViolation(
                f"node at depth {depth} has {n} < min {tree.min_entries} entries"
            )

        if node.is_leaf:
            leaf_depths.add(depth)
            for e in node.entries:
                if e.child is not None:
                    raise InvariantViolation("leaf entry has a child pointer")
                item_count += 1
        else:
            for e in node.entries:
                if e.child is None:
                    raise InvariantViolation("internal entry has no child")
                actual = mbr_of(c.rect for c in e.child.entries)
                if actual != e.rect:
                    raise InvariantViolation(
                        f"stale MBR at depth {depth}: stored {e.rect}, actual {actual}"
                    )
                visit(e.child, depth + 1, is_root=False)
            if not _block_matches(node):
                raise InvariantViolation(
                    f"child block at depth {depth} does not mirror its entries"
                )

    visit(root, 0, is_root=True)

    if len(leaf_depths) != 1:
        raise InvariantViolation(f"leaves at multiple depths: {sorted(leaf_depths)}")
    depth = leaf_depths.pop()
    if depth + 1 != tree.height:
        raise InvariantViolation(
            f"tree.height {tree.height} != actual height {depth + 1}"
        )
    if item_count != len(tree):
        raise InvariantViolation(
            f"stored items {item_count} != len(tree) {len(tree)}"
        )


def _block_matches(node: Node) -> bool:
    """Whether an internal node's block mirrors its entries' rectangles."""
    if node.lo is None:
        return False
    n = len(node.entries)
    rects = [e.rect for e in node.entries]
    return (
        np.array_equal(node.lo[:, :n], np.array([r.lo for r in rects]).T)
        and np.array_equal(node.hi[:, :n], np.array([r.hi for r in rects]).T)
        and np.array_equal(node.areas[:n], [r.area for r in rects])
    )
