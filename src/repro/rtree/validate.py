"""Structural invariant checking for R-trees.

Used pervasively in the test suite (including the hypothesis-driven
random operation sequences) to assert that every tree produced by
insertion, deletion, or bulk loading is a well-formed R-tree.
"""

from __future__ import annotations

import numpy as np

from .node import Node, product
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
    * leaf entries point to items and internal entries to nodes;
    * every stored area equals the product of its column's widths
      (the areas ChooseLeaf reads, see :class:`Node`);
    * every internal entry's column equals its child's actual MBR;
    * the number of stored items equals ``len(tree)``.

    Raises :class:`InvariantViolation` on the first failure.
    """
    root = tree.root
    if len(tree) == 0:
        if not root.is_leaf or root.refs:
            raise InvariantViolation("empty tree must be a bare leaf root")
        return

    leaf_depths: set[int] = set()
    item_count = 0

    def visit(node: Node, depth: int, is_root: bool) -> None:
        nonlocal item_count
        n = len(node.refs)
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

        lo, hi = node.corners()
        if not np.array_equal(node.areas[:n], product(hi - lo)):
            raise InvariantViolation(
                f"stored areas at depth {depth} are not their columns' areas"
            )
        if node.is_leaf:
            leaf_depths.add(depth)
            if any(isinstance(ref, Node) for ref in node.refs):
                raise InvariantViolation("leaf entry has a child pointer")
            item_count += n
        else:
            for i, child in enumerate(node.refs):
                if not isinstance(child, Node):
                    raise InvariantViolation("internal entry has no child")
                if not child.refs:
                    raise InvariantViolation(f"empty child at depth {depth + 1}")
                if not np.array_equal(node.block[:, i], child.mbr_row()):
                    raise InvariantViolation(
                        f"stale MBR at depth {depth}: stored {node.rect(i)}, "
                        f"actual {child.mbr()}"
                    )
                visit(child, depth + 1, is_root=False)

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
