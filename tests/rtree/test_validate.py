"""Tests for the invariant checker itself (it must catch corruption)."""

import pytest

from repro.geometry import Rect
from repro.rtree import InvariantViolation, RTree, check_tree
from repro.rtree.node import Node
from tests.conftest import random_rects


@pytest.fixture
def tree(rng) -> RTree:
    t = RTree(max_entries=4, min_entries=2)
    for i, r in enumerate(random_rects(rng, 60)):
        t.insert(r, i)
    return t


def test_valid_tree_passes(tree):
    check_tree(tree)


def test_empty_tree_passes():
    check_tree(RTree())


def test_detects_stale_parent_mbr(tree):
    root = tree.root
    grown = root.rect(0).expanded_centered((0.5, 0.5))
    root.block[:, 0] = grown.hi + tuple(-x for x in grown.lo)
    root.areas[0] = grown.area
    with pytest.raises(InvariantViolation, match="stale MBR"):
        check_tree(tree)


def test_detects_overflow(tree):
    leaf = tree.nodes_by_level()[-1][0]
    for i in range(10):
        leaf.append(leaf.block[:, 0].copy(), float(leaf.areas[0]), 1000 + i)
    with pytest.raises(InvariantViolation):
        check_tree(tree)


def test_detects_underflow(tree):
    leaf = tree.nodes_by_level()[-1][0]
    removed = leaf.refs[1:]
    del leaf.refs[1:]
    try:
        with pytest.raises(InvariantViolation):
            check_tree(tree)
    finally:
        leaf.refs.extend(removed)


def test_detects_item_count_mismatch(tree):
    tree._size += 1
    with pytest.raises(InvariantViolation, match="stored items"):
        check_tree(tree)


def test_detects_wrong_height(tree):
    tree._height += 1
    with pytest.raises(InvariantViolation, match="height"):
        check_tree(tree)


def test_detects_leaf_entry_with_child():
    t = RTree(max_entries=4)
    t.insert(Rect((0, 0), (0.1, 0.1)), "a")
    child = Node(is_leaf=True)
    child.append(t.root.block[:, 0].copy(), float(t.root.areas[0]), "b")
    t.root.refs[0] = child
    with pytest.raises(InvariantViolation, match="child"):
        check_tree(t)


def test_detects_nonempty_claimed_empty():
    t = RTree(max_entries=4)
    t.insert(Rect((0, 0), (0.1, 0.1)), "a")
    t._size = 0
    with pytest.raises(InvariantViolation):
        check_tree(t)


def test_detects_stale_child_block(tree):
    root = tree.root
    root.block[0, 0] += 0.25
    with pytest.raises(InvariantViolation, match="areas|stale MBR"):
        check_tree(tree)


def test_detects_stale_child_area(tree):
    root = tree.root
    root.areas[len(root) - 1] += 1.0
    with pytest.raises(InvariantViolation, match="areas"):
        check_tree(tree)


def test_detects_stale_leaf_area(tree):
    leaf = tree.nodes_by_level()[-1][-1]
    leaf.areas[0] *= 1.0 + 2**-52
    with pytest.raises(InvariantViolation, match="areas"):
        check_tree(tree)


def test_detects_stale_column_with_matching_area(tree):
    # A column copied from its neighbour with its area passes the area
    # check; only the comparison with the child's MBR sees it.
    root = tree.root
    root.block[:, 0] = root.block[:, 1]
    root.areas[0] = root.areas[1]
    with pytest.raises(InvariantViolation, match="stale MBR"):
        check_tree(tree)
