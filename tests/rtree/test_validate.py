"""Tests for the invariant checker itself (it must catch corruption)."""

import pytest

from repro.geometry import Rect
from repro.rtree import InvariantViolation, RTree, check_tree
from repro.rtree.node import Entry, Node
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
    entry = tree.root.entries[0]
    entry.rect = entry.rect.expanded_centered((0.5, 0.5))
    with pytest.raises(InvariantViolation, match="stale MBR"):
        check_tree(tree)


def test_detects_overflow(tree):
    leaf = tree.nodes_by_level()[-1][0]
    for i in range(10):
        leaf.entries.append(Entry(leaf.entries[0].rect, item=1000 + i))
    with pytest.raises(InvariantViolation):
        check_tree(tree)


def test_detects_underflow(tree):
    leaf = tree.nodes_by_level()[-1][0]
    removed = leaf.entries[1:]
    del leaf.entries[1:]
    try:
        with pytest.raises(InvariantViolation):
            check_tree(tree)
    finally:
        leaf.entries.extend(removed)


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
    leaf = t.root
    child = Node(is_leaf=True, entries=[Entry(Rect((0, 0), (0.1, 0.1)), item="b")])
    leaf.entries[0].child = child
    leaf.entries[0].item = None
    with pytest.raises(InvariantViolation, match="child"):
        check_tree(t)


def test_detects_nonempty_claimed_empty():
    t = RTree(max_entries=4)
    t.insert(Rect((0, 0), (0.1, 0.1)), "a")
    t._size = 0
    with pytest.raises(InvariantViolation):
        check_tree(t)


def test_entry_rejects_child_and_item():
    with pytest.raises(ValueError):
        Entry(Rect((0, 0), (1, 1)), child=Node(is_leaf=True), item="x")


def test_detects_stale_child_block(tree):
    root = tree.root
    root.lo[0, 0] += 0.25
    with pytest.raises(InvariantViolation, match="child block"):
        check_tree(tree)


def test_detects_stale_child_area(tree):
    root = tree.root
    root.areas[len(root.entries) - 1] += 1.0
    with pytest.raises(InvariantViolation, match="child block"):
        check_tree(tree)
