"""Insertion tests for the dynamic R-tree."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from repro.geometry import GeometryError, Rect
from repro.rtree import Entry, Node, RTree, check_tree
from tests.conftest import random_rects


class TestConstruction:
    def test_empty_tree(self):
        t = RTree(max_entries=4)
        assert len(t) == 0
        assert t.height == 1
        check_tree(t)

    def test_default_min_entries_is_40_percent(self):
        assert RTree(max_entries=10).min_entries == 4
        assert RTree(max_entries=100).min_entries == 40

    def test_min_entries_validation(self):
        with pytest.raises(ValueError):
            RTree(max_entries=10, min_entries=6)  # > max/2
        with pytest.raises(ValueError):
            RTree(max_entries=10, min_entries=0)

    def test_max_entries_validation(self):
        with pytest.raises(ValueError):
            RTree(max_entries=1)

    def test_unknown_split_rejected(self):
        with pytest.raises(ValueError):
            RTree(split="cubic")

    def test_custom_split_callable(self):
        from repro.rtree import quadratic_split

        t = RTree(max_entries=4, split=quadratic_split)
        for i in range(20):
            t.insert(Rect((i * 0.01, 0.0), (i * 0.01 + 0.005, 0.01)), i)
        check_tree(t)

    def test_mbr_of_empty_tree_raises(self):
        with pytest.raises(GeometryError):
            RTree().mbr()


class TestInsertion:
    def test_single_insert(self):
        t = RTree(max_entries=4)
        r = Rect((0.1, 0.1), (0.2, 0.2))
        t.insert(r, "a")
        assert len(t) == 1
        assert t.mbr() == r
        check_tree(t)

    def test_insert_until_root_split(self):
        t = RTree(max_entries=4, min_entries=2)
        for i in range(5):
            t.insert(Rect((i * 0.1, 0.0), (i * 0.1 + 0.05, 0.05)), i)
        assert t.height == 2
        assert len(t) == 5
        check_tree(t)

    def test_insert_many_random(self, rng):
        t = RTree(max_entries=8, min_entries=3)
        arr = random_rects(rng, 500)
        for i, r in enumerate(arr):
            t.insert(r, i)
        assert len(t) == 500
        assert t.height >= 3
        check_tree(t)

    def test_duplicate_rects_allowed(self):
        t = RTree(max_entries=4)
        r = Rect((0.4, 0.4), (0.6, 0.6))
        for i in range(20):
            t.insert(r, i)
        assert len(t) == 20
        check_tree(t)
        assert sorted(t.search(r)) == list(range(20))

    def test_all_items_retrievable(self, rng):
        t = RTree(max_entries=6)
        arr = random_rects(rng, 200)
        for i, r in enumerate(arr):
            t.insert(r, i)
        stored = dict((item, rect) for rect, item in t.items())
        assert len(stored) == 200
        for i, r in enumerate(arr):
            assert stored[i] == r

    def test_mbr_covers_all_inserted(self, rng):
        t = RTree(max_entries=5)
        arr = random_rects(rng, 100)
        for i, r in enumerate(arr):
            t.insert(r, i)
        mbr = t.mbr()
        for r in arr:
            assert mbr.contains_rect(r)

    def test_linear_split_tree_valid(self, rng):
        t = RTree(max_entries=8, split="linear")
        arr = random_rects(rng, 300)
        for i, r in enumerate(arr):
            t.insert(r, i)
        check_tree(t)
        assert len(t) == 300

    def test_point_data(self, rng):
        t = RTree(max_entries=10)
        pts = rng.random((150, 2))
        for i, p in enumerate(pts):
            t.insert(Rect.from_point(p), i)
        check_tree(t)
        assert len(t) == 150

    def test_higher_dimensions(self, rng):
        t = RTree(max_entries=6)
        for i in range(100):
            lo = rng.random(3) * 0.9
            t.insert(Rect(tuple(lo), tuple(lo + 0.05)), i)
        check_tree(t)
        result = t.search(Rect((0, 0, 0), (1, 1, 1)))
        assert sorted(result) == list(range(100))


class TestStructure:
    def test_nodes_by_level_shape(self, rng):
        t = RTree(max_entries=4, min_entries=2)
        arr = random_rects(rng, 64)
        for i, r in enumerate(arr):
            t.insert(r, i)
        levels = t.nodes_by_level()
        assert len(levels) == t.height
        assert len(levels[0]) == 1
        assert all(n.is_leaf for n in levels[-1])
        assert all(not n.is_leaf for lvl in levels[:-1] for n in lvl)
        assert t.node_count() == sum(len(lvl) for lvl in levels)

    def test_level_sizes_grow_downward(self, rng):
        t = RTree(max_entries=4, min_entries=2)
        arr = random_rects(rng, 200)
        for i, r in enumerate(arr):
            t.insert(r, i)
        sizes = [len(lvl) for lvl in t.nodes_by_level()]
        assert sizes == sorted(sizes)


def reference_choose_subtree(node, rect):
    """ChooseLeaf as a scalar loop over the entries with builtin
    ``max``/``min``: the oracle for the vectorised pass over the node's
    block in ``RTree._choose_subtree``.  Returns the chosen index."""
    r_lo, r_hi = rect.lo, rect.hi
    best = None
    best_enlargement = float("inf")
    best_area = float("inf")
    for i, e in enumerate(node.entries):
        area = 1.0
        union_area = 1.0
        for a, b, c, d in zip(e.rect.lo, e.rect.hi, r_lo, r_hi):
            area *= b - a
            union_area *= max(b, d) - min(a, c)
        enlargement = union_area - area
        if enlargement < best_enlargement or (
            enlargement == best_enlargement and area < best_area
        ):
            best = i
            best_enlargement = enlargement
            best_area = area
    return best


def grid_rects(draw, dim, n):
    """``n`` rectangles on a 1/8 grid.

    Small integer corners make equal enlargements and equal areas (the
    two tie-breaks) frequent, including zero-area rectangles.
    """
    lo = draw(arrays(np.int64, (n, dim), elements=st.integers(0, 8))) / 8
    side = draw(arrays(np.int64, (n, dim), elements=st.integers(0, 4))) / 8
    return [Rect(tuple(l), tuple(l + s)) for l, s in zip(lo, side)]


@st.composite
def grid_choose_inputs(draw):
    """An internal node and a rectangle on a 1/8 grid."""
    dim = draw(st.sampled_from([1, 2, 3]))
    n = draw(st.integers(min_value=1, max_value=40))
    rects = grid_rects(draw, dim, n + 1)
    node = Node(
        is_leaf=False,
        entries=[Entry(r, child=Node(is_leaf=True)) for r in rects[:n]],
    )
    return node, rects[n]


@settings(max_examples=200, deadline=None)
@given(grid_choose_inputs())
def test_choose_subtree_matches_builtin_max_min(case):
    node, rect = case
    assert RTree()._choose_subtree(node, rect) == reference_choose_subtree(
        node, rect
    )


class ReferenceChooseLeafTree(RTree):
    """An R-tree whose ChooseLeaf is the scalar oracle."""

    def _choose_subtree(self, node, rect):
        return reference_choose_subtree(node, rect)


def layout(node):
    """The nested item layout of a subtree."""
    if node.is_leaf:
        return [e.item for e in node.entries]
    return [layout(e.child) for e in node.entries]


@st.composite
def grid_insert_inputs(draw):
    dim = draw(st.sampled_from([1, 2, 3]))
    n = draw(st.integers(min_value=1, max_value=150))
    max_entries = draw(st.integers(min_value=3, max_value=10))
    return grid_rects(draw, dim, n), max_entries


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(grid_insert_inputs())
def test_vectorised_choose_leaf_builds_the_reference_tree(case):
    rects, max_entries = case
    fast = RTree(max_entries=max_entries)
    reference = ReferenceChooseLeafTree(max_entries=max_entries)
    for i, r in enumerate(rects):
        fast.insert(r, i)
        reference.insert(r, i)
    check_tree(fast)
    assert layout(fast.root) == layout(reference.root)
