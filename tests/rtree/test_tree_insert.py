"""Insertion tests for the dynamic R-tree."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from repro.geometry import GeometryError, Rect, mbr_of
from repro.packing import tat_tree
from repro.rtree import Node, RStarTree, RTree, check_tree
from repro.rtree.node import rect_rows
from repro.rtree.rstar import rstar_tree
from tests.conftest import corners, random_rects
from tests.rtree.test_split import reference_quadratic_split


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

    @pytest.mark.parametrize("tree_cls", [RTree, RStarTree])
    @pytest.mark.parametrize("n_stored", [2, 6])
    def test_other_dimensionality_rejected_before_any_change(
        self, tree_cls, n_stored
    ):
        # 2 rects keep a leaf root; 6 give a height-2 tree at capacity 4.
        t = tree_cls(max_entries=4)
        for i in range(n_stored):
            t.insert(Rect((i * 0.1, 0.0), (i * 0.1 + 0.05, 0.05)), i)
        height = t.height
        with pytest.raises(GeometryError, match="dimensionality mismatch"):
            t.insert(Rect((0.0, 0.0, 0.0), (0.1, 0.1, 0.1)), "3-d")
        assert len(t) == n_stored
        assert t.height == height
        check_tree(t)
        assert sorted(t.search(Rect((0, 0), (1, 1)))) == list(range(n_stored))


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


def reference_choose_subtree(rects, rect):
    """ChooseLeaf as a scalar loop over the entries' rectangles with
    builtin ``max``/``min``: the oracle for the vectorised pass over a
    node's block in ``RTree._choose_subtrees``.  Returns the chosen
    index."""
    r_lo, r_hi = rect.lo, rect.hi
    best = None
    best_enlargement = float("inf")
    best_area = float("inf")
    for i, e in enumerate(rects):
        area = 1.0
        union_area = 1.0
        for a, b, c, d in zip(e.lo, e.hi, r_lo, r_hi):
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


def row_of(rect):
    return rect_rows(np.array(rect.lo), np.array(rect.hi))


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
    """An internal node and up to 12 rectangles on a 1/8 grid."""
    dim = draw(st.sampled_from([1, 2, 3]))
    n = draw(st.integers(min_value=1, max_value=40))
    k = draw(st.integers(min_value=1, max_value=12))
    rects = grid_rects(draw, dim, n + k)
    node = Node(is_leaf=False)
    for r in rects[:n]:
        node.append(row_of(r), r.area, Node(is_leaf=True))
    return node, rects[:n], rects[n:]


@settings(max_examples=200, deadline=None)
@given(grid_choose_inputs())
def test_choose_subtree_matches_builtin_max_min(case):
    node, stored, queries = case
    rows = np.array([row_of(q) for q in queries])
    slots, grows = RTree()._choose_subtrees(node, rows)
    assert slots == [reference_choose_subtree(stored, q) for q in queries]
    assert grows == [not stored[s].contains_rect(q) for s, q in zip(slots, queries)]


class ReferenceNode:
    """A node of :class:`ReferenceTree`: ``[rect, child or item]``
    pairs."""

    def __init__(self, is_leaf, entries=()):
        self.is_leaf = is_leaf
        self.entries = list(entries)

    def mbr(self):
        return mbr_of(rect for rect, _ in self.entries)


class ReferenceTree:
    """Guttman insertion as a recursive scalar descent over
    :class:`Rect` covers, with the scalar oracles
    ``reference_choose_subtree`` and ``reference_quadratic_split``: the
    oracle for the array insert loop and its answers computed ahead."""

    def __init__(self, max_entries):
        self.max_entries = max_entries
        self.min_entries = max(1, round(0.4 * max_entries))
        self.root = ReferenceNode(is_leaf=True)
        self.height = 1

    def insert(self, rect, item):
        sibling = self._insert(self.root, rect, item, self.height - 1)
        if sibling is not None:
            self.root = ReferenceNode(
                False,
                [[self.root.mbr(), self.root], [sibling.mbr(), sibling]],
            )
            self.height += 1

    def _insert(self, node, rect, item, depth):
        if depth == 0:
            node.entries.append([rect, item])
        else:
            i = reference_choose_subtree([r for r, _ in node.entries], rect)
            cover, child = node.entries[i]
            sibling = self._insert(child, rect, item, depth - 1)
            if sibling is None:
                if not cover.contains_rect(rect):
                    node.entries[i][0] = cover.union(rect)
                return None
            node.entries[i][0] = child.mbr()
            node.entries.append([sibling.mbr(), sibling])
        if len(node.entries) <= self.max_entries:
            return None
        lo, hi = corners([r for r, _ in node.entries])
        keep, move = reference_quadratic_split(lo, hi, self.min_entries)
        entries = node.entries
        node.entries = [entries[i] for i in keep]
        return ReferenceNode(node.is_leaf, [entries[i] for i in move])


def layout(node):
    """The nested item layout of a subtree."""
    if isinstance(node, ReferenceNode):
        if node.is_leaf:
            return [item for _, item in node.entries]
        return [layout(child) for _, child in node.entries]
    if node.is_leaf:
        return list(node.refs)
    return [layout(child) for child in node.refs]


@st.composite
def grid_insert_inputs(draw, max_rects=150):
    dim = draw(st.sampled_from([1, 2, 3]))
    n = draw(st.integers(min_value=1, max_value=max_rects))
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
    reference = ReferenceTree(max_entries)
    for i, r in enumerate(rects):
        fast.insert(r, i)
        reference.insert(r, i)
    check_tree(fast)
    assert layout(fast.root) == layout(reference.root)


@settings(
    max_examples=80,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(grid_insert_inputs(max_rects=300), st.sampled_from([1, 2, 7, 128]))
def test_answers_computed_ahead_build_the_reference_tree(case, window):
    """``tat_tree`` answers ChooseLeaf ahead, in windows of ``window``
    rows, and reuses each answer until the node's block changes; its
    tree must be the one that one insert per rectangle builds, and the
    one the scalar oracles build."""
    rects, max_entries = case
    with mock.patch("repro.rtree.tree.CHOOSE_AHEAD", window):
        ahead = tat_tree(rects, max_entries)
    one_by_one = RTree(max_entries=max_entries)
    reference = ReferenceTree(max_entries)
    for i, r in enumerate(rects):
        one_by_one.insert(r, i)
        reference.insert(r, i)
    check_tree(ahead)
    assert layout(ahead.root) == layout(one_by_one.root) == layout(reference.root)


@pytest.mark.parametrize("make", [RTree, RStarTree], ids=["rtree", "rstar"])
class TestAreaOverflow:
    """Finite coordinates whose areas overflow float64 are rejected
    before any node changes."""

    def test_rejected_insert_leaves_the_tree_as_it_was(self, make):
        t = make(max_entries=4)
        for i in range(9):
            t.insert(Rect((i * 1e150, 0.0), (i * 1e150 + 1.0, 1e150)), i)
        size, height = len(t), t.height
        with pytest.raises(GeometryError, match="overflows"):
            t.insert(Rect((0.0, 1e160), (1.0, 1e200)), "huge")
        assert (len(t), t.height) == (size, height)
        check_tree(t)
        assert sorted(t.search(Rect((0.0, 0.0), (1e160, 1e160)))) == list(range(9))

    def test_huge_random_boxes(self, make, rng):
        t = make(max_entries=4)
        for i in range(50):
            lo = rng.uniform(-1e200, 1e200, 2)
            size, height = len(t), t.height
            try:
                t.insert(Rect(tuple(lo), tuple(lo + 1e199)), i)
            except GeometryError:
                assert (len(t), t.height) == (size, height)
        check_tree(t)

    def test_bulk_load_checks_the_data_mbr(self, make):
        data = [Rect((0.0, 0.0), (1.0, 1.0)), Rect((1e200, 1e200), (1e200, 1e200))]
        loader = tat_tree if make is RTree else rstar_tree
        with pytest.raises(GeometryError, match="overflows"):
            loader(data, 4)
