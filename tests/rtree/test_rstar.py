"""Tests for the R*-tree extension (split, insertion, reinsert)."""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from repro.geometry import Rect, mbr_of
from repro.rtree import RStarTree, RTree, check_tree, rstar_split
from repro.rtree.rstar import rstar_tree
from repro.rtree.split import SPLIT_FUNCTIONS, _validate_split_input, quadratic_split
from tests.conftest import brute_force_intersecting, corners, random_rects


class TestRStarSplit:
    def test_registered(self):
        assert SPLIT_FUNCTIONS["rstar"] is rstar_split

    def test_partition_complete_and_disjoint(self, rng):
        arr = random_rects(rng, 26)
        a, b = rstar_split(*corners(list(arr)), min_fill=10)
        assert sorted(a + b) == list(range(26))
        assert not set(a) & set(b)

    def test_min_fill_respected_at_every_distribution(self, rng):
        for n, m in ((26, 10), (11, 4), (5, 2), (4, 2)):
            arr = random_rects(np.random.default_rng(n), n)
            a, b = rstar_split(*corners(list(arr)), min_fill=m)
            assert len(a) >= m and len(b) >= m
            assert len(a) + len(b) == n

    def test_separates_clusters(self):
        left = [Rect((0.0, i * 0.01), (0.05, i * 0.01 + 0.005)) for i in range(5)]
        right = [Rect((0.9, i * 0.01), (0.95, i * 0.01 + 0.005)) for i in range(5)]
        a, b = rstar_split(*corners(left + right), min_fill=3)
        groups = {frozenset(a), frozenset(b)}
        assert groups == {frozenset(range(5)), frozenset(range(5, 10))}

    def test_overlap_not_worse_than_quadratic(self, rng):
        """R* optimises overlap directly; over random inputs its split
        overlap must not exceed the quadratic split's on average."""

        def overlap_of(rects, groups):
            bb1 = mbr_of(rects[i] for i in groups[0])
            bb2 = mbr_of(rects[i] for i in groups[1])
            inter = bb1.intersection(bb2)
            return inter.area if inter is not None else 0.0

        rstar_total = 0.0
        quad_total = 0.0
        for seed in range(20):
            arr = random_rects(np.random.default_rng(seed), 21, max_side=0.3)
            rects = list(arr)
            lo, hi = corners(rects)
            rstar_total += overlap_of(rects, rstar_split(lo, hi, 8))
            quad_total += overlap_of(rects, quadratic_split(lo, hi, 8))
        assert rstar_total <= quad_total + 1e-9

    def test_usable_as_plain_rtree_split(self, rng):
        tree = RTree(max_entries=8, split="rstar")
        for i, r in enumerate(random_rects(rng, 200)):
            tree.insert(r, i)
        check_tree(tree)
        assert len(tree) == 200


def reference_rstar_split(
    lo: np.ndarray, hi: np.ndarray, min_fill: int
) -> tuple[list[int], list[int]]:
    """The R* split as a scalar loop over :class:`Rect` prefix and
    suffix unions: the oracle for ``rstar_split``'s array passes."""
    _validate_split_input(lo, hi, min_fill)
    rects = [Rect(tuple(l), tuple(h)) for l, h in zip(lo.T.tolist(), hi.T.tolist())]
    total = len(rects)
    n_dist = total - 2 * min_fill + 1

    def orders(axis):
        by_lower = sorted(range(total), key=lambda i: rects[i].lo[axis])
        by_upper = sorted(range(total), key=lambda i: rects[i].hi[axis])
        return by_lower, by_upper

    def prefix_suffix(order):
        prefix = [rects[order[0]]]
        for i in range(1, total):
            prefix.append(prefix[-1].union(rects[order[i]]))
        suffix = [rects[order[-1]]]
        for i in range(total - 2, -1, -1):
            suffix.insert(0, suffix[0].union(rects[order[i]]))
        return prefix, suffix

    best_axis = 0
    best_margin_sum = math.inf
    for axis in range(rects[0].dim):
        margin_sum = 0.0
        for order in orders(axis):
            prefix, suffix = prefix_suffix(order)
            for k in range(n_dist):
                split_at = min_fill + k
                margin_sum += prefix[split_at - 1].margin + suffix[split_at].margin
        if margin_sum < best_margin_sum:
            best_margin_sum = margin_sum
            best_axis = axis

    best_groups = None
    best_overlap = math.inf
    best_area = math.inf
    for order in orders(best_axis):
        prefix, suffix = prefix_suffix(order)
        for k in range(n_dist):
            split_at = min_fill + k
            bb1, bb2 = prefix[split_at - 1], suffix[split_at]
            inter = bb1.intersection(bb2)
            overlap = inter.area if inter is not None else 0.0
            area = bb1.area + bb2.area
            if overlap < best_overlap or (overlap == best_overlap and area < best_area):
                best_overlap = overlap
                best_area = area
                best_groups = (order[:split_at], order[split_at:])
    return best_groups


@st.composite
def grid_split_inputs(draw):
    """Corner arrays on a 1/8 grid (ties, points and shared edges are
    common) plus a feasible ``min_fill``."""
    dim = draw(st.sampled_from([1, 2, 3]))
    n = draw(st.integers(min_value=2, max_value=60))
    lo = draw(arrays(np.int64, (dim, n), elements=st.integers(0, 8))) / 8
    side = draw(arrays(np.int64, (dim, n), elements=st.integers(0, 4))) / 8
    return lo, lo + side, draw(st.integers(min_value=1, max_value=n // 2))


@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(grid_split_inputs())
def test_rstar_split_matches_scalar_reference(case):
    lo, hi, min_fill = case
    assert rstar_split(lo, hi, min_fill) == reference_rstar_split(lo, hi, min_fill)


class TestRStarTree:
    def test_builds_valid_tree(self, rng):
        tree = RStarTree(max_entries=10)
        for i, r in enumerate(random_rects(rng, 400)):
            tree.insert(r, i)
        check_tree(tree)
        assert len(tree) == 400

    def test_all_items_retrievable(self, rng):
        arr = random_rects(rng, 300)
        tree = rstar_tree(arr, 10)
        found = sorted(tree.search(Rect((0, 0), (1, 1))))
        assert found == list(range(300))

    def test_queries_match_brute_force(self, rng):
        arr = random_rects(rng, 350)
        rects = list(arr)
        tree = rstar_tree(arr, 12)
        for _ in range(25):
            lo = rng.random(2) * 0.7
            q = Rect(tuple(lo), tuple(lo + 0.2))
            assert sorted(tree.search(q)) == brute_force_intersecting(rects, q)

    def test_deletion_inherited(self, rng):
        arr = random_rects(rng, 200)
        rects = list(arr)
        tree = rstar_tree(arr, 8)
        for i in range(0, 200, 2):
            assert tree.delete(rects[i], i)
        check_tree(tree)
        assert sorted(tree.search(Rect((0, 0), (1, 1)))) == list(range(1, 200, 2))

    def test_forced_reinsert_occurs(self, rng):
        """With reinsertion disabled the tree must split strictly more
        often, so it ends up with at least as many nodes."""
        arr = random_rects(rng, 500, max_side=0.05)
        with_reinsert = RStarTree(max_entries=10)
        without = RStarTree(max_entries=10, reinsert_fraction=0.0)
        for i, r in enumerate(arr):
            with_reinsert.insert(r, i)
            without.insert(r, i)
        check_tree(with_reinsert)
        check_tree(without)
        assert with_reinsert.node_count() <= without.node_count()

    def test_reinsert_fraction_validated(self):
        with pytest.raises(ValueError):
            RStarTree(reinsert_fraction=0.6)
        with pytest.raises(ValueError):
            RStarTree(reinsert_fraction=-0.1)

    def test_better_structure_than_guttman(self, rng):
        """The classic R* result, via the paper's own methodology:
        lower expected node accesses than quadratic-split TAT."""
        from repro.model import expected_node_accesses
        from repro.queries import UniformPointWorkload
        from repro.rtree import TreeDescription

        arr = random_rects(rng, 1500, max_side=0.03)
        guttman = RTree(max_entries=16)
        rstar = RStarTree(max_entries=16)
        for i, r in enumerate(arr):
            guttman.insert(r, i)
            rstar.insert(r, i)
        w = UniformPointWorkload()
        cost_g = expected_node_accesses(TreeDescription.from_tree(guttman), w)
        cost_r = expected_node_accesses(TreeDescription.from_tree(rstar), w)
        assert cost_r < cost_g

    def test_point_data(self, rng):
        pts = rng.random((300, 2))
        tree = RStarTree(max_entries=10)
        for i, p in enumerate(pts):
            tree.insert(Rect.from_point(p), i)
        check_tree(tree)
        assert len(tree) == 300

    def test_reinsert_distances_past_float_range(self):
        # Centre distances near 1e200 square past the float range; the
        # reinsertion order must still be computed, not raise.
        tree = RStarTree(max_entries=4)
        for i in range(20):
            tree.insert(Rect.from_point(((i % 7) * 1.5e199,)), i)
        check_tree(tree)
        assert len(tree) == 20

    def test_loader_validation(self, rng):
        with pytest.raises(ValueError):
            rstar_tree([], 10)
        with pytest.raises(ValueError):
            rstar_tree(random_rects(rng, 5), 10, items=["a"])


class TestFacadeIntegration:
    def test_load_tree_rstar(self, rng):
        from repro.packing import load_description, load_tree

        arr = random_rects(rng, 150)
        tree = load_tree("rstar", arr, 10)
        check_tree(tree)
        desc = load_description("rstar", arr, 10)
        assert desc.total_nodes == tree.node_count()
