"""Unit tests for the Guttman split heuristics."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from repro.datasets import tiger_like
from repro.geometry import Rect, mbr_of
from repro.packing import tat_tree
from repro.rtree import greene_split, linear_split, quadratic_split
from repro.rtree.split import SPLIT_FUNCTIONS, _validate_split_input
from tests.conftest import corners


def two_clusters(n_per_side=4):
    """Two well-separated groups any sane split should keep apart."""
    left = [
        Rect((0.0 + i * 0.01, 0.0), (0.02 + i * 0.01, 0.05))
        for i in range(n_per_side)
    ]
    right = [
        Rect((0.9 + i * 0.01, 0.9), (0.92 + i * 0.01, 0.95))
        for i in range(n_per_side)
    ]
    return left + right


@pytest.mark.parametrize("split", [quadratic_split, linear_split, greene_split])
class TestCommonSplitBehaviour:
    def test_partition_is_complete_and_disjoint(self, split, rng):
        from tests.conftest import random_rects

        arr = random_rects(rng, 21)
        a, b = split(*corners(list(arr)), min_fill=8)
        assert sorted(a + b) == list(range(21))
        assert not set(a) & set(b)

    def test_min_fill_respected(self, split, rng):
        from tests.conftest import random_rects

        for seed in range(5):
            arr = random_rects(np.random.default_rng(seed), 11)
            a, b = split(*corners(list(arr)), min_fill=4)
            assert len(a) >= 4
            assert len(b) >= 4

    def test_separates_two_clusters(self, split):
        a, b = split(*corners(two_clusters()), min_fill=2)
        groups = {frozenset(a), frozenset(b)}
        assert groups == {frozenset(range(4)), frozenset(range(4, 8))}

    def test_split_two_entries(self, split):
        lo, hi = corners([Rect((0, 0), (0.1, 0.1)), Rect((0.5, 0.5), (0.6, 0.6))])
        a, b = split(lo, hi, min_fill=1)
        assert sorted(a + b) == [0, 1]
        assert len(a) == len(b) == 1

    def test_rejects_single_entry(self, split):
        with pytest.raises(ValueError):
            split(*corners([Rect((0, 0), (1, 1))]), min_fill=1)

    def test_rejects_min_fill_too_large(self, split):
        with pytest.raises(ValueError):
            split(*corners(two_clusters()), min_fill=5)

    def test_rejects_zero_min_fill(self, split):
        with pytest.raises(ValueError):
            split(*corners(two_clusters()), min_fill=0)

    def test_identical_rects_split_evenly_enough(self, split):
        rect = Rect((0.4, 0.4), (0.6, 0.6))
        a, b = split(*corners([rect] * 10), min_fill=4)
        assert len(a) >= 4 and len(b) >= 4


class TestQuadraticSpecifics:
    def test_seeds_are_most_wasteful_pair(self):
        # Two far-apart tiny squares and a cluster in the middle: the
        # far pair wastes the most area together and must seed groups.
        rects = [
            Rect((0.0, 0.0), (0.01, 0.01)),
            Rect((0.99, 0.99), (1.0, 1.0)),
            Rect((0.5, 0.5), (0.51, 0.51)),
            Rect((0.5, 0.52), (0.51, 0.53)),
        ]
        a, b = quadratic_split(*corners(rects), min_fill=1)
        # 0 and 1 must end up in different groups.
        group_of = {}
        for idx in a:
            group_of[idx] = "a"
        for idx in b:
            group_of[idx] = "b"
        assert group_of[0] != group_of[1]

    def test_reduces_overlap_vs_arbitrary_split(self, rng):
        from tests.conftest import random_rects

        arr = random_rects(rng, 30, max_side=0.2)
        rects = list(arr)
        a, b = quadratic_split(*corners(rects), min_fill=12)
        cover_a = mbr_of(rects[i] for i in a)
        cover_b = mbr_of(rects[i] for i in b)
        # Arbitrary split: first half vs second half.
        cover_1 = mbr_of(rects[:15])
        cover_2 = mbr_of(rects[15:])
        assert (
            cover_a.area + cover_b.area <= cover_1.area + cover_2.area + 1e-9
        )


class TestLinearSpecifics:
    def test_seeds_most_separated_on_best_axis(self):
        rects = [
            Rect((0.0, 0.45), (0.05, 0.55)),
            Rect((0.95, 0.45), (1.0, 0.55)),
            Rect((0.4, 0.4), (0.6, 0.6)),
            Rect((0.45, 0.45), (0.55, 0.55)),
        ]
        a, b = linear_split(*corners(rects), min_fill=1)
        group_of = {}
        for idx in a:
            group_of[idx] = "a"
        for idx in b:
            group_of[idx] = "b"
        assert group_of[0] != group_of[1]


class TestGreeneSpecifics:
    def test_splits_at_midpoint_along_separated_axis(self):
        # Two x-separated runs of 5: Greene sorts by x-low and halves.
        rects = [
            Rect((0.05 * i, 0.4), (0.05 * i + 0.02, 0.6)) for i in range(5)
        ] + [
            Rect((0.7 + 0.05 * i, 0.4), (0.72 + 0.05 * i, 0.6))
            for i in range(5)
        ]
        a, b = greene_split(*corners(rects), min_fill=2)
        groups = {frozenset(a), frozenset(b)}
        assert groups == {frozenset(range(5)), frozenset(range(5, 10))}

    def test_disjoint_covers_along_split_axis(self, rng):
        """Greene's halves never interleave along the chosen axis'
        lower coordinates."""
        from tests.conftest import random_rects

        arr = random_rects(rng, 20)
        rects = list(arr)
        a, b = greene_split(*corners(rects), min_fill=8)
        # One group's members all precede the other's in some axis sort.
        for axis in range(2):
            lows_a = sorted(rects[i].lo[axis] for i in a)
            lows_b = sorted(rects[i].lo[axis] for i in b)
            if lows_a[-1] <= lows_b[0] or lows_b[-1] <= lows_a[0]:
                return
        pytest.fail("groups interleave on every axis")

    def test_builds_valid_trees(self, rng):
        from repro.rtree import RTree, check_tree
        from tests.conftest import random_rects

        tree = RTree(max_entries=8, split="greene")
        for i, r in enumerate(random_rects(rng, 300)):
            tree.insert(r, i)
        check_tree(tree)
        assert len(tree) == 300


def test_registry_contents():
    assert {"quadratic", "linear", "greene", "rstar"} <= set(SPLIT_FUNCTIONS)
    assert SPLIT_FUNCTIONS["quadratic"] is quadratic_split
    assert SPLIT_FUNCTIONS["linear"] is linear_split
    assert SPLIT_FUNCTIONS["greene"] is greene_split


# ----------------------------------------------------------------------
# Oracle: Guttman's quadratic split as a scalar loop over corner tuples.
# ``quadratic_split`` must return the same groups, in the same order, on
# every input, not merely groups of the same quality.
# ----------------------------------------------------------------------
def reference_quadratic_split(
    lo: np.ndarray, hi: np.ndarray, min_fill: int
) -> tuple[list[int], list[int]]:
    _validate_split_input(lo, hi, min_fill)
    los = [tuple(c) for c in lo.T.tolist()]
    his = [tuple(c) for c in hi.T.tolist()]
    n = len(los)
    areas = [_area(lo, hi) for lo, hi in zip(los, his)]

    # PickSeeds: maximise d = area(J) - area(E1) - area(E2).
    best_waste = -float("inf")
    seed_a, seed_b = 0, 1
    for i in range(n - 1):
        lo_i, hi_i, area_i = los[i], his[i], areas[i]
        for j in range(i + 1, n):
            waste = _union_area(lo_i, hi_i, los[j], his[j]) - area_i - areas[j]
            if waste > best_waste:
                best_waste = waste
                seed_a, seed_b = i, j

    group_a = [seed_a]
    group_b = [seed_b]
    cover_a_lo, cover_a_hi = los[seed_a], his[seed_a]
    cover_b_lo, cover_b_hi = los[seed_b], his[seed_b]
    area_a = areas[seed_a]
    area_b = areas[seed_b]
    remaining = [k for k in range(n) if k != seed_a and k != seed_b]

    while remaining:
        # If one group needs every remaining entry to reach min_fill,
        # assign them all to it.
        if len(group_a) + len(remaining) == min_fill:
            group_a.extend(remaining)
            break
        if len(group_b) + len(remaining) == min_fill:
            group_b.extend(remaining)
            break

        # PickNext: entry with maximal |d1 - d2|.
        best_k = -1
        best_pos = -1
        best_diff = -1.0
        best_d = (0.0, 0.0)
        for pos, k in enumerate(remaining):
            d1 = _union_area(cover_a_lo, cover_a_hi, los[k], his[k]) - area_a
            d2 = _union_area(cover_b_lo, cover_b_hi, los[k], his[k]) - area_b
            diff = abs(d1 - d2)
            if diff > best_diff:
                best_diff = diff
                best_k = k
                best_pos = pos
                best_d = (d1, d2)
        remaining.pop(best_pos)

        d1, d2 = best_d
        if d1 < d2:
            choose_a = True
        elif d2 < d1:
            choose_a = False
        elif area_a != area_b:
            choose_a = area_a < area_b
        else:
            choose_a = len(group_a) <= len(group_b)

        if choose_a:
            group_a.append(best_k)
            cover_a_lo, cover_a_hi = _union(cover_a_lo, cover_a_hi, los[best_k], his[best_k])
            area_a = _area(cover_a_lo, cover_a_hi)
        else:
            group_b.append(best_k)
            cover_b_lo, cover_b_hi = _union(cover_b_lo, cover_b_hi, los[best_k], his[best_k])
            area_b = _area(cover_b_lo, cover_b_hi)

    return group_a, group_b


def _area(lo: tuple[float, ...], hi: tuple[float, ...]) -> float:
    result = 1.0
    for a, b in zip(lo, hi):
        result *= b - a
    return result


def _union_area(
    lo1: tuple[float, ...],
    hi1: tuple[float, ...],
    lo2: tuple[float, ...],
    hi2: tuple[float, ...],
) -> float:
    result = 1.0
    for a, b, c, d in zip(lo1, hi1, lo2, hi2):
        result *= max(b, d) - min(a, c)
    return result


def _union(
    lo1: tuple[float, ...],
    hi1: tuple[float, ...],
    lo2: tuple[float, ...],
    hi2: tuple[float, ...],
) -> tuple[tuple[float, ...], tuple[float, ...]]:
    lo = tuple(min(a, c) for a, c in zip(lo1, lo2))
    hi = tuple(max(b, d) for b, d in zip(hi1, hi2))
    return lo, hi


@st.composite
def grid_split_inputs(draw):
    """Corner arrays on a 1/8 grid plus a feasible ``min_fill``.

    Lows in [0, 1] and sides in [0, 1/2] on that grid make duplicates,
    points, zero-width rectangles and shared edges common, so waste and
    enlargement ties are the rule rather than the exception.
    """
    dim = draw(st.sampled_from([1, 2, 3]))
    n = draw(st.integers(min_value=2, max_value=130))
    lo = draw(arrays(np.int64, (dim, n), elements=st.integers(0, 8))) / 8
    side = draw(arrays(np.int64, (dim, n), elements=st.integers(0, 4))) / 8
    min_fill = draw(st.integers(min_value=1, max_value=n // 2))
    return lo, lo + side, min_fill


class TestQuadraticMatchesReference:
    @settings(
        max_examples=150,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(grid_split_inputs())
    def test_same_groups_in_same_order(self, case):
        lo, hi, min_fill = case
        assert quadratic_split(lo, hi, min_fill) == reference_quadratic_split(
            lo, hi, min_fill
        )

    def test_tat_tree_layout_identical(self):
        data = tiger_like(rng=1998)[:5000]

        def layout(node):
            if node.is_leaf:
                return list(node.refs)
            return [layout(child) for child in node.refs]

        fast = tat_tree(data, 100)
        reference = tat_tree(data, 100, split=reference_quadratic_split)
        assert layout(fast.root) == layout(reference.root)
