"""Property-based equivalence: sparse kernels == dense oracles, exactly.

The accel layer's contract is *bit-exactness*: the grid stabber and the
sorted range counter must return precisely what the dense containment
matrix returns, on every input — including boundary-touching points
(closed boundaries), zero-area slivers, and duplicate rectangles.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from repro.accel import (
    DenseStabber,
    GridStabbingIndex,
    SortedRangeCounter,
    count_points_inside,
    make_stabber,
)
from repro.geometry import RectArray
from tests.conftest import random_rects

unit_floats = st.floats(min_value=0.0, max_value=1.0, width=64)
wide_floats = st.one_of(
    st.floats(min_value=-1.0, max_value=2.0, width=64), st.just(math.nan)
)
"""Point coordinates past the unit cube on both sides, or NaN."""


@st.composite
def rect_arrays(draw, max_n: int = 16, dim: int = 2) -> RectArray:
    """Random boxes in the unit cube; spans may be zero (slivers)."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    lo = draw(arrays(np.float64, (n, dim), elements=unit_floats))
    span = draw(arrays(np.float64, (n, dim), elements=unit_floats))
    return RectArray(lo, np.minimum(lo + span, 1.0))


@st.composite
def points_arrays(draw, max_n: int = 16, dim: int = 2) -> np.ndarray:
    n = draw(st.integers(min_value=1, max_value=max_n))
    return draw(arrays(np.float64, (n, dim), elements=unit_floats))


@st.composite
def stab_cases(draw, max_n: int = 16) -> tuple[RectArray, np.ndarray]:
    """1-, 2- or 3-D rects in the unit cube and a batch of points that
    may fall outside the cube on either side or be NaN."""
    dim = draw(st.integers(min_value=1, max_value=3))
    rects = draw(rect_arrays(max_n=max_n, dim=dim))
    m = draw(st.integers(min_value=0, max_value=max_n))
    points = draw(arrays(np.float64, (m, dim), elements=wide_floats))
    return rects, points


def assert_same_stab(rects: RectArray, points: np.ndarray) -> None:
    grid = GridStabbingIndex(rects).stab(points)
    dense = DenseStabber(rects).stab(points)
    assert grid.indptr.dtype == dense.indptr.dtype == np.int64
    assert grid.ids.dtype == dense.ids.dtype == np.int64
    assert np.array_equal(grid.indptr, dense.indptr)
    assert np.array_equal(grid.ids, dense.ids)


class TestGridEqualsDense:
    @settings(max_examples=60)
    @given(rect_arrays(), points_arrays())
    def test_random(self, rects, points):
        assert_same_stab(rects, points)

    @settings(max_examples=60)
    @given(st.integers(min_value=1, max_value=3).flatmap(
        lambda dim: rect_arrays(dim=dim)
    ))
    def test_boundary_touching_points(self, rects):
        # Query exactly the corners: closed boundaries must count.
        points = np.concatenate([rects.lo, rects.hi])
        assert_same_stab(rects, points)

    @settings(max_examples=40)
    @given(points_arrays(max_n=8))
    def test_zero_area_rects(self, points):
        # Degenerate slivers: lo == hi, containable only by exact hits.
        rects = RectArray(points, points.copy())
        queries = np.concatenate([points, points + 1e-9])
        assert_same_stab(rects, queries)

    @settings(max_examples=40)
    @given(rect_arrays(max_n=6), points_arrays())
    def test_duplicate_rects(self, rects, points):
        tiled = RectArray(
            np.tile(rects.lo, (3, 1)), np.tile(rects.hi, (3, 1))
        )
        assert_same_stab(tiled, points)

    @settings(max_examples=100)
    @given(stab_cases())
    def test_any_dimension_outside_and_nan_points(self, case):
        # Points below and above the grid exercise the clip at both
        # ends; NaN points map to a cell but lie in no rect.
        assert_same_stab(*case)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_empty_point_batch_and_rect_set(self, rng, dim):
        rects = random_rects(rng, 100, dim=dim)
        empty_rects = RectArray(np.empty((0, dim)), np.empty((0, dim)))
        points = rng.random((7, dim)) * 3.0 - 1.0
        points[0, 0] = np.nan
        no_points = np.empty((0, dim))
        assert_same_stab(rects, no_points)
        assert_same_stab(empty_rects, points)
        assert_same_stab(empty_rects, no_points)

    def test_subnormal_span(self):
        # A span of one subnormal saturates ``nbins / span`` to +inf, so
        # a corner or a point at the origin maps through
        # ``0 * inf = NaN``, and both must land in the same cell.
        tiny = 5e-324
        lo = np.array([[0.0, 0.0], [0.0, tiny], [tiny, 0.0]])
        hi = np.array([[0.0, tiny], [tiny, tiny], [tiny, tiny]])
        points = np.array(
            [[0.0, 0.0], [tiny, tiny], [0.0, tiny], [-tiny, 0.0], [1.0, 0.0]]
        )
        assert_same_stab(RectArray(lo, hi), points)

    def test_large_random(self, rng):
        rects = random_rects(rng, 5000, max_side=0.05)
        points = rng.random((2000, 2))
        assert_same_stab(rects, points)

    def test_large_random_3d(self, rng):
        rects = random_rects(rng, 2000, dim=3, max_side=0.1)
        points = rng.random((2000, 3)) * 1.2 - 0.1
        assert_same_stab(rects, points)

    def test_pathological_full_cover(self, rng):
        # Every rect covers the whole square: the entry cap must
        # coarsen the grid rather than explode, and stay exact.
        n = 64
        rects = RectArray(np.zeros((n, 2)), np.ones((n, 2)))
        assert_same_stab(rects, rng.random((50, 2)))

    # One grid build plus one 1,024-point call beats the dense matrix
    # from about 48 node MBRs up (docs/PERFORMANCE.md): auto mode
    # switches at 64.
    def test_auto_mode_picks_dense_for_small_sets(self, rng):
        stabber = make_stabber(random_rects(rng, 63), mode="auto")
        assert isinstance(stabber, DenseStabber)

    def test_auto_mode_picks_grid_for_large_sets(self, rng):
        stabber = make_stabber(random_rects(rng, 64), mode="auto")
        assert isinstance(stabber, GridStabbingIndex)

    def test_auto_mode_point_hint_promotes_to_grid(self, rng):
        # A small rect set stabbed by enough points favours the grid:
        # dense work is rects x points, grid work is near-linear.
        rects = random_rects(rng, 30)
        assert isinstance(
            make_stabber(rects, mode="auto", n_points=200_000),
            GridStabbingIndex,
        )
        assert isinstance(
            make_stabber(rects, mode="auto", n_points=1_000),
            DenseStabber,
        )

    def test_point_hint_never_overrides_explicit_mode(self, rng):
        rects = random_rects(rng, 500)
        assert isinstance(
            make_stabber(rects, mode="dense", n_points=200_000),
            DenseStabber,
        )


def assert_same_count(rects: RectArray, points: np.ndarray) -> None:
    fast = SortedRangeCounter(points).count(rects)
    dense = rects.count_points_inside(points)
    assert fast.dtype == dense.dtype
    assert np.array_equal(fast, dense)


class TestSortedCountEqualsDense:
    @settings(max_examples=60)
    @given(rect_arrays(), points_arrays())
    def test_random(self, rects, points):
        assert_same_count(rects, points)

    @settings(max_examples=40)
    @given(rect_arrays())
    def test_boundary_touching_points(self, rects):
        points = np.concatenate([rects.lo, rects.hi])
        assert_same_count(rects, points)

    @settings(max_examples=40)
    @given(points_arrays(max_n=8))
    def test_zero_area_rects(self, points):
        rects = RectArray(points, points.copy())
        assert_same_count(rects, np.concatenate([points, points + 1e-9]))

    @settings(max_examples=40)
    @given(rect_arrays(max_n=6), points_arrays())
    def test_duplicate_rects(self, rects, points):
        tiled = RectArray(
            np.tile(rects.lo, (3, 1)), np.tile(rects.hi, (3, 1))
        )
        assert_same_count(tiled, points)

    @settings(max_examples=40)
    @given(rect_arrays(max_n=6))
    def test_duplicate_points(self, rects):
        points = np.tile(rects.centers(), (4, 1))
        assert_same_count(rects, points)

    def test_large_random(self, rng):
        rects = random_rects(rng, 3000)
        points = rng.random((4097, 2))  # off power-of-two on purpose
        assert_same_count(rects, points)

    def test_nan_and_infinite_points(self, rng):
        # NaN y-values sort last among the ranks, past every bound a
        # rect can name, so like the dense kernel they never count.
        points = rng.random((500, 2))
        points[::7, 1] = np.nan
        points[::11, 0] = np.nan
        points[::13] = np.inf
        points[::17, 1] = -np.inf
        assert_same_count(random_rects(rng, 200), points)

    def test_1d(self, rng):
        lo = rng.random((20, 1))
        rects = RectArray(lo, lo + rng.random((20, 1)) * 0.2)
        assert_same_count(rects, rng.random((33, 1)))

    def test_reused_counter_matches(self, rng):
        rects = random_rects(rng, 50)
        points = rng.random((200, 2))
        counter = SortedRangeCounter(points)
        fast = count_points_inside(rects, points, counter=counter)
        assert np.array_equal(fast, rects.count_points_inside(points))
