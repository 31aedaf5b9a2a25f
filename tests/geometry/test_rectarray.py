"""Unit tests for :class:`repro.geometry.RectArray`."""

import numpy as np
import pytest

from repro.geometry import GeometryError, Rect, RectArray, unit_rect


@pytest.fixture
def sample() -> RectArray:
    return RectArray.from_rects(
        [
            Rect((0.0, 0.0), (0.5, 0.5)),
            Rect((0.25, 0.25), (0.75, 1.0)),
            Rect((0.9, 0.9), (0.9, 0.9)),  # degenerate point
        ]
    )


class TestConstruction:
    def test_shapes_validated(self):
        with pytest.raises(GeometryError):
            RectArray(np.zeros((3,)), np.ones((3,)))

    def test_lo_hi_shape_mismatch(self):
        with pytest.raises(GeometryError):
            RectArray(np.zeros((3, 2)), np.ones((2, 2)))

    def test_lo_greater_than_hi_rejected(self):
        lo = np.array([[0.5, 0.5]])
        hi = np.array([[0.4, 0.6]])
        with pytest.raises(GeometryError):
            RectArray(lo, hi)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nan_rejected(self, bad):
        lo = np.array([[bad, 0.0]])
        hi = np.array([[1.0, 1.0]])
        with pytest.raises(GeometryError, match="non-finite"):
            RectArray(lo, hi)

    def test_is_immutable(self, sample):
        with pytest.raises(ValueError):
            sample.lo[0, 0] = 5.0

    def test_constructor_copies_input(self):
        lo = np.zeros((2, 2))
        hi = np.ones((2, 2))
        arr = RectArray(lo, hi)
        lo[0, 0] = 0.5
        assert arr.lo[0, 0] == 0.0

    def test_from_points(self):
        pts = np.array([[0.1, 0.2], [0.3, 0.4]])
        arr = RectArray.from_points(pts)
        assert np.array_equal(arr.lo, arr.hi)
        assert arr.areas() == pytest.approx([0.0, 0.0])

    def test_from_rects_empty_raises(self):
        with pytest.raises(GeometryError):
            RectArray.from_rects([])

    def test_from_rects_mixed_dim_raises(self):
        with pytest.raises(GeometryError):
            RectArray.from_rects(
                [Rect((0, 0), (1, 1)), Rect((0, 0, 0), (1, 1, 1))]
            )

    def test_empty(self):
        arr = RectArray.empty(3)
        assert len(arr) == 0
        assert arr.dim == 3

    def test_concatenate(self, sample):
        combined = RectArray.concatenate([sample, sample])
        assert len(combined) == 6
        assert combined.rect(3) == sample.rect(0)

    def test_concatenate_empty_list_raises(self):
        with pytest.raises(GeometryError):
            RectArray.concatenate([])


class TestAccessors:
    def test_len_and_dim(self, sample):
        assert len(sample) == 3
        assert sample.dim == 2

    def test_rect_roundtrip(self, sample):
        assert sample.rect(1) == Rect((0.25, 0.25), (0.75, 1.0))

    def test_iteration(self, sample):
        rects = list(sample)
        assert len(rects) == 3
        assert all(isinstance(r, Rect) for r in rects)

    def test_getitem_slice(self, sample):
        sub = sample[1:]
        assert len(sub) == 2
        assert sub.rect(0) == sample.rect(1)

    def test_getitem_mask(self, sample):
        sub = sample[np.array([True, False, True])]
        assert len(sub) == 2

    def test_equality(self, sample):
        other = RectArray(sample.lo, sample.hi)
        assert sample == other
        assert hash(sample) == hash(other)

    def test_inequality_different_shape(self, sample):
        assert sample != sample[0:1]


class TestMeasures:
    def test_areas(self, sample):
        assert sample.areas() == pytest.approx([0.25, 0.375, 0.0])

    def test_total_area(self, sample):
        assert sample.total_area() == pytest.approx(0.625)

    def test_extents_and_margins(self, sample):
        assert sample.extents()[1] == pytest.approx([0.5, 0.75])
        assert sample.margins()[1] == pytest.approx(1.25)

    def test_total_extent(self, sample):
        assert sample.total_extent(0) == pytest.approx(0.5 + 0.5 + 0.0)
        assert sample.total_extent(1) == pytest.approx(0.5 + 0.75 + 0.0)

    def test_centers(self, sample):
        assert sample.centers()[0] == pytest.approx([0.25, 0.25])

    def test_mbr(self, sample):
        assert sample.mbr() == Rect((0.0, 0.0), (0.9, 1.0))

    def test_mbr_empty_raises(self):
        with pytest.raises(GeometryError):
            RectArray.empty(2).mbr()


class TestTransforms:
    def test_extended_matches_scalar(self, sample):
        ext = sample.extended((0.1, 0.2))
        for i, rect in enumerate(sample):
            assert ext.rect(i) == rect.extended((0.1, 0.2))

    def test_expanded_centered_matches_scalar(self, sample):
        exp = sample.expanded_centered((0.1, 0.2))
        for i, rect in enumerate(sample):
            assert exp.rect(i) == rect.expanded_centered((0.1, 0.2))

    def test_extended_rejects_negative(self, sample):
        with pytest.raises(GeometryError):
            sample.extended((-0.1, 0.0))

    def test_clipped_matches_scalar(self, sample):
        window = Rect((0.3, 0.3), (0.8, 0.8))
        clipped = sample.clipped(window)
        for i, rect in enumerate(sample):
            expected = rect.intersection(window)
            if expected is None:
                assert clipped.areas()[i] == 0.0
            else:
                assert clipped.rect(i) == expected

    def test_clipped_areas(self, sample):
        window = unit_rect(2)
        assert sample.clipped_areas(window) == pytest.approx(sample.areas())
        small = Rect((0.0, 0.0), (0.25, 0.25))
        assert sample.clipped_areas(small) == pytest.approx([0.0625, 0.0, 0.0])

    def test_translated(self, sample):
        moved = sample.translated((0.05, -0.05))
        assert moved.rect(0) == Rect((0.05, -0.05), (0.55, 0.45))

    def test_normalized_fills_unit_square(self, sample):
        norm = sample.normalized()
        assert norm.mbr() == unit_rect(2)

    def test_normalized_with_window(self, sample):
        norm = sample.normalized(Rect((0.0, 0.0), (2.0, 2.0)))
        assert norm.rect(0) == Rect((0.0, 0.0), (0.25, 0.25))

    def test_normalized_degenerate_axis(self):
        arr = RectArray.from_points(np.array([[0.5, 0.1], [0.5, 0.9]]))
        norm = arr.normalized()
        assert norm.centers()[:, 0] == pytest.approx([0.5, 0.5])


class TestPredicates:
    def test_contains_points(self, sample):
        pts = np.array([[0.3, 0.3], [0.9, 0.9], [0.99, 0.99]])
        m = sample.contains_points(pts)
        assert m.shape == (3, 3)
        assert m[0].tolist() == [True, True, False]
        assert m[1].tolist() == [False, False, True]
        assert m[2].tolist() == [False, False, False]

    def test_contains_points_matches_scalar(self, rng):
        from tests.conftest import random_rects

        arr = random_rects(rng, 40)
        pts = rng.random((25, 2))
        m = arr.contains_points(pts)
        for qi in range(25):
            for ri, rect in enumerate(arr):
                assert m[qi, ri] == rect.contains_point(tuple(pts[qi]))

    def test_count_points_inside(self, sample):
        pts = np.array([[0.3, 0.3], [0.1, 0.1], [0.9, 0.9]])
        counts = sample.count_points_inside(pts)
        assert counts.tolist() == [2, 1, 1]

    def test_count_points_inside_empty(self, sample):
        counts = sample.count_points_inside(np.empty((0, 2)))
        assert counts.tolist() == [0, 0, 0]

    def test_intersects_rect(self, sample):
        mask = sample.intersects_rect(Rect((0.6, 0.6), (1.0, 1.0)))
        assert mask.tolist() == [False, True, True]
