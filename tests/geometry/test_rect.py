"""Unit tests for :class:`repro.geometry.Rect`."""

import math

import pytest

from repro.geometry import GeometryError, Rect, mbr_of, unit_rect


class TestConstruction:
    def test_basic(self):
        r = Rect((0.0, 0.0), (1.0, 2.0))
        assert r.lo == (0.0, 0.0)
        assert r.hi == (1.0, 2.0)
        assert r.dim == 2

    def test_coerces_ints_to_floats(self):
        r = Rect((0, 0), (1, 2))
        assert r.lo == (0.0, 0.0)
        assert isinstance(r.lo[0], float)

    def test_degenerate_is_valid(self):
        r = Rect((0.5, 0.5), (0.5, 0.5))
        assert r.area == 0.0

    def test_rejects_lo_greater_than_hi(self):
        with pytest.raises(GeometryError):
            Rect((1.0, 0.0), (0.0, 1.0))

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(GeometryError):
            Rect((0.0,), (1.0, 1.0))

    def test_rejects_zero_dimensions(self):
        with pytest.raises(GeometryError):
            Rect((), ())

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_nan(self, bad):
        with pytest.raises(GeometryError, match="non-finite coordinate on axis 0"):
            Rect((bad, 0.0), (1.0, 1.0))

    def test_from_point(self):
        r = Rect.from_point((0.3, 0.7))
        assert r.lo == r.hi == (0.3, 0.7)

    def test_from_center(self):
        r = Rect.from_center((0.5, 0.5), (0.2, 0.4))
        assert r.lo == pytest.approx((0.4, 0.3))
        assert r.hi == pytest.approx((0.6, 0.7))

    def test_from_center_mismatch(self):
        with pytest.raises(GeometryError):
            Rect.from_center((0.5,), (0.2, 0.4))

    def test_three_dimensional(self):
        r = Rect((0, 0, 0), (1, 2, 3))
        assert r.area == 6.0
        assert r.margin == 6.0

    def test_equality_and_hash(self):
        a = Rect((0.0, 0.0), (1.0, 1.0))
        b = Rect((0, 0), (1, 1))
        assert a == b
        assert hash(a) == hash(b)


class TestMeasures:
    def test_area(self):
        assert Rect((0, 0), (0.5, 0.25)).area == pytest.approx(0.125)

    def test_extents(self):
        assert Rect((0.1, 0.2), (0.4, 0.8)).extents == pytest.approx((0.3, 0.6))

    def test_center(self):
        assert Rect((0.0, 0.0), (1.0, 0.5)).center == pytest.approx((0.5, 0.25))

    def test_margin_is_half_perimeter_in_2d(self):
        r = Rect((0, 0), (2, 3))
        assert r.margin == 5.0


class TestPredicates:
    def test_contains_point_inside(self):
        r = Rect((0, 0), (1, 1))
        assert r.contains_point((0.5, 0.5))

    def test_contains_point_on_boundary(self):
        r = Rect((0, 0), (1, 1))
        assert r.contains_point((0.0, 1.0))

    def test_contains_point_outside(self):
        r = Rect((0, 0), (1, 1))
        assert not r.contains_point((1.5, 0.5))

    def test_contains_point_dim_mismatch(self):
        with pytest.raises(GeometryError):
            Rect((0, 0), (1, 1)).contains_point((0.5,))

    def test_contains_rect(self):
        outer = Rect((0, 0), (1, 1))
        inner = Rect((0.2, 0.2), (0.8, 0.8))
        assert outer.contains_rect(inner)
        assert not inner.contains_rect(outer)

    def test_contains_rect_itself(self):
        r = Rect((0, 0), (1, 1))
        assert r.contains_rect(r)

    def test_intersects_overlapping(self):
        a = Rect((0, 0), (0.6, 0.6))
        b = Rect((0.4, 0.4), (1, 1))
        assert a.intersects(b) and b.intersects(a)

    def test_intersects_touching_edges(self):
        a = Rect((0, 0), (0.5, 1))
        b = Rect((0.5, 0), (1, 1))
        assert a.intersects(b)

    def test_disjoint(self):
        a = Rect((0, 0), (0.4, 0.4))
        b = Rect((0.6, 0.6), (1, 1))
        assert not a.intersects(b)

    def test_disjoint_on_one_axis_only(self):
        a = Rect((0, 0), (1, 0.4))
        b = Rect((0, 0.6), (1, 1))
        assert not a.intersects(b)


class TestCombinators:
    def test_intersection(self):
        a = Rect((0, 0), (0.6, 0.6))
        b = Rect((0.4, 0.4), (1, 1))
        assert a.intersection(b) == Rect((0.4, 0.4), (0.6, 0.6))

    def test_intersection_disjoint_is_none(self):
        a = Rect((0, 0), (0.4, 0.4))
        b = Rect((0.6, 0.6), (1, 1))
        assert a.intersection(b) is None

    def test_union(self):
        a = Rect((0, 0), (0.4, 0.4))
        b = Rect((0.6, 0.6), (1, 1))
        assert a.union(b) == Rect((0, 0), (1, 1))

    def test_enlargement_zero_for_contained(self):
        outer = Rect((0, 0), (1, 1))
        inner = Rect((0.2, 0.2), (0.8, 0.8))
        assert outer.enlargement(inner) == 0.0

    def test_enlargement_positive(self):
        a = Rect((0, 0), (0.5, 0.5))
        b = Rect((0.6, 0.6), (1, 1))
        assert a.enlargement(b) == pytest.approx(0.75)

    def test_extended_grows_top_right_only(self):
        r = Rect((0.2, 0.3), (0.4, 0.5))
        e = r.extended((0.1, 0.2))
        assert e.lo == r.lo
        assert e.hi == pytest.approx((0.5, 0.7))

    def test_extended_rejects_negative(self):
        with pytest.raises(GeometryError):
            Rect((0, 0), (1, 1)).extended((-0.1, 0.0))

    def test_expanded_centered_keeps_center(self):
        r = Rect((0.2, 0.3), (0.4, 0.5))
        e = r.expanded_centered((0.1, 0.2))
        assert e.center == pytest.approx(r.center)
        assert e.extents == pytest.approx((0.3, 0.4))

    def test_query_intersection_equivalence(self):
        """Fig. 2: Q of size q intersects R iff Qtr is in extended R."""
        r = Rect((0.3, 0.3), (0.5, 0.5))
        q = (0.2, 0.1)
        for corner in [(0.25, 0.35), (0.7, 0.55), (0.71, 0.55), (0.2, 0.2)]:
            query = Rect((corner[0] - q[0], corner[1] - q[1]), corner)
            assert query.intersects(r) == r.extended(q).contains_point(corner)

    def test_center_expansion_equivalence(self):
        """Fig. 4: Q centred at c intersects R iff c is in expanded R."""
        r = Rect((0.3, 0.3), (0.5, 0.5))
        q = (0.2, 0.1)
        for c in [(0.2, 0.3), (0.61, 0.5), (0.6, 0.56), (0.0, 0.0)]:
            query = Rect.from_center(c, q)
            assert query.intersects(r) == r.expanded_centered(q).contains_point(c)

    def test_clipped_alias(self):
        a = Rect((0, 0), (0.6, 0.6))
        w = Rect((0.4, 0.4), (1, 1))
        assert a.clipped(w) == a.intersection(w)

    def test_translated(self):
        r = Rect((0.1, 0.2), (0.3, 0.4)).translated((0.5, -0.1))
        assert r.lo == pytest.approx((0.6, 0.1))
        assert r.hi == pytest.approx((0.8, 0.3))

    def test_scaled_into(self):
        unit = Rect((0.25, 0.25), (0.75, 0.75))
        window = Rect((0.0, 0.0), (2.0, 4.0))
        assert unit.scaled_into(window) == Rect((0.5, 1.0), (1.5, 3.0))

    def test_dim_mismatch_raises(self):
        a = Rect((0, 0), (1, 1))
        b = Rect((0, 0, 0), (1, 1, 1))
        with pytest.raises(GeometryError):
            a.union(b)


class TestHelpers:
    def test_unit_rect(self):
        assert unit_rect(2) == Rect((0, 0), (1, 1))
        assert unit_rect(3).area == 1.0

    def test_unit_rect_invalid_dim(self):
        with pytest.raises(GeometryError):
            unit_rect(0)

    def test_mbr_of(self):
        rects = [
            Rect((0.1, 0.5), (0.2, 0.6)),
            Rect((0.4, 0.0), (0.5, 0.3)),
            Rect((0.0, 0.2), (0.05, 0.9)),
        ]
        assert mbr_of(rects) == Rect((0.0, 0.0), (0.5, 0.9))

    def test_mbr_of_empty_raises(self):
        with pytest.raises(GeometryError):
            mbr_of([])

    def test_mbr_of_single(self):
        r = Rect((0.1, 0.1), (0.2, 0.2))
        assert mbr_of([r]) == r
