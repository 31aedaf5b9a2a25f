"""Unit tests for the Hilbert curve implementations."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.hilbert import (
    hilbert_index,
    hilbert_index_2d,
    hilbert_sort_key,
    quantize,
)


class TestQuantize:
    def test_basic(self):
        cells = quantize(np.array([[0.0, 0.5], [0.999, 0.25]]), order=2)
        assert cells.tolist() == [[0, 2], [3, 1]]

    def test_top_edge_maps_to_last_cell(self):
        cells = quantize(np.array([[1.0, 1.0]]), order=4)
        assert cells.tolist() == [[15, 15]]

    def test_out_of_range_clamped(self):
        cells = quantize(np.array([[-0.5, 1.5]]), order=3)
        assert cells.tolist() == [[0, 7]]

    def test_invalid_order(self):
        with pytest.raises(ValueError):
            quantize(np.zeros((1, 2)), order=0)


class TestHilbert2D:
    def test_order_one_quadrant_order(self):
        # The order-1 curve visits (0,0), (0,1), (1,1), (1,0).
        xs = np.array([0, 0, 1, 1])
        ys = np.array([0, 1, 1, 0])
        d = hilbert_index_2d(xs, ys, order=1)
        assert d.tolist() == [0, 1, 2, 3]

    def test_bijective_order_4(self):
        side = 16
        xs, ys = np.meshgrid(np.arange(side), np.arange(side))
        d = hilbert_index_2d(xs.ravel(), ys.ravel(), order=4)
        assert sorted(d.tolist()) == list(range(side * side))

    def test_consecutive_cells_are_grid_neighbours(self):
        """The defining Hilbert property: the curve is a Hamiltonian
        path on the grid, so consecutive indices differ by one step in
        exactly one coordinate."""
        side = 16
        xs, ys = np.meshgrid(np.arange(side), np.arange(side))
        xs, ys = xs.ravel(), ys.ravel()
        d = hilbert_index_2d(xs, ys, order=4)
        order = np.argsort(d)
        dx = np.abs(np.diff(xs[order].astype(int)))
        dy = np.abs(np.diff(ys[order].astype(int)))
        assert np.all(dx + dy == 1)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            hilbert_index_2d(np.array([4]), np.array([0]), order=2)

    def test_rejects_bad_order(self):
        with pytest.raises(ValueError):
            hilbert_index_2d(np.array([0]), np.array([0]), order=0)
        with pytest.raises(ValueError):
            hilbert_index_2d(np.array([0]), np.array([0]), order=33)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            hilbert_index_2d(np.array([0, 1]), np.array([0]), order=2)

    def test_locality_better_than_row_major(self):
        """Points close on the curve should be close in the plane, on
        average much closer than a row-major scan achieves."""
        side = 32
        xs, ys = np.meshgrid(np.arange(side), np.arange(side))
        xs, ys = xs.ravel(), ys.ravel()
        d = hilbert_index_2d(xs, ys, order=5)
        order = np.argsort(d)
        gap = 8
        hx, hy = xs[order].astype(float), ys[order].astype(float)
        hilbert_dist = np.hypot(hx[gap:] - hx[:-gap], hy[gap:] - hy[:-gap]).mean()
        # Row-major: index = y*side + x.
        rm = np.argsort(ys.astype(np.int64) * side + xs)
        rx, ry = xs[rm].astype(float), ys[rm].astype(float)
        row_major_dist = np.hypot(rx[gap:] - rx[:-gap], ry[gap:] - ry[:-gap]).mean()
        assert hilbert_dist < row_major_dist


def reference_hilbert_index_2d(x, y, order):
    """The bitwise ``xy2d`` loop, one level per step: the oracle for
    the table-driven ``hilbert_index_2d``."""
    x = np.array(x, dtype=np.uint64, copy=True)
    y = np.array(y, dtype=np.uint64, copy=True)
    d = np.zeros_like(x, dtype=np.uint64)
    s = np.uint64(1 << (order - 1))
    one = np.uint64(1)
    zero = np.uint64(0)
    while s > 0:
        rx = np.where((x & s) > 0, one, zero)
        ry = np.where((y & s) > 0, one, zero)
        d += s * s * ((np.uint64(3) * rx) ^ ry)
        # Rotate the quadrant so the curve stays continuous.
        swap = ry == 0
        flip = swap & (rx == 1)
        x_f = np.where(flip, s - one - x, x)
        y_f = np.where(flip, s - one - y, y)
        x, y = np.where(swap, y_f, x_f), np.where(swap, x_f, y_f)
        s >>= one
    return d


@st.composite
def grid_cells(draw):
    """An order in 1..32 and cells that always include both corners,
    0 and ``2**order - 1``, on each axis."""
    order = draw(st.integers(min_value=1, max_value=32))
    cell = st.integers(min_value=0, max_value=(1 << order) - 1)
    xs = draw(st.lists(cell, max_size=30))
    ys = draw(st.lists(cell, min_size=len(xs), max_size=len(xs)))
    last = (1 << order) - 1
    xs = [0, 0, last, last] + xs
    ys = [0, last, 0, last] + ys
    return order, np.array(xs, dtype=np.uint64), np.array(ys, dtype=np.uint64)


@settings(max_examples=300, deadline=None)
@given(grid_cells())
def test_hilbert_2d_matches_bitwise_loop(case):
    order, xs, ys = case
    expected = reference_hilbert_index_2d(xs, ys, order)
    assert hilbert_index_2d(xs, ys, order).tolist() == expected.tolist()


class TestHilbertND:
    @pytest.mark.parametrize("dim,order", [(2, 3), (3, 3), (4, 2)])
    def test_bijective(self, dim, order):
        side = 1 << order
        grids = np.meshgrid(*[np.arange(side)] * dim)
        cells = np.column_stack([g.ravel() for g in grids])
        d = hilbert_index(cells, order=order)
        assert sorted(d.tolist()) == list(range(side**dim))

    @pytest.mark.parametrize("dim,order", [(2, 3), (3, 3), (4, 2)])
    def test_consecutive_cells_are_grid_neighbours(self, dim, order):
        side = 1 << order
        grids = np.meshgrid(*[np.arange(side)] * dim)
        cells = np.column_stack([g.ravel() for g in grids])
        d = hilbert_index(cells, order=order)
        ranked = cells[np.argsort(d)].astype(int)
        steps = np.abs(np.diff(ranked, axis=0)).sum(axis=1)
        assert np.all(steps == 1)

    def test_one_dimensional_is_identity(self):
        cells = np.arange(8, dtype=np.uint64)[:, None]
        d = hilbert_index(cells, order=3)
        assert d.tolist() == list(range(8))

    def test_rejects_too_many_bits(self):
        with pytest.raises(ValueError):
            hilbert_index(np.zeros((1, 5), dtype=np.uint64), order=13)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            hilbert_index(np.array([[8, 0]], dtype=np.uint64), order=3)


class TestSortKey:
    def test_2d_uses_fast_path_consistently(self):
        pts = np.random.default_rng(0).random((100, 2))
        keys = hilbert_sort_key(pts, order=8)
        cells = quantize(pts, order=8)
        expected = hilbert_index_2d(cells[:, 0], cells[:, 1], order=8)
        assert np.array_equal(keys, expected)

    def test_3d(self):
        pts = np.random.default_rng(0).random((50, 3))
        keys = hilbert_sort_key(pts, order=8)
        assert keys.shape == (50,)
        assert len(np.unique(keys)) > 40  # collisions rare at order 8

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            hilbert_sort_key(np.zeros(5))

    def test_sorted_points_nearby(self):
        """Sorting unit-square points by curve key gives a short tour."""
        rng = np.random.default_rng(1)
        pts = rng.random((2000, 2))
        keys = hilbert_sort_key(pts)
        tour = pts[np.argsort(keys)]
        hops = np.hypot(*(tour[1:] - tour[:-1]).T)
        # A random order has mean hop ~0.52; Hilbert should be ~sqrt(1/n).
        assert hops.mean() < 0.05
