"""Unit tests for the CSR containment structure."""

from __future__ import annotations

import numpy as np
import pytest

from repro.accel import DenseStabber, SparseContainment
from tests.conftest import random_rects


class TestFromDense:
    def test_roundtrip(self, rng):
        matrix = rng.random((7, 5)) < 0.4
        sparse = SparseContainment.from_dense(matrix)
        assert np.array_equal(sparse.to_dense(), matrix)

    def test_shape_bookkeeping(self, rng):
        matrix = rng.random((6, 9)) < 0.3
        sparse = SparseContainment.from_dense(matrix)
        assert sparse.n_points == 6
        assert sparse.n_rects == 9
        assert sparse.nnz == int(matrix.sum())

    def test_rows_are_ascending_ids(self, rng):
        matrix = rng.random((10, 8)) < 0.5
        sparse = SparseContainment.from_dense(matrix)
        for q in range(10):
            row = sparse.row(q)
            assert np.array_equal(row, np.nonzero(matrix[q])[0])
            assert np.all(np.diff(row) > 0)

    def test_empty_matrix(self):
        sparse = SparseContainment.from_dense(np.zeros((0, 4), dtype=bool))
        assert sparse.n_points == 0
        assert sparse.nnz == 0

    def test_all_true_matrix(self):
        sparse = SparseContainment.from_dense(np.ones((3, 4), dtype=bool))
        assert sparse.nnz == 12
        for q in range(3):
            assert np.array_equal(sparse.row(q), np.arange(4))


class TestDenseStabber:
    def test_matches_contains_points(self, rng):
        rects = random_rects(rng, 20)
        points = rng.random((15, 2))
        sparse = DenseStabber(rects).stab(points)
        assert np.array_equal(sparse.to_dense(), rects.contains_points(points))

    def test_row_out_of_range(self, rng):
        sparse = DenseStabber(random_rects(rng, 3)).stab(rng.random((2, 2)))
        with pytest.raises(IndexError):
            sparse.row(2)
