"""Tests for rectangle data-set I/O."""

import numpy as np
import pytest

from repro.datasets import load_rects, save_rects
from repro.datasets.io import load_rects_npz, save_rects_npz
from repro.geometry import GeometryError, RectArray
from tests.conftest import random_rects


class TestTextFormat:
    def test_roundtrip(self, rng, tmp_path):
        arr = random_rects(rng, 50)
        path = tmp_path / "rects.txt"
        save_rects(path, arr)
        loaded = load_rects(path)
        assert loaded == arr  # repr() round-trips floats exactly

    def test_roundtrip_3d(self, rng, tmp_path):
        lo = rng.random((10, 3))
        arr = RectArray(lo, lo + 0.1)
        path = tmp_path / "rects3.txt"
        save_rects(path, arr)
        assert load_rects(path) == arr

    def test_header_comment_written(self, rng, tmp_path):
        arr = random_rects(rng, 3)
        path = tmp_path / "rects.txt"
        save_rects(path, arr)
        first = path.read_text().splitlines()[0]
        assert first.startswith("#")
        assert "dim=2" in first and "n=3" in first

    def test_comments_and_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "hand.txt"
        path.write_text("# comment\n\n0.1 0.2 0.3 0.4\n# more\n0.0 0.0 1.0 1.0\n")
        arr = load_rects(path)
        assert len(arr) == 2
        assert arr.lo[0].tolist() == [0.1, 0.2]

    def test_odd_coordinate_count_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0.1 0.2 0.3\n")
        with pytest.raises(GeometryError):
            load_rects(path)

    def test_inconsistent_dim_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0.1 0.2 0.3 0.4\n0.1 0.2 0.3 0.4 0.5 0.6\n")
        with pytest.raises(GeometryError):
            load_rects(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("# nothing here\n")
        with pytest.raises(GeometryError):
            load_rects(path)


class TestNpzFormat:
    def test_roundtrip_exact(self, rng, tmp_path):
        arr = random_rects(rng, 200)
        path = tmp_path / "rects.npz"
        save_rects_npz(path, arr)
        loaded = load_rects_npz(path)
        assert np.array_equal(loaded.lo, arr.lo)
        assert np.array_equal(loaded.hi, arr.hi)
