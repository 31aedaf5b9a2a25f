"""``segmented_left_rank``: brute-force oracle and contracts.

The kernel backs the offline LRU stack-distance engine
(:mod:`repro.simulation.stackdist`), whose own oracle is a brute-force
LRU stack in ``tests/simulation/test_stackdist.py``.  The kernel must
match a brute-force count exactly on every input — ranks feed miss
counts, so an off-by-one anywhere corrupts a simulation.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.accel import segmented_left_rank
from repro.geometry import GeometryError


def brute_left_rank(values: np.ndarray, segment: int) -> np.ndarray:
    """O(n·segment) reference: count ``<=`` predecessors per segment."""
    n = values.shape[0]
    out = np.zeros(n, dtype=np.int64)
    for i in range(n):
        start = (i // segment) * segment
        out[i] = int(np.sum(values[start:i] <= values[i]))
    return out


int_arrays = st.lists(
    st.integers(min_value=-50, max_value=50), min_size=0, max_size=400
)


def prev_positions(pages: np.ndarray) -> np.ndarray:
    """The stack-distance engine's input: each access's previous
    position of the same page, or −1 for a first access."""
    prev = np.full(pages.shape[0], -1, dtype=np.int64)
    last: dict[int, int] = {}
    for t, page in enumerate(pages.tolist()):
        prev[t] = last.get(page, -1)
        last[page] = t
    return prev


class TestSegmentedLeftRank:
    @settings(max_examples=80)
    @given(int_arrays, st.integers(min_value=1, max_value=48))
    def test_matches_brute_force(self, values, segment):
        v = np.asarray(values, dtype=np.int64)
        got = segmented_left_rank(v, segment)
        assert got.dtype == np.int64
        assert np.array_equal(got, brute_left_rank(v, segment))

    @settings(max_examples=40)
    @given(int_arrays)
    def test_default_block(self, values):
        v = np.asarray(values, dtype=np.int64)
        got = segmented_left_rank(v, 128)
        assert np.array_equal(got, brute_left_rank(v, 128))

    def test_empty(self):
        out = segmented_left_rank(np.empty(0, dtype=np.int64), 64)
        assert out.shape == (0,)

    def test_ties_count(self):
        # Equal earlier values are included (``<=`` semantics).
        v = np.array([5, 5, 5, 5], dtype=np.int64)
        assert segmented_left_rank(v, 64).tolist() == [0, 1, 2, 3]

    def test_segment_boundaries_reset(self):
        v = np.array([0, 1, 2, 3], dtype=np.int64)
        assert segmented_left_rank(v, 2).tolist() == [0, 1, 0, 1]

    def test_unsigned_dtype_accepted(self):
        v = np.array([3, 1, 2, 2], dtype=np.uint32)
        assert np.array_equal(
            segmented_left_rank(v, 64), brute_left_rank(v.astype(np.int64), 64)
        )

    @pytest.mark.parametrize(
        "values, segment",
        [
            (np.zeros((2, 2), dtype=np.int64), 64),
            (np.zeros(4, dtype=np.float64), 64),
            (np.zeros(4, dtype=np.int64), 0),
        ],
    )
    def test_rejects_bad_inputs(self, values, segment):
        with pytest.raises(GeometryError):
            segmented_left_rank(values, segment)

    @pytest.mark.parametrize(
        "lo, hi",
        [(0, 2**62 - 1), (-(2**62), 2**62), (-(2**63), 2**63 - 1)],
    )
    def test_wide_value_range(self, lo, hi):
        # Keys raised by a block index overflow int64 unless the values
        # are first replaced by their ranks.
        v = np.random.default_rng(3).integers(
            lo, hi, size=2048, dtype=np.int64, endpoint=True
        )
        v[:4] = lo, hi, lo, hi
        assert np.array_equal(
            segmented_left_rank(v, 512), brute_left_rank(v, 512)
        )

    @pytest.mark.parametrize("dtype", [np.int8, np.int16])
    def test_narrow_dtype_full_range(self, dtype):
        # Offsets are computed in int64, not in the input's own width,
        # where max − min wraps.
        info = np.iinfo(dtype)
        v = np.array([info.min, info.max, 0, -1, info.max, info.min], dtype=dtype)
        assert np.array_equal(
            segmented_left_rank(v, 4), brute_left_rank(v.astype(np.int64), 4)
        )

    def test_unsigned_values_above_int64(self):
        v = np.array(
            [2**64 - 1, 0, 2**63, 2**63 - 1, 2**64 - 1, 2**63], dtype=np.uint64
        )
        assert segmented_left_rank(v, 4).tolist() == [0, 0, 1, 1, 0, 0]

    def test_peak_memory_per_element(self):
        # prev-like values of a 65,536-access stream, one segment size
        # of the stack-distance engine: the merge tree holds a few
        # int64 arrays the size of the input, never a block tensor.
        prev = prev_positions(
            np.random.default_rng(5).integers(0, 1000, size=65_536)
        )
        owner = not tracemalloc.is_tracing()
        if owner:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            segmented_left_rank(prev, 512)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            if owner:
                tracemalloc.stop()
        assert peak <= 8 * prev.itemsize * prev.size
