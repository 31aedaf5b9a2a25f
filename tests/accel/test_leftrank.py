"""``segmented_left_rank``: brute-force oracle and contracts.

The kernel backs the offline LRU stack-distance engine
(:mod:`repro.simulation.stackdist`), whose own oracle is a brute-force
LRU stack in ``tests/simulation/test_stackdist.py``.  The kernel must
match a brute-force count exactly on every input — ranks feed miss
counts, so an off-by-one anywhere corrupts a simulation.
"""

from __future__ import annotations

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


class TestSegmentedLeftRank:
    @settings(max_examples=80)
    @given(
        int_arrays,
        st.sampled_from([1, 2, 4, 8]),
        st.integers(min_value=1, max_value=6),
    )
    def test_matches_brute_force(self, values, block, mult):
        v = np.asarray(values, dtype=np.int64)
        segment = block * mult
        got = segmented_left_rank(v, segment, block=block)
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
        assert segmented_left_rank(v, 2, block=2).tolist() == [0, 1, 0, 1]

    def test_unsigned_dtype_accepted(self):
        v = np.array([3, 1, 2, 2], dtype=np.uint32)
        assert np.array_equal(
            segmented_left_rank(v, 64), brute_left_rank(v.astype(np.int64), 64)
        )

    @pytest.mark.parametrize(
        "values, segment, kwargs",
        [
            (np.zeros((2, 2), dtype=np.int64), 64, {}),
            (np.zeros(4, dtype=np.float64), 64, {}),
            (np.zeros(4, dtype=np.int64), 0, {}),
            (np.zeros(4, dtype=np.int64), 96, {"block": 64}),
            (np.zeros(4, dtype=np.int64), 64, {"block": 0}),
        ],
    )
    def test_rejects_bad_inputs(self, values, segment, kwargs):
        with pytest.raises(GeometryError):
            segmented_left_rank(values, segment, **kwargs)
