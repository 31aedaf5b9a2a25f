"""Each policy's ``request_batch`` loop against the hook-based oracle.

The oracle (``tests/buffer/hook_pools.py``) is the pool every policy
used to be: five hooks driven one page at a time.  The properties
below feed both the same page streams, cut into random batches, over
random pins and capacities (zero unpinned capacity included) and, for
RANDOM, a generator that the caller also draws from between batches.
They must agree on every miss position, the counters, the resident
pages in policy order, CLOCK's hand and reference bits, and the
generator's state.  A second property holds the per-level counters
built from arrays (with evictions from the conservation identity) to
the per-event attribution of the old sink.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.buffer import POLICIES
from repro.obs import LevelStatsTable
from tests.buffer.hook_pools import HOOK_POLICIES, EventLevelTable

_POLICY_NAMES = sorted(POLICIES)


def _make(policy, capacity, pinned, rng_seed, hook):
    cls = (HOOK_POLICIES if hook else POLICIES)[policy]
    if policy == "random":
        rng = np.random.default_rng(rng_seed)
        return cls(capacity, pinned, rng=rng), rng
    return cls(capacity, pinned), None


def _chunks(stream, cuts):
    bounds = sorted({0, len(stream), *(c % (len(stream) + 1) for c in cuts)})
    return [stream[lo:hi] for lo, hi in zip(bounds, bounds[1:])]


@st.composite
def pool_setups(draw, max_page=24):
    n_pages = draw(st.integers(1, max_page))
    pinned = draw(st.frozensets(st.integers(0, n_pages - 1), max_size=6))
    extra = draw(st.integers(0 if pinned else 1, 8))
    stream = draw(st.lists(st.integers(0, n_pages - 1), max_size=120))
    cuts = draw(st.lists(st.integers(0, 200), max_size=12))
    return n_pages, pinned, len(pinned) + extra, stream, cuts


class TestBatchLoopMatchesHooks:
    @pytest.mark.parametrize("policy", _POLICY_NAMES)
    @settings(max_examples=150, deadline=None)
    @given(setup=pool_setups(), seed=st.integers(0, 2**16))
    def test_same_state_sequence(self, policy, setup, seed):
        n_pages, pinned, capacity, stream, cuts = setup
        batched, batched_rng = _make(policy, capacity, pinned, seed, False)
        oracle, oracle_rng = _make(policy, capacity, pinned, seed, True)

        batched_missed: list[int] = []
        oracle_missed: list[int] = []
        start = 0
        for chunk in _chunks(stream, cuts):
            batched_missed += [start + i for i in batched.request_batch(chunk)]
            oracle_missed += [
                start + i
                for i, page in enumerate(chunk)
                if not oracle.request(page)
            ]
            start += len(chunk)
            if policy == "random":
                # The caller shares the generator (simulate() samples
                # queries from the one it hands the pool).
                batched_rng.random()
                oracle_rng.random()

        assert batched_missed == oracle_missed
        assert batched.stats.as_dict() == oracle.stats.as_dict()
        assert batched.resident_pages() == oracle.resident_pages()
        assert len(batched) == len(oracle)
        assert batched.is_full() == oracle.is_full()
        for page in range(n_pages):
            assert (page in batched) == (page in oracle)
        if policy == "clock":
            assert batched._hand == oracle._hand
            assert batched._frames == oracle._referenced
        if policy == "random":
            assert batched._frames == oracle._index
            assert (
                batched_rng.bit_generator.state
                == oracle_rng.bit_generator.state
            )

    @pytest.mark.parametrize("policy", _POLICY_NAMES)
    @settings(max_examples=60, deadline=None)
    @given(setup=pool_setups(), seed=st.integers(0, 2**16))
    def test_request_is_a_one_page_batch(self, policy, setup, seed):
        _, pinned, capacity, stream, _ = setup
        single, _ = _make(policy, capacity, pinned, seed, False)
        oracle, _ = _make(policy, capacity, pinned, seed, True)
        for page in stream:
            assert single.request(page) == oracle.request(page)
        assert single.stats.as_dict() == oracle.stats.as_dict()
        assert single.resident_pages() == oracle.resident_pages()


@st.composite
def level_setups(draw):
    sizes = draw(st.lists(st.integers(1, 6), min_size=1, max_size=4))
    offsets = [0]
    for size in sizes:
        offsets.append(offsets[-1] + size)
    pinned_levels = draw(st.integers(0, len(sizes)))
    pinned = range(offsets[pinned_levels])
    extra = draw(st.integers(0 if len(pinned) else 1, 8))
    page = st.integers(0, offsets[-1] - 1)
    warmup = draw(st.lists(page, max_size=40))
    stream = draw(st.lists(page, max_size=120))
    cuts = draw(st.lists(st.integers(0, 200), max_size=8))
    return offsets, pinned, len(pinned) + extra, warmup, stream, cuts


class TestArrayAttributionMatchesEvents:
    @pytest.mark.parametrize("policy", _POLICY_NAMES)
    @settings(max_examples=120, deadline=None)
    @given(setup=level_setups(), seed=st.integers(0, 2**16))
    def test_level_rows_equal_per_event_rows(self, policy, setup, seed):
        offsets, pinned, capacity, warmup, stream, cuts = setup
        pool, _ = _make(policy, capacity, pinned, seed, False)
        oracle, _ = _make(policy, capacity, pinned, seed, True)

        pool.request_batch(warmup)
        for page in warmup:
            oracle.request(page)

        table = LevelStatsTable(offsets)
        table.reset(pool)
        events = EventLevelTable(offsets)
        oracle.sink = events
        for chunk in _chunks(stream, cuts):
            table.record(np.array(chunk, dtype=np.int64),
                         pool.request_batch(chunk))
            for page in chunk:
                oracle.request(page)

        rows = [
            (r.requests, r.hits, r.misses, r.evictions, r.pin_hits)
            for r in table.snapshot(pool)
        ]
        assert rows == events.rows()
        assert pool.stats.as_dict() == oracle.stats.as_dict()
