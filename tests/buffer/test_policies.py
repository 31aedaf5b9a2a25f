"""Tests for the FIFO / CLOCK / RANDOM replacement policies."""

import numpy as np
import pytest

from repro.buffer import (
    POLICIES,
    ClockBuffer,
    FIFOBuffer,
    LRUBuffer,
    PinningError,
    RandomBuffer,
)


def make(policy, capacity, pinned=()):
    if policy is RandomBuffer:
        return policy(capacity, pinned, rng=np.random.default_rng(7))
    return policy(capacity, pinned)


ALL = [LRUBuffer, FIFOBuffer, ClockBuffer, RandomBuffer]


@pytest.mark.parametrize("policy", ALL)
class TestCommonContract:
    def test_miss_then_hit(self, policy):
        buf = make(policy, 2)
        assert not buf.request(1)
        assert buf.request(1)

    def test_never_exceeds_capacity(self, policy):
        buf = make(policy, 3)
        rng = np.random.default_rng(0)
        for _ in range(500):
            buf.request(int(rng.integers(10)))
            assert len(buf) <= 3

    def test_accounting_consistent(self, policy):
        buf = make(policy, 4)
        rng = np.random.default_rng(1)
        for _ in range(300):
            buf.request(int(rng.integers(12)))
        s = buf.stats
        assert s.requests == 300
        assert s.hits + s.misses == 300
        assert s.evictions == s.misses - len(buf)

    def test_pinned_always_hit_never_evicted(self, policy):
        buf = make(policy, 3, pinned=[0])
        rng = np.random.default_rng(2)
        for _ in range(200):
            buf.request(int(rng.integers(8)))
        assert buf.request(0)
        assert 0 in buf

    def test_pinning_overflow_raises(self, policy):
        with pytest.raises(PinningError):
            make(policy, 1, pinned=[1, 2])

    def test_single_page_working_set_always_hits(self, policy):
        buf = make(policy, 1)
        buf.request(1)
        for _ in range(10):
            assert buf.request(1)


class TestFIFO:
    def test_eviction_ignores_hits(self):
        buf = FIFOBuffer(2)
        buf.request(1)
        buf.request(2)
        buf.request(1)  # hit must NOT refresh FIFO position
        buf.request(3)  # evicts 1 (oldest arrival)
        assert 1 not in buf
        assert 2 in buf


class TestClock:
    def test_second_chance(self):
        buf = ClockBuffer(2)
        buf.request(1)
        buf.request(2)
        buf.request(1)  # sets 1's reference bit
        buf.request(3)  # sweep clears 1's bit, evicts 2
        assert 1 in buf
        assert 2 not in buf

    def test_sweep_wraps_around(self):
        buf = ClockBuffer(3)
        for p in (1, 2, 3):
            buf.request(p)
        for p in (1, 2, 3):
            buf.request(p)  # all referenced
        buf.request(4)  # must clear all bits, wrap, and evict one
        assert len(buf) == 3
        assert 4 in buf


class TestRandom:
    def test_deterministic_with_seed(self):
        def trace(seed):
            buf = RandomBuffer(2, rng=np.random.default_rng(seed))
            out = []
            for p in (1, 2, 3, 1, 4, 2, 3):
                out.append(buf.request(p))
            return out

        assert trace(3) == trace(3)

    def test_eviction_keeps_index_consistent(self):
        buf = RandomBuffer(3, rng=np.random.default_rng(0))
        rng = np.random.default_rng(5)
        for _ in range(500):
            p = int(rng.integers(10))
            expected_resident = p in buf
            assert buf.request(p) == expected_resident


def test_policy_registry():
    assert set(POLICIES) == {"lru", "fifo", "clock", "random"}
