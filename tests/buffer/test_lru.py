"""Unit tests for the LRU buffer pool."""

import pytest

from repro.buffer import LRUBuffer, PinningError


class TestBasics:
    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            LRUBuffer(0)

    def test_miss_then_hit(self):
        buf = LRUBuffer(2)
        assert not buf.request(1)  # miss
        assert buf.request(1)  # hit
        assert buf.stats.requests == 2
        assert buf.stats.hits == 1
        assert buf.stats.misses == 1

    def test_eviction_is_least_recently_used(self):
        buf = LRUBuffer(2)
        buf.request(1)
        buf.request(2)
        buf.request(1)  # refresh 1; LRU order is now 2, 1
        buf.request(3)  # evicts 2
        assert 2 not in buf
        assert 1 in buf and 3 in buf
        assert buf.stats.evictions == 1

    def test_hit_refreshes_recency(self):
        buf = LRUBuffer(3)
        for p in (1, 2, 3):
            buf.request(p)
        buf.request(1)
        buf.request(4)  # evicts 2, not 1
        assert 1 in buf and 2 not in buf

    def test_lru_order_exposed(self):
        buf = LRUBuffer(3)
        for p in (1, 2, 3):
            buf.request(p)
        buf.request(2)
        assert buf.resident_pages() == [1, 3, 2]

    def test_len_and_is_full(self):
        buf = LRUBuffer(2)
        assert len(buf) == 0
        assert not buf.is_full()
        buf.request(1)
        assert len(buf) == 1
        buf.request(2)
        assert buf.is_full()
        buf.request(3)
        assert len(buf) == 2  # still full, not over

    def test_stats_reset(self):
        buf = LRUBuffer(2)
        buf.request(1)
        buf.stats.reset()
        assert buf.stats.requests == 0
        assert 1 in buf  # contents survive a stats reset

    def test_hit_ratio(self):
        buf = LRUBuffer(2)
        assert buf.stats.hit_ratio == 0.0
        buf.request(1)
        buf.request(1)
        buf.request(1)
        assert buf.stats.hit_ratio == pytest.approx(2 / 3)


class TestPinning:
    def test_pinned_pages_always_hit(self):
        buf = LRUBuffer(3, pinned=[0])
        assert buf.request(0)  # hit without ever loading
        assert buf.stats.misses == 0

    def test_pinned_never_evicted(self):
        buf = LRUBuffer(2, pinned=[0])
        buf.request(1)
        buf.request(2)  # evicts 1 (only 1 unpinned slot)
        buf.request(3)  # evicts 2
        assert 0 in buf
        assert buf.request(0)

    def test_pinned_consume_capacity(self):
        buf = LRUBuffer(2, pinned=[0, 1])
        assert buf.unpinned_capacity == 0
        assert not buf.request(2)
        assert not buf.request(2)  # no space: always a miss
        assert buf.stats.misses == 2

    def test_pinning_more_than_capacity_raises(self):
        with pytest.raises(PinningError):
            LRUBuffer(2, pinned=[1, 2, 3])

    def test_len_includes_pinned(self):
        buf = LRUBuffer(3, pinned=[0])
        assert len(buf) == 1
        buf.request(1)
        assert len(buf) == 2

    def test_is_full_with_pinning(self):
        buf = LRUBuffer(2, pinned=[0])
        assert not buf.is_full()
        buf.request(1)
        assert buf.is_full()
