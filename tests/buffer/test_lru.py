"""Unit tests for the LRU buffer pool."""

import pytest

from repro.buffer import LRUBuffer, PinningError


class TestBasics:
    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            LRUBuffer(0)

    def test_miss_then_hit(self):
        buf = LRUBuffer(2)
        assert not buf.request("a")  # miss
        assert buf.request("a")  # hit
        assert buf.stats.requests == 2
        assert buf.stats.hits == 1
        assert buf.stats.misses == 1

    def test_eviction_is_least_recently_used(self):
        buf = LRUBuffer(2)
        buf.request("a")
        buf.request("b")
        buf.request("a")  # refresh a; LRU order is now b, a
        buf.request("c")  # evicts b
        assert "b" not in buf
        assert "a" in buf and "c" in buf
        assert buf.stats.evictions == 1

    def test_hit_refreshes_recency(self):
        buf = LRUBuffer(3)
        for p in ("a", "b", "c"):
            buf.request(p)
        buf.request("a")
        buf.request("d")  # evicts b, not a
        assert "a" in buf and "b" not in buf

    def test_lru_order_exposed(self):
        buf = LRUBuffer(3)
        for p in ("a", "b", "c"):
            buf.request(p)
        buf.request("b")
        assert buf.resident_pages() == ["a", "c", "b"]

    def test_len_and_is_full(self):
        buf = LRUBuffer(2)
        assert len(buf) == 0
        assert not buf.is_full()
        buf.request("a")
        assert len(buf) == 1
        buf.request("b")
        assert buf.is_full()
        buf.request("c")
        assert len(buf) == 2  # still full, not over

    def test_stats_reset(self):
        buf = LRUBuffer(2)
        buf.request("a")
        buf.stats.reset()
        assert buf.stats.requests == 0
        assert "a" in buf  # contents survive a stats reset

    def test_hit_ratio(self):
        buf = LRUBuffer(2)
        assert buf.stats.hit_ratio == 0.0
        buf.request("a")
        buf.request("a")
        buf.request("a")
        assert buf.stats.hit_ratio == pytest.approx(2 / 3)


class TestPinning:
    def test_pinned_pages_always_hit(self):
        buf = LRUBuffer(3, pinned=["root"])
        assert buf.request("root")  # hit without ever loading
        assert buf.stats.misses == 0

    def test_pinned_never_evicted(self):
        buf = LRUBuffer(2, pinned=["root"])
        buf.request("a")
        buf.request("b")  # evicts a (only 1 unpinned slot)
        buf.request("c")  # evicts b
        assert "root" in buf
        assert buf.request("root")

    def test_pinned_consume_capacity(self):
        buf = LRUBuffer(2, pinned=["r1", "r2"])
        assert buf.unpinned_capacity == 0
        assert not buf.request("a")
        assert not buf.request("a")  # no space: always a miss
        assert buf.stats.misses == 2

    def test_pinning_more_than_capacity_raises(self):
        with pytest.raises(PinningError):
            LRUBuffer(2, pinned=["a", "b", "c"])

    def test_len_includes_pinned(self):
        buf = LRUBuffer(3, pinned=["r"])
        assert len(buf) == 1
        buf.request("a")
        assert len(buf) == 2

    def test_is_full_with_pinning(self):
        buf = LRUBuffer(2, pinned=["r"])
        assert not buf.is_full()
        buf.request("a")
        assert buf.is_full()
