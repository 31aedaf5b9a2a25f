"""Sharded buffer pool: partitioning, K=1 exactness, sum reconciliation,
and the batch path against the page-at-a-time path."""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest

from repro.buffer import LRUBuffer, PinningError, ShardedBufferPool
from repro.buffer.policies import POLICIES


def _trace(rng: np.random.Generator, n: int, universe: int) -> list[int]:
    return [int(p) for p in rng.integers(0, universe, n)]


class TestConstruction:
    def test_needs_at_least_one_shard(self):
        with pytest.raises(ValueError):
            ShardedBufferPool(8, 0)

    def test_each_shard_needs_a_page(self):
        with pytest.raises(ValueError):
            ShardedBufferPool(3, 4)

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            ShardedBufferPool(8, 2, policy="mru")

    @pytest.mark.parametrize("capacity,shards", [(8, 3), (10, 4), (7, 7)])
    def test_capacities_split_evenly_and_sum(self, capacity, shards):
        pool = ShardedBufferPool(capacity, shards)
        caps = pool.shard_capacities()
        assert sum(caps) == capacity
        assert max(caps) - min(caps) <= 1

    def test_pins_partition_to_home_shards(self):
        pins = range(6)
        pool = ShardedBufferPool(12, 3, pinned=pins)
        for page in pins:
            assert page in pool
        assert len(pool) == 6

    def test_overfull_shard_pin_raises(self):
        # 10 pins homed to one shard of two cannot fit its 8 slots,
        # even though the 16-page total would hold them.
        pins = [p for p in range(64) if hash(p) % 2 == 0][:10]
        with pytest.raises(PinningError):
            ShardedBufferPool(16, 2, pinned=pins)

    def test_total_pin_overflow_raises(self):
        with pytest.raises(PinningError):
            ShardedBufferPool(4, 2, pinned=range(5))


class TestKOneExactness:
    @pytest.mark.parametrize("policy", sorted(POLICIES))
    def test_k1_matches_plain_pool_request_by_request(self, policy):
        rng = np.random.default_rng(7)
        trace = _trace(rng, 5000, 200)
        kwargs = {"rng": 42} if policy == "random" else {}
        sharded = ShardedBufferPool(
            32, 1, policy=policy, pinned=range(4), **kwargs
        )
        if policy == "random":
            plain = POLICIES[policy](
                32, range(4), rng=np.random.default_rng(42)
            )
        else:
            plain = POLICIES[policy](32, range(4))
        for page in trace:
            assert sharded.request(page) == plain.request(page)
        assert sharded.aggregate_stats().as_dict() == plain.stats.as_dict()
        assert len(sharded) == len(plain)

    def test_k1_is_full_and_contains(self):
        sharded = ShardedBufferPool(4, 1)
        plain = LRUBuffer(4)
        for page in range(10):
            sharded.request(page)
            plain.request(page)
            assert sharded.is_full() == plain.is_full()
            assert (page in sharded) == (page in plain)


class TestDecomposition:
    """Each shard == a plain pool fed its hash-filtered subsequence."""

    @pytest.mark.parametrize("shards", [2, 3, 8])
    def test_shards_match_filtered_replay(self, shards):
        rng = np.random.default_rng(11)
        trace = _trace(rng, 8000, 500)
        pool = ShardedBufferPool(32, shards)
        for page in trace:
            pool.request(page)

        caps = pool.shard_capacities()
        for s in range(shards):
            reference = LRUBuffer(caps[s])
            for page in trace:
                if hash(page) % shards == s:
                    reference.request(page)
            assert (
                pool.shard_stats()[s].as_dict()
                == reference.stats.as_dict()
            )

    @pytest.mark.parametrize("shards", [1, 2, 8])
    def test_aggregate_is_shard_sum(self, shards):
        rng = np.random.default_rng(13)
        pool = ShardedBufferPool(24, shards)
        for page in _trace(rng, 6000, 300):
            pool.request(page)
        agg = pool.aggregate_stats().as_dict()
        per = [s.as_dict() for s in pool.shard_stats()]
        for field in agg:
            assert agg[field] == sum(p[field] for p in per)
        assert agg["hits"] + agg["misses"] == agg["requests"]

    def test_reset_stats_zeros_every_shard(self):
        pool = ShardedBufferPool(8, 2)
        for page in range(20):
            pool.request(page)
        pool.reset_stats()
        assert pool.aggregate_stats().as_dict() == {
            "requests": 0, "hits": 0, "misses": 0, "evictions": 0,
        }
        # contents survive a stats reset
        assert len(pool) > 0

    def test_unpinned_capacity(self):
        pool = ShardedBufferPool(16, 4, pinned=range(5))
        assert pool.unpinned_capacity == 11


class TestBatchMatchesPerPage:
    """``request_batch`` == one ``request()`` per page, shard by shard."""

    # Uneven chunk boundaries: a single page, a short run, a long one.
    CUTS = (0, 1, 38, 738, 743, 2243, 4000)

    @pytest.mark.parametrize("shards", [1, 2, 3, 8])
    @pytest.mark.parametrize("policy", sorted(POLICIES))
    @pytest.mark.parametrize("pinned", [(), (0, 7, 13, 201)])
    def test_batch_equals_per_page(self, shards, policy, pinned):
        rng = np.random.default_rng(11)
        pages = rng.integers(0, 400, self.CUTS[-1], dtype=np.int64)
        batched = ShardedBufferPool(48, shards, policy=policy, pinned=pinned)
        single = ShardedBufferPool(48, shards, policy=policy, pinned=pinned)
        batch_hits = sum(
            batched.request_batch(pages[lo:hi])
            for lo, hi in zip(self.CUTS, self.CUTS[1:])
        )
        single_hits = sum(single.request(int(page)) for page in pages)
        assert [s.as_dict() for s in batched.shard_stats()] == [
            s.as_dict() for s in single.shard_stats()
        ]
        assert batch_hits == single_hits
        assert batched.aggregate_stats().hits == single_hits
        assert len(batched) == len(single)


class TestConcurrency:
    def test_concurrent_totals_reconcile(self):
        pool = ShardedBufferPool(64, 8)
        n_threads, n_requests = 4, 5000
        errors: list[Exception] = []

        def worker(seed: int) -> None:
            rng = np.random.default_rng(seed)
            try:
                for page in rng.integers(0, 1000, n_requests):
                    pool.request(int(page))
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(s,))
            for s in range(n_threads)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        agg = pool.aggregate_stats()
        assert agg.requests == n_threads * n_requests
        assert agg.hits + agg.misses == agg.requests
        per = pool.shard_stats()
        assert agg.requests == sum(s.requests for s in per)
        assert agg.evictions == sum(s.evictions for s in per)

    def test_concurrent_batches_reconcile(self):
        # request_batch holds each shard's lock for a whole part of a
        # batch; a lost update under contention would break the totals.
        pool = ShardedBufferPool(64, 8)
        n_threads, n_batches, batch = 4, 200, 50
        errors: list[Exception] = []

        def worker(seed: int) -> None:
            rng = np.random.default_rng(seed)
            try:
                for _ in range(n_batches):
                    pool.request_batch(rng.integers(0, 1000, batch))
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(s,))
            for s in range(n_threads)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not errors
        agg = pool.aggregate_stats()
        assert agg.requests == n_threads * n_batches * batch
        assert agg.hits + agg.misses == agg.requests
        assert len(pool) == pool.capacity
