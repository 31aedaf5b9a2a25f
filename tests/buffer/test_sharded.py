"""Sharded buffer pool: partitioning, K=1 exactness, sum reconciliation,
and the batch path against the page-at-a-time path and the hook-based
oracle."""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.buffer import LRUBuffer, PinningError, ShardedBufferPool
from repro.buffer.policies import POLICIES
from tests.buffer.hook_pools import HOOK_POLICIES, spy_on_loop
from tests.buffer.test_batch_loops import _batch, _chunks, pinned_stream


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


@st.composite
def sharded_setups(draw):
    """K in 1..5 with pins homed to every shard, laid out against the
    stream as in ``test_batch_loops``; a shard whose pins fill it has no
    unpinned slot."""
    shards = draw(st.integers(1, 5))
    homed = frozenset(
        s + shards * draw(st.integers(0, 7)) for s in range(shards)
    )
    stream, pinned = draw(
        pinned_stream(8 * shards, max_pins=3 * shards, homed=homed)
    )
    per_shard = max(
        sum(1 for p in pinned if p % shards == s) for s in range(shards)
    )
    capacity = shards * per_shard + draw(st.integers(0, 2 * shards))
    cuts = draw(st.lists(st.integers(0, 200), max_size=12))
    return shards, pinned, capacity, stream, cuts


class TestBatchMatchesOracle:
    """Every shard == the hook-based oracle fed its ``page % K``
    subsequence one page at a time, and == per-page ``request()``."""

    @pytest.mark.parametrize("policy", sorted(POLICIES))
    @settings(max_examples=100, deadline=None)
    @given(setup=sharded_setups(), seed=st.integers(0, 2**16))
    def test_shards_match_oracle_and_per_page(self, policy, setup, seed):
        shards, pinned, capacity, stream, cuts = setup
        kwargs = dict(policy=policy, pinned=pinned, rng=seed)
        batched = ShardedBufferPool(capacity, shards, **kwargs)
        single = ShardedBufferPool(capacity, shards, **kwargs)
        for pool in batched._pools:
            spy_on_loop(pool)

        hits = sum(
            batched.request_batch(_batch(chunk, n))
            for n, chunk in enumerate(_chunks(stream, cuts))
        )
        assert hits == sum(single.request(page) for page in stream)
        assert [s.as_dict() for s in batched.shard_stats()] == [
            s.as_dict() for s in single.shard_stats()
        ]
        for s, (pool, shard_capacity) in enumerate(
            zip(batched._pools, batched.shard_capacities())
        ):
            pins = [p for p in pinned if p % shards == s]
            if policy == "random":
                rng = np.random.default_rng(seed + s)
                oracle = HOOK_POLICIES[policy](shard_capacity, pins, rng=rng)
            else:
                oracle = HOOK_POLICIES[policy](shard_capacity, pins)
            for page in stream:
                if page % shards == s:
                    oracle.request(page)
            assert pool.stats.as_dict() == oracle.stats.as_dict()
            assert pool.resident_pages() == oracle.resident_pages()
            if policy == "clock":
                assert pool._hand == oracle._hand
                assert pool._frames == oracle._referenced
            if policy == "random":
                assert pool._frames == oracle._index
                assert (
                    pool._rng.bit_generator.state
                    == oracle._rng.bit_generator.state
                )


class TestPageIds:
    def test_negative_pin_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            LRUBuffer(4, pinned=[-1])
        with pytest.raises(ValueError, match="non-negative"):
            ShardedBufferPool(4, 2, pinned=[-2])

    @pytest.mark.parametrize("shards", [1, 3])
    def test_negative_page_rejected_where_pins_are_looked_up(self, shards):
        pool = ShardedBufferPool(6, shards, pinned=[0])
        with pytest.raises(ValueError, match="non-negative"):
            pool.request_batch(np.array([1, -3]))
        with pytest.raises(ValueError, match="non-negative"):
            pool.request(-3)
        assert pool.aggregate_stats().requests == 0

    @pytest.mark.parametrize("pinned", [[], [0, 2], [0, 1, 2]])
    def test_one_page_requests_read_the_pin_table(self, pinned):
        # Pages beyond the highest pin read the table's last slot; every
        # answer and counter equals the one-page request_batch's.
        pages = [2, 0, 7, 1, 2, 40, 0, 3, 1, 7]
        single = LRUBuffer(3, pinned=pinned)
        batched = LRUBuffer(3, pinned=pinned)
        for page in pages:
            assert single.request(page) == (not batched.request_batch([page]))
        assert single.stats.as_dict() == batched.stats.as_dict()
        assert single.resident_pages() == batched.resident_pages()


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
