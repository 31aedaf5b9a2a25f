"""Per-level attribution: unit tests plus a hand-built 2-level tree."""

import numpy as np
import pytest

from repro.buffer import LRUBuffer
from repro.geometry import Rect
from repro.obs import LevelStatsTable, MetricsRegistry
from repro.queries import UniformPointWorkload
from repro.rtree import TreeDescription
from repro.simulation import simulate
from tests.buffer.hook_pools import EventLevelTable, HookLRU


def two_level_description() -> TreeDescription:
    """Root over two disjoint leaves; every point hits root + <= 1 leaf."""
    return TreeDescription.from_level_rects(
        [
            [Rect((0, 0), (1, 1))],
            [Rect((0, 0), (0.49, 1)), Rect((0.51, 0), (1, 1))],
        ]
    )


def _window(table, pool, chunks):
    """One measurement window: reset, one record per batch, snapshot."""
    table.reset(pool)
    for chunk in chunks:
        table.record(np.array(chunk, dtype=np.int64), pool.request_batch(chunk))
    return table.snapshot(pool)


class TestLevelStatsTable:
    def test_offset_validation(self):
        with pytest.raises(ValueError):
            LevelStatsTable([0])  # no sentinel
        with pytest.raises(ValueError):
            LevelStatsTable([1, 3])  # does not start at 0
        with pytest.raises(ValueError):
            LevelStatsTable([0, 3, 3])  # empty level

    def test_level_of(self):
        table = LevelStatsTable((0, 1, 3, 7))
        assert table.n_levels == 3
        assert table.level_of(0) == 0
        assert table.level_of(1) == 1
        assert table.level_of(2) == 1
        assert table.level_of(3) == 2
        assert table.level_of(6) == 2
        with pytest.raises(IndexError):
            table.level_of(7)
        with pytest.raises(IndexError):
            table.level_of(-1)

    def test_attribution(self):
        # capacity 2 with the root pinned: one unpinned slot.
        pool = LRUBuffer(2, pinned=[0])
        root, leaves = _window(LevelStatsTable((0, 1, 3)), pool, [[0, 1, 1, 2]])
        assert (root.requests, root.hits, root.pin_hits) == (1, 1, 1)
        assert (leaves.requests, leaves.hits, leaves.misses) == (3, 1, 2)
        # page 2's miss evicts page 1: the eviction lands on the
        # victim's level
        assert leaves.evictions == 1 and root.evictions == 0

    def test_miss_without_eviction(self):
        (row,) = _window(LevelStatsTable((0, 1)), LRUBuffer(1), [[0]])
        assert row.misses == 1 and row.evictions == 0

    def test_totals_and_reset(self):
        table = LevelStatsTable((0, 2, 5))
        pool = LRUBuffer(5)
        rows = _window(table, pool, [[0, 1, 2], [3, 4]])
        assert sum(r.requests for r in rows) == sum(r.misses for r in rows) == 5
        # A new window starts from the pool's residency: re-requesting
        # the five resident pages hits and evicts nothing.
        rows = _window(table, pool, [[4, 3, 2, 1, 0]])
        assert [r.hits for r in rows] == [2, 3]
        assert sum(r.misses + r.evictions for r in rows) == 0

    def test_hit_ratio(self):
        table = LevelStatsTable((0, 1))
        pool = LRUBuffer(1)
        table.reset(pool)
        assert table.snapshot(pool)[0].hit_ratio == 0.0
        (row,) = _window(table, pool, [[0], [0]])
        assert row.hit_ratio == pytest.approx(0.5)


class TestChunkAttribution:
    def test_sees_every_request_kind(self):
        # The same requests, one batch or page by page, through the
        # per-event oracle: pinned hit, miss, hit, miss with eviction.
        offsets = (0, 1, 3)
        rows = _window(
            LevelStatsTable(offsets), LRUBuffer(2, pinned=[0]), [[0, 1], [1, 2]]
        )
        oracle = HookLRU(2, pinned=[0])
        oracle.sink = EventLevelTable(offsets)
        for page in (0, 1, 1, 2):
            oracle.request(page)
        assert [
            (r.requests, r.hits, r.misses, r.evictions, r.pin_hits)
            for r in rows
        ] == oracle.sink.rows()

    def test_zero_unpinned_capacity_admits_nothing(self):
        # Every unpinned request misses and nothing is ever resident,
        # so the identity must charge no evictions.
        pool = LRUBuffer(1, pinned=[0])
        root, leaves = _window(LevelStatsTable((0, 1, 3)), pool, [[0, 1, 2, 1]])
        assert root.pin_hits == 1 and leaves.misses == 3
        assert root.evictions == leaves.evictions == 0
        assert pool.stats.evictions == 0


class TestSimulateAttribution:
    def test_two_level_tree_hand_counts(self):
        desc = two_level_description()
        registry = MetricsRegistry()
        n_batches, batch_size = 4, 500
        result = simulate(
            desc, UniformPointWorkload(), buffer_size=3,
            n_batches=n_batches, batch_size=batch_size, registry=registry,
        )
        root, leaves = result.level_stats
        queries = n_batches * batch_size
        # Every point is inside the root MBR: one root request per query.
        assert root.requests == queries
        # The buffer holds all three pages: everything hits.
        assert root.hits == queries and root.misses == 0
        assert leaves.misses == 0 and leaves.evictions == 0
        # Leaves cover 98% of the unit square, roughly evenly.
        assert 0.9 * queries <= leaves.requests <= queries
        # No pinning: pin_hits are zero everywhere.
        assert root.pin_hits == 0 and leaves.pin_hits == 0

    def test_pinned_root_counted_as_pin_hits(self):
        desc = two_level_description()
        registry = MetricsRegistry()
        result = simulate(
            desc, UniformPointWorkload(), buffer_size=2, pinned_levels=1,
            n_batches=2, batch_size=300, registry=registry,
        )
        root = result.level_stats[0]
        assert root.pin_hits == root.requests == root.hits == 600

    def test_per_level_sums_match_aggregate_batch_stats(self):
        desc = two_level_description()
        registry = MetricsRegistry()
        result = simulate(
            desc, UniformPointWorkload(), buffer_size=1,
            n_batches=3, batch_size=400, registry=registry,
        )
        for column in ("requests", "hits", "misses", "evictions"):
            level_sum = sum(getattr(row, column) for row in result.level_stats)
            batch_sum = sum(getattr(s, column) for s in result.batch_stats)
            assert level_sum == batch_sum
        exported = registry.to_dict()["counters"]
        assert exported["buffer.requests"] == sum(
            s.requests for s in result.batch_stats
        )

    def test_registry_changes_nothing(self):
        desc = two_level_description()
        kwargs = dict(buffer_size=2, n_batches=3, batch_size=400, trace_last=3)
        plain = simulate(desc, UniformPointWorkload(), **kwargs)
        counted = simulate(
            desc, UniformPointWorkload(), registry=MetricsRegistry(), **kwargs
        )
        assert [s.as_dict() for s in plain.batch_stats] == [
            s.as_dict() for s in counted.batch_stats
        ]
        assert plain.disk_accesses == counted.disk_accesses
        assert plain.trace == counted.trace

    def test_no_registry_leaves_result_bare(self):
        desc = two_level_description()
        result = simulate(
            desc, UniformPointWorkload(), buffer_size=3,
            n_batches=2, batch_size=100,
        )
        assert result.level_stats is None
        assert result.trace == ()
        assert len(result.batch_stats) == 2
