"""Tests for the §4 validation simulator."""

import numpy as np
import pytest

from repro.geometry import Rect
from repro.packing import pack_description
from repro.queries import (
    DataDrivenWorkload,
    UniformPointWorkload,
    UniformRegionWorkload,
)
from repro.rtree import TreeDescription
from repro.simulation import simulate
from tests.conftest import random_rects


def tiny_description() -> TreeDescription:
    """Root + two half-plane leaves: hand-checkable access sets."""
    return TreeDescription.from_level_rects(
        [
            [Rect((0, 0), (1, 1))],
            [Rect((0, 0), (0.5, 1)), Rect((0.5, 0), (1, 1))],
        ]
    )


class TestExactBehaviours:
    def test_every_node_cached_when_buffer_big_enough(self):
        desc = tiny_description()
        result = simulate(
            desc, UniformPointWorkload(), buffer_size=3,
            n_batches=2, batch_size=200,
        )
        # After warm-up, all three nodes are resident: zero misses.
        assert result.disk_accesses.mean == 0.0
        assert result.node_accesses.mean > 0

    def test_node_accesses_match_expectation(self):
        desc = tiny_description()
        result = simulate(
            desc, UniformPointWorkload(), buffer_size=3,
            n_batches=5, batch_size=2000,
        )
        # Every point hits the root and exactly one leaf.
        assert result.node_accesses.mean == pytest.approx(2.0, abs=1e-9)

    def test_single_page_buffer_thrashes(self):
        desc = tiny_description()
        result = simulate(
            desc, UniformPointWorkload(), buffer_size=1,
            n_batches=2, batch_size=500,
        )
        # LRU order per query: root, then leaf — with one slot the
        # leaf always displaces the root, so every access misses.
        assert result.disk_accesses.mean == pytest.approx(2.0)

    def test_pinning_the_root_saves_one_access(self):
        desc = tiny_description()
        result = simulate(
            desc, UniformPointWorkload(), buffer_size=1, pinned_levels=1,
            n_batches=2, batch_size=500,
        )
        # Root pinned, one slot left: alternating leaves still miss
        # roughly half the time; misses are at most 1 per query.
        assert result.disk_accesses.mean <= 1.0

    def test_deterministic_given_seed(self, rng):
        desc = pack_description(random_rects(rng, 300), 10, "hs")
        kwargs = dict(buffer_size=10, n_batches=3, batch_size=500)
        a = simulate(desc, UniformPointWorkload(), rng=42, **kwargs)
        b = simulate(desc, UniformPointWorkload(), rng=42, **kwargs)
        assert a.disk_accesses.mean == b.disk_accesses.mean

    def test_warmup_reported(self, rng):
        desc = pack_description(random_rects(rng, 300), 10, "hs")
        result = simulate(
            desc, UniformPointWorkload(), buffer_size=5,
            n_batches=2, batch_size=100,
        )
        assert result.buffer_filled
        assert result.warmup_queries > 0

    def test_explicit_warmup(self, rng):
        desc = pack_description(random_rects(rng, 300), 10, "hs")
        result = simulate(
            desc, UniformPointWorkload(), buffer_size=5,
            n_batches=2, batch_size=100, warmup_queries=7,
        )
        assert result.warmup_queries == 7

    def test_hit_ratio(self, rng):
        desc = pack_description(random_rects(rng, 300), 10, "hs")
        result = simulate(
            desc, UniformPointWorkload(), buffer_size=20,
            n_batches=3, batch_size=500,
        )
        expected = 1 - result.disk_accesses.mean / result.node_accesses.mean
        assert result.hit_ratio == pytest.approx(expected)

    def test_validation_errors(self, rng):
        desc = tiny_description()
        w = UniformPointWorkload()
        with pytest.raises(ValueError):
            simulate(desc, w, 2, n_batches=1)
        with pytest.raises(ValueError):
            simulate(desc, w, 2, batch_size=0)
        with pytest.raises(ValueError):
            simulate(desc, w, 2, policy="mru")
        with pytest.raises(ValueError):
            simulate(desc, w, 2, pinned_levels=5)
        with pytest.raises(ValueError, match="warmup_queries"):
            simulate(desc, w, 2, warmup_queries=-5)


class TestBatchStats:
    """Regression: ``BufferStats.reset()`` is called between batches.

    The docstring always promised it ("used between measurement
    batches"); the engine historically never did it, so per-batch
    counters would have been cumulative had they been exposed."""

    def test_batch_stats_are_independent_not_cumulative(self):
        desc = tiny_description()
        result = simulate(
            desc, UniformPointWorkload(), buffer_size=1,
            n_batches=4, batch_size=500,
        )
        assert len(result.batch_stats) == 4
        requests = [s.requests for s in result.batch_stats]
        # Cumulative counters would grow ~linearly across batches;
        # independent ones stay near one batch's worth of requests.
        assert max(requests) < 2 * min(requests)
        assert max(requests) <= 2 * 500  # <= accesses of a single batch

    def test_batch_stats_agree_with_estimates(self):
        desc = tiny_description()
        n_batches, batch_size = 3, 400
        result = simulate(
            desc, UniformPointWorkload(), buffer_size=1,
            n_batches=n_batches, batch_size=batch_size,
        )
        for stats, miss_mean, access_mean in zip(
            result.batch_stats,
            result.disk_accesses.batch_values,
            result.node_accesses.batch_values,
        ):
            assert stats.misses == miss_mean * batch_size
            assert stats.requests == access_mean * batch_size
            # hits + misses account for every request, per batch
            assert stats.hits + stats.misses == stats.requests

    def test_warmup_excluded_from_batch_stats(self):
        desc = tiny_description()
        result = simulate(
            desc, UniformPointWorkload(), buffer_size=3,
            n_batches=2, batch_size=100,
        )
        assert result.warmup_queries > 0
        total_requests = sum(s.requests for s in result.batch_stats)
        # 200 measured queries touch at most 2 nodes each; warm-up
        # leakage would push the total far above that.
        assert total_requests <= 2 * 200


class TestStatisticalAgreement:
    def test_region_queries_touch_more_nodes(self, rng):
        desc = pack_description(random_rects(rng, 500), 10, "hs")
        point = simulate(
            desc, UniformPointWorkload(), 10, n_batches=3, batch_size=1000
        )
        region = simulate(
            desc, UniformRegionWorkload((0.2, 0.2)), 10,
            n_batches=3, batch_size=1000,
        )
        assert region.node_accesses.mean > point.node_accesses.mean

    def test_node_accesses_match_model_expectation(self, rng):
        from repro.model import expected_node_accesses

        desc = pack_description(random_rects(rng, 800), 10, "hs")
        w = UniformRegionWorkload((0.1, 0.1))
        result = simulate(desc, w, 5, n_batches=10, batch_size=2000)
        expected = expected_node_accesses(desc, w)
        assert result.node_accesses.mean == pytest.approx(expected, rel=0.05)

    def test_data_driven_workload_simulates(self, rng):
        data = random_rects(rng, 500, max_side=0.05)
        desc = pack_description(data, 10, "hs")
        w = DataDrivenWorkload.from_rects(data)
        result = simulate(desc, w, 20, n_batches=3, batch_size=1000)
        assert result.disk_accesses.mean >= 0
        assert result.node_accesses.mean >= 1.0  # root always hit

    @pytest.mark.parametrize("policy", ["lru", "fifo", "clock", "random"])
    def test_all_policies_run(self, rng, policy):
        desc = pack_description(random_rects(rng, 300), 10, "hs")
        result = simulate(
            desc, UniformPointWorkload(), 15,
            n_batches=2, batch_size=300, policy=policy,
        )
        assert 0 <= result.disk_accesses.mean <= result.node_accesses.mean


class TestStabberWorkHint:
    """``simulate`` hints the stabber with its total probe budget.

    A fig6-sized run probes a few hundred nodes millions of times —
    the grid index wins even though the tree is far below the
    rect-count threshold.  The hint is speed-only: backends are
    bit-exact, so which one is picked never changes results.
    """

    def _backend(self, workload=None, **kwargs):
        from repro.obs import Tracer, use_tracer

        tracer = Tracer()
        previous = use_tracer(tracer)
        try:
            simulate(
                tiny_description(),
                workload or UniformPointWorkload(),
                buffer_size=3,
                n_batches=2,
                batch_size=100,
                **kwargs,
            )
        finally:
            use_tracer(previous)
        (root,) = [s for s in tracer.finished() if s.name == "simulate"]
        return root.attrs["backend"]

    def test_large_probe_budget_promotes_grid(self):
        # 3 nodes x a 2M-query budget crosses _DENSE_MAX_WORK; the
        # warm-up still ends after 3 misses, so the run stays fast.
        assert self._backend(warmup_cap=2_000_000) == "GridStabbingIndex"

    def test_small_budget_stays_dense(self):
        assert self._backend(warmup_queries=200) == "DenseStabber"

    def test_hint_reaches_mixed_components(self):
        from repro.queries import MixedWorkload

        mixed = MixedWorkload(
            [
                (0.5, UniformPointWorkload()),
                (0.5, UniformRegionWorkload((0.1, 0.1))),
            ]
        )
        assert (
            self._backend(mixed, warmup_cap=2_000_000) == "GridStabbingIndex"
        )


class TestMixedPageStream:
    """A mixture chunk's CSR page stream holds each query's row in
    query order — the stream a row-by-row loop over the components'
    stab results requests, drawn from the generator in the same order."""

    def test_matches_row_by_row_layout(self):
        from repro.queries import MixedWorkload
        from repro.simulation.engine import _mixed_pages, build_stabbers

        desc = pack_description(
            random_rects(np.random.default_rng(3), 300), 8, "hs"
        )
        mixed = MixedWorkload(
            [
                (0.6, UniformPointWorkload()),
                (0.3, UniformRegionWorkload((0.05, 0.05))),
                (0.1, UniformRegionWorkload((0.2, 0.1))),
            ]
        )
        stabbers, _ = build_stabbers(desc, mixed)
        for count in (1, 7, 500):
            drawn = np.random.default_rng(count)
            ids, indptr = _mixed_pages(stabbers, mixed, drawn, count)
            rng = np.random.default_rng(count)
            assignments = mixed.sample_assignments(count, rng)
            rows = [[] for _ in range(count)]
            for c, component in enumerate(mixed.workloads):
                idx = np.nonzero(assignments == c)[0]
                if idx.size == 0:
                    continue
                sparse = stabbers[c].stab(component.sample_points(idx.size, rng))
                for j, q in enumerate(idx):
                    rows[q] = sparse.row(j).tolist()
            assert [
                ids[indptr[q] : indptr[q + 1]].tolist() for q in range(count)
            ] == rows
            assert drawn.bit_generator.state == rng.bit_generator.state
