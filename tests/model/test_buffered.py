"""Tests for the buffer model (§3.3): D(N), N*, and ED."""

import math

import numpy as np
import pytest

from repro.buffer import PinningError
from repro.model import (
    buffer_model,
    buffer_model_sweep,
    expected_distinct_nodes,
    queries_to_fill_buffer,
    steady_state_disk_accesses,
)
from repro.packing import pack_description
from repro.queries import (
    MixedWorkload,
    UniformPointWorkload,
    UniformRegionWorkload,
)
from tests.conftest import random_rects


class TestExpectedDistinctNodes:
    def test_zero_queries(self):
        assert expected_distinct_nodes(np.array([0.5, 0.5]), 0) == 0.0

    def test_one_query_equals_sum_of_probs(self):
        probs = np.array([0.1, 0.3, 0.0, 1.0])
        assert expected_distinct_nodes(probs, 1) == pytest.approx(probs.sum())

    def test_matches_formula(self):
        probs = np.array([0.2, 0.5])
        n = 7
        expected = (1 - 0.8**7) + (1 - 0.5**7)
        assert expected_distinct_nodes(probs, n) == pytest.approx(expected)

    def test_monotone_in_n(self, rng):
        probs = rng.random(50) * 0.3
        values = [expected_distinct_nodes(probs, n) for n in (1, 2, 5, 10, 100, 10000)]
        assert values == sorted(values)

    def test_limit_is_reachable_count(self, rng):
        probs = np.array([0.4, 0.0, 0.1, 0.0, 1.0])
        assert expected_distinct_nodes(probs, 10**9) == pytest.approx(3.0)

    def test_probability_one_node_counts_immediately(self):
        assert expected_distinct_nodes(np.array([1.0]), 1) == pytest.approx(1.0)

    def test_tiny_probabilities_are_stable(self):
        probs = np.full(1000, 1e-12)
        d = expected_distinct_nodes(probs, 10**6)
        assert d == pytest.approx(1000 * (1 - math.exp(10**6 * math.log1p(-1e-12))))
        assert 0 < d < 1

    def test_negative_n_rejected(self):
        with pytest.raises(ValueError):
            expected_distinct_nodes(np.array([0.5]), -1)


class TestQueriesToFillBuffer:
    def test_definition_smallest_n(self):
        probs = np.array([0.5, 0.5, 0.5, 0.5])
        n_star = queries_to_fill_buffer(probs, 3)
        assert expected_distinct_nodes(probs, n_star) >= 3
        assert expected_distinct_nodes(probs, n_star - 1) < 3

    def test_fills_first_query_when_footprint_large(self):
        probs = np.array([0.9] * 10)
        assert queries_to_fill_buffer(probs, 5) == 1

    def test_none_when_too_few_reachable_nodes(self):
        probs = np.array([0.5, 0.0, 0.0])
        assert queries_to_fill_buffer(probs, 2) is None

    def test_buffer_pages_validated(self):
        with pytest.raises(ValueError):
            queries_to_fill_buffer(np.array([0.5]), 0)

    def test_bigger_buffer_takes_longer_to_fill(self, rng):
        probs = rng.random(200) * 0.2
        fills = [queries_to_fill_buffer(probs, b) for b in (10, 50, 100, 150)]
        assert all(f is not None for f in fills)
        assert fills == sorted(fills)


class TestFillBufferEdgeCases:
    """The corners of N*: p = 1 nodes, unfillable buffers, the search cap."""

    def test_probability_one_nodes_fill_on_first_query(self):
        # Every query touches every node, so D(1) == buffer_pages exactly.
        assert queries_to_fill_buffer(np.ones(4), 4) == 1

    def test_probability_one_node_with_cold_tail(self):
        # The hot node is resident after one query; the cold tail
        # determines how long the rest of the buffer takes to fill.
        probs = np.array([1.0, 1e-3, 1e-3])
        n_star = queries_to_fill_buffer(probs, 2)
        assert n_star is not None
        assert expected_distinct_nodes(probs, n_star) >= 2
        assert expected_distinct_nodes(probs, n_star - 1) < 2

    def test_zero_queries_touch_nothing_even_at_probability_one(self):
        assert expected_distinct_nodes(np.array([1.0, 1.0]), 0) == 0.0

    def test_search_cap_returns_none(self):
        # D(N) -> 1 requires N ~ ln(2)/1e-19 ~ 6.9e18 queries, beyond
        # the 2**62 search cap: the model treats this buffer as never
        # filling rather than binary-searching astronomical N.
        assert queries_to_fill_buffer(np.array([1e-19, 1e-19]), 1) is None

    def test_just_under_the_cap_still_resolves(self):
        # Same shape but p = 1e-18: N* ~ 6.9e17 < 2**62, so the search
        # must complete and satisfy the defining inequality.
        probs = np.array([1e-18, 1e-18])
        n_star = queries_to_fill_buffer(probs, 1)
        assert n_star is not None
        assert expected_distinct_nodes(probs, n_star) >= 1.0
        assert expected_distinct_nodes(probs, n_star - 1) < 1.0

    def test_all_zero_probabilities_never_fill(self):
        assert queries_to_fill_buffer(np.zeros(8), 1) is None


class TestSteadyState:
    def test_zero_warmup_means_all_misses(self):
        probs = np.array([0.3, 0.4])
        assert steady_state_disk_accesses(probs, 0) == pytest.approx(0.7)

    def test_decreases_with_n_star(self, rng):
        probs = rng.random(100) * 0.5
        values = [
            steady_state_disk_accesses(probs, n) for n in (0, 1, 10, 100, 10**6)
        ]
        assert values == sorted(values, reverse=True)

    def test_hot_node_never_needs_disk(self):
        # A node accessed by every query is always resident.
        assert steady_state_disk_accesses(np.array([1.0]), 5) == 0.0

    def test_negative_n_rejected(self):
        with pytest.raises(ValueError):
            steady_state_disk_accesses(np.array([0.5]), -1)


@pytest.fixture
def desc(rng):
    return pack_description(random_rects(rng, 2000, max_side=0.05), 10, "hs")


class TestBufferModel:
    def test_bounded_by_bufferless_cost(self, desc):
        w = UniformPointWorkload()
        for b in (1, 10, 50, 100):
            r = buffer_model(desc, w, b)
            assert 0.0 <= r.disk_accesses <= r.node_accesses + 1e-12

    def test_monotone_in_buffer_size(self, desc):
        w = UniformRegionWorkload((0.05, 0.05))
        costs = [buffer_model(desc, w, b).disk_accesses for b in (1, 5, 20, 80, 160)]
        assert costs == sorted(costs, reverse=True)

    def test_zero_when_buffer_holds_tree(self, desc):
        w = UniformPointWorkload()
        r = buffer_model(desc, w, desc.total_nodes)
        assert r.disk_accesses == 0.0
        assert r.n_star is None

    def test_hit_ratio_consistency(self, desc):
        w = UniformPointWorkload()
        r = buffer_model(desc, w, 50)
        assert r.hit_ratio == pytest.approx(1 - r.disk_accesses / r.node_accesses)
        assert 0.0 <= r.hit_ratio <= 1.0

    def test_result_metadata(self, desc):
        r = buffer_model(desc, UniformPointWorkload(), 30, pinned_levels=1)
        assert r.buffer_size == 30
        assert r.pinned_levels == 1
        assert r.pinned_pages == 1
        assert r.effective_buffer == 29
        assert r.total_nodes == desc.total_nodes

    def test_pinning_all_levels(self, desc):
        w = UniformPointWorkload()
        r = buffer_model(desc, w, desc.total_nodes, pinned_levels=desc.height)
        assert r.disk_accesses == 0.0
        assert r.pinned_pages == desc.total_nodes

    def test_pinning_beyond_buffer_raises(self, desc):
        leaf_count = desc.node_counts[-1]
        with pytest.raises(PinningError):
            buffer_model(
                desc, UniformPointWorkload(), leaf_count // 2,
                pinned_levels=desc.height,
            )

    def test_pinned_levels_validated(self, desc):
        with pytest.raises(ValueError):
            buffer_model(desc, UniformPointWorkload(), 10, pinned_levels=-1)
        with pytest.raises(ValueError):
            buffer_model(
                desc, UniformPointWorkload(), 10**6,
                pinned_levels=desc.height + 1,
            )

    def test_buffer_size_validated(self, desc):
        with pytest.raises(ValueError):
            buffer_model(desc, UniformPointWorkload(), 0)

    def test_effective_zero_buffer_pays_every_unpinned_access(self, desc):
        # Buffer exactly equals the pinned pages: every unpinned access
        # is a disk access.
        w = UniformPointWorkload()
        pinned_pages = desc.pages_in_top_levels(2)
        r = buffer_model(desc, w, pinned_pages, pinned_levels=2)
        probs = w.access_probabilities(desc.all_rects)
        unpinned = probs[desc.level_offsets[2] :]
        assert r.disk_accesses == pytest.approx(unpinned.sum())

    def test_sweep_matches_individual_calls(self, desc):
        w = UniformRegionWorkload((0.05, 0.05))
        sizes = (1, 5, 20, 80, desc.total_nodes)
        swept = buffer_model_sweep(desc, w, sizes)
        for b, result in zip(sizes, swept):
            single = buffer_model(desc, w, b)
            assert result.disk_accesses == single.disk_accesses
            assert result.n_star == single.n_star
            assert result.buffer_size == b

    def test_sweep_with_pinning(self, desc):
        w = UniformPointWorkload()
        pinned = desc.pages_in_top_levels(2)
        sizes = (pinned, pinned + 10, pinned + 100)
        swept = buffer_model_sweep(desc, w, sizes, pinned_levels=2)
        for b, result in zip(sizes, swept):
            single = buffer_model(desc, w, b, pinned_levels=2)
            assert result.disk_accesses == single.disk_accesses

    def test_sweep_pinning_infeasible_raises(self, desc):
        w = UniformPointWorkload()
        with pytest.raises(PinningError):
            buffer_model_sweep(desc, w, (desc.total_nodes, 1), pinned_levels=2)

    def test_sweep_validates_sizes(self, desc):
        with pytest.raises(ValueError):
            buffer_model_sweep(desc, UniformPointWorkload(), (10, 0))

    def test_pinning_never_hurts(self, desc):
        """The paper: 'pinning never hurts performance'."""
        w = UniformPointWorkload()
        for b in (50, 100, 200):
            base = buffer_model(desc, w, b).disk_accesses
            for levels in range(1, desc.height + 1):
                if desc.pages_in_top_levels(levels) > b:
                    break
                pinned = buffer_model(desc, w, b, pinned_levels=levels).disk_accesses
                assert pinned <= base + 1e-9


class TestLowerBoundHint:
    """``lower_bound`` seeds the N* bracket without changing answers."""

    def test_valid_hint_matches_unhinted(self, rng):
        probs = rng.random(200) * 0.05
        for pages in (5, 20, 80):
            n_star = queries_to_fill_buffer(probs, pages)
            for hint in (0, 1, n_star // 2, max(0, n_star - 1)):
                assert (
                    queries_to_fill_buffer(probs, pages, lower_bound=hint)
                    == n_star
                )

    def test_stale_hint_is_discarded(self, rng):
        # A hint beyond N* violates the bracket invariant; the search
        # must detect it and restart rather than return a wrong N*.
        probs = rng.random(200) * 0.05
        n_star = queries_to_fill_buffer(probs, 20)
        assert n_star is not None
        assert (
            queries_to_fill_buffer(probs, 20, lower_bound=n_star + 1000)
            == n_star
        )

    def test_negative_hint_rejected(self):
        with pytest.raises(ValueError):
            queries_to_fill_buffer(np.array([0.5]), 1, lower_bound=-1)


class TestSweepBracketReuse:
    """The sweep walks sizes in ascending order reusing the previous N*."""

    def test_unsorted_sizes_match_per_size_model(self, desc):
        w = UniformRegionWorkload((0.05, 0.05))
        sizes = (200, 10, 50, 400, 10, 25)
        swept = buffer_model_sweep(desc, w, sizes)
        for size, result in zip(sizes, swept):
            single = buffer_model(desc, w, size)
            assert result.buffer_size == size
            assert result.n_star == single.n_star
            assert result.disk_accesses == pytest.approx(single.disk_accesses)

    def test_n_star_monotone_in_buffer_size(self, desc):
        w = UniformPointWorkload()
        sizes = tuple(range(10, 200, 17))
        swept = buffer_model_sweep(desc, w, sizes)
        n_stars = [r.n_star for r in swept if r.n_star is not None]
        assert n_stars == sorted(n_stars)

    def test_never_fills_short_circuit(self, rng):
        # Once one size never fills, all larger sizes must also report
        # never-fills with zero steady-state disk accesses.
        data = random_rects(rng, 256)
        desc = pack_description(data, capacity=16, ordering="hs")
        w = UniformRegionWorkload((0.01, 0.01))
        reachable = int(
            np.count_nonzero(w.access_probabilities(desc.all_rects) > 0.0)
        )
        sizes = (reachable // 2, reachable, reachable + 5, desc.total_nodes)
        swept = buffer_model_sweep(desc, w, sizes)
        for size, result in zip(sizes, swept):
            single = buffer_model(desc, w, size)
            assert result.n_star == single.n_star
            assert result.disk_accesses == pytest.approx(single.disk_accesses)
        assert swept[-1].n_star is None
        assert swept[-1].disk_accesses == 0.0


class _FixedProbabilities:
    """A stub workload whose access probabilities are given outright."""

    def __init__(self, probs):
        self.probs = probs

    def access_probabilities(self, rects):
        return self.probs


BAD_PROBABILITIES = pytest.mark.parametrize(
    "bad", [1.5, -0.2, math.nan], ids=["above-one", "negative", "nan"]
)


class TestProbabilityRange:
    @BAD_PROBABILITIES
    def test_buffer_model_rejects_workload(self, desc, bad):
        probs = np.full(desc.total_nodes, 0.01)
        probs[3] = bad
        with pytest.raises(ValueError, match=r"index 3 is .*outside \[0, 1\]"):
            buffer_model(desc, _FixedProbabilities(probs), 10)

    @BAD_PROBABILITIES
    @pytest.mark.parametrize(
        "helper",
        [
            lambda p: expected_distinct_nodes(p, 5),
            lambda p: queries_to_fill_buffer(p, 2),
            lambda p: steady_state_disk_accesses(p, 5),
        ],
        ids=["expected_distinct_nodes", "queries_to_fill_buffer",
             "steady_state_disk_accesses"],
    )
    def test_helpers_reject(self, helper, bad):
        with pytest.raises(ValueError, match="index 1 is"):
            helper(np.array([0.5, bad, 0.25]))

    def test_closed_interval_accepted(self):
        probs = np.array([0.0, 1.0, 0.5])
        assert expected_distinct_nodes(probs, 3) == pytest.approx(1.875)
        assert steady_state_disk_accesses(probs, 0) == pytest.approx(1.5)

    def test_mixture_rounding_stays_in_range(self, desc):
        # Weights 6:23:1 normalise to fractions whose float sum is
        # 1 + 2^-52; a node every component always touches must still
        # get probability 1, not a value the model would reject.
        region = UniformRegionWorkload((0.05, 0.05))
        mixed = MixedWorkload([(6, region), (23, region), (1, region)])
        probs = mixed.access_probabilities(desc.all_rects)
        assert probs[0] == 1.0
        assert buffer_model(desc, mixed, 10).disk_accesses > 0.0
