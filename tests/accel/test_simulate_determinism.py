"""End-to-end: ``simulate()`` is backend-independent and deterministic.

The accel layer must be invisible in the results — the same seed must
produce an *identical* :class:`SimulationResult` whether containment
runs on the grid index or the dense matrix, down to per-level and
per-batch buffer counters.
"""

from __future__ import annotations

import pytest

from repro.queries import (
    DataDrivenWorkload,
    MixedWorkload,
    UniformPointWorkload,
    UniformRegionWorkload,
)
from repro.packing import pack_description
from repro.simulation import simulate
from tests.conftest import random_rects


def assert_identical_results(result_a, result_b) -> None:
    assert result_a.disk_accesses == result_b.disk_accesses
    assert result_a.node_accesses == result_b.node_accesses
    assert result_a.warmup_queries == result_b.warmup_queries
    assert result_a.buffer_filled == result_b.buffer_filled
    assert result_a.level_stats == result_b.level_stats
    assert len(result_a.batch_stats) == len(result_b.batch_stats)
    for stats_a, stats_b in zip(result_a.batch_stats, result_b.batch_stats):
        assert stats_a.requests == stats_b.requests
        assert stats_a.hits == stats_b.hits
        assert stats_a.misses == stats_b.misses
        assert stats_a.evictions == stats_b.evictions


def run_both(desc, workload, **kwargs):
    common = dict(
        buffer_size=20, n_batches=3, batch_size=300, level_stats=True, rng=7
    )
    common.update(kwargs)
    grid = simulate(desc, workload, accel="grid", **common)
    dense = simulate(desc, workload, accel="dense", **common)
    return grid, dense


@pytest.fixture
def desc(rng):
    return pack_description(random_rects(rng, 400), capacity=8, ordering="hs")


class TestBackendEquivalence:
    def test_point_workload(self, desc):
        assert_identical_results(*run_both(desc, UniformPointWorkload()))

    def test_region_workload(self, desc):
        workload = UniformRegionWorkload((0.05, 0.05))
        assert_identical_results(*run_both(desc, workload))

    def test_data_driven_workload(self, desc, rng):
        workload = DataDrivenWorkload(rng.random((300, 2)), (0.02, 0.02))
        assert_identical_results(*run_both(desc, workload))

    def test_mixed_workload(self, desc):
        workload = MixedWorkload(
            [
                (0.7, UniformPointWorkload()),
                (0.3, UniformRegionWorkload((0.1, 0.1))),
            ]
        )
        assert_identical_results(*run_both(desc, workload))

    def test_pinned_levels(self, desc):
        grid, dense = run_both(desc, UniformPointWorkload(), pinned_levels=1)
        assert_identical_results(grid, dense)


class TestSeedDeterminism:
    def test_same_seed_same_result(self, desc):
        workload = UniformRegionWorkload((0.05, 0.05))
        first = simulate(
            desc, workload, buffer_size=20,
            n_batches=3, batch_size=300, level_stats=True, rng=7, accel="auto",
        )
        second = simulate(
            desc, workload, buffer_size=20,
            n_batches=3, batch_size=300, level_stats=True, rng=7, accel="auto",
        )
        assert_identical_results(first, second)

    def test_bad_accel_mode_rejected(self, desc):
        with pytest.raises(ValueError):
            simulate(
                desc, UniformPointWorkload(), buffer_size=20,
                n_batches=2, batch_size=100, accel="quantum",
            )
