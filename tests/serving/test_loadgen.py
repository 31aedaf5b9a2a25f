"""Load generator: seeded determinism, Zipf keys, end-to-end reports."""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.geometry import GeometryError
from repro.packing import pack_description
from repro.queries import UniformPointWorkload
from repro.serving import LoadGenerator, LoadReport, QueryService, zipfian_weights
from tests.conftest import random_rects


@pytest.fixture(scope="module")
def desc():
    rng = np.random.default_rng(21)
    return pack_description(random_rects(rng, 400), 10, "hs")


def make_service(desc, **kwargs) -> QueryService:
    return QueryService(desc, UniformPointWorkload(), 12, **kwargs)


class TestZipfianWeights:
    def test_sums_to_one(self):
        assert zipfian_weights(100).sum() == pytest.approx(1.0)

    def test_rank_one_is_hottest(self):
        weights = zipfian_weights(50, s=1.2)
        assert np.all(np.diff(weights) < 0)

    def test_zero_exponent_is_uniform(self):
        weights = zipfian_weights(10, s=0.0)
        assert np.allclose(weights, 0.1)

    def test_validation(self):
        with pytest.raises(ValueError):
            zipfian_weights(0)
        with pytest.raises(ValueError):
            zipfian_weights(10, s=-0.5)


class TestValidation:
    def test_rate_must_be_positive(self, desc):
        with pytest.raises(ValueError):
            LoadGenerator(make_service(desc), rate_qps=0, n_queries=10)

    def test_needs_queries(self, desc):
        with pytest.raises(ValueError):
            LoadGenerator(make_service(desc), rate_qps=100, n_queries=0)

    def test_unknown_arrival_process(self, desc):
        with pytest.raises(ValueError, match="arrival"):
            LoadGenerator(
                make_service(desc), rate_qps=100, n_queries=10,
                arrivals="bursty",
            )

    def test_refuses_stopped_service(self, desc):
        generator = LoadGenerator(
            make_service(desc), rate_qps=1000, n_queries=10
        )
        with pytest.raises(RuntimeError):
            generator.run()


class TestDeterminism:
    def test_schedule_reproducible(self, desc):
        service = make_service(desc)
        a = LoadGenerator(service, rate_qps=500, n_queries=100, seed=3)
        b = LoadGenerator(service, rate_qps=500, n_queries=100, seed=3)
        assert np.array_equal(a.schedule_offsets_ns(), b.schedule_offsets_ns())
        c = LoadGenerator(service, rate_qps=500, n_queries=100, seed=4)
        assert not np.array_equal(
            a.schedule_offsets_ns(), c.schedule_offsets_ns()
        )

    def test_uniform_gaps_are_constant(self, desc):
        generator = LoadGenerator(
            make_service(desc), rate_qps=1000, n_queries=50,
            arrivals="uniform",
        )
        gaps = np.diff(generator.schedule_offsets_ns())
        assert np.all(np.abs(gaps - 1e6) <= 1)

    def test_poisson_mean_rate(self, desc):
        generator = LoadGenerator(
            make_service(desc), rate_qps=1000, n_queries=5000, seed=0
        )
        offsets = generator.schedule_offsets_ns()
        mean_gap_s = float(np.diff(offsets).mean()) / 1e9
        assert mean_gap_s == pytest.approx(1e-3, rel=0.1)

    def test_query_points_reproducible(self, desc):
        service = make_service(desc)
        a = LoadGenerator(service, rate_qps=500, n_queries=64, seed=5)
        b = LoadGenerator(service, rate_qps=500, n_queries=64, seed=5)
        assert np.array_equal(a.query_points(), b.query_points())

    def test_zipf_draws_come_from_key_points(self, desc):
        keys = np.random.default_rng(1).random((32, 2))
        generator = LoadGenerator(
            make_service(desc), rate_qps=500, n_queries=200, seed=5,
            key_points=keys,
        )
        points = generator.query_points()
        assert points.shape == (200, 2)
        keyset = {tuple(row) for row in keys}
        assert all(tuple(row) in keyset for row in points)

    def test_zipf_skews_toward_hot_keys(self, desc):
        keys = np.random.default_rng(2).random((100, 2))
        generator = LoadGenerator(
            make_service(desc), rate_qps=500, n_queries=2000, seed=6,
            key_points=keys, zipf_s=1.5,
        )
        points = generator.query_points()
        hottest = np.count_nonzero((points == keys[0]).all(axis=1))
        coldest = np.count_nonzero((points == keys[-1]).all(axis=1))
        assert hottest > coldest


class TestRun:
    def test_end_to_end_report(self, desc):
        service = make_service(desc, max_batch=64, max_wait_us=200.0)
        generator = LoadGenerator(
            service, rate_qps=20_000, n_queries=400, seed=0
        )
        with service:
            report = generator.run()
        assert isinstance(report, LoadReport)
        assert report.queries == 400
        assert report.offered_rate_qps == 20_000
        assert report.throughput_qps > 0
        assert report.batches >= 1
        assert report.shards == 1
        assert report.latency_summary_us["count"] == 400
        hist = report.latency_histogram_us
        assert sum(hist["counts"]) == 400
        assert len(hist["bounds_us"]) == len(hist["counts"]) + 1
        agg = report.buffer_aggregate
        assert agg["hits"] + agg["misses"] == agg["requests"]
        for field in agg:
            assert agg[field] == sum(
                s[field] for s in report.buffer_per_shard
            )

    def test_per_shard_rows_carry_identity_and_capacity(self, desc):
        service = make_service(desc, shards=3)
        generator = LoadGenerator(
            service, rate_qps=50_000, n_queries=300, seed=4
        )
        with service:
            report = generator.run()
        assert report.buffer_capacity == service.pool.capacity
        assert [row["shard_id"] for row in report.buffer_per_shard] == [
            0, 1, 2,
        ]
        capacities = list(service.pool.shard_capacities())
        assert [
            row["capacity"] for row in report.buffer_per_shard
        ] == capacities
        assert sum(capacities) == report.buffer_capacity

    def test_malformed_key_points_raise_instead_of_hanging(self, desc):
        # 3-D keys against a 2-D tree: the first submit must raise, not
        # queue a point whose stab would stop the dispatcher.
        service = make_service(desc)
        generator = LoadGenerator(
            service, rate_qps=10_000, n_queries=50,
            key_points=np.zeros((10, 3)),
        )
        errors: list[Exception] = []

        def play() -> None:
            try:
                generator.run()
            except Exception as exc:
                errors.append(exc)

        service.start()
        try:
            player = threading.Thread(target=play, daemon=True)
            player.start()
            player.join(timeout=10.0)
        finally:
            service.stop()
        assert not player.is_alive(), "the load generator hung"
        assert len(errors) == 1 and isinstance(errors[0], GeometryError)

    def test_run_resets_measurement_window(self, desc):
        service = make_service(desc, max_batch=32)
        warm = UniformPointWorkload().sample_points(
            300, np.random.default_rng(0)
        )
        service.process(warm)  # warm-up traffic, pre-start
        generator = LoadGenerator(
            service, rate_qps=50_000, n_queries=100, seed=1
        )
        with service:
            report = generator.run()
        # the warm-up's 300 queries are not in the measured window
        assert report.queries == 100
        assert report.latency_summary_us["count"] == 100
