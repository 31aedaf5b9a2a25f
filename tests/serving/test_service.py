"""QueryService: validation, K=1 exactness vs simulate(), async admission."""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.experiments.common import get_description
from repro.geometry import GeometryError
from repro.packing import pack_description
from repro.queries import (
    MixedWorkload,
    UniformPointWorkload,
    UniformRegionWorkload,
)
from repro.serving import QueryService
from repro.simulation import simulate
from tests.conftest import random_rects


class _StabFault(Exception):
    """The fault a test stabber raises."""


class _FailingStabber:
    """Wraps a stabber: the first call waits for ``gate``; call
    ``fail_on`` raises :class:`_StabFault`."""

    def __init__(self, inner, fail_on: int) -> None:
        self.inner = inner
        self.fail_on = fail_on
        self.calls = 0
        self.gate = threading.Event()

    def stab(self, points):
        self.calls += 1
        self.gate.wait(timeout=10.0)
        if self.calls == self.fail_on:
            raise _StabFault(f"stab call {self.calls} failed")
        return self.inner.stab(points)


@pytest.fixture(scope="module")
def desc():
    rng = np.random.default_rng(42)
    return pack_description(random_rects(rng, 600), 10, "hs")


class TestValidation:
    def test_mixed_workload_refused(self, desc):
        mixed = MixedWorkload(
            [
                (0.5, UniformPointWorkload()),
                (0.5, UniformRegionWorkload((0.1, 0.1))),
            ]
        )
        with pytest.raises(ValueError, match="MixedWorkload"):
            QueryService(desc, mixed, 10)

    def test_negative_max_batch_rejected(self, desc):
        with pytest.raises(ValueError):
            QueryService(desc, UniformPointWorkload(), 10, max_batch=-1)

    def test_negative_deadline_rejected(self, desc):
        with pytest.raises(ValueError):
            QueryService(desc, UniformPointWorkload(), 10, max_wait_us=-1.0)

    def test_pinned_levels_range(self, desc):
        with pytest.raises(ValueError):
            QueryService(
                desc, UniformPointWorkload(), 10,
                pinned_levels=desc.height + 1,
            )

    def test_points_shape_checked(self, desc):
        service = QueryService(desc, UniformPointWorkload(), 10)
        with pytest.raises(ValueError):
            service.process(np.zeros(4))

    def test_arrival_length_checked(self, desc):
        service = QueryService(desc, UniformPointWorkload(), 10)
        with pytest.raises(ValueError):
            service.process(
                np.zeros((4, 2)), arrivals_ns=np.zeros(3, dtype=np.int64)
            )


class TestBackend:
    def test_unhinted_service_over_a_tree_gets_the_grid(self, desc):
        # Without an expected_queries hint the rect count alone decides:
        # from 64 node MBRs up the grid beats the dense matrix.
        assert desc.total_nodes >= 64
        service = QueryService(desc, UniformPointWorkload(), 10)
        assert service.backend == "GridStabbingIndex"


class TestKOneExactness:
    """The correctness anchor: K=1 serving == the batch simulator."""

    @pytest.mark.parametrize(
        "workload,pinned_levels",
        [
            (UniformPointWorkload(), 0),
            (UniformPointWorkload(), 1),
            (UniformRegionWorkload((0.05, 0.05)), 0),
        ],
    )
    @pytest.mark.parametrize("max_batch", [0, 4096])
    def test_bit_exact_vs_simulate(
        self, desc, workload, pinned_levels, max_batch
    ):
        n_batches, batch_size = 3, 400
        result = simulate(
            desc, workload, 20, pinned_levels=pinned_levels,
            n_batches=n_batches, batch_size=batch_size, rng=7,
        )
        # Chunk-independence: one draw reproduces the engine's chunked
        # sampling stream exactly.
        total = result.warmup_queries + n_batches * batch_size
        points = workload.sample_points(total, np.random.default_rng(7))

        service = QueryService(
            desc, workload, 20, pinned_levels=pinned_levels,
            max_batch=max_batch,
        )
        served = service.process(points[: result.warmup_queries])
        assert served == result.warmup_queries
        service.pool.reset_stats()
        for b in range(n_batches):
            lo = result.warmup_queries + b * batch_size
            service.process(points[lo : lo + batch_size])
            assert (
                service.aggregate_stats().as_dict()
                == result.batch_stats[b].as_dict()
            )
            service.pool.reset_stats()

    def test_batched_equals_unbatched(self, desc):
        workload = UniformPointWorkload()
        points = workload.sample_points(3000, np.random.default_rng(3))
        batched = QueryService(desc, workload, 15, max_batch=256)
        naive = QueryService(desc, workload, 15, max_batch=0)
        batched.process(points)
        naive.process(points)
        assert (
            batched.aggregate_stats().as_dict()
            == naive.aggregate_stats().as_dict()
        )
        assert naive.batches_served == 3000
        assert batched.batches_served == int(np.ceil(3000 / 256))


class TestSharding:
    @pytest.mark.parametrize("shards", [1, 2, 8])
    def test_shard_sums_reconcile(self, desc, shards):
        workload = UniformPointWorkload()
        points = workload.sample_points(2000, np.random.default_rng(5))
        service = QueryService(desc, workload, 16, shards=shards)
        service.process(points)
        agg = service.aggregate_stats().as_dict()
        per = [s.as_dict() for s in service.pool.shard_stats()]
        assert len(per) == shards
        for field in agg:
            assert agg[field] == sum(p[field] for p in per)
        assert agg["hits"] + agg["misses"] == agg["requests"]


class TestLatency:
    def test_latency_recorded_per_query(self, desc):
        workload = UniformPointWorkload()
        points = workload.sample_points(500, np.random.default_rng(9))
        service = QueryService(desc, workload, 10, max_batch=128)
        arrivals = np.full(500, time.perf_counter_ns(), dtype=np.int64)
        service.process(points, arrivals_ns=arrivals)
        summary = service.latency.summary_us()
        assert summary["count"] == 500
        assert 0 < summary["p50"] <= summary["p95"] <= summary["p99"]
        assert summary["p99"] <= summary["max"]

    def test_no_arrivals_no_latency(self, desc):
        workload = UniformPointWorkload()
        service = QueryService(desc, workload, 10)
        service.process(workload.sample_points(50, np.random.default_rng(1)))
        assert service.latency.count == 0


class TestAsyncAdmission:
    def test_submit_requires_start(self, desc):
        service = QueryService(desc, UniformPointWorkload(), 10)
        with pytest.raises(RuntimeError):
            service.submit(np.array([0.5, 0.5]))

    def test_double_start_rejected(self, desc):
        service = QueryService(desc, UniformPointWorkload(), 10)
        service.start()
        try:
            with pytest.raises(RuntimeError):
                service.start()
        finally:
            service.stop()

    def test_submit_rejects_malformed_point(self, desc):
        # A queued point the stabber cannot take would stop the
        # dispatcher and leave every later drain() waiting forever.
        service = QueryService(desc, UniformPointWorkload(), 10)
        service.start()
        try:
            for point in (np.zeros(3), np.zeros((1, 2)), np.float64(0.5)):
                with pytest.raises(GeometryError):
                    service.submit(point)
            service.submit(np.array([0.5, 0.5]))
            service.drain()
            assert service.queries_served == 1
        finally:
            service.stop()

    def test_submit_drain_stop(self, desc):
        workload = UniformPointWorkload()
        points = workload.sample_points(200, np.random.default_rng(2))
        with QueryService(desc, workload, 10, max_batch=64) as service:
            for point in points:
                service.submit(point)
            service.drain()
            assert service.queries_served == 200
            assert service.batches_served >= 200 // 64
        assert not service.running

    def test_deadline_closes_partial_batch(self, desc):
        # One query, huge max_batch, short deadline: only the deadline
        # can close the batch.
        workload = UniformPointWorkload()
        with QueryService(
            desc, workload, 10, max_batch=4096, max_wait_us=2000.0
        ) as service:
            service.submit(np.array([0.5, 0.5]))
            deadline = time.perf_counter() + 5.0
            while (
                service.queries_served < 1
                and time.perf_counter() < deadline
            ):
                time.sleep(0.005)
            assert service.queries_served == 1

    def test_stop_flushes_queue(self, desc):
        workload = UniformPointWorkload()
        points = workload.sample_points(100, np.random.default_rng(4))
        service = QueryService(
            desc, workload, 10, max_batch=4096, max_wait_us=1e7
        )
        service.start()
        for point in points:
            service.submit(point)
        # Deadline is ~10s away and the batch is far from full — stop()
        # must flush what is queued rather than drop it.
        service.stop()
        assert service.queries_served == 100

    def test_failed_batch_stops_the_service(self):
        # Table 2's probe tree; the stabber fails on its second batch.
        # drain() runs in a daemon thread joined with a timeout, so a
        # dispatcher that dies silently fails the test, not the run.
        table2 = get_description("point", 40_000, 25, "hs")
        workload = UniformPointWorkload()
        points = workload.sample_points(40, np.random.default_rng(8))
        service = QueryService(
            table2, workload, 100, max_batch=8, max_wait_us=1e7
        )
        stabber = _FailingStabber(service._stabber, fail_on=2)
        service._stabber = stabber
        service.start()
        try:
            for point in points:
                service.submit(point)
            stabber.gate.set()  # all 40 queued: let the first batch run
            outcome = {}

            def drain():
                try:
                    service.drain()
                except Exception as exc:
                    outcome["error"] = exc

            waiter = threading.Thread(target=drain, daemon=True)
            waiter.start()
            waiter.join(timeout=10.0)
            assert not waiter.is_alive(), "drain() hung after a failure"
            error = outcome.get("error")
            assert isinstance(error, RuntimeError)
            assert isinstance(error.__cause__, _StabFault)
            assert service.queries_served == 8
            assert service.queue_depth == 24
            with pytest.raises(RuntimeError) as refused:
                service.submit(points[0])
            assert isinstance(refused.value.__cause__, _StabFault)
        finally:
            service.stop()  # joins and returns after a failure
        assert not service.running
        with pytest.raises(RuntimeError):
            service.start()  # a failed service stays stopped

    def test_reset_measurement_keeps_contents(self, desc):
        workload = UniformPointWorkload()
        points = workload.sample_points(500, np.random.default_rng(6))
        service = QueryService(desc, workload, 10)
        service.process(points)
        resident = len(service.pool)
        assert resident > 0
        service.reset_measurement()
        assert service.queries_served == 0
        assert service.batches_served == 0
        assert service.aggregate_stats().requests == 0
        assert service.latency.count == 0
        assert len(service.pool) == resident
