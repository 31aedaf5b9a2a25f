"""The shared-state sanitizer: seeded races must be caught, real
concurrent workloads must stay legal, uninstall must restore.

The seeded-race test is the regression the sanitizer exists for: a
cross-thread ``stats.hits += 1`` that is *silent* without the
sanitizer and raises :class:`SanitizerError` with it.

The whole suite also runs under ``REPRO_SANITIZE=1`` in CI, where the
sanitizer is installed before collection; tests that need the plain
(unpatched) world skip there, and tests that uninstall put the
environment-requested patches back before returning.
"""

from __future__ import annotations

import os
import subprocess
import sys
import threading

import pytest

import numpy as np

from repro.analysis import sanitize
from repro.analysis.sanitize import (
    SanitizerError,
    adopt,
    guard,
)
from repro.buffer.base import BufferStats
from repro.buffer.lru import LRUBuffer
from repro.obs.spans import Tracer

from .conftest import REPO_ROOT

_ENV_INSTALLED = sanitize.is_installed()
needs_plain_world = pytest.mark.skipif(
    _ENV_INSTALLED,
    reason="sanitizer pre-installed via REPRO_SANITIZE",
)


@pytest.fixture()
def sanitizer():
    """Install the sanitizer for one test, restoring afterwards.

    Teardown must run even when the test body raises -- a leaked
    patch would silently alter every later test in the session.
    """
    already = sanitize.is_installed()
    sanitize.install()
    try:
        yield sanitize
    finally:
        if not already:
            sanitize.uninstall()


def _mutate_in_thread(fn):
    """Run ``fn`` in a fresh thread; return the exception it raised."""
    caught: list[BaseException] = []

    def runner():
        try:
            fn()
        except BaseException as exc:  # noqa: BLE001 - relayed to the test
            caught.append(exc)

    thread = threading.Thread(target=runner)
    thread.start()
    thread.join()
    return caught[0] if caught else None


class TestSeededRace:
    @needs_plain_world
    def test_cross_thread_write_is_silent_without_sanitizer(self):
        assert not sanitize.is_installed()
        stats = BufferStats()

        def race():
            stats.hits += 1

        assert _mutate_in_thread(race) is None
        assert stats.hits == 1

    def test_cross_thread_write_raises_with_sanitizer(self, sanitizer):
        stats = BufferStats()

        def race():
            stats.hits += 1

        error = _mutate_in_thread(race)
        assert isinstance(error, SanitizerError)
        assert "hits" in str(error)
        assert stats.hits == 0

    def test_same_thread_writes_stay_legal(self, sanitizer):
        stats = BufferStats()
        stats.hits += 1
        assert stats.hits == 1

    def test_pool_request_checks_affinity(self, sanitizer):
        pool = LRUBuffer(capacity=4)
        pool.request(1)  # owning thread: fine
        error = _mutate_in_thread(lambda: pool.request(2))
        assert isinstance(error, SanitizerError)
        assert "request" in str(error)

    def test_error_names_both_threads(self, sanitizer):
        stats = BufferStats()
        owner = threading.get_ident()
        error = _mutate_in_thread(lambda: stats.__setattr__("hits", 9))
        assert str(owner) in str(error)


class TestAdopt:
    def test_adopt_transfers_ownership(self, sanitizer):
        stats = BufferStats()

        def handoff():
            adopt(stats)
            stats.hits += 1

        assert _mutate_in_thread(handoff) is None
        assert stats.hits == 1

    def test_original_owner_loses_access_after_adopt(self, sanitizer):
        stats = BufferStats()
        assert _mutate_in_thread(lambda: adopt(stats)) is None
        with pytest.raises(SanitizerError):
            stats.hits += 1


class TestTracerDiscipline:
    def test_multithreaded_tracing_stays_legal(self, sanitizer):
        # Spans genuinely finish on many threads; the tracer locks
        # internally, so this must NOT trip the sanitizer.
        tracer = Tracer()
        errors = []

        def work():
            try:
                with tracer.span("w"):
                    pass
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [threading.Thread(target=work) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []
        assert len(tracer.finished()) == 4

    def test_unguarded_container_mutation_raises(self, sanitizer):
        tracer = Tracer()
        with pytest.raises(SanitizerError, match="_finished"):
            tracer._finished.append(object())

    def test_guarded_mutation_is_allowed(self, sanitizer):
        tracer = Tracer()
        with tracer._lock:
            tracer._finished.append(object())
        assert len(tracer._finished) == 1


class TestShardLockGuards:
    """The sharded pool's shards are lock-guarded, not thread-affine."""

    def test_concurrent_requests_stay_legal(self, sanitizer):
        from repro.buffer import ShardedBufferPool

        pool = ShardedBufferPool(64, 8)
        errors: list[BaseException] = []

        def work(seed: int) -> None:
            rng = np.random.default_rng(seed)
            try:
                for page in rng.integers(0, 500, 2000):
                    pool.request(int(page))
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [
            threading.Thread(target=work, args=(s,)) for s in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []
        agg = pool.aggregate_stats()
        assert agg.requests == 8000
        assert agg.hits + agg.misses == agg.requests

    def test_unguarded_shard_request_raises(self, sanitizer):
        from repro.buffer import ShardedBufferPool

        pool = ShardedBufferPool(16, 2)
        # Same thread, no lock: affinity would wave this through, the
        # guard does not — the lock is the synchronization statement.
        with pytest.raises(SanitizerError, match="guard"):
            pool._pools[0].request(123)

    @pytest.mark.parametrize("policy", ["lru", "fifo", "clock", "random"])
    def test_unguarded_shard_request_batch_raises(self, sanitizer, policy):
        from repro.buffer import ShardedBufferPool

        pool = ShardedBufferPool(16, 2, policy=policy, pinned=[0])
        shard = pool._pools[0]
        # Every policy's replacement loop runs inside the pool's one
        # write path, whose guard therefore covers all four; a batch of
        # pinned pages reaches no loop but still goes through it.
        with pytest.raises(SanitizerError, match="_request_unpinned"):
            shard.request_batch([2, 4, 6])
        with pytest.raises(SanitizerError, match="_request_unpinned"):
            shard.request_batch([0, 0])
        assert shard.stats.requests == 0
        with pool._locks[0]:
            assert shard.request_batch([2, 4, 0, 2]) == [0, 1]
        assert shard.stats.as_dict() == {
            "requests": 4, "hits": 2, "misses": 2, "evictions": 0,
        }

    def test_unguarded_shard_stats_write_raises(self, sanitizer):
        from repro.buffer import ShardedBufferPool

        pool = ShardedBufferPool(16, 2)
        with pytest.raises(SanitizerError, match="guard"):
            pool._pools[1].stats.hits += 1

    def test_holding_the_shard_lock_makes_it_legal(self, sanitizer):
        from repro.buffer import ShardedBufferPool

        pool = ShardedBufferPool(16, 2)
        with pool._locks[0]:
            pool._pools[0].request(123)
        assert pool.aggregate_stats().requests == 1

    def test_cross_thread_guarded_write_is_legal(self, sanitizer):
        from repro.buffer import ShardedBufferPool

        pool = ShardedBufferPool(16, 2)

        def guarded():
            with pool._locks[0]:
                pool._pools[0].request(7)

        assert _mutate_in_thread(guarded) is None
        assert pool.aggregate_stats().requests == 1

    def test_guard_converts_affinity_to_lock_discipline(self, sanitizer):
        # guard() is the generic registration the sharded-pool patch
        # uses: after it, the lock — not the creating thread — decides.
        stats = BufferStats()
        lock = threading.Lock()
        guard(stats, lock)
        with pytest.raises(SanitizerError, match="guard"):
            stats.hits += 1  # same thread, lock not held
        with lock:
            stats.hits += 1
        assert stats.hits == 1

    def test_adopt_clears_a_guard(self, sanitizer):
        stats = BufferStats()
        guard(stats, threading.Lock())
        adopt(stats)
        stats.hits += 1  # affinity again: owner thread, no lock needed
        assert stats.hits == 1

    def test_plain_pools_keep_affinity_semantics(self, sanitizer):
        # guard() registration is per-shard-instance: an unrelated
        # plain pool still gets the thread-affinity check.
        pool = LRUBuffer(capacity=4)
        pool.request(1)
        error = _mutate_in_thread(lambda: pool.request(2))
        assert isinstance(error, SanitizerError)

    def test_seeded_concurrent_soak_reconciles(self, sanitizer):
        # The acceptance soak: seeded concurrent traffic through the
        # full serving stack stays sanitizer-clean and the shard sums
        # reconcile with the aggregate.
        from repro.packing import pack_description
        from repro.queries import UniformPointWorkload
        from repro.serving import LoadGenerator, QueryService
        from tests.conftest import random_rects

        rects = random_rects(np.random.default_rng(17), 400, max_side=0.04)
        desc = pack_description(rects, capacity=16, ordering="hs")
        service = QueryService(
            desc, UniformPointWorkload(), 16, shards=4, max_batch=64,
        )
        generator = LoadGenerator(
            service, rate_qps=50_000, n_queries=600, seed=2
        )
        service.start(workers=2)
        try:
            report = generator.run()
        finally:
            service.stop()
        assert report.queries == 600
        agg = report.buffer_aggregate
        for field in agg:
            assert agg[field] == sum(
                s[field] for s in report.buffer_per_shard
            )


class TestTelemetryDiscipline:
    """The telemetry sink's window state is lock-guarded."""

    def make_sink(self, writer=None):
        from repro.obs.telemetry import TelemetrySink
        from repro.packing import pack_description
        from repro.queries import UniformPointWorkload
        from repro.serving import QueryService
        from tests.conftest import random_rects

        rects = random_rects(np.random.default_rng(23), 400, max_side=0.04)
        desc = pack_description(rects, capacity=16, ordering="hs")
        service = QueryService(
            desc, UniformPointWorkload(), 16, shards=2, max_batch=64
        )
        return service, TelemetrySink(service, writer=writer)

    def test_unguarded_window_mutation_raises(self, sanitizer):
        _, sink = self.make_sink()
        with pytest.raises(SanitizerError, match="_window_deltas"):
            sink._window_deltas.append((1, 1, 0))

    def test_guarded_mutation_is_allowed(self, sanitizer):
        _, sink = self.make_sink()
        with sink._lock:
            sink._window_deltas.append((1, 1, 0))
        assert len(sink._window_deltas) == 1

    def test_tick_path_stays_legal(self, sanitizer):
        service, sink = self.make_sink()
        rng = np.random.default_rng(2)
        for _ in range(3):
            service.process(
                service.workload.sample_points(100, rng)
            )
            tick = sink.tick()
        assert tick["seq"] == 2
        assert (
            tick["cumulative"]["aggregate"]["requests"]
            == service.pool.aggregate_stats().requests
        )

    def test_concurrent_serving_with_ticker_stays_legal(self, sanitizer):
        from repro.serving import LoadGenerator

        service, sink = self.make_sink()
        service.telemetry = sink
        generator = LoadGenerator(
            service, rate_qps=50_000, n_queries=400, seed=3
        )
        sink.interval_s = 0.005
        service.start(workers=2)
        sink.start()
        try:
            report = generator.run()
        finally:
            sink.close()
            service.stop()
        assert report.queries == 400
        pointer = sink.pointer()
        assert pointer["final"]["aggregate"] == (
            service.pool.aggregate_stats().as_dict()
        )


class TestInstallLifecycle:
    def test_install_is_idempotent(self, sanitizer):
        sanitize.install()  # second call must not double-wrap
        stats = BufferStats()
        stats.hits = 3
        assert stats.hits == 3

    @needs_plain_world
    def test_uninstall_restores_plain_behavior(self):
        sanitize.install()
        sanitize.uninstall()
        stats = BufferStats()
        assert _mutate_in_thread(lambda: setattr(stats, "hits", 5)) is None
        assert stats.hits == 5

    @needs_plain_world
    def test_uninstall_without_install_is_a_noop(self):
        assert not sanitize.is_installed()
        sanitize.uninstall()
        assert not sanitize.is_installed()

    def test_enabled_by_env(self):
        """``import repro`` installs the sanitizer exactly when asked."""
        code = (
            "import repro\n"
            "from repro.analysis import sanitize\n"
            "print(sanitize.is_installed())"
        )
        path = os.pathsep.join(
            [str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH", "")]
        )
        for value, installed in (("on", True), ("1", True), ("0", False)):
            env = {**os.environ, "REPRO_SANITIZE": value, "PYTHONPATH": path}
            done = subprocess.run(
                [sys.executable, "-c", code],
                env=env,
                capture_output=True,
                text=True,
                timeout=120,
                check=True,
            )
            assert done.stdout.strip() == str(installed), value

    def test_existing_instances_are_covered(self):
        # Patching happens on the class, so objects created *before*
        # install are checked too (they self-adopt on first touch).
        stats = BufferStats()
        sanitize.install()
        try:
            stats.hits += 1  # first touch adopts to this thread
            error = _mutate_in_thread(lambda: setattr(stats, "hits", 0))
            assert isinstance(error, SanitizerError)
        finally:
            if not _ENV_INSTALLED:
                sanitize.uninstall()
