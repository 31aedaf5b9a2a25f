"""LatencyRecorder: nearest-rank percentiles, histogram, thread safety."""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.obs import LatencyRecorder
from repro.obs.telemetry import _latency_window_us


class TestRecording:
    def test_record_and_count(self):
        recorder = LatencyRecorder()
        recorder.record_ns(1000)
        recorder.record_many_ns(np.array([2000, 3000], dtype=np.int64))
        assert recorder.count == 3
        assert sorted(recorder.samples_ns()) == [1000, 2000, 3000]

    def test_record_many_validates_shape(self):
        recorder = LatencyRecorder()
        with pytest.raises(ValueError):
            recorder.record_many_ns(np.zeros((2, 2), dtype=np.int64))

    def test_empty_batch_is_fine(self):
        recorder = LatencyRecorder()
        recorder.record_many_ns(np.array([], dtype=np.int64))
        assert recorder.count == 0

    def test_reset(self):
        recorder = LatencyRecorder()
        recorder.record_ns(5000)
        recorder.reset()
        assert recorder.count == 0
        assert recorder.samples_ns().size == 0

    def test_concurrent_recording(self):
        recorder = LatencyRecorder()

        def work():
            for value in range(1000):
                recorder.record_ns(value)

        threads = [threading.Thread(target=work) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert recorder.count == 4000


class TestSnapshotAndReset:
    """Incremental reads (``samples_since``) and their meeting with
    :meth:`~repro.obs.LatencyRecorder.reset`."""

    def test_empty_snapshot_is_an_empty_array(self):
        recorder = LatencyRecorder()
        taken, _ = recorder.samples_since(None)
        assert taken.size == 0 and taken.dtype == np.int64

    def test_second_snapshot_sees_only_new_samples(self):
        recorder = LatencyRecorder()
        recorder.record_ns(1000)
        first, cursor = recorder.samples_since(None)
        assert first.tolist() == [1000]
        recorder.record_ns(2000)
        second, cursor = recorder.samples_since(cursor)
        assert second.tolist() == [2000]
        assert recorder.samples_since(cursor)[0].size == 0
        assert recorder.count == 2  # reading never removes samples

    def test_drains_everything_and_resets(self):
        recorder = LatencyRecorder()
        recorder.record_many_ns(np.array([3000, 1000, 2000], dtype=np.int64))
        _, cursor = recorder.samples_since(None)
        recorder.record_ns(5000)
        recorder.reset()
        assert recorder.count == 0
        assert recorder.samples_ns().size == 0
        # A read across the reset restarts there: only what came after.
        recorder.record_ns(4000)
        taken, _ = recorder.samples_since(cursor)
        assert taken.tolist() == [4000]

    def test_concurrent_soak_loses_nothing(self):
        # Writers race an incremental reader: every recorded sample
        # must land in exactly one read (or the final remainder) — the
        # chunk list is sliced under the lock, so no chunk may be split,
        # dropped or read twice.  Runs under REPRO_SANITIZE=1 in CI
        # like the rest of the suite.
        recorder = LatencyRecorder()
        n_writers, per_writer = 4, 2000
        collected: list[np.ndarray] = []
        cursor = None
        done = threading.Event()

        def write(seed: int) -> None:
            rng = np.random.default_rng(seed)
            for chunk in np.array_split(
                rng.integers(1, 10**6, per_writer), 50
            ):
                recorder.record_many_ns(chunk.astype(np.int64))

        def read() -> None:
            nonlocal cursor
            while not done.is_set():
                taken, cursor = recorder.samples_since(cursor)
                collected.append(taken)

        writers = [
            threading.Thread(target=write, args=(seed,))
            for seed in range(n_writers)
        ]
        reader = threading.Thread(target=read)
        reader.start()
        for t in writers:
            t.start()
        for t in writers:
            t.join()
        done.set()
        reader.join()
        collected.append(recorder.samples_since(cursor)[0])
        everything = np.concatenate(collected)
        assert everything.size == n_writers * per_writer
        assert sorted(everything.tolist()) == sorted(
            recorder.samples_ns().tolist()
        )


class TestPercentiles:
    def test_nearest_rank_exact(self):
        recorder = LatencyRecorder()
        # 1..100 microseconds: nearest-rank pXX is exactly XX µs.
        recorder.record_many_ns(
            (np.arange(1, 101, dtype=np.int64)) * 1000
        )
        assert recorder.percentile_us(50) == 50.0
        assert recorder.percentile_us(95) == 95.0
        assert recorder.percentile_us(99) == 99.0
        assert recorder.percentile_us(100) == 100.0

    def test_summary_and_telemetry_window_agree(self):
        samples = np.random.default_rng(7).integers(1, 10**7, 997)
        recorder = LatencyRecorder()
        recorder.record_many_ns(samples)
        summary = recorder.summary_us()
        window = _latency_window_us(samples)
        for key in ("count", "p50", "p95", "p99", "max"):
            assert window[key] == summary[key]
        assert summary["p99"] == recorder.percentile_us(99)

    def test_single_sample(self):
        recorder = LatencyRecorder()
        recorder.record_ns(42_000)
        for q in (1, 50, 99):
            assert recorder.percentile_us(q) == 42.0

    def test_empty_raises(self):
        recorder = LatencyRecorder()
        with pytest.raises(ValueError):
            recorder.percentile_us(50)
        with pytest.raises(ValueError):
            recorder.summary_us()

    def test_summary_ordered(self):
        rng = np.random.default_rng(3)
        recorder = LatencyRecorder()
        recorder.record_many_ns(rng.integers(1, 10**7, 500))
        summary = recorder.summary_us()
        assert summary["count"] == 500
        assert summary["p50"] <= summary["p95"] <= summary["p99"]
        assert summary["p99"] <= summary["max"]
        assert 0 < summary["mean"] <= summary["max"]


class TestHistogram:
    def test_counts_sum_to_samples(self):
        rng = np.random.default_rng(7)
        recorder = LatencyRecorder()
        recorder.record_many_ns(rng.integers(100, 10**8, 1000))
        histogram = recorder.histogram_us(n_buckets=16)
        assert len(histogram["bounds_us"]) == 17
        assert sum(histogram["counts"]) == 1000
        bounds = histogram["bounds_us"]
        assert all(a < b for a, b in zip(bounds, bounds[1:]))

    def test_identical_samples(self):
        recorder = LatencyRecorder()
        recorder.record_many_ns(np.full(10, 5000, dtype=np.int64))
        histogram = recorder.histogram_us(n_buckets=4)
        assert sum(histogram["counts"]) == 10

    def test_empty_raises(self):
        recorder = LatencyRecorder()
        with pytest.raises(ValueError):
            recorder.histogram_us()
