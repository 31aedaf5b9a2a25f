"""Per-query latency recording for the serving engine.

The batch simulator measures *work* (disk accesses per query); a
serving engine must also measure *waiting* — how long each query sat
in the admission queue plus how long its micro-batch took.  This
module is the obs-layer home for that measurement: a thread-safe
reservoir of raw per-query latencies with exact (nearest-rank)
percentiles and a log-spaced histogram for the ``repro-metrics``
export.

Two deliberate choices:

* **Raw samples, not streaming sketches.**  The load generator plays
  bounded, seeded runs (10^4–10^5 queries), so keeping every sample
  costs a few hundred KiB and buys exact, deterministic percentiles —
  the same exactness standard the simulator holds itself to.  A
  sketch would trade that away for scale this repo does not need yet.
* **Nearest-rank percentiles** (the ceiling convention): ``p99`` of
  ``n`` sorted samples is element ``ceil(0.99 * n) - 1``.  No
  interpolation, so two runs with identical samples report identical
  percentiles bit-for-bit.

Recording is cheap and lock-guarded (appends of numpy chunks);
summaries sort lazily at read time.
"""

from __future__ import annotations

import math
import threading

import numpy as np

__all__ = ["LatencyRecorder", "nearest_rank_us"]

_NS_PER_US = 1_000.0


def nearest_rank_us(ordered_ns: np.ndarray, q: float) -> float:
    """Nearest-rank percentile ``q`` of sorted nanosecond samples, in us.

    Element ``ceil(q / 100 · n) − 1`` of the ``n`` sorted samples: the
    one percentile convention of every latency summary and telemetry
    tick.
    """
    rank = math.ceil(q / 100.0 * ordered_ns.size)
    return float(ordered_ns[rank - 1]) / _NS_PER_US


class LatencyRecorder:
    """A thread-safe reservoir of per-query latencies in nanoseconds.

    Writers call :meth:`record_ns` / :meth:`record_many_ns` from any
    thread; readers call :meth:`percentile_us`, :meth:`summary_us` or
    :meth:`histogram_us` once the run has drained.  Reads take the
    same lock, so a mid-run snapshot is consistent (it simply reflects
    the queries completed so far).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._chunks: list[np.ndarray] = []
        self._count = 0
        self._resets = 0

    # ------------------------------------------------------------------
    # Recording (hot path)
    # ------------------------------------------------------------------
    def record_ns(self, latency_ns: int) -> None:
        """Record one query's latency."""
        sample = np.asarray([latency_ns], dtype=np.int64)
        with self._lock:
            self._chunks.append(sample)
            self._count += 1

    def record_many_ns(self, latencies_ns: np.ndarray) -> None:
        """Record a micro-batch worth of latencies in one append."""
        chunk = np.ascontiguousarray(latencies_ns, dtype=np.int64)
        if chunk.ndim != 1:
            raise ValueError("latencies must be a 1-d array")
        if chunk.size == 0:
            return
        with self._lock:
            self._chunks.append(chunk)
            self._count += chunk.size

    def reset(self) -> None:
        """Discard all samples (the warm-up/measurement boundary)."""
        with self._lock:
            self._chunks.clear()
            self._count = 0
            self._resets += 1

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    @property
    def count(self) -> int:
        """Samples recorded so far."""
        with self._lock:
            return self._count

    def samples_ns(self) -> np.ndarray:
        """All samples, recording order, as one int64 array (a copy)."""
        return self.samples_since(None)[0]

    def samples_since(
        self, cursor: tuple[int, int] | None
    ) -> tuple[np.ndarray, tuple[int, int]]:
        """The samples recorded after ``cursor``, and the next cursor.

        The incremental read the telemetry sink takes once per tick:
        pass back the cursor the previous call returned (``None`` reads
        everything).  After a :meth:`reset` the read restarts there, so
        it returns exactly the samples recorded since the reset.  The
        chunk list is sliced under the recording lock, so a concurrent
        :meth:`record_many_ns` lands entirely in this read or entirely
        in the next one — no chunk is ever split or dropped
        (``tests/obs/test_latency.py`` soaks this with concurrent
        writers).
        """
        with self._lock:
            start = 0
            if cursor is not None and cursor[0] == self._resets:
                start = cursor[1]
            chunks = self._chunks[start:]
            cursor = (self._resets, len(self._chunks))
        if not chunks:
            return np.empty(0, dtype=np.int64), cursor
        return np.concatenate(chunks), cursor

    def percentile_us(self, q: float) -> float:
        """Nearest-rank percentile ``q`` (0 < q <= 100), microseconds."""
        if not 0.0 < q <= 100.0:
            raise ValueError(f"percentile must be in (0, 100], got {q}")
        ordered = np.sort(self.samples_ns())
        if ordered.size == 0:
            raise ValueError("no latency samples recorded")
        return nearest_rank_us(ordered, q)

    def summary_us(self) -> dict[str, float]:
        """The export-facing summary: count, mean, max, p50/p95/p99.

        All values in microseconds except ``count``.  Raises if no
        samples were recorded — an empty latency section means the
        load generator never ran, which is a bug, not a datum.
        """
        ordered = np.sort(self.samples_ns())
        if ordered.size == 0:
            raise ValueError("no latency samples recorded")
        return {
            "count": int(ordered.size),
            "mean": float(ordered.mean()) / _NS_PER_US,
            "max": float(ordered[-1]) / _NS_PER_US,
            "p50": nearest_rank_us(ordered, 50.0),
            "p95": nearest_rank_us(ordered, 95.0),
            "p99": nearest_rank_us(ordered, 99.0),
        }

    def histogram_us(self, n_buckets: int = 32) -> dict[str, list[float]]:
        """A log-spaced latency histogram for the metrics export.

        Buckets span from the smallest positive sample (floored at
        0.1 us) to the maximum, geometrically.  Returns ``bounds_us``
        (``n_buckets + 1`` edges) and ``counts`` (``n_buckets``
        integers summing to :attr:`count` — the export validator
        checks exactly that).
        """
        if n_buckets < 1:
            raise ValueError("need at least one bucket")
        samples = self.samples_ns().astype(np.float64) / _NS_PER_US
        if samples.size == 0:
            raise ValueError("no latency samples recorded")
        lo = max(float(samples[samples > 0].min(initial=np.inf)), 0.1)
        if not np.isfinite(lo):
            lo = 0.1
        hi = max(float(samples.max()), lo * 1.0000001)
        bounds = np.geomspace(lo, hi, n_buckets + 1)
        # Clip below-range samples into the first bucket and make the
        # last edge inclusive so every sample lands in exactly one
        # bucket.
        clipped = np.clip(samples, lo, hi)
        counts, _ = np.histogram(clipped, bins=bounds)
        return {
            "bounds_us": [float(b) for b in bounds],
            "counts": [int(c) for c in counts],
        }
