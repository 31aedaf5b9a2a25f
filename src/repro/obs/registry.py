"""A minimal metrics registry: named counters, gauges, and timers.

The paper's central claim is that a single aggregate number (node
accesses per query) hides the behaviour that actually matters (which
*pages* hit the buffer).  The same is true of the reproduction's own
instrumentation: one ``BufferStats`` object cannot say where time went
or which tree level absorbed the hits.  :class:`MetricsRegistry` is
the sink everything observable funnels into — simulation phases record
timers, buffer totals land in counters, configuration lands in gauges
— and :func:`MetricsRegistry.to_dict` renders the whole registry as a
plain JSON-ready mapping for the ``--metrics-out`` export.

The registry is deliberately tiny: no labels, no exposition formats,
no background threads.  Metrics are plain attributes mutated inline,
so attaching a registry costs one dict lookup per *named metric*, not
per buffer request — per-level buffer counters come from the arrays
of each chunk of requests (:class:`~repro.obs.levels.LevelStatsTable`).
"""

from __future__ import annotations

import time
from typing import Iterator

__all__ = ["Counter", "Gauge", "MetricsRegistry", "Timer"]


class Counter:
    """A monotonically increasing integer metric."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        """Add ``amount`` (must be non-negative) to the counter."""
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease")
        self.value += amount

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Counter({self.name!r}, value={self.value})"


class Gauge:
    """A point-in-time numeric metric (last write wins)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        """Record the current value of the measured quantity."""
        self.value = float(value)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Gauge({self.name!r}, value={self.value})"


class Timer:
    """Accumulated wall-clock seconds over one or more observations.

    Timing uses ``time.perf_counter_ns``: monotonic (immune to NTP
    steps and wall-clock adjustments, unlike ``time.time``) and
    integer nanoseconds, so interval subtraction is exact and cannot
    go negative.
    """

    __slots__ = ("name", "total_seconds", "count", "_started_ns")

    def __init__(self, name: str) -> None:
        self.name = name
        self.total_seconds = 0.0
        self.count = 0
        self._started_ns: int | None = None

    def record(self, seconds: float) -> None:
        """Add one externally measured duration."""
        if seconds < 0:
            raise ValueError(f"timer {self.name!r} got a negative duration")
        self.total_seconds += seconds
        self.count += 1

    def __enter__(self) -> "Timer":
        self._started_ns = time.perf_counter_ns()
        return self

    def __exit__(self, *exc_info: object) -> None:
        started = self._started_ns
        self._started_ns = None
        if started is not None:
            self.record((time.perf_counter_ns() - started) / 1e9)

    @property
    def mean_seconds(self) -> float:
        """Average duration per observation (0 when never recorded)."""
        return self.total_seconds / self.count if self.count else 0.0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Timer({self.name!r}, total_seconds={self.total_seconds:.6f}, "
            f"count={self.count})"
        )


class MetricsRegistry:
    """Named metrics, created on first use.

    ``counter`` / ``gauge`` / ``timer`` are get-or-create: asking for
    the same name twice returns the same object, asking for a name
    already used by a *different* metric kind raises ``ValueError``
    (one namespace prevents ``buffer.requests`` meaning two things).

    Examples
    --------
    >>> registry = MetricsRegistry()
    >>> registry.counter("buffer.requests").inc(3)
    >>> with registry.timer("simulate.warmup"):
    ...     pass
    >>> registry.to_dict()["counters"]["buffer.requests"]
    3
    """

    def __init__(self) -> None:
        self._metrics: dict[str, Counter | Gauge | Timer] = {}

    def _get_or_create(self, name: str, kind: type) -> Counter | Gauge | Timer:
        metric = self._metrics.get(name)
        if metric is None:
            metric = kind(name)
            self._metrics[name] = metric
        elif type(metric) is not kind:
            raise ValueError(
                f"metric {name!r} already registered as "
                f"{type(metric).__name__}, not {kind.__name__}"
            )
        return metric

    def counter(self, name: str) -> Counter:
        """The counter called ``name``, created if absent."""
        return self._get_or_create(name, Counter)  # type: ignore[return-value]

    def gauge(self, name: str) -> Gauge:
        """The gauge called ``name``, created if absent."""
        return self._get_or_create(name, Gauge)  # type: ignore[return-value]

    def timer(self, name: str) -> Timer:
        """The timer called ``name``, created if absent."""
        return self._get_or_create(name, Timer)  # type: ignore[return-value]

    def __len__(self) -> int:
        return len(self._metrics)

    def __iter__(self) -> Iterator[str]:
        return iter(sorted(self._metrics))

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def to_dict(self) -> dict[str, dict[str, object]]:
        """The registry as a JSON-ready mapping, keys sorted.

        Shape: ``{"counters": {name: int}, "gauges": {name: float},
        "timers": {name: {"total_seconds": float, "count": int}}}``.
        """
        counters: dict[str, int] = {}
        gauges: dict[str, float] = {}
        timers: dict[str, dict[str, float | int]] = {}
        for name in sorted(self._metrics):
            metric = self._metrics[name]
            if isinstance(metric, Counter):
                counters[name] = metric.value
            elif isinstance(metric, Gauge):
                gauges[name] = metric.value
            else:
                timers[name] = {
                    "total_seconds": metric.total_seconds,
                    "count": metric.count,
                }
        return {"counters": counters, "gauges": gauges, "timers": timers}
