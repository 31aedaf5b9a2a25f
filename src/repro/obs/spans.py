"""Span-based tracing: where wall-clock time goes inside a run.

The metrics document answers *what happened* — per-level hits,
counters, sum invariants.  This module answers *where time went*: a
:class:`Tracer` records nested, attributed spans around the phases of
an experiment (runner → simulate → batch → buffer loop; model
probability build; accel index build; packing levels) and exports them
as Chrome trace-event JSON (loadable in Perfetto / ``chrome://tracing``)
or folded flamegraph text (``flamegraph.pl`` / speedscope input).

Design rules:

* **Disabled is free.**  The process-wide tracer defaults to ``None``;
  the module-level :func:`span` helper then returns the shared
  :data:`NULL_SPAN` singleton, so an un-traced call site pays one
  module-global read, one ``is None`` test, and an empty context
  manager.  Hot paths are instrumented at *phase/chunk* granularity
  (never per buffer request), so the disabled overhead is within noise
  — ``benchmarks/test_obs_overhead.py`` holds that bound.
* **Deterministic ids.**  Span ids are allocated sequentially in start
  order under a lock; thread ids are densified in first-seen order.
  Two runs of the same single-threaded workload produce identical
  id/parent structures (RL007 spirit: trace output is reproducible).
* **Thread-safe.**  The active-span stack is thread-local; the
  finished list and id counter are lock-protected, so worker threads
  can trace concurrently and their spans interleave without corruption.

Timing uses ``time.perf_counter_ns`` — monotonic, immune to wall-clock
adjustments, integer nanoseconds (no float accumulation error).  Each
span additionally records the calling thread's CPU time
(``time.thread_time_ns``), so traces of concurrent workloads (the
stack-distance sweep's per-capacity pool) distinguish compute from
blocking: a span whose ``cpu_us`` is far below its wall ``dur`` spent
the difference waiting (GIL, locks, I/O).
"""

from __future__ import annotations

import json
import threading
import time
from pathlib import Path
from typing import Any, Callable, Iterable, Mapping

__all__ = [
    "NULL_SPAN",
    "Span",
    "TRACE_SCHEMA",
    "Tracer",
    "chrome_trace",
    "current_tracer",
    "folded_stacks",
    "span",
    "use_tracer",
    "write_chrome_trace",
    "write_folded",
]


class _NullSpan:
    """The do-nothing span: the disabled-tracing fast path.

    A single shared instance (:data:`NULL_SPAN`) is returned by
    :func:`span` whenever no tracer is installed — entering and
    exiting it does no work and allocates nothing.
    """

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info: object) -> bool:
        return False

    def set_attrs(self, **attrs: object) -> None:
        """Ignore attribute tags."""


NULL_SPAN = _NullSpan()
"""Shared no-op span used when tracing is disabled."""


class Span:
    """One timed, attributed region of a run (a context manager).

    Created by :meth:`Tracer.span`; the id and parent are resolved at
    ``__enter__`` (start order defines ids), the duration at
    ``__exit__``.  Attributes are free-form key/values tagged at
    creation or via :meth:`set_attrs` while the span is open.
    """

    __slots__ = (
        "tracer",
        "name",
        "attrs",
        "span_id",
        "parent_id",
        "thread_index",
        "start_ns",
        "end_ns",
        "cpu_start_ns",
        "cpu_end_ns",
    )

    def __init__(self, tracer: "Tracer", name: str, attrs: dict[str, Any]) -> None:
        self.tracer = tracer
        self.name = str(name)
        self.attrs = attrs
        self.span_id: int = -1
        self.parent_id: int | None = None
        self.thread_index: int = 0
        self.start_ns: int = 0
        self.end_ns: int = 0
        self.cpu_start_ns: int = 0
        self.cpu_end_ns: int = 0

    def set_attrs(self, **attrs: Any) -> None:
        """Merge extra attribute tags into the span."""
        self.attrs.update(attrs)

    @property
    def duration_ns(self) -> int:
        """Wall-clock nanoseconds between enter and exit."""
        return self.end_ns - self.start_ns

    @property
    def cpu_ns(self) -> int:
        """CPU nanoseconds the owning thread spent inside the span.

        Measured with the tracer's CPU clock (default
        ``time.thread_time_ns``), so time spent blocked — on the GIL,
        a lock, or I/O — does not count; compare against
        :attr:`duration_ns` to see how much of a span's wall time was
        compute.
        """
        return self.cpu_end_ns - self.cpu_start_ns

    def __enter__(self) -> "Span":
        self.tracer._start(self)
        return self

    def __exit__(self, *exc_info: object) -> bool:
        self.tracer._finish(self)
        return False

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Span({self.name!r}, id={self.span_id}, "
            f"parent={self.parent_id}, dur={self.duration_ns}ns)"
        )


class Tracer:
    """Collects nested spans with deterministic ids.

    Parameters
    ----------
    clock:
        Nanosecond wall clock (default ``time.perf_counter_ns``).
        Tests inject a fake for deterministic timings.
    cpu_clock:
        Nanosecond per-thread CPU clock (default
        ``time.thread_time_ns``); feeds :attr:`Span.cpu_ns`.
    memory_probe:
        Optional zero-argument callable returning currently allocated
        bytes (:class:`~repro.obs.profile.Profiler` attaches
        ``tracemalloc``'s).  When set, every span is tagged with
        ``mem_delta_kb`` — net bytes allocated while it was open.

    Examples
    --------
    >>> tracer = Tracer(clock=iter(range(0, 1000, 10)).__next__)
    >>> with tracer.span("outer", experiment="fig6"):
    ...     with tracer.span("inner", batch=0):
    ...         pass
    >>> [(s.span_id, s.parent_id, s.name) for s in tracer.finished()]
    [(0, None, 'outer'), (1, 0, 'inner')]
    """

    def __init__(
        self,
        clock: Callable[[], int] = time.perf_counter_ns,
        cpu_clock: Callable[[], int] = time.thread_time_ns,
        memory_probe: Callable[[], int] | None = None,
    ) -> None:
        self._clock = clock
        self._cpu_clock = cpu_clock
        self.memory_probe = memory_probe
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next_id = 0
        self._threads: dict[int, int] = {}
        self._finished: list[Span] = []

    def span(self, name: str, **attrs: Any) -> Span:
        """A new span, started when entered as a context manager."""
        return Span(self, name, attrs)

    def current(self) -> Span | None:
        """The innermost open span of the calling thread, if any."""
        stack = getattr(self._local, "stack", None)
        return stack[-1] if stack else None

    def _start(self, span: Span) -> None:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        ident = threading.get_ident()
        with self._lock:
            span.span_id = self._next_id
            self._next_id += 1
            span.thread_index = self._threads.setdefault(
                ident, len(self._threads)
            )
        span.parent_id = stack[-1].span_id if stack else None
        stack.append(span)
        probe = self.memory_probe
        if probe is not None:
            span.attrs["_mem_start"] = probe()
        span.cpu_start_ns = self._cpu_clock()
        span.start_ns = self._clock()

    def _finish(self, span: Span) -> None:
        span.end_ns = self._clock()
        span.cpu_end_ns = self._cpu_clock()
        probe = self.memory_probe
        if probe is not None:
            start = span.attrs.pop("_mem_start", None)
            if start is not None:
                span.attrs["mem_delta_kb"] = round(
                    (probe() - start) / 1024.0, 3
                )
        stack = self._local.stack
        if not stack or stack[-1] is not span:
            raise RuntimeError(
                f"span {span.name!r} exited out of order "
                "(spans must strictly nest per thread)"
            )
        stack.pop()
        with self._lock:
            self._finished.append(span)

    def finished(self) -> tuple[Span, ...]:
        """Completed spans, ordered by start (= id) order."""
        with self._lock:
            return tuple(sorted(self._finished, key=lambda s: s.span_id))

    def clear(self) -> None:
        """Drop finished spans and restart id allocation."""
        with self._lock:
            self._finished.clear()
            self._next_id = 0
            self._threads.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._finished)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Tracer(finished={len(self)})"


_ACTIVE: Tracer | None = None
"""The process-wide tracer; ``None`` means tracing is disabled."""


def use_tracer(tracer: Tracer | None) -> Tracer | None:
    """Install ``tracer`` as the process-wide tracer; return the old one.

    Pass ``None`` to disable tracing (the default state).  Call sites
    throughout the code base reach the installed tracer through
    :func:`span`, so installing one turns every instrumented phase on
    at once.
    """
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = tracer
    return previous


def current_tracer() -> Tracer | None:
    """The installed process-wide tracer, or ``None`` when disabled."""
    return _ACTIVE


def span(name: str, **attrs: Any) -> Span | _NullSpan:
    """A span on the installed tracer — :data:`NULL_SPAN` when disabled.

    This is the one function instrumented call sites use::

        with span("simulate.batch", batch=i):
            ...

    With no tracer installed the cost is one global read, one ``is
    None`` test and the no-op context protocol; the ``attrs`` dict is
    the only allocation, which is why instrumentation sits at phase /
    chunk granularity, never on per-request hot paths.
    """
    tracer = _ACTIVE
    if tracer is None:
        return NULL_SPAN
    return tracer.span(name, **attrs)


# ----------------------------------------------------------------------
# Exporters
# ----------------------------------------------------------------------

TRACE_SCHEMA = "repro-trace/1"
"""Identifier stamped into exported Chrome-trace files."""


def _json_safe(value: Any) -> Any:
    """Attribute values as JSON scalars (non-scalars via ``str``)."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    return str(value)


def chrome_trace(
    spans: Iterable[Span], *, process_name: str = "repro"
) -> dict[str, Any]:
    """Spans as a Chrome trace-event JSON object.

    The payload loads directly in Perfetto (https://ui.perfetto.dev)
    or ``chrome://tracing``: one complete (``"ph": "X"``) event per
    span, timestamps and durations in microseconds, span ids and
    attributes under ``args``.  Extra top-level keys (``schema``,
    ``profile`` when profiling ran) are ignored by both viewers.
    """
    events: list[dict[str, Any]] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": 1,
            "tid": 0,
            "args": {"name": process_name},
        }
    ]
    for s in sorted(spans, key=lambda s: s.span_id):
        args = {k: _json_safe(v) for k, v in s.attrs.items()}
        args["span_id"] = s.span_id
        if s.parent_id is not None:
            args["parent_id"] = s.parent_id
        args["cpu_us"] = s.cpu_ns / 1000.0
        events.append(
            {
                "name": s.name,
                "cat": "repro",
                "ph": "X",
                "ts": s.start_ns / 1000.0,
                "dur": s.duration_ns / 1000.0,
                "pid": 1,
                "tid": s.thread_index,
                "args": args,
            }
        )
    return {
        "schema": TRACE_SCHEMA,
        "displayTimeUnit": "ms",
        "traceEvents": events,
    }


def folded_stacks(
    spans: Iterable[Span], *, metric: str = "wall"
) -> list[str]:
    """Spans as folded flamegraph lines: ``root;child;leaf <self-µs>``.

    Each line is a semicolon-joined root-to-span name path with the
    span's *self* time (duration minus its children's durations) in
    integer microseconds; identical paths are aggregated.  The output
    is the input format of Brendan Gregg's ``flamegraph.pl`` and of
    speedscope, so ``flamegraph.pl trace.folded > flame.svg`` renders
    straight from :func:`write_folded`'s output.

    ``metric`` selects the timing column: ``"wall"`` (default) or
    ``"cpu"`` (per-thread CPU time) — a stack that shrinks between
    the two flamegraphs spent the difference blocked, not computing.
    """
    if metric not in ("wall", "cpu"):
        raise ValueError(f"unknown metric {metric!r}; choices: wall, cpu")
    rows = list(spans)
    by_id = {row.span_id: row for row in rows}
    child_ns: dict[int, int] = {}
    for row in rows:
        if row.parent_id is not None and row.parent_id in by_id:
            child_ns[row.parent_id] = (
                child_ns.get(row.parent_id, 0) + _dur_ns(row, metric)
            )

    totals: dict[str, int] = {}
    for row in rows:
        path: list[str] = []
        cursor: Span | None = row
        seen: set[int] = set()
        while cursor is not None and cursor.span_id not in seen:
            seen.add(cursor.span_id)
            path.append(cursor.name)
            parent = cursor.parent_id
            cursor = by_id.get(parent) if parent is not None else None
        stack = ";".join(reversed(path))
        self_ns = max(_dur_ns(row, metric) - child_ns.get(row.span_id, 0), 0)
        totals[stack] = totals.get(stack, 0) + int(self_ns // 1000)
    return [f"{stack} {value}" for stack, value in sorted(totals.items())]


def _dur_ns(row: Span, metric: str) -> int:
    """Wall or CPU nanoseconds of a span."""
    return row.cpu_ns if metric == "cpu" else row.duration_ns


def write_chrome_trace(
    path: str | Path,
    spans: Iterable[Span],
    *,
    profile: Mapping[str, Any] | None = None,
) -> None:
    """Write a Chrome-trace JSON file (optionally embedding a
    :meth:`~repro.obs.profile.Profiler.report` under ``"profile"``)."""
    payload = chrome_trace(spans)
    if profile is not None:
        payload["profile"] = dict(profile)
    Path(path).write_text(
        json.dumps(payload, indent=2) + "\n", encoding="utf-8"
    )


def write_folded(
    path: str | Path, spans: Iterable[Span], *, metric: str = "wall"
) -> None:
    """Write folded flamegraph text next to a Chrome-trace export."""
    Path(path).write_text(
        "\n".join(folded_stacks(spans, metric=metric)) + "\n",
        encoding="utf-8",
    )
