"""Allocation profiling on top of span tracing (``--profile``).

Spans say where wall-clock went; this module says where *memory* went.
:class:`Profiler` drives :mod:`tracemalloc`:

* while profiling, every span of an attached :class:`~repro.obs.spans.Tracer`
  is tagged with ``mem_delta_kb`` — net bytes allocated while the span
  was open (the tracer's ``memory_probe`` hook);
* :meth:`Profiler.report` renders a top-N-allocation-sites table
  (``file:line``, kilobytes, block count) plus the current/peak traced
  totals, embedded under ``"profile"`` in the ``repro-trace/1``
  Chrome-trace export and printed by the runner.

Profiling is strictly opt-in: ``tracemalloc`` slows allocation-heavy
code by an integer factor, so nothing here is touched unless the user
passes ``--profile`` (or constructs a :class:`Profiler` directly).
"""

from __future__ import annotations

import tracemalloc
from typing import Any

from .spans import Tracer

__all__ = ["Profiler"]


def _current_bytes() -> int:
    """Currently traced allocated bytes (the tracer's memory probe)."""
    return tracemalloc.get_traced_memory()[0]


class Profiler:
    """Owns the ``tracemalloc`` lifecycle for one profiled run.

    Examples
    --------
    ::

        profiler = Profiler(top_n=10)
        profiler.start()
        profiler.attach(tracer)        # spans now carry mem_delta_kb
        ...                            # run the workload
        report = profiler.report()     # top allocation sites
        profiler.stop()

    ``start``/``stop`` nest politely: if ``tracemalloc`` was already
    tracing (e.g. ``PYTHONTRACEMALLOC=1``), ``stop`` leaves it running.
    """

    def __init__(self, top_n: int = 15) -> None:
        if top_n < 1:
            raise ValueError("top_n must be at least 1")
        self.top_n = top_n
        self._owns_tracemalloc = False
        self._attached: list[Tracer] = []

    @property
    def active(self) -> bool:
        """Whether ``tracemalloc`` is currently tracing."""
        return tracemalloc.is_tracing()

    def start(self) -> "Profiler":
        """Begin tracing allocations (idempotent)."""
        if not tracemalloc.is_tracing():
            tracemalloc.start()
            self._owns_tracemalloc = True
        return self

    def attach(self, tracer: Tracer) -> None:
        """Tag every span of ``tracer`` with ``mem_delta_kb``."""
        tracer.memory_probe = _current_bytes
        self._attached.append(tracer)

    def top_sites(self) -> list[dict[str, Any]]:
        """The ``top_n`` allocation sites by live size, largest first.

        Each row is ``{"site": "path/to/file.py:lineno", "kb": live
        kilobytes, "blocks": live allocation blocks}``.
        """
        if not tracemalloc.is_tracing():
            return []
        snapshot = tracemalloc.take_snapshot().filter_traces(
            (
                tracemalloc.Filter(False, tracemalloc.__file__),
                tracemalloc.Filter(False, "<frozen importlib._bootstrap>"),
            )
        )
        sites = []
        for stat in snapshot.statistics("lineno")[: self.top_n]:
            frame = stat.traceback[0]
            sites.append(
                {
                    "site": f"{frame.filename}:{frame.lineno}",
                    "kb": round(stat.size / 1024.0, 3),
                    "blocks": stat.count,
                }
            )
        return sites

    def report(self) -> dict[str, Any]:
        """The JSON-ready profile payload (``"profile"`` in exports)."""
        if tracemalloc.is_tracing():
            current, peak = tracemalloc.get_traced_memory()
        else:
            current = peak = 0
        return {
            "tracing": tracemalloc.is_tracing(),
            "current_kb": round(current / 1024.0, 3),
            "peak_kb": round(peak / 1024.0, 3),
            "top_n": self.top_n,
            "top_allocations": self.top_sites(),
        }

    def stop(self) -> None:
        """Stop tracing (if this profiler started it) and detach tracers."""
        for tracer in self._attached:
            tracer.memory_probe = None
        self._attached.clear()
        if self._owns_tracemalloc and tracemalloc.is_tracing():
            tracemalloc.stop()
        self._owns_tracemalloc = False

    def __enter__(self) -> "Profiler":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()
