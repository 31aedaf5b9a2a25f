"""Layer attribution for traced runs: shims, span-to-layer map, and the fold.

A traced run installs a :class:`repro.obs.Tracer` and wraps public entry
points of the program in *shims*: each shim opens a span named
``<layer>:<entry>`` around the original call.  A shim is patched where
the calling module bound the name (or on the class, for methods) and
restored when the run ends, so nothing under ``src/`` changes.  The
program's own spans (``packing.tat_build``, ``stackdist.*``,
``simulate.*``, ``serve.batch``) nest beneath the shims through the same
tracer, and are mapped to layers by name.

The fold turns the finished spans into per-layer *self* times: a span's
self time is its duration minus its children's, so a shim nested inside
another (a stab inside a sweep) is counted once.  On the thread that
opened the run's root span, layer self times plus ``unattributed`` (the
root's own self time and spans that map to no layer) add up to the
root's wall time.  Spans on other threads (the serving dispatcher, the
sweep's stab pool) run concurrently with the main thread.  They are
folded by CPU time, not wall time, because their wall time includes
waits for the interpreter lock while the main thread runs; their busy
CPU is added to the per-layer totals and reconciled against their own
window, whose remainder is idle time and lock waits.
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from types import ModuleType
from typing import Any, Callable, Iterable

from repro.obs import Span, span

ROOT = "perfbench:run"
"""Name of the span that encloses everything a traced run measures."""

WINDOW = "perfbench:dispatching"
"""Main-thread span marking when dispatcher threads exist (serving)."""

# Program span name prefixes -> (layer, sub-bucket); first match wins.
# Shim spans carry their layer in the name ("packing:load_description").
PROGRAM_SPANS: tuple[tuple[str, str, str | None], ...] = (
    ("experiment", "experiments", None),
    ("packing.tat_build", "packing", "tat"),
    ("packing.", "packing", None),
    ("rtree.", "packing", None),
    ("accel.build", "accel", "build"),
    ("accel.counter_build", "accel", "build"),
    ("accel.", "accel", None),
    ("model.", "model", None),
    ("stackdist.", "simulation", "sweep"),
    ("simulate.buffer_loop", "buffer", None),
    ("simulate.", "simulation", None),
    ("serve.batch", "serving", None),
)

DEFAULT_SUB = {
    "packing": "bulk",
    "queries": "sample",
    "simulation": "simulate",
    "accel": "stab",
}
"""Sub-bucket of a span that neither names one nor inherits one."""

SELF_METRICS: dict[tuple[str, str | None], str] = {
    ("experiments", None): "experiments.self_s",
    ("datasets", None): "datasets.generate_s",
    ("packing", "tat"): "packing.tat_s",
    ("packing", "bulk"): "packing.bulk_s",
    ("queries", "sample"): "queries.sample_s",
    ("queries", "transform"): "queries.transform_s",
    ("simulation", "sweep"): "simulation.sweep_s",
    ("simulation", "simulate"): "simulation.simulate_s",
    ("model", None): "model.eval_s",
    ("accel", "build"): "accel.build_s",
    ("accel", "stab"): "accel.stab_s",
    ("buffer", None): "buffer.request_s",
    ("serving", None): "serving.self_s",
    ("obs", None): "obs.latency_record_s",
    ("loadgen", None): "loadgen.self_s",
}
"""The fold's buckets: every layer self time lands in exactly one."""

LAYER_OF_METRIC = {
    metric: layer for (layer, _), metric in SELF_METRICS.items()
}


def _classify(
    name: str, attrs: dict[str, Any]
) -> tuple[str | None, str | None]:
    """``(layer, explicit sub)`` of one span, or ``(None, None)``."""
    if ":" in name:
        layer = name.split(":", 1)[0]
        if layer == "perfbench":
            return None, None
        return layer, attrs.get("sub")
    for prefix, layer, sub in PROGRAM_SPANS:
        if name.startswith(prefix):
            return layer, sub
    return None, None


def _metric(layer: str, sub: str | None) -> str:
    key = (layer, sub) if (layer, sub) in SELF_METRICS else (layer, None)
    return SELF_METRICS[key]


@dataclass
class Fold:
    """Per-layer self times of one traced run.

    ``main`` holds the root thread's wall-time buckets (they reconcile
    with ``wall_s``); ``concurrent`` holds other threads' busy CPU time,
    whose window is ``concurrent_window_s``.
    """

    wall_s: float
    main: dict[str, float]
    unattributed_s: float
    concurrent: dict[str, float]
    concurrent_window_s: float
    concurrent_unattributed_s: float
    spans: int
    errors: list[str] = field(default_factory=list)

    def totals(self) -> dict[str, float]:
        """Every bucket summed over threads (zero where a layer never ran)."""
        out = {metric: 0.0 for metric in SELF_METRICS.values()}
        for bucket in (self.main, self.concurrent):
            for metric, seconds in bucket.items():
                out[metric] += seconds
        return out

    def move(self, seconds: float, source: str, target: str) -> None:
        """Re-attribute main-thread time an aggregating shim measured.

        A shim on a per-query call records its total time instead of one
        span per call; that time sits inside ``source`` (the caller's
        bucket) and belongs to ``target``.  The sum is unchanged.
        """
        self.main[source] = self.main.get(source, 0.0) - seconds
        self.main[target] = self.main.get(target, 0.0) + seconds
        if self.main[source] < 0:
            self.errors.append(f"moved more time out of {source} than it had")

    def layer_share(self, layer: str) -> float:
        """The layer's share of the main thread's wall time."""
        seconds = sum(
            s for m, s in self.main.items() if LAYER_OF_METRIC[m] == layer
        )
        return seconds / self.wall_s if self.wall_s > 0 else 0.0


def fold(spans: Iterable[Span]) -> Fold:
    """Fold finished spans into per-layer self times (see module doc).

    Exactly one span must be named :data:`ROOT`.  A span whose name maps
    to no layer inherits its parent's layer; a sub-bucket is inherited
    from the nearest ancestor of the same layer.
    """
    spans = sorted(spans, key=lambda s: s.span_id)
    roots = [s for s in spans if s.name == ROOT]
    if len(roots) != 1:
        raise ValueError(f"expected one {ROOT!r} span, found {len(roots)}")
    root = roots[0]
    inside = {root.span_id}  # ids of the root and its descendants
    child_ns: dict[int, int] = defaultdict(int)
    child_cpu_ns: dict[int, int] = defaultdict(int)
    for s in spans:
        if s.parent_id is not None:
            child_ns[s.parent_id] += s.duration_ns
            child_cpu_ns[s.parent_id] += s.cpu_ns

    errors: list[str] = []
    resolved: dict[int, tuple[str | None, str | None]] = {}
    main: dict[str, float] = defaultdict(float)
    concurrent: dict[str, float] = defaultdict(float)
    unattributed_ns = 0
    main_self_ns = 0
    concurrent_busy_ns = 0
    window_ns = 0
    for s in spans:  # id order: parents resolve before children
        layer, sub = _classify(s.name, s.attrs)
        parent = resolved.get(s.parent_id) if s.parent_id is not None else None
        if layer is None and parent is not None:
            layer = parent[0]
        if layer is not None and sub is None:
            if parent is not None and parent[0] == layer:
                sub = parent[1]
            else:
                sub = DEFAULT_SUB.get(layer)
        resolved[s.span_id] = (layer, sub)

        self_ns = s.duration_ns - child_ns[s.span_id]
        if self_ns < 0:
            errors.append(
                f"span {s.name!r} #{s.span_id} has negative self time"
            )
        on_main = s.thread_index == root.thread_index
        if on_main:
            if s.name == WINDOW:
                window_ns += s.duration_ns
            if s is not root:
                if s.parent_id not in inside:
                    errors.append(
                        f"span {s.name!r} #{s.span_id} lies outside the root"
                    )
                    continue
                inside.add(s.span_id)
            main_self_ns += self_ns
            if layer is None:
                unattributed_ns += self_ns
            else:
                main[_metric(layer, sub)] += self_ns / 1e9
        else:
            if s.parent_id is None:
                concurrent_busy_ns += s.cpu_ns
            if layer is not None:
                self_cpu_ns = s.cpu_ns - child_cpu_ns[s.span_id]
                concurrent[_metric(layer, sub)] += self_cpu_ns / 1e9

    if main_self_ns != root.duration_ns:
        errors.append(
            f"main-thread self times sum to {main_self_ns} ns, "
            f"root wall is {root.duration_ns} ns"
        )
    attributed_concurrent_ns = int(round(sum(concurrent.values()) * 1e9))
    if window_ns == 0:
        window_ns = concurrent_busy_ns
    return Fold(
        wall_s=root.duration_ns / 1e9,
        main=dict(main),
        unattributed_s=unattributed_ns / 1e9,
        concurrent=dict(concurrent),
        concurrent_window_s=window_ns / 1e9,
        concurrent_unattributed_s=(window_ns - attributed_concurrent_ns) / 1e9,
        spans=len(spans),
        errors=errors,
    )


# ----------------------------------------------------------------------
# Shims
# ----------------------------------------------------------------------

CountHook = Callable[["Shims", tuple, dict, Any], None]
"""Called after the original returns: ``(shims, args, kwargs, result)``."""


class Shims:
    """Patches layer entry points with spans; ``restore()`` undoes all.

    ``delays`` maps a layer to seconds spent inside each of that layer's
    shim spans -- the fault injection the attribution self-test uses.
    Counts recorded by the shims land in :attr:`counts` (numbers) and
    :attr:`samples` (one entry per call, such as an array of waits).
    Count hooks run under one lock: the sweep's stab pool calls shims
    from several threads at once.
    """

    def __init__(self, delays: dict[str, float] | None = None) -> None:
        self.delays = dict(delays or {})
        self.counts: dict[str, float] = defaultdict(float)
        self.samples: dict[str, list] = defaultdict(list)
        self.errors: list[str] = []
        self._count_lock = threading.Lock()
        self._undo: list[tuple[object, str, object]] = []

    def shim(
        self,
        original: Callable,
        layer: str,
        name: str,
        sub: str | Callable[[tuple], str] | None = None,
        count: CountHook | None = None,
    ) -> Callable:
        """A wrapper of ``original`` that records a ``layer:name`` span."""
        delay = self.delays.get(layer, 0.0)

        def wrapper(*args, **kwargs):
            tag = sub(args) if callable(sub) else sub
            attrs = {} if tag is None else {"sub": tag}
            with span(f"{layer}:{name}", **attrs):
                if delay:  # spin, not sleep: exact, and held like real work
                    end = time.perf_counter() + delay
                    while time.perf_counter() < end:
                        pass
                result = original(*args, **kwargs)
                if count is not None:
                    with self._count_lock:
                        count(self, args, kwargs, result)
            return result

        wrapper.__wrapped__ = original
        return wrapper

    def patch_attr(
        self, owner: object, attr: str, layer: str, **options
    ) -> None:
        """Replace ``owner.attr`` (a module function or a class method)."""
        original = getattr(owner, attr)
        self.replace(owner, attr, self.shim(original, layer, attr, **options))

    def replace(self, owner: object, attr: str, replacement: Callable) -> None:
        """Set ``owner.attr`` to ``replacement`` until :meth:`restore`."""
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def patch_bindings(
        self,
        modules: Iterable[ModuleType],
        function: Callable,
        layer: str,
        **options,
    ) -> int:
        """Patch every module binding of ``function``; return how many."""
        wrapper = self.shim(function, layer, function.__name__, **options)
        patched = 0
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is function:
                    self._undo.append((module, attr, value))
                    setattr(module, attr, wrapper)
                    patched += 1
        return patched

    def restore(self) -> None:
        """Put every patched name back, newest first."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def loader_sub(args: tuple) -> str:
    """Packing sub-bucket from ``load_description(loader, ...)``."""
    return "tat" if args[0] == "tat" else "bulk"


def count_nodes(shims: Shims, args, kwargs, desc) -> None:
    """Nodes built, counted where a tree description is returned."""
    shims.counts["packing.calls"] += 1
    shims.counts["packing.nodes"] += desc.total_nodes


def count_stab(shims: Shims, args, kwargs, sparse) -> None:
    """Points stabbed and node ids returned (``stab(self, points)``)."""
    shims.counts["accel.points"] += len(args[1])
    shims.counts["accel.ids"] += sparse.ids.size


def count_call(shims: Shims, args, kwargs, result) -> None:
    """Model evaluations: one per call."""
    shims.counts["model.calls"] += 1
