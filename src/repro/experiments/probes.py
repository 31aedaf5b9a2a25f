"""Instrumented probe simulations backing ``--metrics-out``.

Most experiments evaluate the *analytical* buffer model, which has no
buffer pool and therefore no per-level counters to export.  A *probe*
is a small instrumented simulation run alongside an experiment with a
representative configuration — same data set family, node capacity
and query model as the experiment, smoke-sized batch budget — whose
per-level hit/miss/eviction breakdown and per-batch counters populate
the ``simulation`` section of the experiment's metrics document (see
``docs/OBSERVABILITY.md``).

Probes deliberately use the fast bulk loaders (HS) rather than TAT so
that ``--metrics-out`` adds seconds, not minutes, to a run; the tree
descriptions are shared with the experiments through the
:func:`~repro.experiments.common.get_description` cache.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Any, Callable

from ..geometry import RectArray
from ..model import buffer_model
from ..obs import SLOMonitor, TelemetrySink
from ..queries import (
    DataDrivenWorkload,
    UniformPointWorkload,
    UniformRegionWorkload,
)
from ..rtree import TreeDescription
from ..serving import LoadGenerator, LoadReport, QueryService
from ..simulation import SimulationResult, simulate, simulate_sweep
from .common import get_dataset, get_description, serve_slo

__all__ = [
    "METRICS_PROBES",
    "ProbeSpec",
    "SERVE_PROBES",
    "ServeProbeSpec",
    "SWEEP_PROBES",
    "SweepProbeSpec",
    "run_probe",
    "run_serve_probe",
    "run_sweep_probe",
]

WorkloadFactory = Callable[[RectArray], object]


def _point(data: RectArray) -> object:
    return UniformPointWorkload()


def _region_1pct(data: RectArray) -> object:
    return UniformRegionWorkload((0.1, 0.1))


def _data_driven_point(data: RectArray) -> object:
    return DataDrivenWorkload.from_rects(data)


_WORKLOAD_FACTORIES: dict[str, WorkloadFactory] = {
    "uniform-point": _point,
    "uniform-region-1pct": _region_1pct,
    "data-driven-point": _data_driven_point,
}


def _probe_inputs(
    spec: ProbeSpec | SweepProbeSpec | ServeProbeSpec,
) -> tuple[RectArray, TreeDescription, object]:
    """The data set, cached tree and workload a probe spec names."""
    try:
        factory = _WORKLOAD_FACTORIES[spec.workload]
    except KeyError:
        raise ValueError(
            f"unknown probe workload {spec.workload!r}; "
            f"choices: {sorted(_WORKLOAD_FACTORIES)}"
        ) from None
    data = get_dataset(spec.dataset, spec.n)
    desc = get_description(spec.dataset, spec.n, spec.capacity, spec.loader)
    return data, desc, factory(data)


@dataclass(frozen=True)
class ProbeSpec:
    """Configuration of one experiment's metrics probe."""

    dataset: str
    """Data set family (``tiger`` / ``cfd`` / ``region`` / ``point``)."""
    n: int | None
    """Data set size (``None`` for the family's default)."""
    capacity: int
    """R-tree node capacity (entries per page)."""
    loader: str
    """Loading algorithm for the probed tree (a fast bulk loader)."""
    workload: str
    """Workload key: ``uniform-point``, ``uniform-region-1pct`` or
    ``data-driven-point``."""
    buffer_size: int
    """Buffer capacity in pages."""
    pinned_levels: int = 0
    """Top tree levels pinned in the buffer (§3.3)."""


METRICS_PROBES: dict[str, ProbeSpec] = {
    "table1": ProbeSpec("region", 165_000, 100, "hs", "uniform-point", 100),
    "table2": ProbeSpec("point", 40_000, 25, "hs", "uniform-point", 100),
    "fig5": ProbeSpec("cfd", None, 100, "hs", "data-driven-point", 100),
    "fig6": ProbeSpec("tiger", None, 100, "hs", "uniform-region-1pct", 100),
    "fig7": ProbeSpec("tiger", None, 100, "hs", "data-driven-point", 100),
    "fig8": ProbeSpec("cfd", None, 100, "hs", "data-driven-point", 100),
    "fig9": ProbeSpec("region", 25_000, 100, "hs", "uniform-point", 300),
    "fig10": ProbeSpec("point", 80_000, 25, "hs", "uniform-point", 500, 3),
    "fig11": ProbeSpec("tiger", None, 25, "hs", "uniform-point", 500, 3),
}
"""One probe per registered experiment, mirroring its data set,
node capacity and query model (fast loaders only)."""


@dataclass(frozen=True)
class SweepProbeSpec:
    """Configuration of one experiment's buffer-size *sweep* probe.

    Same shape as :class:`ProbeSpec`, but with a tuple of buffer sizes
    simulated in one stack-distance pass
    (:func:`~repro.simulation.simulate_sweep`).  The fixed
    ``warmup_queries`` keeps every capacity's measurement window
    identical, so the exported per-capacity miss totals are exactly
    monotone non-increasing (the LRU inclusion property) — the export
    validator enforces this.
    """

    dataset: str
    n: int | None
    capacity: int
    loader: str
    workload: str
    buffer_sizes: tuple[int, ...]
    pinned_levels: int = 0
    warmup_queries: int = 4096


SWEEP_PROBES: dict[str, SweepProbeSpec] = {
    "table1": SweepProbeSpec(
        "region", 165_000, 100, "hs", "uniform-point", (10, 50, 100, 300)
    ),
    "fig6": SweepProbeSpec(
        "tiger", None, 100, "hs", "uniform-region-1pct", (2, 20, 100, 500)
    ),
    "fig9": SweepProbeSpec(
        "region", 25_000, 100, "hs", "uniform-point", (10, 100, 300)
    ),
    "fig11": SweepProbeSpec(
        "tiger", None, 25, "hs", "uniform-point", (100, 200, 500, 1000), 2
    ),
}
"""One sweep probe per buffer-size-sweep experiment: the experiment's
data set and query model, a handful of its swept buffer sizes, all
simulated in a single stack-distance pass."""


def run_probe(
    spec: ProbeSpec,
    *,
    n_batches: int = 5,
    batch_size: int = 2_000,
) -> tuple[SimulationResult, dict[str, Any]]:
    """Run one instrumented probe simulation.

    Returns the :class:`~repro.simulation.SimulationResult` (with
    ``level_stats`` and ``batch_stats`` populated) and the
    probe-configuration mapping destined for the document's
    ``simulation.probe`` field.  Deterministic: the simulator's
    default seed and the cached data sets pin every random stream.
    The default budget, 5 × 2,000 queries, is smoke-sized.
    """
    _, desc, workload = _probe_inputs(spec)
    result = simulate(
        desc,
        workload,
        spec.buffer_size,
        pinned_levels=spec.pinned_levels,
        n_batches=n_batches,
        batch_size=batch_size,
        level_stats=True,
    )
    probe = {**asdict(spec), "n_batches": n_batches, "batch_size": batch_size}
    return result, probe


def run_sweep_probe(
    spec: SweepProbeSpec,
    *,
    n_batches: int = 5,
    batch_size: int = 2_000,
) -> tuple[tuple[SimulationResult, ...], dict[str, Any]]:
    """Run one multi-capacity sweep probe in a single offline pass.

    Returns the per-capacity results (ordered like
    ``spec.buffer_sizes``) and the probe-configuration mapping for the
    document's ``sweep.probe`` field.  Deterministic: the sweep's
    default seed and the cached data sets pin every random stream.
    The default budget is :func:`run_probe`'s.
    """
    _, desc, workload = _probe_inputs(spec)
    results = simulate_sweep(
        desc,
        workload,
        spec.buffer_sizes,
        pinned_levels=spec.pinned_levels,
        n_batches=n_batches,
        batch_size=batch_size,
        warmup_queries=spec.warmup_queries,
    )
    probe = {**asdict(spec), "n_batches": n_batches, "batch_size": batch_size}
    return results, probe


@dataclass(frozen=True)
class ServeProbeSpec:
    """Configuration of one experiment's *serving* probe.

    An open-loop load test through :class:`~repro.serving.
    QueryService`: a seeded Poisson (or uniform) arrival schedule at
    ``rate_qps`` plays ``n_queries`` queries against the experiment's
    tree/workload/buffer configuration, and the resulting latency
    percentiles, throughput and shard-reconciled buffer counters
    populate the document's ``serving`` section.  Unlike the batch
    probes, wall-clock quantities here are real measurements on the
    host — only the arrival schedule, the query points and the buffer
    counters are deterministic.
    """

    dataset: str
    n: int | None
    capacity: int
    loader: str
    workload: str
    buffer_size: int
    pinned_levels: int = 0
    rate_qps: float = 5000.0
    n_queries: int = 4000
    max_batch: int = 1024
    max_wait_us: float = 500.0
    arrivals: str = "poisson"
    zipf_keys: int = 0
    """> 0: draw queries Zipf(1.1)-keyed over this many of the data
    set's rectangle centres ("millions of users" skew) instead of the
    workload sampler."""


SERVE_PROBES: dict[str, ServeProbeSpec] = {
    "fig6": ServeProbeSpec(
        "tiger", None, 100, "hs", "uniform-region-1pct", 100
    ),
    "fig9": ServeProbeSpec(
        "region", 25_000, 100, "hs", "uniform-point", 300
    ),
    "fig10": ServeProbeSpec(
        "point", 80_000, 25, "hs", "uniform-point", 500, 3,
        zipf_keys=10_000,
    ),
}
"""Serving probes for the buffer-sensitive experiments: fig6/fig9
replay their batch probes' configurations as live traffic; fig10 adds
the Zipfian-keyed hot-set skew over pinned levels."""


def run_serve_probe(
    spec: ServeProbeSpec,
    *,
    shards: int = 1,
    telemetry_out: str | None = None,
) -> tuple[LoadReport, dict[str, Any], dict[str, Any] | None]:
    """Run one open-loop serving probe.

    Builds a :class:`~repro.serving.QueryService` over the
    experiment's cached tree, starts it, plays the spec's seeded
    arrival schedule through a :class:`~repro.serving.LoadGenerator`,
    and returns the :class:`~repro.serving.LoadReport`, the
    probe-configuration mapping for the document's ``serving.probe``
    field, and the telemetry pointer block for the section's
    ``telemetry`` field (None when telemetry is off).  ``shards=1`` is
    the paper-exact single buffer.

    With ``telemetry_out`` set, a :class:`~repro.obs.TelemetrySink`
    samples the service every 100 ms during the run and streams to
    that path; the stream header carries the probe configuration and the
    Eq. 5/6 model-predicted hit ratio for the same tree/workload/
    buffer, so every tick is directly comparable to the paper's curve
    (``tools/serve_report.py`` renders exactly that comparison).
    """
    data, desc, workload = _probe_inputs(spec)
    service = QueryService(
        desc,
        workload,
        spec.buffer_size,
        shards=shards,
        max_batch=spec.max_batch,
        max_wait_us=spec.max_wait_us,
        pinned_levels=spec.pinned_levels,
        expected_queries=spec.n_queries,
    )
    key_points = None
    if spec.zipf_keys > 0:
        # Popularity ranks over the first zipf_keys data-rectangle
        # centres: deterministic, in the workload's stab space (point
        # workloads stab the unit square directly).
        key_points = data.centers()[: spec.zipf_keys]
    generator = LoadGenerator(
        service,
        rate_qps=spec.rate_qps,
        n_queries=spec.n_queries,
        arrivals=spec.arrivals,
        key_points=key_points,
    )
    sink = None
    telemetry_ptr = None
    if telemetry_out is not None:
        # The Eq. 5/6 prediction for this exact configuration rides in
        # the stream header: the experiments layer owns the model, the
        # sink just records the number (obs stays a leaf package).
        prediction = buffer_model(
            desc, workload, spec.buffer_size, spec.pinned_levels
        )
        p99_target_us, hit_floor = serve_slo()
        sink = TelemetrySink(
            service,
            slo=SLOMonitor(
                p99_target_us=p99_target_us, hit_ratio_floor=hit_floor
            ),
            path=telemetry_out,
            config={**asdict(spec), "shards": shards},
            model={
                "hit_ratio": prediction.hit_ratio,
                "disk_accesses": prediction.disk_accesses,
                "node_accesses": prediction.node_accesses,
                "n_star": prediction.n_star,
            },
        )
    service.start()
    try:
        if sink is not None:
            sink.start()
        report = generator.run()
    finally:
        if sink is not None:
            # The generator has drained, so the close-time final tick
            # carries cumulative counters equal to aggregate_stats() —
            # the reconciliation the export validator enforces.
            sink.close()
        service.close()
    if sink is not None:
        telemetry_ptr = sink.pointer()
    return report, {**asdict(spec), "shards": shards}, telemetry_ptr
