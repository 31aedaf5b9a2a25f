"""Benchmark guard: the observability paths cost ~nothing per request.

Pytest-benchmark cases time a short ``simulate()`` without and with
``level_stats=True`` (per-level counters built from each chunk's page
and miss arrays), and with the span tracer disabled, enabled, and
stubbed out entirely.  Run with::

    pytest benchmarks/test_obs_overhead.py --benchmark-only

The assertions mirror ``tests/obs/test_overhead.py`` (kept there too
so tier-1 enforces them without the benchmark plugin's orchestration).
"""

from __future__ import annotations

from repro.obs import NULL_SPAN, Tracer, use_tracer
from repro.queries import UniformPointWorkload
from repro.simulation import simulate
from tests.obs.test_levels import two_level_description


def _simulate(level_stats=False):
    return simulate(
        two_level_description(),
        UniformPointWorkload(),
        buffer_size=2,
        n_batches=2,
        batch_size=2000,
        level_stats=level_stats,
    )


def _simulate_once() -> float:
    return _simulate().node_accesses.mean


def test_simulate_bare(benchmark):
    result = benchmark(_simulate)
    assert result.level_stats is None


def test_simulate_with_level_stats(benchmark):
    result = benchmark(lambda: _simulate(level_stats=True))
    assert result.level_stats is not None
    # identical behaviour: the per-level table only counts
    assert [s.as_dict() for s in result.batch_stats] == [
        s.as_dict() for s in _simulate().batch_stats
    ]


def test_simulate_tracer_disabled(benchmark):
    # The shipped default: no tracer installed, span() returns the
    # NULL_SPAN singleton at every instrumented phase.
    assert benchmark(_simulate_once) > 0


def test_simulate_tracer_stubbed(benchmark, monkeypatch):
    # "The instrumentation was never written" baseline for the
    # disabled case above.
    import repro.simulation.engine as engine

    monkeypatch.setattr(engine, "span", lambda name, **attrs: NULL_SPAN)
    assert benchmark(_simulate_once) > 0


def test_simulate_tracer_enabled(benchmark):
    # Scale reference: a live tracer recording phase/batch spans.
    tracer = Tracer()
    previous = use_tracer(tracer)
    try:
        assert benchmark(_simulate_once) > 0
    finally:
        use_tracer(previous)
    assert len(tracer) > 0
