"""Guard: instrumentation stays off the per-request path.

``level_stats=True`` adds per-level counters built from each chunk's
page and miss arrays (a few numpy calls per 4096 queries), never a
call per buffer request; a disabled tracer hands back one shared no-op span per
phase or chunk.  These tests keep both claims honest with a coarse
timing ratio — deliberately generous bounds so the guard never flakes
on a loaded CI machine while still catching per-request work leaking
into the instrumented path (which costs a multiple of the buffer
loop).  The finer-grained benchmark lives in
``benchmarks/test_obs_overhead.py``.
"""

import timeit

from repro.obs import NULL_SPAN
from repro.obs.spans import span as module_span
from repro.queries import UniformPointWorkload
from repro.simulation import simulate
from tests.obs.test_levels import two_level_description

_REPEATS = 7


def _simulate_seconds(make_kwargs) -> float:
    desc = two_level_description()
    return min(
        timeit.repeat(
            lambda: simulate(
                desc, UniformPointWorkload(), buffer_size=2, n_batches=2,
                batch_size=2000, **make_kwargs(),
            ),
            number=1,
            repeat=_REPEATS,
        )
    )


def test_level_stats_simulate_overhead_is_bounded():
    bare = _simulate_seconds(dict)
    counted = _simulate_seconds(lambda: {"level_stats": True})
    # Per-chunk array accounting: the real ratio is close to 1x, while
    # a per-request sink call or level lookup would cost a multiple of
    # the bare loop.
    assert counted <= 2.0 * bare + 1e-3, (
        f"level_stats overhead too high: bare={bare:.6f}s "
        f"level_stats={counted:.6f}s"
    )


def test_disabled_span_is_null_singleton():
    # The whole disabled path: one global read, one `is None` test,
    # one shared no-op object — no per-call allocation beyond kwargs.
    assert module_span("anything") is NULL_SPAN


def test_disabled_tracer_simulate_within_noise(monkeypatch):
    """simulate() with tracing off costs ~the same as no tracing code.

    The baseline monkeypatches the engine's ``span`` hook to a
    do-nothing stub — the closest thing to "the instrumentation was
    never written".  The real disabled path (global read + ``is None``
    + NULL_SPAN protocol) must stay within a generous constant of it;
    spans sit at phase/chunk granularity, so the true ratio is ~1.0x
    and anything near the 2x bound means a span leaked onto a
    per-request path.
    """
    import repro.simulation.engine as engine

    desc = two_level_description()
    kwargs = dict(buffer_size=3, n_batches=2, batch_size=300)

    def run_seconds() -> float:
        return min(
            timeit.repeat(
                lambda: simulate(desc, UniformPointWorkload(), **kwargs),
                number=1,
                repeat=_REPEATS,
            )
        )

    disabled = run_seconds()

    def stub_span(name, **attrs):
        return NULL_SPAN

    monkeypatch.setattr(engine, "span", stub_span)
    baseline = run_seconds()

    assert disabled <= 2.0 * baseline + 1e-3, (
        f"disabled-tracer overhead too high: "
        f"baseline={baseline:.6f}s disabled={disabled:.6f}s"
    )
