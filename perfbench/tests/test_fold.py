"""The layer fold: self times, reconciliation, lanes, and the shims."""

import threading

import pytest

from perfbench.layers import ROOT, WINDOW, Shims, fold
from repro.obs import Tracer, span, use_tracer


def _tracer() -> Tracer:
    """A tracer whose clock advances 10 ns per reading."""
    ticks = iter(range(0, 10**9, 10))
    return Tracer(clock=lambda: next(ticks), cpu_clock=lambda: 0)


def test_self_times_reconcile_with_the_root_wall_time():
    tracer = _tracer()
    with tracer.span(ROOT):
        with tracer.span("packing:load_description", sub="tat"):
            with tracer.span("packing.tat_build"):
                with tracer.span("rtree.insert"):
                    pass
        with tracer.span("simulation:simulate_sweep", sub="sweep"):
            with tracer.span("stackdist.stream"):
                with tracer.span("accel:stab", sub="stab"):
                    pass
        with tracer.span("unknown.glue"):
            pass
    folded = fold(tracer.finished())
    assert not folded.errors
    total = sum(folded.main.values()) + folded.unattributed_s
    assert total == pytest.approx(folded.wall_s, abs=1e-12)
    # rtree insertion under a TAT build is TAT packing time
    assert folded.main["packing.tat_s"] > 0
    assert "packing.bulk_s" not in folded.main
    # a stab nested in a sweep is counted once, in accel
    assert folded.main["accel.stab_s"] > 0
    assert folded.main["simulation.sweep_s"] > 0
    # spans outside every layer, and the root itself, are unattributed
    assert folded.unattributed_s > 0


def test_nested_shim_time_is_counted_once():
    tracer = _tracer()
    with tracer.span(ROOT):
        with tracer.span("simulation:simulate", sub="simulate"):
            with tracer.span("simulation:simulate", sub="simulate"):
                pass
    spans = tracer.finished()
    folded = fold(spans)
    outer = next(s for s in spans if s.name == "simulation:simulate")
    simulate_s = folded.main["simulation.simulate_s"]
    assert simulate_s == pytest.approx(outer.duration_ns / 1e9)


def test_other_threads_fold_against_their_window():
    tracer = Tracer()
    previous = use_tracer(tracer)
    try:
        with span(ROOT):
            with span(WINDOW):
                worker = threading.Thread(target=_batch)
                worker.start()
                worker.join(timeout=10)
                assert not worker.is_alive()
    finally:
        use_tracer(previous)
    folded = fold(tracer.finished())
    assert not folded.errors
    assert set(folded.concurrent) == {"serving.self_s", "buffer.request_s"}
    busy = sum(folded.concurrent.values())
    assert busy + folded.concurrent_unattributed_s == pytest.approx(
        folded.concurrent_window_s, abs=1e-6
    )
    totals = folded.totals()
    assert totals["buffer.request_s"] == folded.concurrent["buffer.request_s"]


def _batch():
    with span("serve.batch"):
        with span("buffer:request_batch"):
            pass


def test_moving_aggregated_time_keeps_the_sum():
    tracer = _tracer()
    with tracer.span(ROOT):
        with tracer.span("loadgen:play"):
            pass
    folded = fold(tracer.finished())
    before = sum(folded.main.values())
    half = folded.main["loadgen.self_s"] / 2
    folded.move(half, "loadgen.self_s", "serving.self_s")
    assert sum(folded.main.values()) == pytest.approx(before)
    folded.move(1.0, "loadgen.self_s", "serving.self_s")
    assert folded.errors


def test_a_span_outside_the_root_is_an_error():
    tracer = _tracer()
    with tracer.span("packing:load_description"):
        pass
    with tracer.span(ROOT):
        pass
    assert fold(tracer.finished()).errors


def test_shims_patch_bindings_and_restore():
    import types

    def work(x):
        return x + 1

    module = types.ModuleType("fake")
    module.work = work
    module.alias = work
    tracer = _tracer()
    previous = use_tracer(tracer)
    shims = Shims(delays={"model": 0.0})
    try:
        assert shims.patch_bindings([module], work, "model") == 2
        with span(ROOT):
            assert module.work(1) == 2
            assert module.alias(2) == 3
    finally:
        shims.restore()
        use_tracer(previous)
    assert module.work is work and module.alias is work
    names = [s.name for s in tracer.finished()]
    assert names.count("model:work") == 2
