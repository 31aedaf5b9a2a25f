"""Span tracer: nesting, determinism, disabled path, exporters."""

import json
import threading

import pytest

from repro.obs import (
    NULL_SPAN,
    Tracer,
    chrome_trace,
    current_tracer,
    folded_stacks,
    span,
    use_tracer,
    write_chrome_trace,
    write_folded,
)
from repro.obs.spans import TRACE_SCHEMA
from repro.queries import UniformPointWorkload
from repro.simulation import simulate
from tests.obs.test_levels import two_level_description


def fake_clock(step_ns: int = 10):
    """A deterministic nanosecond clock advancing ``step_ns`` per call."""
    state = {"now": 0}

    def tick() -> int:
        state["now"] += step_ns
        return state["now"]

    return tick


def span_events(payload):
    """The complete (``"ph": "X"``) events of a Chrome-trace payload."""
    return [e for e in payload["traceEvents"] if e["ph"] == "X"]


def parent_ids(events):
    """``{span_id: parent_id}`` read from the events' args."""
    return {
        e["args"]["span_id"]: e["args"].get("parent_id") for e in events
    }


@pytest.fixture
def tracer():
    return Tracer(clock=fake_clock())


@pytest.fixture
def installed(tracer):
    """Install ``tracer`` process-wide; restore the previous on exit."""
    previous = use_tracer(tracer)
    yield tracer
    use_tracer(previous)


class TestTracer:
    def test_ids_follow_start_order(self, tracer):
        with tracer.span("a"):
            with tracer.span("b"):
                pass
            with tracer.span("c"):
                pass
        ids = [(s.span_id, s.parent_id, s.name) for s in tracer.finished()]
        assert ids == [(0, None, "a"), (1, 0, "b"), (2, 0, "c")]

    def test_identical_runs_produce_identical_structure(self):
        def run():
            t = Tracer(clock=fake_clock())
            with t.span("outer"):
                for i in range(3):
                    with t.span("inner", batch=i):
                        pass
            return [
                (s.span_id, s.parent_id, s.name, s.start_ns, s.end_ns)
                for s in t.finished()
            ]

        assert run() == run()

    def test_durations_from_injected_clock(self, tracer):
        with tracer.span("a"):
            pass
        (only,) = tracer.finished()
        assert only.duration_ns == 10

    def test_attrs_at_creation_and_set_attrs(self, tracer):
        with tracer.span("a", experiment="fig6") as s:
            s.set_attrs(backend="grid", level=2)
        (only,) = tracer.finished()
        assert only.attrs == {
            "experiment": "fig6",
            "backend": "grid",
            "level": 2,
        }

    def test_current_tracks_innermost(self, tracer):
        assert tracer.current() is None
        with tracer.span("a") as a:
            assert tracer.current() is a
            with tracer.span("b") as b:
                assert tracer.current() is b
            assert tracer.current() is a
        assert tracer.current() is None

    def test_out_of_order_exit_raises(self, tracer):
        a = tracer.span("a")
        b = tracer.span("b")
        a.__enter__()
        b.__enter__()
        with pytest.raises(RuntimeError, match="out of order"):
            a.__exit__(None, None, None)

    def test_exception_still_finishes_span(self, tracer):
        with pytest.raises(ValueError):
            with tracer.span("doomed"):
                raise ValueError("boom")
        assert len(tracer) == 1
        assert tracer.current() is None

    def test_clear_resets_ids(self, tracer):
        with tracer.span("a"):
            pass
        tracer.clear()
        assert len(tracer) == 0
        with tracer.span("b"):
            pass
        assert tracer.finished()[0].span_id == 0

    def test_threads_densified_in_first_seen_order(self, tracer):
        with tracer.span("main"):
            worker = threading.Thread(target=lambda: tracer.span("w").__enter__().__exit__(None, None, None))
            worker.start()
            worker.join()
        by_name = {s.name: s for s in tracer.finished()}
        assert by_name["main"].thread_index == 0
        assert by_name["w"].thread_index == 1
        # Worker spans root their own stack: no cross-thread parent.
        assert by_name["w"].parent_id is None


class TestModuleLevelSpan:
    def test_disabled_returns_null_singleton(self):
        assert current_tracer() is None
        s = span("anything", key="value")
        assert s is NULL_SPAN
        with s:
            s.set_attrs(more=1)  # ignored, no-op

    def test_install_and_restore(self, tracer):
        assert use_tracer(tracer) is None
        try:
            with span("live"):
                pass
            assert len(tracer) == 1
        finally:
            assert use_tracer(None) is tracer
        assert span("dead") is NULL_SPAN

    def test_installed_fixture_routes_spans(self, installed):
        with span("a", x=1):
            pass
        assert [s.name for s in installed.finished()] == ["a"]


class TestChromeTrace:
    def test_payload_shape(self, tracer):
        with tracer.span("outer", experiment="fig6"):
            with tracer.span("inner", batch=0):
                pass
        payload = chrome_trace(tracer.finished(), process_name="test")
        assert payload["schema"] == TRACE_SCHEMA
        assert payload["displayTimeUnit"] == "ms"
        meta, outer, inner = payload["traceEvents"]
        assert meta == {
            "name": "process_name",
            "ph": "M",
            "pid": 1,
            "tid": 0,
            "args": {"name": "test"},
        }
        assert outer["ph"] == "X"
        assert outer["name"] == "outer"
        assert outer["args"]["experiment"] == "fig6"
        assert outer["args"]["span_id"] == 0
        assert "parent_id" not in outer["args"]
        assert inner["args"]["parent_id"] == 0
        assert inner["ts"] >= outer["ts"]
        assert inner["dur"] <= outer["dur"]
        json.dumps(payload)  # JSON-serialisable as-is

    def test_non_scalar_attrs_stringified(self, tracer):
        with tracer.span("a", shape=(3, 2), ok=True, none=None):
            pass
        payload = chrome_trace(tracer.finished())
        args = payload["traceEvents"][1]["args"]
        assert args["shape"] == "(3, 2)"
        assert args["ok"] is True
        assert args["none"] is None

    def test_round_trip_preserves_tree(self, tracer, tmp_path):
        with tracer.span("root"):
            with tracer.span("left"):
                with tracer.span("leaf"):
                    pass
            with tracer.span("right"):
                pass
        spans = tracer.finished()
        path = tmp_path / "trace.json"
        write_chrome_trace(path, spans)
        events = span_events(json.loads(path.read_text()))
        assert parent_ids(events) == {s.span_id: s.parent_id for s in spans}
        assert [e["name"] for e in events] == [s.name for s in spans]


class TestFoldedStacks:
    def test_self_time_excludes_children(self):
        clock = fake_clock(1000)  # 1µs per tick
        t = Tracer(clock=clock)
        with t.span("root"):          # ticks 1..6: dur 5µs
            with t.span("child"):     # ticks 2..3: dur 1µs
                pass
            with t.span("child"):     # ticks 4..5: dur 1µs
                pass
        lines = folded_stacks(t.finished())
        assert lines == ["root 3", "root;child 2"]

    def test_files_written(self, tracer, tmp_path):
        with tracer.span("root"):
            pass
        trace_path = tmp_path / "trace.json"
        folded_path = tmp_path / "trace.folded"
        write_chrome_trace(trace_path, tracer.finished(), profile={"x": 1})
        write_folded(folded_path, tracer.finished())
        payload = json.loads(trace_path.read_text())
        assert payload["profile"] == {"x": 1}
        assert span_events(payload)[0]["name"] == "root"
        assert folded_path.read_text().startswith("root ")


class TestCpuTime:
    """Per-span CPU time: injected cpu clock, exporters, cpu folded."""

    def test_cpu_ns_from_injected_cpu_clock(self):
        t = Tracer(clock=fake_clock(10), cpu_clock=fake_clock(3))
        with t.span("a"):
            pass
        (only,) = t.finished()
        assert only.duration_ns == 10
        assert only.cpu_ns == 3

    def test_real_cpu_clock_never_exceeds_wall_by_much(self):
        t = Tracer()
        with t.span("busy"):
            sum(range(10_000))
        (only,) = t.finished()
        assert only.cpu_ns >= 0
        # Single-threaded spans burn at most their wall time (plus
        # scheduler noise well under the span's own duration).
        assert only.cpu_ns <= only.duration_ns * 2 + 1_000_000

    def test_chrome_trace_carries_cpu_us(self):
        t = Tracer(clock=fake_clock(10), cpu_clock=fake_clock(4000))
        with t.span("a"):
            pass
        event = chrome_trace(t.finished())["traceEvents"][1]
        assert event["args"]["cpu_us"] == 4.0

    def test_round_trip_preserves_cpu_us(self, tmp_path):
        t = Tracer(clock=fake_clock(10), cpu_clock=fake_clock(5000))
        with t.span("a"):
            pass
        path = tmp_path / "trace.json"
        write_chrome_trace(path, t.finished())
        (event,) = span_events(json.loads(path.read_text()))
        assert event["args"]["cpu_us"] == 5.0

    def test_folded_cpu_metric(self):
        t = Tracer(clock=fake_clock(1000), cpu_clock=fake_clock(2000))
        with t.span("root"):
            with t.span("child"):
                pass
        wall = folded_stacks(t.finished(), metric="wall")
        cpu = folded_stacks(t.finished(), metric="cpu")
        assert wall == ["root 2", "root;child 1"]
        assert cpu == ["root 4", "root;child 2"]

    def test_folded_rejects_unknown_metric(self):
        with pytest.raises(ValueError, match="unknown metric"):
            folded_stacks([], metric="gpu")


class TestExportRoundTrips:
    """A simulated run's span tree survives the written Chrome trace
    intact, with its run attributes and nesting."""

    @pytest.fixture
    def traced_run(self):
        """Simulate with the process tracer installed; yield the tracer."""
        tracer = Tracer()
        previous = use_tracer(tracer)
        try:
            simulate(
                two_level_description(),
                UniformPointWorkload(),
                buffer_size=3,
                n_batches=2,
                batch_size=50,
            )
            yield tracer
        finally:
            use_tracer(previous)

    def test_simulate_spans_round_trip(self, traced_run, tmp_path):
        spans = traced_run.finished()
        names = {s.name for s in spans}
        assert {"simulate", "simulate.measure", "simulate.batch"} <= names
        path = tmp_path / "trace.json"
        write_chrome_trace(path, spans)
        events = span_events(json.loads(path.read_text()))
        assert parent_ids(events) == {s.span_id: s.parent_id for s in spans}
        # Batch spans keep their indices through the round-trip.
        batches = sorted(
            e["args"]["batch"] for e in events
            if e["name"] == "simulate.batch"
        )
        assert batches == [0, 1]

    def test_root_span_carries_run_attributes(self, traced_run):
        root = next(s for s in traced_run.finished() if s.name == "simulate")
        assert root.parent_id is None
        assert root.attrs["buffer_size"] == 3
        assert root.attrs["n_batches"] == 2
        assert "backend" in root.attrs

    def test_chrome_trace_events_nest_within_root(self, traced_run):
        events = span_events(chrome_trace(traced_run.finished()))
        root = next(e for e in events if e["name"] == "simulate")
        t0, t1 = root["ts"], root["ts"] + root["dur"]
        for event in events:
            if event["args"].get("parent_id") == root["args"]["span_id"]:
                assert t0 <= event["ts"]
                assert event["ts"] + event["dur"] <= t1 + 1e-6
