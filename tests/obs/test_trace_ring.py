"""Span-trace export round-trips.

A simulated run's span tree must survive a Chrome-trace dump/parse
round-trip intact, with its run attributes and nesting.
"""

import json

import pytest

from repro.obs import (
    Tracer,
    chrome_trace,
    parse_chrome_trace,
    span_tree,
    use_tracer,
    write_chrome_trace,
)
from repro.queries import UniformPointWorkload
from repro.simulation import simulate
from tests.obs.test_levels import two_level_description


class TestExportRoundTrips:
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
        tracer = traced_run
        spans = tracer.finished()
        names = {s.name for s in spans}
        assert {"simulate", "simulate.measure", "simulate.batch"} <= names
        path = tmp_path / "trace.json"
        write_chrome_trace(path, spans)
        nodes = parse_chrome_trace(json.loads(path.read_text()))
        assert span_tree(nodes) == span_tree(spans)
        # Batch spans keep their indices through the round-trip.
        batches = sorted(
            n.attrs["batch"] for n in nodes if n.name == "simulate.batch"
        )
        assert batches == [0, 1]

    def test_root_span_carries_run_attributes(self, traced_run):
        tracer = traced_run
        root = next(s for s in tracer.finished() if s.name == "simulate")
        assert root.parent_id is None
        assert root.attrs["buffer_size"] == 3
        assert root.attrs["n_batches"] == 2
        assert "backend" in root.attrs

    def test_chrome_trace_events_nest_within_root(self, traced_run):
        tracer = traced_run
        payload = chrome_trace(tracer.finished())
        events = [e for e in payload["traceEvents"] if e["ph"] == "X"]
        root = next(e for e in events if e["name"] == "simulate")
        t0, t1 = root["ts"], root["ts"] + root["dur"]
        for event in events:
            if event["args"].get("parent_id") == root["args"]["span_id"]:
                assert t0 <= event["ts"]
                assert event["ts"] + event["dur"] <= t1 + 1e-6
