"""Profiler: tracemalloc lifecycle, span tagging, report shape."""

import tracemalloc

import pytest

from repro.obs import Profiler, Tracer


@pytest.fixture(autouse=True)
def _no_ambient_tracemalloc():
    """These tests own the tracemalloc lifecycle; skip if it's already on."""
    if tracemalloc.is_tracing():
        pytest.skip("tracemalloc already tracing (PYTHONTRACEMALLOC?)")
    yield
    assert not tracemalloc.is_tracing(), "test leaked a tracing session"


class TestLifecycle:
    def test_start_stop_owns_tracemalloc(self):
        profiler = Profiler()
        assert not profiler.active
        profiler.start()
        assert profiler.active
        profiler.stop()
        assert not profiler.active

    def test_context_manager(self):
        with Profiler() as profiler:
            assert profiler.active
        assert not tracemalloc.is_tracing()

    def test_stop_detaches_probe(self):
        tracer = Tracer()
        with Profiler() as profiler:
            profiler.attach(tracer)
            assert tracer.memory_probe is not None
        assert tracer.memory_probe is None

    def test_top_n_validation(self):
        with pytest.raises(ValueError):
            Profiler(top_n=0)


class TestSpanTagging:
    def test_spans_gain_mem_delta(self):
        tracer = Tracer()
        with Profiler() as profiler:
            profiler.attach(tracer)
            with tracer.span("alloc"):
                blob = [bytearray(64 * 1024) for _ in range(4)]
            assert blob is not None
        (only,) = tracer.finished()
        assert "mem_delta_kb" in only.attrs
        assert only.attrs["mem_delta_kb"] > 100  # ~256 KiB allocated
        assert "_mem_start" not in only.attrs  # bookkeeping cleaned up


class TestReport:
    def test_report_schema_and_sites(self):
        with Profiler(top_n=5) as profiler:
            keep = [bytearray(128 * 1024)]
            report = profiler.report()
        assert keep
        assert set(report) == {
            "tracing", "current_kb", "peak_kb", "top_n", "top_allocations",
        }
        assert report["tracing"] is True
        assert report["top_n"] == 5
        assert report["current_kb"] > 0
        assert report["peak_kb"] >= report["current_kb"]
        assert 0 < len(report["top_allocations"]) <= 5
        for site in report["top_allocations"]:
            assert set(site) == {"site", "kb", "blocks"}
            assert ":" in site["site"]

    def test_report_when_not_tracing(self):
        report = Profiler().report()
        assert report["tracing"] is False
        assert report["current_kb"] == 0
        assert report["top_allocations"] == []
