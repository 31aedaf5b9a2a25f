"""The serve-report CLI: rendering, convergence call-out, exit codes.

Thin wrapper over ``tools/serve_report.py`` (same pattern as
``tests/test_bench_history.py``): the report is CI's artifact of
record for the serving smoke run, so its exit codes and the sections
it renders are tier-1 behaviour, not cosmetics.
"""

import importlib.util
import io
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.obs import TelemetrySink
from repro.packing import pack_description
from repro.queries import UniformPointWorkload
from repro.serving import QueryService
from tests.conftest import random_rects

REPO_ROOT = Path(__file__).resolve().parent.parent
_SPEC = importlib.util.spec_from_file_location(
    "serve_report", REPO_ROOT / "tools" / "serve_report.py"
)
serve_report = importlib.util.module_from_spec(_SPEC)
sys.modules.setdefault("serve_report", serve_report)
_SPEC.loader.exec_module(serve_report)


class _Clock:
    def __init__(self) -> None:
        self.now = 0

    def __call__(self) -> int:
        return self.now


@pytest.fixture(scope="module")
def stream_path(tmp_path_factory):
    """A real 2-shard stream written by the sink itself."""
    path = tmp_path_factory.mktemp("telemetry") / "stream.jsonl"
    rng = np.random.default_rng(31)
    desc = pack_description(random_rects(rng, 400), 10, "hs")
    service = QueryService(desc, UniformPointWorkload(), 16, shards=2)
    clock = _Clock()
    sink = TelemetrySink(
        service,
        path=str(path),
        clock=clock,
        config={"dataset": "unit", "workload": "uniform-point"},
        model={"hit_ratio": 0.35},
    )
    for _ in range(4):
        service.process(service.workload.sample_points(200, rng))
        clock.now += 100_000_000
        sink.tick()
    sink.close()
    return path


class TestRender:
    def test_report_covers_every_section(self, stream_path, capsys):
        assert serve_report.main([str(stream_path)]) == 0
        out = capsys.readouterr().out
        assert "serving telemetry report" in out
        assert "dataset=unit" in out
        assert "predicted steady-state hit ratio: 0.3500" in out
        assert "convergence vs model" in out
        assert "per-shard totals" in out
        assert "hit-ratio spread" in out

    def test_timeline_has_one_row_per_tick(self, stream_path, capsys):
        assert serve_report.main([str(stream_path)]) == 0
        out = capsys.readouterr().out
        # 4 driven ticks + the final close() tick, each with a bar.
        assert out.count("[#") + out.count("[ ") + out.count("[|") == 5

    def test_width_flag_resizes_the_bar(self, stream_path, capsys):
        assert serve_report.main(["--width", "10", str(stream_path)]) == 0
        assert serve_report.main(["--width", "50", str(stream_path)]) == 0

    def test_reset_is_marked_and_restarts_the_deltas(self, tmp_path, capsys):
        path = tmp_path / "reset.jsonl"
        rng = np.random.default_rng(4)
        desc = pack_description(random_rects(rng, 400), 10, "hs")
        service = QueryService(desc, UniformPointWorkload(), 16)
        clock = _Clock()
        with TelemetrySink(service, path=str(path), clock=clock) as sink:
            for n, reset in ((120, False), (80, True), (60, False)):
                service.process(service.workload.sample_points(n, rng))
                if reset:
                    service.reset_measurement()
                    service.process(service.workload.sample_points(30, rng))
                clock.now += 100_000_000
                sink.tick()
        assert serve_report.main([str(path)]) == 0
        rows = [
            line.split() for line in capsys.readouterr().out.splitlines()
            if line.endswith("(reset)")
        ]
        assert len(rows) == 1
        assert rows[0][0] == "1" and rows[0][3] == "30"  # tick, queries

    def test_bar_marks_the_model_prediction(self):
        bar = serve_report._bar(0.5, 20, 0.8)
        assert bar[:10] == "#" * 10
        assert bar[15] == "|"
        assert serve_report._bar(None, 10, None) == " " * 10


class TestExitCodes:
    def test_missing_file_exits_nonzero(self, tmp_path, capsys):
        assert serve_report.main([str(tmp_path / "nope.jsonl")]) == 1
        assert "invalid telemetry stream" in capsys.readouterr().err

    def test_corrupt_stream_exits_nonzero(self, stream_path, tmp_path, capsys):
        lines = stream_path.read_text().splitlines()
        tick = json.loads(lines[1])
        tick["shards"][0]["hits"] += 1  # break the shard-sum invariant
        lines[1] = json.dumps(tick)
        bad = tmp_path / "bad.jsonl"
        bad.write_text("\n".join(lines) + "\n")
        assert serve_report.main([str(bad)]) == 1
        assert "invalid telemetry stream" in capsys.readouterr().err

    def test_header_only_stream_exits_nonzero(self, stream_path, tmp_path, capsys):
        header_only = tmp_path / "header.jsonl"
        header_only.write_text(stream_path.read_text().splitlines()[0] + "\n")
        assert serve_report.main([str(header_only)]) == 1
        assert "no ticks" in capsys.readouterr().err
