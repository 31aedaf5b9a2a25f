"""The ``--metrics-out`` export path of ``repro-experiments``."""

import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import pytest

from repro.experiments.common import get_description
from repro.experiments.probes import (
    METRICS_PROBES,
    SERVE_PROBES,
    ProbeSpec,
    ServeProbeSpec,
    SweepProbeSpec,
    run_probe,
    run_serve_probe,
    run_sweep_probe,
)
from repro.experiments.runner import EXPERIMENTS, METAS, main
from repro.model import buffer_model
from repro.obs import SCHEMA_VERSION, load_report, read_telemetry
from repro.queries import UniformPointWorkload

TINY_PROBE = ProbeSpec("point", 400, 10, "hs", "uniform-point", 10)
"""A probe small enough for the unit-test budget."""

TINY_SERVE_PROBE = ServeProbeSpec(
    "point", 400, 10, "hs", "uniform-point", 10,
    rate_qps=50_000.0, n_queries=150, max_batch=32,
)
"""A serving probe small enough for the unit-test budget."""

REPO_ROOT = Path(__file__).parents[2]


@dataclass(frozen=True)
class _StubResult:
    value: float

    def to_text(self) -> str:
        return f"stub value {self.value}"


@pytest.fixture
def stub_experiment(monkeypatch):
    """Replace fig5 with a fast stub and a tiny probe."""
    monkeypatch.setitem(EXPERIMENTS, "fig5", lambda: _StubResult(1.5))
    monkeypatch.setitem(METRICS_PROBES, "fig5", TINY_PROBE)
    monkeypatch.setitem(SERVE_PROBES, "fig5", TINY_SERVE_PROBE)


class TestProbes:
    def test_every_experiment_has_a_probe(self):
        assert set(METRICS_PROBES) == set(EXPERIMENTS)

    def test_every_experiment_has_meta(self):
        assert set(METAS) == set(EXPERIMENTS)

    def test_run_probe_produces_instrumented_result(self):
        result, probe = run_probe(TINY_PROBE, n_batches=2, batch_size=200)
        assert result.level_stats is not None
        assert sum(row.requests for row in result.level_stats) == sum(
            stats.requests for stats in result.batch_stats
        )
        assert probe["dataset"] == "point" and probe["batch_size"] == 200

    def test_unknown_workload_rejected(self):
        bad = ProbeSpec("point", 400, 10, "hs", "nope", 10)
        with pytest.raises(ValueError, match="unknown probe workload"):
            run_probe(bad)

    def test_sweep_probe_mapping(self):
        spec = SweepProbeSpec(
            "point", 400, 10, "hs", "uniform-point", (5, 10),
            warmup_queries=64,
        )
        results, probe = run_sweep_probe(spec, n_batches=2, batch_size=200)
        assert len(results) == 2
        assert probe == {
            "dataset": "point",
            "n": 400,
            "capacity": 10,
            "loader": "hs",
            "workload": "uniform-point",
            "buffer_sizes": (5, 10),
            "pinned_levels": 0,
            "warmup_queries": 64,
            "n_batches": 2,
            "batch_size": 200,
        }


class TestMetricsOut:
    def test_writes_schema_valid_report(self, tmp_path, stub_experiment, capsys):
        path = tmp_path / "out.json"
        assert main(["--metrics-out", str(path), "fig5"]) == 0
        out = capsys.readouterr().out
        assert "metrics for 1 experiment(s)" in out
        report = load_report(path)  # validates on load
        (doc,) = report["documents"]
        assert doc["experiment"]["name"] == "fig5"
        assert doc["experiment"]["source"] == METAS["fig5"]["source"]
        assert doc["result"] == {"value": 1.5}
        assert doc["wall_seconds"] >= 0.0
        probe = doc["simulation"]["probe"]
        assert (probe["n_batches"], probe["batch_size"]) == (5, 2000)
        assert doc["schema_version"] == SCHEMA_VERSION == 3
        # metrics holds only the probe timers; fig5 has no sweep probe
        assert list(doc["metrics"]) == ["timers"]
        assert list(doc["metrics"]["timers"]) == ["probe.wall"]
        timer = doc["metrics"]["timers"]["probe.wall"]
        assert timer["count"] == 1 and timer["total_seconds"] > 0.0
        assert "trace" not in doc["simulation"]

    def test_per_level_sums_match_aggregate(self, tmp_path, stub_experiment):
        path = tmp_path / "out.json"
        assert main(["--metrics-out", str(path), "fig5"]) == 0
        simulation = load_report(path)["documents"][0]["simulation"]
        for key in ("requests", "hits", "misses", "evictions"):
            assert simulation["aggregate"][key] == sum(
                row[key] for row in simulation["per_level"]
            )

    def test_failed_experiment_skipped_but_file_written(
        self, tmp_path, stub_experiment, monkeypatch, capsys
    ):
        def boom():
            raise RuntimeError("crash")

        monkeypatch.setitem(EXPERIMENTS, "fig6", boom)
        path = tmp_path / "out.json"
        assert main(["--metrics-out", str(path), "fig6", "fig5"]) == 1
        report = load_report(path)
        names = [d["experiment"]["name"] for d in report["documents"]]
        assert names == ["fig5"]

    def test_no_flag_writes_nothing(self, tmp_path, stub_experiment, capsys):
        assert main(["fig5"]) == 0
        assert "metrics for" not in capsys.readouterr().out
        assert list(tmp_path.iterdir()) == []


class TestServeMode:
    def test_serve_probes_cover_known_experiments(self):
        assert set(SERVE_PROBES) <= set(EXPERIMENTS)
        assert SERVE_PROBES  # at least one experiment is served

    def test_run_serve_probe_produces_report(self):
        report, probe, telemetry = run_serve_probe(TINY_SERVE_PROBE)
        assert report.queries == 150
        assert report.shards == 1
        assert report.latency_summary_us["p99"] > 0
        assert probe["dataset"] == "point"
        assert probe["shards"] == 1
        assert telemetry is None  # off by default

    def test_serve_honours_shard_env(
        self, tmp_path, stub_experiment, monkeypatch
    ):
        monkeypatch.setenv("REPRO_SERVE_SHARDS", "2")
        path = tmp_path / "out.json"
        assert main(["--serve", "--metrics-out", str(path), "fig5"]) == 0
        (doc,) = load_report(path)["documents"]
        assert doc["serving"]["buffer"]["shards"] == 2
        assert doc["serving"]["probe"]["shards"] == 2

    @pytest.mark.parametrize(
        "variable, value",
        [
            ("REPRO_SIM_BATCHES", "abc"),
            ("REPRO_SIM_BATCHES", "1"),
            ("REPRO_SIM_BATCHES", "2.5"),
            ("REPRO_SIM_QUERIES", "0"),
            ("REPRO_SIM_QUERIES", ""),
            ("REPRO_SERVE_SHARDS", "two"),
            ("REPRO_SERVE_SHARDS", "0"),
        ],
    )
    def test_bad_setting_exits_before_any_experiment(
        self, tmp_path, monkeypatch, capsys, variable, value
    ):
        monkeypatch.setenv(variable, value)
        path = tmp_path / "out.json"
        with pytest.raises(SystemExit) as exc:
            main(["--serve", "--metrics-out", str(path), "table2"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{variable}={value!r}" in captured.err
        assert not path.exists()

    def test_serve_probe_streams_telemetry(self, tmp_path):
        stream = tmp_path / "telemetry.jsonl"
        report, probe, telemetry = run_serve_probe(
            TINY_SERVE_PROBE, telemetry_out=str(stream)
        )
        assert telemetry is not None
        assert telemetry["path"] == str(stream)
        header, ticks = read_telemetry(stream)  # validates every invariant
        assert header["model"]["hit_ratio"] == pytest.approx(
            buffer_model(
                get_description("point", 400, 10, "hs"),
                UniformPointWorkload(),
                TINY_SERVE_PROBE.buffer_size,
            ).hit_ratio
        )
        final = ticks[-1]["shards"]
        assert final == [
            {key: row[key] for key in final[0]}
            for row in report.buffer_per_shard
        ]

    def test_serve_requires_metrics_out(self, stub_experiment, capsys):
        with pytest.raises(SystemExit):
            main(["--serve", "fig5"])
        assert "--metrics-out" in capsys.readouterr().err

    def test_serve_adds_serving_section(self, tmp_path, stub_experiment):
        path = tmp_path / "out.json"
        assert main(["--serve", "--metrics-out", str(path), "fig5"]) == 0
        (doc,) = load_report(path)["documents"]  # validates on load
        assert list(doc["metrics"]["timers"]) == [
            "probe.wall", "serve_probe.wall",
        ]
        serving = doc["serving"]
        assert serving is not None
        assert serving["queries"] == 150
        assert serving["latency_us"]["count"] == 150
        assert serving["buffer"]["shards"] == 1
        agg = serving["buffer"]["aggregate"]
        for key in ("requests", "hits", "misses", "evictions"):
            assert agg[key] == sum(
                row[key] for row in serving["buffer"]["per_shard"]
            )

    def test_without_serve_flag_section_is_none(
        self, tmp_path, stub_experiment
    ):
        path = tmp_path / "out.json"
        assert main(["--metrics-out", str(path), "fig5"]) == 0
        (doc,) = load_report(path)["documents"]
        assert doc["serving"] is None


class TestTelemetryOut:
    def test_telemetry_requires_serve(self, stub_experiment, capsys):
        with pytest.raises(SystemExit):
            main(["--metrics-out", "x.json", "--telemetry-out", "t.jsonl",
                  "fig5"])
        assert "--serve" in capsys.readouterr().err

    def test_telemetry_stream_reconciles_with_document(
        self, tmp_path, stub_experiment
    ):
        metrics = tmp_path / "out.json"
        stream = tmp_path / "telemetry.jsonl"
        assert main([
            "--serve", "--metrics-out", str(metrics),
            "--telemetry-out", str(stream), "fig5",
        ]) == 0
        (doc,) = load_report(metrics)["documents"]  # validates on load,
        # including the telemetry-vs-buffer reconciliation
        telemetry = doc["serving"]["telemetry"]
        assert telemetry is not None
        assert telemetry["path"] == str(stream)
        header, ticks = read_telemetry(stream)
        assert header["config"]["dataset"] == "point"
        assert (
            sum(row["requests"] for row in ticks[-1]["shards"])
            == doc["serving"]["buffer"]["aggregate"]["requests"]
        )

    def test_multiple_experiments_get_distinct_streams(
        self, tmp_path, stub_experiment, monkeypatch
    ):
        monkeypatch.setitem(EXPERIMENTS, "fig6", lambda: _StubResult(2.5))
        monkeypatch.setitem(METRICS_PROBES, "fig6", TINY_PROBE)
        monkeypatch.setitem(SERVE_PROBES, "fig6", TINY_SERVE_PROBE)
        metrics = tmp_path / "out.json"
        stream = tmp_path / "telemetry.jsonl"
        assert main([
            "--serve", "--metrics-out", str(metrics),
            "--telemetry-out", str(stream), "fig5", "fig6",
        ]) == 0
        assert (tmp_path / "telemetry-fig5.jsonl").exists()
        assert (tmp_path / "telemetry-fig6.jsonl").exists()
        assert not stream.exists()


class TestPerfbenchContract:
    def test_check_report_adds_probe_timers(self, tmp_path):
        # perfbench's reproduce_all times each artefact as its run plus
        # its probe and sweep-probe timers; Fig. 11 has both probes.
        from perfbench.reproduce import check_report

        path = tmp_path / "metrics.json"
        assert main(["fig11", "--metrics-out", str(path)]) == 0
        failures, failed, artefact_s, _ = check_report(
            path, ["fig11"], {"sim_batches": 2, "sim_queries": 100}, None
        )
        assert failures == [] and failed == set()
        (doc,) = load_report(path)["documents"]
        timers = doc["metrics"]["timers"]
        probes = (
            timers["probe.wall"]["total_seconds"]
            + timers["sweep_probe.wall"]["total_seconds"]
        )
        assert probes > 0.0
        assert artefact_s["fig11"] == pytest.approx(
            doc["wall_seconds"] + probes
        )


class TestModuleInvocation:
    def test_runner_runs_as_a_module_without_warnings(self):
        # ``python -m repro.experiments.runner`` (the form CI and the
        # docs use) warns if importing the package already imported
        # the runner, so the package must not re-export from it.
        path = os.pathsep.join(
            [str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH", "")]
        )
        done = subprocess.run(
            [
                sys.executable, "-W", "error::RuntimeWarning",
                "-m", "repro.experiments.runner", "table2",
            ],
            env={**os.environ, "PYTHONPATH": path},
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert done.stderr == ""
        assert "Table 2" in done.stdout
