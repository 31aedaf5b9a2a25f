"""The repro-metrics JSON schema: sanitisation, validation, round-trip."""

import json
from dataclasses import dataclass

import numpy as np
import pytest

from repro.obs import (
    SCHEMA_NAME,
    SCHEMA_VERSION,
    experiment_document,
    load_report,
    metrics_report,
    simulation_section,
    validate_document,
    validate_report,
    write_report,
)
from repro.obs.export import sanitize
from repro.queries import UniformPointWorkload
from repro.simulation import simulate
from tests.obs.test_levels import two_level_description


@dataclass(frozen=True)
class _FakeResult:
    curves: dict
    sizes: tuple


def instrumented_result(**overrides):
    kwargs = dict(buffer_size=1, n_batches=3, batch_size=200)
    kwargs.update(overrides)
    return simulate(
        two_level_description(),
        UniformPointWorkload(),
        level_stats=True,
        **kwargs,
    )


class TestSanitize:
    def test_dataclasses_tuples_and_numpy(self):
        value = _FakeResult(
            curves={("hs", 300): (np.float64(1.5), 2)},
            sizes=(np.int64(10), 20),
        )
        cleaned = sanitize(value)
        assert cleaned == {"curves": {"hs/300": [1.5, 2]}, "sizes": [10, 20]}
        json.dumps(cleaned)  # round-trippable

    def test_sets_sorted_non_str_keys_coerced(self):
        assert sanitize({3: {2, 1}}) == {"3": [1, 2]}

    def test_unknown_type_raises(self):
        with pytest.raises(TypeError):
            sanitize(object())


class TestSimulationSection:
    def test_requires_level_stats(self):
        bare = simulate(
            two_level_description(), UniformPointWorkload(), 2,
            n_batches=2, batch_size=100,
        )
        with pytest.raises(ValueError):
            simulation_section(bare, {})

    def test_aggregate_equals_column_sums(self):
        section = simulation_section(instrumented_result(), {"dataset": "x"})
        for key in ("requests", "hits", "misses", "evictions"):
            assert section["aggregate"][key] == sum(
                row[key] for row in section["per_level"]
            )
            assert section["aggregate"][key] == sum(
                row[key] for row in section["per_batch"]
            )
        assert section["probe"] == {"dataset": "x"}
        assert "trace" not in section


class TestDocumentValidation:
    def make_document(self):
        section = simulation_section(instrumented_result(), {"dataset": "x"})
        return experiment_document(
            name="fake",
            meta={"title": "Fake", "source": "Fig. 0"},
            result=_FakeResult(curves={}, sizes=(1,)),
            wall_seconds=0.25,
            simulation=section,
            timers={
                "sweep_probe.wall": {"total_seconds": 0.5, "count": 1},
                "probe.wall": {"total_seconds": 0.25, "count": 1},
            },
        )

    def test_valid_document_passes(self):
        doc = self.make_document()
        validate_document(doc)
        assert list(doc["metrics"]["timers"]) == [
            "probe.wall", "sweep_probe.wall",
        ]

    @pytest.mark.parametrize(
        "metrics",
        [
            {"timers": {}, "counters": {}},
            {"timers": {"probe.wall": {"total_seconds": "1"}}},
            {"timers": {"probe.wall": {"total_seconds": 1.0, "count": 1.0}}},
        ],
        ids=["extra-key", "bad-seconds", "bad-count"],
    )
    def test_v3_metrics_hold_only_timers(self, metrics):
        doc = self.make_document()
        doc["metrics"] = metrics
        with pytest.raises(ValueError):
            validate_document(doc)

    def test_v2_document_with_counters_still_loads(self):
        doc = self.make_document()
        doc["schema_version"] = 2
        doc["metrics"] = {
            "counters": {"buffer.requests": 3},
            "gauges": {"sim.batches": 3},
            "timers": {},
        }
        doc["simulation"]["trace"] = []
        validate_document(doc)

    def test_wrong_schema_rejected(self):
        doc = self.make_document()
        doc["schema"] = "other"
        with pytest.raises(ValueError):
            validate_document(doc)

    def test_future_version_rejected(self):
        doc = self.make_document()
        doc["schema_version"] = SCHEMA_VERSION + 1
        with pytest.raises(ValueError):
            validate_document(doc)

    def test_level_sum_mismatch_rejected(self):
        doc = self.make_document()
        doc["simulation"]["per_level"][0]["hits"] += 1
        with pytest.raises(ValueError, match="per-level hits"):
            validate_document(doc)

    def test_batch_sum_mismatch_rejected(self):
        doc = self.make_document()
        doc["simulation"]["per_batch"][0]["misses"] += 1
        with pytest.raises(ValueError, match="per-batch misses"):
            validate_document(doc)

    def test_simulation_free_document_is_valid(self):
        doc = experiment_document(
            name="fake", meta={}, result={"rows": [1, 2]}, wall_seconds=0.1
        )
        validate_document(doc)
        assert doc["simulation"] is None and doc["metrics"] is None


class TestServingSection:
    def make_report(self):
        from repro.serving import LoadReport

        return LoadReport(
            queries=10,
            wall_seconds=0.5,
            throughput_qps=20.0,
            offered_rate_qps=25.0,
            batches=4,
            shards=2,
            latency_summary_us={
                "count": 10, "mean": 30.0, "max": 90.0,
                "p50": 20.0, "p95": 60.0, "p99": 80.0,
            },
            latency_histogram_us={
                "bounds_us": [1.0, 10.0, 100.0, 1000.0],
                "counts": [2, 5, 3],
            },
            buffer_aggregate={
                "requests": 30, "hits": 12, "misses": 18, "evictions": 5,
            },
            buffer_per_shard=(
                {
                    "shard_id": 0, "capacity": 10,
                    "requests": 18, "hits": 7, "misses": 11, "evictions": 3,
                },
                {
                    "shard_id": 1, "capacity": 10,
                    "requests": 12, "hits": 5, "misses": 7, "evictions": 2,
                },
            ),
            buffer_capacity=20,
        )

    def make_telemetry(self):
        """A pointer block that reconciles with :meth:`make_report`."""
        return {
            "schema": "repro-telemetry/1",
            "path": "telemetry.jsonl",
            "interval_s": 0.1,
            "ticks": 3,
            "final": {
                "aggregate": {
                    "requests": 30, "hits": 12, "misses": 18,
                    "evictions": 5,
                },
                "shards": [
                    {
                        "shard_id": 0, "requests": 18, "hits": 7,
                        "misses": 11, "evictions": 3,
                    },
                    {
                        "shard_id": 1, "requests": 12, "hits": 5,
                        "misses": 7, "evictions": 2,
                    },
                ],
            },
        }

    def make_document(self, telemetry=None, **section_overrides):
        from repro.obs import serving_section

        section = serving_section(
            self.make_report(), {"dataset": "x"}, telemetry=telemetry
        )
        section.update(section_overrides)
        return experiment_document(
            name="fake",
            meta={},
            result={"rows": [1]},
            wall_seconds=0.1,
            serving=section,
        )

    def test_section_shape(self):
        from repro.obs import serving_section

        section = serving_section(self.make_report(), {"dataset": "x"})
        assert section["probe"] == {"dataset": "x"}
        assert section["queries"] == 10
        assert section["batches"] == {"count": 4, "mean_queries": 2.5}
        assert section["buffer"]["aggregate"]["hit_ratio"] == 12 / 30
        assert section["buffer"]["shards"] == 2
        json.dumps(section)  # exportable as-is

    def test_valid_document_passes(self):
        validate_document(self.make_document())

    def test_missing_key_rejected(self):
        doc = self.make_document()
        del doc["serving"]["latency_us"]
        with pytest.raises(ValueError, match="latency_us"):
            validate_document(doc)

    def test_unordered_percentiles_rejected(self):
        doc = self.make_document()
        doc["serving"]["latency_us"]["p95"] = 85.0  # > p99
        with pytest.raises(ValueError, match="ordered"):
            validate_document(doc)

    def test_latency_count_mismatch_rejected(self):
        doc = self.make_document()
        doc["serving"]["latency_us"]["count"] = 9
        with pytest.raises(ValueError, match="count"):
            validate_document(doc)

    def test_histogram_sum_mismatch_rejected(self):
        doc = self.make_document()
        doc["serving"]["histogram_us"]["counts"][0] += 1
        with pytest.raises(ValueError, match="histogram"):
            validate_document(doc)

    def test_histogram_bounds_shape_rejected(self):
        doc = self.make_document()
        doc["serving"]["histogram_us"]["bounds_us"].append(1e4)
        with pytest.raises(ValueError, match="bounds"):
            validate_document(doc)

    def test_shard_count_mismatch_rejected(self):
        doc = self.make_document()
        doc["serving"]["buffer"]["shards"] = 3
        with pytest.raises(ValueError, match="shard"):
            validate_document(doc)

    def test_shard_sum_mismatch_rejected(self):
        doc = self.make_document()
        doc["serving"]["buffer"]["per_shard"][0]["hits"] += 1
        with pytest.raises(ValueError):
            validate_document(doc)

    def test_shard_id_mismatch_rejected(self):
        doc = self.make_document()
        doc["serving"]["buffer"]["per_shard"][1]["shard_id"] = 0
        with pytest.raises(ValueError, match="shard_id"):
            validate_document(doc)

    def test_capacity_sum_mismatch_rejected(self):
        doc = self.make_document()
        doc["serving"]["buffer"]["per_shard"][0]["capacity"] = 11
        with pytest.raises(ValueError, match="capacit"):
            validate_document(doc)

    def test_missing_shard_capacity_rejected(self):
        doc = self.make_document()
        del doc["serving"]["buffer"]["per_shard"][0]["capacity"]
        with pytest.raises(ValueError, match="capacity"):
            validate_document(doc)

    def test_reconciling_telemetry_pointer_passes(self):
        doc = self.make_document(telemetry=self.make_telemetry())
        validate_document(doc)

    def test_telemetry_aggregate_mismatch_rejected(self):
        telemetry = self.make_telemetry()
        telemetry["final"]["aggregate"]["hits"] += 1
        doc = self.make_document(telemetry=telemetry)
        with pytest.raises(ValueError, match="telemetry final aggregate"):
            validate_document(doc)

    def test_telemetry_shard_row_mismatch_rejected(self):
        telemetry = self.make_telemetry()
        telemetry["final"]["shards"][1]["requests"] -= 1
        doc = self.make_document(telemetry=telemetry)
        with pytest.raises(ValueError, match="telemetry final shard"):
            validate_document(doc)

    def test_telemetry_shard_count_mismatch_rejected(self):
        telemetry = self.make_telemetry()
        telemetry["final"]["shards"].pop()
        doc = self.make_document(telemetry=telemetry)
        with pytest.raises(ValueError, match="shard rows"):
            validate_document(doc)

    def test_telemetry_wrong_schema_rejected(self):
        telemetry = self.make_telemetry()
        telemetry["schema"] = "repro-telemetry/9"
        doc = self.make_document(telemetry=telemetry)
        with pytest.raises(ValueError, match="telemetry schema"):
            validate_document(doc)

    def test_telemetry_without_ticks_rejected(self):
        telemetry = self.make_telemetry()
        telemetry["ticks"] = 0
        doc = self.make_document(telemetry=telemetry)
        with pytest.raises(ValueError, match="ticks"):
            validate_document(doc)

    def test_unbalanced_aggregate_rejected(self):
        doc = self.make_document()
        doc["serving"]["buffer"]["aggregate"]["hits"] = 13
        doc["serving"]["buffer"]["per_shard"][0]["hits"] = 8
        with pytest.raises(ValueError):
            validate_document(doc)

    def test_serving_free_document_is_valid(self):
        doc = experiment_document(
            name="fake", meta={}, result={}, wall_seconds=0.1
        )
        validate_document(doc)
        assert doc["serving"] is None


class TestReportRoundTrip:
    def test_write_then_load(self, tmp_path):
        doc = TestDocumentValidation().make_document()
        report = metrics_report([doc])
        path = tmp_path / "metrics.json"
        write_report(path, report)
        loaded = load_report(path)
        assert loaded == json.loads(json.dumps(report))  # lossless
        assert loaded["schema"] == SCHEMA_NAME
        assert loaded["schema_version"] == SCHEMA_VERSION
        assert loaded["generated_by"] == "repro-experiments"
        assert len(loaded["documents"]) == 1

    def test_write_rejects_invalid_report(self, tmp_path):
        with pytest.raises(ValueError):
            write_report(tmp_path / "bad.json", {"schema": SCHEMA_NAME})

    def test_validate_report_checks_every_document(self):
        doc = TestDocumentValidation().make_document()
        bad = dict(doc)
        bad["schema"] = "other"
        with pytest.raises(ValueError):
            validate_report(metrics_report([doc, bad]))
