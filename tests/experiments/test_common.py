"""Tests for the experiment harness infrastructure."""

import pytest

from repro.experiments.common import (
    Table,
    get_dataset,
    get_description,
    probe_budget,
    serve_shards,
    sim_batches,
    sim_queries_per_batch,
)


class TestDatasets:
    def test_caching_returns_same_object(self):
        a = get_dataset("region", 1000)
        b = get_dataset("region", 1000)
        assert a is b

    def test_sizes_required_for_synthetic(self):
        with pytest.raises(ValueError):
            get_dataset("region")
        with pytest.raises(ValueError):
            get_dataset("point")

    def test_unknown_dataset(self):
        with pytest.raises(ValueError):
            get_dataset("osm")

    def test_custom_sizes(self):
        assert len(get_dataset("tiger", 777)) == 777
        assert len(get_dataset("cfd", 555)) == 555

    def test_description_caching(self):
        a = get_description("region", 1000, 10, "hs")
        b = get_description("region", 1000, 10, "hs")
        assert a is b
        assert a.node_counts == (1, 10, 100)


class TestEnvKnobs:
    def test_defaults(self, monkeypatch):
        monkeypatch.delenv("REPRO_SIM_BATCHES", raising=False)
        monkeypatch.delenv("REPRO_SIM_QUERIES", raising=False)
        assert sim_batches() == 20
        assert sim_queries_per_batch() == 20000

    def test_overrides(self, monkeypatch):
        monkeypatch.setenv("REPRO_SIM_BATCHES", "5")
        monkeypatch.setenv("REPRO_SIM_QUERIES", "123")
        assert sim_batches() == 5
        assert sim_queries_per_batch() == 123

    def test_probe_budget_defaults(self, monkeypatch):
        monkeypatch.delenv("REPRO_PROBE_BATCHES", raising=False)
        monkeypatch.delenv("REPRO_PROBE_QUERIES", raising=False)
        assert probe_budget() == (5, 2000)

    def test_probe_budget_overrides(self, monkeypatch):
        monkeypatch.setenv("REPRO_PROBE_BATCHES", "3")
        monkeypatch.setenv("REPRO_PROBE_QUERIES", "77")
        assert probe_budget() == (3, 77)

    def test_probe_budget_validated(self, monkeypatch):
        monkeypatch.setenv("REPRO_PROBE_BATCHES", "1")
        with pytest.raises(ValueError, match="BATCHES"):
            probe_budget()
        monkeypatch.setenv("REPRO_PROBE_BATCHES", "2")
        monkeypatch.setenv("REPRO_PROBE_QUERIES", "0")
        with pytest.raises(ValueError, match="QUERIES"):
            probe_budget()

    def test_serve_shards(self, monkeypatch):
        monkeypatch.delenv("REPRO_SERVE_SHARDS", raising=False)
        assert serve_shards() == 1
        monkeypatch.setenv("REPRO_SERVE_SHARDS", "8")
        assert serve_shards() == 8
        monkeypatch.setenv("REPRO_SERVE_SHARDS", "0")
        with pytest.raises(ValueError, match="SHARDS"):
            serve_shards()

    def test_serve_slo_windows(self, monkeypatch):
        from repro.experiments.common import serve_slo

        for key in ("REPRO_SERVE_SLO_FAST_TICKS",
                    "REPRO_SERVE_SLO_SLOW_TICKS"):
            monkeypatch.delenv(key, raising=False)
        assert serve_slo()[3:] == (5, 60)
        monkeypatch.setenv("REPRO_SERVE_SLO_FAST_TICKS", "3")
        monkeypatch.setenv("REPRO_SERVE_SLO_SLOW_TICKS", "12")
        assert serve_slo()[3:] == (3, 12)
        monkeypatch.setenv("REPRO_SERVE_SLO_SLOW_TICKS", "2")
        with pytest.raises(ValueError, match="SLOW"):
            serve_slo()
        monkeypatch.setenv("REPRO_SERVE_SLO_SLOW_TICKS", "12")
        monkeypatch.setenv("REPRO_SERVE_SLO_FAST_TICKS", "0")
        with pytest.raises(ValueError, match="FAST"):
            serve_slo()


class TestTable:
    def test_render(self):
        t = Table(["name", "value"])
        t.add("alpha", 1.23456)
        t.add("b", 10)
        text = t.to_text("Title")
        lines = text.splitlines()
        assert lines[0] == "Title"
        assert "name" in lines[1] and "value" in lines[1]
        assert "1.235" in text  # 4 significant digits
        assert "alpha" in text

    def test_cell_count_validated(self):
        t = Table(["a", "b"])
        with pytest.raises(ValueError):
            t.add(1)

    def test_columns_aligned(self):
        t = Table(["x", "longheader"])
        t.add(1, 2)
        t.add(100000, 3)
        lines = t.to_text().splitlines()
        assert len(lines[0]) == len(lines[1]) == len(lines[2])
