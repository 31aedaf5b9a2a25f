"""Tests for the experiment harness infrastructure."""

import pytest

from repro.experiments.common import (
    RunConfig,
    Table,
    get_dataset,
    get_description,
    run_config,
)

SETTINGS = ("REPRO_SIM_BATCHES", "REPRO_SIM_QUERIES", "REPRO_SERVE_SHARDS")


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
        for variable in SETTINGS:
            monkeypatch.delenv(variable, raising=False)
        assert run_config() == RunConfig(
            sim_batches=20, sim_queries=20_000, serve_shards=1
        )

    def test_overrides(self, monkeypatch):
        monkeypatch.setenv("REPRO_SIM_BATCHES", "5")
        monkeypatch.setenv("REPRO_SIM_QUERIES", "123")
        monkeypatch.delenv("REPRO_SERVE_SHARDS", raising=False)
        config = run_config(defaults=RunConfig(sim_batches=10, serve_shards=3))
        assert config == RunConfig(sim_batches=5, sim_queries=123, serve_shards=3)

    def test_serve_shards(self, monkeypatch):
        monkeypatch.setenv("REPRO_SERVE_SHARDS", "8")
        assert run_config().serve_shards == 8
        monkeypatch.setenv("REPRO_SERVE_SHARDS", "0")
        with pytest.raises(ValueError, match="REPRO_SERVE_SHARDS='0'"):
            run_config()


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
