"""The telemetry stream: SLO accounting, tick samples, derived deltas.

Everything here drives the sink *synchronously* — ``service.process``
plus explicit ``sink.tick()`` calls under an injected fake clock — so
tick contents are deterministic and the stream can be compared
byte-for-byte across runs.  The background ticker gets one smoke test;
its arithmetic is the same code path.
"""

from __future__ import annotations

import io
import json

import numpy as np
import pytest

from repro.datasets import synthetic_region
from repro.experiments.common import get_description
from repro.model import buffer_model
from repro.obs import (
    SLOMonitor,
    TelemetrySink,
    derive_ticks,
    read_telemetry,
    validate_telemetry,
)
from repro.obs.telemetry import _latency_window_us
from repro.packing import load_description, pack_description
from repro.queries import UniformPointWorkload
from repro.serving import QueryService
from tests.conftest import random_rects

FIELDS = ("requests", "hits", "misses", "evictions")

TICK_FIELDS = {
    "kind", "seq", "elapsed_s", "queue_depth", "queries", "batches",
    "resets", "shards", "latency_us", "slo",
}


class FakeClock:
    """A monotonic ns clock advanced by hand: ticks land where we say."""

    def __init__(self, start_ns: int = 1_000_000) -> None:
        self.now_ns = start_ns

    def __call__(self) -> int:
        return self.now_ns

    def advance_ms(self, ms: float) -> None:
        self.now_ns += int(ms * 1e6)


@pytest.fixture(scope="module")
def desc():
    rng = np.random.default_rng(42)
    return pack_description(random_rects(rng, 600), 10, "hs")


def make_service(desc, *, shards=2, buffer_size=16, **kwargs):
    return QueryService(
        desc, UniformPointWorkload(), buffer_size, shards=shards, **kwargs
    )


def drive(service, sink, clock, *, ticks=5, queries_per_tick=100, seed=0):
    """Serve then sample, ``ticks`` times, 100 ms apart on the fake clock."""
    rng = np.random.default_rng(seed)
    for _ in range(ticks):
        points = service.workload.sample_points(queries_per_tick, rng)
        service.process(points)
        clock.advance_ms(100.0)
        sink.tick()


def shard_rows(service):
    return [
        {f: getattr(stats, f) for f in FIELDS}
        for stats in service.pool.shard_stats()
    ]


def parse(text):
    lines = [json.loads(line) for line in text.splitlines()]
    return lines[0], lines[1:]


class TestSLOMonitor:
    def test_needs_at_least_one_target(self):
        with pytest.raises(ValueError, match="at least one target"):
            SLOMonitor()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"p99_target_us": 0.0},
            {"p99_target_us": -5.0},
            {"hit_ratio_floor": 1.5},
            {"hit_ratio_floor": -0.1},
            {"p99_target_us": 100.0, "budget": 0.0},
            {"p99_target_us": 100.0, "budget": 1.5},
            {"p99_target_us": 100.0, "slow_window": 0},
            {"p99_target_us": 100.0, "fast_window": 0},
            {"p99_target_us": 100.0, "fast_window": 5, "slow_window": 3},
        ],
    )
    def test_invalid_configuration_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SLOMonitor(**kwargs)

    def test_burn_accounting(self):
        slo = SLOMonitor(p99_target_us=100.0, budget=0.25)
        good = slo.observe(p99_us=50.0, hit_ratio=None, requests=10)
        assert good["counted"] and not good["bad"]
        bad = slo.observe(p99_us=150.0, hit_ratio=None, requests=10)
        assert bad["bad"] and bad["p99_violation"]
        summary = slo.summary()
        assert summary["ticks"] == 2 and summary["bad_ticks"] == 1
        assert summary["bad_fraction"] == 0.5
        assert summary["burn_rate"] == pytest.approx(0.5 / 0.25)
        assert summary["budget_exhausted"]

    def test_window_burn_uses_trailing_ticks_only(self):
        slo = SLOMonitor(
            p99_target_us=100.0, budget=1.0, fast_window=1, slow_window=2
        )
        slo.observe(p99_us=500.0, hit_ratio=None, requests=1)  # bad
        slo.observe(p99_us=1.0, hit_ratio=None, requests=1)
        slo.observe(p99_us=1.0, hit_ratio=None, requests=1)
        summary = slo.summary()
        # The bad tick aged out of both windows, not out of the run.
        assert summary["fast_burn_rate"] == summary["slow_burn_rate"] == 0.0
        assert summary["bad_fraction"] == pytest.approx(1 / 3)

    def test_hit_ratio_floor_violation(self):
        slo = SLOMonitor(hit_ratio_floor=0.5)
        status = slo.observe(p99_us=None, hit_ratio=0.3, requests=10)
        assert status["bad"] and status["hit_ratio_violation"]

    def test_idle_ticks_are_not_counted(self):
        slo = SLOMonitor(p99_target_us=100.0)
        status = slo.observe(p99_us=900.0, hit_ratio=None, requests=0)
        assert not status["counted"] and not status["bad"]
        assert slo.summary()["ticks"] == 0

    def test_absent_signals_never_burn(self):
        slo = SLOMonitor(p99_target_us=100.0, hit_ratio_floor=0.9)
        status = slo.observe(p99_us=None, hit_ratio=None, requests=10)
        assert status["counted"] and not status["bad"]

    def test_alert_requires_both_windows_burning(self):
        # One bad tick burns the 2-tick fast window far above 1.0 but
        # leaves the 8-tick slow window at budget — no alert.
        slo = SLOMonitor(
            p99_target_us=100.0, budget=0.125, fast_window=2, slow_window=8
        )
        for _ in range(7):
            slo.observe(p99_us=1.0, hit_ratio=None, requests=1)
        status = slo.observe(p99_us=500.0, hit_ratio=None, requests=1)
        assert status["fast_burn_rate"] == pytest.approx(0.5 / 0.125)
        assert status["slow_burn_rate"] == pytest.approx(1.0)
        assert not status["alerting"]

    def test_alert_fires_when_fast_and_slow_burn(self):
        slo = SLOMonitor(
            p99_target_us=100.0, budget=0.125, fast_window=2, slow_window=8
        )
        status = None
        for _ in range(3):
            status = slo.observe(p99_us=500.0, hit_ratio=None, requests=1)
        assert status["fast_burn_rate"] > 1.0
        assert status["slow_burn_rate"] > 1.0
        assert status["alerting"]

    def test_recovery_clears_the_alert(self):
        # After an incident, good fast-window ticks stop the page even
        # while the slow window (and the cumulative budget) still burn.
        slo = SLOMonitor(
            p99_target_us=100.0, budget=0.125, fast_window=2, slow_window=8
        )
        for _ in range(4):
            slo.observe(p99_us=500.0, hit_ratio=None, requests=1)
        assert slo.summary()["alerting"]
        status = None
        for _ in range(2):
            status = slo.observe(p99_us=1.0, hit_ratio=None, requests=1)
        assert status["fast_burn_rate"] == 0.0
        assert status["slow_burn_rate"] > 1.0
        assert not status["alerting"]
        assert status["budget_exhausted"]  # whole-run verdict unchanged

    def test_targets_carry_alert_windows(self):
        slo = SLOMonitor(p99_target_us=100.0, fast_window=3, slow_window=30)
        targets = slo.targets
        assert targets["fast_window"] == 3
        assert targets["slow_window"] == 30


class TestSinkValidation:
    def test_path_and_writer_are_exclusive(self, desc, tmp_path):
        service = make_service(desc)
        with pytest.raises(ValueError, match="not both"):
            TelemetrySink(
                service,
                path=str(tmp_path / "t.jsonl"),
                writer=io.StringIO(),
            )

    def test_bad_interval_rejected(self, desc):
        with pytest.raises(ValueError, match="interval"):
            TelemetrySink(make_service(desc), interval_s=0.0)

    def test_bad_window_rejected(self, desc):
        with pytest.raises(ValueError, match="window"):
            TelemetrySink(make_service(desc), window=0)

    def test_double_start_rejected(self, desc):
        sink = TelemetrySink(make_service(desc), interval_s=60.0)
        sink.start()
        try:
            with pytest.raises(RuntimeError, match="started"):
                sink.start()
        finally:
            sink.close()


class TestSyncDrive:
    """Deterministic tick contents under process() + a fake clock."""

    def make_stream(self, desc, *, shards=2, ticks=5, seed=0, window=3):
        clock = FakeClock()
        service = make_service(desc, shards=shards)
        out = io.StringIO()
        sink = TelemetrySink(
            service, window=window, writer=out, clock=clock,
            config={"dataset": "unit"},
            model={"hit_ratio": 0.5},
        )
        drive(service, sink, clock, ticks=ticks, seed=seed)
        return service, out.getvalue()

    def test_header_then_ticks_round_trip(self, desc):
        service, text = self.make_stream(desc)
        header, ticks = parse(text)
        validate_telemetry(header, ticks)
        assert header["shard_capacities"] == list(
            service.pool.shard_capacities()
        )
        assert header["policy"] == service.pool.policy
        assert header["config"] == {"dataset": "unit"}
        assert header["model"] == {"hit_ratio": 0.5}
        assert "shards" not in header and "capacity" not in header
        assert len(ticks) == 5
        assert [t["seq"] for t in ticks] == list(range(5))
        assert ticks[0]["elapsed_s"] == pytest.approx(0.1)
        # Each sampled number once: totals, reset count, cumulative
        # per-shard rows; every delta and window is derived.
        for tick in ticks:
            assert set(tick) == TICK_FIELDS
            for row in tick["shards"]:
                assert set(row) == set(FIELDS)
        assert ticks[-1]["queries"] == service.queries_served == 500
        assert ticks[-1]["shards"] == shard_rows(service)

    def test_stream_is_deterministic(self, desc):
        _, first = self.make_stream(desc, seed=9)
        _, second = self.make_stream(desc, seed=9)
        assert first == second  # byte-identical JSONL

    @pytest.mark.parametrize("shards", [1, 2, 8])
    def test_tick_sums_reconcile(self, desc, shards):
        service, text = self.make_stream(desc, shards=shards, ticks=4)
        header, ticks = parse(text)
        validate_telemetry(header, ticks)
        assert ticks[-1]["shards"] == shard_rows(service)
        # Without resets the derived deltas add up to the final counters.
        derived = derive_ticks(ticks, header["window"])
        agg = service.pool.aggregate_stats().as_dict()
        for field in FIELDS:
            assert sum(d["aggregate"][field] for d in derived) == agg[field]

    def test_window_is_a_sliding_sum(self, desc):
        _, text = self.make_stream(desc, ticks=5, window=3)
        header, ticks = parse(text)
        derived = derive_ticks(ticks, header["window"])
        tail = derived[-3:]
        assert derived[-1]["hit_ratio"] == pytest.approx(
            sum(d["aggregate"]["hits"] for d in tail)
            / sum(d["aggregate"]["requests"] for d in tail)
        )

    def test_idle_tick_carries_no_signals(self, desc):
        clock = FakeClock()
        service = make_service(desc)
        out = io.StringIO()
        sink = TelemetrySink(service, writer=out, clock=clock)
        clock.advance_ms(100.0)
        tick = sink.tick()  # no traffic yet
        assert tick["queries"] == 0
        assert tick["latency_us"] is None
        header, ticks = parse(out.getvalue())
        validate_telemetry(header, ticks)
        (derived,) = derive_ticks(ticks, header["window"])
        assert derived["occupancy"] is None
        assert derived["hit_ratio"] is None

    def test_counter_reset_rebases_the_tick(self, desc):
        # The reset count, not a falling counter, marks the warm-up
        # boundary: the next tick's deltas restart from zero.
        clock = FakeClock()
        service = make_service(desc)
        sink = TelemetrySink(service, writer=io.StringIO(), clock=clock)
        rng = np.random.default_rng(3)
        service.process(service.workload.sample_points(200, rng))
        clock.advance_ms(100.0)
        first = sink.tick()
        assert first["resets"] == 0
        service.reset_measurement()  # warm-up boundary: counters zeroed
        service.process(service.workload.sample_points(50, rng))
        clock.advance_ms(100.0)
        second = sink.tick()
        assert second["resets"] == 1
        validate_telemetry(sink.header, [first, second])
        derived = derive_ticks([first, second], sink.window)
        assert [d["reset"] for d in derived] == [False, True]
        assert derived[1]["queries"] == 50
        assert derived[1]["shards"] == shard_rows(service)

    def test_pointer_reflects_the_last_tick(self, desc):
        clock = FakeClock()
        service = make_service(desc)
        sink = TelemetrySink(service, writer=io.StringIO(), clock=clock)
        assert sink.pointer() is None  # nothing to reconcile yet
        drive(service, sink, clock, ticks=2)
        pointer = sink.pointer()
        assert pointer["ticks"] == 2
        assert pointer["path"] is None
        assert (
            pointer["final"]["aggregate"]
            == service.pool.aggregate_stats().as_dict()
        )
        assert [row.pop("shard_id") for row in pointer["final"]["shards"]] \
            == [0, 1]
        assert pointer["final"]["shards"] == shard_rows(service)

    def test_slo_block_lands_in_ticks_and_header(self, desc):
        clock = FakeClock()
        service = make_service(desc)
        slo = SLOMonitor(p99_target_us=1e9, hit_ratio_floor=0.0)
        out = io.StringIO()
        sink = TelemetrySink(service, writer=out, slo=slo, clock=clock)
        drive(service, sink, clock, ticks=3)
        header, ticks = parse(out.getvalue())
        validate_telemetry(header, ticks)
        assert header["slo"]["p99_target_us"] == 1e9
        last = ticks[-1]["slo"]
        assert last["ticks"] == 3 and last["bad_ticks"] == 0
        assert not last["budget_exhausted"]

    def test_file_round_trip_matches_memory(self, desc, tmp_path):
        path = tmp_path / "t.jsonl"
        clock = FakeClock()
        service = make_service(desc)
        with TelemetrySink(service, path=str(path), clock=clock) as sink:
            drive(service, sink, clock, ticks=3)
        header, ticks = read_telemetry(str(path))
        assert header == sink.header
        assert len(ticks) == 4  # 3 driven + the final close() tick
        assert ticks[-1]["shards"] == shard_rows(service)


class TestResets:
    """Deltas restart exactly where the reset count changes."""

    @pytest.fixture(scope="class")
    def table2_desc(self):
        # Table 2's probe tree: 40,000 points, capacity 25, HS.
        return get_description("point", 40_000, 25, "hs")

    def test_tick_after_reset_reports_the_traffic_since(self, table2_desc):
        service = QueryService(table2_desc, UniformPointWorkload(), 100)
        clock = FakeClock()
        out = io.StringIO()
        sink = TelemetrySink(service, writer=out, clock=clock)
        rng = np.random.default_rng(0)
        service.process(service.workload.sample_points(100, rng))
        sink.tick()
        service.process(service.workload.sample_points(100, rng))
        service.reset_measurement()
        service.process(service.workload.sample_points(300, rng))
        sink.tick()
        header, ticks = parse(out.getvalue())
        validate_telemetry(header, ticks)
        second = derive_ticks(ticks, header["window"])[1]
        assert second["reset"]
        assert second["queries"] == 300
        assert second["shards"] == shard_rows(service)
        assert second["aggregate"] == service.aggregate_stats().as_dict()

    def test_derivation_matches_a_brute_force_recount(self, desc):
        # A seeded mix of process() chunks, ticks and resets.  The
        # expected deltas are recounted chunk by chunk from the pool's
        # counters captured around each process() call; a reset drops
        # what the current tick had gathered.
        window, max_batch, floor = 4, 32, 0.45
        service = make_service(desc, shards=3, max_batch=max_batch)
        clock = FakeClock()
        out = io.StringIO()
        sink = TelemetrySink(
            service, window=window, writer=out, clock=clock,
            slo=SLOMonitor(hit_ratio_floor=floor),
        )
        rng = np.random.default_rng(2024)
        zero = [dict.fromkeys(FIELDS, 0) for _ in range(3)]
        gathered = [dict(row) for row in zero]
        queries = batches = 0
        expected = []
        for _ in range(60):
            op = rng.choice(["process", "process", "tick", "reset"])
            if op == "process":
                n = int(rng.integers(1, 120))
                before = shard_rows(service)
                service.process(service.workload.sample_points(n, rng))
                for row, old, new in zip(
                    gathered, before, shard_rows(service)
                ):
                    for f in FIELDS:
                        row[f] += new[f] - old[f]
                queries += n
                batches += -(-n // max_batch)
            elif op == "reset":
                service.reset_measurement()
                gathered = [dict(row) for row in zero]
                queries = batches = 0
            else:
                clock.advance_ms(100.0)
                sink.tick()
                expected.append((gathered, queries, batches))
                gathered = [dict(row) for row in zero]
                queries = batches = 0
        header, ticks = parse(out.getvalue())
        validate_telemetry(header, ticks)
        derived = derive_ticks(ticks, window)
        assert len(derived) == len(expected) > 5
        assert any(d["reset"] for d in derived)
        for i, (d, (rows, n_queries, n_batches)) in enumerate(
            zip(derived, expected)
        ):
            assert d["shards"] == rows
            assert d["queries"] == n_queries
            assert d["batches"] == n_batches
            trailing = expected[max(0, i - window + 1): i + 1]
            requests = sum(r["requests"] for e in trailing for r in e[0])
            hits = sum(r["hits"] for e in trailing for r in e[0])
            ratio = hits / requests if requests else None
            assert d["hit_ratio"] == ratio
            # The sink derived its SLO input from its recent ticks only.
            slo = ticks[i]["slo"]
            assert slo["hit_ratio_violation"] == bool(
                d["aggregate"]["requests"] and ratio is not None
                and ratio < floor
            )

    @pytest.mark.parametrize("reset_between", [False, True])
    def test_latency_window_is_the_samples_between_ticks(
        self, desc, reset_between
    ):
        service = make_service(desc)
        clock = FakeClock()
        sink = TelemetrySink(service, writer=io.StringIO(), clock=clock)
        rng = np.random.default_rng(5)

        def serve(n):
            points = service.workload.sample_points(n, rng)
            arrivals = np.full(n, clock.now_ns, dtype=np.int64)
            service.process(points, arrivals_ns=arrivals)

        serve(40)
        first = sink.tick()
        assert first["latency_us"]["count"] == 40
        seen = service.latency.count
        serve(25)
        if reset_between:
            service.reset_measurement()
            seen = 0
        serve(30)
        expected = service.latency.samples_ns()[seen:]
        second = sink.tick()
        assert second["latency_us"] == _latency_window_us(expected)
        assert second["latency_us"]["count"] == (
            30 if reset_between else 55
        )


class TestBackgroundTicker:
    def test_ticker_samples_and_close_is_idempotent(self, desc, tmp_path):
        path = tmp_path / "bg.jsonl"
        service = make_service(desc)
        sink = TelemetrySink(service, interval_s=0.005, path=str(path))
        sink.start()
        rng = np.random.default_rng(1)
        for _ in range(10):
            service.process(service.workload.sample_points(50, rng))
        sink.close()
        sink.close()  # second close is a no-op
        header, ticks = read_telemetry(str(path))
        assert ticks  # at least the final tick
        assert ticks[-1]["shards"] == shard_rows(service)


class TestAcceptance:
    """Model convergence, and telemetry that observes without steering."""

    def test_windowed_hit_ratio_converges_to_model(self):
        # The Table 1 validation config at test scale: 20k rects, HS
        # packing, point queries — a tree the independence assumption
        # behind Eq. 5/6 holds on.  Enough post-warm-up traffic that
        # the trailing window *is* the predicted steady state.
        data = synthetic_region(20_000, rng=101)
        region_desc = load_description("hs", data, 50)
        workload = UniformPointWorkload()
        buffer_size = 40
        predicted = buffer_model(region_desc, workload, buffer_size).hit_ratio
        clock = FakeClock()
        service = QueryService(
            region_desc, workload, buffer_size, shards=2
        )
        out = io.StringIO()
        sink = TelemetrySink(
            service, window=20, writer=out, clock=clock,
            model={"hit_ratio": predicted},
        )
        drive(service, sink, clock, ticks=40, queries_per_tick=500, seed=11)
        header, ticks = parse(out.getvalue())
        validate_telemetry(header, ticks)
        final_ratio = derive_ticks(ticks, header["window"])[-1]["hit_ratio"]
        assert abs(final_ratio - predicted) <= 0.02  # the paper's band

    def test_telemetry_leaves_serving_outputs_identical(self, desc):
        def run(with_sink):
            service = make_service(desc, shards=2)
            if with_sink:
                clock = FakeClock()
                sink = TelemetrySink(
                    service, writer=io.StringIO(), clock=clock
                )
            rng = np.random.default_rng(5)
            for _ in range(4):
                service.process(service.workload.sample_points(200, rng))
                if with_sink:
                    clock.advance_ms(100.0)
                    sink.tick()
            return (
                service.queries_served,
                service.batches_served,
                service.pool.aggregate_stats().as_dict(),
                [s.as_dict() for s in service.pool.shard_stats()],
            )

        assert run(with_sink=False) == run(with_sink=True)


class TestValidateRejections:
    def make_valid(self, desc):
        clock = FakeClock()
        service = make_service(desc)
        out = io.StringIO()
        sink = TelemetrySink(service, writer=out, clock=clock)
        drive(service, sink, clock, ticks=3)
        return parse(out.getvalue())

    def test_wrong_schema_rejected(self, desc):
        header, ticks = self.make_valid(desc)
        header["schema"] = "repro-telemetry/9"
        with pytest.raises(ValueError, match="schema"):
            validate_telemetry(header, ticks)

    def test_version_one_stream_rejected_naming_both(self, desc, tmp_path):
        header, ticks = self.make_valid(desc)
        header["schema"] = "repro-telemetry/1"
        path = tmp_path / "v1.jsonl"
        path.write_text(
            "".join(json.dumps(line) + "\n" for line in [header, *ticks])
        )
        with pytest.raises(ValueError) as info:
            read_telemetry(str(path))
        assert "repro-telemetry/1" in str(info.value)
        assert "repro-telemetry/2" in str(info.value)

    def test_seq_gap_rejected(self, desc):
        header, ticks = self.make_valid(desc)
        ticks[1]["seq"] = 5
        with pytest.raises(ValueError, match="seq"):
            validate_telemetry(header, ticks)

    def test_shard_sum_drift_rejected(self, desc):
        # A shard row's hits + misses must equal its requests.
        header, ticks = self.make_valid(desc)
        ticks[0]["shards"][0]["hits"] += 1
        with pytest.raises(ValueError, match="hits"):
            validate_telemetry(header, ticks)

    def test_shard_row_count_checked(self, desc):
        header, ticks = self.make_valid(desc)
        ticks[2]["shards"].pop()
        with pytest.raises(ValueError, match="shard rows"):
            validate_telemetry(header, ticks)

    def test_counter_falling_without_reset_rejected(self, desc):
        header, ticks = self.make_valid(desc)
        row = ticks[2]["shards"][1]
        row["requests"] = row["hits"] = row["misses"] = 0
        with pytest.raises(ValueError, match="without a reset"):
            validate_telemetry(header, ticks)
        # The same drop behind a reset is a restart, not a fault.
        for tick in ticks[2:]:
            tick["resets"] = 1
        validate_telemetry(header, ticks)

    def test_falling_reset_count_rejected(self, desc):
        header, ticks = self.make_valid(desc)
        ticks[0]["resets"] = 2
        with pytest.raises(ValueError, match="reset count"):
            validate_telemetry(header, ticks)

    def test_empty_stream_rejected(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(ValueError, match="empty"):
            read_telemetry(str(path))

    def test_tick_first_stream_rejected(self, desc):
        header, ticks = self.make_valid(desc)
        header["kind"] = "tick"
        with pytest.raises(ValueError, match="header"):
            validate_telemetry(header, ticks)
