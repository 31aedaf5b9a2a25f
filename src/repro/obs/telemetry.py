"""Live serving telemetry: windowed time-series over a running service.

The paper's central quantity — buffer hit ratio as a function of
buffer size (Fig 6, Eq. 5/6) — is a *steady-state* prediction, but
the serving engine is an online system: the LRU warms, Zipf hot keys
settle, queue depth breathes with the arrival process.  A terminal
aggregate cannot show whether the run ever *reached* the predicted
steady state, only where it ended.  This module samples the running
service at a fixed interval into fixed-size sliding windows so the
approach to Eq. 5/6's prediction is itself observable, tick by tick.

Three pieces:

* :class:`TelemetrySink` — samples a ``QueryService`` (duck-typed, see
  below) every ``interval_s`` seconds: per-shard ``BufferStats``
  deltas (requests, hits, evictions → a windowed hit ratio),
  admission-queue depth, micro-batch occupancy, and windowed
  p50/p95/p99 latency from an atomic
  :meth:`~repro.obs.latency.LatencyRecorder.snapshot_and_reset`.
  Each tick streams out as one JSON line.
* :class:`SLOMonitor` — a deterministic error-budget account over a
  target p99 and/or hit-ratio floor: each traffic-carrying tick either
  meets the targets or burns budget; the monitor reports cumulative
  and windowed burn rates (burn rate 1.0 = violating at exactly the
  budgeted fraction of ticks).
* The ``repro-telemetry/1`` stream format — line 1 is a header
  (config, shard capacities, the Eq. 5/6 model-predicted hit ratio,
  SLO targets), every further line is a tick.  :func:`read_telemetry`
  loads and :func:`validate_telemetry` re-derives every invariant:
  contiguous sequence numbers, per-shard delta sums equal to the
  aggregate delta, cumulative rows additive tick over tick,
  ``hits + misses == requests`` at every level, window sums equal to
  the trailing tick deltas.

Layering: ``repro.obs`` is a leaf package, so the sink does not import
the serving or buffer layers.  It speaks to the service through a
small duck-typed protocol — ``pool.shard_stats()`` /
``pool.shard_capacities()`` / ``pool.capacity`` / ``pool.n_shards`` /
``pool.policy``, ``queries_served`` / ``batches_served`` /
``queue_depth``.  The model-predicted hit ratio is passed *in* as a plain
number by the experiments layer (which owns :func:`repro.model.
buffer_model`); the sink records it in the header, it never computes
it.

Counter discipline: the sink samples *cumulative* pool counters and
differences consecutive snapshots.  If a counter reset lands between
ticks (``reset_measurement()`` at the warm-up boundary), a shard's
delta would go negative; the sink then **rebases** — treats the
current snapshot as the delta and flags the tick ``rebased`` — so the
stream stays monotone and the validator knows to skip the additivity
check for exactly that tick.  The final tick of a drained run
therefore carries cumulative per-shard counters equal to
``aggregate_stats()`` exactly, which is the reconciliation the
metrics-export validator enforces against the ``serving`` section.

Thread discipline (checked under ``REPRO_SANITIZE=1``): all window
and cursor state is guarded by one sink lock; the hot-path hook
:meth:`TelemetrySink.observe_batch` touches only the internal
:class:`~repro.obs.latency.LatencyRecorder` (its own lock), so a
service thread never contends with the ticker for the window state.
"""

from __future__ import annotations

import json
import threading
import time
from collections.abc import Callable, Mapping
from typing import IO, Any

import numpy as np

from .latency import LatencyRecorder, nearest_rank_us

__all__ = [
    "TELEMETRY_SCHEMA",
    "SLOMonitor",
    "TelemetrySink",
    "read_telemetry",
    "validate_telemetry",
]

TELEMETRY_SCHEMA = "repro-telemetry/1"

#: Counter fields sampled per shard, in export order.
_FIELDS = ("requests", "hits", "misses", "evictions")

_NS_PER_US = 1_000.0
_NS_PER_S = 1e9

#: Tolerance for re-derived ratios in the validator (pure float
#: round-trip noise; the underlying counts are exact integers).
_RATIO_TOL = 1e-9


class SLOMonitor:
    """Error-budget accounting over a p99 target and a hit-ratio floor.

    Each *counted* tick (one that carried traffic) either meets every
    configured target or is a **bad tick**.  With an error budget
    ``budget`` (the allowed fraction of bad ticks), the burn rate is
    ``bad_fraction / budget`` — 1.0 means violating at exactly the
    budgeted rate, above 1.0 the budget is being exhausted.

    **Alerting is multiwindow**: the monitor keeps a *fast* trailing
    window (default 5 ticks) and a *slow* one (default 60 ticks) and
    raises ``alerting`` only when **both** burn above 1.0 — the
    standard multiwindow multi-burn-rate recipe.  The fast window
    alone is noisy (one bad tick in five burns at 20× budget); the
    slow window alone pages long after the incident started; requiring
    both means "it is bad *right now* and it has been bad for a
    while".  The cumulative burn (``budget_exhausted``) is still
    reported for whole-run accounting, but it is no longer the alert
    signal — a run that burned its budget in a warm-up spike would
    otherwise page forever.

    Deterministic and single-threaded by design: the monitor holds no
    lock and must only be driven by the sink's tick path (which holds
    the sink lock).  Ticks with no traffic are not counted — an idle
    service is neither meeting nor missing its SLO.
    """

    def __init__(
        self,
        *,
        p99_target_us: float | None = None,
        hit_ratio_floor: float | None = None,
        budget: float = 0.01,
        window: int = 20,
        fast_window: int = 5,
        slow_window: int = 60,
    ) -> None:
        if p99_target_us is None and hit_ratio_floor is None:
            raise ValueError(
                "an SLOMonitor needs at least one target "
                "(p99_target_us and/or hit_ratio_floor)"
            )
        if p99_target_us is not None and p99_target_us <= 0:
            raise ValueError("p99_target_us must be positive")
        if hit_ratio_floor is not None and not 0.0 <= hit_ratio_floor <= 1.0:
            raise ValueError("hit_ratio_floor must be in [0, 1]")
        if not 0.0 < budget <= 1.0:
            raise ValueError("budget must be in (0, 1]")
        if window < 1:
            raise ValueError("window must be >= 1")
        if fast_window < 1:
            raise ValueError("fast_window must be >= 1")
        if slow_window < fast_window:
            raise ValueError("slow_window must be >= fast_window")
        self.p99_target_us = p99_target_us
        self.hit_ratio_floor = hit_ratio_floor
        self.budget = float(budget)
        self.window = int(window)
        self.fast_window = int(fast_window)
        self.slow_window = int(slow_window)
        self._history = max(self.window, self.slow_window)
        self._ticks = 0
        self._bad = 0
        self._recent: list[int] = []

    @property
    def targets(self) -> dict[str, Any]:
        """The header-facing target block."""
        return {
            "p99_target_us": self.p99_target_us,
            "hit_ratio_floor": self.hit_ratio_floor,
            "budget": self.budget,
            "window": self.window,
            "fast_window": self.fast_window,
            "slow_window": self.slow_window,
        }

    def observe(
        self,
        *,
        p99_us: float | None,
        hit_ratio: float | None,
        requests: int,
    ) -> dict[str, Any]:
        """Account one tick; returns the tick's SLO status block.

        ``p99_us`` is the tick's windowed p99 (None when no latency
        samples landed this tick), ``hit_ratio`` the windowed hit
        ratio (None when the window carried no requests), ``requests``
        the tick's delta request count.  A target with no signal this
        tick is treated as met — absence of evidence never burns
        budget.
        """
        counted = requests > 0
        p99_violation = (
            self.p99_target_us is not None
            and p99_us is not None
            and p99_us > self.p99_target_us
        )
        hit_violation = (
            self.hit_ratio_floor is not None
            and hit_ratio is not None
            and hit_ratio < self.hit_ratio_floor
        )
        bad = counted and (p99_violation or hit_violation)
        if counted:
            self._ticks += 1
            self._bad += 1 if bad else 0
            self._recent.append(1 if bad else 0)
            while len(self._recent) > self._history:
                self._recent.pop(0)
        return {
            "counted": counted,
            "bad": bad,
            "p99_violation": bool(counted and p99_violation),
            "hit_ratio_violation": bool(counted and hit_violation),
            **self.summary(),
        }

    def _trailing_burn(self, length: int) -> float:
        """Burn rate over the trailing ``length`` counted ticks."""
        recent = self._recent[-length:]
        if not recent:
            return 0.0
        return (sum(recent) / len(recent)) / self.budget

    def summary(self) -> dict[str, Any]:
        """Budget accounting (also embedded in every tick).

        ``alerting`` is the page signal: both the fast and the slow
        trailing windows burning above 1.0.  The cumulative
        ``budget_exhausted`` stays for whole-run verdicts.
        """
        bad_fraction = self._bad / self._ticks if self._ticks else 0.0
        burn_rate = bad_fraction / self.budget
        fast_burn = self._trailing_burn(self.fast_window)
        slow_burn = self._trailing_burn(self.slow_window)
        return {
            "ticks": self._ticks,
            "bad_ticks": self._bad,
            "bad_fraction": bad_fraction,
            "burn_rate": burn_rate,
            "window_burn_rate": self._trailing_burn(self.window),
            "fast_burn_rate": fast_burn,
            "slow_burn_rate": slow_burn,
            "alerting": fast_burn > 1.0 and slow_burn > 1.0,
            "budget_exhausted": burn_rate > 1.0,
        }


class TelemetrySink:
    """Samples a running service into a streaming JSONL time-series.

    Parameters
    ----------
    service:
        The object to sample — anything exposing the duck-typed
        protocol in the module docstring (``QueryService`` does).
    interval_s:
        Wall-clock sampling period for the background ticker
        (default 100 ms).  Synchronous drivers ignore it and call
        :meth:`tick` directly.
    window:
        Sliding-window length in ticks for the windowed hit ratio
        (and the denominator of ``window_burn_rate``).
    slo:
        Optional :class:`SLOMonitor`; its status block is embedded in
        every tick and its targets in the header.
    path / writer:
        Where tick lines stream.  ``path`` opens (and owns, and
        closes) a file; ``writer`` is any object with ``write(str)``
        owned by the caller.  At most one may be given; with neither,
        ticks are kept in memory only (``pointer()`` still works).
    clock:
        Nanosecond monotonic clock (default ``time.perf_counter_ns``).
        Injectable so tests drive deterministic timestamps.
    config / model:
        Opaque mappings recorded verbatim in the header: the probe
        configuration, and the Eq. 5/6 model block (at least
        ``hit_ratio``) computed by the *experiments* layer.

    The sink is a context manager; ``close()`` stops the ticker,
    takes one final tick, and closes an owned file.
    """

    def __init__(
        self,
        service,
        *,
        interval_s: float = 0.1,
        window: int = 20,
        slo: SLOMonitor | None = None,
        path: str | None = None,
        writer: IO[str] | None = None,
        clock: Callable[[], int] = time.perf_counter_ns,
        config: Mapping[str, Any] | None = None,
        model: Mapping[str, Any] | None = None,
    ) -> None:
        if interval_s <= 0:
            raise ValueError("interval_s must be positive")
        if window < 1:
            raise ValueError("window must be >= 1")
        if path is not None and writer is not None:
            raise ValueError("give path or writer, not both")
        self._service = service
        self.interval_s = float(interval_s)
        self.window = int(window)
        self.path = path
        self._slo = slo
        self._clock = clock

        self._owns_writer = path is not None
        self._writer = open(path, "w", encoding="utf-8") if path else writer
        self._closed = False

        self._lock = threading.Lock()
        # (requests, hits, evictions) deltas of the last `window` ticks.
        self._window_deltas: list[tuple[int, int, int]] = []
        self._prev_shards: list[dict[str, int]] | None = None
        self._prev_queries = 0
        self._prev_batches = 0
        self._seq = 0
        self._last_tick: dict[str, Any] | None = None
        self._recorder = LatencyRecorder()
        self._thread: threading.Thread | None = None
        self._stop_event = threading.Event()

        self._t0 = int(self._clock())
        pool = service.pool
        self._header = {
            "schema": TELEMETRY_SCHEMA,
            "kind": "header",
            "interval_s": self.interval_s,
            "window": self.window,
            "shards": int(pool.n_shards),
            "capacity": int(pool.capacity),
            "shard_capacities": [int(c) for c in pool.shard_capacities()],
            "policy": pool.policy,
            "max_batch": int(service.max_batch),
            "max_wait_us": float(service.max_wait_us),
            "config": dict(config) if config is not None else {},
            "model": dict(model) if model is not None else None,
            "slo": slo.targets if slo is not None else None,
        }
        self._write_line(self._header)

    # ------------------------------------------------------------------
    # Hot path (called by the service, any thread)
    # ------------------------------------------------------------------
    def observe_batch(self, latencies_ns: np.ndarray | None) -> None:
        """Record one micro-batch's per-query latencies (or nothing).

        This is the only method the service's serve path calls; it
        touches only the internal recorder (its own lock), never the
        sink lock, so the hot-path cost is one locked chunk append.
        """
        if latencies_ns is not None:
            self._recorder.record_many_ns(latencies_ns)

    # ------------------------------------------------------------------
    # Sampling
    # ------------------------------------------------------------------
    def tick(self) -> dict[str, Any]:
        """Take one sample now; returns (and streams) the tick line.

        Samples the pool's per-shard counters, the service totals and
        queue depth, and atomically drains the latency window, then
        computes deltas and the sliding-window hit ratio under the
        sink lock.  Safe to call from the ticker thread or directly
        from a synchronous test driver (never both at once).
        """
        now = int(self._clock())
        pool = self._service.pool
        shard_snaps = [
            {field: int(getattr(snap, field)) for field in _FIELDS}
            for snap in pool.shard_stats()
        ]
        queries = int(self._service.queries_served)
        batches = int(self._service.batches_served)
        queue_depth = int(self._service.queue_depth)
        samples = self._recorder.snapshot_and_reset()

        with self._lock:
            tick = self._build_tick_locked(
                now, shard_snaps, queries, batches, queue_depth, samples
            )
            self._write_line(tick)
        return tick

    def _build_tick_locked(
        self,
        now: int,
        shard_snaps: list[dict[str, int]],
        queries: int,
        batches: int,
        queue_depth: int,
        samples: np.ndarray,
    ) -> dict[str, Any]:
        """Delta/window/SLO arithmetic; caller holds the sink lock."""
        rebased = False
        prev = self._prev_shards
        deltas: list[dict[str, int]] = []
        for i, snap in enumerate(shard_snaps):
            if prev is None or i >= len(prev):
                deltas.append(dict(snap))
                continue
            delta = {f: snap[f] - prev[i][f] for f in _FIELDS}
            if any(delta[f] < 0 for f in _FIELDS):
                # A counter reset landed between ticks (the warm-up
                # boundary): the snapshot restarted from zero, so the
                # post-reset snapshot *is* the delta.
                delta = dict(snap)
                rebased = True
            deltas.append(delta)

        q_delta = queries - self._prev_queries
        b_delta = batches - self._prev_batches
        if q_delta < 0 or b_delta < 0:
            q_delta, b_delta = queries, batches
            rebased = True

        agg_delta = {f: sum(d[f] for d in deltas) for f in _FIELDS}
        cum_agg = {f: sum(s[f] for s in shard_snaps) for f in _FIELDS}

        self._window_deltas.append(
            (agg_delta["requests"], agg_delta["hits"], agg_delta["evictions"])
        )
        while len(self._window_deltas) > self.window:
            self._window_deltas.pop(0)
        w_requests = sum(r for r, _, _ in self._window_deltas)
        w_hits = sum(h for _, h, _ in self._window_deltas)
        w_evictions = sum(e for _, _, e in self._window_deltas)
        hit_ratio = w_hits / w_requests if w_requests > 0 else None

        latency = _latency_window_us(samples)
        occupancy = q_delta / b_delta if b_delta > 0 else None

        slo_status = None
        if self._slo is not None:
            slo_status = self._slo.observe(
                p99_us=latency["p99"] if latency is not None else None,
                hit_ratio=hit_ratio,
                requests=agg_delta["requests"],
            )

        tick = {
            "kind": "tick",
            "seq": self._seq,
            "t_ns": now,
            "elapsed_s": (now - self._t0) / _NS_PER_S,
            "queue_depth": queue_depth,
            "queries": q_delta,
            "batches": b_delta,
            "batch_occupancy": occupancy,
            "shards": [
                {"shard_id": i, **delta} for i, delta in enumerate(deltas)
            ],
            "aggregate": agg_delta,
            "cumulative": {
                "shards": [
                    {"shard_id": i, **snap}
                    for i, snap in enumerate(shard_snaps)
                ],
                "aggregate": cum_agg,
            },
            "window": {
                "ticks": len(self._window_deltas),
                "requests": w_requests,
                "hits": w_hits,
                "evictions": w_evictions,
                "hit_ratio": hit_ratio,
            },
            "latency_us": latency,
            "rebased": rebased,
            "slo": slo_status,
        }
        self._prev_shards = shard_snaps
        self._prev_queries = queries
        self._prev_batches = batches
        self._seq += 1
        self._last_tick = tick
        return tick

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Spawn the background ticker (one tick per ``interval_s``)."""
        if self._thread is not None:
            raise RuntimeError("telemetry sink already started")
        self._stop_event.clear()
        self._thread = threading.Thread(
            target=self._run, name="telemetry-tick", daemon=True
        )
        self._thread.start()

    def _run(self) -> None:
        while not self._stop_event.wait(self.interval_s):
            self.tick()

    def stop(self) -> None:
        """Stop the ticker and take one final tick.

        Call after the service has drained: the final tick's
        cumulative per-shard counters then equal ``aggregate_stats()``
        exactly — the invariant the metrics-export validator checks.
        """
        if self._thread is not None:
            self._stop_event.set()
            self._thread.join()
            self._thread = None
        self.tick()

    def close(self) -> None:
        """Stop (final tick included) and release an owned file."""
        if self._closed:
            return
        self.stop()
        self._closed = True
        if self._owns_writer and self._writer is not None:
            self._writer.close()

    def __enter__(self) -> TelemetrySink:
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    @property
    def ticks(self) -> int:
        """Ticks taken so far."""
        with self._lock:
            return self._seq

    @property
    def header(self) -> dict[str, Any]:
        """The stream header (line 1), as written."""
        return dict(self._header)

    def pointer(self) -> dict[str, Any] | None:
        """The ``serving.telemetry`` block for the metrics export.

        Embeds the final tick's cumulative per-shard counters so the
        document validator can reconcile the stream against the
        serving section's buffer stats without re-reading the JSONL.
        Returns None before the first tick (nothing to reconcile).
        """
        with self._lock:
            last = self._last_tick
            if last is None:
                return None
            return {
                "schema": TELEMETRY_SCHEMA,
                "path": self.path,
                "interval_s": self.interval_s,
                "ticks": self._seq,
                "final": {
                    "aggregate": dict(last["cumulative"]["aggregate"]),
                    "shards": [
                        dict(row) for row in last["cumulative"]["shards"]
                    ],
                },
            }

    def _write_line(self, record: Mapping[str, Any]) -> None:
        if self._writer is not None:
            self._writer.write(json.dumps(record, sort_keys=True) + "\n")


def _latency_window_us(samples: np.ndarray) -> dict[str, float] | None:
    """Nearest-rank percentiles of one window's samples (ns → us).

    None when the window carried no samples (an idle tick).
    """
    if samples.size == 0:
        return None
    ordered = np.sort(samples)
    return {
        "count": int(ordered.size),
        "p50": nearest_rank_us(ordered, 50.0),
        "p95": nearest_rank_us(ordered, 95.0),
        "p99": nearest_rank_us(ordered, 99.0),
        "max": float(ordered[-1]) / _NS_PER_US,
    }


# ----------------------------------------------------------------------
# Stream reading and validation
# ----------------------------------------------------------------------
def read_telemetry(path: str) -> tuple[dict[str, Any], list[dict[str, Any]]]:
    """Load and validate a ``repro-telemetry/1`` JSONL stream.

    Returns ``(header, ticks)``; raises ``ValueError`` on any schema
    or invariant violation (see :func:`validate_telemetry`).
    """
    with open(path, encoding="utf-8") as fh:
        lines = [json.loads(line) for line in fh if line.strip()]
    if not lines:
        raise ValueError(f"empty telemetry stream: {path}")
    header, ticks = lines[0], lines[1:]
    validate_telemetry(header, ticks)
    return header, ticks


def validate_telemetry(
    header: Mapping[str, Any], ticks: list[Mapping[str, Any]]
) -> None:
    """Re-derive every stream invariant; raises ``ValueError`` on drift.

    Checks, in order: header schema and internal consistency, then per
    tick — contiguous ``seq``, shard-row shape (``shard_id`` equal to
    position, one row per shard), delta and cumulative sum
    reconciliation (``aggregate == Σ shards``, ``hits + misses ==
    requests``), cumulative additivity (``cumulative[t] ==
    cumulative[t-1] + delta[t]``, skipped on ``rebased`` ticks),
    sliding-window sums equal to the trailing delta sums, and
    latency-percentile ordering.
    """
    if header.get("schema") != TELEMETRY_SCHEMA:
        raise ValueError(
            f"unsupported telemetry schema {header.get('schema')!r}; "
            f"expected {TELEMETRY_SCHEMA!r}"
        )
    if header.get("kind") != "header":
        raise ValueError("first line of a telemetry stream must be a header")
    for key in ("interval_s", "window", "shards", "capacity",
                "shard_capacities", "policy", "config"):
        if key not in header:
            raise ValueError(f"telemetry header missing {key!r}")
    n_shards = int(header["shards"])
    capacities = list(header["shard_capacities"])
    if len(capacities) != n_shards:
        raise ValueError(
            f"header lists {len(capacities)} shard capacities "
            f"for {n_shards} shards"
        )
    if sum(capacities) != header["capacity"]:
        raise ValueError(
            f"shard capacities sum to {sum(capacities)}, "
            f"header capacity is {header['capacity']}"
        )
    window = int(header["window"])
    if window < 1:
        raise ValueError("header window must be >= 1")

    prev_cum: list[dict[str, int]] = [
        dict.fromkeys(_FIELDS, 0) for _ in range(n_shards)
    ]
    delta_history: list[tuple[int, int, int]] = []
    for i, tick in enumerate(ticks):
        where = f"tick {i}"
        if tick.get("kind") != "tick":
            raise ValueError(f"{where}: kind is {tick.get('kind')!r}")
        if tick.get("seq") != i:
            raise ValueError(f"{where}: seq {tick.get('seq')} out of order")
        _check_shard_rows(tick["shards"], tick["aggregate"], n_shards, where)
        cum = tick["cumulative"]
        _check_shard_rows(
            cum["shards"], cum["aggregate"], n_shards, f"{where} cumulative"
        )
        rebased = bool(tick.get("rebased"))
        for s in range(n_shards):
            for field in _FIELDS:
                expected = prev_cum[s][field] + tick["shards"][s][field]
                got = cum["shards"][s][field]
                if not rebased and got != expected:
                    raise ValueError(
                        f"{where}: shard {s} {field} cumulative {got} != "
                        f"previous {prev_cum[s][field]} + delta "
                        f"{tick['shards'][s][field]}"
                    )
        prev_cum = [
            {f: int(row[f]) for f in _FIELDS} for row in cum["shards"]
        ]

        if tick["queries"] < 0 or tick["batches"] < 0:
            raise ValueError(f"{where}: negative query/batch delta")
        if tick["queue_depth"] < 0:
            raise ValueError(f"{where}: negative queue depth")
        occupancy = tick.get("batch_occupancy")
        if tick["batches"] > 0:
            expected_occ = tick["queries"] / tick["batches"]
            if occupancy is None or abs(occupancy - expected_occ) > _RATIO_TOL:
                raise ValueError(
                    f"{where}: batch_occupancy {occupancy} != "
                    f"queries/batches {expected_occ}"
                )
        elif occupancy is not None:
            raise ValueError(f"{where}: occupancy reported with no batches")

        agg = tick["aggregate"]
        delta_history.append(
            (agg["requests"], agg["hits"], agg["evictions"])
        )
        tail = delta_history[-window:]
        win = tick["window"]
        expected_win = {
            "ticks": len(tail),
            "requests": sum(r for r, _, _ in tail),
            "hits": sum(h for _, h, _ in tail),
            "evictions": sum(e for _, _, e in tail),
        }
        for key, expected in expected_win.items():
            if win.get(key) != expected:
                raise ValueError(
                    f"{where}: window {key} {win.get(key)} != "
                    f"trailing sum {expected}"
                )
        ratio = win.get("hit_ratio")
        if expected_win["requests"] > 0:
            derived = expected_win["hits"] / expected_win["requests"]
            if ratio is None or abs(ratio - derived) > _RATIO_TOL:
                raise ValueError(
                    f"{where}: window hit_ratio {ratio} != {derived}"
                )
        elif ratio is not None:
            raise ValueError(
                f"{where}: hit_ratio reported for an empty window"
            )

        latency = tick.get("latency_us")
        if latency is not None:
            if latency["count"] < 1:
                raise ValueError(f"{where}: empty latency window present")
            p50, p95, p99 = latency["p50"], latency["p95"], latency["p99"]
            if not p50 <= p95 <= p99 <= latency["max"]:
                raise ValueError(
                    f"{where}: latency percentiles out of order: "
                    f"{p50} / {p95} / {p99} / {latency['max']}"
                )


def _check_shard_rows(
    rows: list[Mapping[str, int]],
    aggregate: Mapping[str, int],
    n_shards: int,
    where: str,
) -> None:
    """Shared shape + sum reconciliation for delta and cumulative rows."""
    if len(rows) != n_shards:
        raise ValueError(
            f"{where}: {len(rows)} shard rows for {n_shards} shards"
        )
    for s, row in enumerate(rows):
        if row.get("shard_id") != s:
            raise ValueError(
                f"{where}: shard row {s} carries shard_id "
                f"{row.get('shard_id')}"
            )
        for field in _FIELDS:
            if row[field] < 0:
                raise ValueError(
                    f"{where}: shard {s} negative {field} {row[field]}"
                )
        if row["hits"] + row["misses"] != row["requests"]:
            raise ValueError(
                f"{where}: shard {s} hits {row['hits']} + misses "
                f"{row['misses']} != requests {row['requests']}"
            )
    for field in _FIELDS:
        total = sum(row[field] for row in rows)
        if aggregate[field] != total:
            raise ValueError(
                f"{where}: aggregate {field} {aggregate[field]} != "
                f"shard sum {total}"
            )
