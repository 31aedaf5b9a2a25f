"""Live serving telemetry: a sampled time-series over a running service.

The paper's central quantity — buffer hit ratio as a function of
buffer size (Fig 6, Eq. 5/6) — is a *steady-state* prediction, but
the serving engine is an online system: the LRU warms, Zipf hot keys
settle, queue depth breathes with the arrival process.  A terminal
aggregate cannot show whether the run ever *reached* the predicted
steady state, only where it ended.  This module samples the running
service at a fixed interval so the approach to Eq. 5/6's prediction
is itself observable, tick by tick.

Three pieces:

* :class:`TelemetrySink` — samples a ``QueryService`` (duck-typed, see
  below) every ``interval_s`` seconds and streams each sample as one
  JSON line.
* :func:`derive_ticks` — the stream's one piece of arithmetic: per-tick
  deltas, their aggregate, batch occupancy and the trailing window's
  hit ratio.  The sink (for its SLO input), :func:`validate_telemetry`
  and ``tools/serve_report.py`` all call it.
* :class:`SLOMonitor` — a deterministic error-budget account over a
  target p99 and/or hit-ratio floor: each traffic-carrying tick either
  meets the targets or burns budget; alerting needs a fast and a slow
  trailing window both burning (burn rate 1.0 = violating at exactly
  the budgeted fraction of ticks).

The ``repro-telemetry/2`` stream: line 1 is a header (config, shard
capacities, the Eq. 5/6 model-predicted hit ratio, SLO targets), every
further line is a tick holding what the sink sampled, once — the
service's ``queries``/``batches`` totals, its ``resets`` count, each
shard's cumulative counters (``shards``, position = shard id), the
queue depth, the latency percentiles of the samples ``service.latency``
recorded since the previous tick, and the SLO status.  Everything else
follows from those through :func:`derive_ticks`.

Counter discipline: the service's counters restart from zero at every
``reset_measurement()`` (the warm-up boundary), and the tick records
how many resets have run.  Where that count changes, the derived
deltas restart from zero, so a tick after a reset reports exactly the
traffic since the reset.  Between resets no counter may fall, which is
what :func:`validate_telemetry` checks on the derived deltas.

Layering: ``repro.obs`` is a leaf package, so the sink does not import
the serving or buffer layers.  It speaks to the service through a
small duck-typed protocol — ``pool.shard_stats()`` /
``pool.shard_capacities()`` / ``pool.policy``, ``queries_served`` /
``batches_served`` / ``resets`` / ``queue_depth`` / ``latency`` /
``max_batch`` / ``max_wait_us``.  The model-predicted hit ratio is
passed *in* as a plain number by the experiments layer (which owns
:func:`repro.model.buffer_model`); the sink records it in the header,
it never computes it.

Thread discipline (checked under ``REPRO_SANITIZE=1``): the recent
ticks the derivation reads, the latency cursor and the sequence
number are guarded by one sink lock.  The serving path never calls
the sink; the sink only reads the service.
"""

from __future__ import annotations

import json
import threading
import time
from collections.abc import Callable, Mapping, Sequence
from typing import IO, Any

import numpy as np

from .latency import nearest_rank_us

__all__ = [
    "TELEMETRY_SCHEMA",
    "SLOMonitor",
    "TelemetrySink",
    "derive_ticks",
    "read_telemetry",
    "validate_telemetry",
]

TELEMETRY_SCHEMA = "repro-telemetry/2"

#: Counter fields sampled per shard, in export order.
_FIELDS = ("requests", "hits", "misses", "evictions")

_NS_PER_US = 1_000.0
_NS_PER_S = 1e9


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
    reported for whole-run accounting, but it is not the alert
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
        if fast_window < 1:
            raise ValueError("fast_window must be >= 1")
        if slow_window < fast_window:
            raise ValueError("slow_window must be >= fast_window")
        self.p99_target_us = p99_target_us
        self.hit_ratio_floor = hit_ratio_floor
        self.budget = float(budget)
        self.fast_window = int(fast_window)
        self.slow_window = int(slow_window)
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

        ``p99_us`` is the tick's p99 (None when no latency samples
        landed this tick), ``hit_ratio`` the windowed hit ratio (None
        when the window carried no requests), ``requests`` the tick's
        delta request count.  A target with no signal this tick is
        treated as met — absence of evidence never burns budget.
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
            while len(self._recent) > self.slow_window:
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
        Trailing-window length in ticks for the windowed hit ratio
        (see :func:`derive_ticks`).
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
        # The last window + 1 ticks: the newest tick's derivation reads
        # its predecessor and the rest of its trailing window.
        self._recent: list[dict[str, Any]] = []
        self._latency_cursor: tuple[int, int] | None = None
        self._seq = 0
        self._thread: threading.Thread | None = None
        self._stop_event = threading.Event()

        self._t0 = int(self._clock())
        pool = service.pool
        self._header = {
            "schema": TELEMETRY_SCHEMA,
            "kind": "header",
            "interval_s": self.interval_s,
            "window": self.window,
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
    # Sampling
    # ------------------------------------------------------------------
    def tick(self) -> dict[str, Any]:
        """Take one sample now; returns (and streams) the tick line.

        Samples the pool's per-shard counters, the service's totals,
        reset count and queue depth, and the latency samples recorded
        since the previous tick.  The counters are re-read if a reset
        landed while they were read, so one tick never mixes counters
        from both sides of a reset.  Safe to call from the ticker
        thread or directly from synchronous code such as a test (never
        both at once).
        """
        now = int(self._clock())
        service = self._service
        while True:
            resets = int(service.resets)
            shards = [
                {field: int(getattr(snap, field)) for field in _FIELDS}
                for snap in service.pool.shard_stats()
            ]
            queries = int(service.queries_served)
            batches = int(service.batches_served)
            if service.resets == resets:
                break
        tick: dict[str, Any] = {
            "kind": "tick",
            "elapsed_s": (now - self._t0) / _NS_PER_S,
            "queue_depth": int(service.queue_depth),
            "queries": queries,
            "batches": batches,
            "resets": resets,
            "shards": shards,
        }
        with self._lock:
            samples, self._latency_cursor = service.latency.samples_since(
                self._latency_cursor
            )
            latency = _latency_window_us(samples)
            tick["seq"] = self._seq
            tick["latency_us"] = latency
            self._recent.append(tick)
            while len(self._recent) > self.window + 1:
                self._recent.pop(0)
            tick["slo"] = None
            if self._slo is not None:
                derived = derive_ticks(self._recent, self.window)[-1]
                tick["slo"] = self._slo.observe(
                    p99_us=latency["p99"] if latency is not None else None,
                    hit_ratio=derived["hit_ratio"],
                    requests=derived["aggregate"]["requests"],
                )
            self._seq += 1
            self._write_line(tick)
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

        Call after the service has drained: the final tick's per-shard
        counters then equal the pool's ``shard_stats()`` exactly — the
        invariant the metrics-export validator checks.
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
    def header(self) -> dict[str, Any]:
        """The stream header (line 1), as written."""
        return dict(self._header)

    def pointer(self) -> dict[str, Any] | None:
        """The ``serving.telemetry`` block for the metrics export.

        Embeds the final tick's per-shard counters (and their sum) so
        the document validator can reconcile the stream against the
        serving section's buffer stats without re-reading the JSONL.
        Returns None before the first tick (nothing to reconcile).
        """
        with self._lock:
            if not self._recent:
                return None
            rows = self._recent[-1]["shards"]
            return {
                "schema": TELEMETRY_SCHEMA,
                "path": self.path,
                "interval_s": self.interval_s,
                "ticks": self._seq,
                "final": {
                    "aggregate": {
                        f: sum(row[f] for row in rows) for f in _FIELDS
                    },
                    "shards": [
                        {"shard_id": i, **row} for i, row in enumerate(rows)
                    ],
                },
            }

    def _write_line(self, record: Mapping[str, Any]) -> None:
        if self._writer is not None:
            self._writer.write(json.dumps(record, sort_keys=True) + "\n")


def _latency_window_us(samples: np.ndarray) -> dict[str, float] | None:
    """Nearest-rank percentiles of one tick's samples (ns → us).

    None when the tick carried no samples (an idle tick).
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


def derive_ticks(
    ticks: Sequence[Mapping[str, Any]], window: int
) -> list[dict[str, Any]]:
    """What follows from a run of sampled ticks, one record per tick.

    Each record holds the tick's deltas — ``queries``, ``batches`` and
    the per-shard ``shards`` rows, summed into ``aggregate`` — with
    ``occupancy`` (queries per batch, None without batches), ``reset``
    (the reset count changed since the previous tick) and ``hit_ratio``
    over the aggregates of the trailing ``window`` ticks (None when
    they carried no requests).  The deltas start from zero at the
    first tick given and wherever the reset count changes, so a tick
    after a reset reports exactly the traffic since the reset.
    """
    derived: list[dict[str, Any]] = []
    prev: Mapping[str, Any] | None = None
    for tick in ticks:
        reset = prev is not None and tick["resets"] != prev["resets"]
        if prev is None or reset:
            zero = dict.fromkeys(_FIELDS, 0)
            prev = {
                "queries": 0,
                "batches": 0,
                "shards": [zero] * len(tick["shards"]),
            }
        shards = [
            {f: row[f] - before[f] for f in _FIELDS}
            for row, before in zip(tick["shards"], prev["shards"])
        ]
        aggregate = {f: sum(row[f] for row in shards) for f in _FIELDS}
        queries = tick["queries"] - prev["queries"]
        batches = tick["batches"] - prev["batches"]
        start = max(0, len(derived) - window + 1)
        trailing = [d["aggregate"] for d in derived[start:]] + [aggregate]
        requests = sum(a["requests"] for a in trailing)
        hits = sum(a["hits"] for a in trailing)
        derived.append(
            {
                "reset": reset,
                "queries": queries,
                "batches": batches,
                "occupancy": queries / batches if batches > 0 else None,
                "shards": shards,
                "aggregate": aggregate,
                "hit_ratio": hits / requests if requests > 0 else None,
            }
        )
        prev = tick
    return derived


# ----------------------------------------------------------------------
# Stream reading and validation
# ----------------------------------------------------------------------
def read_telemetry(path: str) -> tuple[dict[str, Any], list[dict[str, Any]]]:
    """Load and validate a ``repro-telemetry/2`` JSONL stream.

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
    """Check a stream's samples; raises ``ValueError`` on the first fault.

    The header must be a ``repro-telemetry/2`` header.  Each tick must
    carry a contiguous ``seq``, one row per shard capacity with
    non-negative counters and ``hits + misses == requests``,
    non-negative totals and queue depth, a reset count that never
    falls, and ordered latency percentiles.  Between resets no counter
    may fall: every delta :func:`derive_ticks` gives is non-negative.
    """
    if header.get("schema") != TELEMETRY_SCHEMA:
        raise ValueError(
            f"unsupported telemetry schema {header.get('schema')!r}; "
            f"expected {TELEMETRY_SCHEMA!r}"
        )
    if header.get("kind") != "header":
        raise ValueError("first line of a telemetry stream must be a header")
    for key in ("interval_s", "window", "shard_capacities", "policy",
                "config"):
        if key not in header:
            raise ValueError(f"telemetry header missing {key!r}")
    n_shards = len(header["shard_capacities"])
    window = int(header["window"])
    if window < 1:
        raise ValueError("header window must be >= 1")

    resets = 0
    for i, tick in enumerate(ticks):
        where = f"tick {i}"
        if tick.get("kind") != "tick":
            raise ValueError(f"{where}: kind is {tick.get('kind')!r}")
        if tick.get("seq") != i:
            raise ValueError(f"{where}: seq {tick.get('seq')} out of order")
        rows = tick["shards"]
        if len(rows) != n_shards:
            raise ValueError(
                f"{where}: {len(rows)} shard rows for {n_shards} shards"
            )
        for s, row in enumerate(rows):
            if min(row[f] for f in _FIELDS) < 0:
                raise ValueError(f"{where}: shard {s} has a negative counter")
            if row["hits"] + row["misses"] != row["requests"]:
                raise ValueError(
                    f"{where}: shard {s} hits {row['hits']} + misses "
                    f"{row['misses']} != requests {row['requests']}"
                )
        if min(tick["queries"], tick["batches"], tick["queue_depth"]) < 0:
            raise ValueError(f"{where}: negative total or queue depth")
        if tick["resets"] < resets:
            raise ValueError(
                f"{where}: reset count fell from {resets} to {tick['resets']}"
            )
        resets = tick["resets"]
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

    for i, derived in enumerate(derive_ticks(ticks, window)):
        deltas = [derived["queries"], derived["batches"]]
        deltas += [row[f] for row in derived["shards"] for f in _FIELDS]
        if min(deltas) < 0:
            raise ValueError(f"tick {i}: a counter fell without a reset")
