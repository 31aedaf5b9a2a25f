"""Shared infrastructure for the paper's experiments.

Data sets and tree descriptions are deterministic and cached per
process, so a bench run builds each tree (including the slow TAT
trees) exactly once.  Simulation budgets honour environment variables
so the validation experiments can be scaled up toward the paper's
20 × 10⁶ queries when runtime allows:

* ``REPRO_SIM_BATCHES``  (default 20, as in the paper)
* ``REPRO_SIM_QUERIES``  (queries per batch, default 20,000)
* ``REPRO_PROBE_BATCHES`` / ``REPRO_PROBE_QUERIES`` (defaults 5 /
  2,000: the smoke-sized budget every ``--metrics-out`` probe runs
  with — one definition here instead of one per probe entry point)
* ``REPRO_SERVE_SHARDS`` (default 1: buffer shards K for the serving
  probes; K=1 reproduces the batch simulator bit-exactly, see
  ``docs/SERVING.md``)
* ``REPRO_SERVE_TELEMETRY`` (a path: stream live serving telemetry
  there as ``repro-telemetry/1`` JSONL — the env twin of
  ``runner --telemetry-out``; empty/unset disables the sink)
* ``REPRO_SERVE_TELEMETRY_INTERVAL_MS`` (default 100: the sink's
  sampling period)
* ``REPRO_SERVE_SLO_P99_MS`` / ``REPRO_SERVE_SLO_HIT_FLOOR`` /
  ``REPRO_SERVE_SLO_BUDGET`` (defaults 50 / 0.0 / 0.01: the SLO
  monitor's p99 target, hit-ratio floor and error budget for
  telemetry-enabled probes)
* ``REPRO_SERVE_SLO_FAST_TICKS`` / ``REPRO_SERVE_SLO_SLOW_TICKS``
  (defaults 5 / 60: the multiwindow alert's fast and slow trailing
  windows, in ticks — the monitor alerts only when both burn)
"""

from __future__ import annotations

import os
from functools import lru_cache
from typing import Sequence

from ..datasets import (
    cfd_like,
    synthetic_point,
    synthetic_region,
    tiger_like,
)
from ..geometry import RectArray
from ..packing import load_description
from ..rtree import TreeDescription

__all__ = [
    "DATASET_SEEDS",
    "Table",
    "get_dataset",
    "get_description",
    "probe_budget",
    "serve_shards",
    "serve_slo",
    "serve_telemetry",
    "serve_telemetry_interval_s",
    "sim_batches",
    "sim_queries_per_batch",
]

DATASET_SEEDS = {"tiger": 1998, "cfd": 737, "region": 11, "point": 13}
"""Fixed seeds: every experiment sees the same data sets."""


def sim_batches() -> int:
    """Number of batch-means batches for simulations."""
    return int(os.environ.get("REPRO_SIM_BATCHES", "20"))


def sim_queries_per_batch() -> int:
    """Queries per simulation batch."""
    return int(os.environ.get("REPRO_SIM_QUERIES", "20000"))


def probe_budget() -> tuple[int, int]:
    """``(n_batches, batch_size)`` for ``--metrics-out`` probes.

    The one definition of the smoke-sized probe budget: every probe
    entry point (:mod:`repro.experiments.probes`) resolves its default
    budget here instead of re-deriving it, so scaling probes up means
    setting ``REPRO_PROBE_BATCHES`` / ``REPRO_PROBE_QUERIES`` once.
    """
    n_batches = int(os.environ.get("REPRO_PROBE_BATCHES", "5"))
    batch_size = int(os.environ.get("REPRO_PROBE_QUERIES", "2000"))
    if n_batches < 2:
        raise ValueError("REPRO_PROBE_BATCHES must be >= 2 (batch means)")
    if batch_size < 1:
        raise ValueError("REPRO_PROBE_QUERIES must be positive")
    return n_batches, batch_size


def serve_shards() -> int:
    """Buffer shards K for serving probes (default 1 = paper-exact)."""
    shards = int(os.environ.get("REPRO_SERVE_SHARDS", "1"))
    if shards < 1:
        raise ValueError("REPRO_SERVE_SHARDS must be >= 1")
    return shards


def serve_telemetry() -> str | None:
    """Telemetry stream path for serving probes (None = disabled).

    The environment twin of ``runner --telemetry-out``; an explicit
    CLI flag wins over the variable.
    """
    path = os.environ.get("REPRO_SERVE_TELEMETRY", "").strip()
    return path or None


def serve_telemetry_interval_s() -> float:
    """Telemetry sampling period in seconds (default 0.1 = 100 ms)."""
    interval_ms = float(
        os.environ.get("REPRO_SERVE_TELEMETRY_INTERVAL_MS", "100")
    )
    if interval_ms <= 0:
        raise ValueError("REPRO_SERVE_TELEMETRY_INTERVAL_MS must be positive")
    return interval_ms / 1000.0


def serve_slo() -> tuple[float, float, float, int, int]:
    """``(p99_target_us, hit_ratio_floor, budget, fast, slow)`` for the SLO.

    Defaults: 50 ms p99 (generous for smoke-sized probes on shared CI
    hosts), a 0.0 hit-ratio floor (never burns — raise it per run when
    the Eq. 5/6 prediction for the configuration is known), a 1%
    error budget, and 5-tick fast / 60-tick slow alert windows (the
    monitor pages only when both burn above 1.0).
    """
    p99_ms = float(os.environ.get("REPRO_SERVE_SLO_P99_MS", "50"))
    hit_floor = float(os.environ.get("REPRO_SERVE_SLO_HIT_FLOOR", "0.0"))
    budget = float(os.environ.get("REPRO_SERVE_SLO_BUDGET", "0.01"))
    fast = int(os.environ.get("REPRO_SERVE_SLO_FAST_TICKS", "5"))
    slow = int(os.environ.get("REPRO_SERVE_SLO_SLOW_TICKS", "60"))
    if p99_ms <= 0:
        raise ValueError("REPRO_SERVE_SLO_P99_MS must be positive")
    if not 0.0 <= hit_floor <= 1.0:
        raise ValueError("REPRO_SERVE_SLO_HIT_FLOOR must be in [0, 1]")
    if not 0.0 < budget <= 1.0:
        raise ValueError("REPRO_SERVE_SLO_BUDGET must be in (0, 1]")
    if fast < 1:
        raise ValueError("REPRO_SERVE_SLO_FAST_TICKS must be >= 1")
    if slow < fast:
        raise ValueError(
            "REPRO_SERVE_SLO_SLOW_TICKS must be >= REPRO_SERVE_SLO_FAST_TICKS"
        )
    return p99_ms * 1000.0, hit_floor, budget, fast, slow


@lru_cache(maxsize=None)
def get_dataset(name: str, n: int | None = None) -> RectArray:
    """A cached, deterministic data set by name.

    ``name`` is one of ``tiger``, ``cfd``, ``region``, ``point``;
    ``n`` overrides the default size (mandatory for the synthetic
    families).
    """
    seed = DATASET_SEEDS.get(name)
    if name == "tiger":
        return tiger_like(rng=seed) if n is None else tiger_like(n, rng=seed)
    if name == "cfd":
        return cfd_like(rng=seed) if n is None else cfd_like(n, rng=seed)
    if name == "region":
        if n is None:
            raise ValueError("synthetic region data needs an explicit size")
        return synthetic_region(n, rng=seed)
    if name == "point":
        if n is None:
            raise ValueError("synthetic point data needs an explicit size")
        return synthetic_point(n, rng=seed)
    raise ValueError(f"unknown dataset {name!r}")


@lru_cache(maxsize=None)
def get_description(
    dataset: str, n: int | None, capacity: int, loader: str
) -> TreeDescription:
    """Cached tree description for (dataset, size, capacity, loader)."""
    data = get_dataset(dataset, n)
    return load_description(loader, data, capacity)


class Table:
    """A minimal fixed-width text table for experiment output."""

    def __init__(self, headers: Sequence[str]) -> None:
        self.headers = [str(h) for h in headers]
        self.rows: list[list[str]] = []

    def add(self, *cells: object) -> None:
        """Append a row; floats are rendered with 4 significant digits."""
        if len(cells) != len(self.headers):
            raise ValueError(
                f"expected {len(self.headers)} cells, got {len(cells)}"
            )
        self.rows.append([_render(c) for c in cells])

    def to_text(self, title: str | None = None) -> str:
        """Render the table with aligned columns."""
        widths = [len(h) for h in self.headers]
        for row in self.rows:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))
        lines = []
        if title:
            lines.append(title)
        lines.append("  ".join(h.rjust(w) for h, w in zip(self.headers, widths)))
        lines.append("  ".join("-" * w for w in widths))
        for row in self.rows:
            lines.append("  ".join(c.rjust(w) for c, w in zip(row, widths)))
        return "\n".join(lines)


def _render(cell: object) -> str:
    if isinstance(cell, float):
        return f"{cell:.4g}"
    return str(cell)
