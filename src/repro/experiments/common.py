"""Shared infrastructure for the paper's experiments.

Data sets and tree descriptions are deterministic and cached per
process, so a bench run builds each tree (including the slow TAT
trees) exactly once.

A run has three settings, read from the environment once and validated
by :func:`run_config` before the first experiment starts:

* ``REPRO_SIM_BATCHES`` (default 20, as in the paper; at least 2) and
  ``REPRO_SIM_QUERIES`` (queries per batch, default 20,000; at least
  1): Table 1's simulation budget, which scales toward the paper's
  20 × 10⁶ queries when runtime allows;
* ``REPRO_SERVE_SHARDS`` (default 1; at least 1): buffer shards K for
  the ``--serve`` probes.  K=1 reproduces the batch simulator
  bit-exactly, see ``docs/SERVING.md``.

``REPRO_SANITIZE`` is read by ``import repro`` itself.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
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
    "RunConfig",
    "Table",
    "get_dataset",
    "get_description",
    "run_config",
    "serve_slo",
]

DATASET_SEEDS = {"tiger": 1998, "cfd": 737, "region": 11, "point": 13}
"""Fixed seeds: every experiment sees the same data sets."""


@dataclass(frozen=True)
class RunConfig:
    """The validated settings of one run (see the module docstring)."""

    sim_batches: int = 20
    """Batch-means batches for Table 1's simulation."""
    sim_queries: int = 20_000
    """Queries per simulation batch."""
    serve_shards: int = 1
    """Buffer shards K for the serving probes."""


_SETTINGS = (
    ("REPRO_SIM_BATCHES", "sim_batches", 2),
    ("REPRO_SIM_QUERIES", "sim_queries", 1),
    ("REPRO_SERVE_SHARDS", "serve_shards", 1),
)
"""(environment variable, :class:`RunConfig` field, smallest value)."""


def run_config(defaults: RunConfig = RunConfig()) -> RunConfig:
    """The run's settings from the environment.

    An unset variable keeps its value from ``defaults``.  A set one
    must be an integer at or above its minimum; otherwise the
    ``ValueError`` names the variable and the value.
    """
    values: dict[str, int] = {}
    for variable, field, minimum in _SETTINGS:
        raw = os.environ.get(variable)
        if raw is None:
            continue
        try:
            value: int | None = int(raw)
        except ValueError:
            value = None
        if value is None or value < minimum:
            raise ValueError(
                f"{variable}={raw!r} is not an integer >= {minimum}"
            )
        values[field] = value
    return replace(defaults, **values)


def serve_slo() -> tuple[float, float]:
    """``(p99_target_us, hit_ratio_floor)`` of the serving probes' SLO.

    A 50 ms p99, generous for smoke-sized probes on shared CI hosts,
    and a 0.0 hit-ratio floor, which never burns.  The error budget
    and alert windows are :class:`~repro.obs.SLOMonitor`'s defaults.
    """
    return 50_000.0, 0.0


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
