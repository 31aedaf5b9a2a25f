"""repro — "The Effect of Buffering on the Performance of R-Trees".

A full reproduction of Leutenegger & López (ICDE 1998 / TKDE 2000):
R-trees, loading algorithms (TAT, NX, HS, STR), an LRU buffer
simulator, and — the paper's contribution — an analytical buffer model
predicting the expected number of *disk accesses* per query.

Quick tour (see ``examples/quickstart.py`` for a runnable version)::

    import numpy as np
    from repro import (
        LRUBuffer, RTree, TreeDescription, UniformPointWorkload,
        buffer_model, load_description, simulate, synthetic_region,
    )

    data = synthetic_region(20_000, rng=42)
    desc = load_description("hs", data, capacity=100)
    workload = UniformPointWorkload()
    predicted = buffer_model(desc, workload, buffer_size=100)
    measured = simulate(desc, workload, buffer_size=100)
"""

from __future__ import annotations

from .buffer import (
    BufferPool,
    BufferStats,
    ClockBuffer,
    FIFOBuffer,
    LRUBuffer,
    PinningError,
    RandomBuffer,
)
from .datasets import (
    CFD_SIZE,
    TIGER_SIZE,
    cfd_like,
    load_rects,
    save_rects,
    synthetic_point,
    synthetic_region,
    tiger_like,
)
from .geometry import GeometryError, Rect, RectArray, mbr_of, unit_rect
from .obs import LevelStats, LevelStatsTable
from .model import (
    BufferModelResult,
    buffer_model,
    buffer_model_sweep,
    expected_distinct_nodes,
    expected_node_accesses,
    kamel_faloutsos_estimate,
    max_pinnable_levels,
    pinning_improvement,
    queries_to_fill_buffer,
    steady_state_disk_accesses,
    sweep_pinning,
)
from .packing import (
    LOADERS,
    load_description,
    load_tree,
    pack_description,
    pack_tree,
    tat_tree,
)
from .queries import (
    DataDrivenWorkload,
    MixedWorkload,
    QueryWorkload,
    UniformPointWorkload,
    UniformRegionWorkload,
)
from .rtree import (
    InvariantViolation,
    QueryResult,
    RStarTree,
    RTree,
    TreeDescription,
    check_tree,
)
from .simulation import (
    BatchMeansEstimate,
    SimulationResult,
    ValidationReport,
    batch_means,
    simulate,
    validate_model,
)

__version__ = "1.0.0"

__all__ = [
    "BatchMeansEstimate",
    "BufferModelResult",
    "BufferPool",
    "BufferStats",
    "CFD_SIZE",
    "ClockBuffer",
    "DataDrivenWorkload",
    "FIFOBuffer",
    "GeometryError",
    "InvariantViolation",
    "LOADERS",
    "LRUBuffer",
    "LevelStats",
    "LevelStatsTable",
    "MixedWorkload",
    "PinningError",
    "QueryResult",
    "QueryWorkload",
    "RStarTree",
    "RTree",
    "RandomBuffer",
    "Rect",
    "RectArray",
    "SimulationResult",
    "TIGER_SIZE",
    "TreeDescription",
    "UniformPointWorkload",
    "ValidationReport",
    "UniformRegionWorkload",
    "batch_means",
    "buffer_model",
    "buffer_model_sweep",
    "cfd_like",
    "check_tree",
    "expected_distinct_nodes",
    "expected_node_accesses",
    "kamel_faloutsos_estimate",
    "load_description",
    "load_rects",
    "load_tree",
    "max_pinnable_levels",
    "mbr_of",
    "pack_description",
    "pack_tree",
    "pinning_improvement",
    "queries_to_fill_buffer",
    "save_rects",
    "simulate",
    "steady_state_disk_accesses",
    "sweep_pinning",
    "synthetic_point",
    "synthetic_region",
    "tat_tree",
    "tiger_like",
    "unit_rect",
    "validate_model",
]


def _maybe_install_sanitizer() -> None:
    """Activate the shared-state sanitizer when REPRO_SANITIZE=1.

    ``1``, ``true`` and ``on`` set the flag; this is the one place
    that reads it.  Lazy imports keep the cost at zero for normal
    runs: the analysis package is only pulled in when the flag is set.
    """
    import os

    if os.environ.get("REPRO_SANITIZE", "").strip() in ("1", "true", "on"):
        from .analysis.sanitize import install

        install()


_maybe_install_sanitizer()
