"""Figure 9 — disk accesses versus data set size (synthetic region data).

Three panels for NX and HS trees over growing data sets (the paper
does not state the query size; we default to point queries, where the
phenomenon is cleanest — pass ``region_side`` for region queries):

* no buffer (nodes visited — the old metric): the well-structured (HS)
  curve is nearly flat, wrongly suggesting a 300,000-rectangle tree
  costs no more to query than a 25,000-rectangle one;
* buffer = 10 and buffer = 300 (disk accesses — the new metric): the
  cost of larger trees becomes evident, which matters for, e.g., query
  optimisers.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..model import buffer_model, expected_node_accesses
from ..queries import UniformPointWorkload, UniformRegionWorkload
from .common import Table, get_description

__all__ = ["Fig9Result", "run"]

META = {
    "name": "fig9",
    "title": "Disk accesses vs. data set size (synthetic region data)",
    "source": "Fig. 9",
}
"""Experiment metadata for the runner registry (rule RL004)."""

DEFAULT_SIZES = (10_000, 25_000, 50_000, 100_000, 150_000, 200_000, 300_000)
DEFAULT_LOADERS = ("nx", "hs")
DEFAULT_BUFFERS = (10, 300)
CAPACITY = 100
REGION_SIDE = 0.0
"""Query side length; 0 means point queries (see module docstring)."""


@dataclass(frozen=True)
class Fig9Result:
    """Node-access and disk-access curves versus data size."""

    sizes: tuple[int, ...]
    node_accesses: dict[str, tuple[float, ...]]
    """Loader -> bufferless nodes visited, one value per data size."""
    disk_accesses: dict[tuple[str, int], tuple[float, ...]]
    """(loader, buffer size) -> disk accesses, one value per data size."""

    def growth(self, curve: tuple[float, ...]) -> float:
        """Cost ratio of the largest data set to the smallest."""
        return curve[-1] / curve[0] if curve[0] > 0 else float("inf")

    def to_text(self) -> str:
        out = []
        table = Table(["rectangles"] + list(self.node_accesses))
        for i, size in enumerate(self.sizes):
            table.add(size, *[self.node_accesses[k][i] for k in self.node_accesses])
        out.append(table.to_text("Fig. 9 (top left): nodes visited, no buffer"))
        buffers = sorted({b for _, b in self.disk_accesses})
        for buffer_size in buffers:
            keys = [k for k in self.disk_accesses if k[1] == buffer_size]
            table = Table(["rectangles"] + [k[0] for k in keys])
            for i, size in enumerate(self.sizes):
                table.add(size, *[self.disk_accesses[k][i] for k in keys])
            out.append(
                table.to_text(
                    f"Fig. 9: disk accesses, buffer size = {buffer_size}"
                )
            )
        return "\n\n".join(out)


def run(
    sizes=DEFAULT_SIZES,
    loaders=DEFAULT_LOADERS,
    buffers=DEFAULT_BUFFERS,
    region_side: float = REGION_SIDE,
) -> Fig9Result:
    """Reproduce Fig. 9 (cost vs data size, with and without buffer)."""
    if region_side > 0.0:
        workload = UniformRegionWorkload((region_side, region_side))
    else:
        workload = UniformPointWorkload()
    node_accesses: dict[str, list[float]] = {k: [] for k in loaders}
    disk: dict[tuple[str, int], list[float]] = {
        (loader, b): [] for loader in loaders for b in buffers
    }
    for size in sizes:
        for loader in loaders:
            desc = get_description("region", size, CAPACITY, loader)
            node_accesses[loader].append(expected_node_accesses(desc, workload))
            for b in buffers:
                disk[(loader, b)].append(
                    buffer_model(desc, workload, b).disk_accesses
                )
    return Fig9Result(
        sizes=tuple(sizes),
        node_accesses={k: tuple(v) for k, v in node_accesses.items()},
        disk_accesses={k: tuple(v) for k, v in disk.items()},
    )
