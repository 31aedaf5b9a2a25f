"""Figure 6 — sensitivity to buffer size on the Long Beach data.

Disk accesses per query versus buffer size for trees built by TAT, NX
and HS (node capacity 100; 532/6/1 pages), under uniform point queries
(left panel) and 1%-area region queries, i.e. 0.1 × 0.1 (right panel).

The headline qualitative result: for region queries the TAT and NX
curves *cross* — TAT needs fewer disk accesses than NX at small buffers
but NX wins once the buffer exceeds a couple of hundred pages — so a
bufferless comparison ranks the algorithms incorrectly.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..model import buffer_model_sweep, expected_node_accesses
from ..queries import UniformPointWorkload, UniformRegionWorkload
from .common import Table, get_description

__all__ = ["Fig6Result", "run"]

META = {
    "name": "fig6",
    "title": "Disk accesses vs. buffer size on the Long Beach data",
    "source": "Fig. 6",
}
"""Experiment metadata for the runner registry (rule RL004)."""

DEFAULT_BUFFER_SIZES = (2, 5, 10, 20, 50, 100, 150, 200, 300, 400, 500)
DEFAULT_LOADERS = ("tat", "nx", "hs")
CAPACITY = 100
REGION_SIDE = 0.1
"""1% region queries: a 0.1 × 0.1 query covers 1% of the unit square."""


@dataclass(frozen=True)
class Fig6Result:
    """Disk-access curves for both panels of Fig. 6."""

    buffer_sizes: tuple[int, ...]
    point_curves: dict[str, tuple[float, ...]]
    """Loader -> disk accesses per point query, one per buffer size."""
    region_curves: dict[str, tuple[float, ...]]
    """Loader -> disk accesses per 1% region query."""
    point_node_accesses: dict[str, float]
    """Bufferless expected node accesses (the old metric), point queries."""
    region_node_accesses: dict[str, float]
    """Bufferless expected node accesses, region queries."""

    def crossover_buffer(
        self, a: str, b: str, region: bool = True
    ) -> int | None:
        """Smallest buffer size at which loader ``b`` beats loader ``a``.

        Returns None if ``b`` never becomes strictly better over the
        swept buffer sizes.  For the paper's TAT/NX crossover use
        ``crossover_buffer("tat", "nx")`` (≈200 in the paper).
        """
        curves = self.region_curves if region else self.point_curves
        for size, cost_a, cost_b in zip(
            self.buffer_sizes, curves[a], curves[b]
        ):
            if cost_b < cost_a:
                return size
        return None

    def to_text(self) -> str:
        out = []
        for label, curves, bufferless in (
            ("point queries", self.point_curves, self.point_node_accesses),
            (
                f"{REGION_SIDE}x{REGION_SIDE} region queries",
                self.region_curves,
                self.region_node_accesses,
            ),
        ):
            table = Table(["buffer"] + list(curves))
            table.add("(no buffer)", *[bufferless[k] for k in curves])
            for i, size in enumerate(self.buffer_sizes):
                table.add(size, *[curves[k][i] for k in curves])
            out.append(
                table.to_text(f"Fig. 6: disk accesses vs buffer size — {label}")
            )
        if "tat" in self.region_curves and "nx" in self.region_curves:
            cross = self.crossover_buffer("tat", "nx", region=True)
            out.append(
                "TAT/NX region-query crossover at buffer size: "
                + (str(cross) if cross is not None else "none observed")
            )
        return "\n\n".join(out)


def run(
    buffer_sizes=DEFAULT_BUFFER_SIZES,
    loaders=DEFAULT_LOADERS,
    region_side: float = REGION_SIDE,
) -> Fig6Result:
    """Reproduce Fig. 6 from the analytical buffer model."""
    point = UniformPointWorkload()
    region = UniformRegionWorkload((region_side, region_side))

    point_curves: dict[str, tuple[float, ...]] = {}
    region_curves: dict[str, tuple[float, ...]] = {}
    point_nodes: dict[str, float] = {}
    region_nodes: dict[str, float] = {}
    for loader in loaders:
        desc = get_description("tiger", None, CAPACITY, loader)
        point_nodes[loader] = expected_node_accesses(desc, point)
        region_nodes[loader] = expected_node_accesses(desc, region)
        point_curves[loader] = tuple(
            r.disk_accesses
            for r in buffer_model_sweep(desc, point, buffer_sizes)
        )
        region_curves[loader] = tuple(
            r.disk_accesses
            for r in buffer_model_sweep(desc, region, buffer_sizes)
        )
    return Fig6Result(
        buffer_sizes=tuple(buffer_sizes),
        point_curves=point_curves,
        region_curves=region_curves,
        point_node_accesses=point_nodes,
        region_node_accesses=region_nodes,
    )
