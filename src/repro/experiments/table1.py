"""Table 1 — validation of the buffer model against simulation.

The paper compares predicted and simulated disk accesses per uniform
point query on R-trees of 1,668 nodes built by its packing algorithms,
for six buffer sizes, and reports agreement within 2%.  We rebuild the
setup from synthetic region data: 165,000 rectangles at node capacity
100 pack into exactly 1650 + 17 + 1 = 1,668 nodes.

The paper's batches of 10⁶ queries are scaled down by default (see
:class:`~repro.experiments.common.RunConfig`); the confidence intervals
are reported so the agreement can be judged against the measurement
noise.  Table 1 is the one artefact that simulates.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..model import buffer_model
from ..queries import UniformPointWorkload
from ..simulation import simulate_sweep
from .common import RunConfig, Table, get_description

__all__ = ["Table1Row", "Table1Result", "run"]

META = {
    "name": "table1",
    "title": "Buffer-model validation against simulation",
    "source": "Table 1",
}
"""Experiment metadata for the runner registry (rule RL004)."""

DEFAULT_BUFFER_SIZES = (10, 50, 100, 200, 300, 500)
DEFAULT_LOADERS = ("nx", "hs", "str")
DATA_SIZE = 165_000
CAPACITY = 100


@dataclass(frozen=True)
class Table1Row:
    """One (loader, buffer size) validation cell."""

    loader: str
    buffer_size: int
    model: float
    simulated: float
    ci_half_width: float
    percent_difference: float
    """100 · (model − simulated) / simulated, as the paper reports."""


@dataclass(frozen=True)
class Table1Result:
    """All validation rows plus the tree sizes used."""

    rows: tuple[Table1Row, ...]
    total_nodes: dict[str, int]

    @property
    def max_abs_percent_difference(self) -> float:
        """Worst-case |model − sim| / sim over all rows."""
        return max(abs(r.percent_difference) for r in self.rows)

    def to_text(self) -> str:
        table = Table(
            ["loader", "buffer", "model", "simulation", "ci±", "diff %"]
        )
        for r in self.rows:
            table.add(
                r.loader,
                r.buffer_size,
                r.model,
                r.simulated,
                r.ci_half_width,
                r.percent_difference,
            )
        sizes = ", ".join(f"{k}={v}" for k, v in self.total_nodes.items())
        return table.to_text(
            "Table 1: model vs simulation, disk accesses per point query "
            f"(tree nodes: {sizes})"
        )


def run(
    buffer_sizes=DEFAULT_BUFFER_SIZES,
    loaders=DEFAULT_LOADERS,
    n_batches: int = RunConfig.sim_batches,
    batch_size: int = RunConfig.sim_queries,
) -> Table1Result:
    """Reproduce Table 1 (model vs simulation validation)."""
    workload = UniformPointWorkload()

    rows: list[Table1Row] = []
    total_nodes: dict[str, int] = {}
    for loader in loaders:
        desc = get_description("region", DATA_SIZE, CAPACITY, loader)
        total_nodes[loader] = desc.total_nodes
        # One stack-distance pass simulates every buffer size at once
        # (bit-exact vs the old per-size loop; see simulate_sweep).
        measurements = simulate_sweep(
            desc,
            workload,
            buffer_sizes,
            n_batches=n_batches,
            batch_size=batch_size,
        )
        for buffer_size, measured in zip(buffer_sizes, measurements):
            predicted = buffer_model(desc, workload, buffer_size)
            sim_mean = measured.disk_accesses.mean
            diff = (
                100.0 * (predicted.disk_accesses - sim_mean) / sim_mean
                if sim_mean > 0
                else 0.0
            )
            rows.append(
                Table1Row(
                    loader=loader,
                    buffer_size=buffer_size,
                    model=predicted.disk_accesses,
                    simulated=sim_mean,
                    ci_half_width=measured.disk_accesses.half_width,
                    percent_difference=diff,
                )
            )
    return Table1Result(rows=tuple(rows), total_nodes=total_nodes)
