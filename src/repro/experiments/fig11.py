"""Figure 11 — when does pinning pay off?

Left panel: disk accesses versus buffer size on a Hilbert-packed Long
Beach tree with 25 keys per node, for pinning 0–3 levels.  Pinning 0,
1 or 2 levels is indistinguishable; pinning 3 levels helps only over a
small range of buffer sizes (and is infeasible below the ~91 pages the
top three levels occupy).

Right panel: percentage improvement of pinning 2 and 3 levels versus
no pinning, as the region query side ``QX`` grows from 0 (point
queries) to 0.15, on the 250,000-point tree with a 500-page buffer.
Larger queries drag in ever more leaf pages, which dwarfs the pinned
top levels and erodes the benefit.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..buffer import PinningError
from ..model import buffer_model
from ..queries import UniformPointWorkload, UniformRegionWorkload
from .common import Table, get_description

__all__ = ["Fig11Result", "run"]

META = {
    "name": "fig11",
    "title": "When pinning pays off: buffer-size and level sweeps",
    "source": "Fig. 11",
}
"""Experiment metadata for the runner registry (rule RL004)."""

DEFAULT_BUFFER_SIZES = (50, 75, 100, 150, 200, 300, 500, 750, 1000, 1500, 2000)
DEFAULT_QUERY_SIDES = (0.0, 0.01, 0.025, 0.05, 0.075, 0.1, 0.125, 0.15)
CAPACITY = 25
RIGHT_PANEL_POINTS = 250_000
RIGHT_PANEL_BUFFER = 500


@dataclass(frozen=True)
class Fig11Result:
    """Both panels of Fig. 11."""

    buffer_sizes: tuple[int, ...]
    left_curves: dict[int, tuple[float | None, ...]]
    """Pinned levels -> disk accesses per buffer size (None = infeasible)."""
    query_sides: tuple[float, ...]
    right_curves: dict[int, tuple[float, ...]]
    """Pinned levels -> % improvement vs no pinning, per query side."""

    def to_text(self) -> str:
        left = Table(
            ["buffer"] + [f"pin {p}" for p in sorted(self.left_curves)]
        )
        for i, size in enumerate(self.buffer_sizes):
            cells = [
                self.left_curves[p][i] if self.left_curves[p][i] is not None else "n/a"
                for p in sorted(self.left_curves)
            ]
            left.add(size, *cells)
        right = Table(
            ["QX"] + [f"pin {p} (%)" for p in sorted(self.right_curves)]
        )
        for i, side in enumerate(self.query_sides):
            right.add(side, *[self.right_curves[p][i] for p in sorted(self.right_curves)])
        return (
            left.to_text(
                "Fig. 11 (left): disk accesses vs buffer size by pinned levels "
                f"(Long Beach, HS, node size {CAPACITY}, point queries)"
            )
            + "\n\n"
            + right.to_text(
                "Fig. 11 (right): % improvement from pinning vs query side QX "
                f"({RIGHT_PANEL_POINTS} points, buffer {RIGHT_PANEL_BUFFER})"
            )
        )


def run(
    buffer_sizes=DEFAULT_BUFFER_SIZES,
    query_sides=DEFAULT_QUERY_SIDES,
    loader: str = "hs",
) -> Fig11Result:
    """Reproduce Fig. 11 (pinning benefit vs buffer size and query size)."""
    point = UniformPointWorkload()

    # Left panel: Long Beach, node size 25, pinning 0-3 levels.
    tiger_desc = get_description("tiger", None, CAPACITY, loader)
    left: dict[int, list[float | None]] = {p: [] for p in (0, 1, 2, 3)}
    for b in buffer_sizes:
        for p in left:
            try:
                result = buffer_model(tiger_desc, point, b, pinned_levels=p)
            except PinningError:
                left[p].append(None)
            else:
                left[p].append(result.disk_accesses)

    # Right panel: synthetic points, sweep the query side.
    deep_desc = get_description("point", RIGHT_PANEL_POINTS, CAPACITY, loader)
    right: dict[int, list[float]] = {2: [], 3: []}
    for side in query_sides:
        workload = (
            point if side == 0.0 else UniformRegionWorkload((side, side))
        )
        base = buffer_model(
            deep_desc, workload, RIGHT_PANEL_BUFFER, pinned_levels=0
        ).disk_accesses
        for p in right:
            pinned = buffer_model(
                deep_desc, workload, RIGHT_PANEL_BUFFER, pinned_levels=p
            ).disk_accesses
            right[p].append(
                100.0 * (base - pinned) / base if base > 0 else 0.0
            )

    return Fig11Result(
        buffer_sizes=tuple(buffer_sizes),
        left_curves={p: tuple(v) for p, v in left.items()},
        query_sides=tuple(query_sides),
        right_curves={p: tuple(v) for p, v in right.items()},
    )
