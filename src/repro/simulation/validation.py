"""First-class model-vs-simulation validation (the paper's §4 as API).

The paper validates its buffer model by comparing predicted and
simulated disk accesses over a grid of buffer sizes.  Anyone extending
the model (new workloads, new replacement policies, new tree types)
needs the same check, so it is exposed here as a single call:

    report = validate_model(desc, workload, buffer_sizes=(10, 100, 500))
    print(report.to_text())
    assert report.max_abs_percent_difference < 2.0
"""

from __future__ import annotations

from dataclasses import dataclass

from ..model import buffer_model_sweep
from ..rtree import TreeDescription
from .stackdist import simulate_sweep

__all__ = ["ValidationReport", "ValidationRow", "validate_model"]


@dataclass(frozen=True)
class ValidationRow:
    """Model vs simulation at one buffer size."""

    buffer_size: int
    model: float
    simulated: float
    ci_half_width: float
    percent_difference: float
    """100 · (model − simulated) / simulated; 0 when both are zero."""

    @property
    def within_ci(self) -> bool:
        """True if the model prediction falls inside the simulation CI."""
        return abs(self.model - self.simulated) <= self.ci_half_width


@dataclass(frozen=True)
class ValidationReport:
    """All validation rows for one tree / workload setup."""

    rows: tuple[ValidationRow, ...]
    pinned_levels: int
    policy: str

    @property
    def max_abs_percent_difference(self) -> float:
        """Worst-case |model − sim| / sim over the swept buffer sizes."""
        return max(abs(r.percent_difference) for r in self.rows)

    def to_text(self, title: str | None = None) -> str:
        lines = [title or "Model vs simulation (disk accesses per query)"]
        lines.append(
            f"{'buffer':>7} {'model':>10} {'simulated':>10} "
            f"{'ci±':>9} {'diff %':>8}"
        )
        for r in self.rows:
            lines.append(
                f"{r.buffer_size:>7} {r.model:>10.4f} {r.simulated:>10.4f} "
                f"{r.ci_half_width:>9.4f} {r.percent_difference:>8.2f}"
            )
        return "\n".join(lines)


def validate_model(
    desc: TreeDescription,
    workload,
    buffer_sizes,
    *,
    pinned_levels: int = 0,
    n_batches: int = 10,
    batch_size: int = 5000,
    policy: str = "lru",
    confidence: float = 0.90,
    rng: int | None = None,
) -> ValidationReport:
    """Compare the buffer model against simulation over buffer sizes.

    All simulation parameters mirror :func:`~repro.simulation.simulate`;
    the model side shares one access-probability computation across the
    sweep, and the simulation side runs the whole sweep in one pass
    through :func:`~repro.simulation.simulate_sweep`, every buffer size
    measured on the stream of the same seed.  ``rng`` is that seed; a
    live ``Generator`` raises ``TypeError``, as in ``simulate_sweep``.
    """
    predictions = buffer_model_sweep(
        desc, workload, buffer_sizes, pinned_levels=pinned_levels
    )
    measurements = simulate_sweep(
        desc,
        workload,
        [predicted.buffer_size for predicted in predictions],
        pinned_levels=pinned_levels,
        n_batches=n_batches,
        batch_size=batch_size,
        policy=policy,
        confidence=confidence,
        rng=rng,
    )
    rows = []
    for predicted, measured in zip(predictions, measurements):
        sim_mean = measured.disk_accesses.mean
        if sim_mean > 0:
            diff = 100.0 * (predicted.disk_accesses - sim_mean) / sim_mean
        elif predicted.disk_accesses == 0.0:
            diff = 0.0
        else:
            diff = float("inf")
        rows.append(
            ValidationRow(
                buffer_size=predicted.buffer_size,
                model=predicted.disk_accesses,
                simulated=sim_mean,
                ci_half_width=measured.disk_accesses.half_width,
                percent_difference=diff,
            )
        )
    return ValidationReport(
        rows=tuple(rows), pinned_levels=pinned_levels, policy=policy
    )
