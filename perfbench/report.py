"""What a run returns and how it is printed.

Every workload returns an :class:`Outcome`.  ``run.py`` prints a
human-readable report -- one row per workload with each metric's unit,
the correctness gates, host noise, and for traced runs the layer fold --
and then, as the last line of standard output, one JSON object with
exactly the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .layers import Fold


@dataclass
class Outcome:
    """One workload run: operations, gate failures, metrics, notes."""

    workload: str
    attempted: int
    failed: int
    gate_failures: list[str]
    metrics: dict[str, float]
    notes: list[str] = field(default_factory=list)
    counts: dict[str, float] = field(default_factory=dict)
    """Counts the shims took at layer boundaries (traced runs)."""

    @property
    def correct(self) -> bool:
        return not self.gate_failures


def metric_table(
    rows: list[tuple[str, dict[str, float]]], spec: list[dict]
) -> str:
    """Metrics as a table: one row per workload, units under the names."""
    names = [m["name"] for m in spec]
    units = [m["unit"] for m in spec]
    header = ["workload"] + names
    lines = [header, [""] + units]
    for workload, metrics in rows:
        lines.append([workload] + [f"{metrics[n]:.6g}" for n in names])
    widths = [max(len(line[i]) for line in lines) for i in range(len(header))]
    return "\n".join(
        "  ".join(
            cell.rjust(w) if i else cell.ljust(w)
            for i, (cell, w) in enumerate(zip(line, widths))
        )
        for line in lines
    )



def fold_lines(
    fold: Fold, predictions: dict, shares: dict[str, float]
) -> list[str]:
    """The layer fold, its reconciliation, and predictions met or missed
    (fold inconsistencies are gate failures, reported with the gates)."""
    lines = [
        f"layer fold, main thread (wall {fold.wall_s:.3f} s):",
    ]
    for metric, seconds in sorted(fold.main.items(), key=lambda kv: -kv[1]):
        share = _share(seconds, fold.wall_s)
        lines.append(f"  {metric:<28} {seconds:10.4f} s  {share}")
    lines.append(
        f"  {'unattributed':<28} {fold.unattributed_s:10.4f} s  "
        f"{_share(fold.unattributed_s, fold.wall_s)}"
    )
    total = sum(fold.main.values()) + fold.unattributed_s
    lines.append(
        f"  layers + unattributed = {total:.6f} s; wall = {fold.wall_s:.6f} s"
    )
    if fold.concurrent:
        lines.append(
            "other threads, CPU time (window "
            f"{fold.concurrent_window_s:.3f} s, concurrent with the main "
            "thread):"
        )
        concurrent = sorted(fold.concurrent.items(), key=lambda kv: -kv[1])
        for metric, seconds in concurrent:
            lines.append(f"  {metric:<28} {seconds:10.4f} s")
        idle = fold.concurrent_unattributed_s
        lines.append(f"  {'idle, lock waits, other':<28} {idle:10.4f} s")
    basis = predictions.get("basis", "")
    tolerance = float(predictions.get("tolerance", 0.0))
    for layer, predicted in predictions.get("shares", {}).items():
        measured = shares.get(layer, 0.0)
        verdict = "met" if abs(measured - predicted) <= tolerance else "MISSED"
        lines.append(
            f"prediction {layer}: {predicted:.0%} of {basis}; measured "
            f"{measured:.1%} -> {verdict} (tolerance {tolerance:.0%} points)"
        )
    return lines


def _share(seconds: float, wall: float) -> str:
    return f"{100.0 * seconds / wall:5.1f}%" if wall > 0 else ""


def result_line(outcome: Outcome, spec: list[dict]) -> str:
    """The final JSON line: exactly the metrics in ``spec``, with units."""
    return json.dumps(
        {
            "correct": outcome.correct,
            "attempted": int(outcome.attempted),
            "failed": int(outcome.failed),
            "metrics": {
                m["name"]: {
                    "value": float(outcome.metrics[m["name"]]),
                    "unit": m["unit"],
                }
                for m in spec
            },
        }
    )


def percentile(values: np.ndarray, q: float) -> float:
    """Nearest-rank percentile (as ``LatencyRecorder``); 0.0 when empty."""
    if values.size == 0:
        return 0.0
    ordered = np.sort(values)
    rank = max(1, int(np.ceil(q / 100.0 * ordered.size)))
    return float(ordered[rank - 1])


def ratio(numerator: float, denominator: float) -> float:
    """``numerator / denominator``, 0.0 when nothing was counted."""
    return numerator / denominator if denominator else 0.0
