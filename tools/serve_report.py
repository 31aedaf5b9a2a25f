#!/usr/bin/env python3
"""Render a ``repro-telemetry/2`` JSONL stream as a terminal report.

The stream (written by ``repro-experiments --serve --telemetry-out``
or any :class:`repro.obs.TelemetrySink`) is a header line plus one
line per sampling tick.  This tool turns it, through the deltas and
windows :func:`repro.obs.telemetry.derive_ticks` derives, into the
three views the paper's claims need:

* **Hit-ratio convergence** — the windowed hit ratio per tick, drawn
  against the Eq. 5/6 model-predicted steady-state ratio carried in
  the header, with the first tick inside the paper's 2% validation
  band called out.  A terminal aggregate can *equal* the prediction
  by luck; the timeline shows the LRU actually converging to it.
* **Per-shard imbalance** — final cumulative requests and hit ratio
  per shard.  Partitioning by page id trades fidelity for contention
  (``docs/SERVING.md``); the spread quantifies the price this run
  paid.
* **SLO burn** — the monitor's final error-budget accounting: bad
  ticks, the cumulative burn rate and the fast/slow alerting pair.

Usage::

    python tools/serve_report.py telemetry-fig6.jsonl
    python tools/serve_report.py --width 40 telemetry.jsonl

The stream is re-validated on load (sequence numbers, shard rows,
counters that never fall between resets, ordered percentiles — see
``repro.obs.telemetry``); a stream that fails validation exits 1,
because CI uploads this report as the artifact of record for the
serving smoke run.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

try:  # installed package (CI) or PYTHONPATH=src
    import repro  # noqa: F401
except ImportError:  # plain checkout: python tools/serve_report.py
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.obs.telemetry import derive_ticks, read_telemetry

__all__ = ["main", "render"]

#: The paper's model-vs-simulation validation bar (§4): a run is
#: "converged" once its windowed hit ratio is within 2% (absolute) of
#: the Eq. 5/6 prediction.
CONVERGENCE_BAND = 0.02


def _bar(ratio: float | None, width: int, marker: float | None) -> str:
    """An ASCII gauge for one tick's hit ratio, 0..1 across ``width``.

    ``marker`` (the model prediction) renders as ``|`` at its
    position, on top of the fill — so convergence is visible as the
    fill edge meeting the marker.
    """
    cells = [" "] * width
    if ratio is not None:
        filled = min(width, int(round(ratio * width)))
        for i in range(filled):
            cells[i] = "#"
    if marker is not None:
        pos = min(width - 1, max(0, int(round(marker * width)) - 1))
        cells[pos] = "|"
    return "".join(cells)


def _fmt_ratio(ratio: float | None) -> str:
    return "   -  " if ratio is None else f"{ratio:6.4f}"


def _fmt_us(value: float | None) -> str:
    return "      -" if value is None else f"{value:9.0f}"


def render(header: dict, ticks: list[dict], width: int = 30) -> str:
    """The full terminal report for one validated stream."""
    lines: list[str] = []
    model = header.get("model") or {}
    predicted = model.get("hit_ratio")
    config = header.get("config", {})
    capacities = header["shard_capacities"]
    derived = derive_ticks(ticks, header["window"])

    lines.append("serving telemetry report")
    lines.append("=" * 60)
    described = ", ".join(
        f"{key}={config[key]}"
        for key in ("dataset", "workload", "buffer_size", "rate_qps")
        if key in config
    )
    if described:
        lines.append(f"config: {described}")
    lines.append(
        f"shards: {len(capacities)}  capacity: {sum(capacities)} "
        f"pages  policy: {header['policy']}  "
        f"interval: {header['interval_s'] * 1000:.0f} ms  "
        f"window: {header['window']} ticks  ticks: {len(ticks)}"
    )
    if predicted is not None:
        lines.append(
            f"model (Eq. 5/6) predicted steady-state hit ratio: "
            f"{predicted:.4f}"
        )
    lines.append("")

    # ------------------------------------------------------------------
    # Timeline
    # ------------------------------------------------------------------
    lines.append(
        f"{'tick':>4}  {'t(s)':>7}  {'queue':>5}  {'qry':>6}  "
        f"{'occ':>6}  {'hit':>6}  {'p99(us)':>9}  hit ratio "
        f"(| = model)"
    )
    lines.append("-" * (62 + width))
    for tick, row in zip(ticks, derived):
        latency = tick.get("latency_us")
        occupancy = row["occupancy"]
        lines.append(
            f"{tick['seq']:>4}  {tick['elapsed_s']:>7.2f}  "
            f"{tick['queue_depth']:>5}  {row['queries']:>6}  "
            f"{'-' if occupancy is None else format(occupancy, '6.0f')}  "
            f"{_fmt_ratio(row['hit_ratio'])}  "
            f"{_fmt_us(latency['p99'] if latency else None)}  "
            f"[{_bar(row['hit_ratio'], width, predicted)}]"
            f"{'  (reset)' if row['reset'] else ''}"
        )
    lines.append("")

    # ------------------------------------------------------------------
    # Convergence vs the Eq. 5/6 prediction
    # ------------------------------------------------------------------
    if predicted is not None:
        ratios = [row["hit_ratio"] for row in derived]
        converged_at = next(
            (
                (tick, ratio)
                for tick, ratio in zip(ticks, ratios)
                if ratio is not None
                and abs(ratio - predicted) <= CONVERGENCE_BAND
            ),
            None,
        )
        final_ratio = next(
            (ratio for ratio in reversed(ratios) if ratio is not None), None
        )
        lines.append("convergence vs model (paper's 2% band):")
        if converged_at is not None:
            tick, ratio = converged_at
            lines.append(
                f"  first tick within ±{CONVERGENCE_BAND:.0%}: "
                f"tick {tick['seq']} (t={tick['elapsed_s']:.2f}s, "
                f"ratio {ratio:.4f})"
            )
        else:
            lines.append(
                f"  never entered the ±{CONVERGENCE_BAND:.0%} band"
            )
        if final_ratio is not None:
            lines.append(
                f"  final windowed ratio {final_ratio:.4f}  "
                f"(Δ vs model {final_ratio - predicted:+.4f})"
            )
        lines.append("")

    # ------------------------------------------------------------------
    # Per-shard imbalance (final cumulative counters)
    # ------------------------------------------------------------------
    if ticks:
        final = ticks[-1]["shards"]
        lines.append("per-shard totals (final tick):")
        lines.append(
            f"  {'shard':>5}  {'capacity':>8}  {'requests':>9}  "
            f"{'hits':>9}  {'evictions':>9}  {'hit ratio':>9}"
        )
        ratios = []
        total_requests = max(1, sum(row["requests"] for row in final))
        for shard, (row, capacity) in enumerate(zip(final, capacities)):
            ratio = (
                row["hits"] / row["requests"] if row["requests"] else None
            )
            if ratio is not None:
                ratios.append(ratio)
            lines.append(
                f"  {shard:>5}  {capacity:>8}  "
                f"{row['requests']:>9}  {row['hits']:>9}  "
                f"{row['evictions']:>9}  {_fmt_ratio(ratio):>9}"
            )
        if len(ratios) > 1:
            shares = [row["requests"] / total_requests for row in final]
            lines.append(
                f"  hit-ratio spread: {max(ratios) - min(ratios):.4f}  "
                f"request share: {min(shares):.2%}..{max(shares):.2%} "
                f"(even would be {1 / len(final):.2%})"
            )
        lines.append("")

    # ------------------------------------------------------------------
    # SLO burn
    # ------------------------------------------------------------------
    slo_header = header.get("slo")
    last_slo = next(
        (tick["slo"] for tick in reversed(ticks) if tick.get("slo")), None
    )
    if slo_header is not None and last_slo is not None:
        lines.append("SLO burn:")
        targets = []
        if slo_header.get("p99_target_us") is not None:
            targets.append(f"p99 <= {slo_header['p99_target_us']:.0f} us")
        if slo_header.get("hit_ratio_floor") is not None:
            targets.append(
                f"hit ratio >= {slo_header['hit_ratio_floor']:.3f}"
            )
        lines.append(
            f"  targets: {', '.join(targets)}  "
            f"(budget {slo_header['budget']:.1%} of ticks)"
        )
        lines.append(
            f"  counted ticks: {last_slo['ticks']}  bad: "
            f"{last_slo['bad_ticks']}  burn rate: "
            f"{last_slo['burn_rate']:.2f}x  "
            f"{'BUDGET EXHAUSTED' if last_slo['budget_exhausted'] else 'within budget'}"
        )
        lines.append(
            f"  fast burn ({slo_header['fast_window']} ticks): "
            f"{last_slo['fast_burn_rate']:.2f}x  "
            f"slow burn ({slo_header['slow_window']} ticks): "
            f"{last_slo['slow_burn_rate']:.2f}x  "
            f"{'ALERTING (both windows burning)' if last_slo['alerting'] else 'not alerting'}"
        )
        lines.append("")

    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("stream", help="a repro-telemetry/2 JSONL file")
    parser.add_argument(
        "--width",
        type=int,
        default=30,
        help="hit-ratio bar width in characters (default 30)",
    )
    args = parser.parse_args(argv)
    try:
        header, ticks = read_telemetry(args.stream)
    except (OSError, ValueError) as exc:
        print(f"invalid telemetry stream: {exc}", file=sys.stderr)
        return 1
    if not ticks:
        print("telemetry stream has a header but no ticks", file=sys.stderr)
        return 1
    print(render(header, ticks, width=args.width))
    return 0


if __name__ == "__main__":
    sys.exit(main())
