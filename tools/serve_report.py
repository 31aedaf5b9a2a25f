#!/usr/bin/env python3
"""Render a ``repro-telemetry/1`` JSONL stream as a terminal report.

The stream (written by ``repro-experiments --serve --telemetry-out``
or any :class:`repro.obs.TelemetrySink`) is a header line plus one
line per sampling tick.  This tool turns it into the three views the
paper's claims need:

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
  ticks, cumulative and windowed burn rates.

Usage::

    python tools/serve_report.py telemetry-fig6.jsonl
    python tools/serve_report.py --width 40 telemetry.jsonl

The stream is fully re-validated on load (sequence numbers, shard-sum
reconciliation, window sums — see ``repro.obs.telemetry``); a stream
that fails validation exits 1, because CI uploads this report as the
artifact of record for the serving smoke run.
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

from repro.obs.telemetry import read_telemetry

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
        f"shards: {header['shards']}  capacity: {header['capacity']} "
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
    for tick in ticks:
        window = tick["window"]
        latency = tick.get("latency_us")
        occupancy = tick.get("batch_occupancy")
        lines.append(
            f"{tick['seq']:>4}  {tick['elapsed_s']:>7.2f}  "
            f"{tick['queue_depth']:>5}  {tick['queries']:>6}  "
            f"{'-' if occupancy is None else format(occupancy, '6.0f')}  "
            f"{_fmt_ratio(window['hit_ratio'])}  "
            f"{_fmt_us(latency['p99'] if latency else None)}  "
            f"[{_bar(window['hit_ratio'], width, predicted)}]"
            f"{'  (rebased)' if tick.get('rebased') else ''}"
        )
    lines.append("")

    # ------------------------------------------------------------------
    # Convergence vs the Eq. 5/6 prediction
    # ------------------------------------------------------------------
    if predicted is not None:
        converged_at = None
        for tick in ticks:
            ratio = tick["window"]["hit_ratio"]
            if ratio is not None and abs(ratio - predicted) <= CONVERGENCE_BAND:
                converged_at = tick
                break
        final_ratio = next(
            (
                tick["window"]["hit_ratio"]
                for tick in reversed(ticks)
                if tick["window"]["hit_ratio"] is not None
            ),
            None,
        )
        lines.append("convergence vs model (paper's 2% band):")
        if converged_at is not None:
            lines.append(
                f"  first tick within ±{CONVERGENCE_BAND:.0%}: "
                f"tick {converged_at['seq']} "
                f"(t={converged_at['elapsed_s']:.2f}s, "
                f"ratio {converged_at['window']['hit_ratio']:.4f})"
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
    final = ticks[-1]["cumulative"] if ticks else None
    if final is not None:
        lines.append("per-shard totals (final tick):")
        lines.append(
            f"  {'shard':>5}  {'capacity':>8}  {'requests':>9}  "
            f"{'hits':>9}  {'evictions':>9}  {'hit ratio':>9}"
        )
        ratios = []
        total_requests = max(1, final["aggregate"]["requests"])
        capacities = header.get("shard_capacities", [])
        for row in final["shards"]:
            ratio = (
                row["hits"] / row["requests"] if row["requests"] else None
            )
            if ratio is not None:
                ratios.append(ratio)
            capacity = (
                capacities[row["shard_id"]]
                if row["shard_id"] < len(capacities)
                else "-"
            )
            lines.append(
                f"  {row['shard_id']:>5}  {capacity:>8}  "
                f"{row['requests']:>9}  {row['hits']:>9}  "
                f"{row['evictions']:>9}  {_fmt_ratio(ratio):>9}"
            )
        if len(ratios) > 1:
            shares = [
                row["requests"] / total_requests for row in final["shards"]
            ]
            lines.append(
                f"  hit-ratio spread: {max(ratios) - min(ratios):.4f}  "
                f"request share: {min(shares):.2%}..{max(shares):.2%} "
                f"(even would be {1 / len(final['shards']):.2%})"
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
            f"{last_slo['burn_rate']:.2f}x  window burn: "
            f"{last_slo['window_burn_rate']:.2f}x  "
            f"{'BUDGET EXHAUSTED' if last_slo['budget_exhausted'] else 'within budget'}"
        )
        # Multiwindow alerting (fast + slow burn) — absent from streams
        # written before the multiwindow monitor landed.
        if "alerting" in last_slo:
            fast = slo_header.get("fast_window")
            slow = slo_header.get("slow_window")
            lines.append(
                f"  fast burn ({fast} ticks): "
                f"{last_slo['fast_burn_rate']:.2f}x  "
                f"slow burn ({slow} ticks): "
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
    parser.add_argument("stream", help="a repro-telemetry/1 JSONL file")
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
