#!/usr/bin/env python3
"""Shard-count sweep: hit-ratio fidelity vs the paper's single-LRU model.

The paper's Eq. 5/6 buffer model (and its Figure 6 ED curves) assume
**one** LRU buffer of ``B`` pages.  The serving engine partitions that
capacity over K shards by ``page % K`` (``docs/SERVING.md``), so the
operative question is: *how much model fidelity does each extra shard
cost?*

This tool answers it with data.  For each K in 1..``--max-shards`` it
replays one experiment's serving probe (same tree, workload, buffer
and seeded arrival schedule every time), captures the run's
``repro-telemetry/1`` stream, and reads the *final cumulative tick* —
the shard-reconciled counters the stream validator guarantees — to
chart, per K:

* the aggregate hit ratio against the Eq. 5/6 single-LRU prediction
  carried in each stream's header (the paper's §4 bar is 2% absolute);
* the per-shard spread (max - min shard hit ratio): partitioning
  splits the hot set unevenly, and the spread is the price paid;
* measured disk accesses per query vs the model's ED.

Buffer counters are deterministic (seeded arrivals, deterministic
stabs), so the report is byte-stable per configuration — the committed
example at ``docs/examples/shard_sweep_fig6.txt`` regenerates
verbatim.  Only tick *timing* varies run to run, and the report never
reads it.

Usage::

    python tools/shard_sweep.py fig6
    python tools/shard_sweep.py fig9 --max-shards 8 --queries 2000
    python tools/shard_sweep.py fig6 --report docs/examples/shard_sweep_fig6.txt
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

try:  # installed package (CI) or PYTHONPATH=src
    import repro  # noqa: F401
except ImportError:  # plain checkout: python tools/shard_sweep.py
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.experiments.probes import SERVE_PROBES, run_serve_probe
from repro.obs.telemetry import read_telemetry

__all__ = ["main", "render", "sweep"]

#: The paper's model-vs-measurement validation bar (§4), shared with
#: ``tools/serve_report.py``: within 2% absolute of Eq. 5/6 is "good".
CONVERGENCE_BAND = 0.02


def sweep(
    experiment: str,
    max_shards: int,
    out_dir: str,
    *,
    queries: int | None = None,
) -> list[dict]:
    """Run the probe at each K, returning one summary row per K.

    Each run writes ``shards-K.jsonl`` under ``out_dir``; rows are
    derived exclusively from the re-validated stream (header model
    block + final tick cumulative section), never from in-process
    state — the tool consumes the telemetry contract, nothing more.
    """
    spec = SERVE_PROBES[experiment]
    if queries is not None:
        import dataclasses

        spec = dataclasses.replace(spec, n_queries=queries)
    rows: list[dict] = []
    for shards in range(1, max_shards + 1):
        path = os.path.join(out_dir, f"shards-{shards}.jsonl")
        run_serve_probe(spec, shards=shards, telemetry_out=path)
        header, ticks = read_telemetry(path)
        final = ticks[-1]["cumulative"]
        agg = final["aggregate"]
        per_shard = [
            row["hits"] / row["requests"] if row["requests"] else None
            for row in final["shards"]
        ]
        known = [r for r in per_shard if r is not None]
        n_queries = header["config"]["n_queries"]
        rows.append(
            {
                "shards": shards,
                "model_hit_ratio": header["model"]["hit_ratio"],
                "model_ed": header["model"]["disk_accesses"],
                "hit_ratio": agg["hits"] / agg["requests"],
                "ed_per_query": agg["misses"] / n_queries,
                "shard_min": min(known),
                "shard_max": max(known),
                "requests": agg["requests"],
            }
        )
    return rows


def _bar(ratio: float, width: int, marker: float) -> str:
    """Hit-ratio gauge with the model prediction as a ``|`` marker."""
    cells = [" "] * width
    for i in range(min(width, int(round(ratio * width)))):
        cells[i] = "#"
    pos = min(width - 1, max(0, int(round(marker * width)) - 1))
    cells[pos] = "|"
    return "".join(cells)


def render(experiment: str, rows: list[dict], width: int = 24) -> str:
    """The fidelity chart for one sweep."""
    lines: list[str] = []
    model_hr = rows[0]["model_hit_ratio"]
    model_ed = rows[0]["model_ed"]
    lines.append(f"shard-count sweep: {experiment}")
    lines.append("=" * 66)
    lines.append(
        f"single-LRU model (Eq. 5/6): hit ratio {model_hr:.4f}, "
        f"ED {model_ed:.3f} accesses/query"
    )
    lines.append(
        f"fidelity band: +/-{CONVERGENCE_BAND:.0%} absolute (paper §4)"
    )
    lines.append("")
    lines.append(
        f"  K  {'hit ratio':>9}  {'':{width}}  {'Δ model':>8}  "
        f"{'spread':>7}  {'ED/query':>8}"
    )
    worst_dev = 0.0
    worst_spread = 0.0
    for row in rows:
        dev = row["hit_ratio"] - model_hr
        spread = row["shard_max"] - row["shard_min"]
        worst_dev = max(worst_dev, abs(dev))
        worst_spread = max(worst_spread, spread)
        flag = "" if abs(dev) <= CONVERGENCE_BAND else "  OUT OF BAND"
        lines.append(
            f"{row['shards']:>3}  {row['hit_ratio']:>9.4f}  "
            f"{_bar(row['hit_ratio'], width, model_hr)}  "
            f"{dev:>+8.4f}  {spread:>7.4f}  "
            f"{row['ed_per_query']:>8.3f}{flag}"
        )
    lines.append("")
    verdict = (
        "within the band at every K"
        if worst_dev <= CONVERGENCE_BAND
        else "exceeds the band at some K"
    )
    lines.append(
        f"aggregate fidelity: worst |Δ| {worst_dev:.4f} vs model — "
        f"{verdict}"
    )
    lines.append(
        f"partitioning price: worst per-shard spread {worst_spread:.4f} "
        f"(page % K split of the hot set)"
    )
    lines.append(
        f"counters: {rows[0]['requests']} node accesses per run, "
        f"identical stream-validated totals at every K"
    )
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="shard_sweep",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "experiment",
        nargs="?",
        default="fig6",
        choices=sorted(SERVE_PROBES),
        help="which experiment's serving probe to sweep (default: fig6)",
    )
    parser.add_argument(
        "--max-shards", type=int, default=16, metavar="K",
        help="sweep K = 1..K (default: 16)",
    )
    parser.add_argument(
        "--queries", type=int, default=None, metavar="N",
        help="override the probe's query count (default: the spec's)",
    )
    parser.add_argument(
        "--telemetry-dir", default=None, metavar="DIR",
        help="keep the per-K telemetry streams here (default: temp dir)",
    )
    parser.add_argument(
        "--report", default=None, metavar="PATH",
        help="also write the chart to PATH",
    )
    parser.add_argument(
        "--width", type=int, default=24,
        help="hit-ratio bar width (default: 24)",
    )
    args = parser.parse_args(argv)
    if args.max_shards < 1:
        parser.error("--max-shards must be >= 1")

    if args.telemetry_dir is not None:
        os.makedirs(args.telemetry_dir, exist_ok=True)
        rows = sweep(
            args.experiment, args.max_shards, args.telemetry_dir,
            queries=args.queries,
        )
    else:
        with tempfile.TemporaryDirectory() as tmp:
            rows = sweep(
                args.experiment, args.max_shards, tmp,
                queries=args.queries,
            )
    text = render(args.experiment, rows, width=args.width)
    print(text)
    if args.report is not None:
        Path(args.report).write_text(text + "\n")
        print(f"[report written to {args.report}]", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
