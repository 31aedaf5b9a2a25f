#!/usr/bin/env python3
"""The repository benchmark.

Run from the repository root::

    python3 perfbench/run.py --workload serve_uniform --seed 1 --trace 0
    python3 perfbench/run.py                 # every workload, one row each

Workloads (recorded in ``perfbench/workloads.json``):

* ``reproduce_all`` -- a fresh interpreter regenerates Table 1 through
  Fig. 11 with their metrics documents, as ``repro-experiments all
  --metrics-out`` does, at a fixed simulation budget.
* ``serve_uniform`` / ``serve_zipf`` -- open-loop Poisson load at a fixed
  rate against a live ``QueryService``, interleaved with its synchronous
  replay and with the rungs of a max_qps search.

``--trace 0`` measures the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` makes the same run under span shims and reports the
per-layer metrics, the layer fold and the predicted layer shares.  Every
run checks the outputs' correctness and counts failed operations.  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT_DIR = Path(__file__).resolve().parent.parent
SRC_DIR = ROOT_DIR / "src"


def _load(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="perfbench/run.py",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--workload", default="all")
    parser.add_argument(
        "--seed", type=int, default=None,
        help="default: the workload's default seed",
    )
    parser.add_argument(
        "--seconds", type=int, default=None,
        help="default: run_seconds of BENCHMARK.json",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    if not (SRC_DIR / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC_DIR}", file=sys.stderr)
        return 2
    bench = _load(ROOT_DIR / "BENCHMARK.json")
    record = _load(ROOT_DIR / "perfbench" / "workloads.json")
    seconds = args.seconds
    if seconds is None:
        seconds = int(bench["run_seconds"])
    names = [w["name"] for w in bench["workloads"]]
    # The measured path is the default one: no REPRO_* knob may change it.
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    sys.path[:0] = [str(SRC_DIR), str(ROOT_DIR)]
    if args.workload == "all":
        return _run_all(args, names, seconds, bench)
    if args.workload not in names:
        print(
            f"perfbench: unknown workload {args.workload!r}; "
            f"choices: {names}",
            file=sys.stderr,
        )
        return 2
    if seconds < 1:
        print("perfbench: --seconds must be at least 1", file=sys.stderr)
        return 2
    entry = record["workloads"][args.workload]
    seed = args.seed
    if seed is None:
        seed = int(entry["seeds"]["default"])
    from perfbench import host, report, reproduce, serve

    trace = bool(args.trace)
    if args.workload == "reproduce_all":
        outcome = reproduce.run(entry["config"], trace=trace)
    else:
        outcome = serve.run(
            serve.ServeSpec(args.workload, **entry["config"]),
            seed=seed,
            seconds=seconds,
            trace=trace,
            predictions=entry["predictions"],
        )

    metric_spec = bench["per_layer" if trace else "end_to_end"]
    absent = [
        m["name"] for m in metric_spec if m["name"] not in outcome.metrics
    ]
    for name in absent:  # a layer that never ran on this workload did 0 work
        outcome.metrics[name] = 0.0
    steal = outcome.metrics["host.steal_frac"]
    heavy = steal > host.HEAVY_STEAL_FRAC
    print(
        f"perfbench {args.workload} seed={seed} seconds={seconds} "
        f"trace={args.trace} nproc={host.nproc()} steal={steal:.1%}"
        + (" HEAVY STEAL: noisy run, kept" if heavy else "")
    )
    for line in outcome.notes:
        print(line)
    if not trace:
        rows = [(args.workload, outcome.metrics)]
        print(report.metric_table(rows, metric_spec))
    elif absent:
        print(
            "not on this workload's path (reported as 0): "
            + ", ".join(absent)
        )
    print(
        f"operations: {outcome.attempted} attempted, {outcome.failed} "
        "failed; gates: " + ("all passed" if outcome.correct else "FAILED")
    )
    for failure in outcome.gate_failures:
        print(f"GATE FAILED: {failure}")
    print(report.result_line(outcome, metric_spec))
    return 0


def _run_all(
    args: argparse.Namespace, names: list[str], seconds: int, bench: dict
) -> int:
    """Every workload in its own process; one table row per workload."""
    from perfbench.report import metric_table

    rows = []
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        command = [
            sys.executable, str(Path(__file__)), "--workload", name,
            "--seconds", str(seconds), "--trace", str(args.trace),
        ]
        if args.seed is not None:
            command += ["--seed", str(args.seed)]
        done = subprocess.run(
            command, cwd=ROOT_DIR, capture_output=True, text=True, check=False
        )
        lines = done.stdout.strip().splitlines()
        sys.stdout.write("\n".join(lines[:-1]) + "\n\n")
        if done.returncode != 0 or not lines:
            sys.stderr.write(done.stderr)
            return done.returncode or 1
        result = json.loads(lines[-1])
        values = {k: v["value"] for k, v in result["metrics"].items()}
        rows.append((name, values))
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"][name] = result["metrics"]
    if not args.trace:
        print(metric_table(rows, bench["end_to_end"]))
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
