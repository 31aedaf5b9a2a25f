"""Online serving: micro-batched admission over a sharded buffer.

The paper's simulator is batch-mode: one thread replays a complete
query stream through one LRU and reports expected disk accesses (ED).
This package turns that core into a long-lived concurrent service —
the ROADMAP's north-star shape — without changing what is measured:

* :class:`QueryService` — an admission queue that coalesces incoming
  point queries into micro-batches (closed by size ``max_batch`` or
  deadline ``max_wait_us``), stabs each batch through the same
  vectorized :mod:`repro.accel` kernels the simulator uses, and
  requests the touched pages from a
  :class:`~repro.buffer.ShardedBufferPool`;
* :class:`LoadGenerator` / :class:`LoadReport` — an open-loop load
  generator (Poisson or uniform arrivals, optionally Zipfian-keyed
  query popularity) that plays seeded traffic against a service and
  reports throughput plus p50/p95/p99 latency through the
  ``repro-metrics`` ``serving`` section.

The correctness anchor: with one shard and batching disabled, a
service replaying the simulator's exact query stream produces the
simulator's disk-access counts bit-exactly (same stab kernels, same
page-request order, same LRU) — see ``docs/SERVING.md`` for the full
argument and ``tests/serving/`` for the enforcement.
"""

from __future__ import annotations

from .loadgen import LoadGenerator, LoadReport, zipfian_weights
from .service import QueryService

__all__ = [
    "LoadGenerator",
    "LoadReport",
    "QueryService",
    "zipfian_weights",
]
