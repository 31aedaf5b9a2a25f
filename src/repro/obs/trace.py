"""A fixed-size ring buffer of recent query traces.

Per-level counters say *how much* the buffer hit; a trace says *what a
query actually touched*.  :class:`QueryTrace` keeps the last ``K``
queries' touched node ids and miss sets, which is enough to answer
"why was this query expensive" (its misses) and "what does a typical
root-to-leaf walk request" without retaining the full query stream.

Recording is deterministic — no sampling, the last ``K`` queries are
kept verbatim (RL007: introducing a random sampler here would make
trace output irreproducible across runs with the same seed).
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

__all__ = ["QueryTrace", "QueryTraceEntry"]


@dataclass(frozen=True)
class QueryTraceEntry:
    """What one query did to the buffer."""

    index: int
    """0-based position of the query in the run's query stream."""
    touched: tuple[int, ...]
    """Global node ids requested, in request (top-down) order."""
    missed: tuple[int, ...]
    """The subset of ``touched`` that missed the buffer (disk reads)."""

    def as_dict(self) -> dict[str, object]:
        """The entry as a JSON-ready mapping (schema v1 ``trace``)."""
        return {
            "query": self.index,
            "touched": list(self.touched),
            "missed": list(self.missed),
        }


class QueryTrace:
    """Ring buffer retaining the last ``capacity`` query traces.

    Examples
    --------
    >>> trace = QueryTrace(2)
    >>> for ids in ([0, 1], [0, 2], [0, 3]):
    ...     trace.record(ids, [ids[-1]])
    >>> [e.index for e in trace.entries()]
    [1, 2]
    """

    __slots__ = ("capacity", "_entries", "_total")

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError("trace capacity must be at least 1")
        self.capacity = capacity
        self._entries: list[QueryTraceEntry | None] = [None] * capacity
        self._total = 0

    @property
    def total_recorded(self) -> int:
        """Number of queries ever recorded (>= ``len(self)``)."""
        return self._total

    def __len__(self) -> int:
        """Number of entries currently retained."""
        return min(self._total, self.capacity)

    def record(
        self, touched: Iterable[int], missed: Iterable[int]
    ) -> QueryTraceEntry:
        """Append one query's trace, evicting the oldest when full."""
        entry = QueryTraceEntry(
            index=self._total,
            touched=tuple(int(i) for i in touched),
            missed=tuple(int(i) for i in missed),
        )
        self._entries[self._total % self.capacity] = entry
        self._total += 1
        return entry

    def record_chunk(
        self, ids: np.ndarray, indptr: np.ndarray, missed: Iterable[int]
    ) -> None:
        """Append a chunk of queries given in CSR form: query ``q``
        touched ``ids[indptr[q]:indptr[q + 1]]``, and ``missed`` holds
        the positions in ``ids`` that missed.  Only the last
        ``capacity`` queries can be retained, so only those are built;
        the earlier ones still count towards :attr:`total_recorded`."""
        n_queries = len(indptr) - 1
        first = max(0, n_queries - self.capacity)
        is_miss = np.zeros(len(ids), dtype=bool)
        is_miss[np.asarray(missed, dtype=np.int64)] = True
        self._total += first
        for q in range(first, n_queries):
            lo, hi = int(indptr[q]), int(indptr[q + 1])
            touched = ids[lo:hi]
            self.record(touched, touched[is_miss[lo:hi]])

    def entries(self) -> tuple[QueryTraceEntry, ...]:
        """Retained entries, oldest first."""
        if self._total <= self.capacity:
            kept = self._entries[: self._total]
        else:
            pivot = self._total % self.capacity
            kept = self._entries[pivot:] + self._entries[:pivot]
        return tuple(e for e in kept if e is not None)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"QueryTrace(capacity={self.capacity}, retained={len(self)}, "
            f"total_recorded={self._total})"
        )
