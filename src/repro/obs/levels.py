"""Per-tree-level buffer statistics — the breakdown the paper implies.

The buffer model's whole mechanism is level-local: root-level pages
have access probability ~1 and are always resident, leaf pages are
numerous and cold, and pinning wins exactly when the top levels'
pages dominate the hit mass (§3.3, §5.5).  Aggregate ``BufferStats``
cannot show any of that, so this module provides the per-level table:
a :class:`LevelStatsTable` attributes every request of a measurement
window to the tree level owning the requested page, resolved from
:attr:`~repro.rtree.TreeDescription.level_offsets`.

The table is built from arrays, one chunk of requests at a time: the
page ids a buffer pool was handed and the positions its
``request_batch`` reported as misses.  One ``searchsorted`` over the
level offsets gives every page's level and ``bincount`` gives the
per-level requests, misses and pinned hits.  Evictions need no victim
tracking, because every admission adds one page and every eviction
removes one, whatever the policy.  So per level, over a window,

    evictions_l = resident_l(start) + admitted_l - resident_l(end)

where ``admitted_l`` is the level's misses (0 when the pool has no
unpinned capacity, since nothing is then admitted).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

__all__ = ["LevelStats", "LevelStatsTable"]


@dataclass(frozen=True)
class LevelStats:
    """Immutable counters for one tree level (a snapshot row).

    ``hits`` includes ``pin_hits`` — the two sum to the same "served
    from the buffer" notion ``BufferStats.hits`` uses — while
    ``pin_hits`` isolates the pinned-page share so the §5.5 pinning
    analysis can be read straight off the table.  ``evictions`` counts
    victims that *belonged to this level* (the evicted page's level,
    not the level of the page whose miss triggered the eviction).
    """

    level: int
    requests: int
    hits: int
    misses: int
    evictions: int
    pin_hits: int

    @property
    def hit_ratio(self) -> float:
        """Fraction of this level's requests served from the buffer."""
        return self.hits / self.requests if self.requests else 0.0

    def as_dict(self) -> dict[str, int | float]:
        """The row as a JSON-ready mapping (schema v1 ``per_level``)."""
        return {
            "level": self.level,
            "requests": self.requests,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "pin_hits": self.pin_hits,
            "hit_ratio": self.hit_ratio,
        }


class LevelStatsTable:
    """Per-level counters over one measurement window of a buffer pool.

    Parameters
    ----------
    level_offsets:
        Global node id of the first node of each level plus a final
        sentinel — exactly
        :attr:`~repro.rtree.TreeDescription.level_offsets`.  Page ids
        given to the table must be integers in
        ``[0, level_offsets[-1])``, the level-major ids the simulator
        uses.

    A window is :meth:`reset` against the pool at its start, fed with
    :meth:`record` after every ``request_batch`` call, and read with
    :meth:`snapshot` against the same pool at its end.  The pool is
    read, never changed: its pinned pages, its unpinned capacity and
    its ``resident_pages()``.
    """

    __slots__ = (
        "_offsets",
        "_pinned",
        "_has_room",
        "_start",
        "_requests",
        "_misses",
        "_pin_hits",
    )

    def __init__(self, level_offsets: Sequence[int]) -> None:
        offsets = tuple(int(o) for o in level_offsets)
        if len(offsets) < 2 or offsets[0] != 0:
            raise ValueError(
                "level_offsets must start at 0 and include the final sentinel"
            )
        if any(b <= a for a, b in zip(offsets, offsets[1:])):
            raise ValueError("level_offsets must be strictly increasing")
        self._offsets = np.asarray(offsets, dtype=np.int64)
        self._pinned = np.zeros(offsets[-1], dtype=bool)
        self._has_room = True
        n = len(offsets) - 1
        self._start = np.zeros(n, dtype=np.int64)
        self._requests = np.zeros(n, dtype=np.int64)
        self._misses = np.zeros(n, dtype=np.int64)
        self._pin_hits = np.zeros(n, dtype=np.int64)

    @property
    def n_levels(self) -> int:
        """Number of tree levels the table covers."""
        return len(self._offsets) - 1

    def level_of(self, page: int) -> int:
        """Tree level owning a global (level-major) node id."""
        if not 0 <= page < self._offsets[-1]:
            raise IndexError(f"page id {page} out of range")
        return int(np.searchsorted(self._offsets, page, side="right")) - 1

    def _level_counts(self, pages: np.ndarray) -> np.ndarray:
        """Per-level number of entries in ``pages``."""
        levels = np.searchsorted(self._offsets, pages, side="right") - 1
        return np.bincount(levels, minlength=self.n_levels)

    def _residency(self, pool) -> np.ndarray:
        """Per-level number of ``pool``'s resident unpinned pages."""
        return self._level_counts(
            np.fromiter(pool.resident_pages(), dtype=np.int64)
        )

    # ------------------------------------------------------------------
    # Filling the table
    # ------------------------------------------------------------------
    def reset(self, pool) -> None:
        """Start a window on ``pool``: zero every counter and note the
        pool's pinned pages and per-level residency."""
        self._pinned[:] = False
        self._pinned[np.fromiter(pool.pinned, dtype=np.int64)] = True
        self._has_room = pool.unpinned_capacity > 0
        self._start = self._residency(pool)
        for column in (self._requests, self._misses, self._pin_hits):
            column[:] = 0

    def record(self, pages: np.ndarray, missed: Sequence[int]) -> None:
        """Count one chunk: ``pages`` as handed to ``request_batch`` and
        the positions it returned as misses."""
        pages = np.asarray(pages, dtype=np.int64)
        self._requests += self._level_counts(pages)
        self._misses += self._level_counts(
            pages[np.asarray(missed, dtype=np.int64)]
        )
        self._pin_hits += self._level_counts(pages[self._pinned[pages]])

    # ------------------------------------------------------------------
    # Reading the table
    # ------------------------------------------------------------------
    def snapshot(self, pool) -> tuple[LevelStats, ...]:
        """Immutable per-level rows, root (level 0) first, for the
        window that ends with ``pool``'s current residency."""
        admitted = self._misses if self._has_room else 0
        evictions = self._start + admitted - self._residency(pool)
        return tuple(
            LevelStats(
                level=i,
                requests=int(self._requests[i]),
                hits=int(self._requests[i] - self._misses[i]),
                misses=int(self._misses[i]),
                evictions=int(evictions[i]),
                pin_hits=int(self._pin_hits[i]),
            )
            for i in range(self.n_levels)
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"LevelStatsTable(levels={self.n_levels}, "
            f"requests={int(self._requests.sum())})"
        )
