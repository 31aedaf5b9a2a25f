"""Buffer pool abstraction.

The paper assumes exactly one R-tree node per page, so "page" here is a
node id.  A buffer pool holds up to ``capacity`` pages; requesting a
resident page is a *hit* (no disk access), requesting a non-resident
page is a *miss* that loads the page, evicting another if the pool is
full.  Pinned pages (the paper's §3.3 extension: "pins the top few
levels of the R-tree in the buffer") are preloaded, always hit, and are
never eviction candidates — but they do occupy buffer capacity.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Iterable, Sequence

import numpy as np

__all__ = [
    "BufferPool",
    "BufferStats",
    "PinningError",
    "pin_table",
    "pin_lookup",
]

PageId = int


def pin_table(pins: frozenset[PageId]) -> np.ndarray:
    """A boolean table with ``table[p]`` True for each pinned page
    ``p``; its last slot (False) stands for every id above the highest
    pin.  Pinned page ids must be non-negative ints."""
    ids = np.fromiter(pins, dtype=np.int64, count=len(pins))
    if ids.size and ids.min() < 0:
        raise ValueError("pinned page ids must be non-negative ints")
    table = np.zeros(ids.max(initial=-1) + 2, dtype=bool)
    table[ids] = True
    return table


def pin_lookup(table: np.ndarray, pages: np.ndarray) -> np.ndarray:
    """``table[page]`` for each of ``pages`` (an int64 array of
    non-negative ids) in one ``take``; an id above the table's last
    slot reads that slot."""
    if pages.size and pages.min() < 0:
        raise ValueError("page ids must be non-negative ints")
    return table.take(pages, mode="clip")


class PinningError(ValueError):
    """Raised when pinned pages do not fit in the buffer."""


class BufferStats:
    """Running hit/miss counters for a buffer pool."""

    __slots__ = ("requests", "hits", "misses", "evictions")

    def __init__(self) -> None:
        self.requests = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    @property
    def hit_ratio(self) -> float:
        """Fraction of requests served from the buffer (0 if no requests)."""
        return self.hits / self.requests if self.requests else 0.0

    def reset(self) -> None:
        """Zero all counters (used between measurement batches)."""
        self.requests = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def add(self, requests: int, misses: int, evictions: int) -> None:
        """Count one batch of requests (hits are the requests that did
        not miss)."""
        self.requests += requests
        self.hits += requests - misses
        self.misses += misses
        self.evictions += evictions

    def snapshot(self) -> "BufferStats":
        """An independent copy of the current counter values."""
        copy = BufferStats()
        copy.requests = self.requests
        copy.hits = self.hits
        copy.misses = self.misses
        copy.evictions = self.evictions
        return copy

    def as_dict(self) -> dict[str, int]:
        """The counters as a JSON-ready mapping."""
        return {
            "requests": self.requests,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"BufferStats(requests={self.requests}, hits={self.hits}, "
            f"misses={self.misses}, evictions={self.evictions})"
        )


class BufferPool(ABC):
    """Base class implementing pinning and accounting.

    :meth:`request_batch` is the one entry point.  It answers pinned
    pages with one lookup in a boolean table built at construction and
    counts them as hits, settles the zero-unpinned-capacity case, and
    hands the unpinned pages, in order, to the policy's one method,
    :meth:`_replace`: a single loop that serves hits, admits misses
    and evicts its victims.  The unpinned area's resident pages are
    the keys of ``self._frames`` (a dict whose values, and any side
    structure, belong to the policy), which is all the shared
    introspection needs.

    Page ids are non-negative ints (the level-major node ids every
    stabber emits).
    """

    _frames: dict[PageId, object]

    def __init__(
        self, capacity: int, pinned: Iterable[PageId] = ()
    ) -> None:
        if capacity < 1:
            raise ValueError("buffer capacity must be at least 1 page")
        pinned_set = frozenset(pinned)
        if len(pinned_set) > capacity:
            raise PinningError(
                f"cannot pin {len(pinned_set)} pages in a {capacity}-page buffer"
            )
        self._pin_table = pin_table(pinned_set)
        self.capacity = capacity
        self.pinned = pinned_set
        self.stats = BufferStats()

    # ------------------------------------------------------------------
    # Public interface
    # ------------------------------------------------------------------
    @property
    def unpinned_capacity(self) -> int:
        """Pages available to the replacement policy."""
        return self.capacity - len(self.pinned)

    def request_batch(self, pages: Sequence[PageId] | np.ndarray) -> list[int]:
        """Access every page of ``pages`` in order; returns the
        positions (indices into ``pages``) that missed.

        Pinned pages always hit.  A miss loads the page (a disk
        access), evicting the policy's victim when the unpinned area
        is full.  When the unpinned capacity is zero, missed pages are
        read and immediately discarded — every unpinned access is then
        a disk access.
        """
        if not self.pinned:
            if isinstance(pages, np.ndarray):
                pages = pages.tolist()
            return self._request_unpinned(pages, 0)
        ids = np.asarray(pages, dtype=np.int64)
        free = np.flatnonzero(~pin_lookup(self._pin_table, ids))
        missed = self._request_unpinned(
            ids[free].tolist(), ids.size - free.size
        )
        return free[missed].tolist()

    def _request_unpinned(self, pages: list[PageId], pinned: int) -> list[int]:
        """Serve ``pages``, none of them pinned, after ``pinned`` pinned
        requests whose hits are counted here too; returns the positions
        in ``pages`` that missed.  The one write path of a pool's state
        and counters."""
        if self.unpinned_capacity == 0:
            missed = list(range(len(pages)))
            evictions = 0
        else:
            missed, evictions = self._replace(pages)
        self.stats.add(len(pages) + pinned, len(missed), evictions)
        return missed

    @abstractmethod
    def _replace(self, pages: list[PageId]) -> tuple[list[int], int]:
        """The policy's replacement loop over unpinned pages, in order,
        with at least one unpinned slot: returns the positions that
        missed and the number of evictions."""

    def request(self, page: PageId) -> bool:
        """Access ``page``; returns True on a buffer hit.

        The one-page :meth:`request_batch`: a pinned page is read from
        the same pin table, by a Python index clipped to its last slot,
        and counted as a hit without building an array.
        """
        if self.pinned:
            if page < 0:
                raise ValueError("page ids must be non-negative ints")
            if self._pin_table[min(page, len(self._pin_table) - 1)]:
                self._request_unpinned([], 1)
                return True
        return not self._request_unpinned([page], 0)

    def resident_pages(self) -> list[PageId]:
        """Resident unpinned pages in the policy's own order (LRU:
        least recently used first; FIFO: oldest first; CLOCK: ring
        order; RANDOM: slot order)."""
        return list(self._frames)

    def is_full(self) -> bool:
        """True once the unpinned area holds its full complement of pages."""
        return len(self._frames) >= self.unpinned_capacity

    def __contains__(self, page: PageId) -> bool:
        return page in self.pinned or page in self._frames

    def __len__(self) -> int:
        """Number of resident pages, pinned included."""
        return len(self.pinned) + len(self._frames)
