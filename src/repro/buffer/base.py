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
from collections.abc import Hashable, Iterable, Sequence

__all__ = ["BufferPool", "BufferStats", "PinningError"]

PageId = Hashable


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

    Each policy supplies one method, :meth:`request_batch`: a single
    loop over a list of page ids, in order, that serves hits, admits
    misses and evicts its victims, updating :attr:`stats` once per call.
    The unpinned area's resident pages are the keys of ``self._frames``
    (a dict whose values, and any side structure, belong to the
    policy), which is all the shared introspection needs.
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

    @abstractmethod
    def request_batch(self, pages: Sequence[PageId]) -> list[int]:
        """Access every page of ``pages`` in order; returns the
        positions (indices into ``pages``) that missed.

        A miss loads the page (a disk access), evicting the policy's
        victim when the unpinned area is full.  When the unpinned
        capacity is zero, missed pages are read and immediately
        discarded — every unpinned access is then a disk access.
        """

    def _miss_all_unpinned(self, pages: Sequence[PageId]) -> list[int]:
        """:meth:`request_batch` with no unpinned capacity: every
        unpinned page is read and discarded, so nothing is admitted or
        evicted."""
        pinned = self.pinned
        missed = [i for i, page in enumerate(pages) if page not in pinned]
        self.stats.add(len(pages), len(missed), 0)
        return missed

    def request(self, page: PageId) -> bool:
        """Access ``page``; returns True on a buffer hit (a one-page
        :meth:`request_batch`)."""
        return not self.request_batch((page,))

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
