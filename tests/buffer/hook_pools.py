"""The hook-based buffer pools: the oracle for the batch request loops.

Before each policy got its own ``request_batch`` loop, a policy was a
pool with five hooks (``_resident``, ``_resident_count``, ``_touch``,
``_admit``, ``_evict``) that a shared ``request(page)`` called one page
at a time, telling an optional per-request sink about every hit,
pinned hit and miss (with its victim).  These classes are that code,
unchanged in behaviour, and :class:`EventLevelTable` is the per-event
level attribution that sink fed.  The batch loops and the array-built
:class:`~repro.obs.LevelStatsTable` are held to them by
``tests/buffer/test_batch_loops.py``.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import OrderedDict

import numpy as np

from repro.buffer import BufferStats, PinningError


class HookBufferPool:
    """Pinning and accounting around the five policy hooks."""

    def __init__(self, capacity, pinned=()):
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
        self.sink = None

    @property
    def unpinned_capacity(self):
        return self.capacity - len(self.pinned)

    def request(self, page):
        stats = self.stats
        sink = self.sink
        stats.requests += 1
        if page in self.pinned:
            stats.hits += 1
            if sink is not None:
                sink.record_pin_hit(page)
            return True
        if self._resident(page):
            stats.hits += 1
            self._touch(page)
            if sink is not None:
                sink.record_hit(page)
            return True
        stats.misses += 1
        evicted = None
        if self.unpinned_capacity > 0:
            if self._resident_count() >= self.unpinned_capacity:
                evicted = self._evict()
                stats.evictions += 1
            self._admit(page)
        if sink is not None:
            sink.record_miss(page, evicted)
        return False

    def is_full(self):
        return self._resident_count() >= self.unpinned_capacity

    def __contains__(self, page):
        return page in self.pinned or self._resident(page)

    def __len__(self):
        return len(self.pinned) + self._resident_count()


class HookLRU(HookBufferPool):
    def __init__(self, capacity, pinned=()):
        super().__init__(capacity, pinned)
        self._stack = OrderedDict()

    def _resident(self, page):
        return page in self._stack

    def _resident_count(self):
        return len(self._stack)

    def _touch(self, page):
        self._stack.move_to_end(page)

    def _admit(self, page):
        self._stack[page] = None

    def _evict(self):
        victim, _ = self._stack.popitem(last=False)
        return victim

    def resident_pages(self):
        return list(self._stack)


class HookFIFO(HookBufferPool):
    def __init__(self, capacity, pinned=()):
        super().__init__(capacity, pinned)
        self._queue = OrderedDict()

    def _resident(self, page):
        return page in self._queue

    def _resident_count(self):
        return len(self._queue)

    def _touch(self, page):
        pass

    def _admit(self, page):
        self._queue[page] = None

    def _evict(self):
        victim, _ = self._queue.popitem(last=False)
        return victim

    def resident_pages(self):
        return list(self._queue)


class HookClock(HookBufferPool):
    def __init__(self, capacity, pinned=()):
        super().__init__(capacity, pinned)
        self._pages = []
        self._referenced = {}
        self._hand = 0

    def _resident(self, page):
        return page in self._referenced

    def _resident_count(self):
        return len(self._pages)

    def _touch(self, page):
        self._referenced[page] = True

    def _admit(self, page):
        self._pages.insert(self._hand, page)
        self._referenced[page] = False
        self._hand = (self._hand + 1) % len(self._pages)

    def _evict(self):
        while True:
            self._hand %= len(self._pages)
            page = self._pages[self._hand]
            if self._referenced[page]:
                self._referenced[page] = False
                self._hand += 1
            else:
                self._pages.pop(self._hand)
                del self._referenced[page]
                return page

    def resident_pages(self):
        return list(self._pages)


class HookRandom(HookBufferPool):
    def __init__(self, capacity, pinned=(), rng=None):
        super().__init__(capacity, pinned)
        self._pages = []
        self._index = {}
        self._rng = rng if rng is not None else np.random.default_rng(0)

    def _resident(self, page):
        return page in self._index

    def _resident_count(self):
        return len(self._pages)

    def _touch(self, page):
        pass

    def _admit(self, page):
        self._index[page] = len(self._pages)
        self._pages.append(page)

    def _evict(self):
        slot = int(self._rng.integers(len(self._pages)))
        victim = self._pages[slot]
        last = self._pages.pop()
        if slot < len(self._pages):
            self._pages[slot] = last
            self._index[last] = slot
        del self._index[victim]
        return victim

    def resident_pages(self):
        return list(self._pages)


HOOK_POLICIES = {
    "lru": HookLRU,
    "fifo": HookFIFO,
    "clock": HookClock,
    "random": HookRandom,
}


class EventLevelTable:
    """Per-level counters fed one event at a time by ``pool.sink``;
    each eviction is charged to its victim's level."""

    def __init__(self, level_offsets):
        self._offsets = tuple(int(o) for o in level_offsets)
        n = len(self._offsets) - 1
        self.requests = [0] * n
        self.hits = [0] * n
        self.misses = [0] * n
        self.evictions = [0] * n
        self.pin_hits = [0] * n

    def _level(self, page):
        return bisect_right(self._offsets, page) - 1

    def record_hit(self, page):
        level = self._level(page)
        self.requests[level] += 1
        self.hits[level] += 1

    def record_pin_hit(self, page):
        level = self._level(page)
        self.requests[level] += 1
        self.hits[level] += 1
        self.pin_hits[level] += 1

    def record_miss(self, page, evicted):
        level = self._level(page)
        self.requests[level] += 1
        self.misses[level] += 1
        if evicted is not None:
            self.evictions[self._level(evicted)] += 1

    def rows(self):
        """``(requests, hits, misses, evictions, pin_hits)`` per level."""
        return [
            (r, h, m, e, p)
            for r, h, m, e, p in zip(
                self.requests, self.hits, self.misses,
                self.evictions, self.pin_hits,
            )
        ]
