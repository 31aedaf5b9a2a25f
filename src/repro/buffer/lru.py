"""Least-recently-used buffer replacement.

This is the policy analysed by the paper's buffer model (following
Bhide, Dan & Dias [2]) and the one its validation simulator implements:
"the least recently used node in the buffer is pushed out and the new
node put on the top of the LRU stack" (§4).
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Iterable, Sequence

from .base import BufferPool, PageId

__all__ = ["LRUBuffer"]


class LRUBuffer(BufferPool):
    """An LRU buffer pool.

    The unpinned area is an ordered dict used as the LRU stack: most
    recently used at the end, victim popped from the front.
    """

    def __init__(self, capacity: int, pinned: Iterable[PageId] = ()) -> None:
        super().__init__(capacity, pinned)
        self._frames: OrderedDict[PageId, None] = OrderedDict()

    def request_batch(self, pages: Sequence[PageId]) -> list[int]:
        stack = self._frames
        pinned = self.pinned
        room = self.unpinned_capacity
        if room <= 0:
            return self._miss_all_unpinned(pages)
        missed = []
        miss = missed.append
        touch = stack.move_to_end
        pop_lru = stack.popitem
        size = len(stack)
        evictions = 0
        for i, page in enumerate(pages):
            if page in stack:
                touch(page)
            elif page not in pinned:
                miss(i)
                if size < room:
                    size += 1
                else:
                    pop_lru(False)
                    evictions += 1
                stack[page] = None
        self.stats.add(len(pages), len(missed), evictions)
        return missed
