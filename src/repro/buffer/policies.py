"""Alternative replacement policies (ablation extensions).

The paper models LRU specifically; these policies let the benchmark
harness check how sensitive its conclusions are to the replacement
policy: CLOCK is the classic one-bit LRU approximation, FIFO ignores
recency of *use*, and RANDOM is the memoryless baseline.  (For the
independent-reference pattern the model assumes, LRU, CLOCK and FIFO
behave almost identically; see ``benchmarks/test_ablation_policies.py``.)
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Iterable

import numpy as np

from .base import BufferPool, PageId
from .lru import LRUBuffer

__all__ = ["ClockBuffer", "FIFOBuffer", "RandomBuffer", "POLICIES"]


class FIFOBuffer(BufferPool):
    """First-in first-out replacement: hits do not refresh a page."""

    def __init__(self, capacity: int, pinned: Iterable[PageId] = ()) -> None:
        super().__init__(capacity, pinned)
        self._frames: OrderedDict[PageId, None] = OrderedDict()

    def _replace(self, pages: list[PageId]) -> tuple[list[int], int]:
        queue = self._frames
        room = self.unpinned_capacity
        missed = []
        miss = missed.append
        pop_oldest = queue.popitem
        size = len(queue)
        evictions = 0
        for i, page in enumerate(pages):
            if page in queue:
                continue  # FIFO ignores hits
            miss(i)
            if size < room:
                size += 1
            else:
                pop_oldest(False)
                evictions += 1
            queue[page] = None
        return missed, evictions


class ClockBuffer(BufferPool):
    """Second-chance (CLOCK) replacement.

    Pages sit on a circular list with a reference bit; the hand sweeps,
    clearing set bits, and evicts the first page found unreferenced.
    """

    def __init__(self, capacity: int, pinned: Iterable[PageId] = ()) -> None:
        super().__init__(capacity, pinned)
        self._frames: dict[PageId, bool] = {}
        self._ring: list[PageId] = []
        self._hand = 0

    def _replace(self, pages: list[PageId]) -> tuple[list[int], int]:
        referenced = self._frames
        room = self.unpinned_capacity
        ring = self._ring
        hand = self._hand
        missed = []
        miss = missed.append
        evictions = 0
        for i, page in enumerate(pages):
            if page in referenced:
                referenced[page] = True
            else:
                miss(i)
                if len(ring) < room:
                    # Insert at the hand so the sweep order stays circular.
                    ring.insert(hand, page)
                    hand = (hand + 1) % len(ring)
                else:
                    while True:
                        hand %= room
                        victim = ring[hand]
                        if not referenced[victim]:
                            break
                        referenced[victim] = False
                        hand += 1
                    # Removing the victim and inserting at the hand is
                    # one overwrite of its slot.
                    del referenced[victim]
                    ring[hand] = page
                    hand = (hand + 1) % room
                    evictions += 1
                referenced[page] = False
        self._hand = hand
        return missed, evictions

    def resident_pages(self) -> list[PageId]:
        return list(self._ring)


class RandomBuffer(BufferPool):
    """Uniform random replacement (memoryless baseline)."""

    def __init__(
        self,
        capacity: int,
        pinned: Iterable[PageId] = (),
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__(capacity, pinned)
        self._frames: dict[PageId, int] = {}
        self._slots: list[PageId] = []
        self._rng = rng if rng is not None else np.random.default_rng(0)

    def _replace(self, pages: list[PageId]) -> tuple[list[int], int]:
        index = self._frames
        room = self.unpinned_capacity
        slots = self._slots
        # Every eviction draws a slot below ``room`` (the pool is full
        # then), so one vector draw holds a candidate for each page
        # that could miss.  Rewinding the generator and drawing again
        # exactly the victims used leaves it where one scalar draw per
        # eviction would: a bounded vector draw yields the scalar
        # draws' values and state, element by element.
        bits = self._rng.bit_generator
        before = bits.state
        victims = self._rng.integers(room, size=len(pages)).tolist()
        missed = []
        miss = missed.append
        evictions = 0
        for i, page in enumerate(pages):
            if page in index:
                continue  # random replacement ignores recency
            miss(i)
            if len(slots) >= room:
                slot = victims[evictions]
                victim = slots[slot]
                last = slots.pop()
                if slot < len(slots):
                    slots[slot] = last
                    index[last] = slot
                del index[victim]
                evictions += 1
            index[page] = len(slots)
            slots.append(page)
        bits.state = before
        self._rng.integers(room, size=evictions)
        return missed, evictions

    def resident_pages(self) -> list[PageId]:
        return list(self._slots)


POLICIES = {
    "lru": LRUBuffer,
    "fifo": FIFOBuffer,
    "clock": ClockBuffer,
    "random": RandomBuffer,
}
"""Replacement policies by name."""
