"""Property test: LRUBuffer agrees with a naive reference model."""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.buffer import LRUBuffer


class NaiveLRU:
    """Reference: a plain list kept in recency order."""

    def __init__(self, capacity: int, pinned: frozenset = frozenset()) -> None:
        self.capacity = capacity
        self.pinned = pinned
        self.stack: list = []  # least recent first

    def request(self, page) -> bool:
        if page in self.pinned:
            return True
        if page in self.stack:
            self.stack.remove(page)
            self.stack.append(page)
            return True
        room = self.capacity - len(self.pinned)
        if room > 0:
            if len(self.stack) >= room:
                self.stack.pop(0)
            self.stack.append(page)
        return False


@settings(max_examples=200)
@given(
    capacity=st.integers(min_value=1, max_value=8),
    pinned=st.sets(st.integers(min_value=0, max_value=3), max_size=1),
    requests=st.lists(st.integers(min_value=0, max_value=12), max_size=200),
)
def test_matches_reference(capacity, pinned, requests):
    if len(pinned) > capacity:
        return
    real = LRUBuffer(capacity, pinned)
    naive = NaiveLRU(capacity, frozenset(pinned))
    for page in requests:
        assert real.request(page) == naive.request(page)
    assert real.resident_pages() == naive.stack


@settings(max_examples=100)
@given(requests=st.lists(st.integers(min_value=0, max_value=20), max_size=300))
def test_bigger_buffer_never_hits_less(requests):
    """LRU has the stack property: inclusion of cache contents across
    sizes, so hits are monotone in capacity."""
    small = LRUBuffer(3)
    large = LRUBuffer(6)
    for page in requests:
        hit_small = small.request(page)
        hit_large = large.request(page)
        assert not (hit_small and not hit_large)
