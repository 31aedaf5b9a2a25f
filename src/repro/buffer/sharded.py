"""A partitioned, per-shard-locked buffer pool for concurrent serving.

The paper's simulator owns one buffer and one thread, so its
:class:`~repro.buffer.base.BufferPool` needs no synchronization.  A
serving engine does not have that luxury: concurrent micro-batches all
funnel into the buffer, and a single eviction list (the LRU stack)
serializes every one of them.  :class:`ShardedBufferPool` removes the
single list: page ids are partitioned across ``K`` independent shards
by ``page % K``, each a plain single-threaded
:class:`~repro.buffer.base.BufferPool` (any registered policy) guarded
by its own lock, so requests for pages in different shards never
contend.

Semantics, stated honestly:

* **K = 1 is the paper's buffer, bit-exactly.**  One shard holds the
  full capacity and every pinned page; the identical policy code runs
  under one lock, so a deterministic replay produces the identical
  hit/miss/eviction sequence as the unsharded pool — the correctness
  anchor back to the batch simulator (see ``docs/SERVING.md``).
* **K > 1 is a different replacement policy.**  A sharded LRU with
  per-shard capacity ``C/K`` is *not* equivalent to one LRU of
  capacity ``C`` (a burst of popular pages homed in one shard can
  evict early while other shards idle).  What *is* exact is the
  decomposition: each shard behaves precisely like a single pool fed
  the subsequence of requests homed to it, and the aggregate counters
  are precisely the shard sums — both are enforced by
  ``tests/buffer/test_sharded.py`` and by the metrics-export
  validator's sum-reconciliation invariants.

:meth:`~ShardedBufferPool.request_batch` leans on the decomposition:
it partitions a batch once, keeping stream order within each shard,
and runs each shard's requests under one acquisition of its lock.  A
shard's state depends only on the subsequence it sees, so the result
is the same as requesting the pages one by one.

Pinned pages (§3.3) are partitioned like any other id and occupy
capacity in their home shard; a pin distribution that overflows some
shard raises :class:`~repro.buffer.base.PinningError` — the sharded
pool never silently spills pins across shards.

Under ``REPRO_SANITIZE=1`` the sanitizer registers every shard's pool
and stats with the shard's lock: touching a shard without holding its
lock raises at the exact write (see ``repro.analysis.sanitize``).
"""

from __future__ import annotations

import threading
from collections.abc import Iterable

import numpy as np

from .base import BufferPool, BufferStats, PageId, PinningError
from .policies import POLICIES

__all__ = ["ShardedBufferPool"]


class ShardedBufferPool:
    """``K`` independent replacement domains behind one ``request()``.

    Page ids are non-negative ints (the level-major node ids every
    stabber emits); page ``p`` lives in shard ``p % K``.

    Parameters
    ----------
    capacity:
        Total buffer capacity in pages, split as evenly as possible:
        shard ``s`` gets ``capacity // K`` pages plus one of the
        ``capacity % K`` remainder pages (lowest shards first).
    shards:
        Number of partitions ``K`` (>= 1).
    policy:
        Replacement policy per shard (``lru``, ``fifo``, ``clock``,
        ``random``) — every shard runs the same policy.
    pinned:
        Page ids preloaded and excluded from replacement, partitioned
        to their home shards.
    rng:
        Seed for the ``random`` policy; shard ``s`` draws from an
        independent generator seeded ``rng + s`` (other policies
        ignore it).
    """

    def __init__(
        self,
        capacity: int,
        shards: int = 1,
        *,
        policy: str = "lru",
        pinned: Iterable[PageId] = (),
        rng: int = 0,
    ) -> None:
        if shards < 1:
            raise ValueError("need at least one shard")
        if capacity < shards:
            raise ValueError(
                f"cannot split {capacity} pages across {shards} shards "
                "(each shard needs at least one page)"
            )
        if policy not in POLICIES:
            raise ValueError(
                f"unknown policy {policy!r}; choices: {sorted(POLICIES)}"
            )
        pinned_set = frozenset(pinned)
        if len(pinned_set) > capacity:
            raise PinningError(
                f"cannot pin {len(pinned_set)} pages in a "
                f"{capacity}-page buffer"
            )
        per_shard_pins: list[list[PageId]] = [[] for _ in range(shards)]
        for page in pinned_set:
            per_shard_pins[page % shards].append(page)
        base, extra = divmod(capacity, shards)
        pools = []
        for s, pins in enumerate(per_shard_pins):
            shard_capacity = base + (1 if s < extra else 0)
            if len(pins) > shard_capacity:
                raise PinningError(
                    f"shard {s} holds {len(pins)} pinned pages but only "
                    f"{shard_capacity} slots; repartition or grow the "
                    "buffer"
                )
            if policy == "random":
                shard_rng = np.random.default_rng(int(rng) + s)
                pool = POLICIES["random"](shard_capacity, pins, rng=shard_rng)
            else:
                pool = POLICIES[policy](shard_capacity, pins)
            pools.append(pool)
        self.capacity = int(capacity)
        self.n_shards = int(shards)
        self.policy = policy
        self.pinned = pinned_set
        self._pools: tuple[BufferPool, ...] = tuple(pools)
        self._locks: tuple[threading.Lock, ...] = tuple(
            threading.Lock() for _ in range(shards)
        )

    # ------------------------------------------------------------------
    # The hot path
    # ------------------------------------------------------------------
    def request(self, page: PageId) -> bool:
        """Access ``page`` through its home shard; True on a hit.

        Exactly :meth:`repro.buffer.base.BufferPool.request` semantics
        within the shard, under the shard's lock — requests to
        different shards proceed concurrently.
        """
        shard = page % self.n_shards
        with self._locks[shard]:
            return self._pools[shard].request(page)

    def request_batch(self, pages) -> int:
        """Access every page in ``pages`` in order; returns the hit count.

        Equivalent to ``sum(self.request(int(p)) for p in pages)``, but
        the batch is split once by ``pages % K`` — a boolean-mask take,
        so each shard's pages keep their stream order — and each shard
        serves its part with one
        :meth:`~repro.buffer.base.BufferPool.request_batch` call under
        a single acquisition of its lock.  A shard's state depends only
        on the subsequence it sees, in order, so the counters equal the
        page-at-a-time path's.
        """
        pages = np.asarray(pages)
        if self.n_shards == 1:
            parts = [pages]
        else:
            home = pages % self.n_shards
            parts = [pages[home == s] for s in range(self.n_shards)]
        hits = 0
        for lock, pool, part in zip(self._locks, self._pools, parts):
            with lock:
                hits += len(part) - len(pool.request_batch(part.tolist()))
        return hits

    # ------------------------------------------------------------------
    # Accounting — the sum-reconciliation surface
    # ------------------------------------------------------------------
    def shard_stats(self) -> tuple[BufferStats, ...]:
        """Independent per-shard counter snapshots (taken under locks)."""
        snapshots = []
        for lock, pool in zip(self._locks, self._pools):
            with lock:
                snapshots.append(pool.stats.snapshot())
        return tuple(snapshots)

    def aggregate_stats(self) -> BufferStats:
        """Counters summed over shards — the single-pool view.

        The obs-layer invariant this must satisfy: every field equals
        the sum of the same field over :meth:`shard_stats`, and
        ``hits + misses == requests`` (each shard satisfies it, so the
        sum does).
        """
        totals = BufferStats()
        for snapshot in self.shard_stats():
            totals.requests += snapshot.requests
            totals.hits += snapshot.hits
            totals.misses += snapshot.misses
            totals.evictions += snapshot.evictions
        return totals

    def reset_stats(self) -> None:
        """Zero every shard's counters (under each shard's lock)."""
        for lock, pool in zip(self._locks, self._pools):
            with lock:
                pool.stats.reset()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def unpinned_capacity(self) -> int:
        """Pages available to replacement, summed over shards."""
        return self.capacity - len(self.pinned)

    def shard_capacities(self) -> tuple[int, ...]:
        """Each shard's total capacity (sums to ``capacity``)."""
        return tuple(pool.capacity for pool in self._pools)

    def is_full(self) -> bool:
        """True once every shard's unpinned area is full."""
        for lock, pool in zip(self._locks, self._pools):
            with lock:
                if not pool.is_full():
                    return False
        return True

    def __contains__(self, page: PageId) -> bool:
        shard = page % self.n_shards
        with self._locks[shard]:
            return page in self._pools[shard]

    def __len__(self) -> int:
        """Resident pages over all shards, pinned included."""
        total = 0
        for lock, pool in zip(self._locks, self._pools):
            with lock:
                total += len(pool)
        return total

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ShardedBufferPool(capacity={self.capacity}, "
            f"shards={self.n_shards}, policy={self.policy!r})"
        )
