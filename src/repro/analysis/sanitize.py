"""Opt-in shared-state sanitizer: the dynamic half of RL009.

The static rule reasons about *code*; this module watches *objects*.
When installed (``import repro`` with ``REPRO_SANITIZE`` set to
``1``, ``true`` or ``on``, or an explicit :func:`install`), the
mutable runtime classes that matter —
:class:`~repro.buffer.base.BufferPool`,
:class:`~repro.buffer.base.BufferStats`, and
:class:`~repro.obs.spans.Tracer` — are patched in place so that
unsynchronized cross-thread mutation raises :class:`SanitizerError`
at the exact write, instead of silently corrupting a counter and
shifting a figure by a fraction nobody can bisect.

Mechanics:

* **Thread affinity** (pool + stats): each instance is stamped with
  its creating thread; any attribute write (stats) or
  ``_request_unpinned()`` (pool — the one write path, which runs the
  policy's replacement loop and which ``request()``,
  ``request_batch()`` and the sharded pool all go through) from a
  different thread raises.
  Objects are not locked to a thread forever — :func:`adopt`
  transfers ownership explicitly, which is itself a synchronization
  statement in the code.
* **Lock discipline** (tracer, telemetry sink): spans legitimately
  finish on many threads, so affinity is the wrong check.  Instead
  the tracer's shared containers (``_finished``, ``_threads``) are
  replaced with guards that assert ``self._lock`` is held during
  every mutation.  The telemetry sink
  (:class:`~repro.obs.telemetry.TelemetrySink`) gets the same
  treatment: its list of recent ticks mutates only inside the tick
  path, which must hold the sink lock — a tick that mutates the
  list without it raises at the exact ``append``/``pop``.
* **Lock guards** (sharded pool): a
  :class:`~repro.buffer.sharded.ShardedBufferPool` hands each shard's
  plain pool to *many* threads by design — the shard lock, not thread
  affinity, is the synchronization statement.  :func:`guard`
  registers a lock as an object's guard; every subsequent mutation
  check requires that lock to be held instead of checking affinity.
  ``ShardedBufferPool.__init__`` is patched to register each shard's
  pool and stats with the shard's lock, so reaching around the
  sharded pool into ``_pools[s]`` without holding ``_locks[s]``
  raises at the exact ``_request_unpinned()``/counter write.
* Ownership lives in a module-level table keyed by ``id(obj)``
  (``BufferStats`` has ``__slots__`` and accepts no new attributes).
  The patched ``__init__`` re-stamps on construction, so id reuse
  after garbage collection cannot mis-attribute an object.

The patches are applied to the classes *in place* (method assignment,
not subclassing), so instances created before :func:`install` — and
references imported anywhere — are covered.  :func:`uninstall`
restores the originals; both are idempotent.

All runtime imports are deferred into the install path: ``analysis``
is a leaf package in the canonical DAG (RL008) and must not import
``buffer``/``obs`` at module level.
"""

from __future__ import annotations

import threading
from typing import Any, Callable

__all__ = [
    "SanitizerError",
    "adopt",
    "guard",
    "install",
    "is_installed",
    "uninstall",
]

_owner_lock = threading.Lock()
_owners: dict[int, int] = {}
_guards: dict[int, threading.Lock] = {}
_saved: list[tuple[type, str, Any]] = []
_installed = False


class SanitizerError(RuntimeError):
    """An unsynchronized cross-thread mutation was detected."""


def is_installed() -> bool:
    """Is the sanitizer currently active?"""
    return _installed


def adopt(obj: object) -> None:
    """Transfer ownership of ``obj`` to the calling thread.

    The explicit hand-off for legitimate single-owner migrations
    (build on the main thread, then give the object to a worker).
    Clears any lock guard: adoption reverts to thread affinity.
    """
    with _owner_lock:
        _guards.pop(id(obj), None)
        _owners[id(obj)] = threading.get_ident()


def guard(obj: object, lock: threading.Lock) -> None:
    """Declare ``lock`` the guard of ``obj``.

    From now on mutations of ``obj`` are legal from *any* thread as
    long as ``lock`` is held at the moment of the write — the check
    for objects shared by design (a sharded pool's per-shard pools
    and stats).  Replaces any thread-affinity stamp.
    """
    with _owner_lock:
        _owners.pop(id(obj), None)
        _guards[id(obj)] = lock


def _stamp(obj: object) -> None:
    with _owner_lock:
        # drop a stale guard left by a freed object that reused this id
        _guards.pop(id(obj), None)
        _owners[id(obj)] = threading.get_ident()


def _check_owner(obj: object, action: str) -> None:
    me = threading.get_ident()
    with _owner_lock:
        lock = _guards.get(id(obj))
        owner = None if lock is not None else _owners.setdefault(id(obj), me)
    if lock is not None:
        if not lock.locked():
            raise SanitizerError(
                f"unguarded {action}: {type(obj).__name__} is "
                "registered to a guard lock that is not held — "
                "acquire the shard's lock (or go through "
                "ShardedBufferPool.request) instead of touching the "
                "shard directly"
            )
        return
    if owner != me:
        raise SanitizerError(
            f"unsynchronized cross-thread {action}: "
            f"{type(obj).__name__} owned by thread {owner} "
            f"mutated from thread {me}; guard it with a lock or "
            "adopt() it explicitly"
        )


class _GuardedList(list):
    """A list that insists its lock is held during every mutation."""

    __slots__ = ("_guard_lock", "_owner_name")

    def __init__(self, lock: threading.Lock, owner_name: str) -> None:
        super().__init__()
        self._guard_lock = lock
        self._owner_name = owner_name

    def _assert_held(self, action: str) -> None:
        if not self._guard_lock.locked():
            raise SanitizerError(
                f"{self._owner_name} mutated via {action} without "
                "holding its lock"
            )

    def append(self, item: Any) -> None:
        self._assert_held("append")
        super().append(item)

    def extend(self, items: Any) -> None:
        self._assert_held("extend")
        super().extend(items)

    def clear(self) -> None:
        self._assert_held("clear")
        super().clear()

    def pop(self, *args: Any) -> Any:
        self._assert_held("pop")
        return super().pop(*args)


class _GuardedDict(dict):
    """A dict that insists its lock is held during every mutation."""

    __slots__ = ("_guard_lock", "_owner_name")

    def __init__(self, lock: threading.Lock, owner_name: str) -> None:
        super().__init__()
        self._guard_lock = lock
        self._owner_name = owner_name

    def _assert_held(self, action: str) -> None:
        if not self._guard_lock.locked():
            raise SanitizerError(
                f"{self._owner_name} mutated via {action} without "
                "holding its lock"
            )

    def __setitem__(self, key: Any, value: Any) -> None:
        self._assert_held("__setitem__")
        super().__setitem__(key, value)

    def setdefault(self, key: Any, default: Any = None) -> Any:
        self._assert_held("setdefault")
        return super().setdefault(key, default)

    def clear(self) -> None:
        self._assert_held("clear")
        super().clear()


def _save(cls: type, attr: str) -> None:
    _saved.append((cls, attr, cls.__dict__.get(attr)))


def _wrap_init(cls: type) -> None:
    """Stamp ownership at construction, before any attribute lands."""
    original: Callable = cls.__init__
    _save(cls, "__init__")

    def __init__(self: object, *args: Any, **kwargs: Any) -> None:
        _stamp(self)
        original(self, *args, **kwargs)

    __init__.__wrapped__ = original  # type: ignore[attr-defined]
    cls.__init__ = __init__  # type: ignore[misc]


def _patch_stats(cls: type) -> None:
    """Every attribute write on a stats object checks thread affinity."""
    _wrap_init(cls)
    _save(cls, "__setattr__")

    def __setattr__(self: object, name: str, value: Any) -> None:
        _check_owner(self, f"write of .{name}")
        object.__setattr__(self, name, value)

    cls.__setattr__ = __setattr__  # type: ignore[assignment]


def _patch_pool(cls: type) -> None:
    """``_request_unpinned()`` — the one write path of a pool, which
    ``request_batch()`` and ``ShardedBufferPool.request_batch`` both
    go through, and which runs the policy's replacement loop — checks
    affinity once per call."""
    _wrap_init(cls)
    original: Callable = cls._request_unpinned
    _save(cls, "_request_unpinned")

    def _request_unpinned(self: object, pages: Any, pinned: int) -> Any:
        _check_owner(self, "_request_unpinned()")
        return original(self, pages, pinned)

    _request_unpinned.__wrapped__ = original  # type: ignore[attr-defined]
    cls._request_unpinned = _request_unpinned


def _patch_tracer(cls: type) -> None:
    """Replace the tracer's shared containers with lock-asserting ones."""
    original: Callable = cls.__init__
    _save(cls, "__init__")

    def __init__(self: Any, *args: Any, **kwargs: Any) -> None:
        original(self, *args, **kwargs)
        finished = _GuardedList(self._lock, "Tracer._finished")
        list.extend(finished, self._finished)
        self._finished = finished
        threads = _GuardedDict(self._lock, "Tracer._threads")
        dict.update(threads, self._threads)
        self._threads = threads

    __init__.__wrapped__ = original  # type: ignore[attr-defined]
    cls.__init__ = __init__  # type: ignore[misc]


def _patch_telemetry(cls: type) -> None:
    """Replace the sink's recent-tick list with a lock-asserting list.

    The list is mutated only by :meth:`TelemetrySink.tick` under the
    sink lock, and the derivation behind each tick's SLO input reads
    it — this patch turns that contract into a runtime check, exactly
    as for the tracer's containers.
    """
    original: Callable = cls.__init__
    _save(cls, "__init__")

    def __init__(self: Any, *args: Any, **kwargs: Any) -> None:
        original(self, *args, **kwargs)
        recent = _GuardedList(self._lock, "TelemetrySink._recent")
        list.extend(recent, self._recent)
        self._recent = recent

    __init__.__wrapped__ = original  # type: ignore[attr-defined]
    cls.__init__ = __init__  # type: ignore[misc]


def _patch_sharded(cls: type) -> None:
    """Register every shard's pool and stats with the shard's lock.

    Runs *after* the sharded pool's own ``__init__`` (which builds the
    shard pools — each freshly affinity-stamped by the patched
    ``BufferPool.__init__``) and converts them to lock-guarded:
    mutating a shard from any thread is legal exactly while its lock
    is held, which is what ``ShardedBufferPool.request`` and
    ``request_batch`` guarantee.
    """
    original: Callable = cls.__init__
    _save(cls, "__init__")

    def __init__(self: Any, *args: Any, **kwargs: Any) -> None:
        original(self, *args, **kwargs)
        for pool, lock in zip(self._pools, self._locks):
            guard(pool, lock)
            guard(pool.stats, lock)

    __init__.__wrapped__ = original  # type: ignore[attr-defined]
    cls.__init__ = __init__  # type: ignore[misc]


def install() -> None:
    """Patch the runtime classes in place (idempotent)."""
    global _installed
    if _installed:
        return
    from repro.buffer.base import BufferPool, BufferStats
    from repro.buffer.sharded import ShardedBufferPool
    from repro.obs.spans import Tracer
    from repro.obs.telemetry import TelemetrySink

    _patch_stats(BufferStats)
    _patch_pool(BufferPool)
    _patch_sharded(ShardedBufferPool)
    _patch_tracer(Tracer)
    _patch_telemetry(TelemetrySink)
    _installed = True


def uninstall() -> None:
    """Restore every patched attribute (idempotent)."""
    global _installed
    if not _installed:
        return
    for cls, attr, value in reversed(_saved):
        if value is None:
            # the attribute was inherited, not defined on the class
            if attr in cls.__dict__:
                delattr(cls, attr)
        else:
            setattr(cls, attr, value)
    _saved.clear()
    with _owner_lock:
        _owners.clear()
        _guards.clear()
    _installed = False
