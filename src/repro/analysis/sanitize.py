"""Opt-in shared-state sanitizer: the dynamic half of RL009.

The static rule reasons about *code*; this module watches *objects*.
When installed (``REPRO_SANITIZE=1`` in the environment, or an
explicit :func:`install`), the mutable runtime classes that matter —
:class:`~repro.buffer.base.BufferPool`,
:class:`~repro.buffer.base.BufferStats`, and
:class:`~repro.obs.spans.Tracer` — are patched in place so that
unsynchronized cross-thread mutation raises :class:`SanitizerError`
at the exact write, instead of silently corrupting a counter and
shifting a figure by a fraction nobody can bisect.

Mechanics:

* **Thread affinity** (pool + stats): each instance is stamped with
  its creating thread; any attribute write (stats) or
  ``request_batch()`` (pool — every policy class's own loop, which
  ``request()`` also goes through) from a different thread raises.
  Objects are not locked to a thread forever — :func:`adopt`
  transfers ownership explicitly, which is itself a synchronization
  statement in the code.
* **Lock discipline** (tracer, telemetry sink): spans legitimately
  finish on many threads, so affinity is the wrong check.  Instead
  the tracer's shared containers (``_finished``, ``_threads``) are
  replaced with guards that assert ``self._lock`` is held during
  every mutation.  The telemetry sink
  (:class:`~repro.obs.telemetry.TelemetrySink`) gets the same
  treatment: its sliding-window list mutates only inside the tick
  path, which must hold the sink lock — a tick that mutates the
  window without it raises at the exact ``append``/``pop``.
* **Lock guards** (sharded pool): a
  :class:`~repro.buffer.sharded.ShardedBufferPool` hands each shard's
  plain pool to *many* threads by design — the shard lock, not thread
  affinity, is the synchronization statement.  :func:`guard`
  registers a lock as an object's guard; every subsequent mutation
  check requires that lock to be held instead of checking affinity.
  ``ShardedBufferPool.__init__`` is patched to register each shard's
  pool and stats with the shard's lock, so reaching around the
  sharded pool into ``_pools[s]`` without holding ``_locks[s]``
  raises at the exact ``request_batch()``/counter write.
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

import os
import threading
from typing import Any, Callable

__all__ = [
    "ENV_FLAG",
    "SanitizerError",
    "adopt",
    "enabled_by_env",
    "guard",
    "install",
    "is_installed",
    "uninstall",
]

ENV_FLAG = "REPRO_SANITIZE"

_owner_lock = threading.Lock()
_owners: dict[int, int] = {}
_guards: dict[int, threading.Lock] = {}
_saved: list[tuple[type, str, Any]] = []
_installed = False


class SanitizerError(RuntimeError):
    """An unsynchronized cross-thread mutation was detected."""


def enabled_by_env() -> bool:
    """Is the sanitizer requested via ``REPRO_SANITIZE``?"""
    return os.environ.get(ENV_FLAG, "").strip() in ("1", "true", "on")


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


def _patch_pool(cls: type, policies: Any) -> None:
    """``request_batch()`` — the mutating entry point each policy
    class defines for itself, and the one ``request()`` calls — checks
    affinity once per call (policy structures mutate inside it)."""
    _wrap_init(cls)
    for policy in policies:
        original: Callable = policy.request_batch
        _save(policy, "request_batch")
        policy.request_batch = _checked_request_batch(original)


def _checked_request_batch(original: Callable) -> Callable:
    def request_batch(self: object, pages: Any) -> Any:
        _check_owner(self, "request_batch()")
        return original(self, pages)

    request_batch.__wrapped__ = original  # type: ignore[attr-defined]
    return request_batch


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
    """Replace the sink's sliding window with a lock-asserting list.

    The window is touched only by :meth:`TelemetrySink.
    _build_tick_locked`, whose contract is "caller holds the sink
    lock" — this patch turns that docstring contract into a runtime
    check, exactly as for the tracer's containers.
    """
    original: Callable = cls.__init__
    _save(cls, "__init__")

    def __init__(self: Any, *args: Any, **kwargs: Any) -> None:
        original(self, *args, **kwargs)
        window = _GuardedList(self._lock, "TelemetrySink._window_deltas")
        list.extend(window, self._window_deltas)
        self._window_deltas = window

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
    from repro.buffer.policies import POLICIES
    from repro.buffer.sharded import ShardedBufferPool
    from repro.obs.spans import Tracer
    from repro.obs.telemetry import TelemetrySink

    _patch_stats(BufferStats)
    _patch_pool(BufferPool, POLICIES.values())
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
