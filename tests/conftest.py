"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.geometry import Rect, RectArray


@pytest.fixture
def rng() -> np.random.Generator:
    """A fresh deterministic generator per test."""
    return np.random.default_rng(12345)


def random_rects(
    rng: np.random.Generator, n: int, dim: int = 2, max_side: float = 0.3
) -> RectArray:
    """``n`` random rectangles inside the unit cube."""
    sides = rng.random((n, dim)) * max_side
    lo = rng.random((n, dim)) * (1.0 - sides)
    return RectArray(lo, lo + sides)


def corners(rects) -> tuple[np.ndarray, np.ndarray]:
    """The ``(d, n)`` corner arrays ``lo`` and ``hi`` a split function
    takes, from a sequence of :class:`Rect`."""
    arr = RectArray.from_rects(rects)
    return arr.lo.T, arr.hi.T


def brute_force_intersecting(
    rects: list[Rect], query: Rect
) -> list[int]:
    """Indices of rectangles intersecting ``query`` (reference oracle)."""
    return [i for i, r in enumerate(rects) if r.intersects(query)]
