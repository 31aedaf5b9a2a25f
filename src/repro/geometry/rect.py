"""Axis-parallel d-dimensional rectangles.

The paper works with axis-parallel rectangles normalised to the unit
square ``U = [0, 1] x [0, 1]``.  Everything here generalises to d
dimensions, as the paper notes its model does ("Generalizations to
higher dimensions are straightforward").

A :class:`Rect` is an immutable pair of corner tuples ``lo`` and ``hi``
with ``lo[k] <= hi[k]`` for every axis ``k``.  Degenerate rectangles
(zero extent on one or more axes, e.g. points) are valid; they arise
naturally as the MBRs of point data and as point queries.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from dataclasses import dataclass

__all__ = ["Rect", "GeometryError", "unit_rect", "mbr_of"]


class GeometryError(ValueError):
    """Raised for malformed geometric input (e.g. ``lo > hi``)."""


@dataclass(frozen=True, slots=True)
class Rect:
    """An immutable axis-parallel rectangle in d dimensions.

    Parameters
    ----------
    lo:
        Coordinates of the "bottom-left" corner (minimum on every axis).
    hi:
        Coordinates of the "top-right" corner (maximum on every axis).

    Examples
    --------
    >>> r = Rect((0.0, 0.0), (0.5, 0.25))
    >>> r.area
    0.125
    >>> r.contains_point((0.1, 0.1))
    True
    """

    lo: tuple[float, ...]
    hi: tuple[float, ...]

    def __post_init__(self) -> None:
        lo = tuple(float(x) for x in self.lo)
        hi = tuple(float(x) for x in self.hi)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        if len(lo) != len(hi):
            raise GeometryError(
                f"corner dimensionality mismatch: {len(lo)} != {len(hi)}"
            )
        if not lo:
            raise GeometryError("rectangles must have at least one dimension")
        for k, (a, b) in enumerate(zip(lo, hi)):
            if not (math.isfinite(a) and math.isfinite(b)):
                raise GeometryError(f"non-finite coordinate on axis {k}")
            if a > b:
                raise GeometryError(f"lo > hi on axis {k}: {a} > {b}")

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_point(cls, point: Sequence[float]) -> "Rect":
        """A degenerate rectangle covering a single point."""
        p = tuple(float(x) for x in point)
        return cls(p, p)

    @classmethod
    def from_center(cls, center: Sequence[float], extents: Sequence[float]) -> "Rect":
        """Build a rectangle from its center and full side lengths."""
        if len(center) != len(extents):
            raise GeometryError("center/extents dimensionality mismatch")
        lo = tuple(c - e / 2.0 for c, e in zip(center, extents))
        hi = tuple(c + e / 2.0 for c, e in zip(center, extents))
        return cls(lo, hi)

    # ------------------------------------------------------------------
    # Basic measures
    # ------------------------------------------------------------------
    @property
    def dim(self) -> int:
        """Number of dimensions."""
        return len(self.lo)

    @property
    def extents(self) -> tuple[float, ...]:
        """Side length on each axis (``X_ij``/``Y_ij`` in the paper)."""
        return tuple(b - a for a, b in zip(self.lo, self.hi))

    @property
    def center(self) -> tuple[float, ...]:
        """Center point of the rectangle (``c_j`` in the paper)."""
        return tuple((a + b) / 2.0 for a, b in zip(self.lo, self.hi))

    @property
    def area(self) -> float:
        """d-dimensional volume (``A_ij``); area in 2-D."""
        result = 1.0
        for e in self.extents:
            result *= e
        return result

    @property
    def margin(self) -> float:
        """Sum of side lengths.

        In 2-D this is half the perimeter; the paper's ``L_x + L_y``
        terms are sums of per-axis extents, which this exposes per
        rectangle.
        """
        return sum(self.extents)

    # ------------------------------------------------------------------
    # Predicates
    # ------------------------------------------------------------------
    def contains_point(self, point: Sequence[float]) -> bool:
        """True if ``point`` lies inside this rectangle (closed)."""
        if len(point) != self.dim:
            raise GeometryError("point dimensionality mismatch")
        return all(a <= p <= b for a, p, b in zip(self.lo, point, self.hi))

    def contains_rect(self, other: "Rect") -> bool:
        """True if ``other`` lies entirely inside this rectangle."""
        self._check_dim(other)
        return all(a <= c for a, c in zip(self.lo, other.lo)) and all(
            d <= b for d, b in zip(other.hi, self.hi)
        )

    def intersects(self, other: "Rect") -> bool:
        """True if the two (closed) rectangles share at least a point."""
        self._check_dim(other)
        return all(
            a <= d and c <= b
            for a, b, c, d in zip(self.lo, self.hi, other.lo, other.hi)
        )

    # ------------------------------------------------------------------
    # Combinators
    # ------------------------------------------------------------------
    def intersection(self, other: "Rect") -> "Rect | None":
        """The overlapping region, or ``None`` if disjoint."""
        self._check_dim(other)
        lo = tuple(max(a, c) for a, c in zip(self.lo, other.lo))
        hi = tuple(min(b, d) for b, d in zip(self.hi, other.hi))
        if any(a > b for a, b in zip(lo, hi)):
            return None
        return Rect(lo, hi)

    def union(self, other: "Rect") -> "Rect":
        """The minimum bounding rectangle of the two rectangles."""
        self._check_dim(other)
        lo = tuple(min(a, c) for a, c in zip(self.lo, other.lo))
        hi = tuple(max(b, d) for b, d in zip(self.hi, other.hi))
        return Rect(lo, hi)

    def enlargement(self, other: "Rect") -> float:
        """Area increase needed to include ``other`` (Guttman's criterion)."""
        return self.union(other).area - self.area

    def extended(self, amounts: Sequence[float]) -> "Rect":
        """Grow the *top-right* corner by ``amounts`` per axis.

        This is the Kamel–Faloutsos extension used for uniform region
        queries: a query of size ``(qx, qy)`` intersects ``R`` iff its
        top-right corner lies inside ``R`` extended by ``(qx, qy)``
        (Fig. 2 of the paper).
        """
        if len(amounts) != self.dim:
            raise GeometryError("amounts dimensionality mismatch")
        if any(q < 0 for q in amounts):
            raise GeometryError("extension amounts must be non-negative")
        hi = tuple(b + q for b, q in zip(self.hi, amounts))
        return Rect(self.lo, hi)

    def expanded_centered(self, amounts: Sequence[float]) -> "Rect":
        """Grow total side length by ``amounts`` keeping the center fixed.

        This is the data-driven expansion of §3.2 / Fig. 4: a query of
        size ``(qx, qy)`` centred at ``c`` intersects ``R`` iff ``c``
        lies inside ``R`` expanded by ``qx`` (resp. ``qy``) units on
        dimension x (resp. y) about its own center.
        """
        if len(amounts) != self.dim:
            raise GeometryError("amounts dimensionality mismatch")
        if any(q < 0 for q in amounts):
            raise GeometryError("expansion amounts must be non-negative")
        lo = tuple(a - q / 2.0 for a, q in zip(self.lo, amounts))
        hi = tuple(b + q / 2.0 for b, q in zip(self.hi, amounts))
        return Rect(lo, hi)

    def clipped(self, window: "Rect") -> "Rect | None":
        """Alias of :meth:`intersection`, named for the §3.1 clipping step."""
        return self.intersection(window)

    def translated(self, offsets: Sequence[float]) -> "Rect":
        """Shift the rectangle by ``offsets`` per axis."""
        if len(offsets) != self.dim:
            raise GeometryError("offsets dimensionality mismatch")
        lo = tuple(a + o for a, o in zip(self.lo, offsets))
        hi = tuple(b + o for b, o in zip(self.hi, offsets))
        return Rect(lo, hi)

    def scaled_into(self, window: "Rect") -> "Rect":
        """Map this rectangle from the unit cube into ``window``.

        Used by the data-set generators to denormalise shapes.
        """
        self._check_dim(window)
        lo = tuple(
            w_lo + a * (w_hi - w_lo)
            for a, w_lo, w_hi in zip(self.lo, window.lo, window.hi)
        )
        hi = tuple(
            w_lo + b * (w_hi - w_lo)
            for b, w_lo, w_hi in zip(self.hi, window.lo, window.hi)
        )
        return Rect(lo, hi)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _check_dim(self, other: "Rect") -> None:
        if self.dim != other.dim:
            raise GeometryError(
                f"dimensionality mismatch: {self.dim} != {other.dim}"
            )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        lo = ", ".join(f"{x:g}" for x in self.lo)
        hi = ", ".join(f"{x:g}" for x in self.hi)
        return f"Rect(({lo}), ({hi}))"


def unit_rect(dim: int = 2) -> Rect:
    """The unit cube ``U = [0, 1]^dim`` that all data is normalised into."""
    if dim < 1:
        raise GeometryError("dimension must be positive")
    return Rect((0.0,) * dim, (1.0,) * dim)


def mbr_of(rects: Iterable[Rect]) -> Rect:
    """Minimum bounding rectangle of a non-empty collection of rectangles.

    One builtin ``min``/``max`` per axis over all the corners: the same
    floats as chaining :meth:`Rect.union`, since both keep the first of
    equal values, without a ``Rect`` per step.
    """
    rects = list(rects)
    if not rects:
        raise GeometryError("mbr_of() requires at least one rectangle")
    dim = rects[0].dim
    for r in rects:
        if r.dim != dim:
            raise GeometryError(f"dimensionality mismatch: {dim} != {r.dim}")
    lo = tuple(map(min, zip(*[r.lo for r in rects])))
    hi = tuple(map(max, zip(*[r.hi for r in rects])))
    return Rect(lo, hi)
