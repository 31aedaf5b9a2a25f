"""Reading and writing rectangle data sets.

Two formats:

* a plain whitespace text format (one rectangle per line:
  ``lo_0 ... lo_{d-1} hi_0 ... hi_{d-1}``) for interchange with other
  tools and for eyeballing, and
* numpy ``.npz`` for fast exact round-trips.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from ..geometry import GeometryError, RectArray

__all__ = [
    "load_rects",
    "load_rects_npz",
    "save_rects",
    "save_rects_npz",
]


def save_rects(path: str | Path, rects: RectArray) -> None:
    """Write a :class:`RectArray` in the text format."""
    path = Path(path)
    dim = rects.dim
    with path.open("w", encoding="ascii") as f:
        f.write(f"# repro rects dim={dim} n={len(rects)}\n")
        for lo, hi in zip(rects.lo, rects.hi):
            coords = " ".join(repr(float(v)) for v in (*lo, *hi))
            f.write(coords + "\n")


def load_rects(path: str | Path) -> RectArray:
    """Read a :class:`RectArray` from the text format.

    Lines starting with ``#`` are comments; each data line must hold
    ``2 * d`` floats.  The dimensionality is inferred from the first
    data line.
    """
    path = Path(path)
    lo_rows: list[list[float]] = []
    hi_rows: list[list[float]] = []
    dim: int | None = None
    with path.open("r", encoding="ascii") as f:
        for line_no, line in enumerate(f, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            fields = line.split()
            if len(fields) % 2 != 0:
                raise GeometryError(
                    f"{path}:{line_no}: odd number of coordinates"
                )
            if dim is None:
                dim = len(fields) // 2
            elif len(fields) != 2 * dim:
                raise GeometryError(
                    f"{path}:{line_no}: expected {2 * dim} coordinates, "
                    f"got {len(fields)}"
                )
            values = [float(v) for v in fields]
            lo_rows.append(values[:dim])
            hi_rows.append(values[dim:])
    if dim is None:
        raise GeometryError(f"{path}: no rectangles found")
    return RectArray(np.array(lo_rows), np.array(hi_rows))


def save_rects_npz(path: str | Path, rects: RectArray) -> None:
    """Write a :class:`RectArray` as a compressed ``.npz`` file."""
    np.savez_compressed(Path(path), lo=rects.lo, hi=rects.hi)


def load_rects_npz(path: str | Path) -> RectArray:
    """Read a :class:`RectArray` written by :func:`save_rects_npz`."""
    with np.load(Path(path)) as data:
        return RectArray(data["lo"], data["hi"])
