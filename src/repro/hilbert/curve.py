"""Hilbert space-filling curve indices.

The Hilbert-sort packing algorithm (Kamel & Faloutsos [4]) orders
rectangle centres "based on their distance from the origin as measured
along the Hilbert curve".  We provide:

* :func:`hilbert_index_2d` — the classic 2-D rotate-and-accumulate
  algorithm, read four levels at a time from lookup tables (the one
  relevant to the paper's experiments), and
* :func:`hilbert_index` — arbitrary-dimension indices via Skilling's
  transpose algorithm, supporting the paper's "generalizations to
  higher dimensions are straightforward" remark.

Both are vectorised over numpy integer arrays and are exact for grids
up to ``2**order`` cells per axis (with ``order * dim`` result bits,
held in Python/object-free ``uint64`` for ``order * dim <= 64``).
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "DEFAULT_ORDER",
    "hilbert_index",
    "hilbert_index_2d",
    "hilbert_sort_key",
    "morton_index",
    "morton_sort_key",
    "quantize",
]

DEFAULT_ORDER = 16
"""Default grid resolution: 2**16 cells per axis, ample for ~1e5 rects."""


def quantize(coords: np.ndarray, order: int = DEFAULT_ORDER) -> np.ndarray:
    """Map unit-cube coordinates to integer grid cells in ``[0, 2**order)``.

    Values outside ``[0, 1]`` are clamped; the top edge maps to the last
    cell (the grid cells are half-open except the final one).
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    coords = np.asarray(coords, dtype=np.float64)
    side = 1 << order
    cells = np.floor(coords * side).astype(np.int64)
    return np.clip(cells, 0, side - 1).astype(np.uint64)


def _chunk_tables() -> tuple[np.ndarray, np.ndarray]:
    """The 2-D Hilbert curve as a 4-state automaton over 4-bit chunks.

    The classic ``xy2d`` loop reads one bit of ``x`` and ``y`` per
    level, adds the digit ``(3 * rx) ^ ry``, and then rotates the lower
    levels: when ``ry == 0`` it swaps the axes, complementing both
    first when ``rx == 1``.  Swapping and complementing both commute, so
    the rotations so far are one of four states, ``swap | flip << 1``,
    applied to the lower bits.  For every state and pair of 4-bit
    chunks, at index ``state << 8 | x << 4 | y``, the first table holds
    the chunk's eight index bits and the second the state after it,
    already shifted into index position.
    """
    digits = np.zeros(1024, dtype=np.uint64)
    next_state = np.zeros(1024, dtype=np.int64)
    for start in range(4):
        for cx in range(16):
            for cy in range(16):
                swap, flip = start & 1, start >> 1
                d = 0
                for bit in range(3, -1, -1):
                    rx = (cx >> bit & 1) ^ flip
                    ry = (cy >> bit & 1) ^ flip
                    if swap:
                        rx, ry = ry, rx
                    d = d << 2 | (3 * rx) ^ ry
                    if ry == 0:
                        swap ^= 1
                        flip ^= rx
                index = start << 8 | cx << 4 | cy
                digits[index] = d
                next_state[index] = (swap | flip << 1) << 8
    return digits, next_state


_CHUNK_DIGITS, _CHUNK_NEXT = _chunk_tables()


def hilbert_index_2d(x: np.ndarray, y: np.ndarray, order: int = DEFAULT_ORDER) -> np.ndarray:
    """Distance along the 2-D Hilbert curve of grid cells ``(x, y)``.

    Computes the standard rotate-and-accumulate algorithm (the ``xy2d``
    routine of Warren's "Hacker's Delight" presentation) four levels at
    a time: the curve's 4-state automaton is read over 4-bit chunks of
    ``x`` and ``y`` with two lookup tables, vectorised over numpy
    arrays.  An order that is not a multiple of 4 is padded with
    leading zero levels.  Each zero level adds no digit and only swaps
    the axes, so an odd padding starts in the swapped state.

    Parameters
    ----------
    x, y:
        Integer arrays with values in ``[0, 2**order)``.
    order:
        Number of bits per axis; the result uses ``2 * order`` bits.

    Returns
    -------
    ``uint64`` array of curve indices in ``[0, 4**order)``.
    """
    if order < 1 or 2 * order > 64:
        raise ValueError("order must satisfy 1 <= order <= 32")
    x = np.asarray(x, dtype=np.uint64)
    y = np.asarray(y, dtype=np.uint64)
    if x.shape != y.shape:
        raise ValueError("x and y must have matching shapes")
    side = np.uint64(1 << order)
    if (x >= side).any() or (y >= side).any():
        raise ValueError("coordinates out of range for the given order")

    # Below 2**32, so the chunk arithmetic runs in int64 index space.
    x = x.astype(np.int64)
    y = y.astype(np.int64)
    levels = -(-order // 4) * 4
    state = np.full(x.shape, ((levels - order) % 2) << 8, dtype=np.int64)
    d = np.zeros(x.shape, dtype=np.uint64)
    for shift in range(levels - 4, -1, -4):
        index = (x >> shift & 15) << 4
        index |= y >> shift & 15
        index |= state
        d <<= 8
        d |= _CHUNK_DIGITS.take(index)
        state = _CHUNK_NEXT.take(index)
    return d


def hilbert_index(cells: np.ndarray, order: int = DEFAULT_ORDER) -> np.ndarray:
    """Hilbert curve index of grid cells in arbitrary dimension.

    Uses Skilling's "transpose" algorithm (AIP Conf. Proc. 707, 2004):
    the axes are converted in place to the transposed Hilbert
    representation, then the bits are interleaved into a single index.

    Parameters
    ----------
    cells:
        ``(n, d)`` integer array with values in ``[0, 2**order)``.
    order:
        Bits per axis; ``order * d`` must be at most 64 so the result
        fits a ``uint64``.

    Returns
    -------
    ``uint64`` array of shape ``(n,)``.
    """
    cells = np.array(cells, dtype=np.uint64, copy=True)
    if cells.ndim != 2:
        raise ValueError("cells must be an (n, d) array")
    n, dim = cells.shape
    if dim < 1:
        raise ValueError("dimension must be >= 1")
    if order < 1 or order * dim > 64:
        raise ValueError("order * dim must be at most 64")
    side = np.uint64(1 << order)
    if (cells >= side).any():
        raise ValueError("coordinates out of range for the given order")
    if dim == 1:
        return cells[:, 0].copy()

    x = cells.T.copy()  # (dim, n): axis-major for the in-place sweeps
    one = np.uint64(1)

    # --- Inverse undo: map Gray-code positions to transposed Hilbert ---
    m = np.uint64(1 << (order - 1))
    q = m
    while q > one:
        p = q - one
        for i in range(dim):
            invert = (x[i] & q) > 0
            # invert low bits of axis 0 where bit set
            x[0] = np.where(invert, x[0] ^ p, x[0])
            # exchange low bits of axis i and axis 0 where bit clear
            t = (x[0] ^ x[i]) & p
            t = np.where(invert, np.uint64(0), t)
            x[0] ^= t
            x[i] ^= t
        q >>= one

    # --- Gray encode ---
    for i in range(1, dim):
        x[i] ^= x[i - 1]
    t = np.zeros(n, dtype=np.uint64)
    q = m
    while q > one:
        t = np.where((x[dim - 1] & q) > 0, t ^ (q - one), t)
        q >>= one
    for i in range(dim):
        x[i] ^= t

    # --- Interleave the transposed bits into a single index ---
    # Bit b of axis i contributes to result bit (b * dim + (dim-1-i)).
    result = np.zeros(n, dtype=np.uint64)
    for b in range(order):
        for i in range(dim):
            bit = (x[i] >> np.uint64(b)) & one
            shift = np.uint64(b * dim + (dim - 1 - i))
            result |= bit << shift
    return result


def morton_index(cells: np.ndarray, order: int = DEFAULT_ORDER) -> np.ndarray:
    """Z-order (Morton) curve index: plain bit interleaving.

    Kamel & Faloutsos compared Hilbert ordering against Z-order when
    proposing Hilbert packing; this provides the baseline.  Unlike the
    Hilbert curve, consecutive Z-order cells can be far apart in space
    (the curve "jumps"), which is exactly why Hilbert packs better.

    Parameters mirror :func:`hilbert_index`; ``order * d`` must be at
    most 64.
    """
    cells = np.asarray(cells, dtype=np.uint64)
    if cells.ndim != 2:
        raise ValueError("cells must be an (n, d) array")
    n, dim = cells.shape
    if dim < 1:
        raise ValueError("dimension must be >= 1")
    if order < 1 or order * dim > 64:
        raise ValueError("order * dim must be at most 64")
    side = np.uint64(1 << order)
    if (cells >= side).any():
        raise ValueError("coordinates out of range for the given order")
    one = np.uint64(1)
    result = np.zeros(n, dtype=np.uint64)
    for b in range(order):
        for i in range(dim):
            bit = (cells[:, i] >> np.uint64(b)) & one
            shift = np.uint64(b * dim + (dim - 1 - i))
            result |= bit << shift
    return result


def morton_sort_key(points: np.ndarray, order: int = DEFAULT_ORDER) -> np.ndarray:
    """Z-order curve index of unit-cube points (any dimension)."""
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2:
        raise ValueError("points must be an (n, d) array")
    return morton_index(quantize(points, order=order), order=order)


def hilbert_sort_key(points: np.ndarray, order: int = DEFAULT_ORDER) -> np.ndarray:
    """Hilbert curve index of unit-cube points (any dimension).

    Quantises ``points`` onto a ``2**order`` grid and returns curve
    indices; in 2-D the specialised algorithm is used (it is both the
    paper-relevant path and the faster one).
    """
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2:
        raise ValueError("points must be an (n, d) array")
    cells = quantize(points, order=order)
    if points.shape[1] == 2:
        return hilbert_index_2d(cells[:, 0], cells[:, 1], order=order)
    return hilbert_index(cells, order=order)
