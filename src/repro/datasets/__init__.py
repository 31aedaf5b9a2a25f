"""Data set generators and I/O (paper §5.1 + substitutes)."""

from __future__ import annotations

from .cfd import CFD_SIZE, Airfoil, WING_ELEMENTS, cfd_like
from .io import (
    load_rects,
    load_rects_npz,
    save_rects,
    save_rects_npz,
)
from .synthetic import REGION_MAX_SIDE, synthetic_point, synthetic_region
from .tiger import TIGER_SIZE, tiger_like

__all__ = [
    "Airfoil",
    "CFD_SIZE",
    "REGION_MAX_SIDE",
    "TIGER_SIZE",
    "WING_ELEMENTS",
    "cfd_like",
    "load_rects",
    "load_rects_npz",
    "save_rects",
    "save_rects_npz",
    "synthetic_point",
    "synthetic_region",
    "tiger_like",
]
