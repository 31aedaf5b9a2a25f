"""The paper's evaluation: one module per table/figure (see DESIGN.md)."""

from __future__ import annotations

from . import fig5, fig6, fig7, fig8, fig9, fig10, fig11, table1, table2
from .common import Table, get_dataset, get_description

__all__ = [
    "Table",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "fig10",
    "fig11",
    "get_dataset",
    "get_description",
    "table1",
    "table2",
]
