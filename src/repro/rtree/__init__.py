"""Dynamic R-tree, split heuristics, and tree descriptions."""

from __future__ import annotations

from .node import Node
from .split import SPLIT_FUNCTIONS, greene_split, linear_split, quadratic_split
from .stats import TreeDescription
from .tree import QueryResult, RTree
from .rstar import RStarTree, rstar_split
from .validate import InvariantViolation, check_tree

__all__ = [
    "InvariantViolation",
    "Node",
    "QueryResult",
    "RStarTree",
    "RTree",
    "SPLIT_FUNCTIONS",
    "TreeDescription",
    "check_tree",
    "greene_split",
    "linear_split",
    "quadratic_split",
    "rstar_split",
]
