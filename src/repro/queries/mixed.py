"""Probabilistic mixtures of query workloads.

Real applications rarely issue a single query shape: a GIS session
mixes point lookups with pans and zooms of several sizes.  A
:class:`MixedWorkload` draws each query from one of several component
workloads with fixed probabilities.

The analytic side is exact: if a query comes from component ``i`` with
probability ``w_i``, the probability that it touches node ``R`` is
``Σ_i w_i · A^Q_i(R)``, so every buffer-model formula applies
unchanged.  The simulation side cannot use a single transformed
rectangle set (each component transforms the node MBRs differently),
so the simulator special-cases mixtures: it assigns a component to
each query and tests each against its component's transformed rects,
preserving the query order seen by the buffer.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from ..geometry import GeometryError, RectArray
from .workloads import QueryWorkload

__all__ = ["MixedWorkload"]


class MixedWorkload(QueryWorkload):
    """A weighted mixture of query workloads.

    Parameters
    ----------
    components:
        ``(weight, workload)`` pairs; weights must be positive and are
        normalised to sum to 1.  All components must share one
        dimensionality.

    Examples
    --------
    >>> from repro.queries import UniformPointWorkload, UniformRegionWorkload
    >>> w = MixedWorkload([
    ...     (0.8, UniformPointWorkload()),
    ...     (0.2, UniformRegionWorkload((0.1, 0.1))),
    ... ])
    """

    def __init__(
        self, components: Sequence[tuple[float, QueryWorkload]]
    ) -> None:
        if not components:
            raise GeometryError("a mixture needs at least one component")
        weights = np.array([w for w, _ in components], dtype=np.float64)
        if (weights <= 0).any():
            raise GeometryError("mixture weights must be positive")
        workloads = [wl for _, wl in components]
        dim = workloads[0].dim
        if any(wl.dim != dim for wl in workloads):
            raise GeometryError("mixture components must share dimensionality")
        # The nominal "extents" of a mixture are not meaningful; use
        # zeros of the right dimensionality to satisfy the base class.
        super().__init__((0.0,) * dim)
        self.weights = weights / weights.sum()
        self.workloads = tuple(workloads)

    @property
    def is_point(self) -> bool:
        """True only if every component issues point queries."""
        return all(wl.is_point for wl in self.workloads)

    # ------------------------------------------------------------------
    # Analytic view — exact by the law of total probability.
    # ------------------------------------------------------------------
    def access_probabilities(self, rects: RectArray) -> np.ndarray:
        total = np.zeros(len(rects), dtype=np.float64)
        for weight, workload in zip(self.weights, self.workloads):
            total += weight * workload.access_probabilities(rects)
        # The normalised weights sum to 1 only up to rounding, so a
        # node every component always touches can land one ulp above 1.
        return np.minimum(total, 1.0)

    # ------------------------------------------------------------------
    # Simulation view — the engine dispatches on these.
    # ------------------------------------------------------------------
    def transformed_rects(self, rects: RectArray) -> RectArray:
        raise NotImplementedError(
            "a mixture has no single point-test transform; the simulator "
            "uses per-component transforms via component_transforms()"
        )

    def sample_points(self, n: int, rng: np.random.Generator) -> np.ndarray:
        raise NotImplementedError(
            "mixtures are sampled per component; see sample_assignments()"
        )

    def component_transforms(self, rects: RectArray) -> list[RectArray]:
        """Transformed node MBRs, one array per component."""
        return [wl.transformed_rects(rects) for wl in self.workloads]

    def sample_assignments(
        self, n: int, rng: np.random.Generator
    ) -> np.ndarray:
        """Which component each of ``n`` queries is drawn from."""
        return rng.choice(len(self.workloads), size=n, p=self.weights)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        parts = ", ".join(
            f"{w:.2f}*{wl!r}" for w, wl in zip(self.weights, self.workloads)
        )
        return f"MixedWorkload({parts})"
