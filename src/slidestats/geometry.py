"""Point sets, metrics, and the distance extractions the statistics consume.

A point set either carries Euclidean coordinates or arbitrary elements with a
user metric.  Euclidean nearest neighbours come from a sort in one dimension
and from a k-d tree otherwise; the tests hold the tree to an all-pairs scan.
Duplicate detection is exact coordinate equality, surfacing as a zero
distance, never an epsilon test.

:class:`DescendingDistances` is the one place a distance sequence is sorted
and validated; the statistics reach it through :func:`as_descending`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Sequence

import numpy as np
from scipy.spatial import cKDTree
from scipy.spatial.distance import pdist

from .errors import DuplicatePointError

__all__ = [
    "DescendingDistances",
    "PointSet",
    "as_descending",
    "consecutive_gaps",
    "nn_distances",
    "pairwise_distances",
]

_ORIGINS = ("nearest_neighbor", "pairwise", "raw")

PAIRWISE_CAP = 5000


@dataclass(eq=False)
class DescendingDistances:
    """A finite multiset of distances stored in non-increasing order.

    ``origin`` records how the values were extracted.  Nearest-neighbour and
    pairwise extractions guarantee strictly positive values; ``raw`` permits
    zeros (needed by the level statistics, where duplicate points are legal).
    """

    values: np.ndarray
    origin: str = "raw"

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 1 or values.size == 0:
            raise ValueError("distances must form a nonempty 1-d array")
        if not np.all(np.isfinite(values)):
            raise ValueError("distances must be finite")
        if np.any(values < 0.0):
            raise ValueError("distances must be nonnegative")
        if np.any(np.diff(values) > 0.0):
            raise ValueError("distances must be in non-increasing order")
        if self.origin not in _ORIGINS:
            raise ValueError(f"unknown origin {self.origin!r}")
        if self.origin != "raw" and values[-1] <= 0.0:
            raise DuplicatePointError(
                f"{self.origin} distances must be strictly positive"
            )
        self.values = values

    @classmethod
    def from_values(cls, values: Any, origin: str = "raw") -> "DescendingDistances":
        """Sort ``values`` into non-increasing order and wrap them."""
        values = np.sort(np.asarray(values, dtype=float))[::-1]
        return cls(values.copy(), origin)

    def __len__(self) -> int:
        return int(self.values.size)


def as_descending(
    distances: Any, *, min_size: int = 1, positive: bool = False
) -> DescendingDistances:
    """``distances`` as a validated :class:`DescendingDistances`.

    An existing instance passes through untouched; anything else is sorted
    and checked by :meth:`DescendingDistances.from_values`.  ``min_size`` and
    ``positive`` (every distance strictly above zero) are the caller's own
    rules.  Every violation raises :class:`ValueError`.
    """
    if not isinstance(distances, DescendingDistances):
        distances = DescendingDistances.from_values(distances)
    if len(distances) < min_size:
        raise ValueError(f"at least {min_size} distances are required")
    if positive and distances.values[-1] <= 0.0:
        raise ValueError("distances must be strictly positive")
    return distances


class PointSet:
    """A finite sequence of points in a metric space.

    Use :meth:`from_coords` for Euclidean data (rows are points) and
    :meth:`from_elements` for arbitrary elements with a metric callable.
    A callable metric is spot checked for symmetry, nonnegativity, and
    ``d(a, a) = 0`` on a deterministic sample of pairs at construction.
    """

    def __init__(
        self,
        coords: np.ndarray | None,
        elements: Sequence[Any] | None,
        metric: str | Callable[[Any, Any], float],
    ) -> None:
        self.coords = coords
        self.elements = elements
        self.metric = metric
        if callable(metric):
            self._spot_check_metric()
        elif metric != "euclidean":
            raise ValueError(f"unknown metric {metric!r}")

    @classmethod
    def from_coords(
        cls,
        coords: Any,
        metric: str | Callable[[Any, Any], float] = "euclidean",
    ) -> "PointSet":
        coords = np.asarray(coords, dtype=float)
        if coords.ndim == 1:
            coords = coords[:, None]
        if coords.ndim != 2 or coords.shape[0] == 0:
            raise ValueError("coords must be a nonempty (k, m) array")
        if not np.all(np.isfinite(coords)):
            raise ValueError("coords must be finite")
        return cls(coords, None, metric)

    @classmethod
    def from_elements(
        cls, elements: Sequence[Any], metric: Callable[[Any, Any], float]
    ) -> "PointSet":
        if len(elements) == 0:
            raise ValueError("elements must be nonempty")
        if not callable(metric):
            raise ValueError("a metric callable is required for raw elements")
        return cls(None, list(elements), metric)

    def __len__(self) -> int:
        if self.coords is not None:
            return int(self.coords.shape[0])
        return len(self.elements)

    @property
    def dimension(self) -> int | None:
        """Coordinate dimension, or None for raw elements."""
        if self.coords is not None:
            return int(self.coords.shape[1])
        return None

    def _items(self) -> Sequence[Any]:
        if self.elements is not None:
            return self.elements
        return self.coords

    def _spot_check_metric(self) -> None:
        items = self._items()
        k = len(items)
        idx = sorted({0, k // 3, k // 2, (2 * k) // 3, k - 1})
        for i in idx:
            if self.metric(items[i], items[i]) != 0.0:
                raise ValueError("metric spot check failed: d(a, a) != 0")
        for a_pos, i in enumerate(idx):
            for j in idx[a_pos + 1 :]:
                forward = self.metric(items[i], items[j])
                backward = self.metric(items[j], items[i])
                if forward < 0.0 or backward < 0.0:
                    raise ValueError("metric spot check failed: negative distance")
                if abs(forward - backward) > 1e-12 * (1.0 + abs(forward)):
                    raise ValueError("metric spot check failed: asymmetric")


def _nn_metric_scan(items: Sequence[Any], metric: Callable[[Any, Any], float]) -> np.ndarray:
    k = len(items)
    best = np.full(k, np.inf)
    for i in range(k):
        for j in range(i + 1, k):
            d = metric(items[i], items[j])
            if d < best[i]:
                best[i] = d
            if d < best[j]:
                best[j] = d
    return best


def _nn_euclidean_1d(coords: np.ndarray) -> np.ndarray:
    x = np.sort(coords[:, 0])
    gaps = np.diff(x)
    left = np.concatenate(([np.inf], gaps))
    right = np.concatenate((gaps, [np.inf]))
    return np.minimum(left, right)


def _nn_euclidean_tree(coords: np.ndarray) -> np.ndarray:
    tree = cKDTree(coords)
    dist, _ = tree.query(coords, k=2, workers=-1)
    return dist[:, 1]


def nn_distances(
    points: PointSet, allow_duplicates: bool = False
) -> DescendingDistances:
    """Distance from every point to its nearest other point, sorted descending.

    Parameters
    ----------
    points : PointSet
        At least two points.
    allow_duplicates : bool
        When False (the default) a zero nearest-neighbour distance raises
        :class:`DuplicatePointError`.  When True zeros pass through and the
        result is tagged ``origin="raw"``; the level statistics use this.

    Euclidean sets in one dimension are sorted; in two or more dimensions
    every point queries one k-d tree.  A callable metric is scanned over all
    pairs.
    """
    k = len(points)
    if k < 2:
        raise ValueError("nearest-neighbour distances need at least 2 points")
    if callable(points.metric):
        nearest = _nn_metric_scan(points._items(), points.metric)
    elif points.coords.shape[1] == 1:
        nearest = _nn_euclidean_1d(points.coords)
    else:
        nearest = _nn_euclidean_tree(points.coords)
    if not allow_duplicates and np.any(nearest == 0.0):
        raise DuplicatePointError(
            "point set contains coinciding points; nearest-neighbour "
            "distances require distinct points"
        )
    origin = "raw" if allow_duplicates else "nearest_neighbor"
    return DescendingDistances.from_values(nearest, origin)


def pairwise_distances(
    points: PointSet, max_points: int = PAIRWISE_CAP
) -> DescendingDistances:
    """All k(k-1)/2 distances between distinct pairs, sorted descending.

    ``max_points`` caps the quadratic blowup; pass a larger value to override.
    Coinciding points raise :class:`DuplicatePointError`.
    """
    k = len(points)
    if k < 2:
        raise ValueError("pairwise distances need at least 2 points")
    if k > max_points:
        raise ValueError(
            f"pairwise extraction of {k} points exceeds the cap of "
            f"{max_points}; raise max_points to override"
        )
    if callable(points.metric):
        items = points._items()
        out = np.empty(k * (k - 1) // 2)
        pos = 0
        for i in range(k):
            for j in range(i + 1, k):
                out[pos] = points.metric(items[i], items[j])
                pos += 1
    else:
        out = pdist(points.coords)
    if np.any(out == 0.0):
        raise DuplicatePointError(
            "point set contains coinciding points; pairwise distances "
            "require distinct points"
        )
    return DescendingDistances.from_values(out, "pairwise")


def consecutive_gaps(points: PointSet) -> DescendingDistances:
    """Gaps between consecutive values of a 1-d point set, sorted descending.

    An opt-in alternative to nearest-neighbour extraction for ordered data
    such as integer sequences.  Requires 1-d Euclidean coordinates and at
    least three points so that at least two gaps exist.
    """
    if callable(points.metric) or points.coords.shape[1] != 1:
        raise ValueError("consecutive gaps require 1-d Euclidean coordinates")
    if len(points) < 3:
        raise ValueError("consecutive gaps need at least 3 points")
    gaps = np.diff(np.sort(points.coords[:, 0]))
    if np.any(gaps == 0.0):
        raise DuplicatePointError("coinciding points leave a zero gap")
    return DescendingDistances.from_values(gaps)
