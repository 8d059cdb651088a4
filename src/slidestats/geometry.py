"""Point sets, metrics, and the distance extractions the statistics consume.

A point set either carries Euclidean coordinates or arbitrary elements with a
user metric.  Euclidean nearest neighbours come from a sort in one dimension
and from a k-d tree otherwise; the tests hold the tree to an all-pairs scan.
Duplicate detection is exact coordinate equality, surfacing as a zero
distance, never an epsilon test.

:class:`DescendingDistances` is the one place a distance sequence is sorted
and validated; the statistics reach it through :func:`as_descending`.  Every
extraction sorts the array it has just made once, in place, into contiguous
non-increasing order, and then checks only its ends: NaN and -inf sort last
and +inf first, so the first and last values decide finiteness, sign and
zeros.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Sequence

import numpy as np
# Eager: forked pool workers inherit it; deferred, each k-d tree pool pays ~0.4 s.
from scipy.spatial import cKDTree
from scipy.spatial.distance import pdist

from .errors import DuplicatePointError

__all__ = [
    "DescendingDistances",
    "PointSet",
    "as_descending",
    "consecutive_gaps",
    "distinct_nearest",
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
        _check_shape(values)
        if not np.all(np.isfinite(values)):
            raise ValueError("distances must be finite")
        if np.any(values < 0.0):
            raise ValueError("distances must be nonnegative")
        if np.any(np.diff(values) > 0.0):
            raise ValueError("distances must be in non-increasing order")
        self.values = values
        self._check_origin()

    def _check_origin(self) -> None:
        if self.origin not in _ORIGINS:
            raise ValueError(f"unknown origin {self.origin!r}")
        if self.origin != "raw" and self.values[-1] <= 0.0:
            raise DuplicatePointError(
                f"{self.origin} distances must be strictly positive"
            )

    @classmethod
    def from_values(cls, values: Any, origin: str = "raw") -> "DescendingDistances":
        """Sort ``values`` into non-increasing order and wrap them.

        ``values`` is copied exactly once and never modified; the copy is
        sorted in place and checked at its ends, with the same errors as
        direct construction.
        """
        return cls._from_owned(np.array(values, dtype=float), origin)

    @classmethod
    def _from_owned(
        cls, values: np.ndarray, origin: str, duplicate_error: str | None = None
    ) -> "DescendingDistances":
        """Sort ``values``, a float array no caller holds, in place and wrap it.

        Sorting the negated values keeps the result contiguous: numpy's
        ``log`` rounds strided input differently from contiguous input, so a
        reversed view of an ascending sort would not give bit-identical
        statistics.  After the sort +inf comes first and -inf and NaN last,
        so the ends alone decide what ``__post_init__`` scans the whole array
        for.  With ``duplicate_error`` a zero raises
        :class:`DuplicatePointError` with that message; only negative values
        and NaN sort after a zero, so a positive last value rules zeros out
        without a scan.
        """
        _check_shape(values)
        np.negative(values, out=values)
        values.sort()
        np.negative(values, out=values)
        if duplicate_error and not values[-1] > 0.0 and np.any(values == 0.0):
            raise DuplicatePointError(duplicate_error)
        if not (np.isfinite(values[0]) and np.isfinite(values[-1])):
            raise ValueError("distances must be finite")
        if values[-1] < 0.0:
            raise ValueError("distances must be nonnegative")
        return cls._checked(values, origin)

    @classmethod
    def _checked(cls, values: np.ndarray, origin: str) -> "DescendingDistances":
        """Wrap sorted, finite, nonnegative ``values`` after the origin check."""
        out = cls.__new__(cls)
        out.values = values
        out.origin = origin
        out._check_origin()
        return out

    def __len__(self) -> int:
        return int(self.values.size)


def _check_shape(values: np.ndarray) -> None:
    if values.ndim != 1 or values.size == 0:
        raise ValueError("distances must form a nonempty 1-d array")


def as_descending(
    distances: Any, *, min_size: int = 1, positive: bool = False
) -> DescendingDistances:
    """``distances`` as a validated :class:`DescendingDistances`.

    An existing instance passes through untouched; anything else is sorted
    and checked by :meth:`DescendingDistances.from_values`, which copies it
    once and leaves the caller's sequence as it was.  ``min_size`` and
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
    # Without compact_nodes the build skips shrinking each node's box to its
    # points, which costs more than it saves in a single query pass.  Querying
    # in the tree's own leaf order keeps consecutive queries on the same nodes;
    # the result stays in that order, since callers sort it.
    tree = cKDTree(coords, compact_nodes=False)
    dist, _ = tree.query(coords[tree.indices], k=[2], workers=-1)
    return dist[:, 0]


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
    every point queries one k-d tree, visiting the points in the tree's own
    order, which is faster than input order and gives the same sorted
    values.  A callable metric is scanned over all pairs.
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
    raw = DescendingDistances._from_owned(nearest, "raw")
    return raw if allow_duplicates else distinct_nearest(raw)


def distinct_nearest(raw: DescendingDistances) -> DescendingDistances:
    """Raw nearest-neighbour distances as distinct-point ones, sharing the array.

    A zero distance raises :class:`DuplicatePointError`.  The statistics
    that need distinct points and those that allow duplicates can so share
    one extraction.
    """
    if not raw.values[-1] > 0.0:
        raise DuplicatePointError(
            "point set contains coinciding points; nearest-neighbour "
            "distances require distinct points"
        )
    return DescendingDistances._checked(raw.values, "nearest_neighbor")


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
    return DescendingDistances._from_owned(
        out,
        "pairwise",
        "point set contains coinciding points; pairwise distances "
        "require distinct points",
    )


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
    return DescendingDistances._from_owned(
        gaps, "raw", "coinciding points leave a zero gap"
    )
