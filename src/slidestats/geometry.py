"""Point sets, metrics, and the distance extractions the statistics consume.

A point set either carries Euclidean coordinates or arbitrary elements with a
user metric.  Euclidean nearest neighbours come from a sort in one dimension
and from a k-d tree otherwise; the tests hold the tree to an all-pairs scan.
Duplicate detection is exact coordinate equality, surfacing as a zero
distance, never an epsilon test.

:class:`DescendingDistances` is the one place a distance sequence is sorted
and validated, and its constructor is the one way to build it from a
sequence: ``DescendingDistances(values)`` copies the values once and sorts
the copy.  The statistics reach it through :func:`as_descending`, which adds
each consumer's own size and positivity rules.  An extraction skips the copy:
it sorts the array it has just made in place.  Either way the sorted array
is contiguous and non-increasing, and only its ends are checked: NaN and
-inf sort last and +inf first, so the first and last values decide
finiteness, sign and zeros.

The rank weights ``c_r`` of a sequence of ``n`` distances depend on ``n``
alone.  :func:`_rank_weights` is their one builder, read by the closed
forms, the level numbers and the oracle's slide curve.

One run scope, held in one context variable, carries what a run shares
between its calls: the rank weights by size, kept inside
:func:`shared_rank_weights`, and the thread count of the k-d tree queries.
That count is -1, one thread per CPU, except in the pool tasks of
:func:`slidestats.harness.run_experiment`: each runs in a copy of the run's
context made by :func:`_pool_task_context`, which shares the weights and
queries on one thread, so the pool's ``workers`` is the run's whole thread
budget.

scipy is loaded only where it is used: :func:`load_spatial` imports
``scipy.spatial`` on the first k-d tree or Euclidean ``pdist``, so the 1-d
sort, the callable-metric scans and the rest of the package never load it.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from contextvars import Context, ContextVar, copy_context
from typing import Any, Callable, Iterator, NamedTuple, Sequence

import numpy as np

from .errors import DuplicatePointError

__all__ = [
    "DescendingDistances",
    "PointSet",
    "as_descending",
    "consecutive_gaps",
    "distinct_nearest",
    "load_spatial",
    "nn_distances",
    "pairwise_distances",
    "shared_rank_weights",
]

PAIRWISE_CAP = 5000

# The kernels over n distances run in blocks of this many values, so the
# memory they take beyond their input and one array of rank weights does not
# grow with n, and each block's buffers stay in cache between passes.
_BLOCK = 1 << 14

# Points per k-d tree query.  Each query on more than one thread starts its
# own threads: on a 2-vCPU host, blocks of 2^14 points made the extraction of
# 3·10^5 points 20% slower than one query, blocks of 2^16 under 2%.
_QUERY_BLOCK = 1 << 16


class DescendingDistances:
    """A finite multiset of distances stored in non-increasing order.

    ``DescendingDistances(values)`` copies ``values`` once into a float array
    and sorts the copy; the caller's sequence is never modified.  The values
    must form a nonempty 1-d sequence of finite, nonnegative numbers; zeros
    are legal here, and each consumer states through :func:`as_descending`
    whether it needs them strictly positive.
    """

    def __init__(self, values: Any) -> None:
        self.values = _sorted_in_place(np.array(values, dtype=float))

    @classmethod
    def _from_owned(
        cls, values: np.ndarray, duplicate_error: str | None = None
    ) -> "DescendingDistances":
        """Wrap ``values``, a float array no caller holds, sorting it in place.

        With ``duplicate_error`` a zero anywhere, even behind a NaN, raises
        :class:`DuplicatePointError` with that message.
        """
        out = cls.__new__(cls)
        out.values = _sorted_in_place(values, duplicate_error)
        return out

    def __len__(self) -> int:
        return int(self.values.size)


def _sorted_in_place(
    values: np.ndarray, duplicate_error: str | None = None
) -> np.ndarray:
    """Sort ``values`` in place into non-increasing order and check its ends.

    Sorting the negated values keeps the result contiguous: numpy's ``log``
    rounds strided input differently from contiguous input, so a reversed
    view of an ascending sort would not give bit-identical statistics.
    After the sort +inf comes first and -inf and NaN last, so the two ends
    decide finiteness and sign without a scan.  Only negative values and NaN
    sort after a zero, so a positive last value rules zeros out; otherwise
    ``duplicate_error`` costs one scan.
    """
    if values.ndim != 1 or values.size == 0:
        raise ValueError("distances must form a nonempty 1-d array")
    np.negative(values, out=values)
    values.sort()
    np.negative(values, out=values)
    if duplicate_error and not values[-1] > 0.0 and np.any(values == 0.0):
        raise DuplicatePointError(duplicate_error)
    if not (np.isfinite(values[0]) and np.isfinite(values[-1])):
        raise ValueError("distances must be finite")
    if values[-1] < 0.0:
        raise ValueError("distances must be nonnegative")
    return values


def as_descending(
    distances: Any, *, min_size: int = 1, positive: bool = False
) -> DescendingDistances:
    """``distances`` as a validated :class:`DescendingDistances`.

    An existing instance passes through untouched; anything else goes
    through the constructor, which copies it once and leaves the caller's
    sequence as it was.  ``min_size`` and ``positive`` (every distance
    strictly above zero) are the caller's own rules.  Every violation raises
    :class:`ValueError`.
    """
    if not isinstance(distances, DescendingDistances):
        distances = DescendingDistances(distances)
    if len(distances) < min_size:
        raise ValueError(f"at least {min_size} distances are required")
    if positive and distances.values[-1] <= 0.0:
        raise ValueError("distances must be strictly positive")
    return distances


class _RunScope(NamedTuple):
    """What the calls of one run share.

    ``weights`` maps each size to its rank weights, or is None outside
    :func:`shared_rank_weights`; ``query_workers`` is the ``workers``
    argument of every k-d tree query.
    """

    weights: dict[int, np.ndarray] | None
    query_workers: int


_RUN_SCOPE: ContextVar[_RunScope] = ContextVar(
    "run_scope", default=_RunScope(None, -1)
)


@contextmanager
def shared_rank_weights() -> Iterator[None]:
    """Within the block, build the rank weights once per size and share them.

    Every replicate of an experiment has the same distance counts, so
    :func:`slidestats.harness.run_experiment` runs its replicates inside one
    block.  The arrays are released when the outermost block exits; an inner
    block keeps the outer one's arrays.  A context copied inside the block
    (``contextvars.copy_context``) shares them too, which is how that
    function's pool tasks read them.
    """
    scope = _RUN_SCOPE.get()
    if scope.weights is not None:
        yield
        return
    token = _RUN_SCOPE.set(scope._replace(weights={}))
    try:
        yield
    finally:
        _RUN_SCOPE.reset(token)


def _pool_task_context() -> Context:
    """A copy of the current context for one task of a thread pool.

    The copy shares the current scope's rank weights, and its k-d tree
    queries run on one thread: the pool's threads are the whole budget.
    Setting the count in the copy leaves the caller's own scope, and any
    thread it starts itself, at one query thread per CPU.
    """
    context = copy_context()
    context.run(_RUN_SCOPE.set, _RUN_SCOPE.get()._replace(query_workers=1))
    return context


def _rank_weights(n: int) -> np.ndarray:
    """``c_r = ln(n) - r ln(r) + (r-1) ln(r-1)`` for ranks ``r = 1..n``, read-only.

    They decrease in ``r`` and sum to zero.  The closed forms, the level
    numbers and the oracle's slide curve all read them from here.  Inside
    :func:`shared_rank_weights` one array per size is built and every caller
    shares it; outside, each call builds its own, so nothing outlives the
    statistics that asked for it.  Threads that miss one size at the same
    time each build it, and all of them keep the array stored first; no
    thread builds a size twice.  The build writes block by block straight
    into the result, holding ``8 n`` bytes plus three buffers of at most
    ``_BLOCK + 1`` floats.
    """
    shared = _RUN_SCOPE.get().weights
    weights = None if shared is None else shared.get(n)
    if weights is None:
        weights = _build_rank_weights(n)
        if shared is not None:
            weights = shared.setdefault(n, weights)
    return weights


def _build_rank_weights(n: int) -> np.ndarray:
    weights = np.empty(n)
    log_n = math.log(n)
    size = min(n, _BLOCK) + 1
    offsets = np.arange(float(size))
    ranks = np.empty(size)
    g = np.empty(size)
    for lo in range(0, n, _BLOCK):
        hi = min(lo + _BLOCK, n)
        r, g_r = ranks[: hi - lo + 1], g[: hi - lo + 1]
        np.add(offsets[: r.size], lo, out=r)  # ranks lo..hi, exact in float
        if lo == 0:
            r[0] = 1.0  # so that g_0 = 1 ln(1) = 0
        np.log(r, out=g_r)
        np.multiply(g_r, r, out=g_r)  # g_r = r ln(r)
        block = weights[lo:hi]
        np.subtract(g_r[1:], g_r[:-1], out=block)
        np.subtract(log_n, block, out=block)
    weights.flags.writeable = False
    return weights


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
        if coords.ndim != 2 or coords.size == 0:
            raise ValueError("coords must be a nonempty (k, m) array with m >= 1")
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
    """Nearest-neighbour distances of 1-d points, in sorted-coordinate order.

    Holds two arrays: the sorted copy of the coordinates and their gaps.
    Each point's distance, the smaller gap beside it, is written over the
    sorted copy, which is returned.
    """
    x = np.sort(coords[:, 0])
    gaps = np.diff(x)
    x[0], x[-1] = gaps[0], gaps[-1]
    np.minimum(gaps[:-1], gaps[1:], out=x[1:-1])
    return x


def load_spatial() -> Any:
    """``scipy.spatial``, imported on the first call.

    Importing it takes about 0.4 s, most of the package's import time, and
    only the k-d tree and Euclidean pairwise extractions need it.
    """
    import scipy.spatial.distance

    return scipy.spatial


def _nn_euclidean_tree(coords: np.ndarray) -> np.ndarray:
    # Without compact_nodes the build skips shrinking each node's box to its
    # points, which costs more than it saves in a single query pass.  Querying
    # in the tree's own leaf order keeps consecutive queries on the same nodes;
    # the result stays in that order, since callers sort it.  The points are
    # queried _QUERY_BLOCK at a time into one result, so beyond it and the
    # tree's index array only one block's copy of the points, its distances
    # and its indices are held, and they die with the statement.
    workers = _RUN_SCOPE.get().query_workers
    tree = load_spatial().cKDTree(coords, compact_nodes=False)
    n = coords.shape[0]
    nearest = np.empty(n)
    for lo in range(0, n, _QUERY_BLOCK):
        hi = min(lo + _QUERY_BLOCK, n)
        block = tree.indices[lo:hi]
        nearest[lo:hi] = tree.query(coords[block], k=[2], workers=workers)[0][:, 0]
    return nearest


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
        :class:`DuplicatePointError`.  When True zeros pass through; the
        level statistics use this.

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
    raw = DescendingDistances._from_owned(nearest)
    return raw if allow_duplicates else distinct_nearest(raw)


def distinct_nearest(raw: DescendingDistances) -> DescendingDistances:
    """``raw`` itself, once it is known to hold no zero distance.

    A zero nearest-neighbour distance raises :class:`DuplicatePointError`.
    The statistics that need distinct points and those that allow
    duplicates can so share one extraction.
    """
    if not raw.values[-1] > 0.0:
        raise DuplicatePointError(
            "point set contains coinciding points; nearest-neighbour "
            "distances require distinct points"
        )
    return raw


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
        out = load_spatial().distance.pdist(points.coords)
    return DescendingDistances._from_owned(
        out,
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
        gaps, "coinciding points leave a zero gap"
    )
