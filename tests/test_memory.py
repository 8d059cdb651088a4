"""Working memory of the distance kernels, and the scope of the rank weights.

Every extraction and kernel holds at most two arrays of ``n`` floats beyond
its input.  The k-d tree extraction of 2-D and 3-D points adds one query
block: the copy of its points, their distances and their indices (the
tree's nodes are allocated in C++, which tracemalloc does not see).  The
oracle's slide curve holds two (the logs and one work buffer) once the rank
weights are shared, and builds the weights as a third outside that scope.
tracemalloc measures each stage's peak on 2·10^5 points or distances.
Outside :func:`shared_rank_weights` no rank weights outlive the call that
built them.
"""

import inspect
import tracemalloc
import weakref

import numpy as np
import pytest

from slidestats import (
    PointSet,
    assembly_numbers,
    level_numbers,
    nn_distances,
    point_statistics,
    slide_numbers,
)
from slidestats import geometry
from slidestats.corner_density import _slide_curve
from slidestats.slide_stats import (
    _closed_forms,
    _rank_weights,
    level_derivatives,
    shared_rank_weights,
)

N = 200_000
ARRAY = 8 * N
# Array headers and small Python objects; a small fraction of one array.
SLACK = 64 * 1024


def query_block(m):
    """Bytes of one k-d tree query block of m-dimensional points.

    The block's copy of its points, and its distances and int64 indices.
    """
    return (m + 2) * 8 * geometry._QUERY_BLOCK


@pytest.fixture(scope="module")
def points():
    """Uniform point sets of N points, by dimension."""
    rng = np.random.default_rng(0)
    return {m: PointSet.from_coords(rng.random((N, m))) for m in (1, 2, 3)}


@pytest.fixture(scope="module")
def distances(points):
    return nn_distances(points[1])


def peak_bytes(stage):
    """Peak of the memory that ``stage()`` allocates, its result included."""
    tracemalloc.start()
    try:
        stage()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def evaluate_curve(d):
    curve = _slide_curve(d.values)
    for t in (1e-3, 0.5, 4.0):  # both summation branches
        curve(t)


# Each stage with its bound in bytes beyond SLACK.
STAGES = {
    "nn_1d": (lambda points, d: nn_distances(points[1]), 2 * ARRAY),
    "nn_2d": (lambda points, d: nn_distances(points[2]), 2 * ARRAY + query_block(2)),
    "nn_3d": (lambda points, d: nn_distances(points[3]), 2 * ARRAY + query_block(3)),
    "weights": (lambda points, d: _rank_weights(N), 2 * ARRAY),
    "closed_forms_1_2": (lambda points, d: _closed_forms(d, 2), 2 * ARRAY),
    "closed_forms_1_4": (lambda points, d: _closed_forms(d, 4), 2 * ARRAY),
    "level": (lambda points, d: level_derivatives(d, 4), 2 * ARRAY),
    "oracle_curve": (lambda points, d: evaluate_curve(d), 3 * ARRAY),
}


@pytest.mark.parametrize("stage", STAGES)
def test_stage_peak_is_bounded(points, distances, stage):
    run, bound = STAGES[stage]
    assert peak_bytes(lambda: run(points, distances)) <= bound + SLACK


def test_oracle_curve_with_shared_weights_holds_two_arrays(distances):
    with shared_rank_weights():
        _rank_weights(N)
        peak = peak_bytes(lambda: evaluate_curve(distances))
    assert peak <= 2 * ARRAY + SLACK


def test_curve_shares_the_closed_forms_weights(distances):
    with shared_rank_weights():
        _closed_forms(distances, 2)
        curve = _slide_curve(distances.values)
        weights = inspect.getclosurevars(curve).nonlocals["weights"]
        assert weights is _rank_weights(N)


def record_builds(monkeypatch):
    """Weak references to every rank-weight array built from now on, by size."""
    built = []
    original = geometry._build_rank_weights

    def recording(n):
        weights = original(n)
        built.append((n, weakref.ref(weights)))
        return weights

    monkeypatch.setattr(geometry, "_build_rank_weights", recording)
    return built


@pytest.mark.parametrize(
    "call",
    [
        slide_numbers,
        assembly_numbers,
        level_numbers,
        lambda p: point_statistics(p, {"slide": (1, 2), "assembly": (1,), "level": (2,)}),
    ],
    ids=["slide", "assembly", "level", "point_statistics"],
)
def test_direct_call_keeps_no_weights(rng, monkeypatch, call):
    built = record_builds(monkeypatch)
    call(PointSet.from_coords(rng.random((50, 2))))
    assert built and all(ref() is None for _, ref in built)


def test_one_call_builds_each_size_once(rng, monkeypatch):
    built = record_builds(monkeypatch)
    points = PointSet.from_coords(rng.random((50, 2)))
    point_statistics(points, {"slide": (1, 2), "assembly": (1,), "level": (1, 2)})
    assert sorted(n for n, _ in built) == [50, 50 * 49 // 2]


def test_scopes_nest():
    with shared_rank_weights():
        outer = _rank_weights(5)
        with shared_rank_weights():
            assert _rank_weights(5) is outer
        assert _rank_weights(5) is outer
    assert _rank_weights(5) is not outer
