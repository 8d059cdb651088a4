"""Working memory of the distance kernels, and the scope of the rank weights.

Every extraction and kernel holds at most two arrays of ``n`` floats beyond
its input; the oracle's slide curve holds three (its weights, the logs and
one work buffer).  tracemalloc measures each stage's peak on 2·10^5
distances.  Outside :func:`shared_rank_weights` no rank weights outlive the
call that built them.
"""

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
from slidestats import slide_stats
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


@pytest.fixture(scope="module")
def points():
    return PointSet.from_coords(np.random.default_rng(0).random((N, 1)))


@pytest.fixture(scope="module")
def distances(points):
    return nn_distances(points)


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


STAGES = {
    "nn_1d": (lambda points, d: nn_distances(points), 2),
    "weights": (lambda points, d: _rank_weights(N), 2),
    "closed_forms_1_2": (lambda points, d: _closed_forms(d, 2), 2),
    "closed_forms_1_4": (lambda points, d: _closed_forms(d, 4), 2),
    "level": (lambda points, d: level_derivatives(d, 4), 2),
    "oracle_curve": (lambda points, d: evaluate_curve(d), 3),
}


@pytest.mark.parametrize("stage", STAGES)
def test_stage_peak_is_bounded(points, distances, stage):
    run, arrays = STAGES[stage]
    assert peak_bytes(lambda: run(points, distances)) <= arrays * ARRAY + SLACK


def record_builds(monkeypatch):
    """Weak references to every rank-weight array built from now on, by size."""
    built = []
    original = slide_stats._build_rank_weights

    def recording(n):
        weights = original(n)
        built.append((n, weakref.ref(weights)))
        return weights

    monkeypatch.setattr(slide_stats, "_build_rank_weights", recording)
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
