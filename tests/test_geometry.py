"""Point sets and distance extraction."""

import numpy as np
import pytest
from scipy.spatial.distance import cdist

from slidestats import (
    DescendingDistances,
    DuplicatePointError,
    PointSet,
    consecutive_gaps,
    nn_distances,
    pairwise_distances,
)


def euclidean(a, b):
    return float(np.linalg.norm(np.asarray(a) - np.asarray(b)))


def brute_force_nn(coords):
    """Reference nearest-neighbour distances from the full distance matrix."""
    dist = cdist(coords, coords)
    np.fill_diagonal(dist, np.inf)
    return dist.min(axis=1)


class TestDescendingDistances:
    def test_validation(self):
        with pytest.raises(ValueError):
            DescendingDistances(np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            DescendingDistances(np.array([1.0, -1.0]))
        with pytest.raises(ValueError):
            DescendingDistances(np.array([[1.0], [0.5]]))
        with pytest.raises(ValueError):
            DescendingDistances(np.array([1.0, np.nan]))
        with pytest.raises(ValueError):
            DescendingDistances(np.array([2.0, 1.0]), origin="sorted")

    def test_positive_origins_reject_zero(self):
        with pytest.raises(DuplicatePointError):
            DescendingDistances(np.array([1.0, 0.0]), origin="nearest_neighbor")
        with pytest.raises(DuplicatePointError):
            DescendingDistances(np.array([1.0, 0.0]), origin="pairwise")
        raw = DescendingDistances(np.array([1.0, 0.0]), origin="raw")
        assert raw.values[-1] == 0.0

    def test_from_values_sorts(self):
        d = DescendingDistances.from_values([0.5, 3.0, 1.0])
        assert list(d.values) == [3.0, 1.0, 0.5]
        assert len(d) == 3


class TestPointSet:
    def test_one_dimension_promoted(self):
        points = PointSet.from_coords([1.0, 2.0, 4.0])
        assert points.coords.shape == (3, 1)
        assert points.dimension == 1
        assert len(points) == 3

    def test_validation(self):
        with pytest.raises(ValueError):
            PointSet.from_coords(np.empty((0, 2)))
        with pytest.raises(ValueError):
            PointSet.from_coords([[np.inf, 0.0]])
        with pytest.raises(ValueError):
            PointSet.from_coords([[0.0, 1.0]], metric="manhattan")

    def test_elements_need_callable(self):
        with pytest.raises(ValueError):
            PointSet.from_elements(["a", "b"], metric="euclidean")
        with pytest.raises(ValueError):
            PointSet.from_elements([], metric=euclidean)

    def test_metric_spot_check(self):
        with pytest.raises(ValueError):
            PointSet.from_elements([0.0, 1.0, 2.0], metric=lambda a, b: a - b)
        with pytest.raises(ValueError):
            PointSet.from_elements([0.0, 1.0, 2.0], metric=lambda a, b: abs(a - b) + 1.0)
        asym = lambda a, b: abs(a - b) * (1.1 if a < b else 1.0)
        with pytest.raises(ValueError):
            PointSet.from_elements([0.0, 1.0, 2.0], metric=asym)


class TestNearestNeighbor:
    def test_hand_example(self):
        points = PointSet.from_coords([0.0, 1.0, 3.0, 7.0])
        d = nn_distances(points)
        assert d.origin == "nearest_neighbor"
        assert list(d.values) == [4.0, 2.0, 1.0, 1.0]

    def test_paths_agree(self, rng):
        for m in (1, 2, 3):
            coords = rng.random((157, m))
            points = PointSet.from_coords(coords)
            brute = np.sort(brute_force_nn(coords))
            joined = np.sort(nn_distances(points).values)
            scan = np.sort(
                nn_distances(
                    PointSet.from_elements(list(coords), metric=euclidean)
                ).values
            )
            assert joined[::-1] == pytest.approx(brute[::-1], rel=1e-12)
            assert scan == pytest.approx(brute, rel=1e-9)

    @pytest.mark.parametrize("m", [2, 3])
    @pytest.mark.parametrize("k", [157, 2000, 2001])
    def test_tree_matches_brute_force(self, rng, k, m):
        coords = rng.random((k, m))
        reference = np.sort(brute_force_nn(coords))[::-1]
        assert nn_distances(PointSet.from_coords(coords)).values == pytest.approx(
            reference, rel=1e-12
        )

    def test_duplicates(self):
        points = PointSet.from_coords([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]])
        with pytest.raises(DuplicatePointError):
            nn_distances(points)
        d = nn_distances(points, allow_duplicates=True)
        assert d.origin == "raw"
        assert list(d.values) == [1.0, 0.0, 0.0]

    def test_needs_two_points(self):
        with pytest.raises(ValueError):
            nn_distances(PointSet.from_coords([[0.0]]))

    def test_scaling(self, rng):
        coords = rng.random((200, 3))
        base = nn_distances(PointSet.from_coords(coords)).values
        scaled = nn_distances(PointSet.from_coords(coords * 37.5)).values
        assert scaled == pytest.approx(37.5 * base, rel=1e-12)


class TestPairwise:
    def test_hand_example(self):
        points = PointSet.from_coords([0.0, 1.0, 3.0])
        d = pairwise_distances(points)
        assert d.origin == "pairwise"
        assert list(d.values) == [3.0, 2.0, 1.0]

    def test_count(self, rng):
        points = PointSet.from_coords(rng.random((40, 2)))
        assert len(pairwise_distances(points)) == 40 * 39 // 2

    def test_metric_matches_pdist(self, rng):
        coords = rng.random((30, 2))
        fast = pairwise_distances(PointSet.from_coords(coords)).values
        slow = pairwise_distances(
            PointSet.from_elements(list(coords), metric=euclidean)
        ).values
        assert fast == pytest.approx(slow, rel=1e-9)

    def test_cap(self, rng):
        points = PointSet.from_coords(rng.random((12, 1)))
        with pytest.raises(ValueError):
            pairwise_distances(points, max_points=10)
        assert len(pairwise_distances(points, max_points=12)) == 66

    def test_duplicates_always_rejected(self):
        points = PointSet.from_coords([[0.0], [0.0], [1.0]])
        with pytest.raises(DuplicatePointError):
            pairwise_distances(points)


class TestConsecutiveGaps:
    def test_sorted_gaps(self):
        points = PointSet.from_coords([5.0, 1.0, 2.0, 9.0])
        d = consecutive_gaps(points)
        assert d.origin == "raw"
        assert list(d.values) == [4.0, 3.0, 1.0]

    def test_needs_one_dimension(self):
        with pytest.raises(ValueError):
            consecutive_gaps(PointSet.from_coords([[0.0, 0.0], [1.0, 1.0], [2.0, 0.5]]))

    def test_duplicates_rejected(self):
        with pytest.raises(DuplicatePointError):
            consecutive_gaps(PointSet.from_coords([1.0, 1.0, 2.0]))

    def test_needs_three_points(self):
        with pytest.raises(ValueError):
            consecutive_gaps(PointSet.from_coords([1.0, 2.0]))
