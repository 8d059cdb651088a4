"""Point sets and distance extraction."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree
from scipy.spatial.distance import cdist

from slidestats import (
    DescendingDistances,
    DuplicatePointError,
    PointSet,
    ProcessSpec,
    consecutive_gaps,
    generate,
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


def full_scan(values, duplicate_error=None):
    """Reference for the end checks: sort a copy, then scan every value."""
    values = np.asarray(values, dtype=float)
    if values.ndim != 1 or values.size == 0:
        raise ValueError("distances must form a nonempty 1-d array")
    if duplicate_error and np.any(values == 0.0):
        raise DuplicatePointError(duplicate_error)
    if not np.all(np.isfinite(values)):
        raise ValueError("distances must be finite")
    if np.any(values < 0.0):
        raise ValueError("distances must be nonnegative")
    return np.sort(values)[::-1].copy()


class TestDescendingDistances:
    def test_validation(self):
        with pytest.raises(ValueError):
            DescendingDistances(np.array([1.0, -1.0]))
        with pytest.raises(ValueError):
            DescendingDistances(np.array([[1.0], [0.5]]))
        with pytest.raises(ValueError):
            DescendingDistances(np.array([1.0, np.nan]))
        with_zero = DescendingDistances(np.array([0.0, 1.0]))
        assert list(with_zero.values) == [1.0, 0.0]

    def test_from_values_sorts(self):
        caller = np.array([0.5, 3.0, 1.0])
        d = DescendingDistances(caller)
        assert list(d.values) == [3.0, 1.0, 0.5]
        assert list(caller) == [0.5, 3.0, 1.0]
        assert not np.shares_memory(d.values, caller)
        assert len(d) == 3

    @settings(deadline=None, max_examples=100)
    @given(
        values=st.lists(
            st.one_of(
                st.just(0.0),
                st.sampled_from([1.0, 2.5, 1e-300, 1e300]),
                st.floats(1e-8, 1e8),
            ),
            min_size=1,
            max_size=60,
        ),
        as_array=st.booleans(),
    )
    def test_from_values_matches_copying_sort(self, values, as_array):
        given_values = np.array(values) if as_array else values
        before = np.array(values)
        d = DescendingDistances(given_values)
        expected = np.sort(np.asarray(values, dtype=float))[::-1].copy()
        assert d.values.flags.c_contiguous
        assert d.values.tobytes() == expected.tobytes()
        assert np.array_equal(d.values, expected)
        if as_array:
            assert given_values.tobytes() == before.tobytes()

    @settings(deadline=None, max_examples=150)
    @given(
        values=st.lists(
            st.sampled_from(
                [math.nan, math.inf, -math.inf, -0.5, -1e-300, 0.0, 1e-300, 0.5, 2.0]
            ),
            min_size=1,
            max_size=8,
        ),
        duplicate_error=st.sampled_from([None, "zero distance"]),
    )
    def test_from_values_errors_match_full_checks(self, values, duplicate_error):
        # The constructor and the extractions' copy-free path check only the
        # ends of the sorted array; they must agree with a scan of every value.
        def outcome(build):
            try:
                return build().tobytes()
            except (ValueError, DuplicatePointError) as exc:
                return type(exc), str(exc)

        expected = outcome(lambda: full_scan(values, duplicate_error))
        owned = np.array(values, dtype=float)
        assert outcome(
            lambda: DescendingDistances._from_owned(owned, duplicate_error).values
        ) == expected
        if duplicate_error is None:
            assert outcome(lambda: DescendingDistances(values).values) == expected

    @pytest.mark.parametrize(
        "bad, message",
        [
            ([math.nan, 2.0, 1.0], "distances must be finite"),
            ([2.0, math.nan, 1.0], "distances must be finite"),
            ([2.0, 1.0, math.nan], "distances must be finite"),
            ([math.inf, 1.0], "distances must be finite"),
            ([1.0, math.inf], "distances must be finite"),
            ([-math.inf, 1.0], "distances must be finite"),
            ([1.0, 2.0, -math.inf], "distances must be finite"),
            ([2.0, -0.5, 1.0], "distances must be nonnegative"),
            ([[2.0, 1.0], [0.5, 0.25]], "nonempty 1-d array"),
            ([], "nonempty 1-d array"),
        ],
    )
    def test_from_values_rejects_malformed(self, bad, message):
        caller = np.array(bad, dtype=float)
        before = caller.copy()
        for given_values in (bad, caller):
            with pytest.raises(ValueError, match=message):
                DescendingDistances(given_values)
        assert np.array_equal(caller, before, equal_nan=True)


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

    def test_zero_columns_rejected(self):
        with pytest.raises(ValueError, match="m >= 1"):
            PointSet.from_coords([[], [], []])
        with pytest.raises(ValueError, match="m >= 1"):
            PointSet.from_coords(np.empty((4, 0)))

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
        assert list(d.values) == [1.0, 0.0, 0.0]

    def test_needs_two_points(self):
        with pytest.raises(ValueError):
            nn_distances(PointSet.from_coords([[0.0]]))

    def test_scaling(self, rng):
        coords = rng.random((200, 3))
        base = nn_distances(PointSet.from_coords(coords)).values
        scaled = nn_distances(PointSet.from_coords(coords * 37.5)).values
        assert scaled == pytest.approx(37.5 * base, rel=1e-12)


class TestTreeOrderQuery:
    """The tree is queried in its own order; the sorted values must not move."""

    @staticmethod
    def assert_bitwise(points, reference, allow_duplicates=False):
        got = nn_distances(points, allow_duplicates=allow_duplicates).values
        assert np.array_equal(got, np.sort(reference)[::-1])

    def test_sierpinski(self):
        points = generate(ProcessSpec("sierpinski", seed=5), 2000)
        self.assert_bitwise(points, brute_force_nn(points.coords))

    def test_lattice_ties(self):
        grid = np.indices((40, 50)).reshape(2, -1).T.astype(float)
        reference = brute_force_nn(grid)
        assert np.all(reference == 1.0)
        self.assert_bitwise(PointSet.from_coords(grid), reference)

    def test_repeated_rows_pass_with_duplicates_allowed(self, rng):
        base = rng.random((300, 3))
        coords = np.concatenate((base, base[:40], base[100:110]))
        reference = brute_force_nn(coords)
        assert np.count_nonzero(reference == 0.0) == 100
        self.assert_bitwise(
            PointSet.from_coords(coords), reference, allow_duplicates=True
        )

    def test_matches_plain_query_at_scale(self):
        coords = np.random.default_rng(7).random((10**5, 2))
        plain = cKDTree(coords).query(coords, k=2)[0][:, 1]
        self.assert_bitwise(PointSet.from_coords(coords), plain)

    @pytest.mark.parametrize("m", [2, 3])
    @pytest.mark.parametrize(
        "n", [2, 3, 2**16 - 1, 2**16, 2**16 + 1, 3 * 2**16 + 5]
    )
    def test_block_wise_query_matches_one_query(self, m, n):
        # the points are queried 2^16 at a time, so these sizes end a block
        # just short of, at and just past its end
        coords = np.random.default_rng(n + m).random((n, m))
        coords[1::5] = coords[0::5][: coords[1::5].shape[0]]  # duplicated rows
        one_query = cKDTree(coords).query(coords, k=2)[0][:, 1]
        self.assert_bitwise(
            PointSet.from_coords(coords), one_query, allow_duplicates=True
        )


class TestPairwise:
    def test_hand_example(self):
        points = PointSet.from_coords([0.0, 1.0, 3.0])
        d = pairwise_distances(points)
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

    def test_duplicates_found_behind_nan(self):
        # NaN sorts after the zero, so the last value alone cannot show it.
        def metric(a, b):
            return math.nan if {a, b} == {0.0, 3.0} else abs(a - b)

        points = PointSet.from_elements([0.0, 1.0, 1.0, 3.0], metric)
        with pytest.raises(DuplicatePointError, match="coinciding points"):
            pairwise_distances(points)


class TestConsecutiveGaps:
    def test_sorted_gaps(self):
        points = PointSet.from_coords([5.0, 1.0, 2.0, 9.0])
        d = consecutive_gaps(points)
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
