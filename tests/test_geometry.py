"""Point sets and distance extraction."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree
from scipy.spatial.distance import cdist, pdist

from slidestats import (
    DescendingDistances,
    DuplicatePointError,
    PointSet,
    ProcessSpec,
    RandomStream,
    assembly_numbers,
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
        points = generate(ProcessSpec("sierpinski"), 2000, RandomStream(5))
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

    @settings(deadline=None, max_examples=100)
    @given(
        k=st.integers(2, 80),
        m=st.integers(1, 6),
        scale=st.integers(-6, 6).map(lambda e: 10.0**e),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_euclidean_matches_pdist_bit_for_bit(self, k, m, scale, seed):
        coords = scale * np.random.default_rng(seed).standard_normal((k, m))
        fast = pairwise_distances(PointSet.from_coords(coords)).values
        assert np.sort(fast).tobytes() == np.sort(pdist(coords)).tobytes()

    def test_cap(self, rng):
        points = PointSet.from_coords(rng.random((12, 1)))
        with pytest.raises(ValueError):
            pairwise_distances(points, max_points=10)
        assert len(pairwise_distances(points, max_points=12)) == 66

    @pytest.mark.parametrize("cap", [1, 0, -3])
    def test_cap_below_two_is_named(self, rng, cap):
        points = PointSet.from_coords(rng.random((12, 2)))
        message = f"max_points must be at least 2, got {cap}"
        with pytest.raises(ValueError, match=message):
            assembly_numbers(points, max_points=cap)

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


class TestIntegerCoordinates:
    """One integer column stays integer, and the 1-d kernels take exact gaps."""

    @settings(deadline=None, max_examples=60)
    @given(
        values=st.lists(
            st.integers(-(2**52), 2**52), min_size=3, max_size=60, unique=True
        ),
        unsigned=st.booleans(),
    )
    def test_matches_float_path_where_both_are_exact(self, values, unsigned):
        codes = np.array(values, dtype=np.int64)
        if unsigned:
            codes = (codes + 2**52).astype(np.uint64)
        exact = PointSet.from_coords(codes)
        assert exact.coords.dtype == codes.dtype
        floats = PointSet.from_coords(codes.astype(float))
        for extract in (nn_distances, consecutive_gaps):
            assert extract(exact).values.tobytes() == extract(floats).values.tobytes()

    def test_codes_that_round_together_stay_distinct(self):
        codes = np.array([3**40 - 1, 3**40 - 2, 0], dtype=np.uint64)
        assert float(codes[0]) == float(codes[1])
        assert nn_distances(PointSet.from_coords(codes)).values[-1] == 1.0
        assert consecutive_gaps(PointSet.from_coords(codes)).values[-1] == 1.0
        floats = PointSet.from_coords(codes.astype(float))
        with pytest.raises(DuplicatePointError):
            nn_distances(floats)
        with pytest.raises(DuplicatePointError):
            consecutive_gaps(floats)

    def test_int64_extremes_do_not_overflow(self):
        lo, hi = -(2**63), 2**63 - 1
        points = PointSet.from_coords(np.array([hi, 0, lo], dtype=np.int64))
        assert list(nn_distances(points).values) == [float(hi), float(hi), float(hi)]
        assert list(consecutive_gaps(points).values) == [float(-lo), float(hi)]
        ends = PointSet.from_coords(np.array([lo, hi], dtype=np.int64))
        assert list(nn_distances(ends).values) == [float(2**64 - 1)] * 2

    def test_small_integer_dtypes_widen(self):
        points = PointSet.from_coords(np.array([-128, 127, 0], dtype=np.int8))
        assert points.coords.dtype == np.int64
        assert list(consecutive_gaps(points).values) == [128.0, 127.0]
        points = PointSet.from_coords(np.array([255, 0, 1], dtype=np.uint8))
        assert points.coords.dtype == np.uint64
        assert list(consecutive_gaps(points).values) == [254.0, 1.0]

    def test_pairwise_casts_to_float(self, rng):
        codes = rng.integers(0, 2**62, size=300, dtype=np.uint64)
        exact = pairwise_distances(PointSet.from_coords(codes)).values
        floats = pairwise_distances(PointSet.from_coords(codes.astype(float))).values
        assert exact.tobytes() == floats.tobytes()

    def test_other_integer_inputs_become_float(self):
        two_columns = PointSet.from_coords(np.array([[0, 1], [2, 3]], dtype=np.int64))
        assert two_columns.coords.dtype == np.float64
        with_metric = PointSet.from_coords(
            np.array([0, 1, 3], dtype=np.uint64), metric=euclidean
        )
        assert with_metric.coords.dtype == np.float64
        assert list(nn_distances(with_metric).values) == [2.0, 1.0, 1.0]
        assert PointSet.from_coords([True, False]).coords.dtype == np.float64
