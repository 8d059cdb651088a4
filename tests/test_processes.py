"""Point process generators: determinism, distributional sanity, primes."""

import math

import numpy as np
import pytest

from slidestats import (
    ConfigError,
    ProcessSpec,
    RandomStream,
    first_primes,
    generate,
    nn_distances,
    process_kinds,
    substream,
)
from slidestats.processes import _ignores_stream


class TestSpecValidation:
    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            ProcessSpec("brownian")

    def test_unknown_parameter(self):
        with pytest.raises(ConfigError):
            ProcessSpec("normal", {"sd": 2.0})

    def test_bad_dim(self):
        with pytest.raises(ConfigError):
            generate(ProcessSpec("uniform_cube", {"dim": 0}), 5)
        with pytest.raises(ConfigError):
            generate(ProcessSpec("uniform_cube", {"dim": 2.0}), 5)

    @pytest.mark.parametrize("dim", [0, -1, True, False, 2.0, "2", None])
    def test_bad_dim_rejected_by_constructor(self, dim):
        with pytest.raises(ConfigError, match="uniform_cube needs an integer dim"):
            ProcessSpec("uniform_cube", {"dim": dim})

    def test_kind_listing_is_sorted(self):
        kinds = process_kinds()
        assert kinds == sorted(kinds)
        assert "uniform_cube" in kinds and "primes" in kinds

    def test_sample_size_must_be_positive(self):
        with pytest.raises(ValueError):
            generate(ProcessSpec("normal"), 0)


class TestDeterminism:
    @pytest.mark.parametrize("kind", ["uniform_cube", "circle", "cantor", "sierpinski"])
    def test_same_stream_same_points(self, kind):
        spec = ProcessSpec(kind)
        a = generate(spec, 64, RandomStream(7))
        b = generate(spec, 64, RandomStream(7))
        assert np.array_equal(a.coords, b.coords)

    def test_default_stream_is_seed_0_stream_0(self):
        spec = ProcessSpec("normal")
        assert np.array_equal(
            generate(spec, 64).coords, generate(spec, 64, RandomStream(0, 0)).coords
        )

    def test_substreams_differ(self):
        spec = ProcessSpec("uniform_cube", {"dim": 2})
        a = generate(spec, 64, substream(11, 0))
        b = generate(spec, 64, substream(11, 1))
        assert not np.array_equal(a.coords, b.coords)

    def test_master_seeds_differ(self):
        spec = ProcessSpec("normal")
        a = generate(spec, 64, substream(1, 0))
        b = generate(spec, 64, substream(2, 0))
        assert not np.array_equal(a.coords, b.coords)

    @pytest.mark.parametrize("kind", process_kinds())
    def test_stream_flag_matches_the_builder(self, tmp_path, kind):
        # run_experiment draws a kind that ignores its stream only once.
        params = {}
        if kind == "from_file":
            path = tmp_path / "pts.csv"
            np.savetxt(path, np.random.default_rng(3).random((64, 2)), delimiter=",")
            params = {"path": str(path)}
        spec = ProcessSpec(kind, params)
        a = generate(spec, 64, substream(11, 0))
        b = generate(spec, 64, substream(12, 5))
        assert np.array_equal(a.coords, b.coords) == _ignores_stream(kind)

    def test_stream_validation(self):
        with pytest.raises(ValueError):
            RandomStream(-1)
        with pytest.raises(ValueError):
            RandomStream(0, -3)


class TestGeometry:
    def test_uniform_cube_bounds_and_shape(self):
        points = generate(ProcessSpec("uniform_cube", {"dim": 3}), 500, RandomStream(5))
        assert points.coords.shape == (500, 3)
        assert points.coords.min() >= 0.0 and points.coords.max() <= 1.0

    def test_uniform_cube_chi_square(self):
        # 10 equal cells in 1-d; chi2(9) has 0.999 quantile 27.9.
        points = generate(ProcessSpec("uniform_cube"), 5000, RandomStream(3))
        counts = np.histogram(points.coords[:, 0], bins=10, range=(0.0, 1.0))[0]
        chi2 = float(((counts - 500.0) ** 2 / 500.0).sum())
        assert chi2 < 27.9

    def test_circle_radius(self):
        points = generate(ProcessSpec("circle"), 300, RandomStream(1))
        radii = np.hypot(points.coords[:, 0], points.coords[:, 1])
        assert np.allclose(radii, 1.0, atol=1e-12)

    def test_disk_uniform_inside_and_filling(self):
        points = generate(ProcessSpec("disk_uniform"), 4000, RandomStream(2))
        r2 = np.einsum("ij,ij->i", points.coords, points.coords)
        assert r2.max() <= 1.0
        # Uniform area measure puts 3/4 of the mass outside radius 1/2.
        assert 0.70 < float((r2 > 0.25).mean()) < 0.80

    def test_cantor_points_have_middle_thirds_removed(self):
        # The points are exact codes in units of 3^-40: all 40 ternary
        # digits are 0 or 2, and both occur at every depth.
        points = generate(ProcessSpec("cantor"), 2000, RandomStream(9))
        codes = points.coords[:, 0]
        assert points.coords.dtype == np.uint64
        assert int(codes.max()) < 3**40
        for j in range(40):
            digit = codes // np.uint64(3**j) % np.uint64(3)
            assert not np.any(digit == 1)
            assert np.any(digit == 0) and np.any(digit == 2)

    def test_sierpinski_in_triangle(self):
        points = generate(ProcessSpec("sierpinski"), 500, RandomStream(4))
        x, y = points.coords[:, 0], points.coords[:, 1]
        s = math.sqrt(3.0)
        assert np.all(y >= -1e-12)
        assert np.all(y <= s * x + 1e-12)
        assert np.all(y <= s * (1.0 - x) + 1e-12)

    def test_sierpinski_digits_decode_exactly(self):
        # x = X 2^-41 and y = Y (sqrt(3)/2) 2^-40 for integer codes X and Y.
        # At each depth digit 0 adds 0 to both codes, digit 1 adds 2 to X and
        # digit 2 adds 1 to each, so (X - Y) / 2 holds the digits 1 as bits
        # and Y the digits 2.
        points = generate(ProcessSpec("sierpinski"), 2000, RandomStream(9))
        x, y = points.coords[:, 0], points.coords[:, 1]
        unit_y = 0.5 * math.sqrt(3.0) * 2.0**-40
        x_code = np.ldexp(x, 41)
        assert np.array_equal(x_code, np.floor(x_code))
        x_code = x_code.astype(np.int64)
        y_code = np.rint(y / unit_y).astype(np.int64)
        assert np.array_equal(y, y_code * unit_y)  # y is rounded once
        assert np.all((x_code - y_code) % 2 == 0)
        ones, twos = (x_code - y_code) // 2, y_code
        assert np.all(ones & twos == 0)
        assert ones.min() >= 0 and twos.min() >= 0
        assert ones.max() < 2**40 and twos.max() < 2**40
        for j in range(40):
            one = ones >> j & 1 == 1
            two = twos >> j & 1 == 1
            assert np.any(one) and np.any(two) and np.any(~one & ~two)

    def test_consecutive_sierpinski_points_are_independent(self):
        # A chaos game steps p_{i+1} = (p_i + v) / 2 toward a vertex v, so
        # 2 p_{i+1} - p_i is a vertex for every i.
        points = generate(ProcessSpec("sierpinski"), 2000, RandomStream(4)).coords
        vertices = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 0.5 * math.sqrt(3.0)]])
        back = 2.0 * points[1:] - points[:-1]
        gaps = np.linalg.norm(back[:, None, :] - vertices[None, :, :], axis=2)
        assert np.count_nonzero(gaps.min(axis=1) < 1e-9) == 0

    def test_log_uniform_is_nonpositive(self):
        points = generate(ProcessSpec("log_uniform"), 1000, RandomStream(6))
        assert points.coords.max() <= 0.0

    def test_inv_sqrt_matches_cdf(self):
        # P(X <= x) = sqrt(x): the 0.25 quantile is 1/16.
        points = generate(ProcessSpec("inv_sqrt"), 8000, RandomStream(8))
        frac = float((points.coords[:, 0] <= 1.0 / 16.0).mean())
        assert 0.23 < frac < 0.27


class TestCosIteration:
    def test_first_values(self):
        points = generate(ProcessSpec("cos_iteration"), 3)
        x = points.coords[:, 0]
        assert x[0] == 0.0
        assert x[1] == pytest.approx(1.0, abs=1e-15)
        assert x[2] == pytest.approx(1.0 + math.cos(1.0), abs=1e-15)
        assert generate(ProcessSpec("cos_iteration"), 1).coords.tolist() == [[0.0]]

    def test_large_orbit_has_no_duplicates(self):
        points = generate(ProcessSpec("cos_iteration"), 20000)
        d = nn_distances(points)
        assert d.values[-1] > 0.0

    def test_orbit_is_bounded(self):
        # The partial sums of cos(n) stay within 1/(2 sin(1/2)) of zero.
        points = generate(ProcessSpec("cos_iteration"), 50000)
        bound = 0.5 / math.sin(0.5) + 1.0
        assert np.abs(points.coords).max() < bound


class TestPrimes:
    def test_first_few(self):
        assert first_primes(5).tolist() == [2.0, 3.0, 5.0, 7.0, 11.0]

    def test_against_reference_sieve(self):
        k = 5000
        limit = 60000
        mask = np.ones(limit, dtype=bool)
        mask[:2] = False
        for p in range(2, int(limit**0.5) + 1):
            if mask[p]:
                mask[p * p :: p] = False
        reference = np.flatnonzero(mask)[:k].astype(float)
        assert np.array_equal(first_primes(k), reference)

    def test_millionth_prime(self):
        assert first_primes(10**6)[-1] == 15485863.0

    def test_validation(self):
        with pytest.raises(ValueError):
            first_primes(0)

    def test_process_wraps_primes(self):
        points = generate(ProcessSpec("primes"), 6)
        assert points.coords[:, 0].tolist() == [2.0, 3.0, 5.0, 7.0, 11.0, 13.0]


class TestFromFile:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "points.csv"
        path.write_text("x,y\n0.0,0.0\n1.0,0.0\n0.0,2.0\n4.0,4.0\n")
        spec = ProcessSpec("from_file", {"path": str(path)})
        points = generate(spec, 3)
        assert points.coords.shape == (3, 2)
        assert points.coords[2].tolist() == [0.0, 2.0]

    def test_too_few_points(self, tmp_path):
        path = tmp_path / "points.csv"
        path.write_text("1.0\n2.0\n")
        with pytest.raises(ConfigError):
            generate(ProcessSpec("from_file", {"path": str(path)}), 5)

    def test_missing_path_parameter(self):
        with pytest.raises(ConfigError):
            generate(ProcessSpec("from_file"), 5)
