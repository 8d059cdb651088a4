"""Closed-form slide statistics against oracles and hand values."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from slidestats import (
    ConfigError,
    DescendingDistances,
    DuplicatePointError,
    PointSet,
    SlideReport,
    assembly_numbers,
    consecutive_gaps,
    dimension_estimates,
    level_derivatives,
    level_numbers,
    neg_log_derivative,
    nn_distances,
    point_statistics,
    psi1,
    psi2_conjectured,
    psi_numeric,
    slide_numbers,
    step_slide_function,
    tangibility_check,
    zeta_int,
)
from slidestats import geometry, slide_stats
from slidestats.geometry import _rank_weights
from slidestats.slide_stats import (
    _ORACLE_TOL,
    STATISTIC_KINDS,
    _closed_forms,
    right_derivatives,
    statistic_kind,
)
from slidestats.step_kernels import _slide_curve
from conftest import random_descending

LN2 = math.log(2.0)
LN3 = math.log(3.0)
BLOCK = geometry._BLOCK


def rank_weights_reference(n):
    """The rank weights from whole-array operations: ``ln(n) - diff(r ln(r))``.

    The block-wise build must match them bit for bit.
    """
    g = np.arange(n + 1.0)
    g[1:] *= np.log(g[1:])
    return math.log(n) - np.diff(g)


def psi2_raw_sums(d):
    """Literal transcription of the order-2 closed form in raw log sums."""
    d = np.asarray(d, dtype=float)
    n = d.size
    logs = np.log(d)
    s1 = float(logs.sum())
    s2 = float((logs**2).sum())
    s3 = float((np.log(d[:-1] / d[-1]) ** 2).sum())
    acc = 0.0
    for i in range(1, n):
        acc += (
            i
            * math.log(i)
            * math.log(d[i] / d[i - 1])
            * (2.0 * s1 - n * math.log(d[i - 1] * d[i]))
        )
    acc += math.log(n) * (2.0 * (s1 - n * math.log(d[-1])) ** 2 - n * s3)
    acc += n * s2 - s1 * s1
    return -acc / (n * n)


def psi1_reference(d):
    """The order-1 closed form as a sum over consecutive log ratios."""
    d = np.sort(np.asarray(d, dtype=float))[::-1]
    n = d.size
    second = math.log(n) / n * float(np.log(d[:-1] / d[-1]).sum())
    if n == 2:
        return second
    rank = np.arange(2.0, n)
    first = float(np.sum(rank * np.log(rank) * np.log(d[2:] / d[1:-1]))) / n
    return first + second


def psi2_reference(d):
    """The order-2 closed form with its rank-weighted and ln(n) terms apart."""
    d = np.sort(np.asarray(d, dtype=float))[::-1]
    n = d.size
    ell = np.log(d / d[-1])
    s1 = float(ell.sum())
    s3 = float((ell[:-1] ** 2).sum())
    rank = np.arange(1.0, n)
    rank_log = rank * np.log(rank)
    diff = ell[1:] - ell[:-1]
    pair = ell[:-1] + ell[1:]
    term1 = float(np.sum(rank_log * diff * (2.0 * s1 - n * pair)))
    term2 = math.log(n) * (2.0 * s1 * s1 - n * s3)
    term3 = n * s3 - s1 * s1
    return -(term1 + term2 + term3) / (n * n)


def level_order1_reference(d):
    """Level order 1 with the increments of ``x ln(x)`` over ``[0, 1]``."""
    d = np.sort(np.asarray(d, dtype=float))[::-1]
    n = d.size
    edges = np.arange(n + 1) / n
    with np.errstate(divide="ignore", invalid="ignore"):
        glog = np.where(edges > 0.0, edges * np.log(np.maximum(edges, 1e-300)), 0.0)
    return float(np.sum((1.0 - d / d.mean()) * np.diff(glog)))


# Log distances; rounding them to few decimals makes ties.
LOG_DISTANCES = st.lists(st.floats(-5.0, 5.0), min_size=2, max_size=300)


class TestClosedFormKernel:
    @settings(deadline=None, max_examples=150)
    @given(
        logs=LOG_DISTANCES,
        decimals=st.sampled_from([None, 0, 1]),
        scale=st.floats(1e-3, 1e3),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(logs=[1.0, 0.0], decimals=None, scale=3.0, seed=0)
    @example(logs=[0.7, 0.0, 0.0], decimals=None, scale=0.5, seed=1)
    @example(logs=[2.0, -1.0, 0.5], decimals=None, scale=100.0, seed=2)
    @example(logs=[0.3, 0.3], decimals=None, scale=7.0, seed=3)
    def test_matches_references_and_invariances(self, logs, decimals, scale, seed):
        if decimals is not None:
            logs = np.round(logs, decimals)
        d = np.sort(np.exp(logs))[::-1]
        one, two = _closed_forms(d)
        assert (psi1(d), psi2_conjectured(d)) == (one, two)
        assert one == pytest.approx(psi1_reference(d), rel=1e-12, abs=1e-13)
        assert two == pytest.approx(psi2_reference(d), rel=1e-12, abs=1e-13)
        assert level_derivatives(d, 1)[0] == pytest.approx(
            level_order1_reference(d), rel=1e-12, abs=1e-13
        )
        shuffled = np.random.default_rng(seed).permutation(d)
        assert _closed_forms(shuffled) == (one, two)
        scaled = _closed_forms(scale * d)
        assert scaled == pytest.approx((one, two), rel=1e-12, abs=1e-13)

    @pytest.mark.parametrize(
        "sizes",
        [
            [2, 7, 7, 3, 2, BLOCK, BLOCK + 1, 2 * BLOCK - 1, BLOCK + 1],
            [499_500, 10**4, 499_500, 1],
        ],
    )
    def test_rank_weights_cached_and_read_only(self, sizes):
        with slide_stats.shared_rank_weights():
            for n in sizes:
                cached = _rank_weights(n)
                assert cached is _rank_weights(n)
                assert cached.tobytes() == rank_weights_reference(n).tobytes()
                with pytest.raises(ValueError):
                    cached[0] = 1.0
                with pytest.raises(ValueError):
                    cached *= 2.0
                r = np.arange(2.0, min(n, 50) + 1)
                reference = math.log(n) - r * np.log(r) + (r - 1.0) * np.log(r - 1.0)
                assert cached[1 : r.size + 1] == pytest.approx(
                    reference, rel=1e-12, abs=1e-12
                )
                assert cached[0] == math.log(n)
        # Outside a scope every call builds its own array.
        assert _rank_weights(sizes[0]) is not _rank_weights(sizes[0])


class TestPsi1:
    def test_frozen_values(self):
        assert psi1([2.0, 1.0]) == pytest.approx(LN2**2 / 2.0, abs=1e-15)
        assert psi1([4.0, 2.0, 1.0]) == pytest.approx(
            LN2 * LN3 - 2.0 * LN2**2 / 3.0, abs=1e-15
        )
        assert psi1([2.0, 1.0, 1.0]) == pytest.approx(LN2 * LN3 / 3.0, abs=1e-15)

    def test_order_of_input_is_free(self):
        assert psi1([1.0, 4.0, 2.0]) == psi1([4.0, 2.0, 1.0])

    def test_constant_sequence(self):
        assert psi1([3.0, 3.0, 3.0, 3.0]) == 0.0

    def test_nonnegative(self, rng):
        for _ in range(150):
            d = random_descending(rng, int(rng.integers(2, 120)))
            assert psi1(d) >= -1e-12

    def test_exact_scale_invariance(self, rng):
        for _ in range(25):
            d = random_descending(rng, int(rng.integers(2, 200)))
            base = psi1(d)
            for lam in (0.5, 3.0, 100.0):
                assert abs(psi1(lam * d) - base) < 1e-12

    def test_power_law(self, rng):
        d = random_descending(rng, 40)
        base = psi1(d)
        for r in (0.5, 2.0, 3.0):
            assert psi1(d**r) == pytest.approx(r * base, rel=1e-12, abs=1e-13)

    def test_matches_derivative_oracle(self, rng):
        for _ in range(15):
            d = random_descending(rng, int(rng.integers(2, 80)))
            est = psi_numeric(d, 1)[0]
            assert abs(psi1(d) - est.value) < 1e-6

    def test_validation(self):
        with pytest.raises(ValueError):
            psi1([2.0])
        with pytest.raises(ValueError):
            psi1([2.0, 0.0])
        with pytest.raises(ValueError):
            psi1([2.0, np.nan])


class TestPsi2:
    def test_frozen_value(self):
        assert psi2_conjectured([math.e, 1.0]) == pytest.approx(-0.25, abs=1e-15)

    def test_matches_raw_sum_transcription(self, rng):
        for _ in range(40):
            d = random_descending(rng, int(rng.integers(2, 150)))
            mine = psi2_conjectured(d)
            raw = psi2_raw_sums(d)
            assert mine == pytest.approx(raw, rel=1e-8, abs=1e-8)

    def test_matches_derivative_oracle(self, rng):
        for _ in range(15):
            d = random_descending(rng, int(rng.integers(2, 80)))
            est = psi_numeric(d, 2)[1]
            assert abs(psi2_conjectured(d) - est.value) < 1e-4

    def test_exact_scale_invariance(self, rng):
        for _ in range(25):
            d = random_descending(rng, int(rng.integers(2, 200)))
            base = psi2_conjectured(d)
            for lam in (0.5, 3.0, 100.0):
                assert abs(psi2_conjectured(lam * d) - base) < 1e-12

    def test_power_law(self, rng):
        d = random_descending(rng, 40)
        base = psi2_conjectured(d)
        for r in (0.5, 2.0):
            assert psi2_conjectured(d**r) == pytest.approx(
                r * r * base, rel=1e-11, abs=1e-12
            )

    def test_constant_sequence(self):
        assert psi2_conjectured([5.0, 5.0, 5.0]) == 0.0

    @pytest.mark.skipif(
        np.finfo(np.longdouble).eps >= np.finfo(float).eps,
        reason="long double is no wider than double on this platform",
    )
    def test_conditioning_against_long_double(self):
        # In the raw-sum form the rank-weighted term and the ln(n) term of
        # psi2 are each about 473 in size at this n and cancel to about
        # 0.4; the rank-weight form has no such cancellation.  Both closed
        # forms must stay within 1e-12 of an extended-precision evaluation
        # of the raw-sum forms.
        d = np.random.default_rng(0).random(10**6) ** 0.5
        ld = np.sort(d.astype(np.longdouble))[::-1]
        n = ld.size
        logs = np.log(ld)
        s1, s2 = logs.sum(), (logs**2).sum()
        s3 = ((logs[:-1] - logs[-1]) ** 2).sum()
        i = np.arange(1, n, dtype=np.longdouble)
        rank_log = i * np.log(i)
        diff = logs[1:] - logs[:-1]
        log_n = np.log(np.longdouble(n))
        one = (np.sum(rank_log * diff) + log_n * (s1 - n * logs[-1])) / n
        pair = logs[:-1] + logs[1:]
        acc = np.sum(rank_log * diff * (2 * s1 - n * pair))
        acc += log_n * (2 * (s1 - n * logs[-1]) ** 2 - n * s3)
        acc += n * s2 - s1 * s1
        assert abs(np.longdouble(psi1(d)) - one) <= 1e-12
        assert abs(np.longdouble(psi2_conjectured(d)) + acc / (n * n)) <= 1e-12


class TestPsiNumeric:
    def test_returns_estimate_with_metadata(self, rng):
        d = random_descending(rng, 30)
        estimates = psi_numeric(d, 3)
        assert [est.order for est in estimates] == [1, 2, 3]
        for est in estimates:
            assert est.error >= 0.0
            assert math.isfinite(est.value)

    @pytest.mark.parametrize("case", ["random", "hard"])
    def test_every_order_from_one_ladder(self, rng, case):
        # Each order is bit for bit what a ladder run to that order gives.
        if case == "hard":
            sequences = [np.sort(np.exp(ORACLE_HARD_CASE))[::-1]]
        else:
            sequences = [
                random_descending(rng, int(rng.integers(2, 120))) for _ in range(10)
            ]
        for d in sequences:
            curve = _slide_curve(d)
            estimates = psi_numeric(d, 4)
            for k in range(1, 5):
                alone = right_derivatives(lambda t: curve(t)[1], k)[k - 1]
                assert (estimates[k - 1].value, estimates[k - 1].error) == (
                    alone.value,
                    alone.error,
                )

    def test_power_law_at_order_three(self, rng):
        d = random_descending(rng, 25, low=-1.5, high=1.5)
        base = psi_numeric(d, 3)[2]
        scaled = psi_numeric(d**2.0, 3)[2]
        tol = max(50.0 * (8.0 * base.error + scaled.error), 1e-5)
        assert scaled.value == pytest.approx(8.0 * base.value, abs=tol)

    def test_order2_agrees_with_conjecture_at_scale(self):
        # 4.3e-12 apart at seed 0; the xlogx form of the slide sum gave 6.4e-8.
        d = np.random.default_rng(0).random(3 * 10**5) ** 0.5
        assert abs(psi_numeric(d, 2)[1].value - psi2_conjectured(d)) < 1e-10

    def test_order_validation(self, rng):
        d = random_descending(rng, 10)
        for max_order in (0, 5, 2.5, True):
            with pytest.raises(ValueError):
                psi_numeric(d, max_order)

    def test_order_limit_names_the_stencils(self, rng):
        d = random_descending(rng, 10)
        with pytest.raises(
            ValueError, match="orders above 4 have no stencil in the derivative oracle"
        ):
            psi_numeric(d, 5)


class TestLevelDerivatives:
    def test_frozen_values(self):
        lam = level_derivatives([2.0, 1.0, 1.0], 2)
        assert lam[0] == pytest.approx(LN3 / 4.0, abs=1e-15)
        assert lam[1] == pytest.approx(-0.125, abs=1e-15)

    def test_second_order_is_negative_cv_squared(self, rng):
        for _ in range(50):
            d = random_descending(rng, int(rng.integers(2, 90)))
            lam = level_derivatives(d, 2)
            cv2 = float(np.var(d) / np.mean(d) ** 2)
            assert lam[1] == pytest.approx(-cv2, rel=1e-10, abs=1e-12)

    def test_zeros_are_allowed(self):
        lam = level_derivatives([2.0, 1.0, 0.0], 2)
        assert all(math.isfinite(v) for v in lam)

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError):
            level_derivatives([0.0, 0.0], 2)

    def test_exact_scale_invariance(self, rng):
        d = random_descending(rng, 60)
        base = level_derivatives(d, 4)
        for lam in (0.5, 3.0, 100.0):
            scaled = level_derivatives(lam * d, 4)
            assert scaled == pytest.approx(base, rel=1e-12, abs=1e-12)

    def test_first_order_nonnegative(self, rng):
        for _ in range(60):
            d = random_descending(rng, int(rng.integers(2, 90)))
            assert level_derivatives(d, 1)[0] >= -1e-12

    def test_order_validation(self):
        points = PointSet.from_coords([[0.0], [1.0], [3.0]])
        for max_order in (0, 2.0, True):
            with pytest.raises(ValueError):
                level_derivatives([2.0, 1.0], max_order)
            with pytest.raises(ValueError):
                level_numbers(points, max_order)


def centred_reference(d):
    """Orders 3 and 4 from the centred-moment forms, in long double.

    The logs are the float64 ``ln(d_r / d_n)`` the library takes: a ratio
    within ``eps`` of 1 makes the log itself ill conditioned, so this
    measures the moment arithmetic alone.  Returns ``(value, size)`` per
    order, where ``size`` sums the magnitudes of the terms, the scale of the
    rounding when they cancel.
    """
    n = d.size
    g = np.arange(n + 1, dtype=np.longdouble)
    g[1:] *= np.log(g[1:])
    c = np.log(np.longdouble(n)) - np.diff(g)
    x = np.log(d / d[-1]).astype(np.longdouble)
    x -= x.mean()
    m = [np.mean(x**j) for j in range(5)]
    e = [np.mean(x**j * c) for j in range(5)]
    am = [np.mean(abs(x) ** j) for j in range(5)]
    ae = [np.mean(abs(x) ** j * abs(c)) for j in range(5)]
    three = e[3] - 3 * m[2] * e[1] - 2 * m[3]
    four = e[4] - 4 * e[1] * m[3] - 6 * m[2] * e[2] - 3 * (m[4] - 3 * m[2] ** 2)
    size3 = ae[3] + 3 * m[2] * ae[1] + 2 * am[3]
    size4 = ae[4] + 4 * ae[1] * am[3] + 6 * m[2] * ae[2] + 3 * am[4] + 9 * m[2] ** 2
    return [(float(three), float(size3)), (float(four), float(size4))]


def series_reference(d, max_order=4):
    """Slide derivatives at 0 of the exact finite sum, in exact rationals.

    The oracle's curve is ``sigma(t) = (q.c - t q.ell) / Q + ln(Q / n)`` with
    ``q = exp(t ell)`` and ``Q = sum(q)``.  Its Taylor coefficients follow
    from the power sums of the float64 logs and weights by series division
    and the series logarithm, with no cumulant algebra and no rounding.
    """
    n = d.size
    ell = [Fraction(v) for v in np.log(d / d[-1])]
    c = [Fraction(v) for v in _rank_weights(n)]
    powers = [Fraction(1)] * n
    big_q, top, fact = [], [], 1
    for j in range(max_order + 1):
        fact *= max(j, 1)
        power_sum = sum(powers)
        big_q.append(power_sum / fact)
        weighted_sum = sum(w * p for w, p in zip(c, powers))
        top.append((weighted_sum - j * power_sum) / fact)  # of q.c - t q.ell
        powers = [p * v for p, v in zip(powers, ell)]
    ratio, log_q = [], [Fraction(0)]
    for k in range(max_order + 1):
        ratio.append(
            (top[k] - sum(big_q[j] * ratio[k - j] for j in range(1, k + 1))) / n
        )
        if k:
            acc = sum(j * log_q[j] * big_q[k - j] for j in range(1, k))
            log_q.append((big_q[k] - acc / k) / n)
    orders = range(1, max_order + 1)
    return [math.factorial(k) * float(ratio[k] + log_q[k]) for k in orders]


# The oracle's error estimate is not a bound at orders 3 and 4.  At its
# default base step of 5e-2, its order-4 error reached 1% on logs within
# [-3, 3] (the pinned example), where the truncation outruns the ladder; at
# 1e-2 a targeted search found its true error above the estimate by up to
# 1.8e-6 (order 3) and 6e-4 (order 4) times 1 + |value|.  The slack is about
# ten times that; a wrong coefficient in either form moves the value by more.
ORACLE_SLACK = {3: 2e-5, 4: 5e-3}
ORACLE_HARD_CASE = [0.0] * 6 + [1.7, 2.1, 2.6, 2.7, 0.7, 0.2, -2.0, -3.0, -3.0, -1.4]
ORACLE_HARD_CASE += [-1.9, -1.3, -2.8, -0.8, -0.7, -0.7, -0.7, -0.3, -0.1]


class TestHigherOrders:
    @settings(deadline=None, max_examples=100)
    @given(
        logs=st.lists(st.floats(-3.0, 3.0), min_size=2, max_size=300),
        decimals=st.sampled_from([None, 0, 1]),
    )
    @example(logs=[1.0, 0.0], decimals=None)
    @example(logs=[0.3, 0.3, 0.0], decimals=None)
    @example(logs=[2.0, 2.0, 2.0, 3.0, 3.0, -2.0], decimals=None)
    @example(logs=ORACLE_HARD_CASE, decimals=None)
    def test_match_oracle_within_its_error(self, logs, decimals):
        if decimals is not None:
            logs = np.round(logs, decimals)
        d = np.sort(np.exp(logs))[::-1]
        closed = _closed_forms(d, 4)
        curve = _slide_curve(d)
        estimates = right_derivatives(lambda t: curve(t)[1], 4, h0=1e-2)
        for order in (3, 4):
            est = estimates[order - 1]
            value = closed[order - 1]
            bound = est.error + ORACLE_SLACK[order] * (1.0 + abs(value))
            assert abs(value - est.value) <= bound, (order, value, est)

    @settings(deadline=None, max_examples=100)
    @given(logs=LOG_DISTANCES, decimals=st.sampled_from([None, 0, 1]))
    @example(logs=[1.0, 0.0], decimals=None)
    @example(logs=[0.0, 0.0], decimals=None)
    @example(logs=[0.0, -1e-09], decimals=None)
    @example(logs=[0.0, 0.0, 0.0, 0.0, 5.0, -5.0], decimals=None)
    @example(logs=ORACLE_HARD_CASE, decimals=None)
    def test_match_long_double_and_exact_series(self, logs, decimals):
        if decimals is not None:
            logs = np.round(logs, decimals)
        d = np.sort(np.exp(logs))[::-1]
        closed = _closed_forms(d, 4)
        assert closed[:2] == _closed_forms(d)
        assert closed[:3] == _closed_forms(d, 3)
        exact = series_reference(d)
        assert closed[:2] == pytest.approx(exact[:2], rel=1e-12, abs=1e-13)
        for value, reference, (centred, size) in zip(
            closed[2:], exact[2:], centred_reference(d)
        ):
            assert value == pytest.approx(centred, rel=1e-10, abs=1e-14 * size)
            assert value == pytest.approx(reference, rel=1e-10, abs=1e-14 * size)


class TestReports:
    def test_slide_numbers_match_nn_psi(self, rng):
        points = PointSet.from_coords(rng.random((60, 2)))
        d = nn_distances(points)
        report = slide_numbers(points, orders=(1, 2))
        assert report.values[1] == psi1(d)
        assert report.values[2] == psi2_conjectured(d)
        assert report.orders == [1, 2]
        assert report.oracle_error[2] < 1e-4

    def test_cross_check_can_be_disabled(self, rng):
        points = PointSet.from_coords(rng.random((40, 1)))
        report = slide_numbers(points, orders=(1, 2), cross_check=False)
        assert 2 not in report.oracle_error

    def test_higher_orders(self, rng):
        points = PointSet.from_coords(rng.random((40, 1)))
        report = slide_numbers(points, orders=(1, 2, 3, 4))
        assert report.orders == [1, 2, 3, 4]
        assert 3 in report.oracle_error and 4 in report.oracle_error
        assert 1 not in report.oracle_error
        assert report.oracle_error[3] < _ORACLE_TOL[3]
        assert report.oracle_error[4] < _ORACLE_TOL[4]

    @pytest.mark.parametrize("cross_check, calls", [(False, []), (True, [4])])
    def test_oracle_runs_only_as_cross_check(
        self, rng, monkeypatch, cross_check, calls
    ):
        seen = []

        def counting(distances, max_order, *args, **kwargs):
            seen.append(max_order)
            return psi_numeric(distances, max_order, *args, **kwargs)

        monkeypatch.setattr(slide_stats, "psi_numeric", counting)
        points = PointSet.from_coords(rng.random((50, 2)))
        report = slide_numbers(points, orders=(1, 2, 3, 4), cross_check=cross_check)
        assert seen == calls
        assert sorted(report.oracle_error) == ([2, 3, 4] if cross_check else [])

    def test_one_slide_curve_per_distance_set(self, rng, monkeypatch):
        builds = []

        def counting(values):
            builds.append(values.size)
            return _slide_curve(values)

        monkeypatch.setattr(slide_stats, "_slide_curve", counting)
        points = PointSet.from_coords(rng.random((50, 2)))
        slide_numbers(points, orders=(1, 2, 3, 4))
        assert len(builds) == 1

    def test_low_orders_independent_of_higher_requests(self, rng):
        points = PointSet.from_coords(rng.random((200, 3)))
        low = slide_numbers(points, orders=(1, 2), cross_check=False)
        full = slide_numbers(points, orders=(1, 2, 3, 4), cross_check=False)
        assert (full.values[1], full.values[2]) == (low.values[1], low.values[2])

    def test_assembly_numbers_match_pairwise_psi(self, rng):
        points = PointSet.from_coords(rng.random((30, 2)))
        from slidestats import pairwise_distances

        report = assembly_numbers(points, orders=(1,), cross_check=False)
        assert report.values[1] == psi1(pairwise_distances(points))

    def test_level_numbers_permit_duplicates(self):
        points = PointSet.from_coords([[0.0], [0.0], [1.0], [3.0]])
        report = level_numbers(points, max_order=2)
        assert report.orders == [1, 2]
        assert math.isfinite(report.values[2])

    def test_level_numbers_reject_fully_coincident(self):
        points = PointSet.from_coords([[1.0], [1.0], [1.0]])
        with pytest.raises(DuplicatePointError):
            level_numbers(points)

    def test_order_validation(self, rng):
        points = PointSet.from_coords(rng.random((10, 1)))
        with pytest.raises(ValueError):
            slide_numbers(points, orders=())
        with pytest.raises(ValueError):
            slide_numbers(points, orders=(0,))
        with pytest.raises(ValueError):
            slide_numbers(points, orders=(5,))

    def test_report_validation(self):
        with pytest.raises(ValueError):
            SlideReport({1: -1.0})

    def test_consecutive_gaps_feed_the_statistics(self):
        points = PointSet.from_coords([0.0, 1.0, 3.0, 7.0])
        gaps = consecutive_gaps(points)
        assert psi1(gaps) == psi1([4.0, 2.0, 1.0])


class TestInvariance:
    @settings(deadline=None, max_examples=40)
    @given(
        seed=st.integers(0, 2**32 - 1),
        k=st.integers(3, 60),
        dim=st.integers(1, 3),
        power=st.sampled_from([1.0, 3.0]),
    )
    def test_scale_and_permutation(self, seed, k, dim, power):
        rng = np.random.default_rng(seed)
        coords = rng.random((k, dim)) ** power  # power 3 clusters the points
        orders = (1, 2, 3, 4)
        for numbers in (slide_numbers, assembly_numbers):
            base = numbers(PointSet.from_coords(coords), orders, cross_check=False)
            for scale in (0.5, 3.0, 100.0):
                scaled = numbers(
                    PointSet.from_coords(scale * coords), orders, cross_check=False
                )
                assert scaled.values == pytest.approx(base.values, rel=1e-9, abs=0.0)
            shuffled = numbers(
                PointSet.from_coords(rng.permutation(coords)), orders, cross_check=False
            )
            assert shuffled.values == base.values

    @settings(deadline=None, max_examples=40)
    @given(
        seed=st.integers(0, 2**32 - 1),
        k=st.integers(3, 60),
        dim=st.integers(1, 3),
        power=st.sampled_from([1.0, 3.0]),
        duplicates=st.integers(0, 2),
    )
    def test_level_scale_and_permutation(self, seed, k, dim, power, duplicates):
        rng = np.random.default_rng(seed)
        coords = rng.random((k, dim)) ** power
        coords = np.concatenate((coords, coords[:duplicates]))  # legal for level
        base = level_numbers(PointSet.from_coords(coords), 4)
        # The terms of each order may cancel.  A relative error e in every
        # ratio r = d / mean(d) moves order 1, mean(c r), by up to
        # e mean(|c| r) and order k, -mean((1 - r)^k), by up to
        # e k mean(|1 - r|^(k-1) r); e = 1e-9 is the bound used for rho.
        ratio = nn_distances(PointSet.from_coords(coords), True).values
        ratio = ratio / ratio.mean()
        moved = {1: np.mean(np.abs(_rank_weights(ratio.size)) * ratio)}
        for order in (2, 3, 4):
            moved[order] = order * np.mean(np.abs(1.0 - ratio) ** (order - 1) * ratio)
        for scale in (0.5, 3.0, 100.0):
            scaled = level_numbers(PointSet.from_coords(scale * coords), 4)
            for order, value in base.values.items():
                assert scaled.values[order] == pytest.approx(
                    value, rel=1e-9, abs=1e-9 * moved[order]
                )
        shuffled = level_numbers(PointSet.from_coords(rng.permutation(coords)), 4)
        assert shuffled.values == base.values


def euclidean(a, b):
    return math.dist(a, b)


class TestPointStatistics:
    """One extraction per point set, bit-identical to one call per kind."""

    @settings(deadline=None, max_examples=60)
    @given(
        seed=st.integers(0, 2**32 - 1),
        k=st.integers(3, 40),
        space=st.sampled_from(["1-d", "2-d", "3-d", "metric"]),
        kinds=st.sampled_from([("slide", "level"), ("slide", "level", "assembly")])
        .flatmap(st.permutations),
        orders=st.lists(st.integers(1, 4), min_size=1, max_size=4, unique=True),
        cross_check=st.booleans(),
    )
    def test_shared_matches_separate(self, seed, k, space, kinds, orders, cross_check):
        rng = np.random.default_rng(seed)
        if space == "metric":
            points = PointSet.from_elements(list(rng.random((k, 2))), euclidean)
        else:
            points = PointSet.from_coords(rng.random((k, int(space[0]))) ** 3)
        orders = tuple(orders)
        shared = point_statistics(
            points, dict.fromkeys(kinds, orders), cross_check=cross_check
        )
        level = level_numbers(points, max(orders))
        wanted = sorted(orders)
        separate = {
            "slide": slide_numbers(points, orders, cross_check),
            "level": SlideReport({order: level.values[order] for order in wanted}),
            "assembly": assembly_numbers(points, orders, cross_check),
        }
        assert list(shared) == list(kinds)
        for kind, report in shared.items():
            assert repr(report) == repr(separate[kind])  # repr round-trips floats

    def count_extractions(self, monkeypatch):
        calls = []
        for name in ("nn_distances", "pairwise_distances"):
            original = getattr(slide_stats, name)

            def counting(*args, original=original, name=name, **kwargs):
                calls.append(name)
                return original(*args, **kwargs)

            monkeypatch.setattr(slide_stats, name, counting)
        return calls

    def test_one_extraction_each_and_no_cache_across_calls(self, rng, monkeypatch):
        calls = self.count_extractions(monkeypatch)
        points = PointSet.from_coords(rng.random((50, 2)))
        requests = {"slide": (1, 2), "assembly": (1,), "level": (1, 2)}
        point_statistics(points, requests)
        assert sorted(calls) == ["nn_distances", "pairwise_distances"]
        point_statistics(points, requests)
        assert sorted(calls) == ["nn_distances"] * 2 + ["pairwise_distances"] * 2

    def test_extraction_is_lazy(self, rng, monkeypatch):
        calls = self.count_extractions(monkeypatch)
        points = PointSet.from_coords(rng.random((50, 2)))
        point_statistics(points, {"level": (2,)})
        assert calls == ["nn_distances"]

    def test_bad_request_fails_before_any_extraction(self, rng, monkeypatch):
        calls = self.count_extractions(monkeypatch)
        points = PointSet.from_coords(rng.random((50, 2)))
        with pytest.raises(ValueError, match="orders above 4 have no closed form"):
            point_statistics(points, {"level": (1,), "slide": (5,)})
        with pytest.raises(ValueError, match="orders above 4 have no closed form"):
            slide_numbers(points, (1, 5))
        with pytest.raises(ValueError, match="orders must be positive"):
            point_statistics(points, {"assembly": (0, 1)})
        with pytest.raises(ConfigError, match="unknown statistic kind"):
            point_statistics(points, {"level": (1,), "magic": (1,)})
        assert calls == []

    def test_slide_reads_the_shared_array(self, rng, monkeypatch):
        seen = []
        original = slide_stats._slide_report

        def capturing(d, *args):
            seen.append(d)
            return original(d, *args)

        monkeypatch.setattr(slide_stats, "_slide_report", capturing)
        points = PointSet.from_coords(rng.random((50, 2)))
        raw = nn_distances(points, allow_duplicates=True)
        monkeypatch.setattr(slide_stats, "nn_distances", lambda *args, **kwargs: raw)
        point_statistics(points, {"level": (1,), "slide": (1,)})
        assert seen[0] is raw

    def test_duplicates_fail_at_slide_after_level(self, monkeypatch):
        levels = []
        original = slide_stats.level_derivatives

        def recording(*args):
            levels.append(args)
            return original(*args)

        monkeypatch.setattr(slide_stats, "level_derivatives", recording)
        points = PointSet.from_coords([[0.0, 0.0], [0.0, 0.0], [1.0, 1.0]])
        with pytest.raises(DuplicatePointError, match="coinciding points"):
            point_statistics(points, {"level": (1, 2), "slide": (1, 2)})
        assert len(levels) == 1
        with pytest.raises(DuplicatePointError, match="coinciding points"):
            point_statistics(points, {"slide": (1, 2), "level": (1, 2)})
        assert len(levels) == 1

    def test_registry(self):
        assert list(STATISTIC_KINDS) == ["slide", "assembly", "level"]
        assert {k: (v.symbol, v.extraction) for k, v in STATISTIC_KINDS.items()} == {
            "slide": ("rho", "nearest_neighbor"),
            "assembly": ("alpha", "pairwise"),
            "level": ("lambda", "nearest_neighbor"),
        }
        with pytest.raises(ConfigError, match="unknown statistic kind 'magic'"):
            statistic_kind("magic")
        points = PointSet.from_coords([[0.0], [1.0], [3.0]])
        with pytest.raises(ConfigError):
            point_statistics(points, {"magic": (1,)})

    def test_pairwise_cap(self, rng):
        points = PointSet.from_coords(rng.random((30, 2)))
        with pytest.raises(ValueError, match="cap of 20"):
            point_statistics(points, {"assembly": (1,)}, pairwise_cap=20)


class TestDimension:
    def _report(self, values):
        return SlideReport(dict(values))

    def test_estimates_from_reference_power_law(self):
        report = self._report({1: 0.5, 2: -zeta_int(2) / 4.0})
        estimates = dimension_estimates(report)
        assert estimates[1] == pytest.approx(2.0, abs=1e-12)
        assert estimates[2] == pytest.approx(2.0, abs=1e-12)

    def test_wrong_sign_yields_none(self):
        report = self._report({1: 0.5, 2: 0.3})
        estimates = dimension_estimates(report)
        assert estimates[2] is None

    def test_tangible_case(self):
        report = self._report({1: 0.5, 2: -zeta_int(2) / 4.0 * 1.02})
        verdict = tangibility_check(report, tol=0.1)
        assert verdict.tangible
        assert verdict.consensus_dimension == pytest.approx(2.0)
        assert verdict.residuals[2] == pytest.approx(0.02, abs=1e-12)

    def test_intangible_case(self):
        report = self._report({1: 0.5, 2: -1.0})
        verdict = tangibility_check(report, tol=0.1)
        assert not verdict.tangible
        assert verdict.consensus_dimension is None

    def test_requires_order_one_and_company(self):
        with pytest.raises(ValueError):
            tangibility_check(self._report({1: 0.5}))
        with pytest.raises(ValueError):
            tangibility_check(self._report({2: -0.4, 3: 0.1}))
        with pytest.raises(ValueError):
            tangibility_check(self._report({1: 0.5, 2: -0.4}), tol=0.0)

    @pytest.mark.parametrize(
        "tol",
        [
            math.inf,
            math.nan,
            # the rule ExperimentConfig applies to tangibility_tol
            pytest.param(True, id="bool"),
            pytest.param(10**400, id="huge_int"),
            pytest.param("0.1", id="string"),
        ],
    )
    def test_tolerance_must_be_finite(self, tol):
        with pytest.raises(ValueError, match="tol must be a finite positive number"):
            tangibility_check(self._report({1: 0.5, 2: -0.4}), tol=tol)

    def test_defaults_follow_neg_log_reference(self):
        assert neg_log_derivative(2) == pytest.approx(-zeta_int(2), rel=1e-14)
