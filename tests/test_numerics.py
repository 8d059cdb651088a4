"""Quadrature, special functions, and the derivative oracle."""

import math

import numpy as np
import pytest
import scipy.special

from slidestats import (
    EULER_GAMMA,
    DerivativeEstimate,
    DivergenceError,
    Interval,
    digamma,
    integrate,
    log_gamma,
    right_derivatives,
    zeta_int,
)

UNIT = Interval(0.0, 1.0)
HALF_LINE = Interval(0.0, math.inf)


class TestInterval:
    def test_measure(self):
        assert Interval(1.0, 3.5).measure == 2.5
        assert not HALF_LINE.bounded
        assert UNIT.bounded

    def test_bad_endpoints(self):
        with pytest.raises(ValueError):
            Interval(1.0, 1.0)
        with pytest.raises(ValueError):
            Interval(2.0, 1.0)
        with pytest.raises(ValueError):
            Interval(math.inf, math.inf)
        with pytest.raises(ValueError):
            Interval(math.nan, 1.0)


class TestIntegrate:
    def test_polynomial(self):
        assert integrate(lambda x: x * x, UNIT) == pytest.approx(1 / 3, abs=1e-14)

    def test_log_singularity(self):
        assert integrate(lambda x: -math.log(x), UNIT) == pytest.approx(1.0, abs=1e-10)
        tight = integrate(lambda x: -math.log(x), UNIT, tol=1e-13)
        assert tight == pytest.approx(1.0, abs=1e-12)

    def test_power_singularity(self):
        a = 0.25
        value = integrate(lambda x: a * x ** (a - 1.0), UNIT)
        assert value == pytest.approx(1.0, abs=1e-9)

    def test_half_line_exponential(self):
        assert integrate(lambda x: math.exp(-x), HALF_LINE) == pytest.approx(1.0, abs=1e-12)
        assert integrate(lambda x: x * math.exp(-x), HALF_LINE) == pytest.approx(1.0, abs=1e-11)

    def test_half_line_heavy_tail(self):
        value = integrate(lambda x: 2.0 / (math.pi * (1.0 + x * x)), HALF_LINE)
        assert value == pytest.approx(1.0, abs=1e-10)

    def test_shifted_half_line(self):
        value = integrate(lambda x: math.exp(-(x - 2.0)), Interval(2.0, math.inf))
        assert value == pytest.approx(1.0, abs=1e-11)

    def test_deterministic(self):
        f = lambda x: math.sin(3.0 * x) ** 2 * math.exp(-x)
        first = integrate(f, HALF_LINE)
        second = integrate(f, HALF_LINE)
        assert first == second

    def test_divergent_integrand(self):
        with pytest.raises(DivergenceError) as info:
            integrate(lambda x: 1.0 / x, UNIT)
        assert "x = " in str(info.value) or "sub-interval" in str(info.value)

    def test_overflowing_integrand_diverges(self):
        with pytest.raises(DivergenceError):
            integrate(lambda x: (0.25 / math.sqrt(x)) ** 2.0, UNIT)

    def test_node_on_a_pole_is_an_infinite_value(self):
        # the Kronrod centre of [0, 1] is exactly 0.5, where this divides by 0
        with pytest.raises(DivergenceError):
            integrate(lambda x: 1.0 / (x - 0.5), UNIT)

    def test_infinite_value_at_one_node_is_refined_away(self):
        # only the Kronrod centre of [0, 1] hits the infinite value; once it is
        # bisected away the total error must be finite again
        assert integrate(lambda x: math.inf if x == 0.5 else 1.0, UNIT) == 1.0

    def test_divergence_message_has_no_nan(self):
        # near 0 the sums of 1 / x overflow, and inf - inf is an infinite error
        with pytest.raises(DivergenceError, match="total inf") as info:
            integrate(lambda x: 1.0 / x, UNIT)
        assert "nan" not in str(info.value)

    def test_budget_exhaustion(self):
        wiggly = lambda x: math.sin(1000.0 * x)
        with pytest.raises(DivergenceError):
            integrate(wiggly, UNIT, tol=1e-15, max_refinements=2)


class TestSpecialFunctions:
    GRID = [0.07, 0.5, 1.0, 1.5, 2.0, 3.7, 11.99, 12.0, 25.0, 100.3]

    def test_log_gamma_against_stdlib(self):
        for x in self.GRID:
            assert log_gamma(x) == pytest.approx(math.lgamma(x), rel=1e-13, abs=1e-13)

    def test_log_gamma_at_integers(self):
        assert log_gamma(1.0) == pytest.approx(0.0, abs=1e-14)
        assert log_gamma(2.0) == pytest.approx(0.0, abs=1e-14)
        assert log_gamma(5.0) == pytest.approx(math.log(24.0), rel=1e-14)

    def test_digamma_against_scipy(self):
        for x in self.GRID:
            assert digamma(x) == pytest.approx(
                float(scipy.special.psi(x)), rel=1e-12, abs=1e-12
            )

    def test_digamma_at_one(self):
        assert digamma(1.0) == pytest.approx(-EULER_GAMMA, abs=1e-14)

    def test_positive_domain_required(self):
        with pytest.raises(ValueError):
            log_gamma(0.0)
        with pytest.raises(ValueError):
            digamma(-1.0)

    def test_zeta_even_closed_forms(self):
        assert zeta_int(2) == pytest.approx(math.pi**2 / 6.0, rel=1e-14)
        assert zeta_int(4) == pytest.approx(math.pi**4 / 90.0, rel=1e-14)

    def test_zeta_against_scipy(self):
        for n in range(2, 30):
            assert zeta_int(n) == pytest.approx(
                float(scipy.special.zeta(n)), rel=1e-13
            )

    def test_zeta_direct_sum_regime(self):
        assert zeta_int(60) == pytest.approx(float(scipy.special.zeta(60)), rel=1e-15)
        assert zeta_int(200) == 1.0

    def test_zeta_domain(self):
        with pytest.raises(ValueError):
            zeta_int(1)


class TestRightDerivatives:
    def test_polynomial(self):
        ests = right_derivatives(lambda t: 2.0 + 3.0 * t - t**2 + 0.5 * t**3, 4)
        truth = [3.0, -2.0, 3.0, 0.0]
        tols = [1e-9, 1e-8, 1e-7, 1e-7]
        for est, target, tol in zip(ests, truth, tols):
            assert est.value == pytest.approx(target, abs=tol)

    def test_exponential(self):
        ests = right_derivatives(math.exp, 4)
        tols = [1e-9, 1e-8, 1e-6, 1e-4]
        for est, tol in zip(ests, tols):
            assert est.value == pytest.approx(1.0, abs=tol)
            assert est.reliable

    def test_sine(self):
        ests = right_derivatives(math.sin, 4)
        truth = [1.0, 0.0, -1.0, 0.0]
        tols = [1e-9, 1e-8, 1e-6, 1e-4]
        for est, target, tol in zip(ests, truth, tols):
            assert est.value == pytest.approx(target, abs=tol)

    def test_error_estimates_are_honest(self):
        for g, truth in ((math.exp, [1.0] * 4), (math.sin, [1.0, 0.0, -1.0, 0.0])):
            for est, target in zip(right_derivatives(g, 4), truth):
                actual = abs(est.value - target)
                assert actual <= max(100.0 * est.error, 1e-9)

    def test_divergent_derivative_flagged(self):
        ests = right_derivatives(lambda t: t**1.5, 2, tol=1e-6)
        assert not ests[1].reliable
        assert ests[1].error > 0.1

    def test_tolerance_sets_reliability(self):
        ests = right_derivatives(math.exp, 2, tol=1e-30)
        assert not all(est.reliable for est in ests)
        ests = right_derivatives(math.exp, 2, tol=1e-3)
        assert all(est.reliable for est in ests)

    def test_order_bounds(self):
        for max_order in (0, 5, 2.5, True):
            with pytest.raises(ValueError):
                right_derivatives(math.exp, max_order)

    def test_estimate_is_frozen(self):
        est = right_derivatives(math.exp, 1)[0]
        assert isinstance(est, DerivativeEstimate)
        with pytest.raises(Exception):
            est.value = 0.0
