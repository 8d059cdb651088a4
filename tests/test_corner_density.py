"""Corner densities, genial entropy, and the slide function."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from slidestats import (
    ConfigError,
    CornerDensity,
    DivergenceError,
    EULER_GAMMA,
    Interval,
    SlideFunctionEvaluation,
    analytic_catalog,
    digamma,
    genial_entropy,
    integrate,
    log_gamma,
    neg_log_derivative,
    neg_log_slide,
    right_derivatives,
    slide_function,
    step_slide_function,
    zeta_int,
)
from slidestats.cli import _ENTROPY_DENSITIES
from slidestats.corner_density import _R_MAX, _slide_curve
from conftest import random_descending


def _xlogx(z):
    out = np.zeros_like(z)
    mask = z > 0.0
    out[mask] = z[mask] * np.log(z[mask])
    return out


def step_slide_reference(distances, t, dtype=float):
    """The slide sum ``sum_r xlogx((r-1) p_r) - xlogx(r p_r)`` over masks."""
    values = np.sort(np.asarray(distances, dtype=dtype))[::-1]
    if t == 0.0:
        return 0.0
    w = dtype(t) * np.log(values)
    q = np.exp(w - w.max())
    p = q / q.sum()
    i = np.arange(1, values.size + 1, dtype=dtype)
    value = float(np.sum(_xlogx((i - 1.0) * p) - _xlogx(i * p)))
    if -1e-9 < value < 0.0:
        value = max(value, -1e-15)
    return value


WIDE_LONG_DOUBLE = np.finfo(np.longdouble).eps < np.finfo(float).eps


class TestCatalog:
    CASES = [
        ("uniform", {}, 0.0),
        ("uniform", {"b": 3.0}, 0.0),
        ("neg_log", {}, EULER_GAMMA),
        ("exponential", {}, EULER_GAMMA),
        ("power", {"a": 0.25}, -math.log(0.25)),
        ("power", {"a": 0.5}, -math.log(0.5)),
        ("power", {"a": 0.9}, -math.log(0.9)),
        ("half_normal", {}, 0.5 * (-1.0 + EULER_GAMMA + math.log(math.pi))),
        ("half_cauchy", {}, -1.0 + math.log(2.0) + math.log(math.pi)),
    ]

    @pytest.mark.parametrize("name,params,expected", CASES)
    def test_known_entropy_matches_quadrature(self, name, params, expected):
        density = analytic_catalog(name, params)
        assert density.known_entropy == pytest.approx(expected, abs=1e-12)
        assert genial_entropy(density) == pytest.approx(expected, abs=1e-6)

    def test_neg_log_power_entropy(self):
        for r in (0.5, 2.0):
            density = analytic_catalog("neg_log_power", {"r": r})
            assert density.known_entropy == pytest.approx(neg_log_slide(1.0, r), abs=1e-14)
            assert genial_entropy(density) == pytest.approx(density.known_entropy, abs=1e-6)

    def test_unknown_name(self):
        with pytest.raises(ConfigError):
            analytic_catalog("gaussian")

    def test_parameter_validation(self):
        with pytest.raises(ConfigError):
            analytic_catalog("power")
        with pytest.raises(ConfigError):
            analytic_catalog("power", {"a": 1.5})
        with pytest.raises(ConfigError):
            analytic_catalog("uniform", {"c": 1.0})
        with pytest.raises(ConfigError):
            analytic_catalog("neg_log_power", {"r": -1.0})

    @pytest.mark.parametrize(
        "name, key, value, bounds",
        [
            ("uniform", "b", math.inf, "(0, inf)"),
            ("uniform", "b", math.nan, "(0, inf)"),
            ("uniform", "b", 0.0, "(0, inf)"),
            ("uniform", "b", 10**400, "(0, inf)"),
            ("power", "a", 0.0, "(0, 1)"),
            ("power", "a", 1, "(0, 1)"),
            ("power", "a", math.nan, "(0, 1)"),
            ("neg_log_power", "r", math.inf, "(0, 170.624)"),
            ("neg_log_power", "r", 200, "(0, 170.624)"),
            ("neg_log_power", "r", _R_MAX, "(0, 170.624)"),
        ],
        ids=lambda value: "10**400" if value == 10**400 else None,
    )
    def test_values_outside_the_open_range(self, name, key, value, bounds):
        message = (
            f"catalog density {name!r} parameter {key} must lie in {bounds}, "
            f"got {value!r}"
        )
        with pytest.raises(ConfigError) as info:
            analytic_catalog(name, {key: value})
        assert str(info.value) == message

    def test_missing_parameter_names_its_range(self):
        with pytest.raises(ConfigError) as info:
            analytic_catalog("neg_log_power")
        assert str(info.value) == (
            "catalog density 'neg_log_power' needs a parameter r in (0, 170.624)"
        )

    def test_r_max_is_where_the_normalization_overflows(self):
        below = math.nextafter(_R_MAX, 0.0)
        assert math.isfinite(analytic_catalog("neg_log_power", {"r": below}).normalization)
        with pytest.raises(OverflowError):
            math.exp(log_gamma(1.0 + _R_MAX))


class TestCornerDensity:
    def test_domain_must_anchor_at_zero(self):
        with pytest.raises(ValueError):
            CornerDensity(lambda x: 1.0, Interval(1.0, 2.0), 1.0)

    def test_monotone_spot_check(self):
        with pytest.raises(ValueError):
            CornerDensity.from_function(lambda x: x, Interval(0.0, 1.0))
        with pytest.raises(ValueError):
            CornerDensity.from_function(lambda x: -1.0, Interval(0.0, 1.0))

    def test_from_function_normalizes_by_quadrature(self):
        density = CornerDensity.from_function(
            lambda x: 2.0 * math.exp(-x), Interval(0.0, math.inf)
        )
        assert density.normalization == pytest.approx(2.0, abs=1e-9)
        assert density.density(0.0) == pytest.approx(1.0, abs=1e-9)

    def test_step_density(self):
        density = CornerDensity.from_distances([1.0, 2.0, 4.0])
        assert density.is_step
        assert density.normalization == pytest.approx(7.0 / 3.0)
        # descending layout: largest value on the first cell
        assert density.fn(0.0) == 4.0
        assert density.fn(0.5) == 2.0
        assert density.fn(0.99) == 1.0
        assert density.fn(1.0) == 0.0

    def test_step_density_rejects_zero(self):
        with pytest.raises(ValueError):
            CornerDensity.from_distances([1.0, 0.0])


class TestGenialEntropy:
    # G of each sequence by the exact finite sum, pinned bit for bit
    STEP_VALUES = [
        ([2.0, 1.0], "0x1.65343dadc38aep-3"),
        ([5.0, 2.0, 1.0], "0x1.428ca570dbc1cp-2"),
        ([3.0, 3.0, 3.0], "0x0.0p+0"),
        ([1e300, 1.0, 1e-300], "0x0.0p+0"),
        ([0.7, 0.5, 0.5, 0.2, 0.01], "0x1.c68c55ba8e0dcp-3"),
        ([4.0, 1.0, 0.25, 0.0625, 0.015625], "0x1.6f20c46055270p-2"),
    ]

    @pytest.mark.parametrize("row", _ENTROPY_DENSITIES, ids=repr)
    def test_catalog_entropy_is_the_slide_function_at_one(self, row):
        density = analytic_catalog(*row)
        assert genial_entropy(density) == slide_function(density, 1.0).value

    def test_step_entropy_is_the_slide_function_at_one(self, rng):
        for d, expected in self.STEP_VALUES:
            density = CornerDensity.from_distances(d)
            assert genial_entropy(density) == float.fromhex(expected)
        for _ in range(50):
            d = random_descending(rng, int(rng.integers(2, 300)))
            density = CornerDensity.from_distances(d)
            g = genial_entropy(density)
            assert g == slide_function(density, 1.0).value
            assert g == _slide_curve(d)(1.0).value

    @pytest.mark.parametrize(
        "name, params",
        [
            ("power", {"a": 1e-50}),
            ("power", {"a": 1e-300}),
            ("power", {"a": 0.03}),
            ("neg_log_power", {"r": 50.0}),
        ],
        ids=str,
    )
    def test_unresolvable_mass_diverges(self, name, params):
        # nearly all of the mass sits where the quadrature cannot resolve it
        with pytest.raises(DivergenceError):
            genial_entropy(analytic_catalog(name, params))

    def test_vanishing_mass_is_not_an_entropy(self):
        # the stated normalization 1 is false: the density has no mass
        with pytest.raises(ValueError, match="nonnegativity"):
            genial_entropy(CornerDensity(lambda x: 0.0, Interval(0.0, 1.0), 1.0))

    def test_step_entropy_matches_quadrature(self, rng):
        d = random_descending(rng, 9)
        step = CornerDensity.from_distances(d)
        exact = genial_entropy(step)
        analytic = CornerDensity.from_function(
            step.fn,
            Interval(0.0, 1.0),
            normalization=step.normalization,
            check_monotone=False,
        )
        assert genial_entropy(analytic, tol=1e-9) == pytest.approx(exact, abs=1e-6)

    def test_nonnegative_on_random_steps(self, rng):
        for _ in range(200):
            d = random_descending(rng, int(rng.integers(2, 60)))
            assert genial_entropy(CornerDensity.from_distances(d)) >= -1e-9

    def test_scale_invariance(self, rng):
        d = random_descending(rng, 8)
        base = CornerDensity.from_distances(d)
        exact = genial_entropy(base)
        for lam in (0.5, 3.0, 100.0):
            scaled = CornerDensity.from_function(
                lambda x, lam=lam: base.density(x / lam) / lam,
                Interval(0.0, lam),
                normalization=1.0,
                check_monotone=False,
            )
            assert genial_entropy(scaled, tol=1e-9) == pytest.approx(exact, abs=1e-6)

    def test_inverse_pair_sums_to_genial_entropy(self):
        # differential entropies of exp(-x) and its inverse -log(x)
        h_exp = -integrate(lambda x: math.exp(-x) * (-x), Interval(0.0, math.inf))
        h_log = -integrate(
            lambda x: -math.log(x) * math.log(-math.log(x)), Interval(0.0, 1.0)
        )
        assert h_exp + h_log == pytest.approx(EULER_GAMMA, abs=1e-6)

    def test_entropy_bound_h_at_least_one_plus_mean_log(self):
        for name, params in (
            ("neg_log", {}),
            ("exponential", {}),
            ("power", {"a": 0.5}),
            ("half_normal", {}),
        ):
            density = analytic_catalog(name, params)
            h = -integrate(
                lambda x: density.density(x) * math.log(max(density.density(x), 1e-300)),
                density.domain,
            )
            mean_log = integrate(
                lambda x: density.density(x) * math.log(x), density.domain
            )
            assert h >= 1.0 + mean_log - 1e-8
            # the gap is exactly the genial entropy
            assert h - 1.0 - mean_log == pytest.approx(
                density.known_entropy, abs=1e-6
            )


class TestStepSlide:
    def test_hand_value(self):
        result = step_slide_function([2.0, 1.0], 1.0)
        assert result.area == pytest.approx(1.5, abs=1e-15)
        assert result.value == pytest.approx(
            math.log(3.0) - 4.0 * math.log(2.0) / 3.0, abs=1e-14
        )

    def test_zero_is_exact(self):
        result = step_slide_function([5.0, 2.0, 1.0], 0.0)
        assert result.t == 0.0
        assert result.area == 1.0
        assert result.value == 0.0

    def test_matches_entropy_at_one(self, rng):
        d = random_descending(rng, 17)
        entropy = genial_entropy(CornerDensity.from_distances(d / d.mean()))
        assert step_slide_function(d, 1.0).value == pytest.approx(entropy, abs=1e-12)

    def test_scale_invariant(self, rng):
        d = random_descending(rng, 23)
        for lam in (0.5, 3.0, 100.0):
            for t in (0.3, 1.0, 2.7):
                assert step_slide_function(lam * d, t).value == pytest.approx(
                    step_slide_function(d, t).value, abs=1e-12
                )

    def test_constant_sequence_slides_to_zero(self):
        for t in (0.0, 0.5, 2.0):
            assert step_slide_function([3.0, 3.0, 3.0], t).value == pytest.approx(
                0.0, abs=1e-14
            )

    def test_extreme_exponent_is_stable(self):
        # logsumexp keeps t ln d in range even when d**t overflows
        value = step_slide_function([1e8, 1.0], 50.0).value
        assert math.isfinite(value)
        assert value >= 0.0

    def test_spread_beyond_the_double_range(self):
        # d_3 / d_1 = 1e-600 underflows, but ln(d_3) - ln(d_1) does not
        d = [1e300, 1.0, 1e-300]
        for t in (3.125e-4, 0.01, 1.0, 50.0):
            assert step_slide_function(d, t).value == pytest.approx(
                step_slide_reference(d, t), rel=1e-12, abs=1e-13
            )

    def test_negative_t_rejected(self):
        for t in (-0.5, math.nan, math.inf):
            with pytest.raises(ValueError, match="finite number >= 0"):
                step_slide_function([2.0, 1.0], t)


# Log distances spread up to exp(+-30); rounding them to few decimals makes ties.
LOG_DISTANCES = st.lists(st.floats(-30.0, 30.0), min_size=2, max_size=300)
CURVE_TS = (0.0, 3.125e-4, 0.01, 1.0, 50.0)


class TestSlideCurve:
    # Over 2*10^4 random draws of this kind the curve stayed within 3.1e-15
    # of the long-double sum, and the float sum within 2.5e-14; the float
    # sum also rounds t ln(d_r) at eps t |ln d_r|, which the slack covers.
    @settings(deadline=None, max_examples=150)
    @given(logs=LOG_DISTANCES, decimals=st.sampled_from([None, 0, 1]))
    @example(logs=[1.0, 0.0], decimals=None)
    @example(logs=[0.3, 0.3, 0.3], decimals=None)
    @example(logs=[30.0, -30.0], decimals=None)
    @example(logs=[30.0, 29.99, -30.0], decimals=None)
    @example(logs=[0.7, 0.0, 0.0], decimals=None)
    @example(logs=[0.0, -2.220446049250313e-16], decimals=None)
    def test_matches_reference_sum(self, logs, decimals):
        if decimals is not None:
            logs = np.round(logs, decimals)
        d = np.sort(np.exp(logs))[::-1]
        curve = _slide_curve(d)
        spread = float(np.abs(np.log(d)).max())
        for t in CURVE_TS:
            result = curve(t)
            slack = 16.0 * np.finfo(float).eps * t * spread
            assert result.value == pytest.approx(
                step_slide_reference(d, t), rel=1e-12, abs=1e-13 + slack
            )
            if WIDE_LONG_DOUBLE:
                assert result.value == pytest.approx(
                    step_slide_reference(d, t, np.longdouble), rel=1e-13, abs=1e-14
                )
            assert step_slide_function(d, t) == result

class TestSlideFunction:
    T_GRID = (0.1, 0.25, 0.5, 1.0, 2.0)

    def test_neg_log_closed_form(self):
        density = analytic_catalog("neg_log")
        for t in self.T_GRID:
            closed = -1.0 + t - t * digamma(t) + log_gamma(1.0 + t) if t > 0 else 0.0
            assert neg_log_slide(t) == pytest.approx(closed, abs=1e-12)
            assert slide_function(density, t).value == pytest.approx(closed, abs=1e-6)

    def test_neg_log_area_is_gamma(self):
        density = analytic_catalog("neg_log")
        for t in (0.5, 1.0, 2.0):
            result = slide_function(density, t)
            assert result.area == pytest.approx(
                math.exp(log_gamma(1.0 + t)), rel=1e-8
            )

    def test_step_density_delegates(self, rng):
        d = random_descending(rng, 11)
        density = CornerDensity.from_distances(d)
        for t in (0.4, 1.3):
            assert slide_function(density, t).value == pytest.approx(
                step_slide_function(d, t).value, abs=1e-12
            )

    def test_uniform_is_identically_zero(self):
        density = analytic_catalog("uniform", {"b": 3.0})
        for t in (0.2, 1.0, 1.7):
            assert slide_function(density, t).value == pytest.approx(0.0, abs=1e-8)

    def test_divergent_area(self):
        density = analytic_catalog("power", {"a": 0.5})
        with pytest.raises(DivergenceError) as info:
            slide_function(density, 2.0)
        assert "A(t)" in str(info.value)

    def test_evaluation_validation(self):
        for t in (-1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="finite number >= 0"):
                SlideFunctionEvaluation(t, 1.0, 0.5)
            with pytest.raises(ValueError, match="finite number >= 0"):
                slide_function(analytic_catalog("half_normal"), t)
        with pytest.raises(ValueError):
            SlideFunctionEvaluation(1.0, 1.0, -0.5)
        with pytest.raises(ValueError):
            SlideFunctionEvaluation(0.0, 1.0, 0.5)

    def test_divergent_first_derivative_is_flagged(self):
        # psi1 is infinite here, so the ladder must refuse to certify
        density = CornerDensity.from_function(
            lambda x: math.exp(-1.0 / (1.0 - x) ** 2) if x < 1.0 else 0.0,
            Interval(0.0, 1.0),
        )
        sigma = lambda t: slide_function(density, t, tol=1e-9).value if t > 0 else 0.0
        est = right_derivatives(sigma, 1, tol=1e-4)[0]
        assert not est.reliable


class TestNegLogDerivatives:
    def test_first_orders(self):
        assert neg_log_derivative(1) == 1.0
        assert neg_log_derivative(2) == pytest.approx(-zeta_int(2), rel=1e-14)
        assert neg_log_derivative(3) == pytest.approx(4.0 * zeta_int(3), rel=1e-14)
        assert neg_log_derivative(4) == pytest.approx(-18.0 * zeta_int(4), rel=1e-14)

    def test_power_scaling(self):
        for order in (1, 2, 3):
            assert neg_log_derivative(order, power=0.5) == pytest.approx(
                neg_log_derivative(order) * 0.5**order, rel=1e-14
            )

    def test_matches_numeric_slide_derivatives(self):
        ests = right_derivatives(neg_log_slide, 2)
        assert ests[0].value == pytest.approx(1.0, abs=1e-9)
        assert ests[1].value == pytest.approx(-zeta_int(2), abs=1e-7)

    def test_order_validation(self):
        for order in (0, 2.5, True):
            with pytest.raises(ValueError):
                neg_log_derivative(order)
