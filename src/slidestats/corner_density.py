"""Corner densities and their entropy and slide functionals.

A corner density is a monotone nonincreasing probability density on an
interval whose closure contains 0.  Here it is analytic: a callable on its
domain, and the built-in catalog covers the standard examples with known
closed-form entropies.  The step density of a finite distance sequence is
not a :class:`CornerDensity`; the distance array itself stands for it.

The central quantity is the genial entropy ``G(f) = -1 - int f ln(x f) dx``
with the convention ``0 ln 0 = 0``.  It is invariant under rescaling of the
density's argument, which is what makes the derived statistics unit-free.
The slide function evaluates G along the normalized power family
``f^t / A(t)``, and ``G(f)`` is its value at ``t = 1``, through that one
route: a density whose mass the quadrature cannot resolve raises
:class:`DivergenceError` instead of returning a value.  For step densities
the slide function has an exact finite form, which the quadrature route is
tested against; :func:`step_slide_function` checks the distances and
evaluates that form with the slide curve of :mod:`slidestats.step_kernels`.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Any, Callable, NamedTuple

import numpy as np

from .errors import ConfigError, DivergenceError
from .geometry import as_descending
from .numerics import (
    EULER_GAMMA,
    Interval,
    _wanted_orders,
    digamma,
    integrate,
    log_gamma,
    zeta_int,
)
from .step_kernels import _slide_curve

__all__ = [
    "CornerDensity",
    "SlideFunctionEvaluation",
    "analytic_catalog",
    "genial_entropy",
    "neg_log_derivative",
    "neg_log_slide",
    "slide_function",
    "step_slide_function",
]

_MONOTONE_GRID = 1024

# Absolute tolerance of every quadrature here, tight enough that the
# nonnegativity check of a slide value stays meaningful.
_QUAD_TOL = 1e-10


class CornerDensity:
    """A monotone nonincreasing density on an interval anchored at 0.

    Attributes
    ----------
    fn : callable
        Pointwise evaluator (possibly unnormalized; see ``normalization``).
    domain : Interval
        Support, with ``domain.lo == 0``; the right endpoint may be inf.
    normalization : float
        Integral of ``fn`` over the domain; the density proper is
        ``fn / normalization``.
    known_entropy : float or None
        Closed-form genial entropy attached by the catalog, the ground truth
        when validating the quadrature route.
    """

    def __init__(
        self,
        fn: Callable[[float], float],
        domain: Interval,
        normalization: float,
        known_entropy: float | None = None,
    ) -> None:
        if domain.lo != 0.0:
            raise ValueError("a corner density's domain must be anchored at 0")
        if not (normalization > 0.0 and math.isfinite(normalization)):
            raise ValueError("normalization must be positive and finite")
        self.fn = fn
        self.domain = domain
        self.normalization = normalization
        self.known_entropy = known_entropy

    @classmethod
    def from_function(
        cls,
        fn: Callable[[float], float],
        domain: Interval,
        normalization: float | None = None,
        known_entropy: float | None = None,
    ) -> "CornerDensity":
        """Wrap an analytic density, integrating it if no normalization is given.

        ``fn`` is spot checked for being finite, nonnegative and
        nonincreasing on a fixed grid of the domain.
        """
        _check_monotone(fn, domain)
        if normalization is None:
            normalization = integrate(fn, domain, _QUAD_TOL)
            if normalization <= 0.0:
                raise ValueError("density must have positive integral")
        return cls(fn, domain, normalization, known_entropy)

    def density(self, x: float) -> float:
        """Normalized density value at ``x``."""
        return self.fn(x) / self.normalization


def _check_monotone(fn: Callable[[float], float], domain: Interval) -> None:
    # Spot check on a fixed grid; tolerates rounding-level wiggles only.
    u = np.arange(1, _MONOTONE_GRID + 1) / (_MONOTONE_GRID + 1.0)
    if domain.bounded:
        xs = domain.lo + u * (domain.hi - domain.lo)
    else:
        xs = domain.lo + u / (1.0 - u)
    prev = None
    for x in xs:
        val = fn(float(x))
        if not math.isfinite(val) or val < 0.0:
            raise ValueError(f"density is not finite and nonnegative at x = {x:.6g}")
        if prev is not None and val > prev * (1.0 + 1e-9) + 1e-12:
            raise ValueError(f"density is not nonincreasing near x = {x:.6g}")
        prev = val


def _check_slide_parameter(t: float) -> None:
    if not 0.0 <= t < math.inf:
        raise ValueError(f"slide parameter t must be a finite number >= 0, got {t!r}")


@dataclass(frozen=True)
class SlideFunctionEvaluation:
    """One evaluation of the slide function: parameter, area ``A(t)``, value."""

    t: float
    area: float
    value: float

    def __post_init__(self) -> None:
        _check_slide_parameter(self.t)
        if self.value < -1e-9:
            raise ValueError(
                f"slide value {self.value} violates entropy nonnegativity"
            )
        if self.t == 0.0 and abs(self.value) > 1e-9:
            raise ValueError("the slide function must vanish at t = 0")


def genial_entropy(density: CornerDensity) -> float:
    """Genial entropy ``G(f) = -1 - int f ln(x f) dx``, which is ``sigma(1)``.

    Raises what :func:`slide_function` raises: :class:`DivergenceError` when
    the quadrature cannot resolve the density's mass, ``ValueError`` when
    that mass vanishes.
    """
    return slide_function(density, 1.0).value


def step_slide_function(distances: Any, t: float) -> SlideFunctionEvaluation:
    """Exact slide function of the step density of ``distances`` at ``t``.

    The finite sum is evaluated in log space: the weights ``(d_r / d_1)^t``
    come from ``exp(t ln(d_r / d_1))`` and never exceed 1, so large ``t`` and
    widely spread distances do not overflow, and the value stays the exact
    sum up to rounding.  At ``t = 0`` the value is exactly 0.
    """
    _check_slide_parameter(t)
    values = as_descending(distances, positive=True).values
    return SlideFunctionEvaluation(t, *_slide_curve(values)(t))


def slide_function(density: CornerDensity, t: float) -> SlideFunctionEvaluation:
    """Slide function ``G(f^t / A(t))`` of a corner density at ``t >= 0``.

    Both the area ``A(t) = int f^t`` and the entropy integral run through
    adaptive quadrature to an absolute 1e-10, so the nonnegativity check
    stays meaningful; a divergent area raises :class:`DivergenceError`
    naming ``t``.
    """
    _check_slide_parameter(t)
    if t == 0.0:
        return SlideFunctionEvaluation(0.0, density.domain.measure, 0.0)
    z = density.normalization

    def power(x: float) -> float:
        fx = density.fn(x) / z
        if fx <= 0.0:
            return 0.0
        return fx**t

    try:
        area = integrate(power, density.domain, _QUAD_TOL)
    except DivergenceError as exc:
        raise DivergenceError(
            f"normalizing area A(t) diverges at t = {t:g}: {exc}"
        ) from exc

    def integrand(x: float) -> float:
        fx = density.fn(x) / z
        if fx <= 0.0:
            return 0.0
        u = fx**t / area
        if u <= 0.0:
            return 0.0
        return u * math.log(x * u)

    value = -1.0 - integrate(integrand, density.domain, _QUAD_TOL)
    if -1e-9 < value < 0.0:
        value = max(value, -_QUAD_TOL)
    return SlideFunctionEvaluation(t, area, value)


def neg_log_slide(t: float, power: float = 1.0) -> float:
    """Closed-form slide function of the density ``(-ln x)^power`` on (0, 1).

    Equals ``-1 + s - s psi(s) + ln Gamma(1 + s)`` with ``s = power * t``,
    where ``psi`` is the digamma function; 0 at ``t = 0`` by continuity.
    """
    _check_slide_parameter(t)
    if power <= 0.0:
        raise ValueError("power must be positive")
    s = power * t
    if s == 0.0:
        return 0.0
    return -1.0 + s - s * digamma(s) + log_gamma(1.0 + s)


def neg_log_derivative(order: int, power: float = 1.0) -> float:
    """Exact derivative of order ``order`` at 0 of the neg_log_power slide.

    Order 1 gives ``power``; higher orders alternate in sign as
    ``(-1)**(order+1) (order-1)! (order-1) zeta(order) * power**order``.
    These are the reference values behind the dimension estimates.  The
    order follows the package's order rule: a positive integer, no bool.
    """
    (order,) = _wanted_orders([order])
    if order == 1:
        return power
    sign = 1.0 if order % 2 == 1 else -1.0
    return sign * math.factorial(order - 1) * (order - 1) * zeta_int(order) * power**order


def _catalog_uniform(b: float) -> CornerDensity:
    return CornerDensity.from_function(
        lambda x: 1.0 / b,
        Interval(0.0, b),
        normalization=1.0,
        known_entropy=0.0,
    )


def _catalog_neg_log() -> CornerDensity:
    return CornerDensity.from_function(
        lambda x: -math.log(x),
        Interval(0.0, 1.0),
        normalization=1.0,
        known_entropy=EULER_GAMMA,
    )


def _catalog_exponential() -> CornerDensity:
    return CornerDensity.from_function(
        lambda x: math.exp(-x),
        Interval(0.0, math.inf),
        normalization=1.0,
        known_entropy=EULER_GAMMA,
    )


def _catalog_power(a: float) -> CornerDensity:
    return CornerDensity.from_function(
        lambda x: a * x ** (a - 1.0),
        Interval(0.0, 1.0),
        normalization=1.0,
        known_entropy=-math.log(a),
    )


def _catalog_half_normal() -> CornerDensity:
    scale = 2.0 / math.sqrt(math.pi)
    return CornerDensity.from_function(
        lambda x: scale * math.exp(-x * x),
        Interval(0.0, math.inf),
        normalization=1.0,
        known_entropy=0.5 * (-1.0 + EULER_GAMMA + math.log(math.pi)),
    )


def _catalog_half_cauchy() -> CornerDensity:
    return CornerDensity.from_function(
        lambda x: 2.0 / (math.pi * (1.0 + x * x)),
        Interval(0.0, math.inf),
        normalization=1.0,
        known_entropy=-1.0 + math.log(2.0) + math.log(math.pi),
    )


def _catalog_neg_log_power(r: float) -> CornerDensity:
    return CornerDensity.from_function(
        lambda x: (-math.log(x)) ** r,
        Interval(0.0, 1.0),
        normalization=math.exp(log_gamma(1.0 + r)),
        known_entropy=neg_log_slide(1.0, r),
    )


class _Param(NamedTuple):
    """A catalog parameter: the open range ``(lo, hi)`` and its default."""

    lo: float
    hi: float
    default: float | None = None


# The least r whose Gamma(1 + r), the neg_log_power normalization, overflows
# a double; (0, _R_MAX) holds exactly the r whose Gamma(1 + r) is finite.
_R_MAX = 170.62437695630274

_CATALOG: dict[str, tuple[Callable[..., CornerDensity], dict[str, _Param]]] = {
    "uniform": (_catalog_uniform, {"b": _Param(0.0, math.inf, 1.0)}),
    "neg_log": (_catalog_neg_log, {}),
    "exponential": (_catalog_exponential, {}),
    "power": (_catalog_power, {"a": _Param(0.0, 1.0)}),
    "half_normal": (_catalog_half_normal, {}),
    "half_cauchy": (_catalog_half_cauchy, {}),
    "neg_log_power": (_catalog_neg_log_power, {"r": _Param(0.0, _R_MAX)}),
}


def analytic_catalog(name: str, params: dict | None = None) -> CornerDensity:
    """Look up a named analytic corner density with its known entropy.

    Available names and parameter ranges: uniform (width ``b`` in
    ``(0, inf)``, default 1), neg_log, exponential, power (exponent ``a`` in
    ``(0, 1)``), half_normal, half_cauchy, and neg_log_power (exponent ``r``
    in ``(0, 170.624)``, where ``Gamma(1 + r)`` is a finite double).  Unknown
    names or parameters, a missing parameter without a default, and a value
    that is not a real number (``bool`` included) or not strictly inside its
    range (``inf`` and ``nan`` included) raise :class:`ConfigError`.
    """
    params = dict(params) if params else {}
    if name not in _CATALOG:
        raise ConfigError(
            f"unknown catalog density {name!r}; choose from {sorted(_CATALOG)}"
        )
    builder, declared = _CATALOG[name]
    extra = set(params) - set(declared)
    if extra:
        raise ConfigError(
            f"catalog density {name!r} does not accept parameters {sorted(extra)}"
        )
    values = {}
    for key, param in declared.items():
        bounds = f"({param.lo:g}, {param.hi:g})"
        value = params.get(key, param.default)
        if value is None:
            raise ConfigError(
                f"catalog density {name!r} needs a parameter {key} in {bounds}"
            )
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise ConfigError(
                f"catalog density {name!r} parameter {key} must be a number, "
                f"got {value!r}"
            )
        try:
            number = float(value)
        except OverflowError:  # an int beyond the double range
            number = math.inf
        if not param.lo < number < param.hi:
            raise ConfigError(
                f"catalog density {name!r} parameter {key} must lie in {bounds}, "
                f"got {value!r}"
            )
        values[key] = number
    return builder(**values)
