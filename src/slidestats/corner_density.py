"""Corner densities and their entropy and slide functionals.

A corner density is a monotone nonincreasing probability density on an
interval whose closure contains 0.  Two representations coexist here:

* analytic densities given by a callable on their domain (the built-in
  catalog covers the standard examples with known closed-form entropies),
* step densities built from a finite nonincreasing distance sequence D,
  constant on the n equal subintervals of [0, 1).

The central quantity is the genial entropy ``G(f) = -1 - int f ln(x f) dx``
with the convention ``0 ln 0 = 0``.  It is invariant under rescaling of the
density's argument, which is what makes the derived statistics unit-free.
The slide function evaluates G along the normalized power family
``f^t / A(t)``; for step densities it has an exact finite form, which the
quadrature route is tested against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from .errors import ConfigError, DivergenceError
from .geometry import as_descending
from .numerics import (
    EULER_GAMMA,
    Interval,
    digamma,
    integrate,
    log_gamma,
    zeta_int,
)

__all__ = [
    "CornerDensity",
    "EmpiricalCdfRestriction",
    "SlideFunctionEvaluation",
    "analytic_catalog",
    "empirical_cdf",
    "genial_entropy",
    "neg_log_derivative",
    "neg_log_slide",
    "slide_function",
    "step_slide_function",
]

_MONOTONE_GRID = 1024


def _xlogx(z: np.ndarray) -> np.ndarray:
    out = np.zeros_like(z)
    mask = z > 0.0
    out[mask] = z[mask] * np.log(z[mask])
    return out


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
    distances : ndarray or None
        For step densities, the underlying nonincreasing sequence.
    known_entropy, known_slide, known_derivatives
        Optional closed forms attached by the catalog, used as ground truth
        when validating the numerical routes.
    """

    def __init__(
        self,
        fn: Callable[[float], float],
        domain: Interval,
        normalization: float,
        distances: np.ndarray | None = None,
        name: str | None = None,
        params: dict | None = None,
        known_entropy: float | None = None,
        known_slide: Callable[[float], float] | None = None,
        known_derivatives: Callable[[int], float] | None = None,
    ) -> None:
        if domain.lo != 0.0:
            raise ValueError("a corner density's domain must be anchored at 0")
        if not (normalization > 0.0 and math.isfinite(normalization)):
            raise ValueError("normalization must be positive and finite")
        self.fn = fn
        self.domain = domain
        self.normalization = normalization
        self.distances = distances
        self.name = name
        self.params = dict(params) if params else {}
        self.known_entropy = known_entropy
        self.known_slide = known_slide
        self.known_derivatives = known_derivatives

    @classmethod
    def from_function(
        cls,
        fn: Callable[[float], float],
        domain: Interval,
        normalization: float | None = None,
        check_monotone: bool = True,
        tol: float = 1e-10,
        **metadata: Any,
    ) -> "CornerDensity":
        """Wrap an analytic density, integrating it if no normalization is given."""
        if check_monotone:
            _check_monotone(fn, domain)
        if normalization is None:
            normalization = integrate(fn, domain, tol)
            if normalization <= 0.0:
                raise ValueError("density must have positive integral")
        return cls(fn, domain, normalization, **metadata)

    @classmethod
    def from_distances(cls, distances: Any) -> "CornerDensity":
        """Step density of a nonincreasing positive sequence on [0, 1)."""
        values = as_descending(distances, positive=True).values
        n = values.size

        def fn(x: float) -> float:
            if 0.0 <= x < 1.0:
                return float(values[min(int(n * x), n - 1)])
            return 0.0

        return cls(
            fn,
            Interval(0.0, 1.0),
            normalization=float(values.mean()),
            distances=values,
        )

    @property
    def is_step(self) -> bool:
        return self.distances is not None

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


@dataclass(frozen=True)
class SlideFunctionEvaluation:
    """One evaluation of the slide function: parameter, area ``A(t)``, value."""

    t: float
    area: float
    value: float

    def __post_init__(self) -> None:
        if self.t < 0.0:
            raise ValueError("slide parameter must be nonnegative")
        if self.value < -1e-9:
            raise ValueError(
                f"slide value {self.value} violates entropy nonnegativity"
            )
        if self.t == 0.0 and abs(self.value) > 1e-9:
            raise ValueError("the slide function must vanish at t = 0")


def genial_entropy(density: CornerDensity, tol: float = 1e-9) -> float:
    """Genial entropy ``G(f) = -1 - int f ln(x f) dx`` of a corner density.

    Step densities are normalized to unit mean internally and evaluated by
    the exact finite sum; analytic densities go through adaptive quadrature
    with absolute target ``tol``.
    """
    if density.is_step:
        return _step_entropy(density.distances)
    z = density.normalization

    def integrand(x: float) -> float:
        fx = density.fn(x) / z
        if fx <= 0.0:
            return 0.0
        return fx * math.log(x * fx)

    return -1.0 - integrate(integrand, density.domain, 0.5 * tol)


def _step_entropy(values: np.ndarray) -> float:
    n = values.size
    scaled = values / values.mean()
    edges = np.arange(n + 1) / n
    left = _xlogx(edges[:-1] * scaled)
    right = _xlogx(edges[1:] * scaled)
    return float(np.sum(left - right))


def step_slide_function(distances: Any, t: float) -> SlideFunctionEvaluation:
    """Exact slide function of the step density of ``distances`` at ``t``.

    Weights are formed in log space, so large ``t`` and widely spread
    distances do not overflow.  At ``t = 0`` the value is exactly 0.
    """
    values = as_descending(distances, positive=True).values
    if t < 0.0:
        raise ValueError("slide parameter must be nonnegative")
    n = values.size
    if t == 0.0:
        return SlideFunctionEvaluation(0.0, 1.0, 0.0)
    w = t * np.log(values)
    shift = w.max()
    q = np.exp(w - shift)
    total = q.sum()
    p = q / total
    try:
        area = math.exp(shift + math.log(total) - math.log(n))
    except OverflowError:
        area = math.inf  # the value is still exact; only the report overflows
    i = np.arange(1, n + 1, dtype=float)
    value = float(np.sum(_xlogx((i - 1.0) * p) - _xlogx(i * p)))
    if -1e-9 < value < 0.0:
        value = max(value, -1e-15)  # exact sum; clip rounding residue only
    return SlideFunctionEvaluation(t, area, value)


def slide_function(
    density: CornerDensity, t: float, tol: float = 1e-9
) -> SlideFunctionEvaluation:
    """Slide function ``G(f^t / A(t))`` of a corner density at ``t >= 0``.

    For analytic densities both the area ``A(t) = int f^t`` and the entropy
    integral run through adaptive quadrature (at no looser than 1e-10 so the
    nonnegativity check stays meaningful); a divergent area raises
    :class:`DivergenceError` naming ``t``.  Step densities use the exact
    finite form.
    """
    if t < 0.0:
        raise ValueError("slide parameter must be nonnegative")
    if density.is_step:
        return step_slide_function(density.distances, t)
    if t == 0.0:
        return SlideFunctionEvaluation(0.0, density.domain.measure, 0.0)
    z = density.normalization
    quad_tol = min(tol, 1e-10)

    def power(x: float) -> float:
        fx = density.fn(x) / z
        if fx <= 0.0:
            return 0.0
        return fx**t

    try:
        area = integrate(power, density.domain, quad_tol)
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

    value = -1.0 - integrate(integrand, density.domain, quad_tol)
    if -1e-9 < value < 0.0:
        value = max(value, -quad_tol)
    return SlideFunctionEvaluation(t, area, value)


@dataclass(eq=False)
class EmpiricalCdfRestriction:
    """The cdf of a distance sequence, restricted to its jump structure.

    ``jump_locations`` are the distinct distance values in ascending order;
    ``level_values`` are the cdf levels reached at each jump.  Both evaluate
    right-continuously.
    """

    jump_locations: np.ndarray
    level_values: np.ndarray

    def __post_init__(self) -> None:
        jumps = np.asarray(self.jump_locations, dtype=float)
        levels = np.asarray(self.level_values, dtype=float)
        if jumps.ndim != 1 or jumps.size == 0 or jumps.size != levels.size:
            raise ValueError("jump locations and levels must match and be nonempty")
        if np.any(np.diff(jumps) <= 0.0) or np.any(jumps < 0.0):
            raise ValueError("jump locations must be nonnegative and increasing")
        if np.any(np.diff(levels) <= 0.0) or levels[0] <= 0.0 or levels[-1] != 1.0:
            raise ValueError("levels must increase through (0, 1] and end at 1")
        self.jump_locations = jumps
        self.level_values = levels

    def __call__(self, y):
        """Fraction of distances ``<= y`` (vectorized, right-continuous)."""
        idx = np.searchsorted(self.jump_locations, y, side="right")
        padded = np.concatenate(([0.0], self.level_values))
        return padded[idx]

    def survival(self, y):
        """``1 - L(y)``, itself a corner density when distances are scaled."""
        return 1.0 - self(y)

    def generalized_inverse(self, x):
        """``inf { y >= 0 : 1 - L(y) <= x }`` for ``0 <= x < 1``.

        This recovers the step density of the underlying sequence: the
        inverse at ``x`` equals the ``ceil((x n))``-th largest distance.
        """
        x = np.asarray(x, dtype=float)
        if np.any(x < 0.0) or np.any(x >= 1.0):
            raise ValueError("the generalized inverse needs 0 <= x < 1")
        idx = np.searchsorted(self.level_values, 1.0 - x, side="left")
        return self.jump_locations[idx]


def empirical_cdf(distances: Any) -> EmpiricalCdfRestriction:
    """Empirical cdf restriction of a distance sequence (zeros permitted)."""
    values = as_descending(distances).values
    jumps, counts = np.unique(values, return_counts=True)
    levels = np.cumsum(counts) / values.size
    return EmpiricalCdfRestriction(jumps, levels)


def neg_log_slide(t: float, power: float = 1.0) -> float:
    """Closed-form slide function of the density ``(-ln x)^power`` on (0, 1).

    Equals ``-1 + s - s psi(s) + ln Gamma(1 + s)`` with ``s = power * t``,
    where ``psi`` is the digamma function; 0 at ``t = 0`` by continuity.
    """
    if t < 0.0:
        raise ValueError("slide parameter must be nonnegative")
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
    These are the reference values behind the dimension estimates.
    """
    if order < 1:
        raise ValueError("derivative order must be at least 1")
    if order == 1:
        return power
    sign = 1.0 if order % 2 == 1 else -1.0
    return sign * math.factorial(order - 1) * (order - 1) * zeta_int(order) * power**order


def _catalog_uniform(params: dict) -> CornerDensity:
    width = params.get("b", 1.0)
    if not width > 0.0:
        raise ConfigError(f"uniform width must be positive, got {width}")
    return CornerDensity.from_function(
        lambda x: 1.0 / width,
        Interval(0.0, width),
        normalization=1.0,
        name="uniform",
        params={"b": width},
        known_entropy=0.0,
    )


def _catalog_neg_log(params: dict) -> CornerDensity:
    return CornerDensity.from_function(
        lambda x: -math.log(x),
        Interval(0.0, 1.0),
        normalization=1.0,
        name="neg_log",
        params={},
        known_entropy=EULER_GAMMA,
        known_slide=neg_log_slide,
        known_derivatives=neg_log_derivative,
    )


def _catalog_exponential(params: dict) -> CornerDensity:
    return CornerDensity.from_function(
        lambda x: math.exp(-x),
        Interval(0.0, math.inf),
        normalization=1.0,
        name="exponential",
        params={},
        known_entropy=EULER_GAMMA,
    )


def _catalog_power(params: dict) -> CornerDensity:
    exponent = params.get("a")
    if exponent is None or not 0.0 < exponent < 1.0:
        raise ConfigError(
            f"power catalog density needs a parameter a in (0, 1), got {exponent}"
        )
    return CornerDensity.from_function(
        lambda x: exponent * x ** (exponent - 1.0),
        Interval(0.0, 1.0),
        normalization=1.0,
        name="power",
        params={"a": exponent},
        known_entropy=-math.log(exponent),
    )


def _catalog_half_normal(params: dict) -> CornerDensity:
    scale = 2.0 / math.sqrt(math.pi)
    return CornerDensity.from_function(
        lambda x: scale * math.exp(-x * x),
        Interval(0.0, math.inf),
        normalization=1.0,
        name="half_normal",
        params={},
        known_entropy=0.5 * (-1.0 + EULER_GAMMA + math.log(math.pi)),
    )


def _catalog_half_cauchy(params: dict) -> CornerDensity:
    return CornerDensity.from_function(
        lambda x: 2.0 / (math.pi * (1.0 + x * x)),
        Interval(0.0, math.inf),
        normalization=1.0,
        name="half_cauchy",
        params={},
        known_entropy=-1.0 + math.log(2.0) + math.log(math.pi),
    )


def _catalog_neg_log_power(params: dict) -> CornerDensity:
    r = params.get("r")
    if r is None or not r > 0.0:
        raise ConfigError(
            f"neg_log_power catalog density needs a parameter r > 0, got {r}"
        )
    norm = math.exp(log_gamma(1.0 + r))
    return CornerDensity.from_function(
        lambda x: (-math.log(x)) ** r,
        Interval(0.0, 1.0),
        normalization=norm,
        name="neg_log_power",
        params={"r": r},
        known_entropy=neg_log_slide(1.0, r),
        known_slide=lambda t: neg_log_slide(t, r),
        known_derivatives=lambda order: neg_log_derivative(order, r),
    )


_CATALOG = {
    "uniform": (_catalog_uniform, {"b"}),
    "neg_log": (_catalog_neg_log, set()),
    "exponential": (_catalog_exponential, set()),
    "power": (_catalog_power, {"a"}),
    "half_normal": (_catalog_half_normal, set()),
    "half_cauchy": (_catalog_half_cauchy, set()),
    "neg_log_power": (_catalog_neg_log_power, {"r"}),
}


def analytic_catalog(name: str, params: dict | None = None) -> CornerDensity:
    """Look up a named analytic corner density with its known entropy.

    Available names: uniform (width ``b``), neg_log, exponential, power
    (exponent ``a`` in (0, 1)), half_normal, half_cauchy, and neg_log_power
    (exponent ``r > 0``).  Unknown names or parameters raise
    :class:`ConfigError`.
    """
    params = dict(params) if params else {}
    if name not in _CATALOG:
        raise ConfigError(
            f"unknown catalog density {name!r}; choose from {sorted(_CATALOG)}"
        )
    builder, allowed = _CATALOG[name]
    extra = set(params) - allowed
    if extra:
        raise ConfigError(
            f"catalog density {name!r} does not accept parameters {sorted(extra)}"
        )
    return builder(params)
