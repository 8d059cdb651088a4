"""Self-contained numerical kernel: quadrature, special functions, derivatives.

Everything here is deliberately independent of the closed-form statistics
implemented elsewhere in the package, so that those formulas can be validated
against this module rather than against themselves.  The three ingredients are

* adaptive Gauss-Kronrod quadrature with a fixed (7, 15) point kernel and a
  rational transform for half-infinite domains,
* log-gamma, digamma, and integer zeta values computed from asymptotic series
  with a recurrence shift into the convergent regime,
* one-sided derivative estimates at zero built from 5-point forward stencils
  refined by Richardson extrapolation, each carrying an error estimate.
"""

from __future__ import annotations

import heapq
import math
import numbers
from dataclasses import dataclass
from typing import Callable, Iterable

from .errors import DivergenceError

__all__ = [
    "EULER_GAMMA",
    "DerivativeEstimate",
    "Interval",
    "digamma",
    "integrate",
    "log_gamma",
    "right_derivatives",
    "zeta_int",
]

EULER_GAMMA = 0.5772156649015328606


@dataclass(frozen=True)
class Interval:
    """Integration domain ``[lo, hi]`` with a finite or infinite right endpoint."""

    lo: float
    hi: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.lo):
            raise ValueError("left endpoint must be finite")
        if math.isnan(self.hi) or self.hi <= self.lo:
            raise ValueError(f"empty interval [{self.lo}, {self.hi}]")

    @property
    def bounded(self) -> bool:
        return math.isfinite(self.hi)

    @property
    def measure(self) -> float:
        return self.hi - self.lo


# Gauss-Kronrod (7, 15) kernel on [-1, 1]; nonnegative abscissae, symmetric.
_XGK = (
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144838258730,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
    0.0,
)
_WGK = (
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
)
_WG = (
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
)


def _eval(f: Callable[[float], float], x: float) -> float:
    # an integrand that overflows, or divides by zero at a node rounded onto a
    # pole, is treated exactly like an infinite value
    try:
        return f(x)
    except (OverflowError, ZeroDivisionError):
        return math.inf


def _gk15(f: Callable[[float], float], lo: float, hi: float) -> tuple[float, float]:
    """Return the Kronrod-15 estimate on [lo, hi] and |K15 - G7| as its error.

    All nodes are strictly interior, so integrable endpoint singularities are
    never evaluated directly.  A non-finite integrand value, or sums that
    overflow to ``inf - inf``, make the error infinite, which forces
    refinement toward the offending point.
    """
    center = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    kronrod = 0.0
    gauss = 0.0
    finite = True
    for i, x in enumerate(_XGK):
        if x == 0.0:
            fx = _eval(f, center)
            if not math.isfinite(fx):
                finite = False
                break
            kronrod += _WGK[i] * fx
            gauss += _WG[3] * fx
        else:
            f_left = _eval(f, center - half * x)
            f_right = _eval(f, center + half * x)
            if not (math.isfinite(f_left) and math.isfinite(f_right)):
                finite = False
                break
            pair = f_left + f_right
            kronrod += _WGK[i] * pair
            if i % 2 == 1:
                gauss += _WG[i // 2] * pair
    if not finite:
        return math.nan, math.inf
    err = half * abs(kronrod - gauss)
    return half * kronrod, math.inf if math.isnan(err) else err


def integrate(
    f: Callable[[float], float],
    domain: Interval,
    tol: float = 1e-10,
    max_refinements: int = 4096,
) -> float:
    """Integrate ``f`` over ``domain`` to absolute accuracy ``tol``.

    Parameters
    ----------
    f : callable
        Scalar integrand.  Never evaluated at the endpoints of ``domain``.
    domain : Interval
        Finite or right-infinite domain.  A half line ``[lo, inf)`` is mapped
        to ``(0, 1)`` by ``x = lo + u / (1 - u)``.
    tol : float
        Absolute error target for the summed Kronrod error estimates.
    max_refinements : int
        Bisection budget.  Exhausting it raises :class:`DivergenceError`
        naming the sub-interval that refused to converge.

    Notes
    -----
    The refinement order is a deterministic worst-first queue, so repeated
    calls with identical inputs return bit-identical results.
    """
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    if domain.bounded:
        g = f
        lo, hi = domain.lo, domain.hi
        to_x = lambda u: u  # noqa: E731
    else:
        shift = domain.lo

        def g(u: float) -> float:
            w = 1.0 - u
            fx = f(shift + u / w)
            if fx == 0.0:
                return 0.0
            return fx / (w * w)

        lo, hi = 0.0, 1.0
        to_x = lambda u: shift + u / (1.0 - u)  # noqa: E731

    value, err = _gk15(g, lo, hi)
    counter = 0
    # heap entries: (-error, insertion counter, lo, hi, value, error)
    segments = [(-err, counter, lo, hi, value, err)]
    total_err = err
    for _ in range(max_refinements):
        if total_err <= tol:
            break
        neg_err, _, a, b, v, e = heapq.heappop(segments)
        total_err -= e
        mid = 0.5 * (a + b)
        if mid <= a or mid >= b:
            raise DivergenceError(
                f"integrand not integrable near x = {to_x(a):.6g}"
            )
        for half_lo, half_hi in ((a, mid), (mid, b)):
            hv, he = _gk15(g, half_lo, half_hi)
            counter += 1
            heapq.heappush(segments, (-he, counter, half_lo, half_hi, hv, he))
            total_err += he
        if not math.isfinite(total_err):
            # popping an infinite error leaves inf - inf.  The heap's worst
            # error is infinite while any is; only once none is, re-sum.
            total_err = segments[0][5]
            if total_err < math.inf:
                total_err = math.fsum(s[5] for s in segments)
    else:
        worst = max(segments, key=lambda s: s[5])
        raise DivergenceError(
            "no convergence after "
            f"{max_refinements} refinements on sub-interval "
            f"[{to_x(worst[2]):.6g}, {to_x(worst[3]):.6g}] "
            f"(local error {worst[5]:.3g}, total {total_err:.3g}, target {tol:.3g})"
        )
    return math.fsum(s[4] for s in sorted(segments, key=lambda s: s[2]))


# ---------------------------------------------------------------------------
# Special functions.

_LN_SQRT_2PI = 0.9189385332046727418
# B_{2k} / (2k (2k-1)) for the log-gamma asymptotic series.
_LGAMMA_COEF = (
    1.0 / 12.0,
    -1.0 / 360.0,
    1.0 / 1260.0,
    -1.0 / 1680.0,
    1.0 / 1188.0,
    -691.0 / 360360.0,
    7.0 / 1092.0,
)
# B_{2k} / (2k) for the digamma asymptotic series.
_DIGAMMA_COEF = (
    1.0 / 12.0,
    -1.0 / 120.0,
    1.0 / 252.0,
    -1.0 / 240.0,
    1.0 / 132.0,
    -691.0 / 32760.0,
    1.0 / 12.0,
)
_ASYMPTOTIC_CUT = 12.0


def log_gamma(x: float) -> float:
    """Natural log of the gamma function for ``x > 0``.

    Uses the Stirling series after shifting the argument above 12 with
    ``log Gamma(x) = log Gamma(x + 1) - log x``; accurate to well below 1e-12
    over the positive axis.
    """
    if not (x > 0.0) or not math.isfinite(x):
        raise ValueError(f"log_gamma requires x > 0, got {x}")
    shift = 0.0
    z = x
    while z < _ASYMPTOTIC_CUT:
        shift += math.log(z)
        z += 1.0
    w = 1.0 / (z * z)
    series = 0.0
    for c in reversed(_LGAMMA_COEF):
        series = series * w + c
    series /= z
    return (z - 0.5) * math.log(z) - z + _LN_SQRT_2PI + series - shift


def digamma(x: float) -> float:
    """Digamma function (logarithmic derivative of gamma) for ``x > 0``."""
    if not (x > 0.0) or not math.isfinite(x):
        raise ValueError(f"digamma requires x > 0, got {x}")
    shift = 0.0
    z = x
    while z < _ASYMPTOTIC_CUT:
        shift += 1.0 / z
        z += 1.0
    w = 1.0 / (z * z)
    series = 0.0
    for c in reversed(_DIGAMMA_COEF):
        series = series * w + c
    return math.log(z) - 0.5 / z - w * series - shift


# B_{2j} / (2j)! for the Euler-Maclaurin tail of the zeta sum.
_ZETA_TAIL_COEF = (
    1.0 / 12.0,
    -1.0 / 720.0,
    1.0 / 30240.0,
    -1.0 / 1209600.0,
    1.0 / 47900160.0,
    -691.0 / 1307674368000.0,
)


def zeta_int(n: int) -> float:
    """Riemann zeta at an integer argument ``n >= 2``.

    Direct summation for large ``n``; otherwise a partial sum to N = 64 with
    an Euler-Maclaurin tail, giving errors far below 1e-13.
    """
    if n != int(n) or n < 2:
        raise ValueError(f"zeta_int requires an integer n >= 2, got {n}")
    n = int(n)
    if n >= 60:
        total = 1.0
        k = 2
        while True:
            term = float(k) ** (-n)
            if term < 1e-20:
                return total
            total += term
            k += 1
    big_n = 64.0
    partial = math.fsum(float(k) ** (-n) for k in range(63, 0, -1))
    tail = big_n ** (1 - n) / (n - 1) + 0.5 * big_n ** (-n)
    rising = 1.0
    power = big_n ** (-n - 1)
    correction = 0.0
    for j, c in enumerate(_ZETA_TAIL_COEF):
        # rising factorial n (n+1) ... (n + 2j - 2) paired with N^{-(n+2j-1)}
        if j == 0:
            rising = float(n)
        else:
            rising *= (n + 2 * j - 1) * (n + 2 * j)
            power /= big_n * big_n
        correction += c * rising * power
    return partial + tail + correction


# ---------------------------------------------------------------------------
# Derivative orders.


def _wanted_orders(
    orders: Iterable[int], max_order: int | None = None, lacking: str = ""
) -> list[int]:
    """``orders`` as sorted Python ints; a bad order is a ValueError.

    This is the one order rule of the package.  Orders are integers (numpy
    integers too, but no bool), at least one and none repeated, positive and
    at most ``max_order`` unless that is None; ``lacking`` names what the
    orders above it have none of.
    """
    wanted = []
    for order in orders:
        if isinstance(order, bool) or not isinstance(order, numbers.Integral):
            raise ValueError(f"orders must be integers, got {order!r}")
        wanted.append(int(order))
    wanted.sort()
    if not wanted:
        raise ValueError("at least one order is required")
    if len(set(wanted)) != len(wanted):
        raise ValueError("orders must be distinct")
    if wanted[0] < 1:
        raise ValueError("orders must be positive")
    if max_order is not None and wanted[-1] > max_order:
        raise ValueError(f"orders above {max_order} have no {lacking}")
    return wanted


# ---------------------------------------------------------------------------
# One-sided derivatives at zero.

# 5-point forward stencils: (coefficients, denominator, leading error order).
_STENCILS = {
    1: ((-25.0, 48.0, -36.0, 16.0, -3.0), 12.0, 4),
    2: ((35.0, -104.0, 114.0, -56.0, 11.0), 12.0, 3),
    3: ((-5.0, 18.0, -24.0, 14.0, -3.0), 2.0, 2),
    4: ((1.0, -4.0, 6.0, -4.0, 1.0), 1.0, 1),
}
_DEFAULT_BASE_STEP = {1: 1e-2, 2: 1e-2, 3: 5e-2, 4: 5e-2}
_LADDER_RUNGS = 6


def _oracle_order(max_order: int) -> int:
    """``max_order`` under the order rule, at most the number of stencils."""
    (max_order,) = _wanted_orders(
        [max_order], len(_STENCILS), "stencil in the derivative oracle"
    )
    return max_order


@dataclass(frozen=True)
class DerivativeEstimate:
    """A one-sided derivative at zero with its extrapolation error estimate.

    ``reliable`` records whether ``error`` met the tolerance the caller asked
    for; when no tolerance was requested it is always True.  An unreliable
    estimate usually means the underlying derivative does not exist or the
    step ladder was contaminated by evaluation noise.
    """

    order: int
    value: float
    error: float
    step: float
    reliable: bool


def _stencil_estimate(
    values: list[float], order: int, step: float
) -> float:
    coefs, denom, _ = _STENCILS[order]
    acc = 0.0
    for c, v in zip(coefs, values):
        acc += c * v
    return acc / (denom * step**order)


def right_derivatives(
    g: Callable[[float], float],
    max_order: int,
    h0: float | None = None,
    tol: float | None = None,
) -> list[DerivativeEstimate]:
    """Estimate right derivatives of ``g`` at 0 for orders ``1..max_order``.

    Parameters
    ----------
    g : callable
        Function defined on the right half line.
    max_order : int
        Highest derivative order, between 1 and 4.
    h0 : float, optional
        Base step of the geometric ladder ``h0 * 2**-j``.  Defaults to 1e-2
        for orders 1-2 and 5e-2 for orders 3-4.
    tol : float, optional
        Error tolerance used to set the ``reliable`` flag on each estimate.

    Notes
    -----
    Each order uses a 5-point one-sided stencil evaluated on six halved steps
    and refined by a Richardson tableau; the reported error is the classic
    two-neighbour difference at the accepted entry, which also catches ladders
    that fail to settle because the derivative diverges.
    """
    max_order = _oracle_order(max_order)
    cache: dict[float, float] = {0.0: g(0.0)}

    def eval_at(t: float) -> float:
        if t not in cache:
            cache[t] = g(t)
        return cache[t]

    out = []
    for order in range(1, max_order + 1):
        base = h0 if h0 is not None else _DEFAULT_BASE_STEP[order]
        _, _, lead = _STENCILS[order]
        raw = []
        for j in range(_LADDER_RUNGS):
            h = base * 0.5**j
            vals = [cache[0.0]] + [eval_at(i * h) for i in range(1, 5)]
            raw.append(_stencil_estimate(vals, order, h))
        # Richardson tableau; error at each entry from neighbour differences.
        best_val = raw[1]
        best_err = abs(raw[1] - raw[0])
        rows: list[list[float]] = [[raw[0]]]
        for j in range(1, _LADDER_RUNGS):
            row = [raw[j]]
            err0 = abs(raw[j] - raw[j - 1])
            if err0 < best_err:
                best_val, best_err = raw[j], err0
            for k in range(1, j + 1):
                factor = 2.0 ** (lead + k - 1) - 1.0
                extrap = row[k - 1] + (row[k - 1] - rows[j - 1][k - 1]) / factor
                err = max(
                    abs(extrap - row[k - 1]),
                    abs(extrap - rows[j - 1][k - 1]),
                )
                if err < best_err:
                    best_val, best_err = extrap, err
                row.append(extrap)
            rows.append(row)
        out.append(
            DerivativeEstimate(
                order=order,
                value=best_val,
                error=best_err,
                step=base,
                reliable=True if tol is None else best_err <= tol,
            )
        )
    return out
