"""Slide, assembly, and level statistics of finite point sets.

The slide numbers of a point set are the derivatives at 0 of the slide
function of the step density built from its nearest-neighbour distances;
assembly numbers use all pairwise distances instead, and level numbers
differentiate along the level family ``t f + (1 - t)``, where duplicate
points (zero distances) are legal.

Order 1 has a proven closed form.  Order 2 ships as a conjectured closed
form and is therefore cross-checked against the numerical differentiation
oracle by default; reports record both the value and the gap.  Orders 3 and
4 come from the oracle alone, with its error estimate.

All closed forms are arranged in terms of distance ratios, so scaling every
distance by a positive constant leaves the results unchanged to rounding.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Any, Iterable

import numpy as np

# step_slide_function is no longer called here, but perfbench/run.py times the
# oracle through this module attribute.
from .corner_density import (  # noqa: F401
    _slide_curve,
    neg_log_derivative,
    step_slide_function,
)
from .errors import DuplicatePointError
from .geometry import (
    PAIRWISE_CAP,
    DescendingDistances,
    PointSet,
    as_descending,
    nn_distances,
    pairwise_distances,
)
from .numerics import DerivativeEstimate, right_derivatives

__all__ = [
    "SlideReport",
    "TangibilityVerdict",
    "assembly_numbers",
    "dimension_estimates",
    "level_derivatives",
    "level_numbers",
    "psi1",
    "psi2_conjectured",
    "psi_numeric",
    "slide_numbers",
    "tangibility_check",
]

MAX_NUMERIC_ORDER = 4

# Default reliability thresholds for the differentiation oracle, by order.
_ORACLE_TOL = {1: 1e-6, 2: 1e-4, 3: 1e-3, 4: 1e-2}


@functools.lru_cache(maxsize=2)
def _rank_weights(n: int) -> np.ndarray:
    """``c_r = ln(n) - r ln(r) + (r-1) ln(r-1)`` for ranks ``r = 1..n``.

    They decrease in ``r`` and sum to zero.  Every replicate of an experiment
    has the same ``n``, so the weights are cached by size; two sizes cover
    the nearest-neighbour and the pairwise extraction of one experiment, at
    ``8 n`` bytes each.  The returned array is read-only because every
    caller shares it.
    """
    g = np.arange(n + 1.0)
    g[1:] *= np.log(g[1:])  # g_r = r ln(r), so g_0 = g_1 = 0
    weights = math.log(n) - np.diff(g)
    weights.flags.writeable = False
    return weights


def _closed_forms(distances: Any) -> tuple[float, float]:
    """``(psi1, psi2_conjectured)`` from one pass over ``ln(d_r / d_n)``."""
    d = as_descending(distances, min_size=2, positive=True).values
    n = d.size
    ell = np.log(d / d[-1])  # ell[-1] == 0 exactly
    c_ell = _rank_weights(n) * ell
    a = float(c_ell.sum())
    b = float(np.dot(c_ell, ell))
    s1 = float(ell.sum())
    s2 = float(np.dot(ell, ell))
    return a / n, -(2.0 * s1 * a - n * b + n * s2 - s1 * s1) / (n * n)


def psi1(distances: Any) -> float:
    """First slide derivative of the step density of ``distances``, exactly.

    Over the descending distances ``d_1 >= ... >= d_n`` it is
    ``(1/n) sum_r c_r ln(d_r / d_n)`` with the rank weights
    ``c_r = ln(n) - r ln(r) + (r-1) ln(r-1)``.  Being ratio-based it is
    scale invariant to rounding; it is nonnegative for every valid sequence,
    because the ``c_r`` decrease and sum to zero.
    """
    return _closed_forms(distances)[0]


def psi2_conjectured(distances: Any) -> float:
    """Second slide derivative via the conjectured closed form.

    With ``ell_r = ln(d_r / d_n)`` and the weights ``c_r`` of :func:`psi1`,
    it is ``-(2 S1 A - n B + n S2 - S1^2) / n^2``, where ``A, B`` are the
    sums of ``c_r ell_r, c_r ell_r^2`` and ``S1, S2`` those of
    ``ell_r, ell_r^2``; summation by parts of the raw-log-sum form gives it,
    without that form's large cancelling terms.  Pair with
    :func:`psi_numeric` (as :func:`slide_numbers` does by default) to keep
    the conjecture honest on real data.
    """
    return _closed_forms(distances)[1]


def psi_numeric(
    distances: Any,
    order: int,
    h0: float | None = None,
    tol: float | None = None,
) -> DerivativeEstimate:
    """Slide derivative of the given order from the differentiation oracle.

    Returns the full estimate record; ``reliable`` is False when the
    Richardson error estimate exceeds ``tol`` (default: a per-order
    threshold), which typically signals a divergent derivative.
    """
    d = as_descending(distances, min_size=2, positive=True)
    if not 1 <= order <= MAX_NUMERIC_ORDER:
        raise ValueError(f"numeric slide orders run 1..{MAX_NUMERIC_ORDER}")
    if tol is None:
        tol = _ORACLE_TOL[order]

    curve = _slide_curve(d.values)

    def sigma(t: float) -> float:
        return curve(t).value

    return right_derivatives(sigma, order, h0=h0, tol=tol)[order - 1]


def level_derivatives(distances: Any, max_order: int) -> list[float]:
    """Derivatives at 0 along the level family, orders ``1..max_order``.

    Order 1 is ``(1/n) sum_r c_r d_r / mean(d)`` over the descending
    distances, with the rank weights ``c_r`` of :func:`psi1`; each higher
    order k is the negated k-th moment of ``1 - d_r / mean(d)``.  Zero
    distances are permitted (duplicate points), but not all of them may
    vanish.
    """
    if max_order < 1:
        raise ValueError("max_order must be at least 1")
    d = as_descending(distances, min_size=2).values
    if d[0] <= 0.0:
        raise ValueError("distances must not all be zero")
    n = d.size
    ratio = d / d.mean()
    out = [float(np.dot(_rank_weights(n), ratio)) / n]
    for k in range(2, max_order + 1):
        out.append(float(-np.mean((1.0 - ratio) ** k)))
    return out


@dataclass
class SlideReport:
    """Computed statistics for one distance extraction of one point set.

    ``values`` maps order to the statistic; ``method`` records how each was
    obtained (closed_form, conjectured_closed_form, or numeric_oracle);
    ``oracle_error`` holds the conjecture-vs-oracle gap at order 2 and the
    oracle's own error estimate at orders computed numerically.
    """

    orders: list[int]
    values: dict[int, float]
    method: dict[int, str]
    oracle_error: dict[int, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if sorted(self.orders) != sorted(self.values):
            raise ValueError("orders and values must cover the same keys")
        if 1 in self.values and self.values[1] < -1e-9:
            raise ValueError(
                f"order-1 value {self.values[1]} violates nonnegativity"
            )


def _slide_report(
    d: DescendingDistances, orders: Iterable[int], cross_check: bool
) -> SlideReport:
    wanted = sorted(set(int(o) for o in orders))
    if not wanted:
        raise ValueError("at least one order is required")
    if wanted[0] < 1:
        raise ValueError("orders must be positive")
    if wanted[-1] > MAX_NUMERIC_ORDER:
        raise ValueError(
            f"orders above {MAX_NUMERIC_ORDER} have neither a closed form "
            "nor a numeric route"
        )
    values: dict[int, float] = {}
    method: dict[int, str] = {}
    oracle_error: dict[int, float] = {}
    closed = _closed_forms(d) if wanted[0] <= 2 else None
    for order in wanted:
        if order == 1:
            values[order] = closed[0]
            method[order] = "closed_form"
        elif order == 2:
            values[order] = closed[1]
            method[order] = "conjectured_closed_form"
            if cross_check:
                est = psi_numeric(d, 2)
                oracle_error[order] = abs(values[order] - est.value)
        else:
            est = psi_numeric(d, order)
            values[order] = est.value
            method[order] = "numeric_oracle"
            oracle_error[order] = est.error
    return SlideReport(wanted, values, method, oracle_error)


def slide_numbers(
    points: PointSet,
    orders: Iterable[int] = (1, 2),
    cross_check: bool = True,
) -> SlideReport:
    """Slide numbers of a point set from its nearest-neighbour distances.

    Requires at least two pairwise distinct points.  With ``cross_check``
    (the default) the order-2 conjectured value is compared against the
    differentiation oracle and the gap recorded in ``oracle_error``.
    """
    return _slide_report(nn_distances(points), orders, cross_check)


def assembly_numbers(
    points: PointSet,
    orders: Iterable[int] = (1, 2),
    cross_check: bool = True,
    max_points: int = PAIRWISE_CAP,
) -> SlideReport:
    """Assembly numbers: slide statistics over all pairwise distances."""
    return _slide_report(
        pairwise_distances(points, max_points=max_points), orders, cross_check
    )


def level_numbers(points: PointSet, max_order: int = 2) -> SlideReport:
    """Level numbers of a point set; duplicate points are permitted."""
    d = nn_distances(points, allow_duplicates=True)
    if d.values[0] <= 0.0:
        raise DuplicatePointError("every point coincides with another")
    values = level_derivatives(d, max_order)
    orders = list(range(1, max_order + 1))
    return SlideReport(
        orders,
        {order: values[order - 1] for order in orders},
        {order: "closed_form" for order in orders},
    )


def dimension_estimates(report: SlideReport) -> dict[int, float | None]:
    """Dimension estimate per order from the reference power law.

    Order 1 estimates ``1 / rho_1``; order n solves ``rho_n = ref_n / d**n``
    where ``ref_n`` is the exact slide derivative of the reference density.
    Orders whose value has the wrong sign yield None.
    """
    out: dict[int, float | None] = {}
    for order in report.orders:
        rho = report.values[order]
        if order == 1:
            out[order] = 1.0 / rho if rho > 0.0 else None
        else:
            ratio = neg_log_derivative(order) / rho if rho != 0.0 else -1.0
            out[order] = ratio ** (1.0 / order) if ratio > 0.0 else None
    return out


@dataclass
class TangibilityVerdict:
    """Whether a point set's slide numbers fit a single dimension.

    ``residuals`` holds, per order above 1, the relative gap between the
    measured value and the one implied by the order-1 dimension estimate;
    the verdict is tangible when every residual is within ``tolerance``.
    """

    dimension_estimates: dict[int, float | None]
    consensus_dimension: float | None
    residuals: dict[int, float]
    tangible: bool
    tolerance: float


def tangibility_check(report: SlideReport, tol: float = 0.1) -> TangibilityVerdict:
    """Test whether the reported slide numbers match a common dimension."""
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    if 1 not in report.orders or len(report.orders) < 2:
        raise ValueError("tangibility needs order 1 plus at least one more order")
    estimates = dimension_estimates(report)
    rho1 = report.values[1]
    if rho1 <= 0.0:
        return TangibilityVerdict(estimates, None, {}, False, tol)
    dimension = 1.0 / rho1
    residuals: dict[int, float] = {}
    for order in report.orders:
        if order == 1:
            continue
        expected = neg_log_derivative(order) / dimension**order
        residuals[order] = abs(report.values[order] - expected) / abs(expected)
    tangible = all(res <= tol for res in residuals.values())
    return TangibilityVerdict(
        estimates,
        dimension if tangible else None,
        residuals,
        tangible,
        tol,
    )
