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

import math
from dataclasses import dataclass, field
from typing import Any, Iterable

import numpy as np

from .corner_density import neg_log_derivative, step_slide_function
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


def psi1(distances: Any) -> float:
    """First slide derivative of the step density of ``distances``, exactly.

    The closed form is a rank-weighted combination of log ratios:
    ``(1/n) sum_{i=2}^{n-1} i ln(i) ln(d_{i+1}/d_i)
    + (ln(n)/n) sum_{i<n} ln(d_i/d_n)``.
    Being ratio-based it is exactly scale invariant; it is nonnegative for
    every valid sequence.
    """
    d = as_descending(distances, min_size=2, positive=True).values
    n = d.size
    second = math.log(n) / n * float(np.log(d[:-1] / d[-1]).sum())
    if n == 2:
        return second
    rank = np.arange(2.0, n)
    first = float(np.sum(rank * np.log(rank) * np.log(d[2:] / d[1:-1]))) / n
    return first + second


def psi2_conjectured(distances: Any) -> float:
    """Second slide derivative via the conjectured closed form.

    Evaluated with logs taken relative to the smallest distance, which is
    algebraically identical to the raw-sum form but keeps the expression
    manifestly scale invariant in floating point.  Pair with
    :func:`psi_numeric` (as :func:`slide_numbers` does by default) to keep
    the conjecture honest on real data.
    """
    d = as_descending(distances, min_size=2, positive=True).values
    n = d.size
    ell = np.log(d / d[-1])  # ell[-1] == 0 exactly
    s1 = float(ell.sum())
    s3 = float((ell[:-1] ** 2).sum())
    rank = np.arange(1.0, n)
    rank_log = rank * np.log(rank)
    diff = ell[1:] - ell[:-1]
    pair = ell[:-1] + ell[1:]
    term1 = float(np.sum(rank_log * diff * (2.0 * s1 - n * pair)))
    term2 = math.log(n) * (2.0 * s1 * s1 - n * s3)
    term3 = n * s3 - s1 * s1  # n s2 - s1^2 with logs shifted to d_n
    return -(term1 + term2 + term3) / (n * n)


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

    def sigma(t: float) -> float:
        return step_slide_function(d, t).value

    return right_derivatives(sigma, order, h0=h0, tol=tol)[order - 1]


def level_derivatives(distances: Any, max_order: int) -> list[float]:
    """Derivatives at 0 along the level family, orders ``1..max_order``.

    Order 1 is a rank-weighted sum; each higher order k is the negated k-th
    moment of ``1 - d_i / mean``.  Zero distances are permitted (duplicate
    points), but not all of them may vanish.
    """
    if max_order < 1:
        raise ValueError("max_order must be at least 1")
    d = as_descending(distances, min_size=2).values
    if d[0] <= 0.0:
        raise ValueError("distances must not all be zero")
    n = d.size
    ratio = d / d.mean()
    edges = np.arange(n + 1) / n
    with np.errstate(divide="ignore", invalid="ignore"):
        glog = np.where(edges > 0.0, edges * np.log(np.maximum(edges, 1e-300)), 0.0)
    weights = glog[1:] - glog[:-1]
    out = [float(np.sum((1.0 - ratio) * weights))]
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
    for order in wanted:
        if order == 1:
            values[order] = psi1(d)
            method[order] = "closed_form"
        elif order == 2:
            values[order] = psi2_conjectured(d)
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
