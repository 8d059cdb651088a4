"""Slide, assembly, and level statistics of finite point sets.

The slide numbers of a point set are the derivatives at 0 of the slide
function of the step density built from its nearest-neighbour distances;
assembly numbers use all pairwise distances instead, and level numbers
differentiate along the level family ``t f + (1 - t)``, where duplicate
points (zero distances) are legal.

Orders 1 to 4 come from one closed-form pass over the distances: the
derivatives of the slide function at 0 are cumulants of the log distances
tilted by the rank weights.  The paper derives order 1 only, so every order
from 2 on is cross-checked against the numerical differentiation oracle by
default, and reports record the gap.

All closed forms are arranged in terms of distance ratios, so scaling every
distance by a positive constant leaves the results unchanged to rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Iterable, Iterator, Mapping

import numpy as np

# step_slide_function is no longer called here, but perfbench/run.py times the
# oracle through this module attribute.
from .corner_density import (  # noqa: F401
    _slide_curve,
    neg_log_derivative,
    step_slide_function,
)
from .errors import ConfigError, DuplicatePointError
from .geometry import (
    _BLOCK,
    PAIRWISE_CAP,
    DescendingDistances,
    PointSet,
    _rank_weights,
    as_descending,
    distinct_nearest,
    nn_distances,
    pairwise_distances,
    shared_rank_weights,
)
from .numerics import (
    DerivativeEstimate,
    _oracle_order,
    _wanted_orders,
    right_derivatives,
)

__all__ = [
    "STATISTIC_KINDS",
    "SlideReport",
    "StatisticKind",
    "TangibilityVerdict",
    "assembly_numbers",
    "dimension_estimates",
    "level_derivatives",
    "level_numbers",
    "point_statistics",
    "psi1",
    "psi2_conjectured",
    "psi_numeric",
    "shared_rank_weights",
    "slide_numbers",
    "statistic_kind",
    "tangibility_check",
]

MAX_NUMERIC_ORDER = 4

# Reliability thresholds of the differentiation oracle, by order.
_ORACLE_TOL = {1: 1e-6, 2: 1e-4, 3: 1e-3, 4: 1e-2}


def _log_ratio_blocks(
    d: np.ndarray, out: np.ndarray
) -> Iterator[tuple[slice, np.ndarray]]:
    """``ln(d_r / d_n)`` of descending ``d``, one block at a time, in ``out``.

    Yields each block's slice of ``d`` and its logs, a view of ``out`` (at
    least ``min(d.size, _BLOCK)`` floats) that the next block overwrites.
    The last log is exactly 0.
    """
    bottom = d[-1]
    for lo in range(0, d.size, _BLOCK):
        block = slice(lo, min(lo + _BLOCK, d.size))
        ell = out[: block.stop - lo]
        np.divide(d[block], bottom, out=ell)
        yield block, np.log(ell, out=ell)


def _closed_forms(distances: Any, max_order: int = 2) -> tuple[float, ...]:
    """Slide derivatives of orders ``1..max(2, max_order)`` in block passes.

    Over ``ell_r = ln(d_r / d_n)`` and the rank weights ``c_r``, the slide
    function is ``sigma(t) = E_t[c] - t K'(t) + K(t)``, with
    ``K(t) = ln mean(e^{t ell})`` and ``E_t`` the mean tilted by
    ``e^{t ell}``, so its k-th derivative at 0 is the joint cumulant of
    ``(ell, ..., ell, c)`` minus ``(k - 1) kappa_k(ell)``.  Orders 1 and 2
    are those of :func:`psi1` and :func:`psi2_conjectured`.  Orders 3 and 4,
    computed only when asked for, use the centred logs ``x = ell - mean(ell)``
    with ``m_j = mean(x^j)`` and ``e_j = mean(x^j c)``: they are
    ``e_3 - 3 m_2 e_1 - 2 m_3`` and
    ``e_4 - 4 e_1 m_3 - 6 m_2 e_2 - 3 (m_4 - 3 m_2^2)``.

    One pass gives orders 1 and 2 and the mean of the logs, and a second
    pass the centred sums.  Each pass takes the logs block by block into a
    buffer of three blocks, and the block sums are added with ``math.fsum``.
    """
    d = as_descending(distances, min_size=2, positive=True).values
    n = d.size
    c = _rank_weights(n)
    work = np.empty((3, min(n, _BLOCK)))
    parts = np.empty((-(-n // _BLOCK), 7))
    for i, (block, ell) in enumerate(_log_ratio_blocks(d, work[0])):
        c_ell = np.multiply(c[block], ell, out=work[1, : ell.size])
        parts[i, :4] = (c_ell.sum(), np.dot(c_ell, ell), ell.sum(), np.dot(ell, ell))
    a, b, s1, s2 = (math.fsum(column) for column in parts[:, :4].T)
    out = [a / n, -(2.0 * s1 * a - n * b + n * s2 - s1 * s1) / (n * n)]
    if max_order >= 3:
        mean = s1 / n
        for i, (block, x) in enumerate(_log_ratio_blocks(d, work[0])):
            np.subtract(x, mean, out=x)
            x2 = np.multiply(x, x, out=work[1, : x.size])
            cx2 = np.multiply(c[block], x2, out=work[2, : x.size])
            parts[i] = (
                np.dot(c[block], x), cx2.sum(), np.dot(cx2, x), np.dot(cx2, x2),
                x2.sum(), np.dot(x2, x), np.dot(x2, x2),
            )
        e1, e2, e3, e4, m2, m3, m4 = (math.fsum(column) / n for column in parts.T)
        out.append(e3 - 3.0 * m2 * e1 - 2.0 * m3)
        if max_order >= 4:
            out.append(e4 - 4.0 * e1 * m3 - 6.0 * m2 * e2 - 3.0 * (m4 - 3.0 * m2 * m2))
    return tuple(out)


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
    """Second slide derivative of the step density of ``distances``, in closed form.

    With ``ell_r = ln(d_r / d_n)`` and the weights ``c_r`` of :func:`psi1`,
    it is ``-(2 S1 A - n B + n S2 - S1^2) / n^2``, where ``A, B`` are the
    sums of ``c_r ell_r, c_r ell_r^2`` and ``S1, S2`` those of
    ``ell_r, ell_r^2``; summation by parts of the raw-log-sum form gives it,
    without that form's large cancelling terms.  It is order 2 of the one
    closed-form route that :func:`slide_numbers` takes at orders 1 to 4.
    The paper derives order 1 only, hence the name; :func:`slide_numbers`
    checks every order from 2 on against :func:`psi_numeric` by default.
    """
    return _closed_forms(distances)[1]


def psi_numeric(
    distances: Any, max_order: int, h0: float | None = None
) -> list[DerivativeEstimate]:
    """Slide derivatives of orders ``1..max_order`` from the differentiation oracle.

    One slide curve and one derivative ladder serve every order.  Returns one
    estimate record per order, order 1 first; ``reliable`` is False when the
    Richardson error estimate exceeds that order's threshold in
    ``_ORACLE_TOL``, which typically signals a divergent derivative.
    """
    d = as_descending(distances, min_size=2, positive=True)
    max_order = _oracle_order(max_order)
    curve = _slide_curve(d.values)
    estimates = right_derivatives(lambda t: curve(t).value, max_order, h0=h0)
    return [replace(e, reliable=e.error <= _ORACLE_TOL[e.order]) for e in estimates]


def level_derivatives(distances: Any, max_order: int) -> list[float]:
    """Derivatives at 0 along the level family, orders ``1..max_order``.

    Order 1 is ``(1/n) sum_r c_r d_r / mean(d)`` over the descending
    distances, with the rank weights ``c_r`` of :func:`psi1`; each higher
    order k is the negated k-th moment of ``1 - d_r / mean(d)``.  Zero
    distances are permitted (duplicate points), but not all of them may
    vanish.  One block pass takes every order into a buffer of two blocks,
    and the block sums are added with ``math.fsum``.
    """
    (max_order,) = _wanted_orders([max_order])
    d = as_descending(distances, min_size=2).values
    if d[0] <= 0.0:
        raise ValueError("distances must not all be zero")
    n = d.size
    mean = d.mean()
    c = _rank_weights(n)
    work = np.empty((2, min(n, _BLOCK)))
    parts = np.empty((-(-n // _BLOCK), max_order))
    for i, lo in enumerate(range(0, n, _BLOCK)):
        hi = min(lo + _BLOCK, n)
        ratio = np.divide(d[lo:hi], mean, out=work[0, : hi - lo])
        parts[i, 0] = np.dot(c[lo:hi], ratio)
        gap = np.subtract(1.0, ratio, out=ratio)
        for k in range(2, max_order + 1):
            parts[i, k - 1] = np.power(gap, k, out=work[1, : hi - lo]).sum()
    sums = [math.fsum(column) / n for column in parts.T]
    return [sums[0]] + [-moment for moment in sums[1:]]


@dataclass
class SlideReport:
    """Computed statistics for one distance extraction of one point set.

    ``values`` maps each requested order to its statistic, and the read-only
    ``orders`` lists those orders ascending; ``oracle_error`` holds, per
    cross-checked order, the gap between the closed form and the
    differentiation oracle.
    """

    values: dict[int, float]
    oracle_error: dict[int, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if 1 in self.values and self.values[1] < -1e-9:
            raise ValueError(
                f"order-1 value {self.values[1]} violates nonnegativity"
            )

    @property
    def orders(self) -> list[int]:
        return sorted(self.values)


def _slide_report(
    d: DescendingDistances, wanted: list[int], cross_check: bool
) -> SlideReport:
    closed = _closed_forms(d, wanted[-1])
    values = {order: closed[order - 1] for order in wanted}
    checked = [order for order in wanted if cross_check and order >= 2]
    estimates = psi_numeric(d, checked[-1]) if checked else []
    oracle_error = {
        order: abs(values[order] - estimates[order - 1].value) for order in checked
    }
    return SlideReport(values, oracle_error)


def _distinct_slide_report(
    d: DescendingDistances, wanted: list[int], cross_check: bool
) -> SlideReport:
    return _slide_report(distinct_nearest(d), wanted, cross_check)


def _level_report(
    d: DescendingDistances, wanted: list[int], cross_check: bool = False
) -> SlideReport:
    """Level numbers of the requested orders.

    The level family has no oracle, so ``cross_check`` is ignored.
    """
    if d.values[0] <= 0.0:
        raise DuplicatePointError("every point coincides with another")
    values = level_derivatives(d, wanted[-1])
    return SlideReport({order: values[order - 1] for order in wanted})


def slide_numbers(
    points: PointSet,
    orders: Iterable[int] = (1, 2),
    cross_check: bool = True,
) -> SlideReport:
    """Slide numbers of a point set from its nearest-neighbour distances.

    Requires at least two pairwise distinct points.  Every order comes from
    the closed forms; with ``cross_check`` (the default) each order from 2
    on is also estimated by the differentiation oracle and the gap recorded
    in ``oracle_error``.
    """
    return point_statistics(points, {"slide": orders}, cross_check)["slide"]


def assembly_numbers(
    points: PointSet,
    orders: Iterable[int] = (1, 2),
    cross_check: bool = True,
    max_points: int = PAIRWISE_CAP,
) -> SlideReport:
    """Assembly numbers: slide statistics over all pairwise distances."""
    return point_statistics(
        points, {"assembly": orders}, cross_check, pairwise_cap=max_points
    )["assembly"]


def level_numbers(points: PointSet, max_order: int = 2) -> SlideReport:
    """Level numbers of orders ``1..max_order``; duplicate points are permitted."""
    (max_order,) = _wanted_orders([max_order])
    return point_statistics(points, {"level": range(1, max_order + 1)})["level"]


@dataclass(frozen=True)
class StatisticKind:
    """One family of statistics of a point set.

    ``extraction`` names the distances it is computed from
    (``nearest_neighbor``, taken with duplicates allowed, or ``pairwise``);
    ``report`` turns them into a :class:`SlideReport` given the orders, as
    checked by :func:`_wanted_orders`, and the cross-check flag;
    ``max_order`` bounds the orders, None for no bound.
    """

    symbol: str
    extraction: str
    report: Callable[[DescendingDistances, list[int], bool], SlideReport]
    max_order: int | None = MAX_NUMERIC_ORDER


STATISTIC_KINDS: dict[str, StatisticKind] = {
    "slide": StatisticKind("rho", "nearest_neighbor", _distinct_slide_report),
    "assembly": StatisticKind("alpha", "pairwise", _slide_report),
    "level": StatisticKind("lambda", "nearest_neighbor", _level_report, None),
}


def statistic_kind(name: str) -> StatisticKind:
    """The registered kind called ``name``; an unknown name is a ConfigError."""
    try:
        return STATISTIC_KINDS[name]
    except KeyError:
        raise ConfigError(
            f"unknown statistic kind {name!r}; choose from {list(STATISTIC_KINDS)}"
        ) from None


def _checked_requests(
    requests: Mapping[str, Iterable[int]],
) -> dict[str, tuple[StatisticKind, list[int]]]:
    """Each requested kind with its orders, as :func:`_wanted_orders` returns them.

    An unknown kind is a :class:`ConfigError` and a bad order a ValueError.
    """
    checked = {}
    for name, orders in requests.items():
        kind = statistic_kind(name)
        wanted = _wanted_orders(orders, kind.max_order, "closed form")
        checked[name] = (kind, wanted)
    return checked


def point_statistics(
    points: PointSet,
    requests: Mapping[str, Iterable[int]],
    cross_check: bool = True,
    pairwise_cap: int = PAIRWISE_CAP,
) -> dict[str, SlideReport]:
    """Reports for several statistic kinds of one point set, keyed by kind.

    ``requests`` maps each kind to its orders.  Every kind and its orders
    are checked before the first extraction, so a bad request fails before
    any work.  Kinds are computed in request order, and each extraction is
    made when a kind first needs it and shared by the kinds after it: slide
    and level read one array of nearest-neighbour distances, so a coinciding
    point fails at slide, after any level request before it.  The kinds
    share the rank weights of each size too; outside
    :func:`shared_rank_weights` nothing is kept between calls.
    """
    extracted: dict[str, DescendingDistances] = {}
    reports: dict[str, SlideReport] = {}
    checked = _checked_requests(requests)
    with shared_rank_weights():
        for name, (kind, wanted) in checked.items():
            d = extracted.get(kind.extraction)
            if d is None:
                if kind.extraction == "pairwise":
                    d = pairwise_distances(points, max_points=pairwise_cap)
                else:
                    d = nn_distances(points, allow_duplicates=True)
                extracted[kind.extraction] = d
            reports[name] = kind.report(d, wanted, cross_check)
    return reports


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
