"""The kernels over the step density of a distance set.

The step density of ``n`` descending distances ``d_1 >= ... >= d_n`` is
constant on the ``n`` equal subintervals of [0, 1).  Its slide derivatives
at 0 (the closed forms), its level derivatives and its slide function
(the curve the derivative oracle samples) are all sums over the distances
and the rank weights ``c_r`` of :func:`slidestats.geometry._rank_weights`.
This module holds those sums and nothing else.

Every kernel takes a validated, contiguous, non-increasing float array, as
:class:`slidestats.geometry.DescendingDistances` holds it, and checks
nothing: the public functions of :mod:`slidestats.slide_stats` and
:mod:`slidestats.corner_density` run the checks first.  The closed forms and
the level sums work ``_BLOCK`` values at a time, so beyond their input and
the rank weights they hold a few blocks; the curve holds two arrays of ``n``
floats.  Inside :func:`slidestats.geometry.shared_rank_weights` every kernel
reads the one array of rank weights per size.
"""

from __future__ import annotations

import math
from typing import Callable, Iterator

import numpy as np

from .geometry import _BLOCK, _rank_weights


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


def _slide_derivatives(d: np.ndarray, max_order: int) -> tuple[float, ...]:
    """Slide derivatives of orders ``1..max(2, max_order)`` in block passes.

    Over ``ell_r = ln(d_r / d_n)`` and the rank weights ``c_r``, the slide
    function is ``sigma(t) = E_t[c] - t K'(t) + K(t)``, with
    ``K(t) = ln mean(e^{t ell})`` and ``E_t`` the mean tilted by
    ``e^{t ell}``, so its k-th derivative at 0 is the joint cumulant of
    ``(ell, ..., ell, c)`` minus ``(k - 1) kappa_k(ell)``.  Orders 3 and 4,
    computed only when asked for, use the centred logs ``x = ell - mean(ell)``
    with ``m_j = mean(x^j)`` and ``e_j = mean(x^j c)``: they are
    ``e_3 - 3 m_2 e_1 - 2 m_3`` and
    ``e_4 - 4 e_1 m_3 - 6 m_2 e_2 - 3 (m_4 - 3 m_2^2)``.

    One pass gives orders 1 and 2 and the mean of the logs, and a second
    pass the centred sums.  Each pass takes the logs block by block into a
    buffer of three blocks, and the block sums are added with ``math.fsum``.
    """
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


def _level_derivatives(d: np.ndarray, max_order: int) -> list[float]:
    """Level derivatives of orders ``1..max_order`` of ``d``, not all zero.

    Order 1 is ``mean(c_r d_r) / mean(d)`` and order k the negated k-th
    moment of ``1 - d_r / mean(d)``.  One block pass takes every order into
    a buffer of two blocks, and the block sums are added with ``math.fsum``.
    """
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


def _slide_curve(values: np.ndarray) -> Callable[[float], tuple[float, float]]:
    """``t -> (A(t), sigma(t))`` for the step density of descending positive ``values``.

    With ``x_r = t ln(d_r / d_1)``, ``q = exp(x)``, ``Q = sum(q)`` and the
    centred rank weights ``c_r = ln(n) + (r-1) ln(r-1) - r ln(r)``, which sum
    to zero, the exact finite sum ``sum_r xlogx((r-1) p_r) - xlogx(r p_r)``
    over ``p = q / Q`` equals ``(q.c - q.x) / Q + ln(Q / n)``.  The curve
    holds two arrays of ``n`` floats of its own: the logs and one work
    buffer, which every ``t`` reuses for ``x`` and then ``q``, at the cost
    of one ``expm1`` and three dot products, with ``q.x = t q.ell``.
    Outside :func:`slidestats.geometry.shared_rank_weights` it builds the
    weights as a third.

    While every ``|x_r| <= 1`` the sum runs on ``e = q - 1``: there
    ``q.c = e.c``, ``q.x = e.x + t sum(ell)`` and ``ln(Q / n) =
    log1p(sum(e) / n)``, whose rounding shrinks with ``t``, so the small
    values near ``t = 0``, where the derivative ladders sample, keep their
    digits instead of drowning in ``Q ~ n``.  Beyond that ``q`` itself is
    summed; both forms round at about ``eps ln(n)`` where they meet.  The
    area ``A(t)`` is infinite where it overflows; the value stays exact.
    ``t`` must be finite and nonnegative; it is not checked.
    """
    n = values.size
    # fetched first, so that building unshared weights peaks before the logs
    # and the work buffer exist
    weights = _rank_weights(n)
    # numpy's log can round a strided view and a contiguous copy differently
    # in the last bit; taking it on contiguous values makes the curve
    # independent of memory layout (no copy for contiguous input).
    ell = np.log(np.ascontiguousarray(values))
    log_top = float(ell[0])
    # ell <= 0, exactly 0 at the top; d_r / d_1 could underflow
    np.subtract(ell, log_top, out=ell)
    ell_sum = float(ell.sum())
    depth = -float(ell[-1])  # largest |ell_r|
    work = np.empty(n)

    def sigma(t: float) -> tuple[float, float]:
        if t == 0.0:
            return 1.0, 0.0
        x = np.multiply(ell, t, out=work)
        if t * depth <= 1.0:
            e = np.expm1(x, out=work)
            excess = float(e.sum())  # Q - n
            total = n + excess
            numerator = (
                float(np.dot(e, weights)) - t * float(np.dot(e, ell)) - t * ell_sum
            )
            log_mean_q = math.log1p(excess / n)
        else:
            q = np.exp(x, out=work)
            total = float(q.sum())
            numerator = float(np.dot(q, weights)) - t * float(np.dot(q, ell))
            log_mean_q = math.log(total / n)
        value = numerator / total + log_mean_q
        try:
            area = math.exp(t * log_top + log_mean_q)
        except OverflowError:
            area = math.inf
        if -1e-9 < value < 0.0:
            value = max(value, -1e-15)  # exact sum; clip rounding residue only
        return area, value

    return sigma
