"""Gamma-family special functions used by the energy detector.

The per-subcarrier test statistic (average periodogram over a packet of
IID complex-Gaussian samples) follows a Gamma law with integer shape, so
everything here is specialised to integer shape ``n >= 1``.  The upper
tail is evaluated through the finite Erlang sum

    Q(n, x) = exp(-x) * sum_{m=0}^{n-1} x^m / m!

which is exact for integer shape and free of the cancellation that
plagues ``1 - P(n, x)`` in the far right tail.  The sum is the Poisson
CDF ``P(Poisson(x) <= n - 1)``.  The exact H3 law is a Poisson mixture of
such tails, and :func:`packet_count_tail` is the one kernel for both: every
closed-form cell of :mod:`~iqsense.detection` and
:mod:`~iqsense.montecarlo`, :func:`regularized_upper_gamma` (its one-entry
law) and, through it, :func:`gamma_sf` and the CFAR inverse
:func:`inverse_gamma_sf` read it.  The module needs numpy only.

It also owns the one rule for a number a model type takes:
:func:`check_int` and :func:`check_real` accept a Python or numpy int
(and, for a real, a float), never a ``bool`` or a string, and return a
plain ``int`` or ``float``; anything else, a value that is not finite, an
int too large for a float or a value out of range raises ``ValueError``
naming the field.
"""

from __future__ import annotations

import math
import sys

import numpy as np

__all__ = [
    "check_int",
    "check_real",
    "packet_count_tail",
    "regularized_upper_gamma",
    "gamma_sf",
    "inverse_gamma_sf",
]

# Largest y for which exp(-y) stays comfortably inside double range; the
# Poisson weights come from their term recurrence up to here, from their
# logarithms beyond.
_DIRECT_SUM_LIMIT = 700.0

# log(i!) for i < 16, below the range of Stirling's series.
_LOG_FACTORIAL = np.array([math.lgamma(i + 1.0) for i in range(16)])


def check_int(name: str, v, lo: int, hi: int | None = None) -> int:
    """``v`` as a plain ``int``: a Python or numpy integer, not a ``bool``,
    with ``lo <= v`` and, unless ``hi`` is None, ``v <= hi``.  Anything
    else raises ``ValueError`` naming ``name``."""
    if isinstance(v, bool) or not isinstance(v, (int, np.integer)) or v < lo:
        raise ValueError(f"{name} must be an int >= {lo}, got {v!r}")
    v = int(v)
    if hi is not None and v > hi:
        raise ValueError(f"{name} must be <= {hi}, got {v}")
    return v


def check_real(name: str, v, lo: float | None = None, *, strict: bool = False) -> float:
    """``v`` as a plain finite ``float``: a Python or numpy int or float, not
    a ``bool``, with ``v >= lo`` (``v > lo`` when ``strict``) unless ``lo``
    is None.  Anything else, an int too large for a float among it, raises
    ``ValueError`` naming ``name``."""
    real = isinstance(v, (int, float, np.integer, np.floating)) and not isinstance(v, bool)
    try:
        x = float(v) if real else math.nan
    except OverflowError:  # an int too large for a float
        x = math.nan
    if not math.isfinite(x) or lo is not None and (x <= lo if strict else x < lo):
        bound = "" if lo is None else f" and {'>' if strict else '>='} {lo}"
        raise ValueError(f"{name} must be finite{bound}, got {v!r}")
    return x


def packet_count_tail(v: float, pmf, n_packets: int, thresholds) -> np.ndarray:
    """Upper tails P(Z >= t), one per threshold t >= 0, of Z = v*Gamma(K, 1)/n
    with P(K = n + j) = ``pmf[j]`` (n = ``n_packets``, ``pmf`` summing to 1).

    Gamma(K, 1) >= y exactly when a Poisson count of mean y is below K, so
    with y = t/(v/n), P(Z >= t) = sum_i Pois(i; y)*P(K > i): P(K > i) is 1
    below n and then the reverse cumulative sum of ``pmf``, summed from the
    small end.  The one-entry ``pmf`` [1.0] gives the Erlang tail Q(n, y),
    the Gamma(n, v/n) law; an :class:`~iqsense.detection.H3PacketCountLaw`
    gives the exact H3 law (Jensen 1953).  A y past the double range has
    tail 0.

    All thresholds are done in one array pass over (threshold, i), each
    row summed from its large-i end.  For y <= 700 the weights are e^-y
    times the terms y^i/i! of the recurrence term_i = term_(i-1)*y/i,
    within a few ULP.  Beyond that e^-y would underflow, so each weight is
    the exponential of its logarithm, written for i >= 16 around
    Stirling's formula,
    -(i log(i/y) + y - i) - log(2 pi i)/2 - d(i), so that no two terms of
    size i log y cancel (d(i) = log i! - log(Stirling's i!) is its
    asymptotic series, exact to double precision from i = 16 on); the
    weights are taken relative to the largest before the sum, so a result
    below the normal range keeps its digits, within about 1e-13 relative.
    The sum runs over i within 40 standard deviations plus 40 terms of the
    smallest and the largest y, where the Poisson mass left out no longer
    shows.  A sum that rounds above 1 is returned as 1.
    """
    pmf = np.asarray(pmf, dtype=float)
    theta = float(v) / n_packets
    # A y past the double range is taken as the largest double: its tail is 0.
    y = [min(float(t) / theta, sys.float_info.max) for t in thresholds]
    low, high = min(y, default=0.0), max(y, default=0.0)
    stop = min(n_packets + pmf.size - 1, math.ceil(high + 40.0 * math.sqrt(high)) + 40)
    start = min(max(0, math.floor(low - 40.0 * math.sqrt(low)) - 40), stop)
    i = np.arange(start, stop)
    # P(K > i): 1 below n, then P(K >= i + 1), the reverse cumulative sum of pmf[1:].
    k_tail = np.ones(i.size)
    if stop > n_packets:
        k_tail[max(n_packets - start, 0):] = (
            np.cumsum(pmf[:0:-1])[::-1][max(start - n_packets, 0):stop - n_packets])
    # Pois(i; y) = scale*weights[:, i], by the recurrence (y taken at most
    # 700; a row with y <= 700 puts the window's start at i = 0) ...
    y_d = np.array([min(t, _DIRECT_SUM_LIMIT) for t in y])
    ratios = np.divide.outer(y_d, np.maximum(i, 1))
    ratios[:, :1] = 1.0
    scale, weights = np.exp(-y_d), np.cumprod(ratios, axis=1)
    # ... and, in the rows past 700, from the logarithms.
    if high > _DIRECT_SUM_LIMIT:
        logs = [r for r, t in enumerate(y) if t > _DIRECT_SUM_LIMIT]
        y_l = np.array([y[r] for r in logs])[:, None]
        m = np.maximum(i, 16.0)  # Stirling's form, read from i = 16 on
        u = 1.0 / (m * m)
        d = (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - u / 1188) * u) * u) * u) / m
        # (m - y)/y rounds to -1 only where y is past 2**53*m, whose weight
        # underflows either way.
        log_w = np.where(i < 16, i * np.log(y_l) - _LOG_FACTORIAL[np.minimum(i, 15)] - y_l,
                         -m * np.log1p(np.maximum((m - y_l) / y_l, -1.0 + 2.0**-53))
                         - (y_l - m) - 0.5 * np.log(2 * np.pi * m) - d)
        peak = log_w.max(axis=1, keepdims=True, initial=-math.inf)
        scale[logs], weights[logs] = np.exp(peak[:, 0]), np.exp(log_w - peak)
    # Summed from the large-i end, where the weights are smallest for a y
    # below the window's end.
    return np.minimum(scale * (weights * k_tail)[:, ::-1].sum(axis=1), 1.0)


def regularized_upper_gamma(n: int, x: float) -> float:
    """Regularized upper incomplete gamma Q(n, x) for integer shape.

    Parameters
    ----------
    n : int
        Shape parameter, ``n >= 1``.
    x : float
        Evaluation point, a scalar ``x >= 0``.

    Returns
    -------
    float
        ``Q(n, x) = Gamma(n, x) / Gamma(n)`` in [0, 1], the
        :func:`packet_count_tail` of the one-entry law with ``v = n`` (so
        ``y = x`` exactly).  Values whose true magnitude is below
        double-precision range underflow to 0.
    """
    n = check_int("shape", n, 1)
    x = check_real("x", x, 0)
    return float(packet_count_tail(n, [1.0], n, [x])[0])


def gamma_sf(n: int, scale: float, threshold: float) -> float:
    """Survival function P(Z > threshold) for Z ~ Gamma(n, scale), at a
    scalar threshold.

    Thresholds below zero return 1 (the support is nonnegative).
    """
    n = check_int("shape", n, 1)
    scale = check_real("scale", scale, 0, strict=True)
    t = check_real("threshold", threshold)
    if t < 0.0:
        return 1.0
    return regularized_upper_gamma(n, t / scale)


def inverse_gamma_sf(n: int, scale: float, tail_prob: float) -> float:
    """Threshold t with P(Z > t) = tail_prob for Z ~ Gamma(n, scale).

    ``tail_prob`` must lie in (0, 1]; the boundary value 1 maps to the
    threshold 0 (everything exceeds it).  Otherwise ``t = x * scale``,
    where ``x`` is the smallest double with ``Q(n, x) <= tail_prob``:
    bisection inside a doubling bracket runs until the bracket's ends
    are adjacent doubles.
    """
    n = check_int("shape", n, 1)
    scale = check_real("scale", scale, 0, strict=True)
    tail_prob = check_real("tail_prob", tail_prob)
    if not 0.0 < tail_prob <= 1.0:
        raise ValueError(f"tail_prob must be in (0, 1], got {tail_prob}")
    if tail_prob == 1.0:
        return 0.0
    lo, hi = 0.0, float(n)  # Q(n, lo) > tail_prob >= Q(n, hi) once bracketed
    while regularized_upper_gamma(n, hi) > tail_prob:
        lo, hi = hi, 2.0 * hi
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        if regularized_upper_gamma(n, mid) > tail_prob:
            lo = mid
        else:
            hi = mid
    return hi * scale
