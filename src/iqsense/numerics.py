"""Gamma-family special functions used by the energy detector.

The per-subcarrier test statistic (average periodogram over a packet of
IID complex-Gaussian samples) follows a Gamma law with integer shape, so
everything here is specialised to integer shape ``n >= 1``.  The upper
tail is evaluated through the finite Erlang sum

    Q(n, x) = exp(-x) * sum_{m=0}^{n-1} x^m / m!

which is exact for integer shape and free of the cancellation that
plagues ``1 - P(n, x)`` in the far right tail.  The sum is the Poisson
CDF ``P(Poisson(x) <= n - 1)``.  The module needs numpy only.

It also owns the one rule for a number a model type takes:
:func:`check_int` and :func:`check_real` accept a Python or numpy int
(and, for a real, a float), never a ``bool`` or a string, and return a
plain ``int`` or ``float``; anything else, a value that is not finite, an
int too large for a float or a value out of range raises ``ValueError``
naming the field.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "check_int",
    "check_real",
    "regularized_upper_gamma",
    "gamma_sf",
    "inverse_gamma_sf",
]

# Largest x for which exp(-x) stays comfortably inside double range; the
# direct Erlang sum is used up to here, the sum scaled by its largest term
# beyond.
_DIRECT_SUM_LIMIT = 700.0


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
        ``Q(n, x) = Gamma(n, x) / Gamma(n)`` in [0, 1].  Values whose
        true magnitude is below double-precision range underflow to 0.

    Notes
    -----
    For ``x <= 700`` the finite Erlang sum is accumulated with a
    multiplicative term recurrence and compensated summation, accurate
    to a few ULP.  Beyond that ``exp(-x)`` alone would underflow, so the
    terms are taken relative to the largest one, ``m0 = min(n - 1,
    floor(x))``, and the prefactor ``x^m0 e^-x / m0!`` is one ``exp`` of
    its logarithm, within about 1e-12 relative.  A sum that rounds
    above 1 is returned as 1.
    """
    n = check_int("shape", n, 1)
    x = check_real("x", x, 0)
    if x == 0.0:
        return 1.0
    if x > _DIRECT_SUM_LIMIT:
        return min(_scaled_erlang_sum(n, x), 1.0)
    terms = [1.0]
    term = 1.0
    for m in range(1, n):
        term *= x / m
        terms.append(term)
        # Past the mode the terms decay at least geometrically; once they
        # stop contributing at double precision the rest of the sum is
        # invisible in the result.
        if m > x and term < terms[0] * 1e-20 and term < terms[-2]:
            break
    return min(math.exp(-x) * math.fsum(terms), 1.0)


def _scaled_erlang_sum(n: int, x: float) -> float:
    """The Erlang sum for ``x > 0``, with each term taken relative to the
    largest, ``x^m0 / m0!``: down from ``m0`` and up to ``n - 1``.  Both
    runs fall off at least geometrically, so each stops at the first term
    below 1e-20, where the rest no longer shows next to the sum (>= 1)."""
    m0 = min(n - 1, math.floor(x))
    terms = [1.0]
    term = 1.0
    for m in range(m0, 0, -1):
        term *= m / x
        if term < 1e-20:
            break
        terms.append(term)
    term = 1.0
    for m in range(m0 + 1, n):
        term *= x / m
        if term < 1e-20:
            break
        terms.append(term)
    return math.exp(_log_poisson_mass(m0, x)) * math.fsum(terms)


def _log_poisson_mass(m: int, x: float) -> float:
    """``log(x^m e^-x / m!)``.  For ``m >= 16`` it is written around
    Stirling's formula, ``-(m log(m/x) + x - m) - log(2 pi m)/2 - d(m)``,
    so that no two terms of size ``m log x`` cancel; ``d(m) = log m! -
    log(Stirling's m!)`` is its asymptotic series, exact to double
    precision from ``m = 16`` on."""
    if m < 16:
        return m * math.log(x) - math.lgamma(m + 1) - x
    u = 1.0 / (m * m)
    d = (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - u / 1188) * u) * u) * u) / m
    return -m * math.log1p((m - x) / x) - (x - m) - 0.5 * math.log(2 * math.pi * m) - d


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
