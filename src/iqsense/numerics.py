"""Gamma-family special functions used by the energy detector.

The per-subcarrier test statistic (average periodogram over a packet of
IID complex-Gaussian samples) follows a Gamma law with integer shape, so
everything here is specialised to integer shape ``n >= 1``.  The upper
tail is evaluated through the finite Erlang sum

    Q(n, x) = exp(-x) * sum_{m=0}^{n-1} x^m / m!

which is exact for integer shape and free of the cancellation that
plagues ``1 - P(n, x)`` in the far right tail.

scipy is imported only on first use: ``scipy.special`` by the x > 700
tail and ``scipy.optimize`` by :func:`inverse_gamma_sf` (the two-cfar
threshold).  Importing scipy costs more than importing numpy and the rest
of iqsense together, which every four-level run and every frame scan
would otherwise pay at start-up for code it never calls; a two-cfar
``sense``, ``sweep`` or ``figure`` pays it once, when it builds its
first rule.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "regularized_upper_gamma",
    "gamma_pdf",
    "gamma_sf",
    "inverse_gamma_sf",
]

# Largest x for which exp(-x) stays comfortably inside double range; the
# direct Erlang sum is used below this, scipy's gammaincc above it.  Only
# the branch above it imports scipy.special, at its first call.
_DIRECT_SUM_LIMIT = 700.0


def _check_shape(n: int) -> int:
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool):
        raise ValueError(f"shape must be an integer, got {n!r}")
    if n < 1:
        raise ValueError(f"shape must be >= 1, got {n}")
    return int(n)


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
    to a few ULP.  Beyond that the scipy continued-fraction evaluation
    takes over (the sum's ``exp(-x)`` prefactor would underflow first).
    """
    n = _check_shape(n)
    x = float(x)
    if not math.isfinite(x) or x < 0:
        raise ValueError(f"x must be finite and >= 0, got {x}")
    if x == 0.0:
        return 1.0
    if x > _DIRECT_SUM_LIMIT:
        from scipy import special

        return float(special.gammaincc(n, x))
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
    return math.exp(-x) * math.fsum(terms)


def gamma_pdf(n: int, scale: float, z):
    """Density of Gamma(shape=n, scale) at z; zero for z < 0.

    The ``z == 0`` boundary follows the usual convention: ``1/scale``
    for the exponential case ``n == 1``, zero for ``n > 1``.
    """
    n = _check_shape(n)
    scale = _check_scale(scale)
    lg = math.lgamma(n)
    if np.isscalar(z) or getattr(z, "ndim", 1) == 0:
        z = float(z)
        if not math.isfinite(z):
            raise ValueError(f"z must be finite, got {z}")
        if z < 0.0:
            return 0.0
        if z == 0.0:
            return 1.0 / scale if n == 1 else 0.0
        u = z / scale
        return math.exp((n - 1) * math.log(u) - u - lg) / scale
    z = np.asarray(z, dtype=float)
    if z.size and not np.all(np.isfinite(z)):
        raise ValueError("z must be finite")
    u = z / scale
    out = np.zeros_like(z)
    pos = z > 0
    up = u[pos]
    out[pos] = np.exp((n - 1) * np.log(up) - up - lg) / scale
    if n == 1:
        out[z == 0] = 1.0 / scale
    return out


def gamma_sf(n: int, scale: float, threshold: float) -> float:
    """Survival function P(Z > threshold) for Z ~ Gamma(n, scale), at a
    scalar threshold.

    Thresholds below zero return 1 (the support is nonnegative).
    """
    n = _check_shape(n)
    scale = _check_scale(scale)
    t = float(threshold)
    if not math.isfinite(t):
        raise ValueError(f"threshold must be finite, got {t}")
    if t < 0.0:
        return 1.0
    return regularized_upper_gamma(n, t / scale)


def inverse_gamma_sf(n: int, scale: float, tail_prob: float) -> float:
    """Threshold t with P(Z > t) = tail_prob for Z ~ Gamma(n, scale).

    ``tail_prob`` must lie in (0, 1]; the boundary value 1 maps to the
    threshold 0 (everything exceeds it).
    """
    n = _check_shape(n)
    scale = _check_scale(scale)
    if not (0.0 < tail_prob <= 1.0):
        raise ValueError(f"tail_prob must be in (0, 1], got {tail_prob}")
    if tail_prob == 1.0:
        return 0.0
    from scipy import optimize

    hi = float(n)
    while regularized_upper_gamma(n, hi) > tail_prob:
        hi *= 2.0
    x = optimize.brentq(
        lambda u: regularized_upper_gamma(n, u) - tail_prob, 0.0, hi, xtol=1e-300, rtol=8.9e-16
    )
    return x * scale


def _check_scale(scale: float) -> float:
    scale = float(scale)
    if not math.isfinite(scale) or scale <= 0.0:
        raise ValueError(f"scale must be finite and > 0, got {scale}")
    return scale
