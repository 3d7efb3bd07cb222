"""Gamma density, the oracle for the detector's likelihood crossings.

The package itself needs only the Gamma tail (``iqsense.numerics``); the
tests use the density to locate the crossings of adjacent hypotheses'
laws independently of the closed-form thresholds.
"""

import math

import numpy as np


def gamma_pdf(n: int, scale: float, z):
    """Density of Gamma(shape=n, scale) at z; zero for z < 0.

    The ``z == 0`` boundary follows the usual convention: ``1/scale``
    for the exponential case ``n == 1``, zero for ``n > 1``.
    """
    lg = math.lgamma(n)
    if np.ndim(z) == 0:
        z = float(z)
        if z < 0.0:
            return 0.0
        if z == 0.0:
            return 1.0 / scale if n == 1 else 0.0
        u = z / scale
        return math.exp((n - 1) * math.log(u) - u - lg) / scale
    z = np.asarray(z, dtype=float)
    u = z / scale
    out = np.zeros_like(z)
    pos = z > 0
    up = u[pos]
    out[pos] = np.exp((n - 1) * np.log(up) - up - lg) / scale
    if n == 1:
        out[z == 0] = 1.0 / scale
    return out
