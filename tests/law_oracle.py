"""Independent reference for the exact H3 law, for tests only.

Under H3 each packet's statistic is exponential with mean m_u at a phase u
drawn uniformly from the M phases, and Z averages n packets.  Its Laplace
transform is closed-form,

    phi(s) = E[exp(-s*Z)] = ((1/M) * sum_u 1/(1 + s*m_u/n))**n,

so P(Z > z) is the inverse transform of (1 - phi(s))/s at z.  This module
inverts it with mpmath's Talbot contour; it shares no code with the
package's uniformized table.
"""

import mpmath
import numpy as np


def h3_tail(means, n: int, z: float, dps: int = 30) -> float:
    """P(Z > z) for the mean of ``n`` packets of Exp(m_u) at a uniform
    phase, ``means`` holding m_u for each of the M phases."""
    m, count = np.unique(np.asarray(means, dtype=float), return_counts=True)
    with mpmath.workdps(dps):
        means_mp = [mpmath.mpf(float(x)) / n for x in m]
        weights = [mpmath.mpf(int(c)) / int(count.sum()) for c in count]

        def transform(s):
            phi = mpmath.fsum(w / (1 + s * x) for w, x in zip(weights, means_mp)) ** n
            return (1 - phi) / s

        return float(mpmath.invertlaplace(transform, mpmath.mpf(float(z)), method="talbot"))
