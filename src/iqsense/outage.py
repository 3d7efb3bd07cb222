"""Primary-link outage under secondary-transmitter image leakage.

While a secondary user transmits on subcarrier k, its transmitter I/Q
imbalance leaks an image onto the mirror subcarrier -k where a primary
link is active.  With Rayleigh fading on both the wanted and the
leakage path, the primary's SINR is a ratio gamma = X1 / (1 + X2) of
two independent exponentials, and the outage probability below a rate
threshold has a closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .stats import Estimate, wilson_interval

__all__ = ["OutageScenario", "analytic_outage", "outage_paper_literal", "mc_outage"]


@dataclass(frozen=True)
class OutageScenario:
    """Primary-link parameters on the mirror subcarrier.

    ``p_mk``: primary transmit power; ``p0``: secondary transmit power
    on the sensed subcarrier; ``beta_sq_sec``: |beta|^2 of the
    secondary's transmitter front end (linear image-rejection ratio for
    the canonical amplitude-only mismatch); ``noise_p``: primary
    receiver noise power; ``var_g`` / ``var_h``: mean square magnitudes
    of the wanted and leakage channels; ``rate_p``: target spectral
    efficiency in bit/s/Hz, giving the SINR threshold 2**rate_p - 1.
    """

    p_mk: float = 1.0
    p0: float = 1.0
    beta_sq_sec: float = 0.0
    noise_p: float = 1.0
    var_g: float = 1.0
    var_h: float = 1.0
    rate_p: float = 1.0

    def __post_init__(self):
        for name in ("p_mk", "p0", "beta_sq_sec", "rate_p"):
            v = getattr(self, name)
            if not (isinstance(v, (int, float)) and math.isfinite(v)) or v < 0:
                raise ValueError(f"{name} must be finite and >= 0, got {v!r}")
        for name in ("noise_p", "var_g", "var_h"):
            v = getattr(self, name)
            if not (isinstance(v, (int, float)) and math.isfinite(v)) or v <= 0:
                raise ValueError(f"{name} must be finite and > 0, got {v!r}")

    @property
    def gamma_threshold(self) -> float:
        """SINR threshold for outage: 2**rate_p - 1."""
        return 2.0**self.rate_p - 1.0

    @property
    def signal_mean(self) -> float:
        """Mean of X1 = p_mk*|g|^2/noise_p (exponential)."""
        return self.p_mk * self.var_g / self.noise_p

    @property
    def interference_mean(self) -> float:
        """Mean of X2 = beta_sq_sec*p0*|h|^2/noise_p (exponential)."""
        return self.beta_sq_sec * self.p0 * self.var_h / self.noise_p


def analytic_outage(sc: OutageScenario) -> float:
    """Closed-form outage probability P(gamma < 2**rate_p - 1).

    For gamma = X1/(1 + X2) with independent exponentials of means m1,
    m2, integrating the conditional exponential tail over the
    interference density gives

        rho = 1 - (m1 / (m1 + g*m2)) * exp(-g / m1),  g = 2**rate_p - 1.

    Degenerate limits: a zero threshold never triggers outage; a dead
    wanted path (m1 = 0) with positive threshold always does.
    """
    g = sc.gamma_threshold
    if g == 0.0:
        return 0.0
    m1 = sc.signal_mean
    if m1 == 0.0:
        return 1.0
    m2 = sc.interference_mean
    return 1.0 - (m1 / (m1 + g * m2)) * math.exp(-g / m1)


def outage_paper_literal(sc: OutageScenario) -> float:
    """Literal published outage expression, kept for comparison.

    Differs from :func:`analytic_outage` in two places: the
    interference mean enters unscaled by the threshold, and the
    exponent carries an extra factor of the primary noise power.  It
    agrees with the repaired form only when the threshold is 1 and the
    noise power is 1.
    """
    g = sc.gamma_threshold
    if g == 0.0:
        return 0.0
    m1 = sc.signal_mean
    if m1 == 0.0:
        return 1.0
    m2 = sc.interference_mean
    return 1.0 - (m1 / (m1 + m2)) * math.exp(-sc.noise_p * g / m1)


def mc_outage(sc: OutageScenario, trials: int, rng: np.random.Generator | int) -> Estimate:
    """Monte Carlo outage frequency with a Wilson 95% interval.

    Draws the two exponential channel powers directly and counts
    gamma < threshold via the equivalent linear event
    X1 < g * (1 + X2).
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    g = sc.gamma_threshold
    m1 = sc.signal_mean
    m2 = sc.interference_mean
    x1 = rng.exponential(m1, trials) if m1 > 0 else np.zeros(trials)
    x2 = rng.exponential(m2, trials) if m2 > 0 else np.zeros(trials)
    failures = int(np.count_nonzero(x1 < g * (1.0 + x2)))
    return wilson_interval(failures, trials)
