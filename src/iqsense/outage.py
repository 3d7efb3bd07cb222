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

from .numerics import check_int, check_real
from .signal_model import irr_to_mismatch
from .stats import MAX_TRIALS, Estimate, wilson_interval

__all__ = [
    "OutageScenario", "irr_to_beta_sq", "analytic_outage", "outage_paper_literal", "mc_outage",
]

# Trials mc_outage draws at once, about 33 bytes each (two float64 draws,
# one float64 temporary and a bool mask): 330 MB per slice.
_OUTAGE_SLICE = 10**7


def irr_to_beta_sq(irr_db: float | None) -> float:
    """``beta_sq_sec`` of the canonical amplitude-only mismatch at image-
    rejection ratio ``irr_db`` dB: 10**(irr_db / 10), 0 for ``None`` or
    ``-inf``.  The IRR must be negative, as :func:`irr_to_mismatch` checks."""
    irr_to_mismatch(irr_db)
    return 0.0 if irr_db is None else 10.0 ** (float(irr_db) / 10.0)


@dataclass(frozen=True)
class OutageScenario:
    """Primary-link parameters on the mirror subcarrier.

    ``p_mk``: primary transmit power; ``p0``: secondary transmit power
    on the sensed subcarrier; ``beta_sq_sec``: |beta|^2 of the
    secondary's transmitter front end (linear image-rejection ratio for
    the canonical amplitude-only mismatch); ``noise_p``: primary
    receiver noise power; ``var_g`` / ``var_h``: mean square magnitudes
    of the wanted and leakage channels; ``rate_p``: target spectral
    efficiency in bit/s/Hz below 1024, giving the SINR threshold
    2**rate_p - 1 (a float).  The signal mean p_mk*var_g/noise_p must be
    finite; the interference mean may overflow (outage 1 at a positive
    threshold).
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
            object.__setattr__(self, name, check_real(name, getattr(self, name), 0))
        for name in ("noise_p", "var_g", "var_h"):
            object.__setattr__(self, name, check_real(name, getattr(self, name), 0, strict=True))
        if self.rate_p >= 1024:
            raise ValueError(f"rate_p must be < 1024, or the SINR threshold 2**rate_p - 1 "
                             f"overflows a float, got {self.rate_p!r}")
        if self.signal_mean == math.inf:
            raise ValueError(f"the signal mean p_mk*var_g/noise_p overflows a float, got "
                             f"p_mk={self.p_mk!r}, var_g={self.var_g!r}, noise_p={self.noise_p!r}")

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


def _closed_form(sc: OutageScenario, a: float, b: float) -> float:
    """rho = 1 - (m1 / (m1 + a*m2)) * exp(-b*g / m1), g = 2**rate_p - 1,
    with 0 at a zero threshold and 1 on a dead wanted path (m1 = 0)."""
    g = sc.gamma_threshold
    if g == 0.0:
        return 0.0
    m1 = sc.signal_mean
    if m1 == 0.0:
        return 1.0
    return 1.0 - (m1 / (m1 + a * sc.interference_mean)) * math.exp(-b * g / m1)


def analytic_outage(sc: OutageScenario) -> float:
    """Closed-form outage probability P(gamma < 2**rate_p - 1).

    For gamma = X1/(1 + X2) with independent exponentials of means m1,
    m2, integrating the conditional exponential tail over the
    interference density gives

        rho = 1 - (m1 / (m1 + g*m2)) * exp(-g / m1),  g = 2**rate_p - 1.

    Degenerate limits: a zero threshold never triggers outage; a dead
    wanted path (m1 = 0) with positive threshold always does.
    """
    return _closed_form(sc, sc.gamma_threshold, 1.0)


def outage_paper_literal(sc: OutageScenario) -> float:
    """Literal published outage expression, kept for comparison.

    Differs from :func:`analytic_outage` in two factors: the
    interference mean m2 enters unscaled by the threshold g, and the
    exponent carries an extra factor of the primary noise power:

        rho = 1 - (m1 / (m1 + m2)) * exp(-noise_p*g / m1).

    It agrees with the repaired form only when the threshold is 1 and the
    noise power is 1.  The degenerate limits are the same.
    """
    return _closed_form(sc, 1.0, sc.noise_p)


def mc_outage(sc: OutageScenario, trials: int, rng: np.random.Generator) -> Estimate:
    """Monte Carlo outage frequency with a Wilson 95% interval.

    Draws the two exponential channel powers directly and counts
    gamma < threshold via the equivalent linear event
    X1 < g * (1 + X2).  ``rng`` is the stream to draw from, as
    ``substream(seed, OUTAGE_STREAM, ...)`` addresses it; the estimate
    is a pure function of (scenario, trials, that stream).  The trials are
    drawn in slices of at most 10**7, X1 then X2 for each slice, so memory
    stays bounded at any ``trials`` and up to 10**7 trials are one slice.
    """
    trials = check_int("trials", trials, 1, MAX_TRIALS)
    if not isinstance(rng, np.random.Generator):
        raise ValueError(f"rng must be a numpy.random.Generator, got {rng!r}")
    g = sc.gamma_threshold
    if g == 0.0:  # never an outage, and 0*(1 + x2) at an x2 that overflows is nan
        return wilson_interval(0, trials)
    m1 = sc.signal_mean
    m2 = sc.interference_mean
    failures = 0
    for start in range(0, trials, _OUTAGE_SLICE):
        size = min(_OUTAGE_SLICE, trials - start)
        x1 = rng.exponential(m1, size) if m1 > 0 else np.zeros(size)
        x2 = rng.exponential(m2, size) if m2 > 0 else np.zeros(size)
        failures += int(np.count_nonzero(x1 < g * (1.0 + x2)))
    return wilson_interval(failures, trials)
