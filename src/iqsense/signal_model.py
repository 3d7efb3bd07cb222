"""Baseband model of a mirrored OFDMA subcarrier pair under I/Q imbalance.

An imperfect quadrature front end with amplitude error ``epsilon`` and
phase error ``theta`` maps a baseband signal s to ``alpha*s +
beta*conj(s)``.  On subcarrier k of an OFDMA multiplex the conjugate
term lands as leakage from the mirror subcarrier -k, so the received
sample on k mixes the intended signal with an image of whatever the
mirror carries.  This module provides the mismatch coefficients, the
subcarrier-pair configuration, channel/noise draws and the
per-sample transmit/receive maps.  The maps accept scalars or numpy
arrays alike; the draws return an array of the ``size`` they are given.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .numerics import check_int, check_real

__all__ = [
    "IqMismatch",
    "MismatchCoefficients",
    "SubcarrierPairConfig",
    "mismatch_coefficients",
    "irr_to_mismatch",
    "transmit",
    "receive",
    "receive_joint",
    "draw_rayleigh",
    "draw_noise",
]

# The documented input range: detection.pair_table builds its 4 x m x 2
# means in a Python loop over the m phases, once per distinct pair.
_MAX_PSK_ORDER = 1024


@dataclass(frozen=True)
class IqMismatch:
    """Amplitude/phase error of one quadrature front end.

    ``epsilon`` is the relative gain error between the I and Q rails and
    ``theta`` the phase skew in radians.  The open box |epsilon| < 1,
    |theta| < pi/2 keeps the direct path dominant (|alpha| > 0).
    """

    epsilon: float
    theta: float

    def __post_init__(self):
        for name in ("epsilon", "theta"):
            object.__setattr__(self, name, check_real(name, getattr(self, name)))
        if abs(self.epsilon) >= 1.0:
            raise ValueError(f"|epsilon| must be < 1, got {self.epsilon}")
        if abs(self.theta) >= math.pi / 2:
            raise ValueError(f"|theta| must be < pi/2, got {self.theta}")

    @classmethod
    def ideal(cls) -> "IqMismatch":
        return cls(0.0, 0.0)


@dataclass(frozen=True)
class MismatchCoefficients:
    """Direct-path and image-path gains (alpha, beta) of a front end."""

    alpha: complex
    beta: complex


def mismatch_coefficients(mismatch: IqMismatch) -> MismatchCoefficients:
    """Map (epsilon, theta) to the complex pair (alpha, beta).

    alpha = cos(theta) + 1j*epsilon*sin(theta)
    beta  = epsilon*cos(theta) - 1j*sin(theta)

    Total energy satisfies |alpha|^2 + |beta|^2 = 1 + epsilon^2; the
    ideal front end gives (1, 0).
    """
    e, t = mismatch.epsilon, mismatch.theta
    alpha = complex(math.cos(t), e * math.sin(t))
    beta = complex(e * math.cos(t), -math.sin(t))
    return MismatchCoefficients(alpha, beta)


def irr_to_mismatch(irr_db: float | None) -> IqMismatch:
    """Canonical mismatch realising a target image-rejection ratio.

    The inverse mapping is one-to-many, so the amplitude-only
    convention theta = 0, epsilon = 10**(irr_db / 20) is used; it gives
    |alpha|^2 = 1 and |beta|^2 = 10**(irr_db / 10) exactly.  ``None``
    or ``-inf`` selects the ideal front end.
    """
    if irr_db is None or irr_db == float("-inf"):
        return IqMismatch.ideal()
    irr_db = check_real("irr_db", irr_db)
    if irr_db >= 0.0:
        raise ValueError(f"irr_db must be negative (or -inf/None for ideal), got {irr_db}")
    return IqMismatch(10.0 ** (irr_db / 20.0), 0.0)


@dataclass(frozen=True)
class SubcarrierPairConfig:
    """Static parameters of one mirrored subcarrier pair (k, -k).

    ``power_k`` / ``power_mk`` are the nominal transmit powers on the
    two subcarriers, ``channel_var`` / ``channel_var_mirror`` the mean
    square magnitudes of their Rayleigh channel gains, ``noise_var``
    the total variance of the circular complex receiver noise and
    ``psk_order`` the PSK constellation size, a power of 2 up to 1024.
    """

    power_k: float
    power_mk: float
    noise_var: float = 1.0
    channel_var: float = 1.0
    channel_var_mirror: float = 1.0
    psk_order: int = 16

    def __post_init__(self):
        for name in ("power_k", "power_mk"):
            object.__setattr__(self, name, check_real(name, getattr(self, name), 0))
        for name in ("noise_var", "channel_var", "channel_var_mirror"):
            object.__setattr__(self, name, check_real(name, getattr(self, name), 0, strict=True))
        m = check_int("psk_order", self.psk_order, 2, _MAX_PSK_ORDER)
        if m & (m - 1):
            raise ValueError(f"psk_order must be a power of 2, got {m}")
        object.__setattr__(self, "psk_order", m)

    def mirrored(self) -> "SubcarrierPairConfig":
        """The same pair seen from -k: the two sides' powers and channel
        variances swap."""
        return replace(
            self,
            power_k=self.power_mk,
            power_mk=self.power_k,
            channel_var=self.channel_var_mirror,
            channel_var_mirror=self.channel_var,
        )


def transmit(s_k, s_mk, cfg: SubcarrierPairConfig, tx: MismatchCoefficients):
    """Transmitted sample on subcarrier k with mirror leakage.

    x_k = alpha*sqrt(P_k)*s_k + beta*sqrt(P_mk)*conj(s_mk)

    The image term puts the array first, as :func:`receive_joint` does:
    numpy computes ``scalar * temporary`` as ``temporary *= scalar`` once
    the temporary reaches 256 KiB, and where its complex product uses
    fused multiply-add, a scalar-first product can differ from an
    array-first one in the last bit.  Array first, a sample's bits do not
    depend on how many samples share the call.
    """
    return (
        tx.alpha * math.sqrt(cfg.power_k) * s_k
        + np.conjugate(s_mk) * (tx.beta * math.sqrt(cfg.power_mk))
    )


def receive(s_k, s_mk, h_k, noise, cfg: SubcarrierPairConfig, tx: MismatchCoefficients):
    """Received sample on subcarrier k: the transmitted mix rides one
    common channel gain (the leakage is injected at the transmitter,
    before propagation), plus receiver noise."""
    return transmit(s_k, s_mk, cfg, tx) * h_k + noise


def receive_joint(y_k, y_mk, rx: MismatchCoefficients):
    """Receiver-side imbalance: the observed sample on k also picks up
    the conjugated mirror observation.

    r_k = alpha_r*y_k + beta_r*conj(y_mk)

    The image term puts the array first, as in :func:`transmit`.
    """
    return rx.alpha * y_k + np.conjugate(y_mk) * rx.beta


def _circular_gaussian(var: float, rng: np.random.Generator, size):
    """Complex samples whose parts are IID N(0, var/2).

    The draw is bit-equal to ``rng.normal(0, sd, size)`` for the real
    parts followed by a second such call for the imaginary parts:
    ``normal`` returns ``0 + sd*standard_normal``, and one call of 2N
    standard normals yields the same sequence as two calls of N.
    """
    sd = math.sqrt(var / 2.0)
    out = np.empty(size, dtype=complex)
    g = rng.standard_normal((2, *out.shape))
    g *= sd
    out.real = g[0]
    out.imag = g[1]
    return out


def draw_rayleigh(channel_var: float, rng: np.random.Generator, size):
    """Complex channel gain(s) h with E|h|^2 = channel_var.

    Real and imaginary parts are IID N(0, channel_var/2): Rayleigh
    magnitude, uniform phase.
    """
    return _circular_gaussian(check_real("channel_var", channel_var, 0, strict=True), rng, size)


def draw_noise(noise_var: float, rng: np.random.Generator, size):
    """Circular complex receiver noise with total variance noise_var."""
    return _circular_gaussian(check_real("noise_var", noise_var, 0, strict=True), rng, size)
