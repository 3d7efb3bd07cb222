"""Small statistical helpers shared by the Monte Carlo harnesses."""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["Estimate", "wilson_interval", "Z_95"]

# Two-sided 95% normal quantile.
Z_95 = 1.959963984540054


@dataclass(frozen=True)
class Estimate:
    """A point estimate with a 95% confidence interval."""

    value: float
    lo: float
    hi: float

    def __post_init__(self):
        if not (self.lo <= self.value <= self.hi):
            raise ValueError(f"interval must bracket the value: {self}")

    @property
    def half_width(self) -> float:
        return 0.5 * (self.hi - self.lo)


def wilson_interval(successes: int, trials: int) -> Estimate:
    """Wilson 95% score interval for a binomial proportion.

    Behaves sensibly at the 0/n and n/n boundaries, unlike the plain
    normal interval.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if not (0 <= successes <= trials):
        raise ValueError(f"successes must be in [0, {trials}], got {successes}")
    p = successes / trials
    z = Z_95
    denom = 1.0 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    half = (z / denom) * math.sqrt(p * (1.0 - p) / trials + z * z / (4.0 * trials * trials))
    # Rounding can push the bounds a hair past the point estimate at the
    # 0/n and n/n corners; the interval must always bracket it.
    lo = min(p, max(0.0, center - half))
    hi = max(p, min(1.0, center + half))
    return Estimate(p, lo, hi)
