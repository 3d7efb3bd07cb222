"""Small statistical helpers shared by the Monte Carlo harnesses."""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "Estimate", "wilson_interval", "Z_95", "MIN_EXPECTED", "MAX_TRIALS", "chi2_sf", "row_pvalue",
    "worst_z",
]

# Most trials one Monte Carlo run takes: per hypothesis and point of the
# trial engine, or per outage run.  At about 50 M trials/s on two cores,
# 10**12 trials of each of four hypotheses take about a day, so a larger
# count is a typo, not a run that could end; every count up to it is also
# exact as the float64 the intervals are computed in.
MAX_TRIALS = 10**12

# Two-sided 95% normal quantile.
Z_95 = 1.959963984540054

# Decision cells are pooled in order until each pooled cell expects at
# least this many counts, so the chi-square law of the row statistic holds.
MIN_EXPECTED = 5.0


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


def chi2_sf(stat: float, dof: int) -> float:
    """Upper tail of the chi-square law with 1, 2 or 3 degrees of freedom,
    in closed form."""
    half = 0.5 * stat
    if dof == 1:
        return math.erfc(math.sqrt(half))
    if dof == 2:
        return math.exp(-half)
    if dof == 3:
        return math.erfc(math.sqrt(half)) + math.sqrt(4.0 * half / math.pi) * math.exp(-half)
    raise ValueError(f"dof must be 1, 2 or 3, got {dof}")


def row_pvalue(observed, probs) -> float:
    """Pearson chi-square p-value of one row of a 4x4 tally, its decision
    counts, against its closed-form probabilities.

    Cells are pooled in order until each pooled cell expects at least
    :data:`MIN_EXPECTED` counts (the remainder joins the last one); a count
    in a cell of probability 0 gives p = 0, and a row left with one pooled
    cell gives p = 1.
    """
    n = sum(observed)
    bins: list[list[float]] = []
    o = e = 0.0
    for oi, pi in zip(observed, probs):
        if pi <= 0.0 and oi > 0:
            return 0.0
        o += oi
        e += n * pi
        if e >= MIN_EXPECTED:
            bins.append([o, e])
            o = e = 0.0
    if bins:
        bins[-1][0] += o
        bins[-1][1] += e
    if len(bins) < 2:
        return 1.0
    return chi2_sf(sum((bo - be) ** 2 / be for bo, be in bins), len(bins) - 1)


def worst_z(observed, probs) -> float:
    """Largest |count - n p| / sqrt(n p (1 - p)) over the cells of one row
    whose probability is strictly between 0 and 1."""
    n = sum(observed)
    return max(
        (abs(oi - n * pi) / math.sqrt(n * pi * (1.0 - pi))
         for oi, pi in zip(observed, probs) if 0.0 < pi < 1.0),
        default=0.0,
    )
