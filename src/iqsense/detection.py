"""Four-level Bayesian energy detection for a mirrored subcarrier pair.

Sensing subcarrier k while its mirror -k may also be occupied gives four
states:

    H0 : noise only
    H1 : image leakage from the mirror, plus noise
    H2 : the subcarrier's own signal, plus noise
    H3 : signal and image leakage, plus noise

Conditioned on each state, the real and imaginary parts of the received
sample are zero-mean Gaussian with a common per-component variance
sigma_i^2, so the average periodogram over ``n`` packets is
Gamma(shape=n, scale=2*sigma_i^2/n) with mean 2*sigma_i^2.  The
minimum-average-cost test under uniform priors and uniform error costs
reduces, for ordered variances, to three interval thresholds placed at
the pairwise likelihood crossings of adjacent states.  A conventional
binary detector (noise vs signal) is provided as a baseline, both in a
Bayes variant and as a CFAR variant whose threshold is set from the
noise law alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from .numerics import gamma_sf, inverse_gamma_sf
from .signal_model import (
    IqMismatch,
    MismatchCoefficients,
    SubcarrierPairConfig,
    mismatch_coefficients,
)

__all__ = [
    "Hypothesis",
    "DetectorMode",
    "HypothesisVariances",
    "VarianceOrderError",
    "DecisionRule",
    "scale_of",
    "hypothesis_variances",
    "pairwise_threshold",
    "pairwise_threshold_paper",
    "decision_rule",
    "two_level_rule",
    "classify_batch",
    "decision_counts",
    "conditional_probabilities",
    "analytic_false_alarm",
    "analytic_detection",
    "thresholds_paper_literal",
    "false_alarm_paper_literal",
    "detection_paper_literal",
    "CONVENTIONS",
]

# Relative gap within which two variances coincide: no crossing, one region.
MERGE_TOL = 1e-9

# False-alarm / detection bookkeeping conventions:
#   paper-sum      : plain sum of the off-diagonal (resp. diagonal) busy
#                    conditionals -- can exceed 1 by construction.
#   prior-weighted : uniform-prior average P(busy | idle states) and
#                    P(busy | occupied states) -- a probability.
CONVENTIONS = ("paper-sum", "prior-weighted")


class Hypothesis(IntEnum):
    """Occupancy state of the sensed subcarrier and its mirror."""

    H0 = 0  # noise only
    H1 = 1  # mirror image + noise
    H2 = 2  # own signal + noise
    H3 = 3  # own signal + mirror image + noise

    @property
    def own_active(self) -> bool:
        return self in (Hypothesis.H2, Hypothesis.H3)

    @property
    def mirror_active(self) -> bool:
        return self in (Hypothesis.H1, Hypothesis.H3)


@dataclass(frozen=True)
class DetectorMode:
    """Detector selection: the four-level test or a binary baseline.

    ``kind`` is one of ``"four"``, ``"two-bayes"``, ``"two-cfar"``; the
    CFAR variant carries its design false-alarm target in (0, 1].
    """

    kind: str
    target_pfa: float | None = None

    KINDS = ("four", "two-bayes", "two-cfar")

    def __post_init__(self):
        if self.kind not in self.KINDS:
            raise ValueError(f"kind must be one of {self.KINDS}, got {self.kind!r}")
        if self.kind == "two-cfar":
            p = self.target_pfa
            if p is None or not (0.0 < p <= 1.0):
                raise ValueError(f"two-cfar requires target_pfa in (0, 1], got {p!r}")
        elif self.target_pfa is not None:
            raise ValueError(f"target_pfa only applies to two-cfar, got kind={self.kind!r}")

    @classmethod
    def four_level(cls) -> "DetectorMode":
        return cls("four")

    @classmethod
    def two_level_bayes(cls) -> "DetectorMode":
        return cls("two-bayes")

    @classmethod
    def two_level_cfar(cls, target_pfa: float) -> "DetectorMode":
        return cls("two-cfar", target_pfa)


class VarianceOrderError(ValueError):
    """Variances that break the model ordering sigma0 <= ... <= sigma3."""


@dataclass(frozen=True)
class HypothesisVariances:
    """Per-component received-sample variances under H0..H3.

    The model orders them 0 < sigma0 <= sigma1 <= sigma2 <= sigma3
    (equality only in degenerate configurations, which the decision
    rule collapses).  A configuration whose image leakage outpowers the
    wanted signal violates the ordering assumption and is rejected.
    """

    sigma0_sq: float
    sigma1_sq: float
    sigma2_sq: float
    sigma3_sq: float

    def __post_init__(self):
        v = self.as_tuple()
        if not all(math.isfinite(x) and x > 0 for x in v):
            raise ValueError(f"variances must be finite and > 0, got {v}")
        for i in range(3):
            if v[i] > v[i + 1]:
                raise VarianceOrderError(
                    f"variances must be nondecreasing (model ordering assumption), got {v}"
                )

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.sigma0_sq, self.sigma1_sq, self.sigma2_sq, self.sigma3_sq)


def scale_of(variance: float, n_packets: int) -> float:
    """Gamma scale of the n-packet average periodogram: 2*variance/n."""
    if n_packets < 1:
        raise ValueError(f"n_packets must be >= 1, got {n_packets}")
    if not (variance > 0 and math.isfinite(variance)):
        raise ValueError(f"variance must be finite and > 0, got {variance}")
    return 2.0 * variance / n_packets


def hypothesis_variances(
    cfg: SubcarrierPairConfig,
    tx: MismatchCoefficients | IqMismatch,
    rx: MismatchCoefficients | IqMismatch | None = None,
    *,
    symbols: tuple[complex, complex] | None = None,
) -> HypothesisVariances:
    """Per-component variances of the received sample under H0..H3.

    Parameters
    ----------
    cfg : SubcarrierPairConfig
        Pair powers, channel variances and noise variance.
    tx : MismatchCoefficients or IqMismatch
        Transmitter front-end gains (alpha_t, beta_t), or the mismatch
        parameters they derive from.
    rx : MismatchCoefficients or IqMismatch, optional
        Sensing-receiver gains (alpha_r, beta_r) of the joint model,
        which observes r_k = alpha_r*y_k + beta_r*conj(y_-k).  None is
        the transmitter-only model, i.e. the ideal receiver (1, 0).
    symbols : (s_k, s_mk), optional
        When given, variances are conditioned on this fixed symbol
        pair.  Under H3 the direct and image components ride the same
        channel draw, so a symbol-dependent cross term
        2*sqrt(P_k*P_mk)*Re(alpha_t*conj(beta_t)*s_k*s_mk) contributes
        to E|y_k|^2 and E|y_-k|^2 alike.  The default averages over
        independent uniform PSK symbols, for which the cross term is
        exactly zero and |s|^2 = 1.

    Notes
    -----
    The two sides' channels and noises are independent, so given the
    symbols r_k is circular Gaussian with 2*sigma^2 = E|r_k|^2 =
    |alpha_r|^2*E|y_k|^2 + |beta_r|^2*E|y_-k|^2, where E|y_k|^2 =
    (|alpha_t|^2*P_k*[own] + |beta_t|^2*P_mk*[mirror])*cv + N0 and
    E|y_-k|^2 is its mirror-swapped form.  A configuration whose image
    outpowers the wanted signal raises :class:`VarianceOrderError`.

    The conditioned form exists for analysis; the detector itself is
    blind to the instantaneous symbols and always uses the averaged
    variances.
    """
    return HypothesisVariances(*_component_variances(cfg, tx, rx, symbols))


def _component_variances(cfg, tx, rx, symbols) -> tuple[float, float, float, float]:
    """The four variances of :func:`hypothesis_variances`, unordered."""
    if isinstance(tx, IqMismatch):
        tx = mismatch_coefficients(tx)
    if rx is None:
        rx = MismatchCoefficients(1.0, 0.0)
    elif isinstance(rx, IqMismatch):
        rx = mismatch_coefficients(rx)
    at2, bt2 = abs(tx.alpha) ** 2, abs(tx.beta) ** 2
    ar2, br2 = abs(rx.alpha) ** 2, abs(rx.beta) ** 2
    # weights of the k-side and the mirror-side channel in E|r_k|^2
    g = ar2 * cfg.channel_var
    gm = br2 * cfg.channel_var_mirror
    if symbols is None:
        sk2 = smk2 = 1.0
        cross = 0.0
    else:
        s_k, s_mk = symbols
        sk2 = abs(s_k) ** 2
        smk2 = abs(s_mk) ** 2
        cross = (
            2.0
            * math.sqrt(cfg.power_k * cfg.power_mk)
            * (tx.alpha * np.conjugate(tx.beta) * s_k * s_mk).real
        )
    s0 = 0.5 * (ar2 + br2) * cfg.noise_var
    s1 = 0.5 * (bt2 * cfg.power_mk * smk2 * g + at2 * cfg.power_mk * smk2 * gm) + s0
    s2 = 0.5 * (at2 * cfg.power_k * sk2 * g + bt2 * cfg.power_k * sk2 * gm) + s0
    s3 = s2 + (s1 - s0) + 0.5 * cross * (g + gm)
    return s0, s1, s2, s3


def pairwise_threshold(var_i: float, var_j: float) -> float:
    """Likelihood crossing of two Gamma laws with variances var_i, var_j.

    For the n-packet statistic the crossing of Gamma(n, 2*var_i/n) and
    Gamma(n, 2*var_j/n) densities sits at

        s_ij = 2 * ln(var_i / var_j) / (1/var_j - 1/var_i)

    independent of n, strictly between the two means 2*var_j < s_ij <
    2*var_i, and symmetric in its arguments.  Equal variances (within
    ``MERGE_TOL`` relative) have no crossing and raise ValueError.
    """
    for name, v in (("var_i", var_i), ("var_j", var_j)):
        if not (v > 0 and math.isfinite(v)):
            raise ValueError(f"{name} must be finite and > 0, got {v}")
    d = var_i - var_j
    if abs(d) <= MERGE_TOL * max(var_i, var_j):
        raise ValueError(
            f"degenerate pair: variances {var_i} and {var_j} coincide within {MERGE_TOL}"
        )
    # log1p keeps the near-degenerate regime accurate; the product form
    # of the denominator avoids cancellation between reciprocals.
    return 2.0 * math.log1p(d / var_j) * var_i * var_j / d


def pairwise_threshold_paper(var_i: float, var_j: float, n_packets: int) -> float:
    """Literal published form of the pairwise threshold.

    Uses the Gamma(shape=n, scale=n*var) parameterization printed in
    the source analysis:

        S_ij = n^2 * ln(var_i / var_j) / (1/var_j - 1/var_i)

    i.e. (n^2 / 2) times :func:`pairwise_threshold`.  With the matching
    literal scales the ratio threshold/scale is identical to the
    repaired form's, so closed-form error probabilities agree exactly;
    the literal threshold itself is not commensurate with the n-packet
    average periodogram (its mean is 2*var_i, not n*var_i).
    """
    if n_packets < 1:
        raise ValueError(f"n_packets must be >= 1, got {n_packets}")
    return 0.5 * n_packets**2 * pairwise_threshold(var_i, var_j)


@dataclass(frozen=True)
class DecisionRule:
    """Interval partition of the nonnegative test-statistic axis.

    ``boundaries`` are strictly increasing thresholds; region r covers
    [boundaries[r-1], boundaries[r]) and is labelled ``levels[r]`` (a
    boundary point belongs to the upper region).  ``merged`` records
    groups of hypotheses that were indistinguishable and collapsed into
    one region, labelled by the lowest member.
    """

    boundaries: tuple[float, ...]
    levels: tuple[Hypothesis, ...]
    merged: tuple[tuple[Hypothesis, ...], ...]
    n_packets: int

    def __post_init__(self):
        if len(self.levels) != len(self.boundaries) + 1:
            raise ValueError("need exactly one more level than boundaries")
        if any(not (b > 0 and math.isfinite(b)) for b in self.boundaries):
            raise ValueError(f"boundaries must be finite and > 0, got {self.boundaries}")
        if any(b2 <= b1 for b1, b2 in zip(self.boundaries, self.boundaries[1:])):
            raise ValueError(f"boundaries must be strictly increasing, got {self.boundaries}")
        if len(set(self.levels)) != len(self.levels):
            raise ValueError(f"region labels must be distinct, got {self.levels}")
        if self.n_packets < 1:
            raise ValueError(f"n_packets must be >= 1, got {self.n_packets}")

    @property
    def s01(self) -> float:
        return self._full_boundary(0)

    @property
    def s12(self) -> float:
        return self._full_boundary(1)

    @property
    def s23(self) -> float:
        return self._full_boundary(2)

    def _full_boundary(self, i: int) -> float:
        if len(self.boundaries) != 3:
            raise ValueError(
                f"named thresholds need the full four-region rule, have {len(self.levels)} regions"
            )
        return self.boundaries[i]


def decision_rule(v: HypothesisVariances, n_packets: int) -> DecisionRule:
    """Minimum-average-cost rule for the four ordered hypotheses.

    With all four variances distinct, the optimal partition needs only
    the three adjacent pairwise crossings: for ordered variances each
    crossing s_ij (i < j adjacent) dominates the non-adjacent ones
    (s_012 ordering chains), which this routine verifies numerically
    before returning the three-threshold rule.  Hypotheses whose
    variances coincide within ``MERGE_TOL`` are merged into a single
    region labelled by the lowest index.
    """
    if n_packets < 1:
        raise ValueError(f"n_packets must be >= 1, got {n_packets}")
    vs = v.as_tuple()
    groups: list[list[int]] = [[0]]
    for i in range(1, 4):
        prev = groups[-1]
        rep = sum(vs[j] for j in prev) / len(prev)
        if abs(vs[i] - rep) <= MERGE_TOL * max(vs[i], rep):
            prev.append(i)
        else:
            groups.append([i])

    reps = [sum(vs[j] for j in g) / len(g) for g in groups]
    boundaries = tuple(
        pairwise_threshold(reps[r + 1], reps[r]) for r in range(len(groups) - 1)
    )
    levels = tuple(Hypothesis(g[0]) for g in groups)
    merged = tuple(tuple(Hypothesis(i) for i in g) for g in groups if len(g) > 1)

    if len(groups) == 4:
        # Adjacent crossings must dominate the skip-level ones on each
        # side, otherwise the three-threshold simplification would not
        # tile the axis correctly.  Guaranteed analytically for ordered
        # variances; checked cheaply here.
        s = {
            (i, j): pairwise_threshold(vs[j], vs[i])
            for i in range(4)
            for j in range(i + 1, 4)
        }
        ok = (
            s[0, 1] <= s[0, 2] <= s[0, 3]
            and s[0, 2] <= s[1, 2] <= s[1, 3]
            and s[0, 3] <= s[1, 3] <= s[2, 3]
        )
        if not ok:
            raise AssertionError(f"pairwise-threshold ordering violated: {s}")

    return DecisionRule(boundaries, levels, merged, n_packets)


def two_level_rule(
    v: HypothesisVariances, n_packets: int, mode: DetectorMode
) -> DecisionRule:
    """Binary baseline rule: one threshold separating idle from busy.

    ``two-bayes`` places the threshold at the equal-prior likelihood
    crossing of the noise-only and signal-plus-noise laws.  ``two-cfar``
    sets it from the noise law alone so that P(busy | H0) equals the
    design target; the boundary target 1 maps to threshold 0 (always
    busy).  Decisions label the regions H0 (idle) and H2 (busy).
    """
    if mode.kind == "four":
        raise ValueError("two_level_rule does not build four-level rules")
    if mode.kind == "two-bayes":
        t = pairwise_threshold(v.sigma2_sq, v.sigma0_sq)
    else:
        t = inverse_gamma_sf(n_packets, scale_of(v.sigma0_sq, n_packets), mode.target_pfa)
    boundaries = (t,) if t > 0 else ()
    levels = (Hypothesis.H0, Hypothesis.H2) if t > 0 else (Hypothesis.H2,)
    return DecisionRule(boundaries, levels, (), n_packets)


def classify_batch(z: np.ndarray, rule: DecisionRule) -> np.ndarray:
    """Decided hypothesis (an int) per statistic; boundary points go up."""
    idx = np.searchsorted(np.asarray(rule.boundaries), z, side="right")
    return np.asarray([int(lv) for lv in rule.levels], dtype=np.int64)[idx]


def decision_counts(z: np.ndarray, rule: DecisionRule) -> np.ndarray:
    """Per-hypothesis decision counts of a batch of statistics.

    Equals ``np.bincount(classify_batch(z, rule), minlength=4)``, from
    one ``z >= t`` pass per boundary: a boundary point belongs to the
    upper region, as in :func:`classify_batch`.
    """
    z = np.asarray(z)
    at_or_above = [z.size, *(int(np.count_nonzero(z >= t)) for t in rule.boundaries), 0]
    out = np.zeros(4, dtype=np.int64)
    for r, level in enumerate(rule.levels):
        out[int(level)] = at_or_above[r] - at_or_above[r + 1]
    return out


def conditional_probabilities(v: HypothesisVariances, rule: DecisionRule) -> np.ndarray:
    """4x4 matrix of P(decide H_col | true H_row) under the Gamma laws."""
    out = np.zeros((4, 4))
    for i, var in enumerate(v.as_tuple()):
        sc = scale_of(var, rule.n_packets)
        tails = [gamma_sf(rule.n_packets, sc, b) for b in rule.boundaries]
        edges = [1.0, *tails, 0.0]
        for r, level in enumerate(rule.levels):
            out[i, int(level)] += edges[r] - edges[r + 1]
    return out


def _check_convention(convention: str):
    if convention not in CONVENTIONS:
        raise ValueError(f"convention must be one of {CONVENTIONS}, got {convention!r}")


def analytic_false_alarm(
    v: HypothesisVariances, rule: DecisionRule, convention: str = "paper-sum"
) -> float:
    """Closed-form false alarm of a rule: busy decisions on idle truth.

    ``paper-sum`` returns P(busy|H0) + P(busy|H1) (the published
    bookkeeping; reaches 2 in the worst case), ``prior-weighted`` their
    uniform-prior average.
    """
    _check_convention(convention)
    m = conditional_probabilities(v, rule)
    busy = m[:, 2] + m[:, 3]
    total = float(busy[0] + busy[1])
    return total if convention == "paper-sum" else 0.5 * total


def analytic_detection(
    v: HypothesisVariances, rule: DecisionRule, convention: str = "paper-sum"
) -> float:
    """Closed-form detection of a rule.

    ``paper-sum`` returns P(H2|H2) + P(H3|H3) (exact-state recovery on
    the occupied hypotheses, as published); ``prior-weighted`` returns
    the uniform-prior busy probability (P(busy|H2) + P(busy|H3)) / 2.
    """
    _check_convention(convention)
    m = conditional_probabilities(v, rule)
    if convention == "paper-sum":
        return float(m[2, 2] + m[3, 3])
    busy = m[:, 2] + m[:, 3]
    return 0.5 * float(busy[2] + busy[3])


def thresholds_paper_literal(
    v: HypothesisVariances, n_packets: int
) -> tuple[float, float, float]:
    """The three adjacent thresholds in the literal published form."""
    vs = v.as_tuple()
    return tuple(
        pairwise_threshold_paper(vs[i + 1], vs[i], n_packets) for i in range(3)
    )


def false_alarm_paper_literal(v: HypothesisVariances, n_packets: int) -> float:
    """Literal published false-alarm closed form (paper-sum bookkeeping).

    Evaluates Q(n, S12/(n*sigma1^2)) + Q(n, S12/(n*sigma0^2)) with the
    literal threshold S12; numerically identical to
    :func:`analytic_false_alarm` with ``paper-sum`` on the full rule
    because threshold/scale matches the repaired parameterization.
    """
    _, s12, _ = thresholds_paper_literal(v, n_packets)
    q1 = gamma_sf(n_packets, n_packets * v.sigma1_sq, s12)
    q0 = gamma_sf(n_packets, n_packets * v.sigma0_sq, s12)
    return q1 + q0


def detection_paper_literal(v: HypothesisVariances, n_packets: int) -> float:
    """Literal published detection closed form (paper-sum bookkeeping)."""
    _, s12, s23 = thresholds_paper_literal(v, n_packets)
    q2a = gamma_sf(n_packets, n_packets * v.sigma2_sq, s12)
    q2b = gamma_sf(n_packets, n_packets * v.sigma2_sq, s23)
    q3 = gamma_sf(n_packets, n_packets * v.sigma3_sq, s23)
    return q2a - q2b + q3
