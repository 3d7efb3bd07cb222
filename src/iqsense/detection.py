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
from .signal_model import MismatchCoefficients, SubcarrierPairConfig

__all__ = [
    "Hypothesis",
    "DetectorMode",
    "HypothesisVariances",
    "VarianceOrderError",
    "DecisionRule",
    "scale_of",
    "hypothesis_variances",
    "pair_table",
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
    "METRICS",
    "metric_cells",
    "convention_metric",
]

# Relative gap within which two variances coincide: no crossing, one region.
MERGE_TOL = 1e-9

# False-alarm / detection bookkeeping conventions, as one table: per
# convention and metric, a weight and the (truth row, decided columns) cells
# whose conditionals P(decided | truth) it sums.
#   paper-sum      : plain sums -- p_fa = P(busy|H0) + P(busy|H1) and
#                    p_d = P(H2|H2) + P(H3|H3); can exceed 1 by construction.
#   prior-weighted : uniform-prior averages of P(busy | idle states) and
#                    P(busy | occupied states) -- a probability.
_BUSY = (2, 3)
_IDLE_ROWS_BUSY = ((0, _BUSY), (1, _BUSY))
_CONVENTION_TABLE = {
    "paper-sum": {"p_fa": (1.0, _IDLE_ROWS_BUSY), "p_d": (1.0, ((2, (2,)), (3, (3,))))},
    "prior-weighted": {"p_fa": (0.5, _IDLE_ROWS_BUSY), "p_d": (0.5, ((2, _BUSY), (3, _BUSY)))},
}
CONVENTIONS = tuple(_CONVENTION_TABLE)
METRICS = ("p_fa", "p_d")


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
    tx: MismatchCoefficients,
    rx: MismatchCoefficients | None = None,
) -> HypothesisVariances:
    """Per-component variances of the received sample under H0..H3: the
    phase average of :func:`pair_table` seen through the receiver.

    Parameters
    ----------
    cfg : SubcarrierPairConfig
        Pair powers, channel variances and noise variance.
    tx : MismatchCoefficients
        Transmitter front-end gains (alpha_t, beta_t).
    rx : MismatchCoefficients, optional
        Sensing-receiver gains (alpha_r, beta_r) of the joint model,
        which observes r_k = alpha_r*y_k + beta_r*conj(y_-k).  None is
        the transmitter-only model, i.e. the ideal receiver (1, 0).

    Notes
    -----
    Given the symbol phase, y_k and y_-k are independent circular
    Gaussians, so 2*sigma^2 = E|r_k|^2 = |alpha_r|^2*E|y_k|^2 +
    |beta_r|^2*E|y_-k|^2, averaged over the phase.  Rows H0..H2 of the
    table carry no cross term and are the same at every phase; the H3
    cross term averages to zero, which leaves sigma3^2 = sigma2^2 +
    (sigma1^2 - sigma0^2).  Taking that difference instead of the
    table's rounded phase mean keeps sigma2^2 <= sigma3^2 exact.  A
    configuration whose image outpowers the wanted signal raises
    :class:`VarianceOrderError`.
    """
    # Powers that overflow leave inf or nan in the table, which
    # HypothesisVariances rejects with the values it got.
    with np.errstate(over="ignore", invalid="ignore"):
        rows = pair_table(cfg, tx)[:3, 0].tolist()
    ar2, br2 = (1.0, 0.0) if rx is None else (abs(rx.alpha) ** 2, abs(rx.beta) ** 2)
    # A zero weight reads nothing of the mirror side, which may overflow
    # where the k side does not.
    s0, s1, s2 = (0.5 * (ar2 * k + br2 * mk if br2 else ar2 * k) for k, mk in rows)
    return HypothesisVariances(s0, s1, s2, s2 + (s1 - s0))


def pair_table(cfg: SubcarrierPairConfig, tx: MismatchCoefficients) -> np.ndarray:
    """(4, M, 2) means (E|y_k|^2, E|y_-k|^2) per truth state and symbol phase.

    Entry [t, u] is conditioned on t = 2*own_k + own_-k and on
    s_k*s_-k = exp(2j*pi*u/M), M = ``cfg.psk_order``: E|y_k|^2 =
    cv*(|alpha_t|^2*P_k*own_k + |beta_t|^2*P_-k*own_-k + own_k*own_-k*X_u) + N0
    with X_u = 2*sqrt(P_k*P_-k)*Re(alpha_t*conj(beta_t)*exp(2j*pi*u/M)), and
    E|y_-k|^2 swaps the sides but keeps X_u.  Given u, y_k and y_-k are
    independent circular Gaussians; X_u averages to zero over the M equally
    likely phases, which gives :func:`hypothesis_variances`.
    """
    m = cfg.psk_order
    c = tx.alpha * tx.beta.conjugate()
    phase = [2.0 * math.pi * u / m for u in range(m)]
    cross = np.array([c.real * math.cos(p) - c.imag * math.sin(p) for p in phase])
    cross *= 2.0 * math.sqrt(cfg.power_k * cfg.power_mk)
    at2, bt2 = abs(tx.alpha) ** 2, abs(tx.beta) ** 2
    table = np.empty((4, m, 2))
    for t in range(4):
        own, mirror = t >> 1, t & 1
        both = cross if own and mirror else 0.0
        k_side = at2 * cfg.power_k * own + bt2 * cfg.power_mk * mirror + both
        mk_side = at2 * cfg.power_mk * mirror + bt2 * cfg.power_k * own + both
        table[t, :, 0] = cfg.channel_var * k_side + cfg.noise_var
        table[t, :, 1] = cfg.channel_var_mirror * mk_side + cfg.noise_var
    return table


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
    """Decided hypothesis (an int8 code) per statistic; boundary points go up."""
    region = np.zeros(np.shape(z), dtype=np.int8)
    for t in rule.boundaries:
        region += np.greater_equal(z, t)
    return np.array(rule.levels, dtype=np.int8).take(region)


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
        # The tail falls with the threshold; its rounding need not, and a
        # rise of one ulp would leave a cell at -1e-16.
        edges = np.minimum.accumulate([1.0, *tails, 0.0])
        for r, level in enumerate(rule.levels):
            out[i, int(level)] += edges[r] - edges[r + 1]
    return out


def metric_cells(convention: str, metric: str) -> tuple[float, tuple]:
    """``(weight, cells)`` of ``metric`` (one of :data:`METRICS`) under
    ``convention`` (one of :data:`CONVENTIONS`).

    The metric is ``weight`` times the sum of the conditionals
    P(decided | truth) over ``cells``, a tuple of (truth row, decided
    columns) pairs.
    """
    if convention not in _CONVENTION_TABLE:
        raise ValueError(f"convention must be one of {CONVENTIONS}, got {convention!r}")
    return _CONVENTION_TABLE[convention][metric]


def convention_metric(probs: np.ndarray, convention: str, metric: str) -> float:
    """``metric`` under ``convention`` of a 4x4 matrix of P(decide col |
    true row): each row's cells are summed, then the rows in order, then
    the sum is scaled by the weight."""
    weight, cells = metric_cells(convention, metric)
    return weight * float(sum(sum(probs[r, c] for c in cols) for r, cols in cells))


def analytic_false_alarm(
    v: HypothesisVariances, rule: DecisionRule, convention: str = "paper-sum"
) -> float:
    """Closed-form false alarm of a rule: busy decisions on idle truth.

    ``paper-sum`` returns P(busy|H0) + P(busy|H1) (the published
    bookkeeping; reaches 2 in the worst case), ``prior-weighted`` their
    uniform-prior average.
    """
    return convention_metric(conditional_probabilities(v, rule), convention, "p_fa")


def analytic_detection(
    v: HypothesisVariances, rule: DecisionRule, convention: str = "paper-sum"
) -> float:
    """Closed-form detection of a rule.

    ``paper-sum`` returns P(H2|H2) + P(H3|H3) (exact-state recovery on
    the occupied hypotheses, as published); ``prior-weighted`` returns
    the uniform-prior busy probability (P(busy|H2) + P(busy|H3)) / 2.
    """
    return convention_metric(conditional_probabilities(v, rule), convention, "p_d")


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
