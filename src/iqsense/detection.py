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
from dataclasses import dataclass, fields
from enum import IntEnum
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .numerics import check_int, check_real, gamma_sf, inverse_gamma_sf, packet_count_tail
from .signal_model import MismatchCoefficients, SubcarrierPairConfig

__all__ = [
    "Hypothesis",
    "DetectorMode",
    "HypothesisVariances",
    "VarianceOrderError",
    "DecisionRule",
    "hypothesis_variances",
    "pair_table",
    "statistic_means",
    "H3_TABLE_CUT",
    "MAX_PACKETS",
    "H3PacketCountLaw",
    "h3_packet_count_law",
    "pairwise_threshold",
    "pairwise_threshold_paper",
    "decision_rule",
    "two_level_rule",
    "classify_batch",
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
            if p is None or not 0.0 < (p := check_real("target_pfa", p)) <= 1.0:
                raise ValueError(f"two-cfar requires target_pfa in (0, 1], got {p!r}")
            object.__setattr__(self, "target_pfa", p)
        elif self.target_pfa is not None:
            raise ValueError(f"target_pfa only applies to two-cfar, got kind={self.kind!r}")


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
        for f in fields(self):
            x = check_real(f.name, getattr(self, f.name), 0, strict=True)
            object.__setattr__(self, f.name, x)
        v = self.as_tuple()
        for i in range(3):
            if v[i] > v[i + 1]:
                raise VarianceOrderError(
                    f"variances must be nondecreasing (model ordering assumption), got {v}"
                )

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.sigma0_sq, self.sigma1_sq, self.sigma2_sq, self.sigma3_sq)


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
    (sigma1^2 - sigma0^2).  Where H3 has a cross term, taking that
    difference instead of the table's rounded phase mean keeps
    sigma2^2 <= sigma3^2 exact.  Where H3's mean is the same at every
    phase, sigma3^2 is half that mean, the one the engine draws H3 from;
    the order still holds, since each rounded step of that mean only adds
    to the matching step of the H2 mean.  A configuration whose image
    outpowers the wanted signal raises :class:`VarianceOrderError`, and
    one whose H3 means overflow at any phase (the engine draws from them)
    raises ValueError.
    """
    # Powers that overflow leave inf or nan in the table, which
    # HypothesisVariances rejects with the values it got; the H3 row's
    # cross term can overflow where its phase average does not.  An H3
    # mean that overflows at every phase keeps the difference form, so
    # the error below, not HypothesisVariances', names it.
    with np.errstate(over="ignore", invalid="ignore"):
        means = statistic_means(cfg, tx, rx)
    s0, s1, s2, s3 = (0.5 * means[:, 0]).tolist()
    if not (np.isfinite(s3) and (means[3] == means[3, 0]).all()):
        s3 = s2 + (s1 - s0)
    v = HypothesisVariances(s0, s1, s2, s3)
    if not np.isfinite(means[3]).all():
        raise ValueError("the H3 mean powers overflow a float")
    return v


def statistic_means(
    cfg: SubcarrierPairConfig,
    tx: MismatchCoefficients,
    rx: MismatchCoefficients | None = None,
) -> np.ndarray:
    """(4, M) means E|r_k|^2 per truth state and symbol phase.

    Given the phase of s_k*s_-k, r_k = alpha_r*y_k + beta_r*conj(y_-k) is a
    circular Gaussian, so |r_k|^2 is exponential with mean
    |alpha_r|^2*E|y_k|^2 + |beta_r|^2*E|y_-k|^2 (the two columns of
    :func:`pair_table`); the transmitter-only model (``rx`` None) is
    column 0.  A zero receiver weight reads nothing of the mirror column,
    which may overflow where the k side does not.
    """
    table = pair_table(cfg, tx)
    if rx is None:
        return table[:, :, 0]
    ar2, br2 = abs(rx.alpha) ** 2, abs(rx.beta) ** 2
    return ar2 * table[:, :, 0] + br2 * table[:, :, 1] if br2 else ar2 * table[:, :, 0]


# Most packets a statistic averages.  An H3 trial drawn packet by packet
# (past the packet-count table's length cap) costs 2*n_packets draws, a
# packet-count table grows with n_packets, and the closed forms' Poisson
# sums lengthen with it; the documented runs use at most 32.
MAX_PACKETS = 1024

# Upper bound on the mass of K - n that an H3 packet-count table leaves out.
H3_TABLE_CUT = 1e-13

# Entries of an H3 packet-count pmf below this are zeroed before each
# product, so no product runs through subnormal floats (which made a
# build near the cap 2-3 times slower); the mass lost is at most
# 2*log2(n)*_MAX_TABLE_LENGTH*1e-150, and the table's cut counts it.
_PMF_FLOOR = 1e-150

# Longest H3 packet-count table built.  Its n-fold convolution costs
# about 2*log2(n) products of this length squared (up to 0.1 s at the cap
# with n_packets 1024); a row whose table would be longer draws per packet.
_MAX_TABLE_LENGTH = 1 << 12

# Chernoff parameters t for an H3 table's length, as fractions of the
# largest admissible t, -log(max q).
_CHERNOFF_T = 1.0 - np.geomspace(1e-6, 0.999, 64)


class H3PacketCountLaw(NamedTuple):
    """The H3 statistic as Z = v_min*Gamma(K, 1)/n (see :func:`h3_packet_count_law`).

    ``pmf[j]`` is P(K - n = j) below the table's end, and the last entry
    is the mass the table leaves out, drawn as K - n = ``pmf.size - 1``;
    so ``pmf`` sums to 1 and its reverse cumulative sum is P(K - n >= j).
    """

    v_min: float
    pmf: np.ndarray


@lru_cache
def h3_packet_count_law(
    cfg: SubcarrierPairConfig,
    tx: MismatchCoefficients,
    rx: MismatchCoefficients | None,
    n_packets: int,
) -> H3PacketCountLaw | None:
    """The law of the H3 statistic by uniformization (Jensen 1953).

    Under H3 each packet's |r_k|^2 is Exp with mean m_u at a uniform
    phase u (:func:`statistic_means`).  With v = min_u m_u, an Exp of mean
    m_u is the sum of a Geometric(v/m_u) count G >= 1 of Exp variates of
    mean v.  So Z = v*Gamma(K, 1)/n, where K - n is the n-fold convolution
    of the phase-averaged pmf of G - 1, P(G - 1 = j) = mean_u p_u*q_u^j with
    p_u = v/m_u and q_u = 1 - p_u.

    The table runs to the length past which Chernoff's bound leaves at most
    :data:`H3_TABLE_CUT` of the mass of K - n, and the n-fold pmf is built
    by binary powering, each product cut to that length (which leaves the
    entries below it exact) and each factor's entries below
    :data:`_PMF_FLOOR` zeroed.  A draw from ``pmf`` thus differs from the
    exact law by at most the cut mass (its last entry) plus the rounding
    of the table, which grows with ``n_packets`` and the length (at most
    1e-13 at 1024 packets and 3,274 entries, against a long-double build).

    Returns None when the H3 means do not depend on the phase, and when
    the predicted length passes
    :data:`_MAX_TABLE_LENGTH`; the length is checked before any
    convolution runs.  The result is built once per distinct argument
    tuple, and its ``pmf`` is read-only.
    """
    means = statistic_means(cfg, tx, rx)[3]
    v = float(means.min())
    if v == means.max():
        return None
    m, count = np.unique(means, return_counts=True)
    w, p, q = count / means.size, v / m, (m - v) / m
    # Chernoff: P(K - n >= x) <= E[exp(t*(G - 1))]**n * exp(-t*x) for
    # 0 < t < -log(max q), where E[exp(t*(G - 1))] = sum_u w_u*p_u/(1 - q_u*e^t).
    t = -math.log(q.max()) * _CHERNOFF_T
    mgf = (w * p / (p - q * np.expm1(t)[:, None])).sum(axis=1)
    length = float(np.min((n_packets * np.log(mgf) - math.log(H3_TABLE_CUT)) / t))
    if not length <= _MAX_TABLE_LENGTH:
        return None
    size = max(1, math.ceil(length))
    factor = (w * p) @ np.power.outer(q, np.arange(size))
    pmf, k = None, n_packets
    while True:
        factor[factor < _PMF_FLOOR] = 0.0
        if k & 1:
            pmf = factor if pmf is None else np.convolve(pmf, factor)[:size]
            pmf[pmf < _PMF_FLOOR] = 0.0
        k >>= 1
        if not k:
            break
        factor = np.convolve(factor, factor)[:size]
    pmf = np.append(pmf, max(0.0, 1.0 - math.fsum(pmf)))
    pmf.flags.writeable = False
    return H3PacketCountLaw(v, pmf)


@lru_cache
def pair_table(cfg: SubcarrierPairConfig, tx: MismatchCoefficients) -> np.ndarray:
    """(4, M, 2) means (E|y_k|^2, E|y_-k|^2) per truth state and symbol phase.

    Entry [t, u] is conditioned on t = 2*own_k + own_-k and on
    s_k*s_-k = exp(2j*pi*u/M), M = ``cfg.psk_order``: E|y_k|^2 =
    cv*(|alpha_t|^2*P_k*own_k + |beta_t|^2*P_-k*own_-k + own_k*own_-k*X_u) + N0
    with X_u = 2*sqrt(P_k*P_-k)*Re(alpha_t*conj(beta_t)*exp(2j*pi*u/M)), and
    E|y_-k|^2 swaps the sides but keeps X_u.  Given u, y_k and y_-k are
    independent circular Gaussians; X_u averages to zero over the M equally
    likely phases, which gives :func:`hypothesis_variances`.

    The table is built once per distinct ``(cfg, tx)`` and returned
    read-only, so :func:`hypothesis_variances` and the frame share it.
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
    table.flags.writeable = False
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
    var_i = check_real("var_i", var_i, 0, strict=True)
    var_j = check_real("var_j", var_j, 0, strict=True)
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
    n_packets = check_int("n_packets", n_packets, 1, MAX_PACKETS)
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
        n = check_int("n_packets", self.n_packets, 1, MAX_PACKETS)
        object.__setattr__(self, "n_packets", n)

    def decided(self, total, at_or_above) -> np.ndarray:
        """Per-hypothesis share of ``total`` (a count of statistics, or the
        probability 1.0) of which ``at_or_above[r]`` lies at or above
        ``boundaries[r]``, in an array of ``total``'s type."""
        edges = [total, *at_or_above, 0]
        out = np.zeros(4, dtype=type(total))
        for r, level in enumerate(self.levels):
            out[int(level)] = edges[r] - edges[r + 1]
        return out

    def row(self, v: float, pmf) -> np.ndarray:
        """P(decide each hypothesis) of Z = v*Gamma(K, 1)/n with P(K = n + j)
        = ``pmf[j]``: one row of P(decide col | true row), from the tails
        :func:`~iqsense.numerics.packet_count_tail` gives at ``boundaries``.
        Every closed-form row is formed here, so two rows of one law are
        equal to the bit."""
        tails = packet_count_tail(v, pmf, self.n_packets, self.boundaries)
        # The tail falls with the threshold; its rounding need not, and a
        # rise of one ulp would leave a cell at -1e-16.
        return self.decided(1.0, np.minimum.accumulate([1.0, *tails])[1:])


def decision_rule(v: HypothesisVariances, n_packets: int) -> DecisionRule:
    """Minimum-average-cost rule for the four ordered hypotheses.

    With all four variances distinct, the optimal partition needs only
    the three adjacent pairwise crossings: s_ij lies strictly between
    2*var_j and 2*var_i (:func:`pairwise_threshold`) and rises in both
    variances, so s01 < s12 < s23 and the skip-level crossings chain with
    them (s01 <= s02 <= s12 <= s13 <= s23, s02 <= s03 <= s13).
    Hypotheses whose variances coincide within ``MERGE_TOL`` are merged
    into a single region labelled by the lowest index.
    :class:`DecisionRule` checks ``n_packets``.
    """
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
        t = inverse_gamma_sf(n_packets, 2.0 * v.sigma0_sq / n_packets, mode.target_pfa)
    boundaries = (t,) if t > 0 else ()
    levels = (Hypothesis.H0, Hypothesis.H2) if t > 0 else (Hypothesis.H2,)
    return DecisionRule(boundaries, levels, (), n_packets)


def classify_batch(z: np.ndarray, rule: DecisionRule) -> np.ndarray:
    """Decided hypothesis (an int8 code) per statistic; boundary points go up."""
    region = np.zeros(np.shape(z), dtype=np.int8)
    for t in rule.boundaries:
        region += np.greater_equal(z, t)
    return np.array(rule.levels, dtype=np.int8).take(region)


def conditional_probabilities(v: HypothesisVariances, rule: DecisionRule) -> np.ndarray:
    """4x4 matrix of P(decide H_col | true H_row) under the Gamma laws,
    the paper's form.  Rows H0-H2 are exact; row H3 with a cross term is
    not (its exact row is :func:`~iqsense.montecarlo.exact_probabilities`').
    Row i is :meth:`DecisionRule.row` of the one-entry law (2*sigma_i^2, [1.0])."""
    return np.array([rule.row(2.0 * var, [1.0]) for var in v.as_tuple()])


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


def convention_metric(probs, convention: str, metric: str) -> float | None:
    """``metric`` under ``convention`` of the rows of P(decide col | true
    row), a 4x4 matrix or four rows: each row's cells are summed, then the
    rows in order, then the sum is scaled by the weight.  A metric that
    reads a row that is None (a row with no closed form) is None."""
    weight, cells = metric_cells(convention, metric)
    if any(probs[r] is None for r, _ in cells):
        return None
    return weight * float(sum(sum(probs[r][c] for c in cols) for r, cols in cells))


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
