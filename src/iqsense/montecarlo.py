"""Seeded Monte Carlo harness for the pair-sensing detectors.

Each trial draws its statistic Z, the average periodogram over
``n_packets`` packets, straight from its exact law.  Given the phase u of
s_k*s_-k, every packet's |r_k|^2 is exponential with the mean m_h(u) of
:func:`~iqsense.detection.statistic_means`, and the M phases are equally
likely.  Every row is drawn as Z = v*Gamma(K, 1)/n with P(K = n + j) =
pmf[j], the law :func:`scenario_laws` gives the row.  A hypothesis
whose means do not depend on u (H0-H2, and H3 without a cross term) has a
one-entry pmf and v = m: Z ~ Gamma(n, m/n).  H3 with a cross term takes
v = min_u m_3(u) and the pmf of
:func:`~iqsense.detection.h3_packet_count_law`, by uniformization: one
``multinomial`` per block tallies how many trials take each K, at one
packet too.  A Gamma(K) with K <= :data:`_ERLANG_MAX` is -log of a
product of K uniforms (one uniform at K = 1), any other one
``standard_gamma(K)``.  The engine never forms such a Z: it counts each
block in the domain it was drawn in, a product p of uniforms against
exp(-t*n/v) (Z >= t) and a gamma variate against t*n/v, one count pass
per threshold.  The table's last entry is the mass
:data:`~iqsense.detection.H3_TABLE_CUT` bounds, drawn at the table's
end, so this draw's law differs from the exact law by at most that mass
(plus the table's rounding).  Only where the table would pass its
length cap (:func:`scenario_laws` gives the row no law) does each packet
draw one int64 phase index and one ``standard_exponential``, scaled by
m_3(u); that Z is counted as it is.  :func:`exact_probabilities` gives
the closed form of each row under its law: the row of P(decide | truth)
that a tally row estimates, which is the paper's Gamma row for H0-H2 but
not for H3 with a cross term.  Every such row, Gamma or not, reads the one
tail kernel :func:`~iqsense.numerics.packet_count_tail`.  Only
:func:`estimate_component_variances`, an oracle for the closed forms
that does not read the pair table, runs the sample-level model of
:mod:`~iqsense.signal_model`: it draws symbols, channel and noise and
applies :func:`~iqsense.signal_model.receive` and
:func:`~iqsense.signal_model.receive_joint`.

Reproducibility contract.  Every sampler draws from generators that
:func:`substream` derives from one :class:`SeedSpec`: an SFC64 bit
generator seeded by the ``numpy.random.SeedSequence`` with entropy
``master_seed`` and spawn key ``(stream_index, purpose, ...)``, whose
purpose tag keeps each use of a seed on a stream of its own.  A bare integer seed means
``SeedSpec(seed)``; :class:`SeedSpec` alone decides what a seed is.

- Trials (:func:`run_trials` and :func:`sweep`, purpose 0) are drawn in
  fixed blocks of :data:`_BLOCK_TRIALS`, and block b of hypothesis h
  draws from ``(stream_index, 0, *path, h, b, kind)``, one ``kind`` per
  kind of variate, and a block builds only the kinds it draws from.  A
  one-entry row draws its uniforms or gammas on kind 0.  H3 with a
  packet-count table draws its multinomial on kind 0 and, on kind 1, the
  uniforms of its product groups in increasing K, one row of a group at
  a time, then all its other trials' gammas: one ``standard_gamma`` call
  per group of at least :data:`_GAMMA_CALL_MIN` trials and one per run of
  smaller groups between them, with per-trial shapes, in increasing K.
  Drawn packet by packet, it takes one phase index per trial from kind 0
  and one exponential per trial from kind 1 for each packet in turn.
  Each thread draws every block it runs into one workspace that it
  allocates at its start, one block long at any ``n_packets``: the
  block's products of uniforms, built one row of uniforms at a time, then
  its gamma variates (or its per-packet sums), one row of uniforms (or one
  packet's exponentials), and a mask for the count passes.  Block tallies
  merge by integer addition, so results are a pure function of
  (scenario, seed, trial count, path) -- bit-identical across runs and
  worker counts.  The engine's arithmetic is real-valued, so no result
  depends on fused multiply-add.  The H3 packet-count table comes from
  numpy's ``power`` and ``convolve``, and a threshold's image exp(-t*n/v)
  from the platform's ``exp``; their last bits may differ between numpy
  builds and CPUs.  Another rounding of the table moves a block's group
  sizes only when a draw inside the multinomial falls between the two
  roundings, and another rounding of ``exp`` moves a threshold by an ulp,
  which changes a decision only for a product within an ulp of it.
- Variance estimates (:func:`estimate_component_variances`, purpose 1):
  hypothesis h draws from ``(stream_index, 1, *path, h)`` in the fixed
  order its docstring states, a pure function of (scenario, samples,
  seed, path).
- Frames (:func:`~iqsense.frame.simulate_frame`, :data:`FRAME_STREAM`)
  draw from ``(stream_index, 2)``, a pure function of (occupancy,
  scenario, seed).
- Outage (:func:`~iqsense.outage.mc_outage`, :data:`OUTAGE_STREAM`)
  draws from the generator its caller passes, addressed as
  ``substream(seed, OUTAGE_STREAM, *path)``: ``(stream_index, 3)`` for
  the ``outage`` command and ``(stream_index, 3, i)`` for grid point i of
  figure 6.

One engine runs every trial: :func:`run_trials` hands it one job and
:func:`sweep` one job per grid point of every curve, and it runs all
their blocks in a single batch on at most ``workers`` threads, the
calling thread included.  A block spends nearly all its time in numpy
calls that release the interpreter lock (the generator fills and the
passes over its arrays), so threads run large blocks in parallel without
a child process.  A block of fewer than :data:`_THREAD_MIN_VARIATES`
packet variates makes calls too short to share the lock, and the calling
thread runs every such batch alone.

Streams are addressed by path, not by rule, so detector modes evaluated
at the same sweep point, or by :func:`run_trials` calls with one seed and
stream path, classify the same simulated statistics (common random
numbers).  That makes mode-vs-mode gaps directly comparable and lets
:func:`p_fa_gap` attach paired-difference confidence intervals that are
much tighter than independent ones.
"""

from __future__ import annotations

import math
from dataclasses import KW_ONLY, dataclass, field, replace
from functools import lru_cache, partial
from itertools import groupby
from threading import Lock, Thread
from typing import NamedTuple

import numpy as np

# numpy loads its random module on first attribute access.  Load it with
# the package, so the first substream of a run does not pay that import
# inside the trial phase.
import numpy.random  # noqa: F401

from .detection import (
    MAX_PACKETS,
    METRICS,
    DecisionRule,
    DetectorMode,
    H3PacketCountLaw,
    Hypothesis,
    HypothesisVariances,
    decision_rule,
    h3_packet_count_law,
    hypothesis_variances,
    metric_cells,
    statistic_means,
    two_level_rule,
)
from .numerics import check_int, check_real
from .signal_model import (
    IqMismatch,
    MismatchCoefficients,
    SubcarrierPairConfig,
    draw_noise,
    draw_rayleigh,
    irr_to_mismatch,
    mismatch_coefficients,
    receive,
    receive_joint,
)

# Not called here (the engine counts each block where it is drawn, and
# sweep points leave the closed-form metrics to their readers); bound for
# the trace in bench/job.py.
from .detection import analytic_detection, analytic_false_alarm, classify_batch  # noqa: F401
from .stats import MAX_TRIALS, Estimate, Z_95, wilson_interval

__all__ = [
    "SeedSpec",
    "SensingScenario",
    "TallyMatrix",
    "Metrics",
    "SweepPoint",
    "substream",
    "scenario_variances",
    "scenario_rule",
    "scenario_laws",
    "exact_probabilities",
    "rule_for_mode",
    "estimate_component_variances",
    "run_trials",
    "empirical_metrics",
    "p_fa_gap",
    "sweep",
    "SWEEP_AXES",
    "FRAME_STREAM",
    "OUTAGE_STREAM",
    "MAX_WORKERS",
]

# Trials per block: the unit of the stream address and of a thread's work.
_BLOCK_TRIALS = 1 << 16

# Largest K drawn as a product of K uniforms, K = 1 (one uniform)
# included; past it standard_gamma is about as fast.  Per 65,536 variates
# on one thread from SFC64: 0.18-0.21 against 0.52-0.59 ms at K = 1, 0.93
# against 1.16 ms at K = 6, and within this host's noise at K = 7-8.
_ERLANG_MAX = 6

# Fewest trials of a packet-count group that take a standard_gamma call of
# their own; smaller groups share one call with per-trial shapes.  Per-trial
# shapes cost about 13 ns more per variate than a scalar one, and a call
# about 3 us (SFC64, one thread), so they pay for a group of under ~250.
_GAMMA_CALL_MIN = 256

# Fewest packet variates (trials times n_packets) in a run's largest block
# for which the engine starts helper threads.  A smaller block's numpy calls
# are too short for two threads to trade the interpreter lock around them.
# In fresh processes on a 2-vCPU host, a second thread made an 11-point,
# 2-mode sweep 1.3-1.5 times slower at 2e4 trials and n_packets 1 and 4,
# 1.1 times faster at 2e5 trials and n_packets 1 (65,536 variates a block),
# and 1.4 times faster at 2e5 and 2 (131,072).  With blocks drawn into
# workspaces (the same sweeps, medians of 9 and then 15 fresh processes a
# point), it was 1.2-1.4 times slower at 2e4 x 1 and 2e4 x 2, and
# 1.17-1.35 times faster at 2e5 x 4 and 5e4 x 32.  Between them (2e4 x 4
# and 8, 5e4 x 1 and 2, 2e5 x 1 and 2) the time without a helper over the
# time with one ran from 0.94 to 1.44 and moved by up to 0.48 between the
# two rounds: too noisy to move the constant or its cost model.
_THREAD_MIN_VARIATES = 1 << 17

# The most threads that run blocks, the caller included.  The engine starts
# up to one helper per block beyond the first (a default `figure 4` has
# 4,032 blocks), so an unbounded count could ask for thousands of threads;
# blocks gain nothing from more threads than cores.
MAX_WORKERS = 256

# Purpose tags keeping independent uses of a seed on disjoint streams;
# the frame simulator draws from FRAME_STREAM, the CLI's outage Monte
# Carlo from OUTAGE_STREAM.
_TRIAL_STREAM = 0
_ESTIMATOR_STREAM = 1
FRAME_STREAM = 2
OUTAGE_STREAM = 3

SWEEP_AXES = ("irr_db", "snr1_db", "delta_snr_db", "snr_db_at_delta")


@dataclass(frozen=True)
class SeedSpec:
    """Master seed plus a stream index for independent experiments.

    Distinct (master_seed, stream_index) pairs yield statistically
    independent random streams; equal pairs reproduce each other
    exactly.  This is the one place a seed is checked, by the number rule
    of :func:`~iqsense.numerics.check_int`: each field takes a Python or
    numpy integer in range and is stored as a plain ``int``; a ``bool``, a
    float or a string raises ``ValueError`` rather than run another seed.
    """

    master_seed: int
    stream_index: int = 0

    def __post_init__(self):
        seed = self.master_seed
        try:
            object.__setattr__(self, "master_seed", check_int("master_seed", seed, 0, 2**64 - 1))
        except ValueError:
            raise ValueError(f"master_seed must be an int in [0, 2**64), got {seed!r}") from None
        object.__setattr__(self, "stream_index", check_int("stream_index", self.stream_index, 0))


def _as_seed(seed: "SeedSpec | int") -> SeedSpec:
    return seed if isinstance(seed, SeedSpec) else SeedSpec(seed)


def substream(seed: "SeedSpec | int", *path: int) -> np.random.Generator:
    """Generator for one addressed substream of a seed."""
    seed = _as_seed(seed)
    ss = np.random.SeedSequence(
        entropy=seed.master_seed, spawn_key=(seed.stream_index, *path)
    )
    return np.random.Generator(np.random.SFC64(ss))


@dataclass(frozen=True)
class SensingScenario:
    """One operating point of the sensing problem.

    ``snr1_db`` / ``snr2_db`` are the per-subcarrier SNRs
    P_k*|s|^2/noise_var and P_mk*|s|^2/noise_var in dB (PSK symbols are
    unit-modulus, so powers and SNRs coincide up to the noise floor);
    ``-inf`` denotes a permanently silent subcarrier.  ``rx_mismatch``
    switches between the transmitter-only model (None) and the joint
    model in which the sensing receiver's own front end folds the
    mirror observation into the statistic.

    The inputs are the only fields.  ``pair`` (the subcarrier powers the
    SNRs imply) and ``coefficients`` (the transmitter's and receiver's
    mismatch coefficients, the receiver's None for the transmitter-only
    model) are derived from them once, at construction, and take no part
    in ``==`` or ``hash``.  Variants come from :func:`dataclasses.replace`,
    which derives them again, or from :meth:`with_irr`.
    """

    snr1_db: float
    snr2_db: float
    _: KW_ONLY
    tx_mismatch: IqMismatch
    rx_mismatch: IqMismatch | None = None
    n_packets: int = 1
    mode: DetectorMode = DetectorMode("four")
    noise_var: float = 1.0
    channel_var: float = 1.0
    channel_var_mirror: float = 1.0
    psk_order: int = 16
    pair: SubcarrierPairConfig = field(init=False, repr=False, compare=False)
    coefficients: tuple[MismatchCoefficients, MismatchCoefficients | None] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self):
        n = check_int("n_packets", self.n_packets, 1, MAX_PACKETS)
        # noise_var scales the SNRs' powers, so it is checked before they are formed
        v = check_real("noise_var", self.noise_var, 0, strict=True)
        object.__setattr__(self, "n_packets", n)
        object.__setattr__(self, "noise_var", v)
        powers = []
        for name in ("snr1_db", "snr2_db"):
            snr = getattr(self, name)
            snr = -math.inf if snr == -math.inf else check_real(name, snr)
            object.__setattr__(self, name, snr)
            try:
                power = 10.0 ** (snr / 10.0) * v  # 0 at -inf
            except OverflowError:
                power = math.inf
            if power == math.inf:
                raise ValueError(f"{name}={snr:g} dB: the signal power overflows a float")
            powers.append(power)
        pair = SubcarrierPairConfig(
            *powers, v, self.channel_var, self.channel_var_mirror, self.psk_order
        )
        for name in ("channel_var", "channel_var_mirror", "psk_order"):
            object.__setattr__(self, name, getattr(pair, name))
        object.__setattr__(self, "pair", pair)
        rx_c = mismatch_coefficients(self.rx_mismatch) if self.is_joint else None
        object.__setattr__(self, "coefficients", (mismatch_coefficients(self.tx_mismatch), rx_c))

    @property
    def is_joint(self) -> bool:
        return self.rx_mismatch is not None

    @property
    def delta_snr_db(self) -> float:
        return self.snr1_db - self.snr2_db

    def with_irr(self, irr_db: float):
        """Same scenario with both front ends retuned to ``irr_db``
        (the receiver only when the scenario is joint)."""
        tx = irr_to_mismatch(irr_db)
        rx = irr_to_mismatch(irr_db) if self.is_joint else None
        return replace(self, tx_mismatch=tx, rx_mismatch=rx)


@dataclass(eq=False)
class TallyMatrix:
    """4x4 decision counts indexed [true hypothesis, decided hypothesis]."""

    counts: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.counts, dtype=np.int64)
        if c.shape != (4, 4) or np.any(c < 0):
            raise ValueError(f"counts must be a nonnegative 4x4 matrix, got shape {c.shape}")
        self.counts = c

    @property
    def trials_per_hypothesis(self) -> np.ndarray:
        return self.counts.sum(axis=1)

    def __eq__(self, other) -> bool:
        return isinstance(other, TallyMatrix) and np.array_equal(self.counts, other.counts)


@dataclass(frozen=True)
class Metrics:
    """False-alarm and detection estimates under one bookkeeping
    convention, with 95% intervals combined from per-row Wilson
    intervals in quadrature."""

    p_fa: Estimate
    p_d: Estimate


def _combined_estimate(tally: TallyMatrix, convention: str, metric: str) -> Estimate:
    """One metric from the per-row Wilson intervals of its table cells;
    the interval is capped at ``weight`` times the number of rows."""
    weight, cells = metric_cells(convention, metric)
    n = tally.trials_per_hypothesis
    parts = [wilson_interval(int(tally.counts[r, cols].sum()), int(n[r])) for r, cols in cells]
    value = weight * sum(p.value for p in parts)
    hw = weight * math.sqrt(sum(p.half_width**2 for p in parts))
    return Estimate(value, max(0.0, value - hw), min(weight * len(cells), value + hw))


def empirical_metrics(tally: TallyMatrix, convention: str = "paper-sum") -> Metrics:
    """Detector metrics from a tally.

    ``paper-sum``: p_fa = P(busy|H0) + P(busy|H1) and p_d = P(H2|H2) +
    P(H3|H3); ``prior-weighted``: uniform-prior busy averages over the
    idle and the occupied rows respectively.
    """
    n = tally.trials_per_hypothesis
    if np.any(n < 1):
        raise ValueError(f"every hypothesis row needs trials, have {n.tolist()}")
    return Metrics(*(_combined_estimate(tally, convention, m) for m in METRICS))


# --------------------------------------------------------------------------
# variances and rules


def estimate_component_variances(
    sc: SensingScenario,
    samples: int,
    seed: "SeedSpec | int",
    stream_path: tuple[int, ...] = (),
) -> tuple[float, float, float, float]:
    """Sample-mean estimates of the four per-component variances.

    Each is mean(|r|^2)/2 over ``samples`` simulated received samples
    under one hypothesis, drawn from its own substream, independent of
    the trial streams.  The estimates are returned raw (sampling noise
    can leave them out of order); they serve as an oracle for the closed
    form of :func:`scenario_variances`.

    Draw order is fixed: symbol indices on k, symbol indices on -k,
    channel, noise, then the mirror side's channel and noise for the
    joint model (each :func:`~iqsense.signal_model.receive` call draws
    its arguments left to right).  Both index arrays are always drawn,
    so a given substream yields the same draws for every hypothesis.
    """
    if samples < 100:
        raise ValueError(f"need at least 100 samples, got {samples}")
    pair, m = sc.pair, sc.psk_order
    tx_c, rx_c = sc.coefficients
    table = np.exp(2j * np.pi * np.arange(m) / m)
    silent = np.zeros(samples, dtype=complex)
    est = []
    for h in Hypothesis:
        rng = substream(seed, _ESTIMATOR_STREAM, *stream_path, h)
        idx_k, idx_mk = rng.integers(0, m, samples), rng.integers(0, m, samples)
        s_k = table.take(idx_k) if h.own_active else silent
        s_mk = table.take(idx_mk) if h.mirror_active else silent
        r = receive(s_k, s_mk, draw_rayleigh(pair.channel_var, rng, samples),
                    draw_noise(pair.noise_var, rng, samples), pair, tx_c)
        if rx_c is not None:
            y_m = receive(s_mk, s_k, draw_rayleigh(pair.channel_var_mirror, rng, samples),
                          draw_noise(pair.noise_var, rng, samples), pair.mirrored(), tx_c)
            r = receive_joint(r, y_m, rx_c)
        est.append(float(np.mean(np.abs(r) ** 2)) / 2.0)
    return tuple(est)


@lru_cache
def scenario_variances(sc: SensingScenario) -> HypothesisVariances:
    """Closed-form variances the detector uses for this scenario, for
    the transmitter-only and the joint model alike, computed once per
    distinct scenario."""
    return hypothesis_variances(sc.pair, *sc.coefficients)


def rule_for_mode(v: HypothesisVariances, n_packets: int, mode: DetectorMode) -> DecisionRule:
    """The decision rule of ``mode`` for the given variances."""
    if mode.kind == "four":
        return decision_rule(v, n_packets)
    return two_level_rule(v, n_packets, mode)


@lru_cache
def scenario_rule(sc: SensingScenario) -> DecisionRule:
    """The scenario's decision rule, built once per distinct scenario
    (scenarios are frozen and hashable, and the rule depends on nothing
    else)."""
    return rule_for_mode(scenario_variances(sc), sc.n_packets, sc.mode)


def _check_rule(sc: SensingScenario, rule: DecisionRule):
    if rule.n_packets != sc.n_packets:
        raise ValueError(f"rule was built for n_packets={rule.n_packets}, "
                         f"but the scenario has n_packets={sc.n_packets}")


def scenario_laws(sc: SensingScenario) -> list[H3PacketCountLaw | None]:
    """Per hypothesis, the law of the statistic Z = v*Gamma(K, 1)/n, with
    P(K = n + j) = pmf[j], as a ``(v, pmf)`` pair.  A row whose means do not
    depend on the phase (H0-H2, and H3 without a cross term) is the Gamma
    row ``(m, [1.0])``; H3 with a cross term is its cached packet-count
    table (:func:`~iqsense.detection.h3_packet_count_law`), and None where
    that table would pass its length cap.  The trial engine draws each row
    from this law, and :func:`exact_probabilities` gives each row's closed
    form under it."""
    table = h3_packet_count_law(sc.pair, *sc.coefficients, sc.n_packets)
    return [H3PacketCountLaw(float(m[0]), np.ones(1)) if m.min() == m.max() else table
            for m in statistic_means(sc.pair, *sc.coefficients)]


def exact_probabilities(sc: SensingScenario, rule: DecisionRule) -> list[np.ndarray | None]:
    """Per hypothesis, the row of P(decide col | true row) under ``rule``
    and the row's law in :func:`scenario_laws`, the law the trial engine
    draws it from.  Each row with a law is :meth:`~iqsense.detection.DecisionRule.row`
    of it, the expression :func:`~iqsense.detection.conditional_probabilities`
    forms its Gamma rows with, so a one-entry law (H0-H2, and H3 without a
    cross term) whose mean m is 2*sigma^2 (always for H0-H2) has that row bit
    for bit.  A packet-count table's row is within the table's cut mass and
    rounding of the exact law (at most 1e-13); a row with no law (H3 past
    the table's length cap) is None.  ``sense --verify`` tests each row
    against it, and ``analytic`` and ``sense`` print its metrics beside the
    Gamma forms."""
    _check_rule(sc, rule)
    return [None if law is None else rule.row(*law) for law in scenario_laws(sc)]


# --------------------------------------------------------------------------
# trial running


def _chunk_layout(total: int, size: int):
    """(index, count) of the blocks that hold ``total`` trials, one at a
    time."""
    return ((idx, min(size, total - idx * size)) for idx in range((total + size - 1) // size))


class _Block(NamedTuple):
    """One block's statistics in the domain they were drawn in: each p of
    ``products``, a product of uniforms, stands for Z = -scale*log(p), and
    each x of ``values`` for Z = scale*x."""

    scale: float
    products: np.ndarray
    values: np.ndarray


_NONE = np.empty(0)


class _Workspace(NamedTuple):
    """One thread's arrays, each one block long, into which it draws and
    counts every block it runs: ``block`` holds a block's products and then
    its values, ``row`` one row of uniforms (or one packet's exponentials),
    and ``mask`` one count pass."""

    block: np.ndarray
    row: np.ndarray
    mask: np.ndarray


def _workspace(size: int) -> _Workspace:
    # One allocation for both halves: glibc's malloc sets its trim threshold
    # to twice the largest chunk it has unmapped, so the next run reuses
    # these pages instead of faulting them in again; two separate halves
    # would pass that threshold together.
    floats = np.empty(2 * size)
    return _Workspace(floats[:size], floats[size:], np.empty(size, dtype=bool))


def _count(side: np.ndarray, compare, bound: float, mask: np.ndarray) -> int:
    """How many x of ``side`` pass ``compare(x, bound)``, compared into
    ``mask``; an empty side makes no pass."""
    if not side.size:
        return 0
    passed = compare(side, bound, out=mask[:side.size])
    return int(np.count_nonzero(passed))


def _block_counts(block: _Block, rule: DecisionRule, mask: np.ndarray | None = None) -> np.ndarray:
    """Decision counts of a block's statistics under ``rule``, each counted
    where it was drawn: Z >= t is p <= exp(-t/scale) for a product of
    uniforms (a zero product is Z = inf, and an ``exp`` that underflows to
    0 counts only zeros), and x >= t/scale for a value.  Each pass compares
    into ``mask``, a bool array at least as long as either side, made here
    when not given."""
    scale, products, values = block
    if mask is None:
        mask = np.empty(max(products.size, values.size), dtype=bool)
    at_or_above = [
        _count(products, np.less_equal, math.exp(-t / scale), mask)
        + _count(values, np.greater_equal, t / scale, mask)
        for t in rule.boundaries
    ]
    return rule.decided(products.size + values.size, at_or_above)


def _per_packet_statistics(
    means: np.ndarray, n_packets: int, streams, size: int, ws: _Workspace | None = None
) -> _Block:
    """``size`` H3 statistics Z drawn packet by packet: ``means`` holds the
    mean of |r_k|^2 at each of the M phases; each packet draws one phase
    index per trial from kind 0 and one exponential per trial from kind 1,
    and Z averages the packets.  Z itself is the block's values, at scale 1,
    summed in ``ws`` (made here when not given) with each packet's
    exponentials in its row; each packet's phase indices, and the means of
    every packet after the first, are arrays of their own."""
    ws = ws or _workspace(size)
    phases, powers = streams(0), streams(1)
    z, e = ws.block[:size], ws.row[:size]
    # every index is in range, so "clip" takes as "raise" does, without a copy
    means.take(phases.integers(0, means.size, size), out=z, mode="clip")
    z *= powers.standard_exponential(out=e)
    for _ in range(1, n_packets):
        power = means.take(phases.integers(0, means.size, size))
        z += np.multiply(power, powers.standard_exponential(out=e), out=power)
    z /= n_packets
    return _Block(1.0, _NONE, z)


def _packet_count_statistics(
    v: float, pmf: np.ndarray, n: int, streams, size: int, ws: _Workspace | None = None
) -> _Block:
    """``size`` statistics Z = v*Gamma(K, 1)/n with P(K = n + j) = pmf[j].

    A one-entry ``pmf`` draws its variates on kind 0.  A longer one draws
    how many trials take each K with one ``multinomial`` on kind 0 (the
    trials are exchangeable, so only those counts matter), then draws
    every group, in increasing K, from kind 1.  A group with K <=
    :data:`_ERLANG_MAX` is a product of K uniforms, built row by row in the
    block's products.  Every other trial is a gamma variate: a group of at
    least :data:`_GAMMA_CALL_MIN` trials takes one ``standard_gamma`` call,
    and each run of smaller groups between them one call with per-trial
    shapes, so a long table costs a bounded number of calls.  Products and
    values are drawn into ``ws`` (made here when not given), the products
    first.
    """
    ws = ws or _workspace(size)
    if pmf.size > 1:
        counts = streams(0).multinomial(size, pmf)
        js = np.flatnonzero(counts)
        groups, rng = list(zip((n + js).tolist(), counts[js].tolist())), streams(1)
    else:
        groups, rng = [(n, size)], streams(0)
    short = [(k, c) for k, c in groups if k <= _ERLANG_MAX]
    long = groups[len(short):]  # the groups run in increasing K
    split = sum(c for _, c in short)
    products, values = ws.block[:split], ws.block[split:size]
    start = 0
    for k, c in short:
        p, r = products[start:start + c], ws.row[:c]
        start += c
        rng.random(out=p)
        for _ in range(1, k):
            rng.random(out=r)
            p *= r
    start = 0
    for large, run in groupby(long, key=lambda g: g[1] >= _GAMMA_CALL_MIN):
        run = list(run)
        if not large:
            ks, cs = zip(*run)
            run = [(np.repeat(ks, cs), sum(cs))]
        for shape, c in run:
            rng.standard_gamma(shape, c, out=values[start:start + c])
            start += c
    return _Block(v / n, products, values)


def _statistic_draws(sc: SensingScenario) -> list:
    """Per hypothesis, ``draw(streams, size, ws=None)``, which returns a
    :class:`_Block` of ``size`` statistics drawn into the workspace ``ws``
    (into arrays of its own without one); ``streams(kind)`` builds the
    generator of that kind, and a draw builds only the kinds it draws
    from.  A row draws from its law in :func:`scenario_laws`, and a row
    without one packet by packet from its means."""
    n = sc.n_packets
    return [partial(_per_packet_statistics, means, n) if law is None
            else partial(_packet_count_statistics, *law, n)
            for means, law in zip(statistic_means(sc.pair, *sc.coefficients), scenario_laws(sc))]


def _chunk_task(args) -> tuple[int, np.ndarray]:
    """Draw one block under one hypothesis into the workspace and count its
    decisions under every rule; returns (hypothesis, per-rule decision
    counts)."""
    draw, rules, hyp, block, count, seed, stream_path, ws = args
    drawn = draw(partial(substream, seed, _TRIAL_STREAM, *stream_path, hyp, block), count, ws)
    return hyp, np.array([_block_counts(drawn, rule, ws.mask) for rule in rules])


def _tally_jobs(
    jobs: list[tuple[SensingScenario, list[DecisionRule], tuple[int, ...]]],
    per_hypothesis: int,
    seed: "SeedSpec | int",
    workers: int,
) -> list[list[TallyMatrix]]:
    """The trial engine: per-rule tallies for each (scenario, rules,
    stream path) job.

    The calling thread and up to ``workers - 1`` helper threads each run
    blocks in a loop: take the next block of the next job, made as it is
    taken, draw and count it, and add its counts into its job.  Each
    thread allocates one :class:`_Workspace` of the run's block size,
    ``min(per_hypothesis, _BLOCK_TRIALS)``, when it starts, and draws and
    counts every block it runs in it, so blocks do not allocate and fault
    in arrays of their own, and the engine's memory does not grow with the
    trial count.  Integer addition keeps the result independent of
    ``workers``.  Helpers start only when the largest block
    draws at least :data:`_THREAD_MIN_VARIATES` packet variates, one per
    block beyond the first at the most, and are joined before the call
    returns or raises.  When a block raises, no thread takes another
    block, and the caller gets the first exception itself.
    """
    per_hypothesis = check_int("per_hypothesis", per_hypothesis, 1, MAX_TRIALS)
    workers = check_int("workers", workers, 1, MAX_WORKERS)
    seed = _as_seed(seed)
    counts = [np.zeros((len(rules), 4, 4), dtype=np.int64) for _, rules, _ in jobs]
    tasks = (
        (job, (draw, rules, hyp, idx, count, seed, path))
        for job, (sc, rules, path) in zip(counts, jobs)
        for hyp, draw in enumerate(_statistic_draws(sc))
        for idx, count in _chunk_layout(per_hypothesis, _BLOCK_TRIALS)
    )
    lock, failed = Lock(), []  # a thread's exception: no thread takes another block
    size = min(per_hypothesis, _BLOCK_TRIALS)  # of each thread's workspace

    def work():
        ws = _workspace(size)
        while not failed:
            with lock:
                job, task = next(tasks, (None, None))
            if job is None:
                return
            hyp, arr = _chunk_task((*task, ws))
            with lock:
                job[:, hyp, :] += arr

    def helper():
        try:
            work()
        except BaseException as e:
            failed.append(e)

    blocks = len(Hypothesis) * len(jobs) * -(-per_hypothesis // _BLOCK_TRIALS)
    variates = size * max(sc.n_packets for sc, _, _ in jobs)
    helpers = []
    try:
        if variates >= _THREAD_MIN_VARIATES:
            for _ in range(min(workers, blocks) - 1):
                thread = Thread(target=helper)
                thread.start()
                helpers.append(thread)
        work()
    except BaseException as e:
        failed.append(e)
        raise
    finally:
        for thread in helpers:
            thread.join()
    if failed:
        raise failed[0]
    return [[TallyMatrix(c) for c in job_counts] for job_counts in counts]


def run_trials(
    sc: SensingScenario,
    per_hypothesis: int,
    seed: "SeedSpec | int",
    *,
    rule: DecisionRule | None = None,
    workers: int = 1,
    stream_path: tuple[int, ...] = (),
) -> TallyMatrix:
    """Simulate ``per_hypothesis`` trials under each true hypothesis and
    tally the scenario detector's decisions.

    Results depend only on (scenario, seed, per_hypothesis, stream path):
    block tallies merge by addition, so any worker count reproduces the
    serial run bit for bit.
    """
    if rule is None:
        rule = scenario_rule(sc)
    _check_rule(sc, rule)
    return _tally_jobs([(sc, [rule], stream_path)], per_hypothesis, seed, workers)[0][0]


# --------------------------------------------------------------------------
# paired mode comparison


def p_fa_gap(a: TallyMatrix, b: TallyMatrix, convention: str = "prior-weighted") -> Estimate:
    """False-alarm gap (b minus a) under ``convention``, with a paired 95%
    interval.

    ``a`` and ``b`` must tally the same trials: two modes of one
    :func:`sweep` grid point, or two :func:`run_trials` calls with one
    seed and stream path and different rules.  Every rule
    :func:`rule_for_mode` builds has increasing levels, so a mode's busy
    set is ``z >= t`` and one mode's set contains the other's; a row's
    paired difference d then has variance (|d| - d^2) / n.
    """
    n, nb = a.trials_per_hypothesis, b.trials_per_hypothesis
    if not np.array_equal(n, nb):
        raise ValueError(f"tallies must count the same trials, got {n.tolist()} and {nb.tolist()}")
    weight, cells = metric_cells(convention, "p_fa")
    rows = [r for r, _ in cells]
    diff = b.counts - a.counts
    d = np.array([diff[r, cols].sum() for r, cols in cells]) / n[rows]
    value = weight * float(d.sum())
    hw = weight * Z_95 * math.sqrt(float(np.sum((np.abs(d) - d * d) / n[rows])))
    return Estimate(value, value - hw, value + hw)


# --------------------------------------------------------------------------
# parameter sweeps


@dataclass(frozen=True)
class SweepPoint:
    """One (grid value, detector mode) cell of a sweep.

    ``variances`` are the closed-form variances the rule was built from:
    the closed-form metrics at them
    (``convention_metric(conditional_probabilities(variances, rule), ...)``)
    against :func:`empirical_metrics` of ``tally`` measure Monte Carlo
    closure directly.
    """

    axis: str
    value: float
    mode: DetectorMode
    variances: HypothesisVariances
    rule: DecisionRule
    tally: TallyMatrix


def _apply_axis(sc: SensingScenario, axis: str, value: float) -> SensingScenario:
    if axis == "irr_db":
        return sc.with_irr(value)
    if axis == "snr1_db":
        return replace(sc, snr1_db=value)
    if axis == "delta_snr_db":
        return replace(sc, snr1_db=sc.snr2_db + value)
    # snr_db_at_delta (sweep refuses any other axis): move the whole
    # operating point, preserving the template's SNR1 - SNR2 offset; value
    # is the new SNR1.
    return replace(sc, snr1_db=value, snr2_db=value - sc.delta_snr_db)


def sweep(
    curves,
    per_hypothesis: int,
    seed: "SeedSpec | int",
    *,
    workers: int = 1,
) -> list[SweepPoint]:
    """Evaluate the detector(s) along the parameter axis of every curve.

    Each curve is ``(scenario, axis, grid, modes, stream_path)``.
    Returns one :class:`SweepPoint` per (curve, grid value, mode), in
    that order, modes paired on common random numbers within each grid
    point.

    Every grid point of every curve is checked before any trial runs: the
    first one the model cannot take raises its error (a
    :class:`VarianceOrderError` for variances out of order, a
    ``ValueError`` for an IRR that is not negative or an SNR whose power
    overflows), of the same type and naming the point.  Grid point i of a
    curve draws from stream path ``(*stream_path, i)``, so its results do
    not depend on the rest of the grid or on the other curves, and curves
    with distinct ``stream_path`` prefixes are independent.  The blocks of
    all points of all curves run as one batch of the trial engine.
    """
    points, jobs = [], []  # (axis, value, modes, variances, rules), engine jobs
    for sc, axis, grid, modes, stream_path in curves:
        if axis not in SWEEP_AXES:
            raise ValueError(f"axis must be one of {SWEEP_AXES}, got {axis!r}")
        # -inf is a silent subcarrier on an SNR axis and the ideal front end
        # on the IRR axis; any other point follows the number rule
        grid = [-math.inf if g == -math.inf else check_real(f"{axis} grid point", g)
                for g in grid]
        if not grid:
            raise ValueError("grid must be nonempty")
        modes = list(modes)
        if not modes:
            raise ValueError("modes must be nonempty")
        for i, value in enumerate(grid):
            try:
                scn = _apply_axis(sc, axis, value)
                v = scenario_variances(scn)
            except ValueError as e:
                raise type(e)(f"{axis}={value:g}: {e}") from None
            rules = [rule_for_mode(v, scn.n_packets, m) for m in modes]
            points.append((axis, value, modes, v, rules))
            jobs.append((scn, rules, (*stream_path, i)))
    if not jobs:
        raise ValueError("curves must be nonempty")
    tallies = _tally_jobs(jobs, per_hypothesis, seed, workers)
    return [
        SweepPoint(axis, value, mode, v, rule, tally)
        for (axis, value, modes, v, rules), point_tallies in zip(points, tallies)
        for mode, rule, tally in zip(modes, rules, point_tallies)
    ]
