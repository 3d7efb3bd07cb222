"""Seeded Monte Carlo harness for the pair-sensing detectors.

Reproducibility contract: every random draw comes from a
``numpy.random.SeedSequence`` keyed by ``(stream_index, purpose, *path,
hypothesis, chunk)`` under a single master seed.  Work is partitioned
into fixed-size chunks whose tallies merge by integer addition, so
results are a pure function of (scenario, seed, trial count,
chunk size) -- bit-identical across runs and worker counts.

One engine runs every trial: :func:`run_trials` hands it one job and
:func:`sweep` one job per grid point, and it maps all their chunks over
a process pool in a single batch.  Calls made inside one
``shared_pool`` scope share one pool, started on the first batch that
needs ``workers > 1``; the CLI holds that scope for a whole command, so
one CLI call uses at most one worker pool.

Detector modes evaluated at the same sweep point share the generation
streams (common random numbers): every mode classifies the same
simulated statistics, which makes mode-vs-mode gaps directly
comparable and lets :func:`compare_modes` attach paired-difference
confidence intervals that are much tighter than independent ones.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

# numpy loads its random module on first attribute access.  Load it with
# the package, so the first substream of a run (often in a freshly forked
# pool worker) does not pay that import inside the trial phase.
import numpy.random  # noqa: F401

from .detection import (
    DecisionRule,
    DetectorMode,
    Hypothesis,
    HypothesisVariances,
    VarianceOrderError,
    analytic_detection,
    analytic_false_alarm,
    decision_counts,
    decision_rule,
    hypothesis_variances,
    two_level_rule,
)
from .signal_model import (
    IqMismatch,
    MismatchCoefficients,
    SubcarrierPairConfig,
    draw_noise,
    draw_rayleigh,
    irr_to_mismatch,
    mismatch_coefficients,
    receive_joint,
)

# Not called here (the kernel tallies with decision_counts and folds receive
# into a symbol table); bound for the trace in bench/job.py.
from .detection import classify_batch  # noqa: F401
from .signal_model import receive  # noqa: F401
from .stats import Estimate, Z_95, wilson_interval

__all__ = [
    "SeedSpec",
    "SensingScenario",
    "TallyMatrix",
    "Metrics",
    "SweepPoint",
    "ModeComparison",
    "substream",
    "scenario_variances",
    "scenario_rule",
    "rule_for_mode",
    "estimate_component_variances",
    "run_trials",
    "empirical_metrics",
    "compare_modes",
    "sweep",
    "sweep_variances",
    "SWEEP_AXES",
    "FRAME_STREAM",
    "DEFAULT_CHUNK_SIZE",
]

DEFAULT_CHUNK_SIZE = 1 << 16

# Purpose tags keeping independent uses of a seed on disjoint streams;
# the frame simulator draws from FRAME_STREAM.
_TRIAL_STREAM = 0
_ESTIMATOR_STREAM = 1
FRAME_STREAM = 2

SWEEP_AXES = ("irr_db", "snr1_db", "delta_snr_db", "snr_db_at_delta")


@dataclass(frozen=True)
class SeedSpec:
    """Master seed plus a stream index for independent experiments.

    Distinct (master_seed, stream_index) pairs yield statistically
    independent random streams; equal pairs reproduce each other
    exactly.
    """

    master_seed: int
    stream_index: int = 0

    def __post_init__(self):
        if not isinstance(self.master_seed, int) or not (0 <= self.master_seed < 2**64):
            raise ValueError(f"master_seed must be an int in [0, 2**64), got {self.master_seed!r}")
        if not isinstance(self.stream_index, int) or self.stream_index < 0:
            raise ValueError(f"stream_index must be a nonnegative int, got {self.stream_index!r}")


def _as_seed(seed: "SeedSpec | int") -> SeedSpec:
    if isinstance(seed, SeedSpec):
        return seed
    return SeedSpec(int(seed))


def substream(seed: "SeedSpec | int", *path: int) -> np.random.Generator:
    """Generator for one addressed substream of a seed."""
    seed = _as_seed(seed)
    ss = np.random.SeedSequence(
        entropy=seed.master_seed, spawn_key=(seed.stream_index, *path)
    )
    return np.random.default_rng(ss)


def _power_for(snr_db: float, noise_var: float) -> float:
    if snr_db == float("-inf"):
        return 0.0
    return 10.0 ** (snr_db / 10.0) * noise_var


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
    """

    pair: SubcarrierPairConfig
    tx_mismatch: IqMismatch
    rx_mismatch: IqMismatch | None
    n_packets: int
    mode: DetectorMode
    snr1_db: float
    snr2_db: float

    def __post_init__(self):
        if not isinstance(self.n_packets, int) or self.n_packets < 1:
            raise ValueError(f"n_packets must be an int >= 1, got {self.n_packets!r}")
        for name, snr, power in (
            ("snr1_db", self.snr1_db, self.pair.power_k),
            ("snr2_db", self.snr2_db, self.pair.power_mk),
        ):
            if math.isnan(snr) or snr == float("inf"):
                raise ValueError(f"{name} must be finite or -inf, got {snr}")
            expected = _power_for(snr, self.pair.noise_var)
            if expected == 0.0:
                ok = power == 0.0
            else:
                ok = abs(power - expected) <= 1e-9 * expected
            if not ok:
                raise ValueError(
                    f"{name}={snr} inconsistent with configured power {power} "
                    f"(expected {expected})"
                )

    @classmethod
    def from_snr(
        cls,
        snr1_db: float,
        snr2_db: float,
        *,
        tx_mismatch: IqMismatch,
        rx_mismatch: IqMismatch | None = None,
        n_packets: int = 1,
        mode: DetectorMode | None = None,
        noise_var: float = 1.0,
        channel_var: float = 1.0,
        channel_var_mirror: float = 1.0,
        psk_order: int = 16,
    ) -> "SensingScenario":
        pair = SubcarrierPairConfig(
            power_k=_power_for(snr1_db, noise_var),
            power_mk=_power_for(snr2_db, noise_var),
            noise_var=noise_var,
            channel_var=channel_var,
            channel_var_mirror=channel_var_mirror,
            psk_order=psk_order,
        )
        return cls(
            pair=pair,
            tx_mismatch=tx_mismatch,
            rx_mismatch=rx_mismatch,
            n_packets=n_packets,
            mode=mode if mode is not None else DetectorMode.four_level(),
            snr1_db=float(snr1_db),
            snr2_db=float(snr2_db),
        )

    @property
    def is_joint(self) -> bool:
        return self.rx_mismatch is not None

    @property
    def coefficients(self) -> tuple[MismatchCoefficients, MismatchCoefficients | None]:
        """(transmitter, receiver) mismatch coefficients; the receiver's
        are None for the transmitter-only model."""
        tx_c = mismatch_coefficients(self.tx_mismatch)
        rx_c = mismatch_coefficients(self.rx_mismatch) if self.is_joint else None
        return tx_c, rx_c

    @property
    def delta_snr_db(self) -> float:
        return self.snr1_db - self.snr2_db

    def with_snr(self, snr1_db: float | None = None, snr2_db: float | None = None):
        s1 = self.snr1_db if snr1_db is None else float(snr1_db)
        s2 = self.snr2_db if snr2_db is None else float(snr2_db)
        pair = replace(
            self.pair,
            power_k=_power_for(s1, self.pair.noise_var),
            power_mk=_power_for(s2, self.pair.noise_var),
        )
        return replace(self, pair=pair, snr1_db=s1, snr2_db=s2)

    def with_irr(self, irr_db: float):
        """Same scenario with both front ends retuned to ``irr_db``
        (the receiver only when the scenario is joint)."""
        tx = irr_to_mismatch(irr_db)
        rx = irr_to_mismatch(irr_db) if self.is_joint else None
        return replace(self, tx_mismatch=tx, rx_mismatch=rx)

    def with_mode(self, mode: DetectorMode):
        return replace(self, mode=mode)


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

    @property
    def busy_counts(self) -> np.ndarray:
        return self.counts[:, 2] + self.counts[:, 3]

    def conditional_rates(self) -> np.ndarray:
        """Empirical P(decide col | true row); rows need trials."""
        n = self.trials_per_hypothesis
        if np.any(n < 1):
            raise ValueError(f"every hypothesis row needs trials, have {n.tolist()}")
        return self.counts / n[:, None]

    def __eq__(self, other) -> bool:
        return isinstance(other, TallyMatrix) and np.array_equal(self.counts, other.counts)


@dataclass(frozen=True)
class Metrics:
    """False-alarm and detection estimates under one bookkeeping
    convention, with 95% intervals combined from per-row Wilson
    intervals in quadrature."""

    convention: str
    p_fa: Estimate
    p_d: Estimate


def _combined_estimate(parts: list[Estimate], weight: float, cap: float) -> Estimate:
    value = weight * sum(p.value for p in parts)
    hw = weight * math.sqrt(sum(p.half_width**2 for p in parts))
    return Estimate(value, max(0.0, value - hw), min(cap, value + hw))


def empirical_metrics(tally: TallyMatrix, convention: str = "paper-sum") -> Metrics:
    """Detector metrics from a tally.

    ``paper-sum``: p_fa = P(busy|H0) + P(busy|H1) and p_d = P(H2|H2) +
    P(H3|H3); ``prior-weighted``: uniform-prior busy averages over the
    idle and the occupied rows respectively.
    """
    if convention not in ("paper-sum", "prior-weighted"):
        raise ValueError(f"unknown convention {convention!r}")
    n = tally.trials_per_hypothesis
    if np.any(n < 1):
        raise ValueError(f"every hypothesis row needs trials, have {n.tolist()}")
    busy = tally.busy_counts
    fa_parts = [wilson_interval(int(busy[i]), int(n[i])) for i in (0, 1)]
    if convention == "paper-sum":
        pd_parts = [
            wilson_interval(int(tally.counts[2, 2]), int(n[2])),
            wilson_interval(int(tally.counts[3, 3]), int(n[3])),
        ]
        return Metrics(
            convention,
            _combined_estimate(fa_parts, 1.0, 2.0),
            _combined_estimate(pd_parts, 1.0, 2.0),
        )
    pd_parts = [wilson_interval(int(busy[i]), int(n[i])) for i in (2, 3)]
    return Metrics(
        convention,
        _combined_estimate(fa_parts, 0.5, 1.0),
        _combined_estimate(pd_parts, 0.5, 1.0),
    )


# --------------------------------------------------------------------------
# sample generation


def _received_batch(
    sc: SensingScenario,
    tx_c: MismatchCoefficients,
    rx_c: MismatchCoefficients | None,
    hyp: int,
    count: int,
    n_packets: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """(count, n_packets) received samples under one true hypothesis.

    Draw order is fixed: symbol indices on k, symbol indices on -k,
    channel, noise, then the mirror-side channel and noise for the joint
    model.  Both index arrays are always drawn, so a given substream
    yields the same draws for every hypothesis.

    The samples equal, bit for bit, those of the sample-level reference
    in ``tests/sample_oracle.py``, which looks the symbols up one side at
    a time and applies :func:`~iqsense.signal_model.receive` and
    :func:`~iqsense.signal_model.receive_joint`.  Here the two indices
    fold into one, ``ik*m + imk``, into an m x m table of transmitted
    samples (a silent side contributes a zero row or column).  Channel
    and noise are applied in place, with the reference's operands in the
    reference's order, and the joint model combines the two sides with
    ``receive_joint`` as the reference does.
    """
    pair = sc.pair
    h = Hypothesis(hyp)
    m = pair.psk_order
    size = (count, n_packets)
    idx = rng.integers(0, m, size)
    idx *= m
    idx += rng.integers(0, m, size)
    table = np.exp(2j * np.pi * np.arange(m) / m)
    silent = np.zeros(m, dtype=complex)
    s_k = (table if h.own_active else silent)[:, None]
    s_mk = (table if h.mirror_active else silent)[None, :]
    sent = h != Hypothesis.H0
    image_first = count * n_packets * np.dtype(complex).itemsize >= _ELISION_BYTES
    tab = _transmit_table(s_k, s_mk, pair, tx_c, image_first) if sent else None
    y = _faded(tab, idx, rng, pair.channel_var, pair.noise_var)
    if rx_c is None:
        return y
    tab_m = _transmit_table(s_mk, s_k, pair.mirrored(), tx_c, image_first) if sent else None
    y_m = _faded(tab_m, idx, rng, pair.channel_var_mirror, pair.noise_var)
    return receive_joint(y, y_m, rx_c)


# numpy runs ``c * t`` as ``t *= c`` when ``t`` is a temporary of at least
# 256 KiB, and where its SIMD complex product uses fused multiply-add, the
# swapped product can differ in the last bit of the imaginary part.  The
# sample-level model formed the image term of ``transmit`` on (count,
# n_packets) arrays, so the table takes the operand order that size gave it.
_ELISION_BYTES = 256 * 1024


def _transmit_table(s_k, s_mk, pair, tx_c, image_first: bool) -> np.ndarray:
    """:func:`~iqsense.signal_model.transmit` over the grid of a column of
    k-side and a row of mirror-side symbols; ``image_first`` puts the
    conjugated symbols first in the image term's product."""
    c = tx_c.beta * math.sqrt(pair.power_mk)
    conj = np.conjugate(s_mk)
    image = conj * c if image_first else c * conj
    return tx_c.alpha * math.sqrt(pair.power_k) * s_k + image


def _faded(tab, idx, rng, channel_var, noise_var) -> np.ndarray:
    """One side's received samples ``tab[idx]*ch + w``, as
    :func:`~iqsense.signal_model.receive` computes them.  ``tab`` None
    means nothing is sent (H0): the samples are the noise itself."""
    ch = draw_rayleigh(channel_var, rng, idx.shape)
    w = draw_noise(noise_var, rng, idx.shape)
    if tab is None:
        return w
    y = tab.ravel().take(idx)
    y *= ch
    y += w
    return y


def _statistic_batch(sc, tx_c, rx_c, hyp, count, rng) -> np.ndarray:
    """Average periodogram |r|^2 over each trial's packets.

    ``abs(r)`` squared rounds as the reference's ``abs(r) ** 2`` does;
    ``re**2 + im**2`` would round differently.
    """
    a = np.abs(_received_batch(sc, tx_c, rx_c, hyp, count, sc.n_packets, rng))
    a *= a
    return a.mean(axis=1)


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
    """
    if samples < 100:
        raise ValueError(f"need at least 100 samples, got {samples}")
    tx_c, rx_c = sc.coefficients
    est = []
    for hyp in range(4):
        rng = substream(seed, _ESTIMATOR_STREAM, *stream_path, hyp)
        r = _received_batch(sc, tx_c, rx_c, hyp, samples, 1, rng)
        est.append(float(np.mean(np.abs(r) ** 2)) / 2.0)
    return tuple(est)


def scenario_variances(sc: SensingScenario) -> HypothesisVariances:
    """Closed-form variances the detector uses for this scenario, for
    the transmitter-only and the joint model alike."""
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


# --------------------------------------------------------------------------
# trial running


def _chunk_layout(total: int, chunk_size: int) -> list[tuple[int, int]]:
    return [
        (idx, min(chunk_size, total - idx * chunk_size))
        for idx in range((total + chunk_size - 1) // chunk_size)
    ]


def _chunk_task(args) -> tuple[int, np.ndarray]:
    """Simulate one chunk under one hypothesis and classify it with
    every rule; returns (hypothesis, per-rule decision bincounts)."""
    sc, rules, hyp, chunk_idx, count, seed, stream_path = args
    tx_c, rx_c = sc.coefficients
    rng = substream(seed, _TRIAL_STREAM, *stream_path, hyp, chunk_idx)
    z = _statistic_batch(sc, tx_c, rx_c, hyp, count, rng)
    return hyp, np.array([decision_counts(z, rule) for rule in rules])


class _SharedPool:
    """Reentrant scope that shares one lazily started process pool.

    Engine calls inside the outermost ``with`` block reuse one pool.  It
    starts at the first call that needs ``workers > 1``, keeps that
    call's worker count (tallies do not depend on it), and shuts down
    when the outermost block exits, so a scope in which no trial runs in
    parallel starts no process.  The engine enters the scope itself, so a
    call made outside any scope gets a pool of its own.
    """

    def __init__(self):
        self._depth = 0
        self._pool: ProcessPoolExecutor | None = None

    def __enter__(self) -> "_SharedPool":
        self._depth += 1
        return self

    def __exit__(self, *exc):
        self._depth -= 1
        if self._depth == 0 and self._pool is not None:
            pool, self._pool = self._pool, None
            pool.shutdown(cancel_futures=True)

    def map(self, fn, tasks: list, workers: int) -> list:
        if workers == 1:
            return list(map(fn, tasks))
        if self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=workers)
        # Small maps go one task per pool item, so every worker gets a
        # share.  A large map goes in about 32 items per worker: each item
        # costs this process ~0.7 ms of CPU, which the workers lose when
        # cores are few, and 32 items still leave a short last one.
        chunksize = max(1, len(tasks) // (32 * workers))
        return list(self._pool.map(fn, tasks, chunksize=chunksize))


# The package's one pool scope; ``iqsense.cli`` holds it open for a whole call.
shared_pool = _SharedPool()


def _tally_jobs(
    jobs: list[tuple[SensingScenario, list[DecisionRule], tuple[int, ...]]],
    per_hypothesis: int,
    seed: "SeedSpec | int",
    workers: int,
    chunk_size: int,
) -> list[list[TallyMatrix]]:
    """The trial engine: per-rule tallies for each (scenario, rules,
    stream path) job.

    Every chunk of every job is one task of a single map over the shared
    pool; chunk counts merge into their job by integer addition, so the
    result does not depend on ``workers``.
    """
    for name, value in (("per_hypothesis", per_hypothesis), ("chunk_size", chunk_size),
                        ("workers", workers)):
        if value < 1:
            raise ValueError(f"{name} must be >= 1, got {value}")
    seed = _as_seed(seed)
    layout = _chunk_layout(per_hypothesis, chunk_size)
    tasks = [
        (sc, rules, hyp, idx, count, seed, path)
        for sc, rules, path in jobs
        for hyp in range(4)
        for idx, count in layout
    ]
    with shared_pool:
        results = shared_pool.map(_chunk_task, tasks, workers)
    counts = [np.zeros((len(rules), 4, 4), dtype=np.int64) for _, rules, _ in jobs]
    tasks_per_job = 4 * len(layout)
    for t, (hyp, arr) in enumerate(results):
        counts[t // tasks_per_job][:, hyp, :] += arr
    return [[TallyMatrix(c) for c in job_counts] for job_counts in counts]


def run_trials(
    sc: SensingScenario,
    per_hypothesis: int,
    seed: "SeedSpec | int",
    *,
    rule: DecisionRule | None = None,
    workers: int = 1,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    stream_path: tuple[int, ...] = (),
) -> TallyMatrix:
    """Simulate ``per_hypothesis`` trials under each true hypothesis and
    tally the scenario detector's decisions.

    Results depend only on (scenario, seed, per_hypothesis,
    chunk_size): chunk tallies merge by addition, so any worker count
    reproduces the serial run bit for bit.
    """
    if rule is None:
        rule = scenario_rule(sc)
    elif rule.n_packets != sc.n_packets:
        raise ValueError(
            f"rule was built for n_packets={rule.n_packets}, "
            f"but the scenario has n_packets={sc.n_packets}"
        )
    return _tally_jobs([(sc, [rule], stream_path)], per_hypothesis, seed, workers, chunk_size)[0][0]


# --------------------------------------------------------------------------
# paired mode comparison


@dataclass(frozen=True)
class ModeComparison:
    """Joint busy/busy counts of two detector modes on common trials.

    ``joint_counts[h] = (both, only_a, only_b, neither)`` for true
    hypothesis h.  Because both modes classified the same statistics,
    gap estimates carry paired-difference intervals.
    """

    mode_a: DetectorMode
    mode_b: DetectorMode
    joint_counts: np.ndarray  # (4, 4) int64
    per_hypothesis: int

    def _row_gap(self, hyp: int) -> tuple[float, float]:
        """Paired difference P_b(busy|h) - P_a(busy|h) and its SE."""
        n = self.per_hypothesis
        _, only_a, only_b, _ = self.joint_counts[hyp]
        p10, p01 = only_a / n, only_b / n
        d = p01 - p10
        var = max(p01 + p10 - d * d, 0.0) / n
        return d, math.sqrt(var)

    def busy_gap(self, rows: tuple[int, ...], weight: float) -> Estimate:
        """Weighted busy-rate gap (mode_b minus mode_a) over truth rows."""
        gaps = [self._row_gap(h) for h in rows]
        value = weight * sum(g for g, _ in gaps)
        hw = weight * Z_95 * math.sqrt(sum(se**2 for _, se in gaps))
        return Estimate(value, value - hw, value + hw)

    def p_fa_gap(self, convention: str = "prior-weighted") -> Estimate:
        w = 1.0 if convention == "paper-sum" else 0.5
        return self.busy_gap((0, 1), w)


def compare_modes(
    sc: SensingScenario,
    mode_a: DetectorMode,
    mode_b: DetectorMode,
    per_hypothesis: int,
    seed: "SeedSpec | int",
    *,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    stream_path: tuple[int, ...] = (),
) -> ModeComparison:
    """Joint busy decisions of two modes per true hypothesis, on the
    trials of one serial trial-engine job.

    Every rule :func:`rule_for_mode` builds has increasing levels, so a
    mode's busy set is ``z >= t``: one mode's set contains the other's,
    and both modes flag as many trials as the smaller busy count.
    """
    v = scenario_variances(sc)
    job = (sc, [rule_for_mode(v, sc.n_packets, m) for m in (mode_a, mode_b)], stream_path)
    [[tally_a, tally_b]] = _tally_jobs([job], per_hypothesis, seed, 1, chunk_size)
    a, b = tally_a.busy_counts, tally_b.busy_counts
    both = np.minimum(a, b)
    joint = np.stack([both, a - both, b - both, per_hypothesis - a - b + both], axis=1)
    return ModeComparison(mode_a, mode_b, joint, per_hypothesis)


# --------------------------------------------------------------------------
# parameter sweeps


@dataclass(frozen=True)
class SweepPoint:
    """One (grid value, detector mode) cell of a sweep.

    Analytic columns are closed forms evaluated at the variances the
    rule was built from, so empirical minus analytic measures Monte
    Carlo closure directly.
    """

    axis: str
    value: float
    mode: DetectorMode
    variances: HypothesisVariances
    rule: DecisionRule
    pfa_analytic_paper: float
    pfa_analytic_prior: float
    pd_analytic_paper: float
    pd_analytic_prior: float
    paper: Metrics
    prior: Metrics
    tally: TallyMatrix


def _apply_axis(sc: SensingScenario, axis: str, value: float) -> SensingScenario:
    if axis == "irr_db":
        return sc.with_irr(value)
    if axis == "snr1_db":
        return sc.with_snr(snr1_db=value)
    if axis == "delta_snr_db":
        return sc.with_snr(snr1_db=sc.snr2_db + value)
    if axis == "snr_db_at_delta":
        # Move the whole operating point, preserving the template's
        # SNR1 - SNR2 offset: value is the new SNR1.
        return sc.with_snr(snr1_db=value, snr2_db=value - sc.delta_snr_db)
    raise ValueError(f"axis must be one of {SWEEP_AXES}, got {axis!r}")


def sweep_variances(
    sc: SensingScenario, axis: str, grid
) -> list[tuple[SensingScenario, HypothesisVariances]]:
    """Scenario and closed-form variances at every grid value of ``axis``.

    Raises :class:`VarianceOrderError` naming the first grid value whose
    variances are out of order, so that a caller can reject a bad grid
    before running any trial.
    """
    out = []
    for value in grid:
        scn = _apply_axis(sc, axis, value)
        try:
            out.append((scn, scenario_variances(scn)))
        except VarianceOrderError as e:
            raise VarianceOrderError(f"{axis}={value:g}: {e}") from None
    return out


def sweep(
    sc: SensingScenario,
    axis: str,
    grid,
    per_hypothesis: int,
    seed: "SeedSpec | int",
    *,
    modes: list[DetectorMode] | None = None,
    workers: int = 1,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    stream_path: tuple[int, ...] = (),
) -> list[SweepPoint]:
    """Evaluate the detector(s) along one parameter axis.

    Returns one :class:`SweepPoint` per (grid value, mode), modes
    paired on common random numbers within each grid point.  Every grid
    point's variances are checked before any trial runs.  Grid point
    i draws from stream path ``(*stream_path, i)``, so results for a
    given point do not depend on the rest of the grid, and callers
    running several sweeps under one seed can keep them independent by
    passing distinct ``stream_path`` prefixes.  The chunks of all grid
    points run as one batch of the trial engine.
    """
    if axis not in SWEEP_AXES:
        raise ValueError(f"axis must be one of {SWEEP_AXES}, got {axis!r}")
    grid = [float(g) for g in grid]
    if not grid:
        raise ValueError("grid must be nonempty")
    modes = list(modes) if modes is not None else [sc.mode]
    if not modes:
        raise ValueError("modes must be nonempty")
    cells = sweep_variances(sc, axis, grid)
    rules = [[rule_for_mode(v, scn.n_packets, m) for m in modes] for scn, v in cells]
    jobs = [(scn, r, (*stream_path, i)) for i, ((scn, _), r) in enumerate(zip(cells, rules))]
    tallies = _tally_jobs(jobs, per_hypothesis, seed, workers, chunk_size)
    return [
        SweepPoint(
            axis=axis,
            value=value,
            mode=mode,
            variances=v,
            rule=rule,
            pfa_analytic_paper=analytic_false_alarm(v, rule, "paper-sum"),
            pfa_analytic_prior=analytic_false_alarm(v, rule, "prior-weighted"),
            pd_analytic_paper=analytic_detection(v, rule, "paper-sum"),
            pd_analytic_prior=analytic_detection(v, rule, "prior-weighted"),
            paper=empirical_metrics(tally, "paper-sum"),
            prior=empirical_metrics(tally, "prior-weighted"),
            tally=tally,
        )
        for value, (_, v), point_rules, point_tallies in zip(grid, cells, rules, tallies)
        for mode, rule, tally in zip(modes, point_rules, point_tallies)
    ]
