"""Determinism, closure and pairing properties of the trial harness."""

import math
from functools import partial
import sys
import threading
from dataclasses import replace
import time
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from engine_draws import block_statistics, row_statistics
import law_oracle
from number_rule import REFUSED
from scipy.stats import norm
from variance_reference import component_variances

from iqsense.config import parse_config
from iqsense.detection import (
    CONVENTIONS,
    METRICS,
    DetectorMode,
    HypothesisVariances,
    VarianceOrderError,
    classify_batch,
    conditional_probabilities,
    convention_metric,
    h3_packet_count_law,
    hypothesis_variances,
    metric_cells,
    statistic_means,
)
import iqsense.montecarlo as montecarlo
from iqsense.montecarlo import (
    MAX_WORKERS,
    SWEEP_AXES,
    SeedSpec,
    SensingScenario,
    TallyMatrix,
    _apply_axis,
    _chunk_layout,
    empirical_metrics,
    estimate_component_variances,
    p_fa_gap,
    rule_for_mode,
    run_trials,
    scenario_rule,
    scenario_variances,
    substream,
    sweep,
)
from iqsense.signal_model import (
    IqMismatch,
    MismatchCoefficients,
    irr_to_mismatch,
    mismatch_coefficients,
)
from iqsense.stats import MAX_TRIALS, Z_95, Estimate, row_pvalue


def scenario(**kw):
    kw.setdefault("tx_mismatch", irr_to_mismatch(-15.0))
    return SensingScenario(
        kw.pop("snr1_db", 0.0), kw.pop("snr2_db", -10.0), **kw
    )


def test_seed_spec_validation():
    with pytest.raises(ValueError):
        SeedSpec(-1)
    with pytest.raises(ValueError):
        SeedSpec(2**64)
    with pytest.raises(ValueError):
        SeedSpec(0, -3)
    assert SeedSpec(5).stream_index == 0
    # Both fields take a Python or numpy integer and store a plain int; a
    # bool, a float or a string raises rather than run another seed.
    spec = SeedSpec(np.int64(3), np.int64(1))
    assert spec == SeedSpec(3, 1) and hash(spec) == hash(SeedSpec(3, 1))
    assert type(spec.master_seed) is int and type(spec.stream_index) is int
    assert SeedSpec(np.uint64(2**64 - 1)).master_seed == 2**64 - 1
    for args, field in (((True,), "master_seed"), ((1, True), "stream_index"),
                        ((3.0,), "master_seed"), (("7",), "master_seed"),
                        ((np.int64(-1),), "master_seed"),
                        *(((bad,), "master_seed") for bad in REFUSED),
                        *(((1, bad), "stream_index") for bad in REFUSED[:-1])):
        with pytest.raises(ValueError, match=f"^{field} must be "):
            SeedSpec(*args)
    # a stream index has no upper bound: the spawn key takes any such int
    assert SeedSpec(1, 10**400).stream_index == 10**400


def test_substreams_are_addressed():
    a = substream(1, 0, 7).normal(size=4)
    b = substream(1, 0, 7).normal(size=4)
    c = substream(1, 1, 7).normal(size=4)
    d = substream(SeedSpec(1, 1), 0, 7).normal(size=4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def test_scenario_consistency_validation():
    sc = scenario()
    assert sc.pair.power_k == pytest.approx(1.0)
    assert sc.pair.power_mk == pytest.approx(0.1)
    assert sc.delta_snr_db == 10.0
    with pytest.raises(ValueError):
        scenario(snr1_db=math.nan)
    for n_packets in (True, False, 2.0, *REFUSED[:-1]):
        with pytest.raises(ValueError, match="^n_packets must be an int >= 1"):
            scenario(n_packets=n_packets)
    with pytest.raises(ValueError, match="^n_packets must be <= 1024, got 1000"):
        scenario(n_packets=10**400)
    assert scenario(noise_var=np.float64(2.0)).pair.noise_var == 2.0
    # numpy scalars are stored as the plain values they hold
    sc = scenario(snr1_db=np.float32(3.0), snr2_db=np.float64(-np.inf), n_packets=np.int64(4),
                  noise_var=np.float32(2.0), channel_var=np.int64(2), psk_order=np.uint8(8))
    assert sc == scenario(snr1_db=3.0, snr2_db=-math.inf, n_packets=4, noise_var=2.0,
                          channel_var=2.0, psk_order=8)
    keys = ("snr1_db", "snr2_db", "n_packets", "noise_var", "channel_var", "psk_order")
    assert [type(getattr(sc, k)) for k in keys] == [float, float, int, float, float, int]
    for key in ("snr1_db", "snr2_db", "channel_var", "channel_var_mirror", "psk_order"):
        for bad in REFUSED:
            with pytest.raises(ValueError, match=f"^{key} must be "):
                scenario(**{key: bad})


def test_scenario_noise_var_does_not_narrow():
    """Under numpy 2, 10.0**0 * np.float32(0.1) is a float32; the scenario
    stores the plain float, so its powers and variances are those of
    float(np.float32(0.1)), bit for bit."""
    a = scenario(noise_var=np.float32(0.1))
    b = scenario(noise_var=float(np.float32(0.1)))
    assert a.pair == b.pair
    assert all(type(getattr(a.pair, k)) is float for k in ("power_k", "power_mk", "noise_var"))
    assert scenario_variances(a).as_tuple() == scenario_variances(b).as_tuple()


@pytest.mark.parametrize("noise_var", [-1.0, 0.0, math.nan, math.inf, "x", None, True, False,
                                       pytest.param(10**400, id="10**400")])
def test_scenario_bad_noise_var_is_named(noise_var):
    """noise_var is checked before the SNR powers it scales are formed."""
    with pytest.raises(ValueError, match="^noise_var must be finite and > 0"):
        scenario(snr1_db=0.0, snr2_db=0.0, noise_var=noise_var)


def test_scenario_silent_subcarrier():
    sc = scenario(snr2_db=-math.inf)
    assert sc.pair.power_mk == 0.0
    v = scenario_variances(sc)
    assert v.sigma0_sq == v.sigma1_sq


def test_scenario_helpers():
    sc = scenario()
    moved = replace(sc, snr1_db=5.0)
    assert moved.snr1_db == 5.0 and moved.snr2_db == -10.0
    assert moved.pair.power_k == pytest.approx(10.0 ** 0.5)
    retuned = sc.with_irr(-20.0)
    assert retuned.tx_mismatch.epsilon == pytest.approx(0.1)
    assert retuned.rx_mismatch is None
    joint = scenario(rx_mismatch=irr_to_mismatch(-15.0))
    assert joint.is_joint
    assert joint.with_irr(-20.0).rx_mismatch.epsilon == pytest.approx(0.1)
    two = replace(sc, mode=DetectorMode("two-bayes"))
    assert two.mode.kind == "two-bayes"


def test_scenario_derives_pair_and_coefficients_once():
    """``pair`` and ``coefficients`` follow the inputs, at construction and
    through ``replace``, and take no part in ``==`` or ``hash``."""
    sc = SensingScenario(0, -10, tx_mismatch=irr_to_mismatch(-15.0))
    assert type(sc.snr1_db) is float and type(sc.snr2_db) is float
    assert (sc.snr1_db, sc.snr2_db) == (0.0, -10.0)
    assert sc.pair.power_k == 1.0 and sc.pair.power_mk == pytest.approx(0.1)
    assert sc.coefficients == (mismatch_coefficients(sc.tx_mismatch), None)
    moved = replace(sc, snr1_db=5.0, noise_var=2.0, psk_order=8)
    assert moved.pair.power_k == pytest.approx(2.0 * 10.0 ** 0.5)
    assert (moved.pair.noise_var, moved.pair.psk_order) == (2.0, 8)
    assert replace(sc, snr1_db=5.0).pair.power_k == 10.0 ** 0.5
    joint = replace(sc, rx_mismatch=irr_to_mismatch(-20.0))
    assert joint.coefficients[1] == mismatch_coefficients(irr_to_mismatch(-20.0))
    same = scenario()
    object.__setattr__(same, "pair", moved.pair)
    object.__setattr__(same, "coefficients", joint.coefficients)
    assert same == sc and hash(same) == hash(sc)
    assert sc != moved and sc != joint


def test_chunk_layout():
    assert list(_chunk_layout(10, 4)) == [(0, 4), (1, 4), (2, 2)]
    assert list(_chunk_layout(4, 4)) == [(0, 4)]
    assert list(_chunk_layout(1, 100)) == [(0, 1)]


def test_tally_matrix_algebra():
    a = TallyMatrix(np.arange(16).reshape(4, 4))
    b = TallyMatrix(np.ones((4, 4), dtype=int))
    assert a.trials_per_hypothesis.tolist() == [6, 22, 38, 54]
    assert a.counts[:, 2:].sum(axis=1).tolist() == [5, 13, 21, 29]
    assert a == TallyMatrix(np.arange(16).reshape(4, 4))
    assert a != b
    with pytest.raises(ValueError):
        TallyMatrix(np.full((4, 4), -1))
    with pytest.raises(ValueError):
        TallyMatrix(np.zeros((3, 4)))


def test_empirical_metrics_math():
    counts = np.array([
        [80, 10, 6, 4],
        [70, 20, 6, 4],
        [10, 10, 50, 30],
        [5, 5, 30, 60],
    ])
    t = TallyMatrix(counts)
    paper = empirical_metrics(t, "paper-sum")
    assert paper.p_fa.value == pytest.approx(0.10 + 0.10)
    assert paper.p_d.value == pytest.approx(0.50 + 0.60)
    prior = empirical_metrics(t, "prior-weighted")
    assert prior.p_fa.value == pytest.approx(0.5 * (0.10 + 0.10))
    assert prior.p_d.value == pytest.approx(0.5 * (0.80 + 0.90))
    assert prior.p_fa.hi <= 1.0 and paper.p_fa.hi <= 2.0
    with pytest.raises(ValueError):
        empirical_metrics(TallyMatrix(np.zeros((4, 4))), "paper-sum")
    with pytest.raises(ValueError):
        empirical_metrics(t, "averaged")


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 10**6), min_size=16, max_size=16))
def test_empirical_metrics_apply_the_convention_table(flat):
    """Every estimate is the table's weighted cell sum of the empirical
    conditionals, for both conventions and both metrics."""
    counts = np.array(flat).reshape(4, 4)
    counts[:, 0] += 1  # every row needs trials
    t = TallyMatrix(counts)
    rates = t.counts / t.trials_per_hypothesis[:, None]
    for convention in CONVENTIONS:
        m = empirical_metrics(t, convention)
        for metric in METRICS:
            est = getattr(m, metric)
            assert abs(est.value - convention_metric(rates, convention, metric)) <= 1e-15
            weight, cells = metric_cells(convention, metric)
            assert 0.0 <= est.lo <= est.value <= est.hi <= weight * len(cells)


def test_run_trials_deterministic():
    sc = scenario()
    a = run_trials(sc, 10_000, 42)
    b = run_trials(sc, 10_000, 42)
    c = run_trials(sc, 10_000, 43)
    assert a == b
    assert a != c
    assert a.trials_per_hypothesis.tolist() == [10_000] * 4


@pytest.mark.parametrize("h3_draw", ["table", "per-packet"], indirect=True)
def test_run_trials_worker_invariance(h3_draw, monkeypatch):
    """Tallies are byte-identical across worker counts: three blocks with
    a short last one, for rows drawn from Gamma laws and from phase
    mixtures alike, H3 by its packet-count table (at one packet too) or
    packet by packet, by products of uniforms at n_packets 1, 2 and 3.
    The crossover is lowered so that these small blocks run on helper
    threads too."""
    monkeypatch.setattr(montecarlo, "_BLOCK_TRIALS", 2_048)
    monkeypatch.setattr(montecarlo, "_THREAD_MIN_VARIATES", 2_048)
    m = IqMismatch(0.2, 0.15)
    for sc in (scenario(n_packets=3), scenario(n_packets=2, tx_mismatch=m, rx_mismatch=m),
               scenario(n_packets=1)):
        means = statistic_means(sc.pair, *sc.coefficients)
        assert not np.ptp(means[:3], axis=1).any() and np.ptp(means[3]) > 0
        table = h3_packet_count_law(sc.pair, *sc.coefficients, sc.n_packets)
        assert (table is None) == (h3_draw == "per-packet")
        want = run_trials(sc, 5_000, 5)
        for workers in (1, 2, 4):
            assert run_trials(sc, 5_000, 5, workers=workers) == want


def test_near_cancelling_h3_runs_packet_by_packet(monkeypatch):
    """IRR -15 dB, SNR1 50 dB, SNR2 = SNR1 + 14.99 dB at 1024 packets: the
    image nearly cancels the signal at one phase (E[K] is about 1.8e8), so
    H3's packet-count table would pass its length cap.  No table is built,
    nothing is convolved, and the engine draws packet by packet."""
    def refuse(*a, **k):
        raise AssertionError("convolved past the cap")

    monkeypatch.setattr(np, "convolve", refuse)
    sc = scenario(snr1_db=50.0, snr2_db=64.99, n_packets=1024)
    assert h3_packet_count_law(sc.pair, *sc.coefficients, sc.n_packets) is None
    assert run_trials(sc, 1_000, 3).trials_per_hypothesis.tolist() == [1_000] * 4


@pytest.mark.parametrize("h3_draw", ["table", "per-packet"], indirect=True)
def test_scenario_laws_give_each_row_its_law(h3_draw):
    """A row whose means do not depend on the phase gets the Gamma row
    (m, [1.0]): H0-H2, and H3 on an ideal front end.  H3 with a cross term
    gets the cached packet-count table itself, and None past the table's
    length cap (set to 0 by the fixture).  At 1, 4 and 32 packets, on the
    default scenario too, and under every mode's rule (CFAR targets 0.05
    and 0.1), the exact rows of Gamma-row laws are
    conditional_probabilities' rows to the bit, and so is every exact p_fa;
    H3's exact row is None where its law is.  On an ideal transmitter with
    a receiver mismatch, H3 has no cross term and 2*sigma3^2 is its mean
    m3, so all four rows are the Gamma rows."""
    modes = (DetectorMode("four"), DetectorMode("two-bayes"),
             DetectorMode("two-cfar", 0.05), DetectorMode("two-cfar", 0.1))
    joint_ideal = parse_config({"scenario": {"tx_irr_db": None, "rx_irr_db": -20}}).scenario
    cases = [(parse_config({}).scenario, 3), (joint_ideal, 4)]
    for n in (1, 4, 32):
        cases += [(scenario(n_packets=n), 3),
                  (scenario(n_packets=n, tx_mismatch=IqMismatch.ideal()), 4)]
    for s, gamma_rows in cases:
        means = statistic_means(s.pair, *s.coefficients)[:gamma_rows]
        laws = montecarlo.scenario_laws(s)[:gamma_rows]
        assert [(law.v_min, law.pmf.tolist()) for law in laws] == [(m[0], [1.0]) for m in means]
        for mode in modes:
            rule = rule_for_mode(scenario_variances(s), s.n_packets, mode)
            exact = montecarlo.exact_probabilities(s, rule)
            gamma = conditional_probabilities(scenario_variances(s), rule)
            assert ([r.tobytes() for r in exact[:gamma_rows]]
                    == [r.tobytes() for r in gamma[:gamma_rows]])
            for convention in CONVENTIONS:
                assert (convention_metric(exact, convention, "p_fa")
                        == convention_metric(gamma, convention, "p_fa"))
    sc = scenario(n_packets=4)
    table = h3_packet_count_law(sc.pair, *sc.coefficients, sc.n_packets)
    assert montecarlo.scenario_laws(sc)[3] is table
    assert (table is None) == (h3_draw == "per-packet")
    assert (montecarlo.exact_probabilities(sc, scenario_rule(sc))[3] is None) == (table is None)


_SNR = st.none() | st.floats(-30.0, 40.0)
_MISMATCH = st.none() | st.floats(-60.0, -3.0) | st.tuples(st.floats(-0.5, 0.5),
                                                           st.floats(-0.5, 0.5))


def _side(prefix, m):
    """Config keys of one front end: an IRR (None is ideal) or an explicit pair."""
    if isinstance(m, tuple):
        return {f"{prefix}_epsilon": m[0], f"{prefix}_theta": m[1]}
    return {f"{prefix}_irr_db": m}


@settings(max_examples=300, deadline=None)
@given(snr1=_SNR, snr2=_SNR, tx=_MISMATCH, rx=st.just("absent") | _MISMATCH,
       psk_order=st.sampled_from([2, 16, 1024]))
def test_a_phase_free_h3_row_is_its_one_entry_law(snr1, snr2, tx, rx, psk_order):
    """Wherever H3's means do not depend on the phase (an ideal transmitter,
    or a silent side), sigma2^2 <= sigma3^2 holds, and 2*sigma3^2 is the
    mean of H3's one-entry law, the one the engine draws from."""
    raw = {"snr1_db": snr1, "snr2_db": snr2, "psk_order": psk_order, **_side("tx", tx),
           **({} if rx == "absent" else _side("rx", rx))}
    sc = parse_config({"scenario": raw}).scenario
    means = statistic_means(sc.pair, *sc.coefficients)
    assume(not np.ptp(means[3]))
    assert means[2, 0] <= means[3, 0]
    try:
        v = scenario_variances(sc)
    except VarianceOrderError:
        return  # an image that outpowers the wanted signal: H1 above H2
    law = montecarlo.scenario_laws(sc)[3]
    assert law.pmf.tolist() == [1.0] and 2.0 * v.sigma3_sq == law.v_min


@pytest.mark.parametrize("n", [1, 4, 32])
@pytest.mark.parametrize("joint", [False, True], ids=["tx-only", "joint"])
def test_exact_h3_row_is_the_laplace_law(joint, n):
    """At figure 4's SNR1 20 dB point at delta -10 dB (tx IRR -15 dB),
    where the Gamma H3 row is furthest from the exact law, row H3 of
    exact_probabilities is the differences of the Talbot inversion of Z's
    transform at the rule's boundaries, to 1e-12: a check that shares no
    code with the packet-count table the engine draws from."""
    tx = irr_to_mismatch(-15.0)
    sc = SensingScenario(20.0, 30.0, tx_mismatch=tx, rx_mismatch=tx if joint else None,
                         n_packets=n)
    rule = scenario_rule(sc)
    assert [int(h) for h in rule.levels] == [0, 1, 2, 3]
    means = statistic_means(sc.pair, *sc.coefficients)[3]
    want = -np.diff([1.0, *(law_oracle.h3_tail(means, n, t) for t in rule.boundaries), 0.0])
    assert montecarlo.exact_probabilities(sc, rule)[3] == pytest.approx(want, rel=0.0, abs=1e-12)


# Tallies of the exact-law engine: three blocks with a short last one.  At
# one packet every row is a product of one uniform and H3 draws from its
# table; at eight, rows H0-H2 are gamma variates.
_JOINT = SensingScenario(
    3.0, -2.0, tx_mismatch=IqMismatch(0.2, 0.15), rx_mismatch=IqMismatch(-0.1, 0.2),
    n_packets=2, noise_var=1.3, channel_var=0.7, channel_var_mirror=1.8,
)
_GOLDEN = {
    "tx-only": (
        SensingScenario(0.0, -10.0, tx_mismatch=irr_to_mismatch(-15.0), n_packets=4),
        2 * 65_536 + 1001,
        [[75094, 31027, 20386, 5566], [74423, 31374, 20560, 5716],
         [18804, 20962, 35045, 57262], [19052, 21053, 34742, 57226]],
    ),
    "joint": (
        _JOINT,
        2 * 65_536 + 777,
        [[81159, 26196, 17745, 6749], [75427, 26955, 20227, 9240],
         [29939, 20796, 28634, 52480], [28962, 20297, 28196, 54394]],
    ),
    "n1-tx-only": (scenario(n_packets=1), 2 * 65_536 + 1001, [
        [83479, 15732, 15198, 17664], [83328, 15604, 15087, 18054],
        [51844, 14175, 17534, 48520], [51884, 13938, 17687, 48564]]),
    "n1-joint": (replace(_JOINT, n_packets=1), 2 * 65_536 + 1001, [
        [85243, 18663, 15700, 12467], [81502, 18829, 16692, 15050],
        [47529, 16726, 20091, 47727], [46835, 16097, 20162, 48979]]),
    "n8-tx-only": (scenario(n_packets=8), 2 * 65_536 + 1001, [
        [72707, 41431, 16634, 1301], [71931, 41903, 16870, 1369],
        [6928, 19309, 46442, 59394], [6774, 19164, 46250, 59885]]),
}


@pytest.mark.parametrize("model", list(_GOLDEN))
def test_run_trials_golden(model):
    sc, per_hypothesis, counts = _GOLDEN[model]
    for workers in (1, 2):
        got = run_trials(sc, per_hypothesis, SeedSpec(2024, 3), workers=workers)
        assert got.counts.tolist() == counts, f"workers={workers}"


@pytest.mark.parametrize("h3_draw", ["per-packet"], indirect=True)
def test_per_packet_stream_golden(h3_draw):
    """The headline point at four packets, H3 drawn packet by packet: one
    block of 65,536 trials per hypothesis.  Rows H0-H2 are Gamma rows and
    H3 takes each packet's phase indices and exponentials in turn."""
    sc = scenario(n_packets=4)
    assert h3_packet_count_law(sc.pair, *sc.coefficients, sc.n_packets) is None
    assert run_trials(sc, 65_536, 5).counts.tolist() == [
        [37302, 15514, 9951, 2769], [36897, 15670, 10116, 2853],
        [9377, 10447, 17371, 28341], [9353, 10482, 17512, 28189]]


@pytest.mark.parametrize("k", range(1, montecarlo._ERLANG_MAX + 1))
def test_product_of_uniforms_draws_the_gamma_law(k):
    """At n_packets K, a Gamma row is -log of a product of K uniforms (one
    uniform at K = 1): its decision counts close on the Gamma(K) closed
    form (row test at level 1e-4 per K), and a row whose mean is off by
    the factor (K-1)/K of a product one uniform short fails it."""
    sc = scenario(n_packets=k)
    rule = scenario_rule(sc)
    probs = conditional_probabilities(scenario_variances(sc), rule)[0]
    streams = [substream(31, k, kind) for kind in (0, 1)]
    z = row_statistics(sc, 0, streams, 200_000)
    for stat, closes in ((z, True), (z * (k - 1) / k, False)):
        counts = np.bincount(classify_batch(stat, rule), minlength=4)
        assert (row_pvalue(counts.tolist(), probs) >= 1e-4) == closes


class _ZeroFirstTrial:
    """A generator whose every ``random`` call gives its first uniform as 0,
    so the first trial of each group of products of uniforms is 0."""

    def __init__(self, rng):
        self.rng = rng

    def random(self, size=None, *, out=None):
        u = self.rng.random(size, out=out)
        u[0] = 0.0
        return u

    def __getattr__(self, name):
        return getattr(self.rng, name)


@pytest.mark.parametrize("hyp", [0, 3])
def test_zero_uniform_decides_the_top_region_without_a_warning(hyp):
    """A product of uniforms that holds 0.0 gives Z = inf with no
    RuntimeWarning, for a Gamma row and for the first trial of each of a
    table row's product groups, and the rule puts it in its top region."""
    sc = scenario(n_packets=4)
    rule = scenario_rule(sc)
    streams = [_ZeroFirstTrial(substream(5, kind)) for kind in (0, 1)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        block = montecarlo._statistic_draws(sc)[hyp](streams.__getitem__, 1_000)
        counts = montecarlo._block_counts(block, rule)
    z = block_statistics(block)
    top = np.isinf(z)
    assert z[0] == math.inf and 1 <= top.sum() <= montecarlo._ERLANG_MAX - 1
    assert set(classify_batch(z[top], rule).tolist()) == {rule.levels[-1]}
    assert counts[rule.levels[-1]] >= top.sum()


# (scenario, row) whose block the equivalence test draws: a Gamma row at
# K = 1 ... 6 packets, and H3 tables whose K passes _ERLANG_MAX, in small
# groups sharing one gamma call (4 packets) and in groups with calls of
# their own (8 packets).
_BLOCK_CASES = {
    **{f"k{k}": (k, 0) for k in range(1, montecarlo._ERLANG_MAX + 1)},
    "h3-n4": (4, 3),
    "h3-n8": (8, 3),
}


@pytest.mark.parametrize("zero", [False, True], ids=["", "zero-uniform"])
@pytest.mark.parametrize("case", list(_BLOCK_CASES))
def test_block_counts_equal_decision_counts_of_the_same_variates(case, zero):
    """The engine counts a product of uniforms p against exp(-t/scale) and
    a gamma value x against t/scale.  Those counts equal the classifier's
    tally of the Z the same variates give, with and without a zero uniform
    in each product group, under every rule shape the engine meets, each
    built from the scenario's variances: the four-level rule, the rules
    that merge H0/H1 and H2/H3 or H1/H2, two-bayes, two-cfar, CFAR at
    target 1 (no boundary, always busy), and the four-level rule with a
    top threshold that puts exp(-t/scale) below the smallest float (only a
    zero product reaches it).  A Z drawn exactly on a boundary is left
    out: the engine rounds exp(-t/scale), not -scale*log(p), so such a
    tie may fall either way."""
    n, hyp = _BLOCK_CASES[case]
    sc = scenario(n_packets=n)
    streams = [substream(41, n, hyp, kind) for kind in (0, 1)]
    if zero:
        streams = [_ZeroFirstTrial(s) for s in streams]
    block = montecarlo._statistic_draws(sc)[hyp](streams.__getitem__, 20_000)
    if case.startswith("h3"):
        assert block.values.size
    z = block_statistics(block)
    assert np.isinf(z).any() == (zero and block.products.size > 0)
    rule = scenario_rule(sc)
    low = replace(rule, boundaries=(*rule.boundaries[:-1], 800.0 * block.scale))
    assert math.exp(-low.boundaries[-1] / block.scale) == 0.0
    v = scenario_variances(sc)
    s0, s1, s2, s3 = v.as_tuple()
    four = DetectorMode("four")
    rules = [
        rule, low,
        rule_for_mode(HypothesisVariances(s0, s0, s2, s2), n, four),
        rule_for_mode(HypothesisVariances(s0, s1, s1, s3), n, four),
        rule_for_mode(v, n, DetectorMode("two-bayes")),
        rule_for_mode(v, n, DetectorMode("two-cfar", 0.05)),
        rule_for_mode(v, n, DetectorMode("two-cfar", 1.0)),
    ]
    assert [len(r.boundaries) for r in rules] == [3, 3, 1, 2, 1, 1, 0]
    for r in rules:
        counts = montecarlo._block_counts(block, r)
        assert counts.dtype == np.int64
        assert counts.tolist() == np.bincount(classify_batch(z, r), minlength=4).tolist()


@pytest.mark.parametrize("zero", [False, True], ids=["", "zero-uniform"])
def test_drawing_into_a_workspace_gives_the_fresh_arrays_block(zero):
    """Every draw path, drawn in turn into one workspace that is longer
    than its blocks and holds the last block's data (NaN and a true mask
    at first), gives bit for bit the block it draws into fresh arrays: the
    Gamma rows at K = 1 ... 6, the H3 tables at 4 and 8 packets, and H3
    packet by packet past the table's length cap, at two block sizes, with
    and without a zero uniform.  The fresh arrays are three separate ones,
    and a draw without a workspace gives the same block.  Its products
    and values lie in the workspace without overlap, and counted through
    the workspace's mask they give the fresh block's decision counts."""
    ws = montecarlo._workspace(5_000)
    ws.block.fill(np.nan)
    ws.row.fill(np.nan)
    ws.mask.fill(True)
    cases = [(scenario(n_packets=n), hyp) for n, hyp in _BLOCK_CASES.values()]
    past_cap = scenario(snr1_db=10.0, snr2_db=24.9, n_packets=128)
    assert h3_packet_count_law(past_cap.pair, *past_cap.coefficients, 128) is None
    cases.append((past_cap, 3))
    for sc, hyp in cases:
        draw, rule = montecarlo._statistic_draws(sc)[hyp], scenario_rule(sc)
        for size in (4_000, 1_500):
            def streams():
                s = [substream(43, sc.n_packets, hyp, size, kind) for kind in (0, 1)]
                return [_ZeroFirstTrial(g) for g in s] if zero else s

            fresh = montecarlo._Workspace(np.empty(size), np.empty(size), np.empty(size, bool))
            want = draw(streams().__getitem__, size, fresh)
            for got in (draw(streams().__getitem__, size), draw(streams().__getitem__, size, ws)):
                assert got.scale == want.scale
                assert got.products.tobytes() == want.products.tobytes()
                assert got.values.tobytes() == want.values.tobytes()
            assert got.products.size + got.values.size == size
            assert not np.shares_memory(got.products, got.values)
            for side in (got.products, got.values):
                assert side.size == 0 or np.shares_memory(side, ws.block)
            counts = montecarlo._block_counts(got, rule, ws.mask)
            assert counts.tolist() == montecarlo._block_counts(want, rule).tolist()


def test_one_thread_run_sums_its_blocks_drawn_into_fresh_arrays():
    """One thread draws every block of a run into one workspace: at 150,000
    trials and four packets (two full blocks and a short last one of
    18,928 trials per hypothesis) the tally is the sum of each block's
    decision counts drawn into fresh arrays."""
    sc, seed = scenario(n_packets=4), SeedSpec(7)
    rule = scenario_rule(sc)
    want = np.zeros((4, 4), dtype=np.int64)
    layout = list(_chunk_layout(150_000, montecarlo._BLOCK_TRIALS))
    assert [count for _, count in layout] == [65_536, 65_536, 18_928]
    for hyp, draw in enumerate(montecarlo._statistic_draws(sc)):
        for block, count in layout:
            streams = partial(substream, seed, montecarlo._TRIAL_STREAM, hyp, block)
            want[hyp] += montecarlo._block_counts(draw(streams, count), rule)
    assert run_trials(sc, 150_000, seed, workers=1).counts.tolist() == want.tolist()


def test_run_trials_closure():
    """Empirical conditional rates sit within 5 binomial SE of the
    closed forms, and every tally row closes by the chi-square row test
    at familywise level 1e-6 (unit check; acceptance runs 1e6 trials)."""
    sc = scenario()
    n = 40_000
    tally = run_trials(sc, n, 9)
    probs = conditional_probabilities(scenario_variances(sc), scenario_rule(sc))
    rates = tally.counts / n
    for i in range(4):
        for j in range(4):
            se = math.sqrt(probs[i, j] * (1 - probs[i, j]) / n)
            assert abs(rates[i, j] - probs[i, j]) <= max(5 * se, 1e-4)
    p = [row_pvalue(c, q) for c, q in zip(tally.counts.tolist(), probs)]
    assert min(p) >= 1e-6 / 4, p


def test_estimated_variances_match_analytic_for_tx_only():
    sc = scenario()
    est = estimate_component_variances(sc, 300_000, 1)
    ana = scenario_variances(sc)
    for e, a in zip(est, ana.as_tuple()):
        assert e == pytest.approx(a, rel=0.02)


def test_joint_variances_closed_form():
    joint = scenario(rx_mismatch=irr_to_mismatch(-15.0))
    v = scenario_variances(joint)
    assert v == scenario_variances(joint)
    assert v.sigma0_sq < v.sigma1_sq < v.sigma2_sq < v.sigma3_sq
    # The receiver front end folds mirror noise in: the noise floor
    # exceeds the transmitter-only value.
    tx_only = scenario_variances(scenario())
    assert v.sigma0_sq > tx_only.sigma0_sq
    # An ideal receiver is the transmitter-only model, bit for bit.
    assert scenario_variances(scenario(rx_mismatch=IqMismatch.ideal())) == tx_only
    rng = np.random.default_rng(8)
    for _ in range(50):
        sc = scenario(
            tx_mismatch=IqMismatch(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5)),
            snr1_db=rng.uniform(0.0, 20.0), snr2_db=rng.uniform(-20.0, 0.0),
            channel_var=rng.uniform(0.5, 2.0), channel_var_mirror=rng.uniform(0.5, 2.0),
        )
        tx = sc.coefficients[0]
        assert hypothesis_variances(
            sc.pair, tx, mismatch_coefficients(IqMismatch.ideal())
        ) == hypothesis_variances(sc.pair, tx)


def joint_scenario(irr_db, snr1_db, snr2_db):
    m = irr_to_mismatch(irr_db)
    return scenario(snr1_db=snr1_db, snr2_db=snr2_db, tx_mismatch=m, rx_mismatch=m)


# H2 and H3 differ by 0.08%: sampled calibration used to merge them.
_CLOSE_H2_H3 = joint_scenario(-25.0, 5.0, -3.0)
# sigma1 > sigma2: sampled calibration used to merge H1 and H2 silently.
_OUT_OF_ORDER = joint_scenario(-15.0, 0.0, 13.0)
_ORACLE_POINTS = [
    *(
        joint_scenario(irr, s1, s2)
        for irr in (-30.0, -20.0, -15.0, -10.0, -5.0)
        for s1, s2 in ((0.0, -10.0), (5.0, 5.0), (10.0, -5.0))
    ),
    _CLOSE_H2_H3,
    _OUT_OF_ORDER,
    # Phase errors and unequal channel variances, so that a swap of the
    # two sides' terms shows.
    scenario(snr1_db=3.0, snr2_db=-2.0, tx_mismatch=IqMismatch(0.2, 0.15),
             rx_mismatch=IqMismatch(-0.1, 0.2), noise_var=1.3,
             channel_var=0.7, channel_var_mirror=1.8),
]
_ORACLE_SAMPLES = 200_000
_ORACLE_FAMILYWISE = 1e-6


def _oracle_z(variances, est) -> np.ndarray:
    """|estimate - closed form| in standard errors, per hypothesis.

    Given the symbols, |r|^2/2 is exponential with mean sigma_s^2, so
    its variance is sigma^4 under H0..H2.  Under H3 the symbol cross
    term adds Var(sigma_s^2) twice; it is at most
    2*(sigma1^2 - sigma0^2)*(sigma2^2 - sigma0^2) (Cauchy-Schwarz), so
    the H3 standard error below is an upper bound.
    """
    s0, s1, s2, s3 = variances
    per_sample = np.array([s0**2, s1**2, s2**2, s3**2 + 4.0 * (s1 - s0) * (s2 - s0)])
    return np.abs(np.array(est) - variances) / np.sqrt(per_sample / _ORACLE_SAMPLES)


def test_closed_form_variances_match_estimator():
    """The joint-model closed form sits inside the sample-mean
    estimator's confidence interval at every point and hypothesis
    (Bonferroni, familywise false-fail rate 1e-6), while the same form
    with the receiver's |beta_r|^2 terms dropped is rejected."""
    comparisons = 4 * len(_ORACLE_POINTS)
    z_crit = norm.isf(_ORACLE_FAMILYWISE / (2 * comparisons))
    worst, worst_dropped = 0.0, 0.0
    for i, sc in enumerate(_ORACLE_POINTS):
        est = estimate_component_variances(sc, _ORACLE_SAMPLES, 600, (i,))
        tx, rx = sc.coefficients
        exact = np.array(component_variances(sc.pair, tx, rx))
        worst = max(worst, _oracle_z(exact, est).max())
        dropped = np.array(component_variances(sc.pair, tx, MismatchCoefficients(rx.alpha, 0j)))
        worst_dropped = max(worst_dropped, _oracle_z(dropped, est).max())
    assert worst <= z_crit, f"closed form off by {worst:.2f} SE (limit {z_crit:.2f})"
    assert worst_dropped > z_crit, f"dropped |beta_r|^2 only {worst_dropped:.2f} SE off"


def test_out_of_order_joint_variances_are_rejected():
    """Where the image outpowers the wanted signal the closed form and
    the estimator agree that sigma1^2 > sigma2^2, and the detector
    refuses the scenario instead of merging hypotheses."""
    with pytest.raises(VarianceOrderError, match="nondecreasing"):
        scenario_variances(_OUT_OF_ORDER)
    with pytest.raises(VarianceOrderError):
        scenario_rule(_OUT_OF_ORDER)
    est = estimate_component_variances(_OUT_OF_ORDER, 50_000, 601)
    assert est[1] > est[2]
    # Closely spaced but ordered variances keep four distinct levels.
    v = scenario_variances(_CLOSE_H2_H3)
    assert v.sigma2_sq < v.sigma3_sq
    assert len(scenario_rule(_CLOSE_H2_H3).levels) == 4


def test_p_fa_gap_is_paired():
    """The four-level busy region is a subset of the two-level Bayes
    one (its busy threshold crosses against sigma1 >= sigma0), so on
    the common trials of one sweep point the four-level rule never flags
    busy alone, and the gap is the band between the two thresholds."""
    sc = scenario()
    modes = [DetectorMode("four"), DetectorMode("two-bayes")]
    four, two = sweep([(sc, "irr_db", [-15.0], modes, ())], 20_000, 3)
    a, b = four.tally, two.tally
    busy_a, busy_b = a.counts[:, 2:].sum(axis=1), b.counts[:, 2:].sum(axis=1)
    assert np.all(busy_a <= busy_b)
    gap = p_fa_gap(a, b, "prior-weighted")
    band = (busy_b - busy_a)[:2] / 20_000
    assert gap.value == pytest.approx(band.mean())
    assert gap.hi - gap.value == pytest.approx(
        Z_95 * math.sqrt(np.sum(band - band**2) / 20_000) / 2)
    assert 0.0 <= gap.lo < gap.value < gap.hi
    # paper-sum weighs the same rows by 1 instead of 1/2
    assert p_fa_gap(a, b, "paper-sum") == Estimate(2 * gap.value, 2 * gap.lo, 2 * gap.hi)
    assert p_fa_gap(b, a).value == -gap.value
    with pytest.raises(ValueError, match="convention"):
        p_fa_gap(a, b, "paper_sum")
    # Mode a's tally is the one run_trials draws at the point's stream path.
    assert a == run_trials(sc, 20_000, 3, stream_path=(0,))
    with pytest.raises(ValueError, match="^tallies must count the same trials"):
        p_fa_gap(a, run_trials(sc, 20_001, 3))


# Joint counts (both, only_a, only_b, neither) per true hypothesis.  Three
# blocks with a short last one.  Four-level vs two-bayes has only_b > 0 and
# four-level vs two-cfar 0.1 at IRR -5 dB only_a > 0; the joint model puts
# the CFAR rule first.
_COMPARE_GOLDEN = {
    "four-vs-bayes": (
        scenario(n_packets=4), DetectorMode("four"), DetectorMode("two-bayes"),
        2 * 65_536 + 1001, 7,
        [[25580, 0, 140, 106353], [26037, 0, 153, 105883], [91980, 0, 124, 39969],
         [92164, 0, 151, 39758]],
    ),
    "four-vs-cfar": (
        scenario(n_packets=2, tx_mismatch=irr_to_mismatch(-5.0)),
        DetectorMode("four"), DetectorMode("two-cfar", 0.1), 2 * 65_536 + 1001, 8,
        [[13274, 16918, 0, 101881], [14759, 17209, 0, 100105], [55562, 22255, 0, 54256],
         [56344, 21706, 0, 54023]],
    ),
    "joint": (
        _JOINT, DetectorMode("two-cfar", 0.1), DetectorMode("four"), 2 * 65_536 + 777, 9,
        [[13161, 0, 11498, 107190], [16464, 0, 12676, 102709], [65796, 0, 15072, 50981],
         [67222, 0, 15045, 49582]],
    ),
}


@pytest.mark.parametrize("name", list(_COMPARE_GOLDEN))
def test_compare_modes_golden(name):
    """Two run_trials calls with one seed and stream path tally the same
    trials, whatever their rules."""
    sc, mode_a, mode_b, per_hypothesis, seed, counts = _COMPARE_GOLDEN[name]
    a, b = (
        run_trials(sc, per_hypothesis, SeedSpec(seed), stream_path=(2,),
                   rule=rule_for_mode(scenario_variances(sc), sc.n_packets, mode))
        .counts[:, 2:].sum(axis=1)
        for mode in (mode_a, mode_b)
    )
    both = np.minimum(a, b)
    joint = np.stack([both, a - both, b - both, per_hypothesis - a - b + both], axis=1)
    assert joint.tolist() == counts


def test_sweep_axes_cover_model_knobs():
    sc = scenario()
    assert set(SWEEP_AXES) == {"irr_db", "snr1_db", "delta_snr_db", "snr_db_at_delta"}
    assert _apply_axis(sc, "irr_db", -20.0).tx_mismatch.epsilon == pytest.approx(0.1)
    assert _apply_axis(sc, "snr1_db", 4.0).snr1_db == 4.0
    d = _apply_axis(sc, "delta_snr_db", -10.0)
    assert d.snr1_db == pytest.approx(-20.0) and d.snr2_db == -10.0
    m = _apply_axis(sc, "snr_db_at_delta", 7.0)
    assert m.snr1_db == 7.0 and m.snr2_db == pytest.approx(-3.0)


def test_sweep_structure_and_pairing():
    sc = scenario()
    modes = [DetectorMode("four"), DetectorMode("two-bayes")]
    pts = sweep([(sc, "irr_db", [-20.0, -10.0], modes, ())], 8_000, 11)
    assert len(pts) == 4
    assert [p.mode.kind for p in pts] == ["four", "two-bayes", "four", "two-bayes"]
    for p in pts:
        assert p.variances == scenario_variances(sc.with_irr(p.value))
        assert p.rule == rule_for_mode(p.variances, sc.n_packets, p.mode)
        assert p.tally.trials_per_hypothesis.tolist() == [8_000] * 4
    # Common random numbers: within each grid point the four-level busy
    # count never exceeds the two-level one on any truth row.
    for four_pt, two_pt in zip(pts[0::2], pts[1::2]):
        assert four_pt.value == two_pt.value
        assert np.all(four_pt.tally.counts[:, 2:].sum(axis=1)
                      <= two_pt.tally.counts[:, 2:].sum(axis=1))


def test_sweep_stream_path_isolates_curves():
    sc = scenario()
    base = sweep([(sc, "irr_db", [-15.0], [sc.mode], ())], 4_000, 2)
    same = sweep([(sc, "irr_db", [-15.0], [sc.mode], ())], 4_000, 2)
    moved = sweep([(sc, "irr_db", [-15.0], [sc.mode], (1,))], 4_000, 2)
    assert base[0].tally == same[0].tally
    assert base[0].tally != moved[0].tally


def test_sweep_point_independent_of_grid():
    sc = scenario()
    alone = sweep([(sc, "snr1_db", [2.0], [sc.mode], ())], 4_000, 21)
    grid = sweep([(sc, "snr1_db", [2.0, 4.0], [sc.mode], ())], 4_000, 21)
    assert alone[0].tally == grid[0].tally


def test_sweep_worker_invariance(monkeypatch):
    """All grid points' blocks run in one batch; how the 288 blocks spread
    over the threads never changes a tally, below the crossover (the
    calling thread runs them all) and above it (lowered to the block
    size, so helpers run them too)."""
    monkeypatch.setattr(montecarlo, "_BLOCK_TRIALS", 64)
    sc = scenario()
    modes = [DetectorMode("four"), DetectorMode("two-bayes")]
    curve = (sc, "irr_db", [-30.0, -20.0, -10.0], modes, ())
    runs = [sweep([curve], 1_500, 17, workers=workers) for workers in (1, 2, 3)]
    monkeypatch.setattr(montecarlo, "_THREAD_MIN_VARIATES", 64)
    runs += [sweep([curve], 1_500, 17, workers=workers) for workers in (2, 3)]
    assert len(runs[0]) == 6
    for run in runs[1:]:
        assert [(p.value, p.mode) for p in run] == [(p.value, p.mode) for p in runs[0]]
        assert [p.tally for p in run] == [p.tally for p in runs[0]]


@pytest.mark.parametrize("workers", [1, 2])
def test_multi_curve_sweep_matches_one_curve_sweeps(workers, monkeypatch):
    """A sweep of two curves, one transmitter-only and one joint, gives
    each curve's points exactly as a sweep of that curve alone: tallies,
    rules and variances, point for point, in curve order."""
    tx_only = (scenario(n_packets=2), "irr_db", [-25.0, -12.0],
               [DetectorMode("four"), DetectorMode("two-bayes")], (0,))
    m = irr_to_mismatch(-20.0)
    joint = (scenario(snr2_db=-5.0, tx_mismatch=m, rx_mismatch=m), "snr_db_at_delta",
             [-3.0, 4.0, 9.0], [DetectorMode("four")], (1,))
    monkeypatch.setattr(montecarlo, "_BLOCK_TRIALS", 256)
    both = sweep([tx_only, joint], 1_200, 31, workers=workers)
    alone = [pt for curve in (tx_only, joint)
             for pt in sweep([curve], 1_200, 31, workers=workers)]
    assert len(both) == len(alone) == 2 * 2 + 3
    for a, b in zip(both, alone):
        assert (a.axis, a.value, a.mode) == (b.axis, b.value, b.mode)
        assert a.variances == b.variances
        assert a.rule == b.rule
        assert a.tally == b.tally


def test_stream_purpose_tags_are_distinct():
    """Trials, the variance estimator, the frame and the outage Monte
    Carlo draw from disjoint streams of one seed."""
    tags = [montecarlo._TRIAL_STREAM, montecarlo._ESTIMATOR_STREAM,
            montecarlo.FRAME_STREAM, montecarlo.OUTAGE_STREAM]
    assert montecarlo.OUTAGE_STREAM == 3
    assert len(set(tags)) == len(tags)


def test_two_workers_run_chunks_at_once(monkeypatch):
    """Above the crossover (65,536 trials at two packets, 2**17 packet
    variates a block) workers=2 runs two blocks at once: each block waits
    at a two-party barrier, which a serial engine never passes."""
    sc = scenario(n_packets=2)
    assert montecarlo._BLOCK_TRIALS * sc.n_packets == montecarlo._THREAD_MIN_VARIATES
    serial = run_trials(sc, 65_536, 5)
    real = montecarlo._chunk_task
    barrier = threading.Barrier(2, timeout=10)
    threads = set()

    def paired(task):
        threads.add(threading.get_ident())
        barrier.wait()
        return real(task)

    monkeypatch.setattr(montecarlo, "_chunk_task", paired)
    assert run_trials(sc, 65_536, 5, workers=2) == serial
    assert len(threads) == 2


def test_small_blocks_and_one_worker_use_only_the_calling_thread(monkeypatch):
    """Below the crossover (figure 5's 2e4 trials at one packet, and one
    variate short of it at two packets), and at workers=1 above it, every
    block runs on the calling thread and no helper thread starts; the
    tallies are those of the serial run."""
    started, threads = [], set()
    real = montecarlo._chunk_task

    class Counted(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    def recorded(task):
        threads.add(threading.get_ident())
        return real(task)

    want = [run_trials(scenario(), 20_000, 5),
            run_trials(scenario(n_packets=2), 65_535, 5)]
    monkeypatch.setattr(montecarlo, "Thread", Counted)
    monkeypatch.setattr(montecarlo, "_chunk_task", recorded)
    assert [run_trials(scenario(), 20_000, 5, workers=3),
            run_trials(scenario(n_packets=2), 65_535, 5, workers=2)] == want
    curve = (scenario(), "irr_db", [-20.0, -10.0], [DetectorMode("four")], ())
    assert len(sweep([curve], 20_000, 5, workers=2)) == 2
    run_trials(scenario(n_packets=4), 3 * 65_536, 5, workers=1)
    assert started == []
    assert threads == {threading.get_ident()}


def _failing_block(monkeypatch, fails_on_caller: bool, err: BaseException) -> list:
    """Stub blocks of 64 trials above a lowered crossover: the first block
    of the failing side raises ``err`` once the other side has started
    one, and every other block sleeps, so later blocks are still queued
    when the failure surfaces.  Returns the list of blocks started."""
    monkeypatch.setattr(montecarlo, "_BLOCK_TRIALS", 64)
    monkeypatch.setattr(montecarlo, "_THREAD_MIN_VARIATES", 64)
    real, caller = montecarlo._chunk_task, threading.get_ident()
    other_started = threading.Event()
    ran = []

    def block(task):
        ran.append(task)
        if (threading.get_ident() == caller) == fails_on_caller:
            assert other_started.wait(10)
            raise err
        other_started.set()
        time.sleep(0.02)
        return real(task)

    monkeypatch.setattr(montecarlo, "_chunk_task", block)
    return ran


def test_failed_chunk_cancels_queued_chunks(monkeypatch):
    """A block raises on the helper thread, one of 64: the caller gets that
    exception itself, the blocks still queued never run, and the helper
    has ended when the call raises."""
    err = RuntimeError("block failed")
    ran = _failing_block(monkeypatch, False, err)
    before = threading.active_count()
    with pytest.raises(RuntimeError) as excinfo:
        run_trials(scenario(), 16 * 64, 1, workers=2)
    assert excinfo.value is err
    assert threading.active_count() == before
    assert 2 <= len(ran) < 16


def test_interrupt_on_the_calling_thread_stops_the_helpers(monkeypatch):
    """A BaseException that is no Exception, such as KeyboardInterrupt,
    raised by a block on the calling thread: the caller gets it itself
    once the helpers have ended, and they take no queued block."""
    class Interrupt(BaseException):
        pass

    err = Interrupt()
    ran = _failing_block(monkeypatch, True, err)
    before = threading.active_count()
    with pytest.raises(Interrupt) as excinfo:
        run_trials(scenario(), 16 * 64, 1, workers=3)
    assert excinfo.value is err
    assert threading.active_count() == before
    assert 2 <= len(ran) < 16


def test_blocks_in_flight_stay_bounded(monkeypatch):
    """A run of about 2e9 trials per hypothesis (30,518 blocks each) with a
    stubbed block on three threads, more than a 2-core host has, and a
    short switch interval: at most ``workers`` blocks are taken and not yet
    counted, so the engine's scheduling state does not grow with the trial
    count, and every block's count is merged, none lost between threads."""
    lock, outstanding, peak, threads = threading.Lock(), [0], [0], set()
    real_layout = montecarlo._chunk_layout

    def layout(total, size):
        for block in real_layout(total, size):
            with lock:
                outstanding[0] += 1
                peak[0] = max(peak[0], outstanding[0])
            yield block

    def stub(task):
        _, rules, hyp, _, count, *_ = task
        threads.add(threading.get_ident())
        with lock:
            outstanding[0] -= 1
        return hyp, np.array([[count, 0, 0, 0]] * len(rules))

    monkeypatch.setattr(montecarlo, "_chunk_layout", layout)
    monkeypatch.setattr(montecarlo, "_chunk_task", stub)
    trials = 30_518 * 65_536 - 123
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        tally = run_trials(scenario(n_packets=2), trials, 1, workers=3)
    finally:
        sys.setswitchinterval(interval)
    assert tally.trials_per_hypothesis.tolist() == [trials] * 4
    assert outstanding[0] == 0 and 1 <= peak[0] <= 3
    assert len(threads) == 3


def test_sweep_checks_every_grid_point_before_any_trial(monkeypatch):
    """The joint model's variances are in order at IRR -30 dB and out of
    order at -15 dB (SNR 0/13): the sweep refuses the grid before it
    tallies its first point."""
    m = irr_to_mismatch(-15.0)
    sc = scenario(snr2_db=13.0, tx_mismatch=m, rx_mismatch=m)
    calls = []
    monkeypatch.setattr(montecarlo, "_tally_jobs", lambda *a: calls.append(a))
    with pytest.raises(VarianceOrderError, match="^irr_db=-15: variances must be"):
        sweep([(sc, "irr_db", [-30.0, -15.0], [sc.mode], ())], 100, 1)
    # on a later curve's grid, after a curve that is in order
    with pytest.raises(VarianceOrderError, match="^irr_db=-15: variances must be"):
        sweep([(scenario(), "irr_db", [-15.0], [sc.mode], ()),
               (sc, "irr_db", [-30.0, -15.0], [sc.mode], (1,))], 100, 1)
    assert calls == []


@pytest.mark.parametrize("entry", ["run_trials", "sweep"])
def test_trial_counts_stop_at_max_trials(entry):
    """10**400 trials per hypothesis would start a run without end; the
    engine refuses any count past MAX_TRIALS, naming the field, before a
    block is drawn."""
    sc = scenario()
    run = {
        "run_trials": lambda n: run_trials(sc, n, 1),
        "sweep": lambda n: sweep([(sc, "irr_db", [-15.0], [sc.mode], ())], n, 1),
    }[entry]
    for bad in (MAX_TRIALS + 1, 10**400):
        with pytest.raises(ValueError, match=f"^per_hypothesis must be <= {MAX_TRIALS}, got {bad}$"):
            run(bad)


@pytest.mark.parametrize("point", [True, False, "-20", None, math.nan, math.inf, 10**400],
                         ids=["True", "False", "str", "None", "nan", "inf", "huge"])
def test_sweep_grid_points_follow_the_number_rule(point):
    """A grid point is a real number: a bool or a string such as "-20"
    raises ValueError naming the axis and the point, where float() would
    run it; -inf stays a silent subcarrier on an SNR axis."""
    sc = scenario()
    for axis in SWEEP_AXES:
        with pytest.raises(ValueError, match=f"^{axis} grid point must be finite, got "):
            sweep([(sc, axis, [-10.0, point], [sc.mode], ())], 10, 1)
    silent, = sweep([(sc, "snr_db_at_delta", [-math.inf], [sc.mode], ())], 100, 1)
    assert silent.value == -math.inf and silent.tally.trials_per_hypothesis.tolist() == [100] * 4


def test_run_trials_argument_validation():
    sc = scenario()
    with pytest.raises(ValueError):
        run_trials(sc, 0, 1)
    with pytest.raises(ValueError):
        run_trials(sc, 10, 1, workers=0)
    with pytest.raises(ValueError, match="^curves must be nonempty$"):
        sweep([], 10, 1)
    with pytest.raises(ValueError, match="^grid must be nonempty$"):
        sweep([(sc, "irr_db", [], [sc.mode], ())], 10, 1)
    with pytest.raises(ValueError, match="^modes must be nonempty$"):
        sweep([(sc, "irr_db", [-15.0], [], ())], 10, 1)
    with pytest.raises(ValueError, match="^axis must be one of"):
        sweep([(sc, "noise_var", [1.0], [sc.mode], ())], 10, 1)
    # The trial engine checks its arguments for every caller.
    with pytest.raises(ValueError, match="^workers must be an int >= 1, got 0$"):
        sweep([(sc, "irr_db", [-15.0], [sc.mode], ())], 10, 1, workers=0)
    with pytest.raises(ValueError, match=f"^workers must be <= {MAX_WORKERS}, got 1000000$"):
        run_trials(sc, 10, 1, workers=10**6)
    # One number rule for the counts; 10**400 is an int, refused by its bound.
    for bad in REFUSED[:-1]:
        with pytest.raises(ValueError, match="^per_hypothesis must be an int >= 1, got "):
            run_trials(sc, bad, 1)
    for bad in REFUSED:
        with pytest.raises(ValueError, match="^workers must be "):
            run_trials(sc, 10, 1, workers=bad)
    assert run_trials(sc, np.int64(10), 3, workers=np.int64(2)) == run_trials(sc, 10, 3)
    # No float, string or bool stands in for a seed; a numpy integer does.
    message = r"^master_seed must be an int in \[0, 2\*\*64\), got "
    for seed in (3.9, "7", True):
        with pytest.raises(ValueError, match=message):
            run_trials(sc, 10, seed)
    assert run_trials(sc, 10, np.int64(3)) == run_trials(sc, 10, 3)
    assert run_trials(sc, 10, SeedSpec(np.int64(3))) == run_trials(sc, 10, 3)
    # A rule must be built for the scenario's packet count, for the trials
    # and for the exact rows alike.
    for mode in (DetectorMode("four"), DetectorMode("two-cfar", 0.1)):
        rule = scenario_rule(scenario(n_packets=4, mode=mode))
        for entry in (partial(run_trials, per_hypothesis=10, seed=1),
                      montecarlo.exact_probabilities):
            with pytest.raises(ValueError, match="^rule was built for n_packets=4, "
                                                 "but the scenario has n_packets=8$"):
                entry(scenario(n_packets=8, mode=mode), rule=rule)
