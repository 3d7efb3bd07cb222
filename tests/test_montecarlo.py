"""Determinism, closure and pairing properties of the trial harness."""

import math
import threading
from dataclasses import replace
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import norm
from variance_reference import component_variances

from iqsense.detection import (
    CONVENTIONS,
    METRICS,
    DetectorMode,
    VarianceOrderError,
    conditional_probabilities,
    convention_metric,
    hypothesis_variances,
    metric_cells,
)
import iqsense.montecarlo as montecarlo
from iqsense.montecarlo import (
    SWEEP_AXES,
    SeedSpec,
    SensingScenario,
    TallyMatrix,
    _apply_axis,
    _chunk_layout,
    compare_modes,
    empirical_metrics,
    estimate_component_variances,
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


@pytest.mark.parametrize("noise_var", [-1.0, 0.0, math.nan, math.inf, "x", None])
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
    two = replace(sc, mode=DetectorMode.two_level_bayes())
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
    assert _chunk_layout(10, 4) == [(0, 4), (1, 4), (2, 2)]
    assert _chunk_layout(4, 4) == [(0, 4)]
    assert _chunk_layout(1, 100) == [(0, 1)]


def test_tally_matrix_algebra():
    a = TallyMatrix(np.arange(16).reshape(4, 4))
    b = TallyMatrix(np.ones((4, 4), dtype=int))
    assert a.trials_per_hypothesis.tolist() == [6, 22, 38, 54]
    assert a.busy_counts.tolist() == [5, 13, 21, 29]
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


def test_run_trials_worker_invariance():
    sc = scenario()
    serial = run_trials(sc, 9_000, 5, chunk_size=2_048)
    parallel = run_trials(sc, 9_000, 5, chunk_size=2_048, workers=4)
    assert serial == parallel


# Tallies of the sample-level kernel (symbols looked up per side, receive
# and receive_joint on full arrays).  Three chunks with a short last one;
# the full chunks hold 16384 samples, where numpy switches the operand
# order of some products (see montecarlo._ELISION_BYTES), the last fewer.
_GOLDEN = {
    "tx-only": (
        SensingScenario(0.0, -10.0, tx_mismatch=irr_to_mismatch(-15.0), n_packets=4),
        4096, 2 * 4096 + 1001,
        [[5212, 2148, 1427, 406], [5264, 2110, 1428, 391],
         [1323, 1484, 2421, 3965], [1270, 1461, 2406, 4056]],
    ),
    "joint": (
        SensingScenario(
            3.0, -2.0, tx_mismatch=IqMismatch(0.2, 0.15), rx_mismatch=IqMismatch(-0.1, 0.2),
            n_packets=2, noise_var=1.3, channel_var=0.7, channel_var_mirror=1.8,
        ),
        8192, 2 * 8192 + 777,
        [[10596, 3338, 2300, 927], [9979, 3425, 2616, 1141],
         [3936, 2753, 3711, 6761], [3803, 2578, 3606, 7174]],
    ),
}


@pytest.mark.parametrize("model", list(_GOLDEN))
def test_run_trials_golden(model):
    sc, chunk, per_hypothesis, counts = _GOLDEN[model]
    for workers in (1, 2):
        got = run_trials(sc, per_hypothesis, SeedSpec(2024, 3), workers=workers, chunk_size=chunk)
        assert got.counts.tolist() == counts, f"workers={workers}"


def test_run_trials_closure():
    """Empirical conditional rates sit within 5 binomial SE of the
    closed forms (unit check; acceptance tightens this to 3 SE at 1e6)."""
    sc = scenario()
    n = 40_000
    tally = run_trials(sc, n, 9)
    v = scenario_variances(sc)
    rule = scenario_rule(sc)
    probs = conditional_probabilities(v, rule)
    rates = tally.conditional_rates()
    for i in range(4):
        for j in range(4):
            se = math.sqrt(probs[i, j] * (1 - probs[i, j]) / n)
            assert abs(rates[i, j] - probs[i, j]) <= max(5 * se, 1e-4)


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


def test_compare_modes_is_paired():
    """The four-level busy region is a subset of the two-level Bayes
    one (its busy threshold crosses against sigma1 >= sigma0), so on
    common trials mode a=four never flags busy alone."""
    sc = scenario()
    cmp = compare_modes(
        sc, DetectorMode.four_level(), DetectorMode.two_level_bayes(), 20_000, 3
    )
    only_a = cmp.joint_counts[:, 1]
    assert np.all(only_a == 0)
    assert cmp.joint_counts.sum() == 4 * 20_000
    # Gap therefore equals the one-sided band count and is nonnegative.
    gap = cmp.p_fa_gap("prior-weighted")
    assert gap.value >= 0.0
    assert cmp.p_fa_gap("paper-sum") == cmp.busy_gap((0, 1), 1.0)
    with pytest.raises(ValueError, match="convention"):
        cmp.p_fa_gap("paper_sum")
    # Mode a's busy counts agree with a tally of the same streams.
    tally = run_trials(sc, 20_000, 3)
    assert np.array_equal(cmp.joint_counts[:, 0] + cmp.joint_counts[:, 1], tally.busy_counts)


# Joint counts (both, only_a, only_b, neither) per true hypothesis, computed
# from per-trial busy masks of both rules on every chunk's statistics.  Three
# chunks with a short last one.  Four-level vs two-bayes has only_b > 0 and
# four-level vs two-cfar 0.1 at IRR -5 dB only_a > 0; the joint model puts
# the CFAR rule first.
_COMPARE_GOLDEN = {
    "four-vs-bayes": (
        scenario(n_packets=4), DetectorMode.four_level(), DetectorMode.two_level_bayes(),
        4096, 2 * 4096 + 1001, 7,
        [[1738, 0, 8, 7447], [1793, 0, 10, 7390], [6505, 0, 8, 2680], [6385, 0, 12, 2796]],
    ),
    "four-vs-cfar": (
        scenario(n_packets=2, tx_mismatch=irr_to_mismatch(-5.0)),
        DetectorMode.four_level(), DetectorMode.two_level_cfar(0.1), 4096, 2 * 4096 + 1001, 8,
        [[907, 1154, 0, 7132], [1061, 1180, 0, 6952], [3864, 1519, 0, 3810],
         [3937, 1518, 0, 3738]],
    ),
    "joint": (
        SensingScenario(
            3.0, -2.0, tx_mismatch=IqMismatch(0.2, 0.15), rx_mismatch=IqMismatch(-0.1, 0.2),
            n_packets=2, noise_var=1.3, channel_var=0.7, channel_var_mirror=1.8,
        ),
        DetectorMode.two_level_cfar(0.1), DetectorMode.four_level(), 8192, 2 * 8192 + 777, 9,
        [[1762, 0, 1529, 13870], [2133, 0, 1661, 13367], [8445, 0, 1988, 6728],
         [8818, 0, 1897, 6446]],
    ),
}


@pytest.mark.parametrize("name", list(_COMPARE_GOLDEN))
def test_compare_modes_golden(name):
    sc, mode_a, mode_b, chunk, per_hypothesis, seed, counts = _COMPARE_GOLDEN[name]
    cmp = compare_modes(sc, mode_a, mode_b, per_hypothesis, SeedSpec(seed),
                        chunk_size=chunk, stream_path=(2,))
    assert cmp.joint_counts.dtype == np.int64
    assert cmp.joint_counts.tolist() == counts


def test_sweep_axes_cover_model_knobs():
    sc = scenario()
    assert set(SWEEP_AXES) == {"irr_db", "snr1_db", "delta_snr_db", "snr_db_at_delta"}
    assert _apply_axis(sc, "irr_db", -20.0).tx_mismatch.epsilon == pytest.approx(0.1)
    assert _apply_axis(sc, "snr1_db", 4.0).snr1_db == 4.0
    d = _apply_axis(sc, "delta_snr_db", -10.0)
    assert d.snr1_db == pytest.approx(-20.0) and d.snr2_db == -10.0
    m = _apply_axis(sc, "snr_db_at_delta", 7.0)
    assert m.snr1_db == 7.0 and m.snr2_db == pytest.approx(-3.0)
    with pytest.raises(ValueError):
        _apply_axis(sc, "noise_var", 1.0)


def test_sweep_structure_and_pairing():
    sc = scenario()
    modes = [DetectorMode.four_level(), DetectorMode.two_level_bayes()]
    pts = sweep(sc, "irr_db", [-20.0, -10.0], 8_000, 11, modes=modes)
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
        assert np.all(four_pt.tally.busy_counts <= two_pt.tally.busy_counts)


def test_sweep_stream_path_isolates_curves():
    sc = scenario()
    base = sweep(sc, "irr_db", [-15.0], 4_000, 2)
    same = sweep(sc, "irr_db", [-15.0], 4_000, 2)
    moved = sweep(sc, "irr_db", [-15.0], 4_000, 2, stream_path=(1,))
    assert base[0].tally == same[0].tally
    assert base[0].tally != moved[0].tally


def test_sweep_point_independent_of_grid():
    sc = scenario()
    alone = sweep(sc, "snr1_db", [2.0], 4_000, 21)
    grid = sweep(sc, "snr1_db", [2.0, 4.0], 4_000, 21)
    assert alone[0].tally == grid[0].tally


def test_sweep_worker_invariance():
    """All grid points' chunks run in one map; how the 288 chunk tasks
    spread over the workers never changes a tally."""
    sc = scenario()
    modes = [DetectorMode.four_level(), DetectorMode.two_level_bayes()]
    runs = [
        sweep(sc, "irr_db", [-30.0, -20.0, -10.0], 1_500, 17, modes=modes,
              workers=workers, chunk_size=64)
        for workers in (1, 2, 3)
    ]
    assert len(runs[0]) == 6
    for run in runs[1:]:
        assert [(p.value, p.mode) for p in run] == [(p.value, p.mode) for p in runs[0]]
        assert [p.tally for p in run] == [p.tally for p in runs[0]]


def test_two_workers_run_chunks_at_once(monkeypatch):
    """With workers=2 two chunks are in flight together: each chunk waits
    at a two-party barrier, which a serial engine never passes."""
    sc = scenario()
    serial = run_trials(sc, 2_000, 5, chunk_size=500)
    real = montecarlo._chunk_task
    barrier = threading.Barrier(2, timeout=10)
    threads = set()

    def paired(task):
        threads.add(threading.get_ident())
        barrier.wait()
        return real(task)

    monkeypatch.setattr(montecarlo, "_chunk_task", paired)
    assert run_trials(sc, 2_000, 5, chunk_size=500, workers=2) == serial
    assert len(threads) == 2


def test_failed_chunk_cancels_queued_chunks(monkeypatch):
    """The first of 64 chunks raises: the caller gets that exception
    itself, and the chunks still queued never run."""
    real = montecarlo._chunk_task
    err = RuntimeError("chunk failed")
    ran = []

    def failing(task):
        ran.append(task)
        _, _, hyp, chunk_idx, *_ = task
        if (hyp, chunk_idx) == (0, 0):
            raise err
        time.sleep(0.02)  # keep later chunks queued when the failure surfaces
        return real(task)

    monkeypatch.setattr(montecarlo, "_chunk_task", failing)
    with pytest.raises(RuntimeError) as excinfo:
        run_trials(scenario(), 16 * 64, 1, chunk_size=64, workers=2)
    assert excinfo.value is err
    assert 1 <= len(ran) < 64


def test_sweep_checks_every_grid_point_before_any_trial(monkeypatch):
    """The joint model's variances are in order at IRR -30 dB and out of
    order at -15 dB (SNR 0/13): the sweep refuses the grid before it
    tallies its first point."""
    m = irr_to_mismatch(-15.0)
    sc = scenario(snr2_db=13.0, tx_mismatch=m, rx_mismatch=m)
    calls = []
    monkeypatch.setattr(montecarlo, "_tally_jobs", lambda *a: calls.append(a))
    with pytest.raises(VarianceOrderError, match="^irr_db=-15: variances must be"):
        sweep(sc, "irr_db", [-30.0, -15.0], 100, 1)
    assert calls == []


def test_run_trials_argument_validation():
    sc = scenario()
    with pytest.raises(ValueError):
        run_trials(sc, 0, 1)
    with pytest.raises(ValueError):
        run_trials(sc, 10, 1, chunk_size=0)
    with pytest.raises(ValueError):
        run_trials(sc, 10, 1, workers=0)
    with pytest.raises(ValueError):
        sweep(sc, "irr_db", [], 10, 1)
    with pytest.raises(ValueError):
        sweep(sc, "irr_db", [-15.0], 10, 1, modes=[])
    # The trial engine checks its arguments for every caller.
    with pytest.raises(ValueError, match="chunk_size must be >= 1"):
        sweep(sc, "irr_db", [-15.0], 10, 1, chunk_size=0)
    with pytest.raises(ValueError, match="workers must be >= 1"):
        sweep(sc, "irr_db", [-15.0], 10, 1, workers=0)
    with pytest.raises(ValueError, match="chunk_size must be >= 1"):
        compare_modes(sc, DetectorMode.four_level(), DetectorMode.two_level_bayes(), 10, 1,
                      chunk_size=0)
    # A rule must be built for the scenario's packet count.
    for mode in (DetectorMode.four_level(), DetectorMode.two_level_cfar(0.1)):
        rule = scenario_rule(scenario(n_packets=4, mode=mode))
        with pytest.raises(
            ValueError, match="^rule was built for n_packets=4, but the scenario has n_packets=8$"
        ):
            run_trials(scenario(n_packets=8, mode=mode), 10, 1, rule=rule)
