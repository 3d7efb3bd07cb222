"""Decision rule construction, thresholds and closed-form probabilities."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq
from scipy.stats import poisson

import law_oracle
from gamma_density import gamma_pdf
from number_rule import REFUSED
from variance_reference import component_variances
from iqsense.detection import (
    MAX_PACKETS,
    CONVENTIONS,
    METRICS,
    DecisionRule,
    H3_TABLE_CUT,
    DetectorMode,
    Hypothesis,
    HypothesisVariances,
    VarianceOrderError,
    analytic_detection,
    analytic_false_alarm,
    classify_batch,
    conditional_probabilities,
    convention_metric,
    decision_rule,
    detection_paper_literal,
    false_alarm_paper_literal,
    h3_packet_count_law,
    hypothesis_variances,
    metric_cells,
    pair_table,
    pairwise_threshold,
    pairwise_threshold_paper,
    statistic_means,
    thresholds_paper_literal,
    two_level_rule,
)
from iqsense.numerics import gamma_sf, packet_count_tail
from iqsense.signal_model import (
    IqMismatch,
    MismatchCoefficients,
    SubcarrierPairConfig,
    irr_to_mismatch,
    mismatch_coefficients,
)

# Reference operating point: unit pair powers, -15 dB IRR transmitter.
REF_VARIANCES = HypothesisVariances(
    0.5, 0.515811388300841897, 1.0, 1.0158113883008419
)
REF_THRESHOLDS = (
    1.01564730789639288,
    1.41050164042996583,
    2.01572870759049988,
)


def crossing_oracle(var_i, var_j, n):
    """Numeric root of the two Gamma densities' log-likelihood difference."""

    def diff(z):
        return gamma_pdf(n, 2.0 * var_i / n, z) - gamma_pdf(n, 2.0 * var_j / n, z)

    lo, hi = 2.0 * min(var_i, var_j) / 1.5, 2.0 * max(var_i, var_j) * 1.5
    return brentq(diff, lo, hi, xtol=1e-14, rtol=8.9e-16)


def test_reference_variances():
    cfg = SubcarrierPairConfig(power_k=1.0, power_mk=1.0)
    v = hypothesis_variances(cfg, mismatch_coefficients(irr_to_mismatch(-15.0)))
    for got, want in zip(v.as_tuple(), REF_VARIANCES.as_tuple()):
        assert got == pytest.approx(want, rel=1e-14)


def test_reference_thresholds():
    r = decision_rule(REF_VARIANCES, 1)
    assert r.boundaries == pytest.approx(REF_THRESHOLDS, rel=1e-13)
    assert r.levels == (Hypothesis.H0, Hypothesis.H1, Hypothesis.H2, Hypothesis.H3)
    assert not r.merged


def test_threshold_against_crossing_oracle():
    rng = np.random.default_rng(31)
    for _ in range(50):
        vj = float(rng.uniform(0.1, 2.0))
        vi = vj * float(rng.uniform(1.05, 5.0))
        n = int(rng.integers(1, 9))
        t = pairwise_threshold(vi, vj)
        assert t == pytest.approx(crossing_oracle(vi, vj, n), rel=1e-9)


@given(
    vj=st.floats(min_value=0.05, max_value=5.0),
    ratio=st.floats(min_value=1.001, max_value=50.0),
)
@settings(max_examples=200, deadline=None)
def test_threshold_properties(vj, ratio):
    vi = vj * ratio
    t = pairwise_threshold(vi, vj)
    # Strictly between the component means of the single-packet statistic,
    # symmetric in its arguments, and scale-equivariant.
    assert 2.0 * vj < t < 2.0 * vi
    assert pairwise_threshold(vj, vi) == pytest.approx(t, rel=1e-12)
    assert pairwise_threshold(3.0 * vi, 3.0 * vj) == pytest.approx(3.0 * t, rel=1e-12)


def test_threshold_degenerate_pair():
    with pytest.raises(ValueError):
        pairwise_threshold(1.0, 1.0)
    with pytest.raises(ValueError):
        pairwise_threshold(1.0, 1.0 + 1e-12)


def test_paper_literal_threshold_ratio():
    # Same crossing expressed for the scaled statistic: factor n^2/2.
    for n in (1, 2, 4, 8):
        t = pairwise_threshold(1.0, 0.5)
        tp = pairwise_threshold_paper(1.0, 0.5, n)
        assert tp == pytest.approx(0.5 * n * n * t, rel=1e-12)


def test_paper_literal_probabilities_coincide():
    """Thresholds differ by n^2/2 but every closed-form probability
    agrees, because threshold/scale is identical in both forms."""
    v = REF_VARIANCES
    for n in (1, 2, 4, 8):
        rule = decision_rule(v, n)
        assert false_alarm_paper_literal(v, n) == pytest.approx(
            analytic_false_alarm(v, rule, "paper-sum"), rel=1e-12
        )
        assert detection_paper_literal(v, n) == pytest.approx(
            analytic_detection(v, rule, "paper-sum"), rel=1e-12
        )
        s_lit = thresholds_paper_literal(v, n)
        assert s_lit == pytest.approx(
            tuple(0.5 * n * n * b for b in rule.boundaries), rel=1e-12
        )


def test_ordering_chains_random():
    rng = np.random.default_rng(77)
    for _ in range(500):
        vs = np.sort(rng.uniform(0.05, 5.0, size=4))
        if np.min(np.diff(vs)) / vs[3] < 1e-6:
            continue
        v = HypothesisVariances(*vs)
        r = decision_rule(v, 1)  # raises AssertionError if a chain fails
        assert r.boundaries[0] < r.boundaries[1] < r.boundaries[2]


def test_merge_ideal_front_end():
    cfg = SubcarrierPairConfig(power_k=1.0, power_mk=1.0)
    v = hypothesis_variances(cfg, mismatch_coefficients(irr_to_mismatch(None)))
    r = decision_rule(v, 1)
    assert r.boundaries == pytest.approx((2.0 * math.log(2.0),), rel=1e-14)
    assert r.levels == (Hypothesis.H0, Hypothesis.H2)
    assert r.merged == ((Hypothesis.H0, Hypothesis.H1),
                        (Hypothesis.H2, Hypothesis.H3))


def test_merge_silent_mirror():
    # P_mk = 0 makes H0 == H1 and H2 == H3 even with a dirty front end.
    cfg = SubcarrierPairConfig(power_k=1.0, power_mk=0.0)
    v = hypothesis_variances(cfg, mismatch_coefficients(irr_to_mismatch(-15.0)))
    r = decision_rule(v, 1)
    assert len(r.boundaries) == 1
    assert r.levels == (Hypothesis.H0, Hypothesis.H2)


def test_classify_semantics():
    r = decision_rule(REF_VARIANCES, 1)
    # A boundary value belongs to the upper region.
    out = classify_batch(np.array([0.5, 1.2, 1.7, 5.0, r.boundaries[0], r.boundaries[2]]), r)
    assert out.tolist() == [0, 1, 2, 3, 1, 3]


def test_busy_decision():
    # Busy means the decided state includes the subcarrier's own signal.
    assert [h.own_active for h in Hypothesis] == [False, False, True, True]
    assert [h.mirror_active for h in Hypothesis] == [False, True, False, True]


def test_two_level_bayes_rule():
    v = HypothesisVariances(0.5, 0.515811388300841897, 1.0, 1.0158113883008419)
    r = two_level_rule(v, 1, DetectorMode("two-bayes"))
    assert r.boundaries == pytest.approx((2.0 * math.log(2.0),), rel=1e-14)
    assert r.levels == (Hypothesis.H0, Hypothesis.H2)


def test_two_level_cfar_rule():
    v = REF_VARIANCES
    r = two_level_rule(v, 1, DetectorMode("two-cfar", 0.1))
    # Exp(scale 1) tail: t = -ln(0.1)
    assert r.boundaries == pytest.approx((math.log(10.0),), rel=1e-12)
    assert gamma_sf(1, 2.0 * v.sigma0_sq, r.boundaries[0]) == pytest.approx(0.1)
    # Design level 1 admits everything: a single always-busy region.
    r1 = two_level_rule(v, 1, DetectorMode("two-cfar", 1.0))
    assert r1.boundaries == ()
    assert r1.levels == (Hypothesis.H2,)
    assert classify_batch(np.zeros(1), r1).tolist() == [Hypothesis.H2]


def test_two_level_rule_rejects_four():
    with pytest.raises(ValueError):
        two_level_rule(REF_VARIANCES, 1, DetectorMode("four"))


def test_detector_mode_validation():
    with pytest.raises(ValueError):
        DetectorMode("three")
    with pytest.raises(ValueError):
        DetectorMode("two-cfar")  # needs target_pfa
    with pytest.raises(ValueError):
        DetectorMode("two-cfar", target_pfa=0.0)
    with pytest.raises(ValueError):
        DetectorMode("four", target_pfa=0.1)
    assert DetectorMode("two-cfar", 1.0).target_pfa == 1.0
    mode = DetectorMode("two-cfar", np.float32(0.5))
    assert mode == DetectorMode("two-cfar", 0.5) and type(mode.target_pfa) is float
    for bad in REFUSED:
        with pytest.raises(ValueError, match="target_pfa"):
            DetectorMode("two-cfar", bad)


def test_classifier_is_ml_partition():
    """Region membership equals density argmax everywhere off boundaries."""
    rng = np.random.default_rng(13)
    for _ in range(30):
        vs = np.sort(rng.uniform(0.05, 4.0, size=4))
        if np.min(np.diff(vs)) / vs[3] < 1e-3:
            continue
        n = int(rng.integers(1, 5))
        v = HypothesisVariances(*vs)
        r = decision_rule(v, n)
        z = np.linspace(1e-3, 4.0 * vs[3], 200)
        dens = np.stack([gamma_pdf(n, 2.0 * s / n, z) for s in vs])
        ml = np.argmax(dens, axis=0)
        got = classify_batch(z, r)
        off_boundary = np.all(
            np.abs(z[:, None] - np.array(r.boundaries)) > 1e-9, axis=1
        )
        assert np.array_equal(got[off_boundary], ml[off_boundary])


def test_conditional_probabilities_rows():
    v = REF_VARIANCES
    r = decision_rule(v, 1)
    m = conditional_probabilities(v, r)
    assert m.shape == (4, 4)
    assert np.all(m >= 0.0)
    assert m.sum(axis=1) == pytest.approx(np.ones(4), rel=1e-12)
    # Each row is the telescoping of the Gamma tail over the regions.
    for i, s in enumerate(v.as_tuple()):
        tails = [gamma_sf(1, 2.0 * s, b) for b in r.boundaries]
        edges = [1.0, *tails, 0.0]
        for j in range(4):
            assert m[i, j] == pytest.approx(edges[j] - edges[j + 1], abs=1e-15)


def test_conditional_probabilities_stay_in_unit_interval():
    """At 32 packets and 20/10 dB SNR, the H3 tails at the two lower
    thresholds both round to about 1, the lower one an ulp below 1; no
    cell may come out negative."""
    from iqsense.config import parse_config
    from iqsense.montecarlo import rule_for_mode, scenario_variances

    sc = parse_config({"scenario": {
        "n_packets": 32, "tx_irr_db": -5.0, "snr1_db": 20.0, "snr2_db": 10.0,
    }}).scenario
    v = scenario_variances(sc)
    m = conditional_probabilities(v, rule_for_mode(v, sc.n_packets, sc.mode))
    assert np.all(m >= 0.0) and np.all(m <= 1.0)
    assert m.sum(axis=1) == pytest.approx(np.ones(4), rel=1e-12)


def test_metric_conventions():
    v = REF_VARIANCES
    r = decision_rule(v, 1)
    m = conditional_probabilities(v, r)
    busy = m[:, 2] + m[:, 3]
    assert analytic_false_alarm(v, r, "paper-sum") == pytest.approx(
        busy[0] + busy[1], rel=1e-14
    )
    assert analytic_false_alarm(v, r, "prior-weighted") == pytest.approx(
        0.5 * (busy[0] + busy[1]), rel=1e-14
    )
    assert analytic_detection(v, r, "paper-sum") == pytest.approx(
        m[2, 2] + m[3, 3], rel=1e-14
    )
    assert analytic_detection(v, r, "prior-weighted") == pytest.approx(
        0.5 * (busy[2] + busy[3]), rel=1e-14
    )
    with pytest.raises(ValueError):
        analytic_false_alarm(v, r, "other")
    with pytest.raises(ValueError, match="convention must be one of"):
        analytic_detection(v, r, "paper_sum")


def test_convention_table():
    """paper-sum P_D reads the diagonal cells (2,2) and (3,3); every other
    metric reads the busy columns {2, 3}, of the idle rows for P_FA and of
    the occupied rows for P_D."""
    assert CONVENTIONS == ("paper-sum", "prior-weighted")
    assert METRICS == ("p_fa", "p_d")
    for convention, weight in zip(CONVENTIONS, (1.0, 0.5)):
        assert metric_cells(convention, "p_fa") == (weight, ((0, (2, 3)), (1, (2, 3))))
    assert metric_cells("paper-sum", "p_d") == (1.0, ((2, (2,)), (3, (3,))))
    assert metric_cells("prior-weighted", "p_d") == (0.5, ((2, (2, 3)), (3, (2, 3))))
    probs = np.arange(16.0).reshape(4, 4)
    assert convention_metric(probs, "paper-sum", "p_d") == 10.0 + 15.0
    assert convention_metric(probs, "prior-weighted", "p_fa") == 0.5 * ((2 + 3) + (6 + 7))


def test_variances_validation():
    with pytest.raises(ValueError):
        HypothesisVariances(1.0, 0.5, 2.0, 3.0)  # not nondecreasing
    with pytest.raises(ValueError):
        HypothesisVariances(0.0, 0.5, 1.0, 2.0)
    with pytest.raises(ValueError):
        HypothesisVariances(0.5, 0.6, 1.0, math.inf)
    v = HypothesisVariances(np.float32(0.5), np.int64(1), np.float64(2.0), np.uint8(3))
    assert v.as_tuple() == (0.5, 1.0, 2.0, 3.0)
    assert all(type(x) is float for x in v.as_tuple())
    for i, name in enumerate(("sigma0_sq", "sigma1_sq", "sigma2_sq", "sigma3_sq")):
        for bad in REFUSED:
            args = [0.5, 1.0, 2.0, 3.0]
            args[i] = bad
            with pytest.raises(ValueError, match=f"^{name} must be finite and > 0, got "):
                HypothesisVariances(*args)


def test_decision_rule_validation():
    with pytest.raises(ValueError):
        DecisionRule((2.0, 1.0), (Hypothesis.H0, Hypothesis.H1, Hypothesis.H2),
                     (), 1)
    with pytest.raises(ValueError):
        DecisionRule((1.0,), (Hypothesis.H0,), (), 1)
    with pytest.raises(ValueError):
        DecisionRule((1.0,), (Hypothesis.H0, Hypothesis.H0), (), 1)
    assert DecisionRule((1.0,), (Hypothesis.H0, Hypothesis.H2), (), 1).boundaries == (1.0,)
    rule = DecisionRule((1.0,), (Hypothesis.H0, Hypothesis.H2), (), np.int64(2))
    assert rule.n_packets == 2 and type(rule.n_packets) is int
    assert decision_rule(REF_VARIANCES, np.int64(4)) == decision_rule(REF_VARIANCES, 4)
    assert type(decision_rule(REF_VARIANCES, np.int64(4)).n_packets) is int
    for bad in (*REFUSED[:-1], 0, 2.0):  # 10**400 is an int, refused by the bound below
        with pytest.raises(ValueError, match="^n_packets must be an int >= 1, got "):
            DecisionRule((1.0,), (Hypothesis.H0, Hypothesis.H2), (), bad)
        with pytest.raises(ValueError, match="^n_packets must be an int >= 1, got "):
            decision_rule(REF_VARIANCES, bad)
        with pytest.raises(ValueError, match="^n_packets must be an int >= 1, got "):
            pairwise_threshold_paper(2.0, 1.0, bad)
    assert pairwise_threshold(np.float32(2.0), np.int64(1)) == pairwise_threshold(2.0, 1.0)
    for bad in REFUSED:
        with pytest.raises(ValueError, match="^var_i must be finite and > 0, got "):
            pairwise_threshold(bad, 1.0)
        with pytest.raises(ValueError, match="^var_j must be finite and > 0, got "):
            pairwise_threshold(2.0, bad)


@pytest.mark.parametrize("entry", ["DecisionRule", "pairwise_threshold_paper"])
def test_packet_counts_stop_at_max_packets(entry):
    """A rule and the literal threshold take at most MAX_PACKETS packets,
    the bound a scenario has: 10**400 raises ValueError naming the field
    (the literal threshold raised OverflowError)."""
    make = {
        "DecisionRule": lambda n: DecisionRule((1.0,), (Hypothesis.H0, Hypothesis.H2), (), n),
        "pairwise_threshold_paper": lambda n: pairwise_threshold_paper(2.0, 1.0, n),
    }[entry]
    make(MAX_PACKETS)
    for bad in (MAX_PACKETS + 1, 10**400):
        with pytest.raises(ValueError, match=f"^n_packets must be <= {MAX_PACKETS}, got {bad}$"):
            make(bad)


def test_conditioned_variances_cross_term():
    """The pair table's H3 entry carries the documented cross term,
    2*sqrt(P_k*P_mk)*Re(alpha_t*conj(beta_t)*s_k*s_mk), on both sides;
    H0-H2 have none, and a destructive phase drops H3 below H2."""
    cfg = SubcarrierPairConfig(power_k=1.0, power_mk=0.5, channel_var_mirror=2.0)
    mm = IqMismatch(0.3, 0.2)
    c = mismatch_coefficients(mm)
    at2, bt2 = abs(c.alpha) ** 2, abs(c.beta) ** 2
    table = pair_table(cfg, c)
    assert table.shape == (4, 16, 2)
    psk16 = np.exp(2j * np.pi * np.arange(16) / 16)
    cross = 2.0 * math.sqrt(0.5) * (c.alpha * np.conjugate(c.beta) * psk16).real
    np.testing.assert_allclose(table[3, :, 0], (at2 + 0.5 * bt2 + cross) + 1.0, rtol=1e-14)
    np.testing.assert_allclose(
        table[3, :, 1], 2.0 * (0.5 * at2 + bt2 + cross) + 1.0, rtol=1e-14
    )
    assert np.all(table[:3] == table[:3, :1])
    assert table[0].tolist() == [[1.0, 1.0]] * 16
    assert table[2, 0].tolist() == [at2 + 1.0, 2.0 * bt2 + 1.0]
    # A destructive phase pushes H3 below H2; the ordered container
    # refuses to represent that state.
    u = int(np.argmin(cross))
    assert table[3, u, 0] < table[2, u, 0]
    with pytest.raises(VarianceOrderError):
        HypothesisVariances(*(table[:, u, 0] / 2.0))


def test_pair_table_is_built_once_per_pair_and_read_only():
    """Equal (pair, tx) arguments share one table, which no reader can
    change under the others."""
    table, again = (
        pair_table(SubcarrierPairConfig(2.0, 0.5), mismatch_coefficients(IqMismatch(0.1, 0.05)))
        for _ in range(2)
    )
    assert again is table
    assert not table.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        table[3, 0, 0] = 0.0


@pytest.mark.parametrize("joint", [False, True], ids=["tx-only", "joint"])
def test_pair_table_phase_average_is_hypothesis_variances(joint):
    rng = np.random.default_rng(47 + joint)
    for _ in range(200):
        power = float(rng.uniform(0.5, 20.0))
        cfg = SubcarrierPairConfig(
            power_k=power,
            power_mk=power * float(rng.uniform(0.0, 1.0)),
            noise_var=float(rng.uniform(0.5, 2.0)),
            channel_var=float(rng.uniform(0.3, 3.0)),
            channel_var_mirror=float(rng.uniform(0.3, 3.0)),
            psk_order=2 ** int(rng.integers(1, 7)),
        )
        tx = mismatch_coefficients(IqMismatch(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5)))
        rx = mismatch_coefficients(
            IqMismatch(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5))
        ) if joint else None
        # fsum: a correctly rounded phase average, so the comparison
        # measures the two forms, not the summation order
        table = pair_table(cfg, tx)
        mean = np.array([[math.fsum(col) for col in t.T] for t in table]) / cfg.psk_order
        r = rx or MismatchCoefficients(1.0, 0.0)
        got = 0.5 * (abs(r.alpha) ** 2 * mean[:, 0] + abs(r.beta) ** 2 * mean[:, 1])
        want = component_variances(cfg, tx, rx)
        np.testing.assert_allclose(got, want, rtol=1e-15, atol=0.0)
        np.testing.assert_allclose(
            hypothesis_variances(cfg, tx, rx).as_tuple(), want, rtol=1e-15, atol=0.0
        )


def test_tiny_image_keeps_h2_h3_ordered_and_merged():
    """At IRR -60 dB and SNR 30/-100 dB the H3 cross term is below the
    rounding of sigma2^2: the variances stay ordered, H0/H1 and H2/H3
    merge.  The table's rounded phase mean would put sigma3^2 one ulp
    below sigma2^2."""
    cfg = SubcarrierPairConfig(power_k=1e3, power_mk=1e-10)
    tx = mismatch_coefficients(irr_to_mismatch(-60.0))
    v = hypothesis_variances(cfg, tx)
    assert v.as_tuple() == (0.5, 0.5, 500.5, 500.5)
    assert decision_rule(v, 1).merged == ((Hypothesis.H0, Hypothesis.H1),
                                          (Hypothesis.H2, Hypothesis.H3))
    naive = pair_table(cfg, tx).mean(axis=1)[:, 0] / 2.0
    assert naive[3] < naive[2]


def test_zero_receiver_weight_ignores_an_overflowing_mirror_side():
    """Only the mirror side's means overflow; the transmitter-only model
    and an ideal receiver never read them."""
    cfg = SubcarrierPairConfig(power_k=1e10, power_mk=1.0, channel_var_mirror=1e300)
    tx = mismatch_coefficients(irr_to_mismatch(-15.0))
    with np.errstate(over="ignore"):
        assert np.isinf(pair_table(cfg, tx)[2, 0, 1])
    v = hypothesis_variances(cfg, tx)
    assert all(math.isfinite(x) for x in v.as_tuple())
    assert hypothesis_variances(cfg, tx, mismatch_coefficients(IqMismatch.ideal())) == v


def test_overflowing_h3_means_are_refused():
    """At 1e160 on both sides every variance is finite, but the H3 row's
    cross term, formed from sqrt(P_k*P_-k), overflows; the engine would
    draw from those means, so the variances refuse the pair."""
    cfg = SubcarrierPairConfig(power_k=1e160, power_mk=1e160)
    tx = mismatch_coefficients(irr_to_mismatch(-15.0))
    with pytest.raises(ValueError, match="^the H3 mean powers overflow a float$"):
        hypothesis_variances(cfg, tx)
    # without a cross term: an ideal transmitter seen through a receiver
    # mismatch, whose H3 mean overflows at every phase while H0-H2 do not
    cfg = SubcarrierPairConfig(1.0, 1.0, channel_var=1e308, channel_var_mirror=1e308)
    ideal, rx = (mismatch_coefficients(m) for m in (IqMismatch.ideal(), IqMismatch(0.9, 0.0)))
    with pytest.raises(ValueError, match="^the H3 mean powers overflow a float$"):
        hypothesis_variances(cfg, ideal, rx)


# (pair, tx, rx) with an H3 cross term: the kernel gate's point (tx IRR
# -5 dB, 5/5 dB) in both models, the largest constellation, and a
# near-cancelling point (tx IRR -15 dB, 10/24.9 dB) whose table runs to
# about 1,500 entries at four packets.
_H3_LAWS = {
    "gate-tx-only": (SubcarrierPairConfig(10**0.5, 10**0.5, channel_var_mirror=1.5),
                     irr_to_mismatch(-5.0), None),
    "gate-joint": (SubcarrierPairConfig(10**0.5, 10**0.5, channel_var_mirror=1.5),
                   irr_to_mismatch(-5.0), IqMismatch(0.3, 0.2)),
    "psk1024": (SubcarrierPairConfig(4.0, 2.0, psk_order=1024), IqMismatch(0.25, 0.1), None),
    "near-cancelling": (SubcarrierPairConfig(10.0, 10**2.49), irr_to_mismatch(-15.0), None),
}


def _h3_law_args(case):
    cfg, tx, rx = _H3_LAWS[case]
    return cfg, mismatch_coefficients(tx), rx and mismatch_coefficients(rx)


@pytest.mark.parametrize("n", [2, 4, 32])
@pytest.mark.parametrize("case", list(_H3_LAWS))
def test_h3_packet_count_table_is_the_exact_law(case, n):
    """The table holds all but H3_TABLE_CUT of the mass of K - n, its
    last entry is the mass left out, and its mean is E[K] =
    n*mean(m)/min(m)."""
    args = _h3_law_args(case)
    means = statistic_means(*args)[3]
    law = h3_packet_count_law(*args, n)
    assert law.v_min == means.min()
    cdf, cut = np.cumsum(law.pmf[:-1]), law.pmf[-1]
    assert cdf[-1] >= 1.0 - H3_TABLE_CUT and 0.0 <= cut <= H3_TABLE_CUT
    assert math.fsum(law.pmf) == pytest.approx(1.0, rel=0.0, abs=1e-15)
    assert np.all(law.pmf >= 0.0) and not law.pmf.flags.writeable
    mean_k = n + math.fsum(1.0 - cdf)
    assert mean_k == pytest.approx(n * means.mean() / means.min(), rel=1e-9, abs=0.0)


def _hypoexponential_sf(a, b, t):
    """P(X + Y > t) for independent exponentials of rates a <= b (arrays)."""
    d = b - a
    spread = np.divide(-np.expm1(-d * t), d, out=np.full(d.shape, t), where=d > 0)
    return np.exp(-a * t) * (1.0 + a * spread)


@pytest.mark.parametrize("case", list(_H3_LAWS))
def test_h3_packet_count_table_gives_the_two_packet_tail(case):
    """At two packets, P(Z > z) = sum_j Pois(j; 2z/v)*P(K > j) equals the
    hypoexponential tail averaged over all M^2 pairs of phases."""
    args = _h3_law_args(case)
    means = statistic_means(*args)[3]
    law = h3_packet_count_law(*args, 2)
    k_tail = np.concatenate([[1.0, 1.0], 1.0 - np.cumsum(law.pmf[:-1])])  # P(K > j), j = 0, 1, ...
    rates = 1.0 / means
    for z in means.mean() * np.array([0.25, 1.0, 2.0, 4.0]):
        got = float(poisson.pmf(np.arange(k_tail.size), 2.0 * z / law.v_min) @ k_tail)
        a, b = np.meshgrid(rates, rates)
        want = math.fsum(_hypoexponential_sf(np.minimum(a, b), np.maximum(a, b), 2.0 * z).ravel())
        want /= rates.size**2
        assert got == pytest.approx(want, rel=0.0, abs=1e-12)


@pytest.mark.parametrize("n", [4, 32])
@pytest.mark.parametrize("case", ["gate-tx-only", "gate-joint", "near-cancelling"])
def test_h3_packet_count_table_gives_the_laplace_tail(case, n):
    """At n >= 4, P(Z > z) = sum_i Pois(i; n*z/v)*P(K > i) from the table
    equals the Talbot inversion of Z's closed-form transform."""
    args = _h3_law_args(case)
    means = statistic_means(*args)[3]
    law = h3_packet_count_law(*args, n)
    # P(K > i): 1 below n, then P(K - n >= i - n + 1) from the reverse cumulative sum
    k_tail = np.concatenate([np.ones(n), np.cumsum(law.pmf[::-1])[::-1][1:]])
    for z in means.mean() * np.array([0.3, 1.0, 2.0, 3.0]):
        got = float(poisson.pmf(np.arange(k_tail.size), n * z / law.v_min) @ k_tail)
        assert got == pytest.approx(law_oracle.h3_tail(means, n, z), rel=0.0, abs=1e-12)


# Figure 4's SNR1 20 dB point at delta -10 dB, tx IRR -15 dB.
_FIGURE_4 = (SubcarrierPairConfig(100.0, 1000.0), mismatch_coefficients(irr_to_mismatch(-15.0)),
             None)


@pytest.mark.parametrize("case, n", [
    *((case, n) for case in ("gate-tx-only", "gate-joint") for n in (1, 2, 4, 32)),
    ("figure-4", 256),
])
def test_packet_count_tail_is_the_h3_law(case, n):
    """The H3 row's tails at the rule's boundaries, read from the table,
    equal the Talbot inversion of Z's transform to 1e-12 relative, and at
    one packet the M-term sum (1/M)*sum_u exp(-t/m_u) as well.  At figure
    4's point with 256 packets the table has 2,698 entries and the
    boundaries sit at n*t/v of about 46, 692 and 1,466, on both sides of
    the kernel's switch to log weights at 700; there the gate is 1e-13
    against a 60-digit inversion (measured 2.8e-14)."""
    args = _FIGURE_4 if case == "figure-4" else _h3_law_args(case)
    rel, dps = (1e-13, 60) if case == "figure-4" else (1e-12, 30)
    means = statistic_means(*args)[3]
    t = decision_rule(hypothesis_variances(*args), n).boundaries
    got = packet_count_tail(*h3_packet_count_law(*args, n), n, t)
    want = [law_oracle.h3_tail(means, n, z, dps) for z in t]
    assert got == pytest.approx(want, rel=rel, abs=0.0)
    if n == 1:
        m_term = np.exp(-np.divide.outer(t, means)).mean(axis=1)
        assert got == pytest.approx(m_term, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("n", [1, 4, 32, MAX_PACKETS])
def test_one_entry_packet_count_tail_is_the_erlang_tail(n):
    """A one-entry pmf is the Gamma row: P(Z >= t) = Q(n, n*t/v), against
    mpmath's regularized incomplete gamma at 50 digits."""
    v = 2.0 * REF_VARIANCES.sigma2_sq
    t = v * np.array([0.05, 0.5, 1.0, 1.3, 4.0])
    with mpmath.workdps(50):
        want = [float(mpmath.gammainc(n, mpmath.mpf(float(z)) * n / mpmath.mpf(v),
                                      mpmath.inf, regularized=True)) for z in t]
    assert packet_count_tail(v, np.array([1.0]), n, t) == pytest.approx(want, rel=1e-12, abs=0.0)


def test_h3_packet_count_law_is_none_only_without_a_cross_term():
    """An H3 row without a cross term draws its Gamma law and has no table
    (the cap's case is test_montecarlo's near-cancelling test); with one,
    one packet has a table too, the pmf of a single geometric count."""
    cfg, tx, _ = _H3_LAWS["gate-tx-only"]
    assert h3_packet_count_law(cfg, mismatch_coefficients(IqMismatch.ideal()), None, 4) is None
    law = h3_packet_count_law(cfg, mismatch_coefficients(tx), None, 1)
    assert law.pmf[1] < law.pmf[0] and math.fsum(law.pmf) == pytest.approx(1.0, abs=1e-15)
