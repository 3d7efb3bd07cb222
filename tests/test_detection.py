"""Decision rule construction, thresholds and closed-form probabilities."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from gamma_density import gamma_pdf
from variance_reference import component_variances
from iqsense.detection import (
    CONVENTIONS,
    METRICS,
    DecisionRule,
    DetectorMode,
    Hypothesis,
    HypothesisVariances,
    VarianceOrderError,
    analytic_detection,
    analytic_false_alarm,
    classify_batch,
    conditional_probabilities,
    convention_metric,
    decision_counts,
    decision_rule,
    detection_paper_literal,
    false_alarm_paper_literal,
    hypothesis_variances,
    metric_cells,
    pair_table,
    pairwise_threshold,
    pairwise_threshold_paper,
    thresholds_paper_literal,
    two_level_rule,
)
from iqsense.numerics import gamma_sf
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
    assert (r.s01, r.s12, r.s23) == r.boundaries


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
    out = classify_batch(np.array([0.5, 1.2, 1.7, 5.0, r.s01, r.s23]), r)
    assert out.tolist() == [0, 1, 2, 3, 1, 3]


_COUNT_RULES = {
    "four": decision_rule(REF_VARIANCES, 3),
    "four-merged-01-23": decision_rule(HypothesisVariances(0.5, 0.5, 1.0, 1.0), 2),
    "four-merged-12": decision_rule(HypothesisVariances(0.5, 0.8, 0.8, 1.5), 1),
    "two-bayes": two_level_rule(REF_VARIANCES, 2, DetectorMode.two_level_bayes()),
    "two-cfar": two_level_rule(REF_VARIANCES, 2, DetectorMode.two_level_cfar(0.05)),
    "two-cfar-always-busy": two_level_rule(REF_VARIANCES, 1, DetectorMode.two_level_cfar(1.0)),
}


@pytest.mark.parametrize("name", list(_COUNT_RULES))
def test_decision_counts_equal_classify_bincount(name):
    """Counting per boundary gives the classifier's tally, ties to the
    upper region included."""
    rule = _COUNT_RULES[name]
    b = np.asarray(rule.boundaries)
    top = 3.0 * b.max() if b.size else 3.0
    rng = np.random.default_rng(21)
    z = np.concatenate([
        [0.0, 0.0], b, b, np.nextafter(b, 0.0), np.nextafter(b, np.inf),
        rng.uniform(0.0, top, 1001),
    ])
    rng.shuffle(z)
    for batch in (z, np.zeros(3), np.empty(0), *(np.array([t]) for t in b)):
        want = np.bincount(classify_batch(batch, rule), minlength=4)
        got = decision_counts(batch, rule)
        assert got.dtype == np.int64
        assert np.array_equal(got, want), (batch, got, want)


def test_busy_decision():
    # Busy means the decided state includes the subcarrier's own signal.
    assert [h.own_active for h in Hypothesis] == [False, False, True, True]
    assert [h.mirror_active for h in Hypothesis] == [False, True, False, True]


def test_two_level_bayes_rule():
    v = HypothesisVariances(0.5, 0.515811388300841897, 1.0, 1.0158113883008419)
    r = two_level_rule(v, 1, DetectorMode.two_level_bayes())
    assert r.boundaries == pytest.approx((2.0 * math.log(2.0),), rel=1e-14)
    assert r.levels == (Hypothesis.H0, Hypothesis.H2)


def test_two_level_cfar_rule():
    v = REF_VARIANCES
    r = two_level_rule(v, 1, DetectorMode.two_level_cfar(0.1))
    # Exp(scale 1) tail: t = -ln(0.1)
    assert r.boundaries == pytest.approx((math.log(10.0),), rel=1e-12)
    assert gamma_sf(1, 2.0 * v.sigma0_sq, r.boundaries[0]) == pytest.approx(0.1)
    # Design level 1 admits everything: a single always-busy region.
    r1 = two_level_rule(v, 1, DetectorMode.two_level_cfar(1.0))
    assert r1.boundaries == ()
    assert r1.levels == (Hypothesis.H2,)
    assert classify_batch(np.zeros(1), r1).tolist() == [Hypothesis.H2]


def test_two_level_rule_rejects_four():
    with pytest.raises(ValueError):
        two_level_rule(REF_VARIANCES, 1, DetectorMode.four_level())


def test_detector_mode_validation():
    with pytest.raises(ValueError):
        DetectorMode("three")
    with pytest.raises(ValueError):
        DetectorMode("two-cfar")  # needs target_pfa
    with pytest.raises(ValueError):
        DetectorMode("two-cfar", target_pfa=0.0)
    with pytest.raises(ValueError):
        DetectorMode("four", target_pfa=0.1)
    assert DetectorMode.two_level_cfar(1.0).target_pfa == 1.0


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


def test_decision_rule_validation():
    with pytest.raises(ValueError):
        DecisionRule((2.0, 1.0), (Hypothesis.H0, Hypothesis.H1, Hypothesis.H2),
                     (), 1)
    with pytest.raises(ValueError):
        DecisionRule((1.0,), (Hypothesis.H0,), (), 1)
    with pytest.raises(ValueError):
        DecisionRule((1.0,), (Hypothesis.H0, Hypothesis.H0), (), 1)
    r = DecisionRule((1.0,), (Hypothesis.H0, Hypothesis.H2), (), 1)
    with pytest.raises(ValueError):
        _ = r.s12  # only defined for the full four-level rule


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
