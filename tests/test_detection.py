"""Decision rule construction, thresholds and closed-form probabilities."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from iqsense.detection import (
    DecisionRule,
    DetectorMode,
    Hypothesis,
    HypothesisVariances,
    analytic_detection,
    analytic_false_alarm,
    classify_batch,
    conditional_probabilities,
    decision_counts,
    decision_rule,
    detection_paper_literal,
    false_alarm_paper_literal,
    hypothesis_variances,
    pairwise_threshold,
    pairwise_threshold_paper,
    thresholds_paper_literal,
    two_level_rule,
)
from iqsense.numerics import gamma_pdf, gamma_sf
from iqsense.signal_model import SubcarrierPairConfig, irr_to_mismatch

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
    v = hypothesis_variances(cfg, irr_to_mismatch(-15.0))
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
    v = hypothesis_variances(cfg, irr_to_mismatch(None))
    r = decision_rule(v, 1)
    assert r.boundaries == pytest.approx((2.0 * math.log(2.0),), rel=1e-14)
    assert r.levels == (Hypothesis.H0, Hypothesis.H2)
    assert r.merged == ((Hypothesis.H0, Hypothesis.H1),
                        (Hypothesis.H2, Hypothesis.H3))


def test_merge_silent_mirror():
    # P_mk = 0 makes H0 == H1 and H2 == H3 even with a dirty front end.
    cfg = SubcarrierPairConfig(power_k=1.0, power_mk=0.0)
    v = hypothesis_variances(cfg, irr_to_mismatch(-15.0))
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
    """Fixing the symbol pair adds the documented H3 cross term."""
    cfg = SubcarrierPairConfig(power_k=1.0, power_mk=1.0)
    mm = irr_to_mismatch(-10.0)
    from iqsense.signal_model import mismatch_coefficients

    c = mismatch_coefficients(mm)
    psk16 = np.exp(2j * np.pi * np.arange(16) / 16)
    s_k, s_mk = psk16[1], psk16[2]  # positive cross term
    v = hypothesis_variances(cfg, mm, symbols=(s_k, s_mk))
    cross = 2.0 * (c.alpha * np.conjugate(c.beta) * s_k * s_mk).real
    assert cross > 0
    base = hypothesis_variances(cfg, mm)
    assert v.sigma3_sq == pytest.approx(base.sigma3_sq + 0.5 * cross, rel=1e-12)
    assert v.sigma0_sq == base.sigma0_sq
    # A destructive pair can push sigma3^2 below sigma2^2; the ordered
    # container refuses to represent that state.
    with pytest.raises(ValueError):
        hypothesis_variances(cfg, mm, symbols=(psk16[1], psk16[5]))
