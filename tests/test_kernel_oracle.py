"""The trial engine and the variance estimator against the sample-level
reference in ``sample_oracle``.

The trial engine draws each statistic from its exact law, so it must
agree with the reference in law: ``test_engine_matches_sample_oracle``
compares their decision counts per model and per true hypothesis.
False-fail rate: each of the 8 rows gets a two-sample Pearson chi-square
test at level ALPHA / 8 (Bonferroni), so the gate fails correct code with
probability at most ALPHA = 1e-6, under the chi-square approximation with
at least 5 expected counts per pooled cell and sample.  Power: the same
gate rejects an engine that draws H3 from the Gamma law of its mean, the
closed forms' stand-in, at tx IRR -5 dB
(``test_gate_rejects_the_gamma_stand_in_for_h3``).

The sample-level kernel behind ``estimate_component_variances`` folds
the symbols into one table lookup; the remaining tests hold it to the
reference's exact output on the same substreams, bit for bit.
"""

import numpy as np
import pytest

import iqsense.montecarlo as montecarlo
import sample_oracle
from iqsense.detection import decision_counts, statistic_means
from iqsense.montecarlo import (
    _ESTIMATOR_STREAM,
    SeedSpec,
    SensingScenario,
    _statistic_batch,
    estimate_component_variances,
    run_trials,
    scenario_rule,
    substream,
)
from iqsense.signal_model import IqMismatch, draw_noise, draw_rayleigh
from test_frame_oracle import MODELS, gate_scenario, two_sample_pvalue

ALPHA = 1e-6
TRIALS = 200_000


@pytest.fixture(scope="module")
def oracle_tallies():
    """(4, 4) decision counts of the sample-level reference per model."""
    out = {}
    for model in MODELS:
        sc = gate_scenario(model)
        tx_c, rx_c = sc.coefficients
        rule = scenario_rule(sc)
        out[model] = np.array([
            decision_counts(sample_oracle.statistic_batch(
                sc, tx_c, rx_c, hyp, TRIALS, substream(11, 0, hyp)), rule)
            for hyp in range(4)
        ])
    return out


def _gate_pvalues(model, oracle_tallies) -> list[float]:
    tally = run_trials(gate_scenario(model), TRIALS, SeedSpec(12))
    return [two_sample_pvalue(tally.counts[h], oracle_tallies[model][h]) for h in range(4)]


@pytest.mark.parametrize("model", MODELS)
def test_engine_matches_sample_oracle(model, oracle_tallies):
    p = _gate_pvalues(model, oracle_tallies)
    assert min(p) >= ALPHA / 8, f"per-hypothesis p-values {p}"


@pytest.mark.parametrize("model", MODELS)
def test_gate_rejects_the_gamma_stand_in_for_h3(model, oracle_tallies, monkeypatch):
    """An engine whose H3 row draws Gamma(n, m/n) at the phase mean m fails
    the H3 row alone."""
    def gamma_h3(*args):
        means = statistic_means(*args).copy()
        means[3] = means[3].mean()
        return means

    monkeypatch.setattr(montecarlo, "statistic_means", gamma_h3)
    p = _gate_pvalues(model, oracle_tallies)
    assert [x >= ALPHA / 8 for x in p] == [True, True, True, False], p


# From 256 KiB, 16384 complex samples, numpy computes ``scalar * temporary``
# as ``temporary *= scalar``, which under fused multiply-add can change the
# last bit of a product written scalar-first.  Cases sit on both sides, so a
# sample-model product whose bits depend on array size fails here.
_ELISION_SAMPLES = 16384


def _odd_count(rng, n_packets: int, large: bool) -> int:
    if not large:
        return 2 * int(rng.integers(0, 500)) + 1
    base = -(-_ELISION_SAMPLES // n_packets)
    return base + 2 * int(rng.integers(0, 100)) + (1 - base % 2)


def _cases():
    """(scenario, count) pairs over both models, n_packets 1-8, psk_order
    2-64, unequal channel variances, silent sides and odd counts."""
    rng = np.random.default_rng(61)
    cases = []
    for i in range(24):
        joint = i % 2 == 1
        j = i // 2
        n_packets = 1 + j % 8
        silent = (None, "k", "mk")[i % 3]
        snr1 = float("-inf") if silent == "k" else float(rng.uniform(-5.0, 15.0))
        snr2 = float("-inf") if silent == "mk" else float(rng.uniform(-20.0, 10.0))
        sc = SensingScenario(
            snr1, snr2,
            tx_mismatch=IqMismatch(rng.uniform(-0.4, 0.4), rng.uniform(-0.4, 0.4)),
            rx_mismatch=(
                IqMismatch(rng.uniform(-0.4, 0.4), rng.uniform(-0.4, 0.4)) if joint else None
            ),
            n_packets=n_packets,
            psk_order=2 ** (1 + j % 6),
            noise_var=float(rng.uniform(0.5, 2.0)),
            channel_var=float(rng.uniform(0.3, 3.0)),
            channel_var_mirror=float(rng.uniform(0.3, 3.0)),
        )
        cases.append((sc, _odd_count(rng, n_packets, large=i % 4 >= 2)))
    # Right at the switch: one sample short of it, and on it.
    for joint in (False, True):
        m = IqMismatch(0.3, -0.2)
        sc = SensingScenario(
            4.0, 1.0, tx_mismatch=m, rx_mismatch=m if joint else None,
            n_packets=1, channel_var_mirror=2.5,
        )
        cases += [(sc, _ELISION_SAMPLES - 1), (sc, _ELISION_SAMPLES)]
    return cases


CASES = _cases()


def test_cases_cover_the_grid():
    for joint in (False, True):
        sub = [(sc, c) for sc, c in CASES if sc.is_joint == joint]
        assert {sc.n_packets for sc, _ in sub} == set(range(1, 9))
        assert {sc.pair.psk_order for sc, _ in sub} == {2, 4, 8, 16, 32, 64}
        assert any(sc.pair.power_k == 0.0 for sc, _ in sub)
        assert any(sc.pair.power_mk == 0.0 for sc, _ in sub)
        assert any(c % 2 == 1 for _, c in sub)
        sizes = [c * sc.n_packets for sc, c in sub]
        assert min(sizes) < _ELISION_SAMPLES <= max(sizes)


@pytest.mark.parametrize("case", range(len(CASES)))
def test_statistic_equals_sample_oracle(case):
    sc, count = CASES[case]
    tx_c, rx_c = sc.coefficients
    for hyp in range(4):
        got = _statistic_batch(sc, hyp, count, substream(5, 0, case, hyp))
        want = sample_oracle.statistic_batch(
            sc, tx_c, rx_c, hyp, count, substream(5, 0, case, hyp)
        )
        assert got.shape == (count,)
        assert np.array_equal(got, want), f"H{hyp}: {np.count_nonzero(got != want)} differ"


@pytest.mark.parametrize("samples", [4097, 20001])
@pytest.mark.parametrize("joint", [False, True], ids=["tx-only", "joint"])
def test_component_variance_estimates_equal_sample_oracle(joint, samples):
    m = IqMismatch(0.25, 0.1)
    sc = SensingScenario(
        6.0, -1.0, tx_mismatch=m, rx_mismatch=m if joint else None,
        channel_var=0.8, channel_var_mirror=1.7,
    )
    seed, path = 17, (2, 9)
    got = estimate_component_variances(sc, samples, seed, path)
    want = sample_oracle.component_variances(
        sc, samples, lambda hyp: substream(seed, _ESTIMATOR_STREAM, *path, hyp)
    )
    assert got == want


@pytest.mark.parametrize("size", [None, 1, 7, (3, 5), (1024, 1)])
@pytest.mark.parametrize("draw", [draw_noise, draw_rayleigh])
def test_gaussian_draws_equal_two_normal_calls(draw, size):
    a, b = np.random.default_rng(9), np.random.default_rng(9)
    got = draw(1.7, a, size)
    want = sample_oracle.circular_gaussian(1.7, b, size)
    assert type(got) is type(want)
    assert np.array_equal(np.atleast_1d(got).view(np.float64), np.atleast_1d(want).view(np.float64))
    # Both left the generator at the same point of its stream.
    assert a.standard_normal() == b.standard_normal()
