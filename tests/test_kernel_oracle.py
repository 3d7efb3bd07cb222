"""The trial engine and the variance estimator against the sample-level
reference in ``sample_oracle``.

The trial engine draws each statistic from its exact law, so it must
agree with the reference in law: ``test_engine_matches_sample_oracle``
compares their decision counts per model and per true hypothesis, with
H3 drawn from its packet-count table (at two packets, at one and at four)
and packet by packet.
False-fail rate: each of the 8 rows of one draw gets a two-sample Pearson
chi-square test at level ALPHA / 8 (Bonferroni), so the gate fails correct
code with probability at most ALPHA = 1e-6 per draw, under the chi-square
approximation with at least 5 expected counts per pooled cell and sample.  Power: the same
gate rejects an engine that draws H3 from the Gamma law of its mean, the
closed forms' stand-in, at tx IRR -5 dB
(``test_gate_rejects_the_gamma_stand_in_for_h3``).

``estimate_component_variances`` runs the sample-level model through the
reference's own ``receive`` and ``receive_joint``, so the remaining tests
hold it to the reference's exact output on the same substreams, bit for
bit, and pin its bytes, which a change to those shared functions would
move on both sides at once.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

import iqsense.montecarlo as montecarlo
import sample_oracle
from iqsense.detection import classify_batch, h3_packet_count_law, statistic_means
from iqsense.montecarlo import (
    _ESTIMATOR_STREAM,
    SeedSpec,
    SensingScenario,
    estimate_component_variances,
    run_trials,
    scenario_rule,
    substream,
)
from iqsense.signal_model import IqMismatch, draw_noise, draw_rayleigh
from test_frame_oracle import MODELS, gate_scenario, two_sample_pvalue

ALPHA = 1e-6
TRIALS = 200_000


def _scenario(model: str, n_packets: int) -> SensingScenario:
    return replace(gate_scenario(model), n_packets=n_packets)


@pytest.fixture(scope="module")
def oracle_tallies():
    """(4, 4) decision counts of the sample-level reference per model, at
    the gate scenario's two packets, at one and at four."""
    out = {}
    for model in MODELS:
        for n_packets in (2, 1, 4):
            sc = _scenario(model, n_packets)
            tx_c, rx_c = sc.coefficients
            rule = scenario_rule(sc)
            out[model, n_packets] = np.array([
                np.bincount(classify_batch(sample_oracle.statistic_batch(
                    sc, tx_c, rx_c, hyp, TRIALS, substream(11, 0, hyp)), rule), minlength=4)
                for hyp in range(4)
            ])
    return out


def _gate_pvalues(model, oracle_tallies, n_packets=2) -> list[float]:
    tally = run_trials(_scenario(model, n_packets), TRIALS, SeedSpec(12))
    oracle = oracle_tallies[model, n_packets]
    return [two_sample_pvalue(tally.counts[h], oracle[h]) for h in range(4)]


# H3 draws from the packet-count table, at two packets, at one and at
# four, or packet by packet as it does past the table's length cap.
_ENGINE_CASES = [
    pytest.param(model, draw, n, id=model + suffix)
    for draw, n, suffix in (
        ("table", 2, ""), ("per-packet", 2, "-per-packet"), ("table", 1, "-n1"),
        ("table", 4, "-n4"),
    )
    for model in MODELS
]


@pytest.mark.parametrize("model, h3_draw, n_packets", _ENGINE_CASES, indirect=["h3_draw"])
def test_engine_matches_sample_oracle(model, h3_draw, n_packets, oracle_tallies):
    sc = _scenario(model, n_packets)
    table = h3_packet_count_law(sc.pair, *sc.coefficients, sc.n_packets)
    assert (table is None) == (h3_draw == "per-packet")
    p = _gate_pvalues(model, oracle_tallies, n_packets)
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


def _estimator_scenario(joint: bool) -> SensingScenario:
    m = IqMismatch(0.25, 0.1)
    return SensingScenario(
        6.0, -1.0, tx_mismatch=m, rx_mismatch=m if joint else None,
        channel_var=0.8, channel_var_mirror=1.7,
    )


# estimate_component_variances(scenario, 20001, 17, (2, 9)) as float.hex.
# The estimator and the reference share receive and receive_joint, so the
# equality below cannot see a change to them; these bytes can.
_ESTIMATOR_GOLDEN = {
    "tx-only": ("0x1.fb0e965e45bbap-2", "0x1.0e8f3eaa773bdp-1",
                "0x1.0931b110627a7p+1", "0x1.0ebdc5322eb5ap+1"),
    "joint": ("0x1.0e523c24f7580p-1", "0x1.359d19466b9d7p-1",
              "0x1.0dde8456a3e62p+1", "0x1.1918c28c39c0dp+1"),
}


@pytest.mark.parametrize("model", list(_ESTIMATOR_GOLDEN))
def test_component_variance_estimates_are_pinned(model):
    got = estimate_component_variances(_estimator_scenario(model == "joint"), 20001, 17, (2, 9))
    assert tuple(v.hex() for v in got) == _ESTIMATOR_GOLDEN[model]


# Both models, each also with a silent side and at the extreme PSK orders.
_ORACLE_CASES = {
    f"{variant}{model}": replace(_estimator_scenario(model == "joint"), **changes)
    for variant, changes in (
        ("", {}),
        ("silent-k-", {"snr1_db": -math.inf}),
        ("silent-mirror-", {"snr2_db": -math.inf}),
        ("psk2-", {"psk_order": 2}),
        ("psk1024-", {"psk_order": 1024}),
    )
    for model in ("tx-only", "joint")
}


# The sample counts sit on either side of 16,384 complex samples (256 KiB),
# from which numpy computes ``scalar * temporary`` as ``temporary *= scalar``:
# an estimator whose own arithmetic rounded differently there, under fused
# multiply-add, would fail at one of them.
@pytest.mark.parametrize("samples", [4097, 20001])
@pytest.mark.parametrize("case", list(_ORACLE_CASES))
def test_component_variance_estimates_equal_sample_oracle(case, samples):
    sc = _ORACLE_CASES[case]
    seed, path = 17, (2, 9)
    got = estimate_component_variances(sc, samples, seed, path)
    want = sample_oracle.component_variances(
        sc, samples, lambda hyp: substream(seed, _ESTIMATOR_STREAM, *path, hyp)
    )
    assert got == want


@pytest.mark.parametrize("size", [1, 7, (3, 5), (1024, 1)],
                         ids=["1", "7", "size3", "size4"])
@pytest.mark.parametrize("draw", [draw_noise, draw_rayleigh])
def test_gaussian_draws_equal_two_normal_calls(draw, size):
    a, b = np.random.default_rng(9), np.random.default_rng(9)
    got = draw(1.7, a, size)
    want = sample_oracle.circular_gaussian(1.7, b, size)
    assert type(got) is type(want)
    assert np.array_equal(got.view(np.float64), want.view(np.float64))
    # Both left the generator at the same point of its stream.
    assert a.standard_normal() == b.standard_normal()
