"""The frame's direct pair draw against the sample-level frame oracle.

``simulate_frame`` draws each mirror pair from its exact per-phase law;
``sample_oracle.simulate_frame`` draws every symbol, channel and noise
sample.  The two must agree in law.  The gate compares them per model
and per truth pair (k, -k) on the counts of the decision pair
(d_k, d_-k), which carries both the per-side confusion and the coupling
of the two sides through the shared symbol phase.

False-fail rate: each truth pair gets a two-sample Pearson chi-square
test at level ALPHA / 4 (Bonferroni), so one gate fails correct code
with probability at most ALPHA = 1e-6, under the chi-square
approximation with at least MIN_EXPECTED expected counts per pooled
cell and sample.  Power: at tx IRR -5 dB and 5/5 dB the gate rejects a
draw that gives the two sides independent phases, and one that drops
the cross term, for both models (``test_gate_rejects_known_defects``).
"""

import numpy as np
import pytest
from scipy.stats import chi2

import sample_oracle
from iqsense.detection import classify_batch, pair_table
from iqsense.frame import OccupancyMap, simulate_frame
from iqsense.montecarlo import SeedSpec, SensingScenario, scenario_rule
from iqsense.signal_model import IqMismatch, irr_to_mismatch, receive_joint
from test_frame import _MAPS, frame_digest, frame_scenario

ALPHA = 1e-6
MIN_EXPECTED = 5.0
FRAMES = 50

# 1024 pairs, 256 in each truth state t = 2*own_k + own_-k of k = 1..1024.
_HALF = 1024
_STATES = np.arange(_HALF) % 4
_K = np.arange(1, _HALF + 1)
_OCCUPANCY = OccupancyMap(
    2 * _HALF,
    frozenset([int(k) for k in _K[_STATES & 2 > 0]] + [-int(k) for k in _K[_STATES & 1 > 0]]),
)

MODELS = ("tx-only", "joint")


def gate_scenario(model: str) -> SensingScenario:
    """Tx IRR -5 dB, 5/5 dB, two packets and unequal channel variances:
    a strong cross term that reaches both sides' statistics."""
    return SensingScenario(
        5.0, 5.0,
        tx_mismatch=irr_to_mismatch(-5.0),
        rx_mismatch=IqMismatch(0.3, 0.2) if model == "joint" else None,
        n_packets=2,
        channel_var_mirror=1.5,
    )


def pair_counts(sampler, sc, master_seed: int) -> np.ndarray:
    """(4, 16) counts of ``4*d_k + d_-k`` per truth state over FRAMES frames."""
    counts = np.zeros((4, 16), dtype=np.int64)
    for i in range(FRAMES):
        res = sampler(_OCCUPANCY, sc, SeedSpec(master_seed, i))
        assert np.array_equal(res.truths[_HALF:], _STATES)
        d_k = np.array(res.decisions[_HALF:], dtype=np.int64)
        d_mk = np.array(res.decisions[_HALF - 1::-1], dtype=np.int64)
        counts += np.bincount(16 * _STATES + 4 * d_k + d_mk, minlength=64).reshape(4, 16)
    return counts


def defective_pair_counts(sc, seed, *, shared_phase=True, cross_term=True) -> np.ndarray:
    """:func:`pair_counts` of a direct pair draw written with complex
    samples and ``receive_joint``, optionally with a known defect: each
    side draws its own phase, or the cross term is averaged away."""
    table = pair_table(sc.pair, sc.coefficients[0])
    if not cross_term:
        table = np.broadcast_to(table.mean(axis=1, keepdims=True), table.shape)
    m = sc.pair.psk_order
    rng = np.random.default_rng(seed)
    states = np.tile(_STATES, FRAMES)
    size = (states.size, sc.n_packets)
    u_k = rng.integers(0, m, size)
    u_mk = u_k if shared_phase else rng.integers(0, m, size)
    rows = states[:, None]
    y = [
        np.sqrt(v / 2) * (rng.standard_normal(size) + 1j * rng.standard_normal(size))
        for v in (table[rows, u_k, 0], table[rows, u_mk, 1])
    ]
    rx = sc.coefficients[1]
    r = y if rx is None else [receive_joint(y[0], y[1], rx), receive_joint(y[1], y[0], rx)]
    rule = scenario_rule(sc)
    d_k, d_mk = (classify_batch(np.mean(np.abs(x) ** 2, axis=1), rule) for x in r)
    return np.bincount(16 * states + 4 * d_k + d_mk, minlength=64).reshape(4, 16)


def two_sample_pvalue(a, b) -> float:
    """Pearson chi-square p-value that two count vectors share one law.

    Cells are pooled in order until each pooled cell expects at least
    MIN_EXPECTED counts in each sample under the pooled law.
    """
    na, nb = int(a.sum()), int(b.sum())
    bins: list[list[int]] = []
    oa = ob = 0
    for x, y in zip(a.tolist(), b.tolist()):
        oa += x
        ob += y
        if (oa + ob) * min(na, nb) / (na + nb) >= MIN_EXPECTED:
            bins.append([oa, ob])
            oa = ob = 0
    if bins:
        bins[-1][0] += oa
        bins[-1][1] += ob
    if len(bins) < 2:
        return 1.0
    obs = np.array(bins, dtype=float)
    expected = obs.sum(axis=1, keepdims=True) * np.array([na, nb]) / (na + nb)
    stat = float(((obs - expected) ** 2 / expected).sum())
    return float(chi2.sf(stat, len(bins) - 1))


def gate_pvalues(a, b) -> list[float]:
    return [two_sample_pvalue(a[t], b[t]) for t in range(4)]


def gate_passes(a, b) -> bool:
    return min(gate_pvalues(a, b)) >= ALPHA / 4


@pytest.fixture(scope="module")
def oracle_counts():
    return {m: pair_counts(sample_oracle.simulate_frame, gate_scenario(m), 2) for m in MODELS}


@pytest.mark.parametrize("model", MODELS)
def test_frame_matches_sample_oracle(model, oracle_counts):
    got = pair_counts(simulate_frame, gate_scenario(model), 1)
    p = gate_pvalues(got, oracle_counts[model])
    assert min(p) >= ALPHA / 4, f"per-truth p-values {p}"


# defect: (seed, keyword arguments of defective_pair_counts)
_DEFECTS = {
    "none": (3, {}),
    "independent-phases": (4, {"shared_phase": False}),
    "no-cross-term": (5, {"cross_term": False}),
}


@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize("defect", _DEFECTS)
def test_gate_rejects_known_defects(model, defect, oracle_counts):
    """A correct complex-sample draw passes; each defect is rejected."""
    seed, kw = _DEFECTS[defect]
    got = defective_pair_counts(gate_scenario(model), seed, **kw)
    assert gate_passes(got, oracle_counts[model]) == (defect == "none")


def test_two_sample_pvalue_pools_sparse_cells():
    assert two_sample_pvalue(np.array([50, 50, 0, 0]), np.array([50, 50, 0, 0])) == 1.0
    # One pooled cell left: nothing to compare.
    assert two_sample_pvalue(np.array([3, 1, 0, 0]), np.array([0, 1, 3, 0])) == 1.0
    assert two_sample_pvalue(np.array([100, 0]), np.array([0, 100])) < 1e-40


# The oracle is the frame's former sample-level body: it reproduces the
# bytes that body gave in test_frame's byte goldens.
_ORACLE_FRAME_SHA256 = {
    "tx-only-n1": "257fb79ad56b2dd384c4b0b00e9bfc0512b90d0c1d8737ccf03c64731308d3b1",
    "joint-n4": "699def21bd8d01357d22c33b806944a422ee8adfd53d428d3696e847d11f0b01",
}


@pytest.mark.parametrize("case", sorted(_ORACLE_FRAME_SHA256))
def test_oracle_frame_bytes(case):
    rx = irr_to_mismatch(-20.0) if case.startswith("joint") else None
    n_packets = 4 if case.startswith("joint") else 1
    res = sample_oracle.simulate_frame(
        _MAPS["random-2048"], frame_scenario(rx_mismatch=rx, n_packets=n_packets), 2026
    )
    assert frame_digest(res) == _ORACLE_FRAME_SHA256[case]
