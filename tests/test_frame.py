"""Whole-frame sensing over an occupancy map."""

import hashlib

import numpy as np
import pytest

import iqsense.montecarlo as montecarlo
from iqsense.detection import DetectorMode, Hypothesis
from iqsense.frame import OccupancyMap, simulate_frame
from iqsense.montecarlo import SensingScenario, rule_for_mode, scenario_rule, scenario_variances
from iqsense.signal_model import irr_to_mismatch


def frame_scenario(snr_db=10.0, n_packets=8, **kw):
    kw.setdefault("tx_mismatch", irr_to_mismatch(-15.0))
    return SensingScenario.from_snr(snr_db, snr_db, n_packets=n_packets, **kw)


def test_occupancy_validation():
    with pytest.raises(ValueError):
        OccupancyMap(7, frozenset())
    with pytest.raises(ValueError):
        OccupancyMap(0, frozenset())
    with pytest.raises(ValueError):
        OccupancyMap(8, frozenset({0}))  # DC bin
    with pytest.raises(ValueError):
        OccupancyMap(8, frozenset({5}))  # outside +-4
    with pytest.raises(ValueError):
        OccupancyMap(8, frozenset({True}))
    m = OccupancyMap(8, {1, -4})
    assert m.active == frozenset({1, -4})


@pytest.mark.parametrize(
    "active, message",
    [
        ({1, 2.0}, "subcarrier indices must be integers, got 2.0"),
        ({-1, True}, "subcarrier indices must be integers, got True"),
        ({3, 0, -2}, "0 is the DC bin, not a data subcarrier"),
        ({1, 5}, r"subcarrier index 5 outside \[-4, 4\]"),
        ({-5, 4}, r"subcarrier index -5 outside \[-4, 4\]"),
    ],
)
def test_occupancy_error_messages(active, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        OccupancyMap(8, frozenset(active))


def test_indices_skip_dc():
    m = OccupancyMap(8, frozenset())
    assert m.indices == (-4, -3, -2, -1, 1, 2, 3, 4)


def test_truth_mapping():
    m = OccupancyMap(8, {1, 2, -2})
    assert m.truth(1) == Hypothesis.H2   # own only
    assert m.truth(-1) == Hypothesis.H1  # mirror only
    assert m.truth(2) == Hypothesis.H3   # both
    assert m.truth(-2) == Hypothesis.H3
    assert m.truth(3) == Hypothesis.H0   # neither


def test_frame_determinism():
    occ = OccupancyMap(32, {1, 5, -7})
    sc = frame_scenario()
    a = simulate_frame(occ, sc, 99)
    b = simulate_frame(occ, sc, 99)
    c = simulate_frame(occ, sc, 100)
    assert a.decisions == b.decisions
    assert a.decisions != c.decisions
    assert a == b
    assert a != c


def test_frame_rejects_rule_for_other_packet_count():
    occ = OccupancyMap(8, {1})
    rule = scenario_rule(frame_scenario(n_packets=4))
    with pytest.raises(
        ValueError, match="^rule was built for n_packets=4, but the scenario has n_packets=8$"
    ):
        simulate_frame(occ, frame_scenario(n_packets=8), 1, rule=rule)


def test_frame_builds_rule_once_per_scenario(monkeypatch):
    calls = []

    def counting_rule(*args):
        calls.append(args)
        return real_rule(*args)

    real_rule = montecarlo.decision_rule
    monkeypatch.setattr(montecarlo, "decision_rule", counting_rule)
    scenario_rule.cache_clear()
    occ = OccupancyMap(16, {1, -2, 3})
    sc = frame_scenario()
    rules = {simulate_frame(occ, sc, seed).rule for seed in range(50)}
    assert len(calls) == 1
    assert rules == {real_rule(scenario_variances(sc), sc.n_packets)}
    # Scenarios that differ in one field each get their own rule.
    variants = [
        sc,
        sc.with_irr(-20.0),
        sc.with_mode(DetectorMode.two_level_bayes()),
        sc.with_mode(DetectorMode.two_level_cfar(0.1)),
        frame_scenario(n_packets=4),
    ]
    got = [simulate_frame(occ, v, 1).rule for v in variants]
    want = [rule_for_mode(scenario_variances(v), v.n_packets, v.mode) for v in variants]
    assert got == want
    assert len(set(got)) == len(variants)


def test_frame_requires_uniform_power():
    occ = OccupancyMap(8, frozenset())
    sc = SensingScenario.from_snr(0.0, -10.0, tx_mismatch=irr_to_mismatch(-15.0))
    with pytest.raises(ValueError):
        simulate_frame(occ, sc, 1)


def _random_map(n, seed):
    rng = np.random.default_rng(seed)
    half = n // 2
    ks = np.concatenate([-np.arange(1, half + 1), np.arange(1, half + 1)])
    return OccupancyMap(n, frozenset(int(k) for k in ks[rng.random(n) < 0.5]))


_MAPS = {
    "empty": OccupancyMap(64, frozenset()),
    "full": OccupancyMap(64, frozenset(range(-32, 0)) | frozenset(range(1, 33))),
    "two-subcarriers": OccupancyMap(2, {1}),
    "sparse-64": OccupancyMap(64, {1, 2, 3, -3, -9, 20}),
    "random-2048": _random_map(2048, 5),
}


@pytest.mark.parametrize(
    "name, scenario_kw",
    [
        pytest.param("empty", {}, id="empty"),
        pytest.param("full", {}, id="full"),
        pytest.param("two-subcarriers", {"n_packets": 3}, id="two-subcarriers-n3"),
        pytest.param("sparse-64", {}, id="sparse-64"),
        pytest.param("sparse-64", {"n_packets": 1}, id="sparse-64-n1"),
        pytest.param(
            "sparse-64", {"rx_mismatch": irr_to_mismatch(-15.0), "n_packets": 3},
            id="sparse-64-joint-n3",
        ),
        pytest.param("random-2048", {"n_packets": 1}, id="random-2048-n1"),
        pytest.param(
            "random-2048", {"rx_mismatch": irr_to_mismatch(-20.0), "n_packets": 3},
            id="random-2048-joint-n3",
        ),
    ],
)
def test_frame_counts_are_consistent(name, scenario_kw):
    occ = _MAPS[name]
    res = simulate_frame(occ, frame_scenario(**scenario_kw), 7)
    n = occ.n_subcarriers
    assert res.subcarriers == occ.indices
    assert res.truths == tuple(occ.truth(k) for k in occ.indices)
    assert len(res.decisions) == n
    assert all(type(h) is Hypothesis for h in res.truths + res.decisions)
    for counter in (res.vacant_mirror_flags, res.unflagged_mirror_risk, res.missed_own):
        assert type(counter) is int
    assert res.confusion.shape == (4, 4)
    assert res.confusion.sum() == n
    # Each cell counts the (truth, decision) pairs it names.
    want = np.zeros((4, 4), dtype=int)
    for t, d in zip(res.truths, res.decisions):
        want[int(t), int(d)] += 1
    assert res.confusion.tolist() == want.tolist()
    # Hazard counters agree with their definitions.
    assert res.vacant_mirror_flags == sum(
        1 for d in res.decisions if d == Hypothesis.H1
    )
    assert res.unflagged_mirror_risk == sum(
        1 for t, d in zip(res.truths, res.decisions)
        if t == Hypothesis.H1 and d == Hypothesis.H0
    )
    assert res.missed_own == sum(
        1 for t, d in zip(res.truths, res.decisions)
        if t.own_active and not d.own_active
    )


# Decisions of one seeded 16-subcarrier frame, in index order -8..-1, 1..8.
# Misaligning the two sides (a reversed or shifted negative half, swapped
# halves) keeps every count consistent but changes this sequence.
_GOLDEN_DECISIONS = {
    "tx-only": "H1 H0 H2 H2 H0 H1 H1 H0 H0 H1 H1 H0 H0 H2 H1 H1",
    "joint": "H1 H0 H1 H2 H0 H1 H1 H0 H0 H1 H1 H0 H1 H2 H1 H0",
}


@pytest.mark.parametrize("model", sorted(_GOLDEN_DECISIONS))
def test_frame_decisions_golden(model):
    occ = OccupancyMap(16, {1, 2, -3, -5, 6, -6, 8})
    rx = irr_to_mismatch(-15.0) if model == "joint" else None
    sc = frame_scenario(snr_db=5.0, n_packets=2, rx_mismatch=rx)
    res = simulate_frame(occ, sc, 2024)
    assert " ".join(d.name for d in res.decisions) == _GOLDEN_DECISIONS[model]
    assert " ".join(t.name for t in res.truths) == (
        "H1 H0 H3 H2 H0 H2 H1 H1 H2 H2 H1 H0 H1 H3 H0 H2"
    )


# sha256 of a seeded 2048-subcarrier frame: truths and decisions as int8,
# the int64 confusion matrix, then the three hazard counters as int64.
_GOLDEN_FRAME_SHA256 = {
    "tx-only-n1": "6625324c56ad48071609290be100772142b5323506fb8f79996bdd42b5df8ad9",
    "joint-n4": "286ae924bb2e48da11ea32d66500c7818abe68d5f0bab210d6d6ee81a9b384c8",
}


@pytest.mark.parametrize("case", sorted(_GOLDEN_FRAME_SHA256))
def test_frame_bytes_golden(case):
    rx = irr_to_mismatch(-20.0) if case.startswith("joint") else None
    n_packets = 4 if case.startswith("joint") else 1
    res = simulate_frame(
        _MAPS["random-2048"], frame_scenario(rx_mismatch=rx, n_packets=n_packets), 2026
    )
    assert res.confusion.dtype == np.int64
    counters = [res.vacant_mirror_flags, res.unflagged_mirror_risk, res.missed_own]
    h = hashlib.sha256()
    h.update(np.array(res.truths, dtype=np.int8).tobytes())
    h.update(np.array(res.decisions, dtype=np.int8).tobytes())
    h.update(res.confusion.tobytes())
    h.update(np.array(counters, dtype=np.int64).tobytes())
    assert h.hexdigest() == _GOLDEN_FRAME_SHA256[case]


def test_quiet_frame_stays_idle():
    """With no occupants and long packets, essentially no subcarrier is
    declared busy (H0/H1 confusion is expected: their variances sit
    close together at this operating point)."""
    occ = OccupancyMap(256, frozenset())
    sc = frame_scenario(n_packets=32)
    res = simulate_frame(occ, sc, 11)
    busy = sum(1 for d in res.decisions if d.own_active)
    assert busy <= 2
    assert res.confusion[0, 0] > 128  # H0 still the most common verdict
    assert res.missed_own == 0
    assert res.unflagged_mirror_risk == 0  # no mirror is active anywhere


def test_loud_frame_detects_occupants():
    half = 32
    occ = OccupancyMap(2 * half, set(range(1, half + 1)))  # all positives busy
    sc = frame_scenario(n_packets=32)
    res = simulate_frame(occ, sc, 13)
    # Positive subcarriers are own-active (truth H2), negatives hear
    # only the image (truth H1).
    assert all(occ.truth(k) == Hypothesis.H2 for k in range(1, half + 1))
    detected = sum(
        1 for k, d in zip(res.subcarriers, res.decisions)
        if k > 0 and d.own_active
    )
    assert detected >= 28
    # The mirror-side warnings can only come from negative indices.
    for k, d in zip(res.subcarriers, res.decisions):
        if d == Hypothesis.H1:
            assert k < 0


def test_frame_joint_model_runs():
    occ = OccupancyMap(16, {1, -2})
    sc = frame_scenario(rx_mismatch=irr_to_mismatch(-15.0))
    res = simulate_frame(occ, sc, 21)
    assert res.confusion.sum() == 16
    assert res.rule == scenario_rule(sc)
