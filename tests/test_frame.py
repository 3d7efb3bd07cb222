"""Whole-frame sensing over an occupancy map."""

import hashlib
from dataclasses import replace
from enum import IntEnum

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from number_rule import REFUSED

import iqsense.frame as frame
import iqsense.montecarlo as montecarlo
from iqsense.detection import DetectorMode, Hypothesis, pair_table
from iqsense.frame import OccupancyMap, simulate_frame
from iqsense.montecarlo import SensingScenario, rule_for_mode, scenario_rule, scenario_variances
from iqsense.signal_model import IqMismatch, irr_to_mismatch, mismatch_coefficients, receive_joint


def frame_scenario(snr_db=10.0, n_packets=8, **kw):
    kw.setdefault("tx_mismatch", irr_to_mismatch(-15.0))
    return SensingScenario(snr_db, snr_db, n_packets=n_packets, **kw)


def truth(occ: OccupancyMap, k: int) -> Hypothesis:
    """The state of subcarrier ``k``: ``occ.truths`` at k's place in ``occ.indices``."""
    return Hypothesis(int(occ.truths[occ.indices.index(k)]))


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


def test_occupancy_takes_numpy_integers():
    """A numpy integer size or index is stored as the plain int it holds,
    and the map equals the one built from plain ints."""
    m = OccupancyMap(np.int64(8), frozenset({np.int64(1), np.int8(-4), 2}))
    assert m == OccupancyMap(8, {1, -4, 2})
    assert type(m.n_subcarriers) is int and {type(k) for k in m.active} == {int}
    assert np.array_equal(m.truths, OccupancyMap(8, {1, -4, 2}).truths)
    assert truth(m, np.int64(-1)) == Hypothesis.H1
    with pytest.raises(ValueError, match="^subcarrier indices must be integers, got np.True_$"):
        OccupancyMap(8, frozenset({-1, np.bool_(True)}))
    for bad in (*REFUSED, np.float64(8.0), 0, 7):
        with pytest.raises(ValueError, match="^n_subcarriers must be "):
            OccupancyMap(bad, frozenset())


def test_occupancy_bounds_frame_size():
    assert OccupancyMap(2**20, {1, -2**19}).truths.size == 2**20
    with pytest.raises(ValueError, match="^n_subcarriers must be <= 1048576, got 2097152$"):
        OccupancyMap(2**21, frozenset())


def test_frame_refuses_oversized_or_overflowing_frames():
    sc = frame_scenario(n_packets=2)
    with pytest.raises(ValueError, match="^n_subcarriers x n_packets must be <= 1048576, "
                                         "got 1048576 x 2$"):
        simulate_frame(OccupancyMap(2**20, frozenset()), sc, 1)
    loud = frame_scenario(snr_db=100.0, channel_var_mirror=1e300)
    with pytest.raises(ValueError, match="^snr_db=100: the pair's mean powers overflow"):
        simulate_frame(OccupancyMap(8, {1, -2}), loud, 1)


def test_occupancy_accepts_int_subclasses():
    class Index(int):
        pass

    m = OccupancyMap(8, {Index(2), -3})
    assert m.active == frozenset({2, -3})
    assert truth(m, 2) == Hypothesis.H2
    with pytest.raises(ValueError, match=r"^subcarrier index 5 outside \[-4, 4\]$"):
        OccupancyMap(8, {Index(5)})


@pytest.mark.parametrize(
    "active, message",
    [
        ({1, 2.0}, "subcarrier indices must be integers, got 2.0"),
        ({-1, True}, "subcarrier indices must be integers, got True"),
        ({3, 0, -2}, "0 is the DC bin, not a data subcarrier"),
        ({1, 5}, r"subcarrier index 5 outside \[-4, 4\]"),
        ({-5, 4}, r"subcarrier index -5 outside \[-4, 4\]"),
        ({1, 2**70}, rf"subcarrier index {2**70} outside \[-4, 4\]"),  # beyond int64
        ({-2**70, 2**70}, rf"subcarrier index {-2**70} outside \[-4, 4\]"),
        ({np.uint64(2**64 - 1)}, rf"subcarrier index {2**64 - 1} outside \[-4, 4\]"),
    ],
)
def test_occupancy_error_messages(active, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        OccupancyMap(8, frozenset(active))


class _Index(IntEnum):
    ONE = 1
    MINUS_TWO = -2
    THREE = 3


def _reference_error(n, active):
    """The message OccupancyMap(n, active) must raise, or None: the type
    (a Python or numpy integer, not a bool), DC-bin and range checks, in
    that order, written out over the set."""
    half = n // 2
    if any(isinstance(k, bool) or not isinstance(k, (int, np.integer)) for k in active):
        k = next(k for k in active if isinstance(k, bool) or not isinstance(k, (int, np.integer)))
        return f"subcarrier indices must be integers, got {k!r}"
    if 0 in active:
        return "0 is the DC bin, not a data subcarrier"
    for k in (min(active, default=1), max(active, default=1)):
        if not (-half <= k <= half):
            return f"subcarrier index {k} outside [-{half}, {half}]"
    return None


@st.composite
def _occupancies(draw):
    n = draw(st.sampled_from([2, 4, 6, 8, 16]))
    half = n // 2
    index = st.one_of(
        st.integers(-half, half).filter(bool),
        st.sampled_from(list(_Index)),
        st.sampled_from([True, np.int64(2), 2.0, 0, half + 1, -half - 1]),
    )
    return n, frozenset(draw(st.lists(index, max_size=n)))


@given(_occupancies())
@settings(max_examples=300, deadline=None)
def test_occupancy_validation_matches_reference(case):
    """Each index set is accepted or rejected as the detailed checks say,
    with their message; an accepted map's truth codes are 2*own + mirror."""
    n, active = case
    want = _reference_error(n, active)
    if want is not None:
        with pytest.raises(ValueError) as err:
            OccupancyMap(n, active)
        assert str(err.value) == want
        return
    occ = OccupancyMap(n, active)
    assert occ.active == active
    assert occ.truths.tolist() == [2 * (k in active) + (-k in active) for k in occ.indices]
    res = simulate_frame(occ, frame_scenario(n_packets=1), 0)
    assert np.array_equal(res.truths, occ.truths)


def test_truth_rejects_indices_outside_the_frame():
    """A map holds a truth only for indices of its frame: the constructor
    refuses DC, an index past either edge and a non-integer next to a
    valid index."""
    with pytest.raises(ValueError, match="^0 is the DC bin, not a data subcarrier$"):
        OccupancyMap(8, {1, 0})
    for k in (5, -5):
        with pytest.raises(ValueError, match=rf"^subcarrier index {k} outside \[-4, 4\]$"):
            OccupancyMap(8, {1, k})
    with pytest.raises(ValueError, match="^subcarrier indices must be integers, got 1.5$"):
        OccupancyMap(8, {1, 1.5})


def test_indices_skip_dc():
    m = OccupancyMap(8, frozenset())
    assert m.indices == (-4, -3, -2, -1, 1, 2, 3, 4)


def test_truth_mapping():
    m = OccupancyMap(8, {1, 2, -2})
    assert truth(m, 1) == Hypothesis.H2   # own only
    assert truth(m, -1) == Hypothesis.H1  # mirror only
    assert truth(m, 2) == Hypothesis.H3   # both
    assert truth(m, -2) == Hypothesis.H3
    assert truth(m, 3) == Hypothesis.H0   # neither


def test_frame_determinism():
    occ = OccupancyMap(32, {1, 5, -7})
    sc = frame_scenario()
    a = simulate_frame(occ, sc, 99)
    b = simulate_frame(occ, sc, 99)
    c = simulate_frame(occ, sc, 100)
    assert np.array_equal(a.decisions, b.decisions)
    assert not np.array_equal(a.decisions, c.decisions)
    assert a == b
    assert a != c


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
        replace(sc, mode=DetectorMode("two-bayes")),
        replace(sc, mode=DetectorMode("two-cfar", 0.1)),
        frame_scenario(n_packets=4),
    ]
    got = [simulate_frame(occ, v, 1).rule for v in variants]
    want = [rule_for_mode(scenario_variances(v), v.n_packets, v.mode) for v in variants]
    assert got == want
    assert len(set(got)) == len(variants)


def test_frame_builds_pair_table_once_per_scenario():
    """The Tx-only and the joint scenario share one (pair, tx), so their
    frames and their variances read one table."""
    for cached in (pair_table, scenario_rule, scenario_variances):
        cached.cache_clear()
    occ = OccupancyMap(16, {1, -2, 3})
    for sc in (frame_scenario(), frame_scenario(rx_mismatch=irr_to_mismatch(-15.0))):
        for seed in range(20):
            simulate_frame(occ, sc, seed)
    assert pair_table.cache_info().misses == 1


def test_joint_power_is_power_of_receive_joint():
    """The frame's real-arithmetic |r_k|^2 and |r_-k|^2 are those of
    receive_joint on the complex samples, up to rounding."""
    rng = np.random.default_rng(3)
    y = rng.standard_normal((2, 2, 64, 3))
    rx = mismatch_coefficients(IqMismatch(0.3, -0.2))
    y_k, y_mk = y[0, 0] + 1j * y[0, 1], y[1, 0] + 1j * y[1, 1]
    want = [abs(receive_joint(y_k, y_mk, rx)) ** 2, abs(receive_joint(y_mk, y_k, rx)) ** 2]
    np.testing.assert_allclose(frame._joint_power(y.copy(), rx), want, rtol=1e-12, atol=1e-14)


def test_frame_requires_uniform_power():
    occ = OccupancyMap(8, frozenset())
    sc = SensingScenario(0.0, -10.0, tx_mismatch=irr_to_mismatch(-15.0))
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
    assert res.truths is occ.truths
    assert len(res.decisions) == n
    for codes in (res.truths, res.decisions):
        assert codes.dtype == np.int8 and not codes.flags.writeable
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
        if Hypothesis(t).own_active and not Hypothesis(d).own_active
    )


# Decisions of one seeded 16-subcarrier frame, in index order -8..-1, 1..8.
# Misaligning the two sides (a reversed or shifted negative half, swapped
# halves) keeps every count consistent but changes this sequence.
_GOLDEN_DECISIONS = {
    "tx-only": "H0 H0 H3 H3 H1 H3 H0 H0 H3 H2 H1 H0 H0 H2 H0 H2",
    "joint": "H3 H0 H2 H3 H0 H2 H0 H2 H1 H2 H0 H1 H1 H2 H0 H0",
}


@pytest.mark.parametrize("model", sorted(_GOLDEN_DECISIONS))
def test_frame_decisions_golden(model):
    occ = OccupancyMap(16, {1, 2, -3, -5, 6, -6, 8})
    rx = irr_to_mismatch(-15.0) if model == "joint" else None
    sc = frame_scenario(snr_db=5.0, n_packets=2, rx_mismatch=rx)
    res = simulate_frame(occ, sc, 2024)
    assert " ".join(Hypothesis(d).name for d in res.decisions) == _GOLDEN_DECISIONS[model]
    assert " ".join(Hypothesis(t).name for t in res.truths) == (
        "H1 H0 H3 H2 H0 H2 H1 H1 H2 H2 H1 H0 H1 H3 H0 H2"
    )


# sha256 of a seeded 2048-subcarrier frame: truths and decisions as int8,
# the int64 confusion matrix, then the three hazard counters as int64.
_GOLDEN_FRAME_SHA256 = {
    "tx-only-n1": "036ab4a19aca716952279d99563e99f4436f623a3b8167702c5ea4daaa801cbf",
    "joint-n4": "3b654bba0a2c37f99f615698314797876cdcdd580ac279af9d86746909ce7186",
}


def frame_digest(res) -> str:
    counters = [res.vacant_mirror_flags, res.unflagged_mirror_risk, res.missed_own]
    h = hashlib.sha256()
    h.update(np.array(res.truths, dtype=np.int8).tobytes())
    h.update(np.array(res.decisions, dtype=np.int8).tobytes())
    h.update(res.confusion.tobytes())
    h.update(np.array(counters, dtype=np.int64).tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("case", sorted(_GOLDEN_FRAME_SHA256))
def test_frame_bytes_golden(case):
    rx = irr_to_mismatch(-20.0) if case.startswith("joint") else None
    n_packets = 4 if case.startswith("joint") else 1
    res = simulate_frame(
        _MAPS["random-2048"], frame_scenario(rx_mismatch=rx, n_packets=n_packets), 2026
    )
    assert res.confusion.dtype == np.int64
    assert frame_digest(res) == _GOLDEN_FRAME_SHA256[case]


def test_quiet_frame_stays_idle():
    """With no occupants and long packets, essentially no subcarrier is
    declared busy (H0/H1 confusion is expected: their variances sit
    close together at this operating point).

    Every subcarrier is an independent draw from the exact H0 row
    P(H0|H0) = 0.798, P(busy|H0) = 2.2e-16, so this fails correct code
    with probability 2.5e-26, nearly all of it from the H0 count
    falling to 128 or below."""
    occ = OccupancyMap(256, frozenset())
    sc = frame_scenario(n_packets=32)
    res = simulate_frame(occ, sc, 11)
    busy = sum(1 for d in res.decisions if Hypothesis(d).own_active)
    assert busy <= 2
    assert res.confusion[0, 0] > 128  # H0 still the most common verdict
    assert res.missed_own == 0
    assert res.unflagged_mirror_risk == 0  # no mirror is active anywhere


def test_loud_frame_detects_occupants():
    """The 32 own-active subcarriers are independent draws from the
    exact H2 row, P(H1|H2) = 4.0e-9 and P(busy|H2) = 1 - 1.2e-16, so
    this fails correct code with probability 1.3e-7, nearly all of it
    from one of them decided H1."""
    half = 32
    occ = OccupancyMap(2 * half, set(range(1, half + 1)))  # all positives busy
    sc = frame_scenario(n_packets=32)
    res = simulate_frame(occ, sc, 13)
    # Positive subcarriers are own-active (truth H2), negatives hear
    # only the image (truth H1).
    assert all(truth(occ, k) == Hypothesis.H2 for k in range(1, half + 1))
    detected = sum(
        1 for k, d in zip(res.subcarriers, res.decisions)
        if k > 0 and Hypothesis(d).own_active
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
