"""Whole-frame sensing across a multiplex of mirrored subcarrier pairs.

A frame carries ``n_subcarriers`` data subcarriers indexed
-n/2..-1, 1..n/2 (no DC).  Each index may be occupied; sensing any
index k is exactly the pair problem with truth determined by the
(k, -k) occupancy.  The simulation shares the physical quantities of a
pair -- the symbols on k and -k -- between the two sensing directions,
draws independent channels and noise per side, and runs one decision
rule (built from the uniform nominal subcarrier power) over all
indices.

The reported hazard counts target the scenario where an idle verdict
invites a secondary transmission whose transmitter image then lands on
the mirror subcarrier: a decided-H0 subcarrier whose mirror is in fact
active is exactly the unflagged interference risk, while decided-H1
subcarriers surface the same situation as an explicit "vacant but
mirror-active" warning.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .detection import DecisionRule, Hypothesis, classify_batch
from .montecarlo import (
    SeedSpec,
    SensingScenario,
    _coefficients,
    _mirrored,
    scenario_rule,
    substream,
    _FRAME_STREAM,
)
from .signal_model import draw_noise, draw_rayleigh, receive, receive_joint

__all__ = ["OccupancyMap", "FrameResult", "simulate_frame"]


@dataclass(frozen=True)
class OccupancyMap:
    """Which subcarriers of a frame are occupied.

    Indices run over -n/2..-1, 1..n/2; 0 (DC) is not a data subcarrier
    and is rejected.
    """

    n_subcarriers: int
    active: frozenset[int]

    def __post_init__(self):
        n = self.n_subcarriers
        if not isinstance(n, int) or n < 2 or n % 2:
            raise ValueError(f"n_subcarriers must be a positive even integer, got {n!r}")
        object.__setattr__(self, "active", frozenset(self.active))
        half = n // 2
        for k in self.active:
            if not isinstance(k, int) or isinstance(k, bool):
                raise ValueError(f"subcarrier indices must be integers, got {k!r}")
            if k == 0:
                raise ValueError("0 is the DC bin, not a data subcarrier")
            if not (-half <= k <= half):
                raise ValueError(f"subcarrier index {k} outside [-{half}, {half}]")

    @property
    def indices(self) -> tuple[int, ...]:
        half = self.n_subcarriers // 2
        return tuple(range(-half, 0)) + tuple(range(1, half + 1))

    def truth(self, k: int) -> Hypothesis:
        own = k in self.active
        mirror = -k in self.active
        return Hypothesis(2 * own + mirror)


@dataclass(frozen=True)
class FrameResult:
    """Per-subcarrier decisions and aggregate hazard accounting."""

    subcarriers: tuple[int, ...]
    truths: tuple[Hypothesis, ...]
    decisions: tuple[Hypothesis, ...]
    confusion: np.ndarray  # (4, 4) counts [truth, decided]
    vacant_mirror_flags: int  # decided H1: vacant but mirror-active warning
    unflagged_mirror_risk: int  # decided H0 while truth is H1
    missed_own: int  # decided idle while the subcarrier itself is active
    rule: DecisionRule


def simulate_frame(
    occupancy: OccupancyMap,
    sc: SensingScenario,
    seed: "SeedSpec | int",
    *,
    rule: DecisionRule | None = None,
) -> FrameResult:
    """Sense every subcarrier of one frame.

    ``sc`` supplies the uniform nominal subcarrier power (its two
    per-pair powers must agree), the front-end mismatches, the packet
    length and the detector mode; ``occupancy`` supplies the truth.
    """
    pair = sc.pair
    if not math.isclose(pair.power_k, pair.power_mk, rel_tol=1e-12, abs_tol=0.0):
        raise ValueError(
            "frame simulation uses one nominal subcarrier power: "
            f"power_k={pair.power_k} != power_mk={pair.power_mk}"
        )
    if rule is None:
        rule = scenario_rule(sc)
    tx_c, rx_c = _coefficients(sc)

    half = occupancy.n_subcarriers // 2
    pos = np.arange(1, half + 1)
    active = occupancy.active
    own_pos = np.array([k in active for k in pos], dtype=bool)[:, None]
    own_neg = np.array([-k in active for k in pos], dtype=bool)[:, None]

    rng = substream(seed, _FRAME_STREAM)
    m = pair.psk_order
    table = np.exp(2j * np.pi * np.arange(m) / m)
    size = (half, sc.n_packets)
    # one symbol stream per physical subcarrier, shared by both sensing
    # directions of the pair; channels and noise are per-side
    s_pos = table[rng.integers(0, m, size)] * own_pos
    s_neg = table[rng.integers(0, m, size)] * own_neg
    h_pos = draw_rayleigh(pair.channel_var, rng, size)
    h_neg = draw_rayleigh(pair.channel_var_mirror, rng, size)
    w_pos = draw_noise(pair.noise_var, rng, size)
    w_neg = draw_noise(pair.noise_var, rng, size)

    y_pos = receive(s_pos, s_neg, h_pos, w_pos, pair, tx_c)
    y_neg = receive(s_neg, s_pos, h_neg, w_neg, _mirrored(pair), tx_c)
    if rx_c is not None:
        r_pos = receive_joint(y_pos, y_neg, rx_c)
        r_neg = receive_joint(y_neg, y_pos, rx_c)
    else:
        r_pos, r_neg = y_pos, y_neg

    z_pos = np.mean(np.abs(r_pos) ** 2, axis=1)
    z_neg = np.mean(np.abs(r_neg) ** 2, axis=1)
    decided_pos = classify_batch(z_pos, rule)
    decided_neg = classify_batch(z_neg, rule)

    subcarriers: list[int] = []
    truths: list[Hypothesis] = []
    decisions: list[Hypothesis] = []
    for k in occupancy.indices:
        i = abs(k) - 1
        decided = decided_neg[i] if k < 0 else decided_pos[i]
        subcarriers.append(k)
        truths.append(occupancy.truth(k))
        decisions.append(Hypothesis(int(decided)))

    confusion = np.zeros((4, 4), dtype=np.int64)
    vacant_flags = 0
    unflagged_risk = 0
    missed_own = 0
    for truth, decided in zip(truths, decisions):
        confusion[int(truth), int(decided)] += 1
        if decided == Hypothesis.H1:
            vacant_flags += 1
        if decided == Hypothesis.H0 and truth == Hypothesis.H1:
            unflagged_risk += 1
        if not decided.own_active and truth.own_active:
            missed_own += 1

    return FrameResult(
        subcarriers=tuple(subcarriers),
        truths=tuple(truths),
        decisions=tuple(decisions),
        confusion=confusion,
        vacant_mirror_flags=vacant_flags,
        unflagged_mirror_risk=unflagged_risk,
        missed_own=missed_own,
        rule=rule,
    )
