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
from dataclasses import dataclass, fields
from functools import lru_cache

import numpy as np

from .detection import DecisionRule, Hypothesis, classify_batch
from .montecarlo import FRAME_STREAM, SeedSpec, SensingScenario, scenario_rule, substream
from .signal_model import draw_noise, draw_rayleigh, receive, receive_joint

__all__ = ["OccupancyMap", "FrameResult", "simulate_frame"]

# Hypothesis members by value, for turning an int array into members.
_HYPOTHESES = np.array(list(Hypothesis), dtype=object)


@lru_cache
def _frame_indices(n_subcarriers: int) -> tuple[int, ...]:
    half = n_subcarriers // 2
    return tuple(range(-half, 0)) + tuple(range(1, half + 1))


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
        active = frozenset(self.active)
        object.__setattr__(self, "active", active)
        half = n // 2
        if not all(issubclass(t, int) and not issubclass(t, bool) for t in set(map(type, active))):
            k = next(k for k in active if not isinstance(k, int) or isinstance(k, bool))
            raise ValueError(f"subcarrier indices must be integers, got {k!r}")
        if 0 in active:
            raise ValueError("0 is the DC bin, not a data subcarrier")
        for k in (min(active, default=1), max(active, default=1)):
            if not (-half <= k <= half):
                raise ValueError(f"subcarrier index {k} outside [-{half}, {half}]")

    @property
    def indices(self) -> tuple[int, ...]:
        return _frame_indices(self.n_subcarriers)

    def truth(self, k: int) -> Hypothesis:
        own = k in self.active
        mirror = -k in self.active
        return Hypothesis(2 * own + mirror)


@dataclass(frozen=True, eq=False)
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

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FrameResult)
            and np.array_equal(self.confusion, other.confusion)
            and all(
                getattr(self, f.name) == getattr(other, f.name)
                for f in fields(self)
                if f.name != "confusion"
            )
        )


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
    elif rule.n_packets != sc.n_packets:
        raise ValueError(
            f"rule was built for n_packets={rule.n_packets}, "
            f"but the scenario has n_packets={sc.n_packets}"
        )
    tx_c, rx_c = sc.coefficients

    # Subcarrier k > 0 sits in row k-1 of the "pos" side, -k in row k-1 of
    # the "neg" side.
    half = occupancy.n_subcarriers // 2
    active = np.fromiter(occupancy.active, dtype=np.int64, count=len(occupancy.active))
    own_pos = np.zeros(half, dtype=bool)
    own_neg = np.zeros(half, dtype=bool)
    own_pos[active[active > 0] - 1] = True
    own_neg[-active[active < 0] - 1] = True

    rng = substream(seed, FRAME_STREAM)
    m = pair.psk_order
    table = np.exp(2j * np.pi * np.arange(m) / m)
    size = (half, sc.n_packets)
    # one symbol stream per physical subcarrier, shared by both sensing
    # directions of the pair; channels and noise are per-side
    s_pos = table[rng.integers(0, m, size)] * own_pos[:, None]
    s_neg = table[rng.integers(0, m, size)] * own_neg[:, None]
    h_pos = draw_rayleigh(pair.channel_var, rng, size)
    h_neg = draw_rayleigh(pair.channel_var_mirror, rng, size)
    w_pos = draw_noise(pair.noise_var, rng, size)
    w_neg = draw_noise(pair.noise_var, rng, size)

    y_pos = receive(s_pos, s_neg, h_pos, w_pos, pair, tx_c)
    y_neg = receive(s_neg, s_pos, h_neg, w_neg, pair.mirrored(), tx_c)
    if rx_c is not None:
        r_pos = receive_joint(y_pos, y_neg, rx_c)
        r_neg = receive_joint(y_neg, y_pos, rx_c)
    else:
        r_pos, r_neg = y_pos, y_neg

    z_pos = np.mean(np.abs(r_pos) ** 2, axis=1)
    z_neg = np.mean(np.abs(r_neg) ** 2, axis=1)

    # Frame order -half..-1, 1..half: the neg side reversed, then pos.
    truth = np.concatenate([(2 * own_neg + own_pos)[::-1], 2 * own_pos + own_neg])
    decided = classify_batch(np.concatenate([z_neg[::-1], z_pos]), rule)
    confusion = np.bincount(4 * truth + decided, minlength=16).reshape(4, 4)
    return FrameResult(
        subcarriers=occupancy.indices,
        truths=tuple(_HYPOTHESES[truth].tolist()),
        decisions=tuple(_HYPOTHESES[decided].tolist()),
        confusion=confusion,
        # The counters are cells of the [truth, decided] confusion.
        vacant_mirror_flags=int(confusion[:, Hypothesis.H1].sum()),
        unflagged_mirror_risk=int(confusion[Hypothesis.H1, Hypothesis.H0]),
        missed_own=int(confusion[Hypothesis.H2:, :Hypothesis.H2].sum()),
        rule=rule,
    )
