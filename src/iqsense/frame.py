"""Whole-frame sensing across a multiplex of mirrored subcarrier pairs.

A frame carries ``n_subcarriers`` data subcarriers indexed
-n/2..-1, 1..n/2 (no DC).  Each index may be occupied; sensing any
index k is exactly the pair problem with truth determined by the
(k, -k) occupancy.  The two sensing directions of a pair share its
symbols, through the phase of s_k*s_-k, and have independent channels
and noise.  The frame draws each pair from that exact law
(:func:`~iqsense.detection.pair_table`) and runs one decision rule
(built from the uniform nominal subcarrier power) over all indices.

The reported hazard counts target the scenario where an idle verdict
invites a secondary transmission whose transmitter image then lands on
the mirror subcarrier: a decided-H0 subcarrier whose mirror is in fact
active is exactly the unflagged interference risk, while decided-H1
subcarriers surface the same situation as an explicit "vacant but
mirror-active" warning.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from functools import lru_cache

import numpy as np

from .detection import DecisionRule, Hypothesis, classify_batch, pair_table
from .montecarlo import FRAME_STREAM, SeedSpec, SensingScenario, scenario_rule, substream
from .numerics import check_int

# Not called here (the frame draws from pair_table); bound for the trace in bench/job.py.
from .signal_model import draw_noise, draw_rayleigh, receive, receive_joint  # noqa: F401

__all__ = ["OccupancyMap", "FrameResult", "simulate_frame"]

# A frame holds several arrays of n_subcarriers x n_packets values; at
# this many a frame takes about 100 MB, so the bound holds for the
# subcarrier count and for its product with n_packets.
_MAX_SUBCARRIERS = 2**20


@lru_cache
def _frame_indices(n_subcarriers: int) -> tuple[int, ...]:
    half = n_subcarriers // 2
    return tuple(range(-half, 0)) + tuple(range(1, half + 1))


@dataclass(frozen=True)
class OccupancyMap:
    """Which subcarriers of a frame are occupied.

    Indices run over -n/2..-1, 1..n/2; 0 (DC) is not a data subcarrier
    and is rejected.  ``truths`` is the read-only int8 ``2*own + mirror``
    (a :class:`Hypothesis` value) of each index in :attr:`indices`."""

    n_subcarriers: int
    active: frozenset[int]
    truths: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n = check_int("n_subcarriers", self.n_subcarriers, 2, _MAX_SUBCARRIERS)
        if n % 2:
            raise ValueError(f"n_subcarriers must be a positive even integer, got {n}")
        object.__setattr__(self, "n_subcarriers", n)
        active = frozenset(self.active)
        if not set(map(type, active)) <= {int}:  # a numpy integer, a bool or no integer
            bad = [k for k in active if type(k) is bool or not isinstance(k, (int, np.integer))]
            if bad:
                raise ValueError(f"subcarrier indices must be integers, got {bad[0]!r}")
            active = frozenset(map(int, active))
        object.__setattr__(self, "active", active)
        if 0 in active:
            raise ValueError("0 is the DC bin, not a data subcarrier")
        half = n // 2
        try:
            k = np.fromiter(active, dtype=np.int64, count=len(active))
        except OverflowError:  # an index beyond int64 is outside any frame, as n is
            k = np.array([n])
        if k.size and (k.min() < -half or k.max() > half):
            k = min(active) if not -half <= min(active) <= half else max(active)
            raise ValueError(f"subcarrier index {k} outside [-{half}, {half}]")
        own = np.zeros(n, dtype=np.int8)
        own[k + half - (k > 0)] = 1  # k's place in `indices`; reversed, the place of -k
        truths = 2 * own + own[::-1]
        truths.flags.writeable = False
        object.__setattr__(self, "truths", truths)

    @property
    def indices(self) -> tuple[int, ...]:
        return _frame_indices(self.n_subcarriers)


@dataclass(frozen=True, eq=False)
class FrameResult:
    """Per-subcarrier truth and decision codes, and aggregate hazard accounting."""

    subcarriers: tuple[int, ...]
    truths: np.ndarray
    decisions: np.ndarray
    confusion: np.ndarray  # (4, 4) counts [truth, decided]
    vacant_mirror_flags: int  # decided H1: vacant but mirror-active warning
    unflagged_mirror_risk: int  # decided H0 while truth is H1
    missed_own: int  # decided idle while the subcarrier itself is active
    rule: DecisionRule

    def __eq__(self, other) -> bool:
        return isinstance(other, FrameResult) and all(
            np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b
            for a, b in ((getattr(self, f.name), getattr(other, f.name)) for f in fields(self))
        )


def simulate_frame(
    occupancy: OccupancyMap, sc: SensingScenario, seed: "SeedSpec | int"
) -> FrameResult:
    """Sense every subcarrier of one frame.

    ``sc`` supplies the uniform nominal subcarrier power (its two
    per-pair powers must agree), the front-end mismatches, the packet
    length and the detector mode; ``occupancy`` supplies the truth.
    Raises ValueError for a frame of more than 2**20 values per side, or
    for pair-table means that overflow a float (both sides' means scale
    the draws); the scenario's variances, which :func:`scenario_rule`
    builds from the same table, have their own overflow guard.
    """
    pair = sc.pair
    if not math.isclose(pair.power_k, pair.power_mk, rel_tol=1e-12, abs_tol=0.0):
        raise ValueError(
            "frame simulation uses one nominal subcarrier power: "
            f"power_k={pair.power_k} != power_mk={pair.power_mk}"
        )
    if occupancy.n_subcarriers * sc.n_packets > _MAX_SUBCARRIERS:
        raise ValueError(f"n_subcarriers x n_packets must be <= {_MAX_SUBCARRIERS}, "
                         f"got {occupancy.n_subcarriers} x {sc.n_packets}")
    rule = scenario_rule(sc)
    table = pair_table(pair, sc.coefficients[0])
    if not np.isfinite(table).all():
        raise ValueError(f"snr_db={sc.snr1_db:g}: the pair's mean powers overflow a float")
    half = occupancy.n_subcarriers // 2
    # Row k-1 of the "pos" side is subcarrier k, of the "neg" side -k.  Draw
    # order: one phase index of s_k*s_-k per pair and packet, then the pos
    # side's draws, then the neg side's: |y|^2 / mean (Tx-only), or the real
    # then the imaginary parts of y / sd (joint).
    rng = substream(seed, FRAME_STREAM)
    size = (half, sc.n_packets)
    cell = rng.integers(0, pair.psk_order, size)
    cell += pair.psk_order * occupancy.truths[half:, None].astype(np.int64)  # pair state
    # Scales per (side, M*state + phase), read from the shared pair table.
    scale = (np.sqrt(table / 2.0) if sc.is_joint else table).reshape(-1, 2).T.take(cell, axis=1)
    if sc.is_joint:
        y = rng.standard_normal((2, 2, *size))
        y *= scale[:, None]
        power = _joint_power(y, sc.coefficients[1])
    else:
        power = rng.standard_exponential((2, *size))
        power *= scale
    z_pos, z_neg = power.mean(axis=2)

    # Frame order -half..-1, 1..half: the neg side reversed, then pos.
    decided = classify_batch(np.concatenate([z_neg[::-1], z_pos]), rule)
    decided.flags.writeable = False
    confusion = np.bincount(4 * occupancy.truths + decided, minlength=16).reshape(4, 4)
    return FrameResult(
        subcarriers=occupancy.indices,
        truths=occupancy.truths,
        decisions=decided,
        confusion=confusion,
        # The counters are cells of the [truth, decided] confusion.
        vacant_mirror_flags=int(confusion[:, Hypothesis.H1].sum()),
        unflagged_mirror_risk=int(confusion[Hypothesis.H1, Hypothesis.H0]),
        missed_own=int(confusion[Hypothesis.H2:, :Hypothesis.H2].sum()),
        rule=rule,
    )


def _joint_power(y: np.ndarray, rx) -> np.ndarray:
    """(|r_k|^2, |r_-k|^2) of ``receive_joint`` on y = [side][re, im], which
    is overwritten: |a|^2*|y_k|^2 + |b|^2*|y_-k|^2 + 2*Re(a*conj(b)*y_k*y_-k)
    for r_k, the first two terms swapped for r_-k.  Real arithmetic keeps
    the bits independent of fused multiply-add and temporary elision; the
    in-place steps keep the formula's operations and their order."""
    (p, q), (s, t) = y
    c = rx.alpha * rx.beta.conjugate()
    cross = c.real * (p * s - q * t)
    cross -= c.imag * (p * t + q * s)
    cross *= 2.0
    y *= y
    sq, im_sq = y[:, 0], y[:, 1]
    sq += im_sq
    np.multiply(sq[::-1], abs(rx.beta) ** 2, out=im_sq)
    sq *= abs(rx.alpha) ** 2
    sq += im_sq
    sq += cross
    return sq
