"""Sample-level references for ``iqsense.montecarlo`` and ``iqsense.frame``.

The sample-level model in its straightforward form: look the symbols up
one side at a time, draw every Gaussian as two ``Generator.normal``
calls, apply ``receive`` / ``receive_joint`` and average ``|r| ** 2``.
``estimate_component_variances`` must reproduce it bit for bit from the
same substream; the trial engine, which draws from the exact law, must
agree with it in law.

The frame's reference, :func:`simulate_frame`, draws every symbol,
channel and noise sample of a frame.  The frame itself draws each pair
from its exact per-phase law instead, so the two agree in law, not in
bits; ``tests/test_frame_oracle.py`` compares them.
"""

import math

import numpy as np

from iqsense.detection import Hypothesis, classify_batch
from iqsense.frame import FrameResult
from iqsense.montecarlo import FRAME_STREAM, scenario_rule, substream
from iqsense.signal_model import draw_noise, draw_rayleigh, receive, receive_joint


def circular_gaussian(var, rng, size):
    sd = math.sqrt(var / 2.0)
    re = rng.normal(0.0, sd, size)
    im = rng.normal(0.0, sd, size)
    return re + 1j * im


def received_batch(sc, tx_c, rx_c, hyp, count, n_packets, rng):
    """(count, n_packets) received samples under one true hypothesis."""
    pair = sc.pair
    h = Hypothesis(hyp)
    m = pair.psk_order
    table = np.exp(2j * np.pi * np.arange(m) / m)
    size = (count, n_packets)
    sk = table[rng.integers(0, m, size)]
    smk = table[rng.integers(0, m, size)]
    if not h.own_active:
        sk = np.zeros(size, dtype=complex)
    if not h.mirror_active:
        smk = np.zeros(size, dtype=complex)
    ch = circular_gaussian(pair.channel_var, rng, size)
    w = circular_gaussian(pair.noise_var, rng, size)
    y = receive(sk, smk, ch, w, pair, tx_c)
    if rx_c is None:
        return y
    ch_m = circular_gaussian(pair.channel_var_mirror, rng, size)
    w_m = circular_gaussian(pair.noise_var, rng, size)
    y_m = receive(smk, sk, ch_m, w_m, pair.mirrored(), tx_c)
    return receive_joint(y, y_m, rx_c)


def statistic_batch(sc, tx_c, rx_c, hyp, count, rng):
    """Average periodogram over each trial's packets."""
    r = received_batch(sc, tx_c, rx_c, hyp, count, sc.n_packets, rng)
    return np.mean(np.abs(r) ** 2, axis=1)


def component_variances(sc, samples, rng_for):
    """``estimate_component_variances`` from the reference samples;
    ``rng_for(hyp)`` returns each hypothesis' substream."""
    tx_c, rx_c = sc.coefficients
    est = []
    for hyp in range(4):
        r = received_batch(sc, tx_c, rx_c, hyp, samples, 1, rng_for(hyp))
        est.append(float(np.mean(np.abs(r) ** 2)) / 2.0)
    return tuple(est)


def simulate_frame(occupancy, sc, seed):
    """:func:`iqsense.frame.simulate_frame` from sample-level draws.

    Per physical subcarrier one symbol stream, shared by both sensing
    directions of its pair; per side one Rayleigh channel and one noise
    draw per packet.
    """
    pair = sc.pair
    rule = scenario_rule(sc)
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
        truths=truth.astype(np.int8),
        decisions=decided,
        confusion=confusion,
        vacant_mirror_flags=int(confusion[:, Hypothesis.H1].sum()),
        unflagged_mirror_risk=int(confusion[Hypothesis.H1, Hypothesis.H0]),
        missed_own=int(confusion[Hypothesis.H2:, :Hypothesis.H2].sum()),
        rule=rule,
    )
