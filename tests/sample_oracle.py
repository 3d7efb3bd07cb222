"""Sample-level reference for the trial kernel in ``iqsense.montecarlo``.

This is the straightforward form of the kernel: look the symbols up one
side at a time, draw every Gaussian as two ``Generator.normal`` calls,
apply ``receive`` / ``receive_joint`` and average ``|r| ** 2``.  The
kernel must reproduce it bit for bit from the same substream.
"""

import math

import numpy as np

from iqsense.detection import Hypothesis
from iqsense.signal_model import receive, receive_joint


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
