"""Front-end mismatch algebra and the baseband pair model."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iqsense.signal_model import (
    IqMismatch,
    SubcarrierPairConfig,
    draw_noise,
    draw_rayleigh,
    image_rejection_ratio,
    image_rejection_ratio_db,
    irr_to_mismatch,
    mismatch_coefficients,
    receive,
    receive_joint,
    transmit,
)

PSK16 = np.exp(2j * np.pi * np.arange(16) / 16)


def test_coefficients_frozen():
    c = mismatch_coefficients(IqMismatch(epsilon=0.1, theta=0.1))
    assert c.alpha.real == pytest.approx(0.995004165278026, rel=1e-14)
    assert c.alpha.imag == pytest.approx(0.00998334166468282, rel=1e-13)
    assert c.beta.real == pytest.approx(0.0995004165278026, rel=1e-14)
    assert c.beta.imag == pytest.approx(-0.0998334166468282, rel=1e-14)
    assert image_rejection_ratio(c) == pytest.approx(0.0200650264669658, rel=1e-13)
    assert image_rejection_ratio_db(c) == pytest.approx(-16.9756026306946, rel=1e-12)


def test_ideal_front_end():
    c = mismatch_coefficients(IqMismatch.ideal())
    assert c.alpha == 1.0 + 0.0j
    assert c.beta == 0.0 + 0.0j
    assert image_rejection_ratio(c) == 0.0
    assert image_rejection_ratio_db(c) == -math.inf
    assert IqMismatch.ideal() == IqMismatch(0.0, 0.0)


@given(
    eps=st.floats(min_value=-0.99, max_value=0.99),
    theta=st.floats(min_value=-1.5, max_value=1.5),
)
@settings(max_examples=200, deadline=None)
def test_energy_identity(eps, theta):
    """|alpha|^2 + |beta|^2 == 1 + epsilon^2 for every mismatch."""
    c = mismatch_coefficients(IqMismatch(eps, theta))
    total = abs(c.alpha) ** 2 + abs(c.beta) ** 2
    assert total == pytest.approx(1.0 + eps * eps, rel=1e-12)


def test_irr_roundtrip():
    for irr_db in (-30.0, -22.5, -15.0, -5.0):
        m = irr_to_mismatch(irr_db)
        assert m.theta == 0.0
        assert m.epsilon == pytest.approx(10.0 ** (irr_db / 20.0), rel=1e-15)
        c = mismatch_coefficients(m)
        assert image_rejection_ratio_db(c) == pytest.approx(irr_db, rel=1e-12)
        # The canonical reduction keeps the direct path at unit gain.
        assert abs(c.alpha) == 1.0


def test_irr_epsilon_frozen():
    assert irr_to_mismatch(-15.0).epsilon == pytest.approx(
        0.17782794100389228012, rel=1e-15
    )


def test_irr_to_mismatch_domain():
    assert irr_to_mismatch(None) == IqMismatch.ideal()
    assert irr_to_mismatch(-math.inf) == IqMismatch.ideal()
    with pytest.raises(ValueError):
        irr_to_mismatch(0.0)
    with pytest.raises(ValueError):
        irr_to_mismatch(3.0)


def test_mismatch_domain():
    with pytest.raises(ValueError):
        IqMismatch(1.0, 0.0)
    with pytest.raises(ValueError):
        IqMismatch(0.0, math.pi / 2)
    with pytest.raises(ValueError):
        IqMismatch(math.nan, 0.0)


def test_pair_config_validation():
    with pytest.raises(ValueError):
        SubcarrierPairConfig(power_k=-1.0, power_mk=1.0)
    with pytest.raises(ValueError):
        SubcarrierPairConfig(power_k=1.0, power_mk=1.0, noise_var=0.0)
    with pytest.raises(ValueError):
        SubcarrierPairConfig(power_k=1.0, power_mk=1.0, psk_order=12)


def test_transmit_leakage_structure():
    cfg = SubcarrierPairConfig(power_k=4.0, power_mk=1.0)
    tx = mismatch_coefficients(IqMismatch(0.1, 0.05))
    s_k, s_mk = PSK16[3], PSK16[9]
    x = transmit(s_k, s_mk, cfg, tx)
    assert x == pytest.approx(
        tx.alpha * 2.0 * s_k + tx.beta * 1.0 * np.conjugate(s_mk)
    )
    # An ideal front end transmits the pure scaled symbol.
    ideal = mismatch_coefficients(IqMismatch.ideal())
    assert transmit(s_k, s_mk, cfg, ideal) == pytest.approx(2.0 * s_k)


def test_receive_and_joint_shapes():
    cfg = SubcarrierPairConfig(power_k=1.0, power_mk=1.0)
    tx = mismatch_coefficients(irr_to_mismatch(-15.0))
    rx = mismatch_coefficients(irr_to_mismatch(-20.0))
    rng = np.random.default_rng(0)
    h = draw_rayleigh(1.0, rng, size=8)
    w = draw_noise(1.0, rng, size=8)
    s = np.full(8, PSK16[2])
    y = receive(s, s, h, w, cfg, tx)
    assert y.shape == (8,)
    z = receive_joint(y, np.conjugate(y), rx)
    assert z == pytest.approx(rx.alpha * y + rx.beta * y)


def test_draw_moments():
    rng = np.random.default_rng(42)
    h = draw_rayleigh(2.0, rng, size=200_000)
    w = draw_noise(0.5, rng, size=200_000)
    # Complex variance = E|.|^2; components carry half each.
    assert np.mean(np.abs(h) ** 2) == pytest.approx(2.0, rel=0.01)
    assert np.mean(np.abs(w) ** 2) == pytest.approx(0.5, rel=0.01)
    assert np.mean(h.real**2) == pytest.approx(1.0, rel=0.02)
    assert abs(np.mean(h)) < 0.01


def test_received_energy_matches_hypothesis_variance():
    """E|y|^2 under H3 equals sigma3^2 * 2 (components carry half)."""
    from iqsense.detection import hypothesis_variances

    cfg = SubcarrierPairConfig(power_k=1.0, power_mk=0.1)
    mm = irr_to_mismatch(-10.0)
    tx = mismatch_coefficients(mm)
    v = hypothesis_variances(cfg, tx)
    rng = np.random.default_rng(5)
    n = 400_000
    k_idx = rng.integers(0, 16, size=n)
    mk_idx = rng.integers(0, 16, size=n)
    table = np.exp(2j * np.pi * np.arange(16) / 16)
    h = draw_rayleigh(1.0, rng, size=n)
    w = draw_noise(1.0, rng, size=n)
    y = receive(table[k_idx], table[mk_idx], h, w, cfg, tx)
    assert np.mean(np.abs(y) ** 2) == pytest.approx(2.0 * v.sigma3_sq, rel=0.02)
