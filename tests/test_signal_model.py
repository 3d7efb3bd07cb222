"""Front-end mismatch algebra and the baseband pair model."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from number_rule import REFUSED

from iqsense.signal_model import (
    IqMismatch,
    SubcarrierPairConfig,
    draw_noise,
    draw_rayleigh,
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
    # the image-rejection ratio |beta|^2 / |alpha|^2
    assert abs(c.beta) ** 2 / abs(c.alpha) ** 2 == pytest.approx(0.0200650264669658, rel=1e-13)


def test_ideal_front_end():
    c = mismatch_coefficients(IqMismatch.ideal())
    assert c.alpha == 1.0 + 0.0j
    assert c.beta == 0.0 + 0.0j
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
        # The canonical reduction keeps the direct path at unit gain, so
        # |beta|^2 is the image-rejection ratio itself.
        assert abs(c.alpha) == 1.0
        assert abs(c.beta) ** 2 == pytest.approx(10.0 ** (irr_db / 10.0), rel=1e-15)
        assert 10.0 * math.log10(abs(c.beta) ** 2) == pytest.approx(irr_db, rel=1e-12)


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
    assert irr_to_mismatch(np.float32(-20.0)).epsilon == 10.0 ** (float(np.float32(-20.0)) / 20)
    for bad in REFUSED:
        if bad is not None:  # None is the ideal front end
            with pytest.raises(ValueError, match="^irr_db must be "):
                irr_to_mismatch(bad)


def test_mismatch_domain():
    with pytest.raises(ValueError):
        IqMismatch(1.0, 0.0)
    with pytest.raises(ValueError):
        IqMismatch(0.0, math.pi / 2)
    with pytest.raises(ValueError):
        IqMismatch(math.nan, 0.0)
    m = IqMismatch(np.float32(0.5), np.int64(0))
    assert (m.epsilon, m.theta) == (0.5, 0.0)
    assert type(m.epsilon) is float and type(m.theta) is float
    for name in ("epsilon", "theta"):
        for bad in REFUSED:
            with pytest.raises(ValueError, match=f"^{name} must be finite, got "):
                IqMismatch(**{"epsilon": 0.1, "theta": 0.1, name: bad})


def test_mismatch_coefficients_do_not_narrow():
    """A float32 epsilon is stored as a plain float, so the coefficients
    are those of the same value given as a float."""
    for theta in (0.0, 0.05):
        a = mismatch_coefficients(IqMismatch(np.float32(0.1), theta))
        b = mismatch_coefficients(IqMismatch(float(np.float32(0.1)), theta))
        assert (a.alpha, a.beta) == (b.alpha, b.beta)
        assert type(a.beta.real) is float


def test_pair_config_validation():
    with pytest.raises(ValueError):
        SubcarrierPairConfig(power_k=-1.0, power_mk=1.0)
    with pytest.raises(ValueError):
        SubcarrierPairConfig(power_k=1.0, power_mk=1.0, noise_var=0.0)
    with pytest.raises(ValueError):
        SubcarrierPairConfig(power_k=1.0, power_mk=1.0, psk_order=12)
    for key in ("power_k", "power_mk", "noise_var", "channel_var", "channel_var_mirror"):
        with pytest.raises(ValueError, match=f"^{key} must be finite"):
            SubcarrierPairConfig(**{"power_k": 1.0, "power_mk": 1.0, key: True})
    assert SubcarrierPairConfig(np.float64(2.0), 1.0, noise_var=np.float64(0.5)).noise_var == 0.5
    # numpy scalars are stored as plain values; REFUSED raises naming the field
    cfg = SubcarrierPairConfig(np.float32(2.0), np.int64(1), noise_var=np.float32(0.5),
                               channel_var=np.int64(3), psk_order=np.int64(16))
    keys = ("power_k", "power_mk", "noise_var", "channel_var", "channel_var_mirror", "psk_order")
    assert [getattr(cfg, k) for k in keys] == [2.0, 1.0, 0.5, 3.0, 1.0, 16]
    assert [type(getattr(cfg, k)) for k in keys] == [float] * 5 + [int]
    for key in keys:
        for bad in REFUSED:
            with pytest.raises(ValueError, match=f"^{key} must be "):
                SubcarrierPairConfig(**{"power_k": 1.0, "power_mk": 1.0, key: bad})


def test_pair_config_bounds_psk_order():
    """m stops at 1024, the documented range: the pair table loops over
    the m phases in Python."""
    assert SubcarrierPairConfig(power_k=1.0, power_mk=1.0, psk_order=1024).psk_order == 1024
    with pytest.raises(ValueError, match="^psk_order must be <= 1024, got 2048$"):
        SubcarrierPairConfig(power_k=1.0, power_mk=1.0, psk_order=2048)


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


@pytest.mark.parametrize("model", ["transmit", "receive_joint"])
def test_sample_model_bits_do_not_depend_on_array_size(model):
    """A sample's bits are the same in a call of 1,000 samples and in one
    of 40,000 whose first 1,000 samples are those.

    numpy computes ``scalar * temporary`` as ``temporary *= scalar`` once
    the temporary reaches 256 KiB, and where its complex product uses
    fused multiply-add, a scalar-first product can differ from an
    array-first one in the last bit.  An image term written scalar-first
    fails here on such a CPU; on a CPU without fused multiply-add both
    orders round alike and it passes.
    """
    cfg = SubcarrierPairConfig(power_k=2.5, power_mk=0.7)
    c = mismatch_coefficients(IqMismatch(0.3, -0.2))
    rng = np.random.default_rng(23)
    u = draw_noise(1.0, rng, size=40_000)
    v = draw_noise(1.0, rng, size=40_000)

    def model_fn(a, b):
        return transmit(a, b, cfg, c) if model == "transmit" else receive_joint(a, b, c)

    small = model_fn(u[:1000].copy(), v[:1000].copy())
    large = model_fn(u, v)[:1000]
    assert np.array_equal(small.view(np.float64), large.view(np.float64)), (
        f"{np.count_nonzero(small != large)} of 1000 samples differ"
    )


def test_draw_moments():
    rng = np.random.default_rng(42)
    h = draw_rayleigh(2.0, rng, size=200_000)
    w = draw_noise(0.5, rng, size=200_000)
    # Complex variance = E|.|^2; components carry half each.
    assert np.mean(np.abs(h) ** 2) == pytest.approx(2.0, rel=0.01)
    assert np.mean(np.abs(w) ** 2) == pytest.approx(0.5, rel=0.01)
    assert np.mean(h.real**2) == pytest.approx(1.0, rel=0.02)
    assert abs(np.mean(h)) < 0.01


def test_draws_take_the_number_rule():
    """A numpy variance draws as the plain float it holds; REFUSED raises."""
    for draw, name in ((draw_rayleigh, "channel_var"), (draw_noise, "noise_var")):
        a = draw(np.float32(0.3), np.random.default_rng(1), size=4)
        b = draw(float(np.float32(0.3)), np.random.default_rng(1), size=4)
        assert np.array_equal(a, b)
        for bad in (*REFUSED, 0.0):
            with pytest.raises(ValueError, match=f"^{name} must be finite and > 0, got "):
                draw(bad, np.random.default_rng(1), size=4)


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
