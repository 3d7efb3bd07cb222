"""Gamma-law primitives against an independent mpmath oracle."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from iqsense.numerics import (
    gamma_pdf,
    gamma_sf,
    inverse_gamma_sf,
    regularized_upper_gamma,
)

mpmath.mp.dps = 50


def oracle_q(n: int, x: float) -> float:
    """Regularized upper incomplete gamma via mpmath at 50 digits."""
    return float(mpmath.gammainc(n, mpmath.mpf(x), mpmath.inf, regularized=True))


# Values frozen from the oracle above (dps=50).
FROZEN_Q = [
    (1, 1.0, 0.3678794411714423216),
    (2, 1.0, 0.73575888234288464319),
    (3, 1.0, 0.91969860292860580399),
    (1, 2.0 * math.log(2.0), 0.25),  # exp(-2 ln 2) exactly
]


@pytest.mark.parametrize("n, x, expected", FROZEN_Q)
def test_frozen_oracle_values(n, x, expected):
    assert regularized_upper_gamma(n, x) == pytest.approx(expected, rel=1e-14)


def test_oracle_agreement_random():
    rng = np.random.default_rng(2024)
    for _ in range(300):
        n = int(rng.integers(1, 51))
        x = float(rng.uniform(0.0, 100.0))
        got = regularized_upper_gamma(n, x)
        want = oracle_q(n, x)
        assert got == pytest.approx(want, rel=1e-12, abs=1e-300)


def test_edges():
    assert regularized_upper_gamma(5, 0.0) == 1.0
    assert regularized_upper_gamma(1, 800.0) == pytest.approx(
        oracle_q(1, 800.0), rel=1e-10
    )
    # Far tail routed through the scipy fallback branch.
    assert regularized_upper_gamma(3, 1200.0) == pytest.approx(
        oracle_q(3, 1200.0), rel=1e-10
    )


@pytest.mark.parametrize("bad", [0, -1, 1.5, True])
def test_shape_domain(bad):
    with pytest.raises((ValueError, TypeError)):
        regularized_upper_gamma(bad, 1.0)


@given(
    n=st.integers(min_value=1, max_value=40),
    x=st.floats(min_value=1e-3, max_value=80.0),
)
@settings(max_examples=200, deadline=None)
def test_recurrence_property(n, x):
    """Q(n+1, x) - Q(n, x) = x^n e^{-x} / n!"""
    term = math.exp(n * math.log(x) - x - math.lgamma(n + 1))
    hi = max(regularized_upper_gamma(n, x), regularized_upper_gamma(n + 1, x))
    # Skip cases where the step is numerically invisible next to Q itself.
    assume(term >= 1e-3 * hi)
    diff = regularized_upper_gamma(n + 1, x) - regularized_upper_gamma(n, x)
    assert diff == pytest.approx(term, rel=1e-9)


@given(
    n=st.integers(min_value=1, max_value=30),
    x=st.floats(min_value=0.0, max_value=60.0),
    dx=st.floats(min_value=1e-2, max_value=10.0),
)
@settings(max_examples=100, deadline=None)
def test_monotone_in_x(n, x, dx):
    # Monotone up to the documented 1e-12 relative accuracy.
    q_hi = regularized_upper_gamma(n, x)
    q_lo = regularized_upper_gamma(n, x + dx)
    assert q_lo <= q_hi + 1e-12 * max(q_hi, 1.0)


def test_pdf_frozen_value():
    # Gamma(1, scale 2) at z=2: (1/2) e^{-1}
    assert gamma_pdf(1, 2.0, 2.0) == pytest.approx(0.1839397205857211608, rel=1e-14)


def test_pdf_matches_oracle_density():
    rng = np.random.default_rng(7)
    for _ in range(100):
        n = int(rng.integers(1, 20))
        scale = float(rng.uniform(0.1, 5.0))
        z = float(rng.uniform(0.0, 20.0))
        want = float(
            mpmath.power(z, n - 1)
            * mpmath.exp(-z / scale)
            / (mpmath.power(scale, n) * mpmath.gamma(n))
        ) if z > 0 else (1.0 / scale if n == 1 else 0.0)
        assert gamma_pdf(n, scale, z) == pytest.approx(want, rel=1e-11, abs=1e-300)


def test_pdf_edges_and_arrays():
    assert gamma_pdf(2, 1.0, -1.0) == 0.0
    assert gamma_pdf(1, 0.5, 0.0) == 2.0
    assert gamma_pdf(2, 0.5, 0.0) == 0.0
    z = np.array([-1.0, 0.0, 1.0])
    out = gamma_pdf(1, 1.0, z)
    assert out.tolist() == [0.0, 1.0, pytest.approx(math.exp(-1.0))]


def test_sf_is_integral_of_pdf():
    from scipy.integrate import quad

    for n, scale, t in [(1, 2.0, 1.3), (4, 0.7, 5.0), (8, 1.5, 20.0)]:
        integral, err = quad(lambda z: gamma_pdf(n, scale, z), t, np.inf)
        assert gamma_sf(n, scale, t) == pytest.approx(integral, rel=1e-9)


def test_sf_negative_threshold_is_one():
    assert gamma_sf(3, 1.0, -2.0) == 1.0


def test_inverse_roundtrip():
    rng = np.random.default_rng(11)
    for _ in range(200):
        n = int(rng.integers(1, 30))
        scale = float(rng.uniform(0.05, 10.0))
        p = float(rng.uniform(1e-9, 1.0))
        t = inverse_gamma_sf(n, scale, p)
        assert gamma_sf(n, scale, t) == pytest.approx(p, rel=1e-10)


def test_inverse_edge_cases():
    assert inverse_gamma_sf(1, 1.0, 1.0) == 0.0
    # p = 0.25 with n=1, scale=1: t = ln 4
    assert inverse_gamma_sf(1, 1.0, 0.25) == pytest.approx(math.log(4.0), rel=1e-12)
    with pytest.raises(ValueError):
        inverse_gamma_sf(1, 1.0, 0.0)
    with pytest.raises(ValueError):
        inverse_gamma_sf(1, 1.0, 1.0001)
