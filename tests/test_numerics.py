"""Gamma-law primitives against an independent mpmath oracle."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gamma_density import gamma_pdf
from number_rule import REFUSED
from iqsense.numerics import (
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
    # Far tail, past the direct sum's exp(-x).
    assert regularized_upper_gamma(3, 1200.0) == pytest.approx(
        oracle_q(3, 1200.0), rel=1e-10
    )


@pytest.mark.parametrize("n", [1, 3, 50, 700, 1000, 5000, 10**7])
def test_far_tail_matches_oracle(n):
    """Beyond x = 700 the Erlang sum is scaled by its largest term.  At
    10**7 packets the points near n check that the sum, which runs over
    the terms within 40 standard deviations of x from both sides, leaves
    out nothing that shows."""
    xs = [700.5, 701.0, 1e3, 2.5e3, 5e3, 1e4, *np.random.default_rng(n).uniform(700, 1e4, 12)]
    if n > 700:
        xs += [n - 1.0, n - 0.5, float(n), n + 0.5]  # the largest term moves to n - 1
    for x in xs:
        want = oracle_q(n, x)
        assert regularized_upper_gamma(n, x) == pytest.approx(want, rel=1e-10, abs=1e-300)


def test_far_tail_seam_is_continuous():
    """The two evaluations of Q agree where they meet, at x = 700."""
    x_up = math.nextafter(700.0, math.inf)
    worst = 0.0
    for n in range(1, 1001):
        q = regularized_upper_gamma(n, 700.0)
        worst = max(worst, abs(regularized_upper_gamma(n, x_up) - q) / q)
    assert worst <= 1e-12


@given(
    n=st.integers(min_value=1, max_value=64),
    x=st.floats(min_value=0.0, max_value=1e4),
)
@settings(max_examples=300, deadline=None)
def test_probability_stays_in_unit_interval(n, x):
    assert 0.0 <= regularized_upper_gamma(n, x) <= 1.0


def test_sums_that_round_above_one_are_one():
    assert regularized_upper_gamma(3, 2.2520465783756794e-06) == 1.0
    assert regularized_upper_gamma(1000, 700.0) == 1.0


@pytest.mark.parametrize("bad", [0, -1, 1.5, True])
def test_shape_domain(bad):
    with pytest.raises((ValueError, TypeError)):
        regularized_upper_gamma(bad, 1.0)


def test_arguments_take_the_number_rule():
    """Each argument takes a Python or numpy number, as the plain value it
    holds, and refuses the rest with a ValueError naming it."""
    s = float(np.float32(1.3))
    assert gamma_sf(np.int64(2), np.float32(1.3), np.float16(0.5)) == gamma_sf(2, s, 0.5)
    assert regularized_upper_gamma(np.uint8(3), np.float32(1.3)) == regularized_upper_gamma(3, s)
    assert (inverse_gamma_sf(np.int64(2), np.float32(1.3), np.float32(0.25))
            == inverse_gamma_sf(2, s, 0.25))
    calls = {
        "shape": lambda b: gamma_sf(b, 1.0, 1.0),
        "x": lambda b: regularized_upper_gamma(1, b),
        "scale": lambda b: inverse_gamma_sf(1, b, 0.5),
        "threshold": lambda b: gamma_sf(1, 1.0, b),
        "tail_prob": lambda b: inverse_gamma_sf(1, 1.0, b),
    }
    for name, call in calls.items():
        for bad in REFUSED[:-1] if name == "shape" else REFUSED:  # any int >= 1 is a shape
            with pytest.raises(ValueError, match=f"^{name} must be "):
                call(bad)


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
    assert inverse_gamma_sf(1, 1.0, 0.1) == math.log(10.0)
    with pytest.raises(ValueError):
        inverse_gamma_sf(1, 1.0, 0.0)
    with pytest.raises(ValueError):
        inverse_gamma_sf(1, 1.0, 1.0001)


def test_inverse_is_the_crossing_to_the_last_double():
    """The threshold is the smallest double x with Q(n, x) <= p."""
    rng = np.random.default_rng(5)
    for n in range(1, 33):
        for p in rng.uniform(0.0, 1.0, 8):
            p = float(p)
            x = inverse_gamma_sf(n, 1.0, p)
            assert regularized_upper_gamma(n, x) <= p < regularized_upper_gamma(
                n, math.nextafter(x, 0.0)
            )
