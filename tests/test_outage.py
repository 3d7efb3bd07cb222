"""Primary-link outage: closed form vs quadrature and Monte Carlo."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from iqsense.outage import (
    OutageScenario,
    analytic_outage,
    mc_outage,
    outage_paper_literal,
)


def quadrature_outage(sc: OutageScenario) -> float:
    """P(X1 < g*(1 + X2)) for independent exponentials, by integration."""
    g = sc.gamma_threshold
    m1, m2 = sc.signal_mean, sc.interference_mean
    if m2 == 0.0:
        return 1.0 - math.exp(-g / m1)

    def integrand(x2):
        return (1.0 - math.exp(-g * (1.0 + x2) / m1)) * math.exp(-x2 / m2) / m2

    val, err = quad(integrand, 0.0, np.inf, epsabs=1e-12, epsrel=1e-12)
    assert err < 1e-7
    return val


def test_frozen_value():
    # signal mean 10, interference mean 1, threshold 1:
    # 1 - (10/11) e^{-1/10}
    sc = OutageScenario(p_mk=10.0, p0=1.0, beta_sq_sec=1.0)
    assert analytic_outage(sc) == pytest.approx(0.177420529058219, rel=1e-14)


def test_against_quadrature():
    rng = np.random.default_rng(9)
    for _ in range(50):
        sc = OutageScenario(
            p_mk=float(rng.uniform(0.1, 20.0)),
            p0=float(rng.uniform(0.1, 20.0)),
            beta_sq_sec=float(rng.uniform(0.0, 0.5)),
            noise_p=float(rng.uniform(0.2, 3.0)),
            var_g=float(rng.uniform(0.2, 3.0)),
            var_h=float(rng.uniform(0.2, 3.0)),
            rate_p=float(rng.uniform(0.1, 3.0)),
        )
        assert analytic_outage(sc) == pytest.approx(
            quadrature_outage(sc), rel=1e-8
        )


def test_interference_free_limit():
    sc = OutageScenario(p_mk=2.0, p0=5.0, beta_sq_sec=0.0, rate_p=1.5)
    g = sc.gamma_threshold
    assert analytic_outage(sc) == pytest.approx(
        1.0 - math.exp(-g / sc.signal_mean), rel=1e-14
    )


def test_edge_cases():
    assert OutageScenario(rate_p=1.0).gamma_threshold == 1.0
    # Zero-rate link never drops below threshold 0.
    z = OutageScenario(p_mk=1.0, rate_p=0.0)
    assert z.gamma_threshold == 0.0
    assert analytic_outage(z) == 0.0
    # A silent primary with a positive threshold is always in outage.
    assert analytic_outage(OutageScenario(p_mk=0.0)) == 1.0
    with pytest.raises(ValueError):
        OutageScenario(noise_p=0.0)
    with pytest.raises(ValueError):
        OutageScenario(beta_sq_sec=-0.1)


def test_monotone_in_leakage():
    values = [
        analytic_outage(OutageScenario(p_mk=5.0, p0=10.0, beta_sq_sec=b))
        for b in np.linspace(0.0, 1.0, 25)
    ]
    assert all(b >= a for a, b in zip(values, values[1:]))


def test_paper_literal_agreement_domain():
    """The published expression matches only where threshold and noise
    are both one; elsewhere the repaired form diverges from it."""
    same = OutageScenario(p_mk=10.0, p0=1.0, beta_sq_sec=1.0,
                          noise_p=1.0, rate_p=1.0)
    assert outage_paper_literal(same) == pytest.approx(
        analytic_outage(same), rel=1e-14
    )
    other = OutageScenario(p_mk=10.0, p0=1.0, beta_sq_sec=1.0,
                           noise_p=1.0, rate_p=2.0)
    assert outage_paper_literal(other) != pytest.approx(
        analytic_outage(other), rel=1e-3
    )


def test_mc_closes_with_analytic():
    sc = OutageScenario(p_mk=10.0, p0=1.0, beta_sq_sec=1.0)
    est = mc_outage(sc, 200_000, np.random.default_rng(123))
    want = analytic_outage(sc)
    assert est.lo <= want <= est.hi
    assert est.half_width < 0.005


def test_mc_seed_behaviour():
    sc = OutageScenario(p_mk=3.0, p0=1.0, beta_sq_sec=0.3)
    a = mc_outage(sc, 10_000, 55)
    b = mc_outage(sc, 10_000, 55)
    c = mc_outage(sc, 10_000, 56)
    assert a == b
    assert a != c
