"""Primary-link outage: closed form vs quadrature and Monte Carlo."""

import math

import numpy as np
import pytest
from number_rule import REFUSED
from scipy.integrate import quad

import iqsense.outage as outage
from iqsense.montecarlo import OUTAGE_STREAM, SeedSpec, substream
from iqsense.stats import MAX_TRIALS
from iqsense.outage import (
    OutageScenario,
    analytic_outage,
    irr_to_beta_sq,
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
    # the SINR threshold 2**rate_p - 1 must be a float
    with pytest.raises(ValueError, match=r"^rate_p must be < 1024, .* got 2000\.0$"):
        OutageScenario(rate_p=2000)
    with pytest.raises(ValueError, match="^rate_p must be < 1024"):
        OutageScenario(rate_p=1024)
    top = OutageScenario(rate_p=math.nextafter(1024.0, 0.0))
    assert math.isfinite(top.gamma_threshold)
    assert analytic_outage(top) == outage_paper_literal(top) == 1.0
    # a signal mean that overflows is refused, as m1/(m1 + a*m2) would be
    # inf/inf; a finite one over an infinite interference mean has limit 1
    with pytest.raises(ValueError, match=r"^the signal mean p_mk\*var_g/noise_p overflows"):
        OutageScenario(noise_p=5e-324)
    leaky = OutageScenario(p_mk=1e-300, beta_sq_sec=1.0, noise_p=1e-310)
    assert leaky.interference_mean == math.inf
    assert analytic_outage(leaky) == outage_paper_literal(leaky) == 1.0
    keys = ("p_mk", "p0", "beta_sq_sec", "noise_p", "var_g", "var_h", "rate_p")
    for key in keys:
        for bad in REFUSED:
            with pytest.raises(ValueError, match=f"^{key} must be finite"):
                OutageScenario(**{key: bad})
    assert OutageScenario(p_mk=np.float64(2.0)).signal_mean == 2.0
    # numpy scalars are stored as the plain floats they hold
    sc = OutageScenario(*(np.float32(2.0), np.int64(3), np.float64(0.5), np.int8(2),
                          np.float16(1.5), np.uint16(4), np.float32(0.25)))
    assert [getattr(sc, k) for k in keys] == [2.0, 3.0, 0.5, 2.0, 1.5, 4.0, 0.25]
    assert all(type(getattr(sc, k)) is float for k in keys)
    # a numpy IRR maps to |beta|^2 in double precision, not in its own width
    beta_sq = irr_to_beta_sq(np.float32(-15.0))
    assert type(beta_sq) is float and beta_sq == irr_to_beta_sq(-15.0)


def test_mc_outage_at_a_zero_threshold_counts_no_outage():
    """A zero threshold never triggers outage, also where an interference
    draw overflows to inf (0*inf would be nan)."""
    sc = OutageScenario(p0=10.0, beta_sq_sec=irr_to_beta_sq(-15.0), var_h=1e308, rate_p=0.0)
    est = mc_outage(sc, 1000, substream(SeedSpec(1), OUTAGE_STREAM))
    assert est.value == 0.0 and est.lo == 0.0


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
    a = mc_outage(sc, 10_000, substream(SeedSpec(55), OUTAGE_STREAM))
    b = mc_outage(sc, 10_000, substream(SeedSpec(55), OUTAGE_STREAM))
    c = mc_outage(sc, 10_000, substream(SeedSpec(56), OUTAGE_STREAM))
    assert a == b
    assert a != c
    with pytest.raises(ValueError, match="^trials must be an int >= 1, got 0$"):
        mc_outage(sc, 0, substream(SeedSpec(55), OUTAGE_STREAM))
    for bad in REFUSED[:-1]:  # 10**400 is an int, refused by the bound below
        with pytest.raises(ValueError, match="^trials must be an int >= 1, got "):
            mc_outage(sc, bad, substream(SeedSpec(55), OUTAGE_STREAM))
    # 10**400 trials would start a run without end
    for bad in (MAX_TRIALS + 1, 10**400):
        with pytest.raises(ValueError, match=f"^trials must be <= {MAX_TRIALS}, got {bad}$"):
            mc_outage(sc, bad, substream(SeedSpec(55), OUTAGE_STREAM))
    assert mc_outage(sc, np.int64(10_000), substream(SeedSpec(55), OUTAGE_STREAM)) == a
    # An int or a bool is not seeded into a stream of its own.
    for seed in (55, True):
        with pytest.raises(ValueError, match="^rng must be a numpy.random.Generator, got "):
            mc_outage(sc, 10, seed)


def test_mc_outage_keeps_its_stream():
    """20,000 trials are one slice, so they make the calls of one whole
    draw of X1 then X2, and give the pinned failure count."""
    sc = OutageScenario(p_mk=3.0, p0=1.0, beta_sq_sec=0.3)
    est = mc_outage(sc, 20_000, substream(SeedSpec(55), OUTAGE_STREAM))
    assert round(est.value * 20_000) == 6959


class _RecordingGenerator(np.random.Generator):
    """A generator that records the size of every ``exponential`` call."""

    def __init__(self, seed):
        super().__init__(np.random.PCG64(seed))
        self.sizes = []

    def exponential(self, scale, size):
        self.sizes.append(size)
        return super().exponential(scale, size)


def test_mc_outage_draws_in_slices(monkeypatch):
    """With slices of 7,000 trials, 20,000 trials draw X1 then X2 in three
    slices, repeat exactly, and close on the closed form."""
    monkeypatch.setattr(outage, "_OUTAGE_SLICE", 7_000)
    sc = OutageScenario(p_mk=3.0, p0=1.0, beta_sq_sec=0.3)
    rng = _RecordingGenerator(55)
    est = mc_outage(sc, 20_000, rng)
    assert rng.sizes == [7_000, 7_000, 7_000, 7_000, 6_000, 6_000]
    assert mc_outage(sc, 20_000, _RecordingGenerator(55)) == est
    p = analytic_outage(sc)
    assert abs(est.value - p) <= 4.0 * math.sqrt(p * (1.0 - p) / 20_000)
