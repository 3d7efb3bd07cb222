"""Wilson interval behaviour, including the boundary corners, and the
row test against scipy's chi-square law."""

import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chi2

from iqsense.stats import Estimate, chi2_sf, row_pvalue, wilson_interval, worst_z

# The benchmark's checks hold the same row test written with scipy.
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import checks  # noqa: E402


def test_basic_interval():
    est = wilson_interval(50, 100)
    assert est.value == 0.5
    assert 0.40 < est.lo < 0.5 < est.hi < 0.60
    assert est.half_width == pytest.approx(0.5 * (est.hi - est.lo))


def test_boundary_corners():
    # Rounding at 0/n and n/n must never break the bracket invariant.
    zero = wilson_interval(0, 25_000)
    full = wilson_interval(25_000, 25_000)
    assert zero.lo == 0.0 and zero.value == 0.0 and zero.hi > 0.0
    assert full.hi == 1.0 and full.value == 1.0 and full.lo < 1.0


@given(
    trials=st.integers(min_value=1, max_value=10**7),
    frac=st.floats(min_value=0.0, max_value=1.0),
)
@settings(max_examples=300, deadline=None)
def test_bracket_property(trials, frac):
    successes = min(trials, int(round(frac * trials)))
    est = wilson_interval(successes, trials)
    assert 0.0 <= est.lo <= est.value <= est.hi <= 1.0


def test_domain():
    with pytest.raises(ValueError):
        wilson_interval(1, 0)
    with pytest.raises(ValueError):
        wilson_interval(5, 4)
    with pytest.raises(ValueError):
        Estimate(0.5, 0.6, 0.7)


@pytest.mark.parametrize("dof", [1, 2, 3])
def test_chi2_tail_matches_scipy(dof):
    x = np.concatenate([[0.0], np.geomspace(1e-6, 200.0, 400)])
    got = np.array([chi2_sf(float(v), dof) for v in x])
    want = chi2.sf(x, dof)
    assert np.allclose(got, want, rtol=1e-12, atol=1e-300)
    with pytest.raises(ValueError, match="dof"):
        chi2_sf(1.0, 4)


def test_row_pvalue_matches_scipy_on_random_rows():
    rng = np.random.default_rng(7)
    for _ in range(500):
        probs = rng.dirichlet(np.full(4, 0.3))
        probs[rng.random(4) < 0.15] = 0.0
        if probs.sum() == 0.0:
            continue
        probs /= probs.sum()
        n = int(rng.integers(1, 5000))
        observed = rng.multinomial(n, probs).tolist()
        if rng.random() < 0.3:  # off the law
            observed = rng.multinomial(n, rng.dirichlet(np.ones(4))).tolist()
        want = checks.row_pvalue(observed, probs)
        got = row_pvalue(observed, probs)
        assert got == pytest.approx(want, rel=1e-10, abs=1e-300)


def test_row_pvalue_pools_and_refuses_impossible_counts():
    assert row_pvalue([10, 0, 0, 0], [1.0, 0.0, 0.0, 0.0]) == 1.0  # one pooled cell
    assert row_pvalue([9, 1, 0, 0], [1.0, 0.0, 0.0, 0.0]) == 0.0  # a count where p = 0
    # 3 and 2 expected counts pool into the first cell with the 95 expected
    assert row_pvalue([3, 2, 95, 0], [0.03, 0.02, 0.95, 0.0]) == 1.0
    assert row_pvalue([500, 500, 0, 0], [0.5, 0.5, 0.0, 0.0]) == 1.0
    assert row_pvalue([600, 400, 0, 0], [0.5, 0.5, 0.0, 0.0]) < 1e-9


def test_worst_z_skips_certain_cells():
    assert worst_z([100, 0, 0, 0], [1.0, 0.0, 0.0, 0.0]) == 0.0
    assert worst_z([60, 40, 0, 0], [0.5, 0.5, 0.0, 0.0]) == pytest.approx(2.0)
