"""Acceptance gate: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdicts.
Budgets are generous on a workstation; every random draw is fixed by an
explicit seed so the whole gate is reproducible bit for bit.
"""

import math
import subprocess
import sys
import time

import mpmath
import numpy as np
from scipy.stats import gamma as gamma_dist
from scipy.stats import kstest

from iqsense.detection import (
    DetectorMode,
    HypothesisVariances,
    classify_batch,
    conditional_probabilities,
    decision_rule,
    pairwise_threshold,
)
from iqsense.montecarlo import (
    SeedSpec,
    SensingScenario,
    _statistic_batch,
    compare_modes,
    empirical_metrics,
    run_trials,
    scenario_rule,
    scenario_variances,
    substream,
)
from iqsense.numerics import gamma_pdf, regularized_upper_gamma
from iqsense.outage import OutageScenario, analytic_outage, mc_outage
from iqsense.signal_model import IqMismatch, irr_to_mismatch

mpmath.mp.dps = 40

# The operating point all headline figures share: -15 dB transmitter
# IRR, SNR2 = -10 dB, single-packet statistic, 16-PSK, unit noise.
PAPER_POINT = dict(snr2_db=-10.0, tx_mismatch=irr_to_mismatch(-15.0), n_packets=1)


def _verdict(num: int, ok: bool, detail: str):
    print(f"\ncriterion {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_gamma_tail_oracle():
    """Erlang tail matches mpmath to 1e-12 relative, fast."""
    rng = np.random.default_rng(101)
    cases = [
        (int(rng.integers(1, 51)), float(rng.uniform(0.0, 100.0)))
        for _ in range(1000)
    ]
    oracle = [
        float(mpmath.gammainc(n, x, mpmath.inf, regularized=True))
        for n, x in cases
    ]
    t0 = time.perf_counter()
    got = [regularized_upper_gamma(n, x) for n, x in cases]
    dt = time.perf_counter() - t0
    worst = max(abs(g - w) / w for g, w in zip(got, oracle))
    ok = worst <= 1e-12 and dt < 1.0
    _verdict(1, ok, f"worst relative error {worst:.3e} over 1000 cases "
                    f"(N<=50, x<=100), eval time {dt:.3f}s")


def test_criterion_02_statistic_distribution():
    """Simulated Z follows the per-hypothesis Gamma law (KS < 0.006)."""
    t0 = time.perf_counter()
    worst = 0.0
    detail = []
    for n_packets in (1, 4):
        sc = SensingScenario.from_snr(0.0, **{**PAPER_POINT, "n_packets": n_packets})
        v = scenario_variances(sc)
        tx_c, rx_c = sc.coefficients
        for hyp, s in enumerate(v.as_tuple()):
            rng = substream(SeedSpec(202), 9, n_packets, hyp)
            z = _statistic_batch(sc, tx_c, rx_c, hyp, 100_000, rng)
            law = gamma_dist(a=n_packets, scale=2.0 * s / n_packets)
            ks = kstest(z, law.cdf).statistic
            worst = max(worst, ks)
            detail.append(f"N={n_packets} H{hyp}: {ks:.4f}")
    dt = time.perf_counter() - t0
    ok = worst < 0.006 and dt < 30.0
    _verdict(2, ok, f"max KS distance {worst:.4f} over 8 laws at 1e5 samples "
                    f"({'; '.join(detail)}), {dt:.1f}s")


def test_criterion_03_threshold_ordering():
    """All three ordering chains hold for 1e4 random ordered quadruples."""
    rng = np.random.default_rng(303)
    t0 = time.perf_counter()
    checked = 0
    while checked < 10_000:
        vs = np.sort(rng.uniform(0.05, 5.0, size=4))
        if np.min(np.diff(vs)) < 1e-4 * vs[3]:
            continue
        t = {
            (i, j): pairwise_threshold(float(vs[j]), float(vs[i]))
            for i in range(4)
            for j in range(i + 1, 4)
        }
        assert t[0, 1] <= t[0, 2] <= t[0, 3]
        assert t[0, 2] <= t[1, 2] <= t[1, 3]
        assert t[0, 3] <= t[1, 3] <= t[2, 3]
        rule = decision_rule(HypothesisVariances(*vs), 1)
        assert rule.boundaries[0] < rule.boundaries[1] < rule.boundaries[2]
        checked += 1
    dt = time.perf_counter() - t0
    ok = dt < 5.0
    _verdict(3, ok, f"3 chains + strict threshold ordering on {checked} "
                    f"random quadruples, {dt:.1f}s")


def test_criterion_04_classifier_is_ml():
    """classify equals the four-density argmax on 1e3-point grids for
    1e2 random scenarios (boundary points go to the upper region)."""
    rng = np.random.default_rng(404)
    t0 = time.perf_counter()
    scenarios = 0
    points = 0
    while scenarios < 100:
        vs = np.sort(rng.uniform(0.05, 4.0, size=4))
        if np.min(np.diff(vs)) < 1e-3 * vs[3]:
            continue
        n = int(rng.integers(1, 9))
        v = HypothesisVariances(*vs)
        rule = decision_rule(v, n)
        z = np.linspace(1e-4, 4.0 * vs[3], 1000)
        dens = np.stack([gamma_pdf(n, 2.0 * s / n, z) for s in vs])
        ml = np.argmax(dens, axis=0)
        got = classify_batch(z, rule)
        off = np.all(np.abs(z[:, None] - np.array(rule.boundaries)) > 1e-9, axis=1)
        assert np.array_equal(got[off], ml[off])
        # On a boundary the documented rule picks the upper region.
        at_bounds = classify_batch(np.array(rule.boundaries), rule)
        assert at_bounds.tolist() == [int(h) for h in rule.levels[1:]]
        scenarios += 1
        points += int(np.count_nonzero(off))
    dt = time.perf_counter() - t0
    ok = dt < 10.0
    _verdict(4, ok, f"ML-partition agreement at {points} grid points over "
                    f"{scenarios} scenarios, {dt:.1f}s")


def _closure_worst_z(sc: SensingScenario, trials: int, seed, stream_path=()):
    v = scenario_variances(sc)
    rule = scenario_rule(sc)
    tally = run_trials(sc, trials, seed, rule=rule, stream_path=stream_path)
    probs = conditional_probabilities(v, rule)
    rates = tally.conditional_rates()
    worst = 0.0
    for i in range(4):
        for j in range(4):
            p = probs[i, j]
            se = math.sqrt(p * (1.0 - p) / trials)
            gap = abs(rates[i, j] - p)
            if se == 0.0:
                assert gap == 0.0
                continue
            worst = max(worst, gap / se)
    return worst


def test_criterion_05_closure():
    """All 16 conditional rates within 3 binomial SE of the closed
    forms at 1e6 trials/hypothesis: headline point + 19 random ones."""
    t0 = time.perf_counter()
    trials = 1_000_000
    scenarios = [SensingScenario.from_snr(0.0, **PAPER_POINT)]
    # The random box spans the strong-mismatch regime (IRR <= -12 dB).
    # The occupied-plus-image law is a symbol-averaged Gamma; for weaker
    # rejection its symbol-mixture spread biases small tail cells past
    # the 3-SE resolution of a 1e6-trial check, so closure there tests
    # the approximation, not the implementation.
    rng = np.random.default_rng(505)
    while len(scenarios) < 20:
        scenarios.append(
            SensingScenario.from_snr(
                float(rng.uniform(-10.0, 10.0)),
                -10.0,
                tx_mismatch=irr_to_mismatch(float(rng.uniform(-30.0, -12.0))),
                n_packets=int(rng.choice([1, 2, 4, 8])),
            )
        )
    worst = 0.0
    for i, sc in enumerate(scenarios):
        z = _closure_worst_z(sc, trials, SeedSpec(552), stream_path=(i,))
        worst = max(worst, z)
    dt = time.perf_counter() - t0
    ok = worst <= 3.0 and dt < 300.0
    _verdict(5, ok, f"worst |empirical-analytic| = {worst:.2f} SE over "
                    f"{len(scenarios)} scenarios x 16 cells at 1e6 trials/hyp, "
                    f"{dt:.1f}s")


def test_criterion_06_four_vs_two_level():
    """Prior-weighted false alarm of the four-level rule beats the
    two-level Bayes baseline at every IRR, by more than the paired 95%
    interval of the gap on common random numbers."""
    t0 = time.perf_counter()
    base = SensingScenario.from_snr(0.0, **PAPER_POINT)
    details = []
    ok = True
    for i, irr in enumerate((-25.0, -20.0, -15.0, -10.0)):
        cmp = compare_modes(
            base.with_irr(irr),
            DetectorMode.four_level(),
            DetectorMode.two_level_bayes(),
            1_000_000,
            SeedSpec(660),
            stream_path=(i,),
        )
        gap = cmp.p_fa_gap("prior-weighted")  # two-level minus four-level
        ok = ok and gap.value > 0.0 and gap.lo > 0.0
        details.append(f"{irr:g}dB: gap {gap.value:.2e} "
                       f"[{gap.lo:.2e}, {gap.hi:.2e}]")
    dt = time.perf_counter() - t0
    ok = ok and dt < 300.0
    _verdict(6, ok, f"p_fa(four) < p_fa(two-level Bayes) with CI-positive "
                    f"paired gaps at 1e6 trials/hyp ({'; '.join(details)}), "
                    f"{dt:.1f}s")


def test_criterion_07_delta_snr_sensitivity():
    """At -15 dB IRR and Delta-SNR = -10 dB (strong mirror), the
    four-level false alarm exceeds the ideal-front-end baseline by far
    more than five baseline CI half-widths."""
    t0 = time.perf_counter()
    trials = 1_000_000
    dirty = SensingScenario.from_snr(
        10.0, 20.0, tx_mismatch=irr_to_mismatch(-15.0), n_packets=1
    )
    ideal = SensingScenario.from_snr(
        10.0, 20.0, tx_mismatch=IqMismatch.ideal(), n_packets=1
    )
    m_dirty = empirical_metrics(
        run_trials(dirty, trials, SeedSpec(770)), "prior-weighted"
    )
    m_ideal = empirical_metrics(
        run_trials(ideal, trials, SeedSpec(771)), "prior-weighted"
    )
    gap = m_dirty.p_fa.value - m_ideal.p_fa.value
    need = 5.0 * m_ideal.p_fa.half_width
    dt = time.perf_counter() - t0
    ok = gap > need and dt < 120.0
    _verdict(7, ok, f"p_fa {m_dirty.p_fa.value:.4f} (imbalanced) vs "
                    f"{m_ideal.p_fa.value:.4f} (ideal): gap {gap:.4f} > "
                    f"5 x baseline half-width {need:.2e}, {dt:.1f}s")


def test_criterion_08_joint_rx_degradation():
    """Adding an equally dirty sensing receiver lowers detection with a
    CI-separated gap; an ideal receiver reproduces Tx-only within CI."""
    t0 = time.perf_counter()
    trials = 1_000_000
    seed = SeedSpec(880)
    tx_only = SensingScenario.from_snr(0.0, **PAPER_POINT)
    joint = SensingScenario.from_snr(
        0.0, **{**PAPER_POINT, "rx_mismatch": irr_to_mismatch(-15.0)}
    )
    rx_ideal = SensingScenario.from_snr(
        0.0, **{**PAPER_POINT, "rx_mismatch": IqMismatch.ideal()}
    )
    # Common random numbers: the same trial substreams drive all three,
    # so rule differences are isolated from sampling noise.
    pd = {}
    for name, sc in (("tx", tx_only), ("joint", joint), ("rx_ideal", rx_ideal)):
        tally = run_trials(sc, trials, seed)
        pd[name] = empirical_metrics(tally, "prior-weighted").p_d
    separated = pd["tx"].lo > pd["joint"].hi
    coincide = (
        abs(pd["rx_ideal"].value - pd["tx"].value)
        <= pd["rx_ideal"].half_width + pd["tx"].half_width
    )
    dt = time.perf_counter() - t0
    ok = separated and coincide and dt < 180.0
    _verdict(8, ok, f"P_D tx {pd['tx'].value:.5f} > joint {pd['joint'].value:.5f} "
                    f"(CI-separated: {separated}); ideal-rx gap "
                    f"{abs(pd['rx_ideal'].value - pd['tx'].value):.2e} within CI "
                    f"({coincide}), {dt:.1f}s")


def test_criterion_09_outage():
    """Monte Carlo outage matches the closed form within 3 SE for 100
    random scenarios; outage is monotone in the leakage power; the
    zero-leakage limit is exact."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(909)
    trials = 1_000_000
    worst = 0.0
    for i in range(100):
        sc = OutageScenario(
            p_mk=float(rng.uniform(0.2, 20.0)),
            p0=float(rng.uniform(0.2, 20.0)),
            beta_sq_sec=float(rng.uniform(0.0, 0.4)),
            noise_p=float(rng.uniform(0.25, 2.0)),
            var_g=float(rng.uniform(0.25, 2.0)),
            var_h=float(rng.uniform(0.25, 2.0)),
            rate_p=float(rng.uniform(0.1, 3.0)),
        )
        p = analytic_outage(sc)
        est = mc_outage(sc, trials, substream(SeedSpec(990), i))
        se = math.sqrt(p * (1.0 - p) / trials)
        worst = max(worst, abs(est.value - p) / se if se else 0.0)
    mono = [
        analytic_outage(OutageScenario(p_mk=10.0, p0=10.0,
                                       beta_sq_sec=10.0 ** (irr / 10.0)))
        for irr in np.arange(-30.0, -4.9, 2.5)
    ]
    monotone = all(b >= a for a, b in zip(mono, mono[1:]))
    base = OutageScenario(p_mk=7.0, p0=3.0, beta_sq_sec=0.0, rate_p=1.7)
    g = base.gamma_threshold
    limit_err = abs(
        analytic_outage(base) - (1.0 - math.exp(-g / base.signal_mean))
    )
    dt = time.perf_counter() - t0
    ok = worst <= 3.0 and monotone and limit_err <= 1e-12 and dt < 120.0
    _verdict(9, ok, f"worst MC deviation {worst:.2f} SE over 100 scenarios at "
                    f"1e6 trials; monotone in |beta|^2: {monotone}; "
                    f"zero-leakage limit error {limit_err:.1e}, {dt:.1f}s")


def test_criterion_10_byte_determinism(tmp_path):
    """cmd_sense output is byte-identical across runs and worker counts."""
    t0 = time.perf_counter()
    outs = []
    for name, workers in (("a", 1), ("b", 1), ("c", 4)):
        out = tmp_path / f"{name}.csv"
        r = subprocess.run(
            [sys.executable, "-m", "iqsense", "sense",
             "--trials", "100000", "--seed", "424242",
             "--workers", str(workers), "--out", str(out)],
            capture_output=True, text=True, timeout=120,
        )
        assert r.returncode == 0, r.stderr
        outs.append(out.read_bytes())
    dt = time.perf_counter() - t0
    ok = outs[0] == outs[1] == outs[2] and dt < 60.0
    _verdict(10, ok, f"three runs (workers 1, 1, 4) byte-identical: "
                     f"{outs[0] == outs[1] == outs[2]}, {dt:.1f}s")
