"""Correctness checks on what one benchmark job produced.

Each function returns whether the outputs pass.  ``bench/run.py`` fails every
operation of a job that fails a check.  The statistical checks test the
Monte Carlo tallies against the closed forms only on rows whose Gamma law is
exact for the simulated model: H0, H1 and H2 (under H3 the direct and image
terms share one channel draw, so that row is a mixture; its worst z-score is
reported by :func:`worst_z` and never gated).

False-fail rates, per job on correct code:

* row sums, output bytes and exit codes are deterministic: 0;
* :func:`closure_ok` and :func:`pfa_closure_ok` are Bonferroni-combined over
  their rows or points at familywise level :data:`ALPHA` (1e-6), using the
  chi-square and normal approximations with at least
  :data:`MIN_EXPECTED` expected counts per pooled cell.
"""

from __future__ import annotations

import csv
import io
import math

ALPHA = 1e-6
MIN_EXPECTED = 5.0
EXACT_ROWS = (0, 1, 2)
NAMES = ("H0", "H1", "H2", "H3")


def rows_sum_to(counts, expected) -> bool:
    """Every tally row holds exactly the trials asked for under it."""
    return len(counts) == len(expected) and all(
        len(row) == 4 and all(c >= 0 for c in row) and sum(row) == want
        for row, want in zip(counts, expected)
    )


def row_pvalue(observed, probs) -> float:
    """Pearson chi-square p-value of one tally row against its closed form.

    Decision cells are pooled in order until each pooled cell expects at
    least :data:`MIN_EXPECTED` counts; a count in a cell of probability 0
    gives p = 0.
    """
    from scipy.stats import chi2

    n = sum(observed)
    bins: list[list[float]] = []
    o = e = 0.0
    for oi, pi in zip(observed, probs):
        if pi <= 0.0 and oi > 0:
            return 0.0
        o += oi
        e += n * pi
        if e >= MIN_EXPECTED:
            bins.append([o, e])
            o = e = 0.0
    if bins:
        bins[-1][0] += o
        bins[-1][1] += e
    if len(bins) < 2:
        return 1.0
    stat = sum((bo - be) ** 2 / be for bo, be in bins)
    return float(chi2.sf(stat, len(bins) - 1))


def closure_ok(counts, probs, rows=EXACT_ROWS, alpha=ALPHA) -> bool:
    """Familywise closure of the exact rows at level ``alpha``."""
    return all(row_pvalue(counts[r], probs[r]) >= alpha / len(rows) for r in rows)


def worst_z(observed, probs) -> float:
    """Largest |count - n p| / sqrt(n p (1 - p)) over the cells of one row."""
    n = sum(observed)
    z = 0.0
    for oi, pi in zip(observed, probs):
        if 0.0 < pi < 1.0:
            z = max(z, abs(oi - n * pi) / math.sqrt(n * pi * (1.0 - pi)))
    return z


def pfa_z(pfa_est: float, n: int, probs) -> float:
    """z-score of an empirical paper-sum false alarm, P(busy|H0) +
    P(busy|H1) from ``n`` trials per row, against its closed form."""
    p0 = probs[0][2] + probs[0][3]
    p1 = probs[1][2] + probs[1][3]
    var = (p0 * (1.0 - p0) + p1 * (1.0 - p1)) / n
    if var == 0.0:
        return 0.0 if pfa_est == p0 + p1 else math.inf
    return (pfa_est - (p0 + p1)) / math.sqrt(var)


def pfa_closure_ok(zs, alpha=ALPHA) -> bool:
    """Two-sided familywise test of several false-alarm z-scores."""
    from scipy.stats import norm

    crit = float(norm.isf(alpha / (2 * len(zs))))
    return all(abs(z) <= crit for z in zs)


def read_csv(text: str) -> list[dict]:
    """Rows of an iqsense CSV output, without its ``#`` provenance lines."""
    body = "".join(line for line in io.StringIO(text) if not line.startswith("#"))
    return list(csv.DictReader(io.StringIO(body)))


def sense_tally(rows: list[dict]) -> list[list[int]]:
    """The 4x4 tally printed by ``iqsense sense``."""
    counts = [[0] * 4 for _ in range(4)]
    seen = 0
    for row in rows:
        if row["record"] == "tally":
            counts[NAMES.index(row["truth"])][NAMES.index(row["decided"])] = int(row["count"])
            seen += 1
    if seen != 16:
        raise ValueError(f"expected 16 tally rows, got {seen}")
    return counts
