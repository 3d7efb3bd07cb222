"""Tests of the benchmark itself, at a tiny size.

Run with ``PYTHONPATH=src python -m pytest bench/test_bench.py``.
"""

import hashlib
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import run  # noqa: E402

DECLARED = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in DECLARED["workloads"]])
def test_every_declared_metric_is_printed_with_its_unit(workload, trace):
    r = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace), "--size", "tiny"],
        capture_output=True, text=True, timeout=170,
    )
    assert r.returncode == 0, r.stderr
    result = json.loads(r.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


def _sense_record(tmp_path):
    """A job record as run.run_job returns it, from an in-process CLI call."""
    import iqsense.cli

    spec = run.make_spec("sense-tx", 4, run.SIZES["tiny"])
    out = tmp_path / "out.csv"
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(dict(spec["config"], out=str(out))))
    assert iqsense.cli.main(["sense", "--config", str(cfg), "--seed", str(spec["seed"])]) == 0
    text = out.read_text()
    return spec, {
        "exit": 0, "rc": 0, "op_failed": [False], "out_text": text,
        "sha256": hashlib.sha256(text.encode()).hexdigest(),
    }


def _with_text(rec, text):
    return dict(rec, out_text=text, sha256=hashlib.sha256(text.encode()).hexdigest())


def test_correct_output_passes_and_a_repeat_matches(tmp_path):
    spec, rec = _sense_record(tmp_path)
    checker = run.Checker("sense-tx", spec)
    assert checker.failed_ops(rec) == (0, "")
    assert checker.failed_ops(dict(rec)) == (0, "")


def test_tally_with_one_count_removed_fails(tmp_path):
    spec, rec = _sense_record(tmp_path)
    lines = rec["out_text"].splitlines(keepends=True)
    i = next(i for i, line in enumerate(lines) if line.startswith("tally,H0,H0,"))
    fields = lines[i].split(",")
    fields[3] = str(int(fields[3]) - 1)
    lines[i] = ",".join(fields)
    checker = run.Checker("sense-tx", spec)
    assert checker.failed_ops(_with_text(rec, "".join(lines))) == (1, "tally rows")


def test_flipped_output_byte_fails(tmp_path):
    spec, rec = _sense_record(tmp_path)
    checker = run.Checker("sense-tx", spec)
    assert checker.failed_ops(rec) == (0, "")
    text = rec["out_text"]
    i = text.index("# seed=") + len("# seed=")
    flipped = text[:i] + chr(ord(text[i]) ^ 1) + text[i + 1:]
    assert checker.failed_ops(_with_text(rec, flipped)) == (
        1, "output differs from the run's first job")


def test_closure_accepts_exact_draws_and_rejects_a_shifted_row():
    probs = np.array([
        [0.70, 0.20, 0.09, 0.01],
        [0.30, 0.40, 0.25, 0.05],
        [0.05, 0.15, 0.60, 0.20],
        [0.01, 0.09, 0.40, 0.50],
    ])
    rng = np.random.default_rng(7)
    counts = [rng.multinomial(200_000, p).tolist() for p in probs]
    assert checks.closure_ok(counts, probs)
    shifted = [row[:] for row in counts]
    shifted[1][2] += 2_000  # 1% of the row moved from H1 to H2
    shifted[1][1] -= 2_000
    assert not checks.closure_ok(shifted, probs)
