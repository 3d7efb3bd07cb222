"""Benchmark of iqsense: three workloads, end-to-end metrics and a traced run.

Usage::

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from anywhere inside a checkout; it imports iqsense from ``src/``
and writes its working files only under ``.bench_out/``.  The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it give provenance and a
readable summary.  See ``bench/README.md`` for the workloads and metrics.

Load shape: a closed loop.  This process starts one job at a time, each a
fresh interpreter running ``bench/job.py``, and starts the next when it has
ended, until ``--seconds`` have passed and at least :data:`MIN_JOBS` jobs
have run.  Every job of a run gets the same inputs, generated from
``--seed``, so each one repeats the first and must reproduce its output
bytes.  Jobs that use a process pool run with :data:`POOL_WORKERS` workers.

``--trace 1`` runs, per cycle, an untraced serial job, a traced serial job
and (for pool workloads) an untraced pooled job, and prints the per-layer
metrics instead of the end-to-end ones.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_out"
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402

POOL_WORKERS = 2
MIN_JOBS = 3
RUN_LIMIT_S = 160.0  # jobs still running this long after the start are killed
N_SUBCARRIERS = 2048
# numpy's BLAS would start a thread per core at import; iqsense does no
# linear algebra, and the load shape allows no threads besides the pool.
JOB_ENV = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")

# Work per job.  "tiny" exists for the benchmark's own tests.
SIZES = {
    "full": {"sense_trials": 500_000, "figure_points": 2, "figure_trials": 20_000,
             "frames": 100},
    "tiny": {"sense_trials": 2_000, "figure_points": 1, "figure_trials": 1_000,
             "frames": 3},
}

WORKLOADS = {
    "sense-tx": {"kind": "cli", "pool": True, "unit": "trial"},
    "figure-joint": {"kind": "cli", "pool": True, "unit": "point"},
    "frame-scan": {"kind": "frames", "pool": False, "unit": "frame"},
}

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "work_per_s": "1/s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "cli.main_s": "s",
    "cli.self_s": "s",
    "cli.bytes_out": "bytes",
    "config.parse_s": "s",
    "config.hash_s": "s",
    "setup.import_s": "s",
    "montecarlo.trials": "count",
    "montecarlo.chunks": "count",
    "montecarlo.self_s": "s",
    "montecarlo.calibration_s": "s",
    "montecarlo.calibration_samples": "count",
    "montecarlo.calibration_share": "ratio",
    "montecarlo.parallel_efficiency": "ratio",
    "signal_model.draw_s": "s",
    "signal_model.draw_calls": "count",
    "signal_model.normals": "count",
    "signal_model.ns_per_normal": "ns",
    "signal_model.receive_s": "s",
    "signal_model.receive_calls": "count",
    "detection.classify_s": "s",
    "detection.classify_calls": "count",
    "detection.rule_s": "s",
    "detection.closed_form_s": "s",
    "detection.variances_s": "s",
    "detection.h3_closure_z": "z",
    "numerics.gamma_sf_s": "s",
    "numerics.gamma_sf_calls": "count",
    "frame.simulate_s": "s",
    "frame.self_s": "s",
    "frame.subcarriers": "count",
    "trace.overhead_ratio": "ratio",
    "trace.unaccounted_share": "ratio",
}


def program_seed(workload: str, seed: int) -> int:
    digest = hashlib.sha256(f"{workload}:{seed}".encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def make_spec(workload: str, seed: int, size: dict) -> dict:
    """Inputs of one workload: every job of a run shares them."""
    pseed = program_seed(workload, seed)
    rng = random.Random(pseed)
    if workload == "sense-tx":
        return {
            "kind": "cli",
            "command": ["sense"],
            "config": {
                "scenario": {"snr1_db": 0.0, "snr2_db": -10.0, "tx_irr_db": -15.0,
                             "n_packets": 4},
                "trials": size["sense_trials"],
                "format": "csv",
            },
            "seed": pseed,
        }
    if workload == "figure-joint":
        grid = sorted(round(rng.uniform(-30.0, -5.0), 1) for _ in range(size["figure_points"]))
        return {
            "kind": "cli",
            "command": ["figure", "5"],
            "config": {
                "scenario": {"snr1_db": 0.0, "snr2_db": -10.0, "tx_irr_db": -15.0},
                "trials": size["figure_trials"],
                "figure": {"irr_grid": grid},
                "format": "csv",
            },
            "seed": pseed,
        }
    snr = round(rng.uniform(0.0, 6.0), 2)
    return {
        "kind": "frames",
        "config": {
            "scenario": {"snr1_db": snr, "snr2_db": snr,
                         "tx_irr_db": round(rng.uniform(-20.0, -10.0), 2)},
            "seed": pseed,
        },
        "n_subcarriers": N_SUBCARRIERS,
        "frames": size["frames"],
        "occupancy_seed": rng.getrandbits(63),
    }


# --------------------------------------------------------------------------
# running one job


class _Timeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise _Timeout


def _end_group(pgid: int):
    """Kill what is left of a job's process group and wait for it to go."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)


def run_job(spec: dict, job_dir: Path, *, workers: int, trace: bool, timeout: float) -> dict:
    """Start one child, wait for it, and return its record plus the times
    and peak memory seen from here."""
    job_dir.mkdir(parents=True)
    spec = dict(spec, trace=trace)
    if spec["kind"] == "cli":
        out = job_dir / "out.csv"
        cfg_path = job_dir / "config.json"
        cfg_path.write_text(json.dumps(dict(spec["config"], workers=workers, out=str(out))))
        spec["argv"] = [*spec["command"], "--config", str(cfg_path), "--seed", str(spec["seed"])]
        spec["out"] = str(out)
    spec_path = job_dir / "spec.json"
    rec_path = job_dir / "record.json"
    spec_path.write_text(json.dumps(spec))
    with open(job_dir / "stdout.txt", "wb") as so, open(job_dir / "stderr.txt", "wb") as se:
        old = signal.signal(signal.SIGALRM, _on_alarm)
        t_spawn = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(BENCH / "job.py"), str(spec_path), str(rec_path)],
            stdout=so, stderr=se, cwd=ROOT, env=JOB_ENV, start_new_session=True,
        )
        timed_out = False
        signal.setitimer(signal.ITIMER_REAL, timeout)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except _Timeout:
            timed_out = True
            os.killpg(proc.pid, signal.SIGKILL)
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, old)
        t_exit = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    _end_group(proc.pid)
    rec = json.loads(rec_path.read_text()) if rec_path.exists() else {"rc": None}
    rec.update({
        "dir": str(job_dir),
        "exit": proc.returncode,
        "timed_out": timed_out,
        "t_spawn": t_spawn,
        "wall_s": t_exit - t_spawn,
        "rss_mb": usage.ru_maxrss / 1024.0,  # largest process of the tree
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "workers": workers,
        "trace": trace,
    })
    if rec.get("t_first") is not None:
        rec["setup_s"] = rec["t_first"] - t_spawn
    if spec["kind"] == "cli" and Path(spec["out"]).exists():
        rec["out_text"] = Path(spec["out"]).read_text()
    return rec


# --------------------------------------------------------------------------
# checking one job


class Checker:
    """Correctness checks of one workload's jobs against the closed forms
    and against the run's first job."""

    def __init__(self, workload: str, spec: dict):
        self.workload = workload
        self.spec = spec
        self.reference: str | None = None
        self.h3_z: list[float] = []
        self._probs = None
        self.ops = spec["frames"] if spec["kind"] == "frames" else 1

    def _scenario_probs(self):
        if self._probs is None:
            from iqsense import conditional_probabilities, scenario_rule, scenario_variances
            from iqsense.config import parse_config

            sc = parse_config(self.spec["config"]).scenario
            self._probs = conditional_probabilities(scenario_variances(sc), scenario_rule(sc))
        return self._probs

    def failed_ops(self, rec: dict) -> tuple[int, str]:
        """(failed operations, reason) for one job."""
        ok, why = self._job_ok(rec)
        if not ok:
            return self.ops, why
        bad = sum(rec["op_failed"])
        return bad, "per-operation check failed" if bad else ""

    def _job_ok(self, rec: dict) -> tuple[bool, str]:
        if rec.get("timed_out"):
            return False, "timed out"
        if rec["exit"] != 0 or rec.get("rc") != 0:
            return False, f"exit {rec['exit']}, rc {rec.get('rc')}"
        if len(rec["op_failed"]) != self.ops:
            return False, "operation count"
        if self.reference is None:
            self.reference = rec["sha256"]
        elif rec["sha256"] != self.reference:
            return False, "output differs from the run's first job"
        if self.workload == "sense-tx":
            counts = checks.sense_tally(checks.read_csv(rec["out_text"]))
            trials = self.spec["config"]["trials"]
            if not checks.rows_sum_to(counts, [trials] * 4):
                return False, "tally rows"
            probs = self._scenario_probs()
            self.h3_z.append(checks.worst_z(counts[3], probs[3]))
            if not checks.closure_ok(counts, probs):
                return False, "closure of rows H0-H2"
            return True, ""
        if self.workload == "figure-joint":
            return self._figure_ok(rec)
        if self.workload == "frame-scan":
            counts = rec["confusion"]
            probs = self._scenario_probs()
            self.h3_z.append(checks.worst_z(counts[3], probs[3]))
            if not checks.closure_ok(counts, probs):
                return False, "pooled closure of rows H0-H2"
        return True, ""

    def _figure_ok(self, rec: dict) -> tuple[bool, str]:
        from iqsense import DecisionRule, Hypothesis, HypothesisVariances
        from iqsense import conditional_probabilities

        rows = checks.read_csv(rec["out_text"])
        points = rec["tallies"]
        trials = self.spec["config"]["trials"]
        if len(rows) != len(points) or len(rows) != 2 * len(self.spec["config"]["figure"]["irr_grid"]):
            return False, "figure row count"
        zs, h3 = [], 0.0
        for row, pt in zip(rows, points):
            if not checks.rows_sum_to(pt["counts"], [trials] * 4):
                return False, "tally rows"
            rule = DecisionRule(
                tuple(pt["boundaries"]),
                tuple(Hypothesis(h) for h in pt["levels"]),
                tuple(tuple(Hypothesis(h) for h in g) for g in pt["merged"]),
                pt["n_packets"],
            )
            probs = conditional_probabilities(HypothesisVariances(*pt["variances"]), rule)
            zs.append(checks.pfa_z(float(row["pfa_paper"]), trials, probs))
            h3 = max(h3, checks.worst_z(pt["counts"][3], probs[3]))
        self.h3_z.append(h3)
        if not checks.pfa_closure_ok(zs):
            return False, "p_fa closure"
        return True, ""


# --------------------------------------------------------------------------
# metrics


def _median(xs):
    return statistics.median_low(xs) if xs else 0.0


def work_units(workload: str, rec: dict) -> int:
    if workload == "sense-tx":
        return trials_tallied(rec)
    if workload == "figure-joint":
        return len(rec["tallies"])
    return len(rec["op_ms"])


def busy_s(workload: str, rec: dict) -> float:
    """Time a job spent in its operations: the frames, or
    the CLI call's trial phase (``run_trials`` or ``sweep``).  Set-up, the
    benchmark's own bookkeeping between operations and the interpreter's
    exit are not operations."""
    if WORKLOADS[workload]["kind"] == "cli":
        return rec["phase_s"]
    return sum(rec["op_ms"]) / 1e3


def trials_tallied(rec: dict) -> int:
    return sum(sum(sum(row) for row in t["counts"]) for t in rec.get("tallies", []))


def end_to_end(workload: str, jobs: list[dict]) -> dict:
    """End-to-end metrics over the jobs that passed their checks."""
    ok = [j for j in jobs if j["ok"]]
    return {
        "setup_s": _median([j["setup_s"] for j in ok]),
        "wall_s": _median([j["wall_s"] for j in ok]),
        # a ratio of sums: the host's speed drifts, and a mean tracks the
        # share of the run spent slow more smoothly than a median does
        "work_per_s": sum(work_units(workload, j) for j in ok)
        / sum(busy_s(workload, j) for j in ok) if ok else 0.0,
        "peak_rss_mb": _median([j["rss_mb"] for j in ok]),
    }


def _percentile(xs: list[float], q: float) -> float:
    xs = sorted(xs)
    return xs[min(len(xs) - 1, int(q * len(xs)))]


def per_layer(workload: str, spec: dict, cycles: list[dict], h3_z: float) -> dict:
    """Per-layer metrics: medians over the cycles whose jobs all passed."""
    rows = []
    for cyc in cycles:
        if not all(j["ok"] for j in cyc.values()):
            continue
        tr, serial, pooled = cyc["traced"], cyc["serial"], cyc.get("pooled")
        layers, counts = tr["layers"], tr["counts"]
        trials = trials_tallied(tr)
        n_packets = spec.get("config", {}).get("scenario", {}).get("n_packets", 1)
        cal = counts.get("calibration_samples", 0)
        drawn = cal + trials * n_packets
        normals = counts.get("normals", 0)
        traced_wall = tr["t_end"] - tr["t_spawn"]
        m = {key: layers.get(key, 0.0) for key in PER_LAYER}
        m.update({
            "cli.bytes_out": tr.get("bytes_out", 0),
            "setup.import_s": tr["import_s"],
            "montecarlo.trials": trials,
            "montecarlo.chunks": counts.get("chunks", 0),
            "montecarlo.calibration_samples": cal,
            "montecarlo.calibration_share": cal / drawn if drawn else 0.0,
            "montecarlo.parallel_efficiency": (
                serial["phase_s"] / pooled["phase_s"] / POOL_WORKERS if pooled else 0.0
            ),
            "signal_model.draw_calls": counts.get("draw_calls", 0),
            "signal_model.normals": normals,
            "signal_model.ns_per_normal": (
                layers["signal_model.draw_s"] / normals * 1e9 if normals else 0.0
            ),
            "detection.h3_closure_z": h3_z,
            "frame.subcarriers": len(tr["op_ms"]) * spec["n_subcarriers"]
            if spec["kind"] == "frames" else 0,
            "trace.overhead_ratio": traced_wall / (serial["t_end"] - serial["t_spawn"]),
            "trace.unaccounted_share": 1.0 - layers["covered_s"] / traced_wall,
        })
        rows.append(m)
    return {key: _median([r[key] for r in rows]) for key in PER_LAYER}


# --------------------------------------------------------------------------
# provenance and output


def provenance(args) -> dict:
    import multiprocessing

    import numpy
    import scipy

    commit = "unknown"  # the checkout may not be a git repository
    try:
        if (ROOT / ".git").exists():
            r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                               text=True, timeout=30)
            if r.returncode == 0:
                commit = r.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "commit": commit,
        "cpu_count": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "start_method": multiprocessing.get_context().get_start_method(),
        "pool_workers": POOL_WORKERS,
        "machine": platform.machine(),
    }


def run(args) -> tuple[dict, dict]:
    wl = WORKLOADS[args.workload]
    spec = make_spec(args.workload, args.seed, SIZES[args.size])
    run_dir = WORK / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    if run_dir.exists():
        shutil.rmtree(run_dir)
    checker = Checker(args.workload, spec)
    workers = POOL_WORKERS if wl["pool"] else 1
    jobs: list[dict] = []
    cycles: list[dict] = []
    attempted = failed = 0
    reasons: list[str] = []
    t0 = time.monotonic()

    def one(name: str, **kw) -> dict:
        nonlocal attempted, failed
        timeout = max(1.0, RUN_LIMIT_S - (time.monotonic() - t0))
        rec = run_job(spec, run_dir / f"{len(jobs):03d}-{name}", timeout=timeout, **kw)
        bad, why = checker.failed_ops(rec)
        attempted += checker.ops
        failed += bad
        rec["ok"] = bad == 0
        if why:
            reasons.append(f"{Path(rec['dir']).name}: {why}")
        jobs.append(rec)
        return rec

    def more(short: bool) -> bool:
        if any(j["timed_out"] for j in jobs):
            return False
        return short or time.monotonic() - t0 < args.seconds

    if not args.trace:
        while more(len(jobs) < MIN_JOBS):
            one("job", workers=workers, trace=False)
    else:
        while more(not cycles):
            cyc = {"serial": one("serial", workers=1, trace=False),
                   "traced": one("traced", workers=1, trace=True)}
            if wl["pool"]:
                cyc["pooled"] = one("pooled", workers=POOL_WORKERS, trace=False)
            cycles.append(cyc)
    h3_z = max(checker.h3_z, default=0.0)
    if args.trace:
        metrics = per_layer(args.workload, spec, cycles, h3_z)
        units = PER_LAYER
    else:
        metrics = end_to_end(args.workload, jobs)
        units = END_TO_END
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    op_ms = [x for j in jobs if not j["trace"] for x in j.get("op_ms", [])]
    summary = {
        "jobs": len(jobs),
        "fail_ratio": failed / attempted,
        "fail_reasons": reasons,
        "work_unit": wl["unit"],
        "sha256": checker.reference,
        "detection.h3_closure_z": h3_z,
        "setup_s_all": [j.get("setup_s") for j in jobs],
        "wall_s_all": [j["wall_s"] for j in jobs],
        "cpu_s_all": [j["cpu_s"] for j in jobs],
    }
    if spec["kind"] != "cli" and op_ms:
        summary.update({
            "op_p50_ms": _percentile(op_ms, 0.5),
            "op_p90_ms": _percentile(op_ms, 0.9),
            "op_samples": len(op_ms),
        })
    if spec["kind"] == "cli":
        busy = [j for j in jobs if j["ok"]]
        summary["trials_per_s"] = _median([trials_tallied(j) / j["phase_s"] for j in busy])
        summary["trial_phase_s"] = _median([j["phase_s"] for j in busy])
    if args.trace:
        trace_wall = _median([c["traced"]["wall_s"] for c in cycles])
        summary["share_of_traced_wall"] = {
            k: metrics[k] / trace_wall
            for k in PER_LAYER if PER_LAYER[k] == "s" and metrics[k] > 0
        }
    if failed == 0:
        shutil.rmtree(run_dir, ignore_errors=True)
    return result, summary


def record(path: Path, prov: dict, result: dict, summary: dict):
    doc = json.loads(path.read_text()) if path.exists() else {"runs": {}}
    key = f"{prov['workload']}/trace{prov['trace']}"
    doc["runs"][key] = {"provenance": prov, "summary": summary, "result": result}
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    p.add_argument("--size", default="full", choices=sorted(SIZES))
    p.add_argument("--record", metavar="PATH", help="also merge the result into this JSON file")
    args = p.parse_args(argv)
    if not (SRC / "iqsense" / "__init__.py").is_file():
        print(f"error: no iqsense sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    prov = provenance(args)
    print("provenance " + json.dumps(prov, sort_keys=True))
    result, summary = run(args)
    print("summary " + json.dumps(summary, sort_keys=True))
    if args.record:
        record(Path(args.record), prov, result, summary)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
