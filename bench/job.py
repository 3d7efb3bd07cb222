"""One benchmark job: a fresh interpreter that sets iqsense up and runs a batch
of operations, then writes a JSON record of what it saw.

Usage::

    python3 bench/job.py SPEC.json RECORD.json

``bench/run.py`` writes SPEC, starts this script as a child process, waits
for it and reads RECORD.  The spec's ``kind`` selects the job:

``cli``
    one ``iqsense.cli.main`` call (``sense`` or ``figure``) on a generated
    config; the operation is the whole call.
``frames``
    ``simulate_frame`` over seeded occupancy maps; one operation per frame.

Set-up ends where the first trial or frame starts.  For ``cli``
jobs that is the entry of ``run_trials`` or ``sweep``, seen through a thin
wrapper on the names ``iqsense.cli`` imported; the same wrapper keeps the
tallies those functions return so `bench/run.py` can check them.

With ``"trace": true`` every public function that one iqsense module calls
in another is replaced, on the importing module, by a wrapper that records
a span (name, start, end, parent) and a few counts.  Spans stay in memory,
are reduced to per-layer totals when the job ends and are written next to
the record.  Traced jobs run serially (``workers=1``) so that every span is
recorded in this process.
"""

import time

T_START = time.monotonic()

import hashlib  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))


class Tracer:
    """Span recorder for the functions listed in :data:`TRACED`."""

    def __init__(self):
        self.spans: list = []  # (name, t0, t1, parent index) once closed
        self.stack: list[int] = []
        self.counts: dict[str, float] = {}

    def count(self, key: str, n: float = 1):
        self.counts[key] = self.counts.get(key, 0) + n

    def wrap(self, name: str, fn, counter=None):
        spans, stack = self.spans, self.stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                spans[idx] = (name, t0, clock(), parent)
                stack.pop()
                if counter is not None:
                    counter(self, args, kwargs)

        return traced


def _size_elements(size) -> int:
    n = 1
    for d in (size if isinstance(size, tuple) else (size,)):
        n *= int(d)
    return n


def _count_draw(tr, args, kwargs):
    size = args[2] if len(args) > 2 else kwargs.get("size")
    tr.count("draw_calls")
    tr.count("normals", 2 * _size_elements(size))  # complex = two normals


def _count_chunk(tr, args, kwargs):
    if len(args) > 1 and args[1] == 0:  # purpose tag 0 is the trial stream
        tr.count("chunks")


def _count_calibration(tr, args, kwargs):
    samples = args[1] if len(args) > 1 else kwargs["samples"]
    tr.count("calibration_samples", 4 * int(samples))


# (importing module, name) -> counter.  The span is named after the module
# that defines the function, so "signal_model.draw_noise" covers draws made
# from montecarlo and from frame alike.
TRACED = {
    ("cli", "load_config"): None,
    ("cli", "canonical_hash"): None,
    ("cli", "analytic_detection"): None,
    ("cli", "analytic_false_alarm"): None,
    ("cli", "conditional_probabilities"): None,
    ("cli", "run_trials"): None,
    ("cli", "sweep"): None,
    ("cli", "scenario_variances"): None,
    ("cli", "empirical_metrics"): None,
    ("config", "parse_config"): None,
    ("montecarlo", "scenario_variances"): None,
    ("montecarlo", "estimate_component_variances"): _count_calibration,
    ("montecarlo", "substream"): _count_chunk,
    ("montecarlo", "draw_rayleigh"): _count_draw,
    ("montecarlo", "draw_noise"): _count_draw,
    ("montecarlo", "receive"): None,
    ("montecarlo", "receive_joint"): None,
    ("montecarlo", "classify_batch"): None,
    ("montecarlo", "decision_rule"): None,
    ("montecarlo", "two_level_rule"): None,
    ("montecarlo", "hypothesis_variances"): None,
    ("montecarlo", "analytic_detection"): None,
    ("montecarlo", "analytic_false_alarm"): None,
    ("frame", "OccupancyMap"): None,
    ("frame", "simulate_frame"): None,
    ("frame", "scenario_rule"): None,
    ("frame", "substream"): None,
    ("frame", "draw_rayleigh"): _count_draw,
    ("frame", "draw_noise"): _count_draw,
    ("frame", "receive"): None,
    ("frame", "receive_joint"): None,
    ("frame", "classify_batch"): None,
    ("detection", "decision_rule"): None,
    ("detection", "two_level_rule"): None,
    ("detection", "conditional_probabilities"): None,
    ("detection", "analytic_detection"): None,
    ("detection", "analytic_false_alarm"): None,
    ("detection", "thresholds_paper_literal"): None,
    ("detection", "false_alarm_paper_literal"): None,
    ("detection", "detection_paper_literal"): None,
    ("detection", "gamma_sf"): None,
}


def install_tracer(tracer: Tracer):
    import importlib

    for (mod_name, attr), counter in TRACED.items():
        mod = importlib.import_module(f"iqsense.{mod_name}")
        fn = getattr(mod, attr)
        owner = fn.__module__.rsplit(".", 1)[-1]
        setattr(mod, attr, tracer.wrap(f"{owner}.{attr}", fn, counter))


# Span groups behind each per-layer time.  A "time" is the wall time of the
# outermost spans of the group (nested spans of the same group count once);
# a "self" time is span time not covered by child spans.
GROUPS = {
    "config.parse_s": {"config.load_config", "config.parse_config"},
    "config.hash_s": {"config.canonical_hash"},
    "montecarlo.calibration_s": {"montecarlo.estimate_component_variances"},
    "signal_model.draw_s": {"signal_model.draw_rayleigh", "signal_model.draw_noise"},
    "signal_model.receive_s": {"signal_model.receive", "signal_model.receive_joint"},
    "detection.classify_s": {"detection.classify_batch"},
    "detection.rule_s": {"detection.decision_rule", "detection.two_level_rule"},
    "detection.closed_form_s": {
        "detection.conditional_probabilities",
        "detection.analytic_detection",
        "detection.analytic_false_alarm",
        "detection.thresholds_paper_literal",
        "detection.false_alarm_paper_literal",
        "detection.detection_paper_literal",
    },
    "detection.variances_s": {"detection.hypothesis_variances"},
    "numerics.gamma_sf_s": {"numerics.gamma_sf"},
    "frame.simulate_s": {"frame.simulate_frame"},
}
CALLS = {
    "signal_model.receive_calls": {"signal_model.receive", "signal_model.receive_joint"},
    "detection.classify_calls": {"detection.classify_batch"},
    "numerics.gamma_sf_calls": {"numerics.gamma_sf"},
}
SELF = {
    "cli.self_s": lambda name: name == "cli.main",
    "montecarlo.self_s": lambda name: name.startswith("montecarlo.")
    and name != "montecarlo.estimate_component_variances",
    "frame.self_s": lambda name: name == "frame.simulate_frame",
}


def reduce_spans(spans: list) -> dict:
    """Per-layer totals from closed spans."""
    group_of = {name: key for key, group in GROUPS.items() for name in group}
    covered = [0.0] * len(spans)
    out = dict.fromkeys(GROUPS, 0.0)
    for name, t0, t1, parent in spans:
        if parent >= 0:
            covered[parent] += t1 - t0
        key = group_of.get(name)
        if key is None:
            continue
        p = parent
        while p >= 0 and group_of.get(spans[p][0]) != key:
            p = spans[p][3]
        if p < 0:
            out[key] += t1 - t0
    for key, group in CALLS.items():
        out[key] = sum(1 for s in spans if s[0] in group)
    for key, pred in SELF.items():
        out[key] = sum(
            s[2] - s[1] - covered[i] for i, s in enumerate(spans) if pred(s[0])
        )
    out["cli.main_s"] = sum(s[2] - s[1] for s in spans if s[0] == "cli.main")
    out["covered_s"] = sum(s[2] - s[1] for s in spans if s[3] < 0)
    return out


# --------------------------------------------------------------------------
# jobs


class Job:
    def __init__(self, spec: dict, tracer: Tracer | None):
        self.spec = spec
        self.tracer = tracer
        self.t_first = None
        self.phase_s = 0.0
        self.op_ms: list[float] = []
        self.op_failed: list[bool] = []
        self.digest = hashlib.sha256()
        self.extra: dict = {}

    def mark_first(self):
        if self.t_first is None:
            self.t_first = time.monotonic()


def _run_cli(job: Job) -> int:
    import iqsense.cli as cli

    spec = job.spec
    captured: list = []

    def capture(fn, kind):
        def call(*args, **kwargs):
            job.mark_first()
            t0 = time.monotonic()
            try:
                result = fn(*args, **kwargs)
            finally:
                job.phase_s += time.monotonic() - t0
            if kind == "trials":
                captured.append({"counts": result.counts.tolist()})
            else:
                for pt in result:
                    captured.append({
                        "counts": pt.tally.counts.tolist(),
                        "variances": list(pt.variances.as_tuple()),
                        "boundaries": list(pt.rule.boundaries),
                        "levels": [int(h) for h in pt.rule.levels],
                        "merged": [[int(h) for h in g] for g in pt.rule.merged],
                        "n_packets": pt.rule.n_packets,
                    })
            return result

        return call

    cli.run_trials = capture(cli.run_trials, "trials")
    cli.sweep = capture(cli.sweep, "sweep")
    main = cli.main
    if job.tracer is not None:
        main = job.tracer.wrap("cli.main", main)
    rc = main(spec["argv"])
    job.extra["tallies"] = captured
    out = Path(spec["out"])
    data = out.read_bytes() if out.exists() else b""
    job.digest.update(data)
    job.extra["bytes_out"] = len(data)
    job.op_failed.append(False)
    return rc


def _pair_states(seed: int, frame: int, half: int):
    """Occupancy of one frame: per pair (k, -k), 0 vacant, 1 only -k,
    2 only k, 3 both."""
    import numpy as np

    return np.random.default_rng([seed, frame]).integers(0, 4, half)


def _run_frames(job: Job) -> int:
    import numpy as np

    import iqsense.config as config
    import iqsense.frame as frame
    from iqsense.montecarlo import SeedSpec

    spec = job.spec
    cfg = config.parse_config(spec["config"])
    sc = cfg.scenario
    n = spec["n_subcarriers"]
    half = n // 2
    pos = np.arange(1, half + 1)
    pooled = np.zeros((4, 4), dtype=np.int64)
    for i in range(spec["frames"]):
        states = _pair_states(spec["occupancy_seed"], i, half)
        on_pos = (states & 2) > 0
        on_neg = (states & 1) > 0
        active = [int(k) for k in pos[on_pos]] + [-int(k) for k in pos[on_neg]]
        job.mark_first()
        t0 = time.perf_counter()
        occ = frame.OccupancyMap(n, frozenset(active))
        res = frame.simulate_frame(occ, sc, SeedSpec(cfg.seed.master_seed, i))
        job.op_ms.append((time.perf_counter() - t0) * 1e3)
        # truth per side: 2*own + mirror, counted without the program
        truth_pos = 2 * on_pos + on_neg
        truth_neg = 2 * on_neg + on_pos
        expected = np.bincount(np.concatenate([truth_pos, truth_neg]), minlength=4)
        confusion = np.asarray(res.confusion, dtype=np.int64)
        decisions = np.asarray(res.decisions, dtype=np.int8)
        ok = (
            confusion.shape == (4, 4)
            and np.array_equal(confusion.sum(axis=1), expected)
            and decisions.size == n
        )
        job.op_failed.append(not ok)
        pooled += confusion
        job.digest.update(confusion.tobytes())
        job.digest.update(decisions.tobytes())
    job.extra["confusion"] = pooled.tolist()
    return 0


RUNNERS = {"cli": _run_cli, "frames": _run_frames}


def main(spec_path: str, record_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text())
    tracer = Tracer() if spec["trace"] else None
    t0 = time.perf_counter()
    if spec["kind"] == "cli":
        import iqsense.cli  # noqa: F401
    else:
        import iqsense  # noqa: F401
    t1 = time.perf_counter()
    import_s = t1 - t0
    if tracer is not None:
        tracer.spans.append(("setup.import", t0, t1, -1))
        install_tracer(tracer)
    job = Job(spec, tracer)
    record: dict = {"t_start": T_START, "import_s": import_s}
    try:
        rc = RUNNERS[spec["kind"]](job)
    except Exception:
        traceback.print_exc()
        rc = 1
    t_end = time.monotonic()
    record.update({
        "rc": rc,
        "t_first": job.t_first,
        "t_end": t_end,
        "phase_s": job.phase_s,
        "op_ms": job.op_ms,
        "op_failed": job.op_failed,
        "sha256": job.digest.hexdigest(),
        **job.extra,
    })
    if tracer is not None:
        record["layers"] = reduce_spans(tracer.spans)
        record["counts"] = tracer.counts
        with open(Path(record_path).with_suffix(".spans.jsonl"), "w") as f:
            for s in tracer.spans:
                f.write(json.dumps(s) + "\n")
    Path(record_path).write_text(json.dumps(record))
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        sys.exit(2)
    sys.exit(main(sys.argv[1], sys.argv[2]))
