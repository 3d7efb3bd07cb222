"""Command-line front end.

Subcommands::

    analytic  closed-form variances, thresholds and error probabilities
    sense     Monte Carlo trials for one scenario (optionally --verify)
    sweep     detector metrics along a parameter grid (config `sweep`)
    figure    canned experiment grids (3, 4, 5, 6)
    frame     one whole-frame sensing pass (config `frame`)
    outage    primary-link outage: closed form vs Monte Carlo

All randomness derives from the configured master seed; outputs embed
the seed and a hash of the resolved configuration and are byte-stable
across runs and worker counts.  ``--workers N`` runs each trial batch
on N threads of this process; no call starts a child process.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import contextmanager
from dataclasses import asdict, replace

import numpy as np

from . import __version__
from .config import (
    ConfigError,
    ExperimentConfig,
    canonical_hash,
    load_config,
    parse_config,
)
from .detection import (
    CONVENTIONS,
    METRICS,
    DetectorMode,
    Hypothesis,
    VarianceOrderError,
    analytic_detection,
    analytic_false_alarm,
    conditional_probabilities,
    detection_paper_literal,
    false_alarm_paper_literal,
    thresholds_paper_literal,
)
from .frame import simulate_frame
from .montecarlo import (
    SeedSpec,
    empirical_metrics,
    rule_for_mode,
    run_trials,
    scenario_variances,
    substream,
    sweep,
    sweep_variances,
)
from .outage import analytic_outage, mc_outage, outage_paper_literal
from .signal_model import irr_to_mismatch

_OUTAGE_STREAM = 3

_ANALYTIC = {"p_fa": analytic_false_alarm, "p_d": analytic_detection}

# pfa_analytic_paper, pfa_paper, pfa_paper_lo, pfa_paper_hi, the same four
# for prior, then all eight for pd
_SWEEP_COLUMNS = ["axis", "value", "mode", "target_pfa", *(
    name.format(metric.replace("_", ""), convention.split("-")[0])
    for metric in METRICS
    for convention in CONVENTIONS
    for name in ("{}_analytic_{}", "{}_{}", "{}_{}_lo", "{}_{}_hi")
)]


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _resolve_config(args)
        return args.handler(cfg, args)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except VarianceOrderError as e:  # the image outpowers the wanted signal
        section = "scenario" if args.command in ("analytic", "sense") else args.command
        print(f"error: {section}: {e}", file=sys.stderr)
        return 2


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="iqsense",
        description="Multi-level spectrum sensing under I/Q imbalance",
    )
    p.add_argument("--version", action="version", version=f"iqsense {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--config", metavar="PATH", help="JSON experiment config")
        sp.add_argument("--seed", type=_u64, help="master seed (overrides config)")
        sp.add_argument("--trials", type=_positive_int, help="trials per hypothesis per point")
        sp.add_argument("--mode", choices=DetectorMode.KINDS, help="detector mode override")
        sp.add_argument("--cfar-pfa", type=float, help="design false alarm for --mode two-cfar")
        sp.add_argument("--workers", type=_positive_int, help="threads that run trial chunks")
        sp.add_argument("--out", metavar="PATH", help="write results to this file")
        sp.add_argument("--format", choices=("csv", "json"), dest="fmt", help="output format")

    for name, handler, desc in (
        ("analytic", _cmd_analytic, "closed-form report for one scenario"),
        ("sense", _cmd_sense, "Monte Carlo trials for one scenario"),
        ("sweep", _cmd_sweep, "metrics along a config-defined grid"),
        ("figure", _cmd_figure, "canned experiment grids"),
        ("frame", _cmd_frame, "sense every subcarrier of one frame"),
        ("outage", _cmd_outage, "primary-link outage probability"),
    ):
        sp = sub.add_parser(name, help=desc, description=desc)
        common(sp)
        if name == "sense":
            sp.add_argument(
                "--verify",
                action="store_true",
                help="exit 1 unless every conditional frequency closes with its "
                "closed form within 3 binomial standard errors",
            )
        if name == "figure":
            sp.add_argument("figure_id", type=int, choices=(3, 4, 5, 6), metavar="ID")
        sp.set_defaults(handler=handler)
    return p


def _u64(text: str) -> int:
    v = int(text)
    if not (0 <= v < 2**64):
        raise argparse.ArgumentTypeError("seed must be in [0, 2**64)")
    return v


def _positive_int(text: str) -> int:
    v = int(text)
    if v < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return v


def _resolve_config(args) -> ExperimentConfig:
    cfg = load_config(args.config) if args.config else parse_config({})
    if args.seed is not None:
        cfg = replace(cfg, seed=SeedSpec(args.seed, cfg.seed.stream_index))
    if args.trials is not None:
        cfg = replace(cfg, trials=args.trials)
    if args.workers is not None:
        cfg = replace(cfg, workers=args.workers)
    if args.mode is not None:
        if args.mode == "two-cfar":
            if args.cfar_pfa is None:
                raise ConfigError("--mode two-cfar requires --cfar-pfa")
            if not 0.0 < args.cfar_pfa <= 1.0:  # also NaN
                raise ConfigError(f"--cfar-pfa: must be in (0, 1], got {args.cfar_pfa}")
            mode = DetectorMode.two_level_cfar(args.cfar_pfa)
        else:
            if args.cfar_pfa is not None:
                raise ConfigError("--cfar-pfa only applies to --mode two-cfar")
            mode = DetectorMode(args.mode)
        cfg = replace(cfg, scenario=replace(cfg.scenario, mode=mode))
    elif args.cfar_pfa is not None:
        raise ConfigError("--cfar-pfa requires --mode two-cfar")
    if args.out is not None:
        cfg = replace(cfg, out=args.out)
    if args.fmt is not None:
        cfg = replace(cfg, fmt=args.fmt)
    if cfg.out is not None:
        _check_writable(cfg.out, "--out" if args.out is not None else "out")
    return cfg


@contextmanager
def _config_key(key: str):
    """Report a ``ValueError`` of the model, other than variances out of
    order, as a bad value at config path ``key``."""
    try:
        yield
    except VarianceOrderError:
        raise
    except ValueError as e:
        raise ConfigError(f"{key}: {e}") from None


def _check_writable(path: str, key: str):
    """Refuse, before any trial runs, an output path that ``_emit`` could
    not write: a directory, a file in a missing directory, or one that
    this process may not write."""
    if os.path.isdir(path):
        raise ConfigError(f"{key}: {path} is a directory")
    parent = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(parent):
        raise ConfigError(f"{key}: {path}: directory {parent} does not exist")
    # a regular file is replaced through a temporary file in its directory
    special = os.path.exists(path) and not os.path.isfile(path)
    if not os.access(path if special else parent, os.W_OK):
        raise ConfigError(f"{key}: {path}: permission denied")


# --------------------------------------------------------------------------
# output plumbing


def _provenance(cfg: ExperimentConfig, command: str) -> dict:
    return {
        "tool": f"iqsense {__version__}",
        "command": command,
        "config_sha256": canonical_hash(cfg),
        "seed": cfg.seed.master_seed,
        "stream_index": cfg.seed.stream_index,
        "trials": cfg.trials,
        "chunk_size": cfg.chunk_size,
    }


def _fmt_cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    if isinstance(v, np.integer):
        return str(int(v))
    return str(v)


def _render_csv(provenance: dict, columns: list[str], rows: list[list]) -> str:
    import csv
    import io

    buf = io.StringIO()
    for key, value in provenance.items():
        buf.write(f"# {key}={value}\n")
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(columns)
    for row in rows:
        w.writerow([_fmt_cell(v) for v in row])
    return buf.getvalue()


def _json_default(v):
    if isinstance(v, np.floating):
        return float(v)
    if isinstance(v, np.integer):
        return int(v)
    if isinstance(v, np.bool_):
        return bool(v)
    raise TypeError(f"not JSON serializable: {type(v).__name__}")


def _render_json(provenance: dict, payload: dict) -> str:
    doc = {"provenance": provenance, **payload}
    return json.dumps(doc, indent=2, sort_keys=True, default=_json_default) + "\n"


def _emit(cfg: ExperimentConfig, text: str):
    import tempfile

    if cfg.out is None:
        sys.stdout.write(text)
        return
    if os.path.exists(cfg.out) and not os.path.isfile(cfg.out):
        # a device or pipe such as /dev/null: renaming onto it would replace it
        with open(cfg.out, "w", encoding="utf-8", newline="") as f:
            f.write(text)
        return
    # A unique temporary name in the target directory keeps concurrent
    # runs aimed at one path from clobbering each other's partial files.
    f = tempfile.NamedTemporaryFile(
        "w", encoding="utf-8", newline="", suffix=".tmp", delete=False,
        dir=os.path.dirname(os.path.abspath(cfg.out)),
    )
    try:
        with f:
            f.write(text)
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(f.name, 0o666 & ~umask)  # the mode open() would have given
        os.replace(f.name, cfg.out)
    except BaseException:
        os.unlink(f.name)
        raise


def _emit_table(cfg, command, columns, rows):
    prov = _provenance(cfg, command)
    if cfg.fmt == "csv":
        _emit(cfg, _render_csv(prov, columns, rows))
    else:
        data = [dict(zip(columns, row)) for row in rows]
        _emit(cfg, _render_json(prov, {"columns": columns, "rows": data}))


def _flatten(d: dict, prefix="") -> list[tuple[str, object]]:
    items: list[tuple[str, object]] = []
    for k, v in d.items():
        key = f"{prefix}.{k}" if prefix else str(k)
        if isinstance(v, dict):
            items.extend(_flatten(v, key))
        elif isinstance(v, (list, tuple)):
            parts = [
                "+".join(_fmt_cell(y) for y in x) if isinstance(x, (list, tuple))
                else _fmt_cell(x)
                for x in v
            ]
            items.append((key, " ".join(parts)))
        else:
            items.append((key, v))
    return items


def _emit_report(cfg, command, report: dict):
    prov = _provenance(cfg, command)
    if cfg.fmt == "json":
        _emit(cfg, _render_json(prov, {"report": report}))
    else:
        rows = [[k, v] for k, v in _flatten(report)]
        _emit(cfg, _render_csv(prov, ["key", "value"], rows))


# --------------------------------------------------------------------------
# subcommands


def _rule_report(rule) -> dict:
    return {
        "boundaries": list(rule.boundaries),
        "levels": [h.name for h in rule.levels],
        "merged": [[h.name for h in group] for group in rule.merged],
        "n_packets": rule.n_packets,
    }


def _metric_block(v, rule) -> dict:
    return {
        convention.replace("-", "_"): {m: _ANALYTIC[m](v, rule, convention) for m in METRICS}
        for convention in CONVENTIONS
    }


def _metric_cells(v, rule, tally) -> dict:
    """{(convention, metric): (closed form, estimate)} for every entry of
    the convention table, convention by convention."""
    cells = {}
    for convention in CONVENTIONS:
        m = empirical_metrics(tally, convention)
        for metric in METRICS:
            ana = _ANALYTIC[metric](v, rule, convention)
            cells[convention, metric] = (ana, getattr(m, metric))
    return cells


def _cmd_analytic(cfg: ExperimentConfig, args) -> int:
    sc = cfg.scenario
    with _config_key("scenario"):
        v = scenario_variances(sc)
    rule = rule_for_mode(v, sc.n_packets, sc.mode)
    report: dict = {
        "variances": asdict(v),
        "mode": sc.mode.kind,
        "rule": _rule_report(rule),
        "metrics": _metric_block(v, rule),
    }
    if sc.mode.kind == "four" and not rule.merged:
        report["thresholds"] = {"s01": rule.s01, "s12": rule.s12, "s23": rule.s23}
        report["paper_literal"] = {
            "thresholds": list(thresholds_paper_literal(v, sc.n_packets)),
            "p_fa": false_alarm_paper_literal(v, sc.n_packets),
            "p_d": detection_paper_literal(v, sc.n_packets),
        }
    report["outage"] = {
        "gamma_threshold": cfg.outage.gamma_threshold,
        "analytic": analytic_outage(cfg.outage),
        "paper_literal": outage_paper_literal(cfg.outage),
    }
    _emit_report(cfg, "analytic", report)
    if cfg.out is not None:
        print(f"analytic report written to {cfg.out}")
    return 0


def _sense_rows(tally, v, rule):
    rows = [["tally", Hypothesis(i).name, Hypothesis(j).name, int(tally.counts[i, j]), *[None] * 6]
            for i in range(4) for j in range(4)]
    for (convention, metric), (ana, est) in _metric_cells(v, rule, tally).items():
        rows.append(["metric", None, None, None, convention.replace("-", "_"), metric,
                     ana, est.value, est.lo, est.hi])
    return rows


def _cmd_sense(cfg: ExperimentConfig, args) -> int:
    sc = cfg.scenario
    with _config_key("scenario"):
        v = scenario_variances(sc)
    rule = rule_for_mode(v, sc.n_packets, sc.mode)
    tally = run_trials(
        sc,
        cfg.trials,
        cfg.seed,
        rule=rule,
        workers=cfg.workers,
        chunk_size=cfg.chunk_size,
    )
    columns = ["record", "truth", "decided", "count", "convention", "metric",
               "analytic", "estimate", "lo", "hi"]
    _emit_table(cfg, "sense", columns, _sense_rows(tally, v, rule))
    if cfg.out is not None:
        for convention in CONVENTIONS:
            m = empirical_metrics(tally, convention)
            print(
                f"{convention}: p_fa={m.p_fa.value:.6f} "
                f"[{m.p_fa.lo:.6f}, {m.p_fa.hi:.6f}]  "
                f"p_d={m.p_d.value:.6f} [{m.p_d.lo:.6f}, {m.p_d.hi:.6f}]"
            )
    if args.verify:
        return _verify_closure(tally, v, rule)
    return 0


def _verify_closure(tally, v, rule) -> int:
    """Check every conditional frequency against its closed form within
    3 binomial standard errors (computed at the analytic rate)."""
    probs = conditional_probabilities(v, rule)
    rates = tally.conditional_rates()
    n = tally.trials_per_hypothesis
    worst = 0.0
    failures = 0
    for i in range(4):
        for j in range(4):
            p = probs[i, j]
            se3 = 3.0 * np.sqrt(p * (1.0 - p) / n[i])
            gap = abs(rates[i, j] - p)
            if se3 > 0:
                worst = max(worst, gap / (se3 / 3.0))
            if gap > se3:
                failures += 1
                print(
                    f"verify FAIL P({Hypothesis(j).name}|{Hypothesis(i).name}): "
                    f"analytic={p:.6g} empirical={rates[i, j]:.6g} (3SE={se3:.3g})"
                )
    if failures:
        print(f"verify: {failures} conditional(s) out of tolerance")
        return 1
    print(f"verify OK: all 16 conditionals within 3 binomial SE (worst {worst:.2f} SE)")
    return 0


def _sweep_rows(points) -> list[list]:
    rows = []
    for pt in points:
        cells = _metric_cells(pt.variances, pt.rule, pt.tally)
        row = [pt.axis, pt.value, pt.mode.kind, pt.mode.target_pfa]
        for metric in METRICS:
            for convention in CONVENTIONS:
                ana, est = cells[convention, metric]
                row += [ana, est.value, est.lo, est.hi]
        rows.append(row)
    return rows


def _curve_points(cfg: ExperimentConfig, curves, grid_key: str) -> list[tuple[str, list]]:
    """(curve, sweep points) of every (curve, template scenario, axis,
    grid, modes, stream path); modes None runs the template's mode.  A
    bad point on any curve's grid exits, blamed on ``grid_key``, before
    the first trial runs."""
    for _, base, axis, grid, _, _ in curves:
        with _config_key(grid_key):
            sweep_variances(base, axis, grid)
    return [
        (curve, sweep(base, axis, list(grid), cfg.trials, cfg.seed, modes=modes,
                      workers=cfg.workers, chunk_size=cfg.chunk_size, stream_path=path))
        for curve, base, axis, grid, modes, path in curves
    ]


def _cmd_sweep(cfg: ExperimentConfig, args) -> int:
    if cfg.sweep is None:
        raise ConfigError("sweep: config section required for the sweep command")
    curve = ("", cfg.scenario, cfg.sweep.axis, cfg.sweep.grid, cfg.sweep.modes, ())
    [(_, points)] = _curve_points(cfg, [curve], "sweep.grid")
    _emit_table(cfg, "sweep", _SWEEP_COLUMNS, _sweep_rows(points))
    if cfg.out is not None:
        print(f"{len(points)} sweep rows written to {cfg.out}")
    return 0


def _figure_rows(cfg: ExperimentConfig, fig_id: int) -> tuple[list[str], list[list]]:
    sc = cfg.scenario
    fig = cfg.figure
    rows: list[list] = []
    if fig_id == 6:
        columns = ["figure", "curve", "axis", "value", "beta_sq_sec",
                   "outage_analytic", "outage_mc", "outage_lo", "outage_hi",
                   "outage_paper_literal"]
        for irr in fig.irr_grid:
            with _config_key(f"figure.irr_grid: irr_db={irr:g}"):
                irr_to_mismatch(irr)
        base = cfg.outage
        for i, irr in enumerate(fig.irr_grid):
            scn = replace(base, beta_sq_sec=10.0 ** (irr / 10.0))
            est = mc_outage(scn, cfg.trials, substream(cfg.seed, _OUTAGE_STREAM, i))
            rows.append([
                fig_id, "", "irr_db", irr, scn.beta_sq_sec,
                analytic_outage(scn), est.value, est.lo, est.hi,
                outage_paper_literal(scn),
            ])
        return columns, rows

    four = DetectorMode.four_level()
    grid_key = "figure.snr1_grid" if fig_id == 4 else "figure.irr_grid"
    if fig_id == 3:
        curves = [("", sc, "irr_db", fig.irr_grid, [four, DetectorMode.two_level_bayes()], ())]
    elif fig_id == 4:
        with _config_key("figure.delta_snrs"):
            curves = [
                (f"delta_snr_db={delta:g}", replace(sc, snr2_db=sc.snr1_db - delta),
                 "snr_db_at_delta", fig.snr1_grid, [four], (c,))
                for c, delta in enumerate(fig.delta_snrs)
            ]
    else:
        bases = (("tx-only", replace(sc, rx_mismatch=None)),
                 ("joint", replace(sc, rx_mismatch=sc.tx_mismatch)))
        curves = [
            (curve, base, "irr_db", fig.irr_grid, [four], (c,))
            for c, (curve, base) in enumerate(bases)
        ]
    for curve, points in _curve_points(cfg, curves, grid_key):
        rows.extend([fig_id, curve, *row] for row in _sweep_rows(points))
    return ["figure", "curve", *_SWEEP_COLUMNS], rows


def _cmd_figure(cfg: ExperimentConfig, args) -> int:
    columns, rows = _figure_rows(cfg, args.figure_id)
    _emit_table(cfg, f"figure-{args.figure_id}", columns, rows)
    if cfg.out is not None:
        print(f"{len(rows)} figure-{args.figure_id} rows written to {cfg.out}")
    return 0


def _cmd_frame(cfg: ExperimentConfig, args) -> int:
    frame = cfg.frame
    with _config_key("frame.snr_db"):
        scn = replace(cfg.scenario, snr1_db=frame.snr_db, snr2_db=frame.snr_db)
        scenario_variances(scn)  # variances that overflow exit here, before the frame runs
    result = simulate_frame(frame.occupancy, scn, cfg.seed)
    summary = {
        "confusion": result.confusion.tolist(),
        "vacant_mirror_flags": result.vacant_mirror_flags,
        "unflagged_mirror_risk": result.unflagged_mirror_risk,
        "missed_own": result.missed_own,
    }
    verdicts = [(k, Hypothesis(t), Hypothesis(d)) for k, t, d in
                zip(result.subcarriers, result.truths.tolist(), result.decisions.tolist())]
    if cfg.fmt == "json":
        data_rows = [
            {"subcarrier": k, "truth": t.name, "decided": d.name,
             "busy": d.own_active, "truth_mirror_active": t.mirror_active}
            for k, t, d in verdicts
        ]
        payload = {"summary": summary, "rows": data_rows}
        _emit(cfg, _render_json(_provenance(cfg, "frame"), payload))
    else:
        columns = ["subcarrier", "truth", "decided", "busy", "truth_mirror_active", "warning"]
        rows = [
            [k, t.name, d.name, int(d.own_active), int(t.mirror_active),
             "vacant-mirror-active" if d == Hypothesis.H1 else ""]
            for k, t, d in verdicts
        ]
        _emit_table(cfg, "frame", columns, rows)
    if cfg.out is not None:
        print(json.dumps({"summary": summary}, sort_keys=True, default=_json_default))
    return 0


def _cmd_outage(cfg: ExperimentConfig, args) -> int:
    scn = cfg.outage
    est = mc_outage(scn, cfg.trials, substream(cfg.seed, _OUTAGE_STREAM))
    report = {
        "scenario": {
            "p_mk": scn.p_mk, "p0": scn.p0, "beta_sq_sec": scn.beta_sq_sec,
            "noise_p": scn.noise_p, "var_g": scn.var_g, "var_h": scn.var_h,
            "rate_p": scn.rate_p, "gamma_threshold": scn.gamma_threshold,
        },
        "analytic": analytic_outage(scn),
        "paper_literal": outage_paper_literal(scn),
        "monte_carlo": {"estimate": est.value, "lo": est.lo, "hi": est.hi,
                        "trials": cfg.trials},
    }
    _emit_report(cfg, "outage", report)
    if cfg.out is not None:
        print(
            f"outage: analytic={report['analytic']:.6f} "
            f"mc={est.value:.6f} [{est.lo:.6f}, {est.hi:.6f}]"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
