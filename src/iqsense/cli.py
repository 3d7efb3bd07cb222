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
on at most N threads of this process, the main thread included; a batch
of small blocks runs on the main thread alone.  No call starts a child
process.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict, replace

from . import __version__
from .config import (
    ConfigError,
    ExperimentConfig,
    canonical_hash,
    config_key,
    load_config,
    parse_config,
)
from .detection import (
    CONVENTIONS,
    METRICS,
    DetectorMode,
    Hypothesis,
    conditional_probabilities,
    convention_metric,
    detection_paper_literal,
    false_alarm_paper_literal,
    thresholds_paper_literal,
)
from .frame import simulate_frame
from .montecarlo import (
    OUTAGE_STREAM,
    SeedSpec,
    empirical_metrics,
    exact_probabilities,
    run_trials,
    scenario_rule,
    scenario_variances,
    substream,
    sweep,
)
from .outage import (
    analytic_outage,
    irr_to_beta_sq,
    mc_outage,
    outage_paper_literal,
)
from .stats import row_pvalue, worst_z

# Not called here (every closed-form column reads the point's one
# conditional_probabilities matrix); bound for the trace in bench/job.py.
from .detection import analytic_detection, analytic_false_alarm  # noqa: F401

# Familywise level of ``sense --verify``, Bonferroni over the tally's rows.
_VERIFY_ALPHA = 1e-3

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


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="iqsense",
        description="Multi-level spectrum sensing under I/Q imbalance",
    )
    p.add_argument("--version", action="version", version=f"iqsense {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--config", metavar="PATH", help="JSON experiment config")
        sp.add_argument("--seed", type=int, help="master seed (overrides config)")
        sp.add_argument("--trials", type=int, help="trials per hypothesis per point")
        sp.add_argument("--mode", choices=DetectorMode.KINDS, help="detector mode override")
        sp.add_argument("--cfar-pfa", type=float, help="design false alarm for --mode two-cfar")
        sp.add_argument("--workers", type=int, help="most threads that run trial blocks, the main thread included")
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
                help="exit 1 unless every tally row closes with its closed form "
                "(chi-square per row, familywise level 1e-3)",
            )
        if name == "figure":
            sp.add_argument("figure_id", type=int, choices=(3, 4, 5, 6), metavar="ID")
        sp.set_defaults(handler=handler)
    return p


def _resolve_config(args) -> ExperimentConfig:
    cfg = load_config(args.config) if args.config else parse_config({})
    if args.seed is not None:
        with config_key("--seed"):
            cfg = replace(cfg, seed=SeedSpec(args.seed, cfg.seed.stream_index))
    # ExperimentConfig checks each of these as it checks the config's own
    for flag, field in (("--trials", "trials"), ("--workers", "workers"), ("--out", "out"),
                        ("--format", "fmt")):
        value = getattr(args, field)
        if value is not None:
            with config_key(flag):
                cfg = replace(cfg, **{field: value})
    if args.mode is not None:
        with config_key("--cfar-pfa"):
            mode = DetectorMode(args.mode, args.cfar_pfa)
        cfg = replace(cfg, scenario=replace(cfg.scenario, mode=mode))
    elif args.cfar_pfa is not None:
        raise ConfigError("--cfar-pfa: requires --mode two-cfar")
    if cfg.out is not None:
        _check_writable(cfg.out, "--out" if args.out is not None else "out")
    return cfg


def _check_writable(path: str, key: str):
    """Refuse, before any trial runs, an output path that ``_emit`` could
    not write: a directory, a path that names no file (empty, or ending in
    a separator, ``.`` or ``..``), a file in a missing directory, or one
    that this process may not write.  The directory is taken as written,
    not normalised, since ``x/../y`` needs ``x`` to be one."""
    if os.path.isdir(path):
        raise ConfigError(f"{key}: {path} is a directory")
    if os.path.basename(path) in ("", ".", ".."):
        raise ConfigError(f"{key}: {path!r} does not name a file")
    parent = _out_dir(path)
    if not os.path.isdir(parent):
        raise ConfigError(f"{key}: {path}: directory {parent} does not exist")
    # a regular file is replaced through a temporary file in its directory
    special = os.path.exists(path) and not os.path.isfile(path)
    if not os.access(path if special else parent, os.W_OK):
        raise ConfigError(f"{key}: {path}: permission denied")


def _out_dir(path: str) -> str:
    """The directory an output file at ``path`` is written in."""
    return os.path.dirname(path) or "."


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
    }


def _fmt_cell(v) -> str:
    return "" if v is None else str(v)


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


def _render_json(provenance: dict, payload: dict) -> str:
    doc = {"provenance": provenance, **payload}
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


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
        dir=_out_dir(cfg.out),
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


def _closed_forms(probs, exact, convention, metric) -> tuple:
    """The Gamma form of ``metric`` under ``convention``, read from
    ``probs``, the point's Gamma matrix of P(decide col | true row); with
    ``exact``, the point's rows of :func:`exact_probabilities`, also its
    exact form and the Gamma form's error (Gamma minus exact), both None
    where the metric reads a row with no law."""
    gamma = convention_metric(probs, convention, metric)
    if exact is None:
        return (gamma,)
    ex = convention_metric(exact, convention, metric)
    return gamma, ex, None if ex is None else gamma - ex


def _metric_blocks(probs, exact) -> dict:
    """The report's ``metrics`` (Gamma), ``exact_metrics`` and
    ``gamma_error`` blocks, each {convention: {metric: value}}."""
    blocks = {"metrics": {}, "exact_metrics": {}, "gamma_error": {}}
    for convention in CONVENTIONS:
        for metric in METRICS:
            forms = _closed_forms(probs, exact, convention, metric)
            for block, form in zip(blocks.values(), forms):
                block.setdefault(convention.replace("-", "_"), {})[metric] = form
    return blocks


def _metric_cells(probs, tally, exact=None) -> dict:
    """{(convention, metric): (*closed forms, estimate)} for every entry
    of the convention table, convention by convention; the closed forms
    are those of :func:`_closed_forms`."""
    cells = {}
    for convention in CONVENTIONS:
        m = empirical_metrics(tally, convention)
        for metric in METRICS:
            cells[convention, metric] = (*_closed_forms(probs, exact, convention, metric),
                                         getattr(m, metric))
    return cells


def _scenario_model(sc):
    """The scenario's variances and decision rule, built before any trial;
    a scenario that has neither reads under ``scenario``."""
    with config_key("scenario"):
        return scenario_variances(sc), scenario_rule(sc)


def _cmd_analytic(cfg: ExperimentConfig, args) -> int:
    sc = cfg.scenario
    v, rule = _scenario_model(sc)
    report: dict = {
        "variances": asdict(v),
        "mode": sc.mode.kind,
        "rule": _rule_report(rule),
        **_metric_blocks(conditional_probabilities(v, rule), exact_probabilities(sc, rule)),
    }
    if sc.mode.kind == "four" and not rule.merged:
        report["thresholds"] = dict(zip(("s01", "s12", "s23"), rule.boundaries))
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


def _sense_rows(tally, cells):
    rows = [["tally", Hypothesis(i).name, Hypothesis(j).name, int(tally.counts[i, j]), *[None] * 8]
            for i in range(4) for j in range(4)]
    for (convention, metric), (*forms, est) in cells.items():
        rows.append(["metric", None, None, None, convention.replace("-", "_"), metric,
                     *forms, est.value, est.lo, est.hi])
    return rows


def _cmd_sense(cfg: ExperimentConfig, args) -> int:
    sc = cfg.scenario
    v, rule = _scenario_model(sc)
    tally = run_trials(sc, cfg.trials, cfg.seed, rule=rule, workers=cfg.workers)
    columns = ["record", "truth", "decided", "count", "convention", "metric",
               "analytic", "exact", "gamma_error", "estimate", "lo", "hi"]
    exact = exact_probabilities(sc, rule)
    cells = _metric_cells(conditional_probabilities(v, rule), tally, exact)
    _emit_table(cfg, "sense", columns, _sense_rows(tally, cells))
    if cfg.out is not None:
        for convention in CONVENTIONS:
            p_fa, p_d = (cells[convention, metric][-1] for metric in METRICS)
            print(
                f"{convention}: p_fa={p_fa.value:.6f} [{p_fa.lo:.6f}, {p_fa.hi:.6f}]  "
                f"p_d={p_d.value:.6f} [{p_d.lo:.6f}, {p_d.hi:.6f}]"
            )
    if args.verify:
        return _verify_closure(tally, exact)
    return 0


def _verify_closure(tally, exact) -> int:
    """Test each tally row against ``exact``, its row of
    :func:`exact_probabilities` under the law its trials are drawn from,
    by a Pearson chi-square test, Bonferroni over the rows tested at
    familywise level :data:`_VERIFY_ALPHA`; print the verdict, with the
    worst cell's z-score and the smallest p-value, to stderr, so stdout
    keeps only the table.  A row with no law (H3 past the table's length
    cap) is left out, with a note on stderr, since its Gamma row is not
    its law."""
    for h in (h for h, row in enumerate(exact) if row is None):
        print(f"verify: row {Hypothesis(h).name} not tested: its packet-count table would "
              "pass the length cap, and its Gamma row is not its law", file=sys.stderr)
    tested = [(h, tally.counts[h].tolist(), p) for h, p in enumerate(exact) if p is not None]
    pvalues = [row_pvalue(c, p) for _, c, p in tested]
    gate = _VERIFY_ALPHA / len(tested)
    for (h, _, _), p in zip(tested, pvalues):
        if p < gate:
            print(f"verify FAIL row {Hypothesis(h).name}: chi-square p={p:.3g} < {gate:.3g}",
                  file=sys.stderr)
    detail = (f"smallest row p-value {min(pvalues):.3g}, "
              f"worst cell {max(worst_z(c, p) for _, c, p in tested):.2f} SE")
    if min(pvalues) < gate:
        print(f"verify: {sum(p < gate for p in pvalues)} row(s) out of tolerance ({detail})",
              file=sys.stderr)
        return 1
    print(f"verify OK: all {len(tested)} rows close at familywise level {_VERIFY_ALPHA:g} "
          f"({detail})", file=sys.stderr)
    return 0


def _sweep_row(pt) -> list:
    cells = _metric_cells(conditional_probabilities(pt.variances, pt.rule), pt.tally)
    row = [pt.axis, pt.value, pt.mode.kind, pt.mode.target_pfa]
    for metric in METRICS:
        for convention in CONVENTIONS:
            ana, est = cells[convention, metric]
            row += [ana, est.value, est.lo, est.hi]
    return row


def _curve_rows(cfg: ExperimentConfig, curves, grid_key: str) -> list[tuple[str, list]]:
    """(curve, sweep row) of every point of every (curve, template
    scenario, axis, grid, modes, stream path), in row order.  All curves
    run as one sweep, so a bad point on any curve's grid exits, blamed on
    ``grid_key``, before the first trial runs."""
    with config_key(grid_key):
        points = sweep([c[1:] for c in curves], cfg.trials, cfg.seed, workers=cfg.workers)
    labels = [curve for curve, _, _, grid, modes, _ in curves for _ in grid for _ in modes]
    return [(curve, _sweep_row(pt)) for curve, pt in zip(labels, points)]


def _cmd_sweep(cfg: ExperimentConfig, args) -> int:
    if cfg.sweep is None:
        raise ConfigError("sweep: config section required for the sweep command")
    modes = cfg.sweep.modes or (cfg.scenario.mode,)
    curve = ("", cfg.scenario, cfg.sweep.axis, cfg.sweep.grid, modes, ())
    rows = [row for _, row in _curve_rows(cfg, [curve], "sweep.grid")]
    _emit_table(cfg, "sweep", _SWEEP_COLUMNS, rows)
    if cfg.out is not None:
        print(f"{len(rows)} sweep rows written to {cfg.out}")
    return 0


def _figure_rows(cfg: ExperimentConfig, fig_id: int) -> tuple[list[str], list[list]]:
    sc = cfg.scenario
    fig = cfg.figure
    if fig_id == 6:
        rows = []
        columns = ["figure", "curve", "axis", "value", "beta_sq_sec",
                   "outage_analytic", "outage_mc", "outage_lo", "outage_hi",
                   "outage_paper_literal"]
        for i, irr in enumerate(fig.irr_grid):
            scn = replace(cfg.outage, beta_sq_sec=irr_to_beta_sq(irr))
            est = mc_outage(scn, cfg.trials, substream(cfg.seed, OUTAGE_STREAM, i))
            rows.append([
                fig_id, "", "irr_db", irr, scn.beta_sq_sec,
                analytic_outage(scn), est.value, est.lo, est.hi,
                outage_paper_literal(scn),
            ])
        return columns, rows

    four = DetectorMode("four")
    grid_key = "figure.snr1_grid" if fig_id == 4 else "figure.irr_grid"
    if fig_id == 3:
        curves = [("", sc, "irr_db", fig.irr_grid, [four, DetectorMode("two-bayes")], ())]
    elif fig_id == 4:
        with config_key("figure.delta_snrs"):
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
    rows = [[fig_id, curve, *row] for curve, row in _curve_rows(cfg, curves, grid_key)]
    return ["figure", "curve", *_SWEEP_COLUMNS], rows


def _cmd_figure(cfg: ExperimentConfig, args) -> int:
    columns, rows = _figure_rows(cfg, args.figure_id)
    _emit_table(cfg, f"figure-{args.figure_id}", columns, rows)
    if cfg.out is not None:
        print(f"{len(rows)} figure-{args.figure_id} rows written to {cfg.out}")
    return 0


def _cmd_frame(cfg: ExperimentConfig, args) -> int:
    frame = cfg.frame
    with config_key("frame.snr_db"):
        scn = replace(cfg.scenario, snr1_db=frame.snr_db, snr2_db=frame.snr_db)
        scenario_variances(scn)
    with config_key("frame"):
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
        print(json.dumps({"summary": summary}, sort_keys=True))
    return 0


def _cmd_outage(cfg: ExperimentConfig, args) -> int:
    scn = cfg.outage
    est = mc_outage(scn, cfg.trials, substream(cfg.seed, OUTAGE_STREAM))
    report = {
        "scenario": {**asdict(scn), "gamma_threshold": scn.gamma_threshold},
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
