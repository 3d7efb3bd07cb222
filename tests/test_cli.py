"""End-to-end CLI behaviour through the real entry point."""

import hashlib
import json
import math
import os
import re
import subprocess
import sys

import pytest

CMD = [sys.executable, "-m", "iqsense"]


def run_cli(*args, **kw):
    return subprocess.run(
        [*CMD, *args], capture_output=True, text=True, timeout=300, **kw
    )


def test_version():
    r = run_cli("--version")
    assert r.returncode == 0
    assert r.stdout.startswith("iqsense ")


def test_analytic_stdout_csv():
    r = run_cli("analytic")
    assert r.returncode == 0
    lines = r.stdout.splitlines()
    header = [l for l in lines if l.startswith("# ")]
    assert any(l.startswith("# config_sha256=") for l in header)
    assert any(l.startswith("# seed=0") for l in header)
    assert "key,value" in lines
    assert any(l.startswith("variances.sigma0_sq,0.5") for l in lines)
    assert any(l.startswith("thresholds.s12,") for l in lines)


def test_analytic_json_structure():
    r = run_cli("analytic", "--format", "json")
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    assert doc["provenance"]["command"] == "analytic"
    rep = doc["report"]
    assert rep["rule"]["levels"] == ["H0", "H1", "H2", "H3"]
    assert rep["paper_literal"]["p_fa"] == pytest.approx(
        rep["metrics"]["paper_sum"]["p_fa"], rel=1e-12
    )
    assert "outage" in rep


def test_analytic_merged_rule_drops_four_level_extras(tmp_path):
    cfgf = tmp_path / "c.json"
    cfgf.write_text(json.dumps({"scenario": {"tx_irr_db": None}}))
    r = run_cli("analytic", "--config", str(cfgf), "--format", "json")
    doc = json.loads(r.stdout)
    rep = doc["report"]
    assert rep["rule"]["merged"] == [["H0", "H1"], ["H2", "H3"]]
    assert "thresholds" not in rep
    assert "paper_literal" not in rep


# figure 4's SNR1 20 dB point at delta -10 dB (tx IRR -15 dB, one packet),
# where the Gamma H3 row is furthest from the exact law on figure 4's grid,
# and a point whose H3 packet-count table would pass its length cap.
_FIGURE_4_SCENARIO = {"snr1_db": 20.0, "snr2_db": 30.0}
_PAST_TABLE_CAP = {"snr1_db": 10.0, "snr2_db": 24.9, "tx_irr_db": -15.0, "n_packets": 256}


def _report(tmp_path, capsys, command, scenario):
    import iqsense.cli as cli

    cfgf = tmp_path / "c.json"
    cfgf.write_text(json.dumps({"scenario": scenario, "trials": 2000}))
    assert cli.main([command, "--config", str(cfgf), "--format", "json"]) == 0
    return json.loads(capsys.readouterr().out)


def test_analytic_prints_the_exact_metrics_beside_the_gamma_forms(tmp_path, capsys):
    """At figure 4's 20/30 dB point the Gamma p_d is 0.0623 (paper-sum) and
    0.0534 (prior-weighted) above the exact one, whose H3 cell is the
    Talbot inversion of Z's transform; p_fa reads no H3 cell."""
    import law_oracle
    from iqsense.config import parse_config
    from iqsense.detection import statistic_means
    from iqsense.montecarlo import exact_probabilities, scenario_rule

    rep = _report(tmp_path, capsys, "analytic", _FIGURE_4_SCENARIO)["report"]
    gamma, exact, error = (rep[k] for k in ("metrics", "exact_metrics", "gamma_error"))
    assert [round(gamma["paper_sum"]["p_d"], 4), round(exact["paper_sum"]["p_d"], 4),
            round(error["paper_sum"]["p_d"], 4)] == [0.6831, 0.6209, 0.0623]
    assert [round(gamma["prior_weighted"]["p_d"], 4),
            round(exact["prior_weighted"]["p_d"], 4)] == [0.6232, 0.5698]
    for convention in ("paper_sum", "prior_weighted"):
        assert exact[convention]["p_fa"] == gamma[convention]["p_fa"]
        assert error[convention] == {"p_fa": 0.0, "p_d": gamma[convention]["p_d"]
                                     - exact[convention]["p_d"]}
    sc = parse_config({"scenario": _FIGURE_4_SCENARIO}).scenario
    rule = scenario_rule(sc)
    tails = [law_oracle.h3_tail(statistic_means(sc.pair, *sc.coefficients)[3], 1, z)
             for z in rule.boundaries]
    h2_h2 = exact_probabilities(sc, rule)[2][2]
    assert exact["paper_sum"]["p_d"] == pytest.approx(h2_h2 + tails[-1], rel=0.0, abs=1e-12)


def test_an_exact_gamma_row_has_no_gamma_error(tmp_path, capsys):
    """An ideal transmitter with a receiver mismatch: H3 has no cross term,
    its Gamma row is its exact law, and every gamma_error reads 0.0."""
    rep = _report(tmp_path, capsys, "analytic", {"tx_irr_db": None, "rx_irr_db": -20})["report"]
    for convention in ("paper_sum", "prior_weighted"):
        assert rep["gamma_error"][convention] == {"p_fa": 0.0, "p_d": 0.0}
        assert rep["exact_metrics"][convention] == rep["metrics"][convention]


def test_past_the_table_cap_the_exact_p_d_is_empty(tmp_path, capsys):
    """Row H3 has no exact row past the table's cap, so every exact p_d and
    its error is null in JSON and an empty cell in CSV, never nan; p_fa
    keeps its exact value."""
    import iqsense.cli as cli
    from iqsense.config import parse_config
    from iqsense.montecarlo import exact_probabilities, scenario_rule

    sc = parse_config({"scenario": _PAST_TABLE_CAP}).scenario
    assert exact_probabilities(sc, scenario_rule(sc))[3] is None
    rep = _report(tmp_path, capsys, "analytic", _PAST_TABLE_CAP)["report"]
    for convention in ("paper_sum", "prior_weighted"):
        assert rep["exact_metrics"][convention] == {
            "p_fa": rep["metrics"][convention]["p_fa"], "p_d": None}
        assert rep["gamma_error"][convention] == {"p_fa": 0.0, "p_d": None}
    assert cli.main(["analytic", "--config", str(tmp_path / "c.json")]) == 0
    cells = dict(l.split(",", 1) for l in capsys.readouterr().out.splitlines()
                 if not l.startswith("#"))
    assert [cells[f"{block}.{c}.p_d"] for block in ("exact_metrics", "gamma_error")
            for c in ("paper_sum", "prior_weighted")] == [""] * 4
    rows = _report(tmp_path, capsys, "sense", _PAST_TABLE_CAP)["rows"]
    p_d = [r for r in rows if r["record"] == "metric" and r["metric"] == "p_d"]
    assert [(r["exact"], r["gamma_error"]) for r in p_d] == [(None, None)] * 2


def test_sense_prints_the_exact_metrics_beside_the_gamma_forms(tmp_path, capsys):
    """Each metric row of `sense` holds the Gamma form (`analytic`), the
    exact form and the Gamma form's error, and the tally keeps its 16 rows."""
    rows = _report(tmp_path, capsys, "sense", _FIGURE_4_SCENARIO)["rows"]
    assert len([r for r in rows if r["record"] == "tally"]) == 16
    metrics = {(r["convention"], r["metric"]): r for r in rows if r["record"] == "metric"}
    assert round(metrics["paper_sum", "p_d"]["exact"], 4) == 0.6209
    for r in metrics.values():
        assert r["gamma_error"] == r["analytic"] - r["exact"]
        assert r["metric"] == "p_d" or r["exact"] == r["analytic"]


def test_sense_deterministic_output(tmp_path):
    out1, out2, out3 = (tmp_path / f"s{i}.csv" for i in range(3))
    base = ["sense", "--trials", "20000", "--seed", "77"]
    assert run_cli(*base, "--out", str(out1)).returncode == 0
    assert run_cli(*base, "--out", str(out2)).returncode == 0
    assert run_cli(*base, "--workers", "4", "--out", str(out3)).returncode == 0
    b1, b2, b3 = out1.read_bytes(), out2.read_bytes(), out3.read_bytes()
    assert b1 == b2 == b3
    text = out1.read_text()
    assert "# command=sense" in text
    assert "tally,H0,H0," in text


def test_sense_verify_passes():
    r = run_cli("sense", "--trials", "30000", "--seed", "5", "--verify",
                "--out", "/dev/null")
    assert r.returncode == 0
    assert "verify OK" in r.stderr


# Points whose H3 row is far from its Gamma stand-in at seed 5: figure 4's
# SNR1 20 dB point at delta -10 dB (57.7 SE off) and tx IRR -5 dB (7.3 SE).
_FIGURE_4_POINT = ({"scenario": _FIGURE_4_SCENARIO}, "100000")
_TX_IRR_5 = ({"scenario": {"tx_irr_db": -5.0}}, "1000000")


def _verify(tmp_path, config, trials) -> int:
    import iqsense.cli as cli

    cfgf = tmp_path / "c.json"
    cfgf.write_text(json.dumps(config))
    return cli.main(["sense", "--config", str(cfgf), "--trials", trials, "--seed", "5",
                     "--verify", "--workers", "2", "--out", str(tmp_path / "o.csv")])


@pytest.mark.parametrize("point", [_FIGURE_4_POINT, _TX_IRR_5], ids=["figure-4", "tx-irr-5"])
def test_sense_verify_tests_h3_against_its_exact_law(tmp_path, capsys, point):
    """Row H3 is tested against its packet-count law, so correct runs
    where the Gamma row is far off pass."""
    assert _verify(tmp_path, *point) == 0
    assert capsys.readouterr().err.startswith("verify OK: all 4 rows close")


def test_sense_verify_rejects_a_gamma_h3_row(tmp_path, monkeypatch, capsys):
    """With the Gamma row planted as H3's exact row on the verify side only
    (cli's binding of exact_probabilities, while the engine still draws H3
    from its table), the tx IRR -5 dB run fails on row H3."""
    import iqsense.cli as cli
    from iqsense.detection import conditional_probabilities
    from iqsense.montecarlo import exact_probabilities, scenario_variances

    def gamma_h3(sc, rule):
        rows = exact_probabilities(sc, rule)
        return [*rows[:3], conditional_probabilities(scenario_variances(sc), rule)[3]]

    monkeypatch.setattr(cli, "exact_probabilities", gamma_h3)
    assert _verify(tmp_path, *_TX_IRR_5) == 1
    err = capsys.readouterr().err
    assert err.startswith("verify FAIL row H3: ") and err.count("verify FAIL") == 1


def test_sense_verify_leaves_out_h3_past_the_table_cap(tmp_path, capsys):
    """Past the packet-count table's cap, row H3 is not tested, and stderr
    says so before the verdict on the other three rows."""
    assert _verify(tmp_path, {"scenario": _PAST_TABLE_CAP}, "2000") == 0
    note, verdict = capsys.readouterr().err.splitlines()
    assert note.startswith("verify: row H3 not tested: ")
    assert verdict.startswith("verify OK: all 3 rows close")


def test_sense_verify_leaves_stdout_to_the_table():
    """The verdict goes to stderr, so the JSON document is all of stdout."""
    r = run_cli("sense", "--trials", "2000", "--format", "json", "--verify")
    assert r.returncode == 0, r.stderr
    assert json.loads(r.stdout)["provenance"]["command"] == "sense"
    assert r.stderr.startswith("verify OK") and r.stderr.count("\n") == 1


def test_sense_verify_near_certain_cells_warn_nothing(tmp_path):
    """Where two tails near 1 round an ulp out of order, the cell between
    them is 0, not -1e-16, and its standard error warns of no square root
    of a negative number."""
    cfgf = tmp_path / "c.json"
    cfgf.write_text(json.dumps({"scenario": {
        "n_packets": 32, "tx_irr_db": -5.0, "snr1_db": 20.0, "snr2_db": 10.0,
    }}))
    r = run_cli("sense", "--config", str(cfgf), "--trials", "2000", "--verify",
                "--out", os.devnull)
    assert r.returncode == 0, r.stderr
    assert r.stderr.startswith("verify OK") and r.stderr.count("\n") == 1


# Peak RSS of `sense` at n_packets 1024.  The interpreter, numpy and
# iqsense take about 38 MB; the per-packet H3 draw goes packet by packet
# and holds a few arrays of one block's trials, under 2 MB per worker.
# A 4096-trial block drawn as one (trials, packets) array would need 32 MiB.
_SENSE_RSS_BUDGET_MB = 64


def test_sense_memory_stays_within_budget_at_1024_packets(tmp_path):
    """The child is started from a small interpreter, because Linux
    carries the peak RSS of the process that forks across ``exec``."""
    cfgf = tmp_path / "c.json"
    cfgf.write_text(json.dumps({"scenario": {"n_packets": 1024}, "trials": 4096}))
    probe = ("import resource, subprocess, sys; r = subprocess.run(sys.argv[1:]); "
             "print(r.returncode, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)")
    r = subprocess.run(
        [sys.executable, "-c", probe, *CMD, "sense", "--config", str(cfgf), "--workers", "2",
         "--out", os.devnull],
        capture_output=True, text=True, timeout=300,
    )
    code, peak_kib = map(int, r.stdout.split()[-2:])
    assert code == 0, r.stderr
    assert peak_kib / 1024 < _SENSE_RSS_BUDGET_MB


def test_sense_json(tmp_path):
    out = tmp_path / "s.json"
    r = run_cli("sense", "--trials", "5000", "--format", "json",
                "--out", str(out))
    assert r.returncode == 0
    doc = json.loads(out.read_text())
    rows = doc["rows"]
    tally_rows = [x for x in rows if x["record"] == "tally"]
    assert len(tally_rows) == 16
    assert sum(x["count"] for x in tally_rows) == 4 * 5000


def test_config_error_exit_code(tmp_path):
    cfgf = tmp_path / "bad.json"
    cfgf.write_text('{"nonsense": true}')
    out = tmp_path / "never.csv"
    r = run_cli("sense", "--config", str(cfgf), "--out", str(out))
    assert r.returncode == 2
    assert "error:" in r.stderr
    assert not out.exists()


@pytest.mark.parametrize("scenario", [
    {"snr1_db": 0, "snr2_db": 20, "tx_irr_db": -5},
    {"snr1_db": 0, "snr2_db": 13, "tx_irr_db": -15, "rx_irr_db": -15},
])
@pytest.mark.parametrize("command", ["analytic", "sense"])
def test_out_of_order_variances_exit_code(tmp_path, command, scenario):
    """An image that outpowers the wanted signal is bad input, for the
    transmitter-only and the joint model alike."""
    cfgf = tmp_path / "c.json"
    cfgf.write_text(json.dumps({"scenario": scenario, "trials": 100}))
    r = run_cli(command, "--config", str(cfgf))
    assert r.returncode == 2
    assert r.stderr.startswith("error: scenario: variances must be nondecreasing")
    assert "Traceback" not in r.stderr


def test_out_of_order_grid_point_exit_code(tmp_path):
    # In order for the transmitter-only curve, out of order for the joint one.
    cfgf = tmp_path / "c.json"
    cfgf.write_text(json.dumps({
        "scenario": {"snr1_db": 0, "snr2_db": 13},
        "figure": {"irr_grid": [-15.0]},
        "trials": 100,
    }))
    r = run_cli("figure", "5", "--config", str(cfgf))
    assert r.returncode == 2
    assert r.stderr.startswith(
        "error: figure.irr_grid: irr_db=-15: variances must be nondecreasing")


@pytest.mark.parametrize("fig_id, point", [("4", "snr_db_at_delta=0"), ("5", "irr_db=-15")])
def test_bad_grid_point_exits_before_any_trial(tmp_path, monkeypatch, capsys, fig_id, point):
    """Every curve's grid is checked before the first curve runs: figure 5's
    transmitter-only curve is in order, its joint curve is not; figure 4's
    first curve (SNR 0/13 dB) is in order, its second (0/20 dB) is not."""
    import iqsense.cli as cli
    import iqsense.montecarlo as montecarlo

    cfgf = tmp_path / "c.json"
    cfgf.write_text(json.dumps({
        "scenario": {"snr1_db": 0, "snr2_db": 13},
        "figure": {"irr_grid": [-15.0], "snr1_grid": [0.0], "delta_snrs": [-13.0, -20.0]},
        "trials": 100,
    }))
    calls = []
    monkeypatch.setattr(montecarlo, "_tally_jobs", lambda *a: calls.append(a))
    assert cli.main(["figure", fig_id, "--config", str(cfgf)]) == 2
    assert calls == []
    err = capsys.readouterr().err
    grid = {"4": "figure.snr1_grid", "5": "figure.irr_grid"}[fig_id]
    assert err.startswith(f"error: {grid}: {point}: variances must be nondecreasing")


def _main_without_trials(tmp_path, monkeypatch, capsys, config, command):
    """Exit code and stderr of an in-process call that must stop before the
    trial engine, the frame's draw or an outage trial runs; the frame's own
    checks run."""
    import iqsense.cli as cli
    import iqsense.frame as frame
    import iqsense.montecarlo as montecarlo

    cfgf = tmp_path / "c.json"
    cfgf.write_text(json.dumps({"trials": 100, **config}))
    calls = []
    monkeypatch.setattr(montecarlo, "_tally_jobs", lambda *a: calls.append(a))
    monkeypatch.setattr(frame, "substream", lambda *a: calls.append(a))
    monkeypatch.setattr(cli, "mc_outage", lambda *a: calls.append(a))
    code = cli.main([*command, "--config", str(cfgf)])
    assert calls == []
    return code, capsys.readouterr().err


@pytest.mark.parametrize("command, config, where", [
    (["sweep"], {"sweep": {"axis": "irr_db", "grid": [-10.0, 0.0]}}, "sweep.grid: irr_db=0"),
    (["figure", "3"], {"figure": {"irr_grid": [-10.0, 1.0]}}, "figure.irr_grid: irr_db=1"),
    (["figure", "5"], {"figure": {"irr_grid": [-30.0, 2.5]}}, "figure.irr_grid: irr_db=2.5"),
    (["figure", "6"], {"figure": {"irr_grid": [3.0]}}, "figure.irr_grid: irr_db=3"),
    # Commands that never run the grid refuse it too.
    (["analytic"], {"sweep": {"axis": "irr_db", "grid": [5.0]}}, "sweep.grid: irr_db=5"),
    (["analytic"], {"figure": {"irr_grid": [-10.0, 3.0]}}, "figure.irr_grid: irr_db=3"),
    (["sense"], {"sweep": {"axis": "irr_db", "grid": [0.0]}, "figure": {"irr_grid": [3.0]}},
     "sweep.grid: irr_db=0"),
])
def test_nonnegative_irr_grid_point_exits_before_any_trial(tmp_path, monkeypatch, capsys,
                                                          command, config, where):
    code, err = _main_without_trials(tmp_path, monkeypatch, capsys, config, command)
    assert code == 2
    assert err.startswith(f"error: {where}: irr_db must be negative")


@pytest.mark.parametrize("command, config, where", [
    (["sense"], {"scenario": {"snr1_db": 4000}}, "scenario: snr1_db=4000 dB"),
    (["analytic"], {"scenario": {"snr2_db": 4000}}, "scenario: snr2_db=4000 dB"),
    (["sense"], {"scenario": {"snr1_db": 100, "noise_var": 1e300}}, "scenario: snr1_db=100 dB"),
    (["sweep"], {"sweep": {"axis": "snr1_db", "grid": [0.0, 4000.0]}},
     "sweep.grid: snr1_db=4000: snr1_db=4000 dB"),
    (["sweep"], {"sweep": {"axis": "delta_snr_db", "grid": [4000.0]}},
     "sweep.grid: delta_snr_db=4000: snr1_db=3990 dB"),
    (["sweep"], {"sweep": {"axis": "snr_db_at_delta", "grid": [4000.0]}},
     "sweep.grid: snr_db_at_delta=4000: snr1_db=4000 dB"),
    (["figure", "4"], {"figure": {"snr1_grid": [0.0, 4000.0]}},
     "figure.snr1_grid: snr_db_at_delta=4000: snr1_db=4000 dB"),
    (["figure", "4"], {"figure": {"delta_snrs": [0.0, -4000.0]}},
     "figure.delta_snrs: snr2_db=4000 dB"),
    (["frame"], {"frame": {"snr_db": 4000}}, "frame.snr_db: snr1_db=4000 dB"),
])
def test_overflowing_snr_exits_2_naming_the_key(tmp_path, monkeypatch, capsys,
                                               command, config, where):
    code, err = _main_without_trials(tmp_path, monkeypatch, capsys, config, command)
    assert code == 2
    assert err == f"error: {where}: the signal power overflows a float\n"


@pytest.mark.parametrize("command, config, where", [
    (["sense"], {"scenario": {"snr1_db": 3080, "channel_var": 100}}, "scenario"),
    (["analytic"], {"scenario": {"snr1_db": 3080, "channel_var": 100}}, "scenario"),
    (["frame"], {"scenario": {"channel_var": 100}, "frame": {"snr_db": 3080}}, "frame.snr_db"),
])
def test_overflowing_variances_exit_2_naming_the_key(tmp_path, monkeypatch, capsys,
                                                     command, config, where):
    code, err = _main_without_trials(tmp_path, monkeypatch, capsys, config, command)
    assert code == 2
    assert re.match(rf"error: {where}: sigma[12]_sq must be finite and > 0, got inf\n$",
                    err)


@pytest.mark.parametrize("command, config, where", [
    (["sense"], {"scenario": {"psk_order": 2048}}, "scenario: psk_order must be <= 1024, got 2048"),
    (["analytic"], {"scenario": {"psk_order": 2048}},
     "scenario: psk_order must be <= 1024, got 2048"),
    (["analytic"], {"frame": {"n_subcarriers": 2**62}},
     f"frame: n_subcarriers must be <= 1048576, got {2**62}"),
])
def test_size_bounds_exit_2_naming_the_section(tmp_path, monkeypatch, capsys,
                                               command, config, where):
    """A constellation or a frame too large to tabulate is refused before
    anything is allocated for it: 2**62 subcarriers would fail at once."""
    code, err = _main_without_trials(tmp_path, monkeypatch, capsys, config, command)
    assert code == 2
    assert err == f"error: {where}\n"


def _range_case(key, config, where, command=("analytic",)):
    return pytest.param(list(command), config, where, id=key)


# The scenario's own variances are in order (0.751, 1.026, 2.507, 2.782);
# the frame's, at 0 dB on both sides, are not: |alpha_r|^2 * channel_var
# < |beta_r|^2 * channel_var_mirror.
_MIRROR_HEAVY = {"scenario": {"tx_irr_db": -3, "rx_irr_db": -3, "channel_var_mirror": 10}}
# Finite variances, but the frame's pair table overflows on the mirror side.
_TABLE_OVERFLOW = {"scenario": {"channel_var_mirror": 1e300},
                   "frame": {"n_subcarriers": 8, "active": [1, -2], "snr_db": 100}}


@pytest.mark.parametrize("command, config, where", [
    _range_case("scenario.snr1_db", {"scenario": {"snr1_db": 4000}}, "scenario: snr1_db="),
    _range_case("scenario.snr2_db", {"scenario": {"snr2_db": 4000}}, "scenario: snr2_db="),
    _range_case("scenario.noise_var", {"scenario": {"noise_var": 0}}, "scenario: noise_var "),
    # a noise power so small that every likelihood crossing underflows to 0
    *(_range_case(f"scenario.noise_var-1e-320-{command}", {"scenario": {"noise_var": 1e-320}},
                  "scenario: boundaries must be finite and > 0, got (0.0, 0.0, 0.0)", [command])
      for command in ("analytic", "sense")),
    *(_range_case(f"outage.rate_p-{command[0]}", {"outage": {"rate_p": 2000}},
                  "outage: rate_p must be < 1024", command)
      for command in (["analytic"], ["outage"], ["figure", "6"])),
    _range_case("scenario.channel_var", {"scenario": {"channel_var": 0}},
                "scenario: channel_var "),
    _range_case("scenario.channel_var_mirror", {"scenario": {"channel_var_mirror": -1}},
                "scenario: channel_var_mirror "),
    _range_case("scenario.psk_order-1", {"scenario": {"psk_order": 1}}, "scenario: psk_order "),
    _range_case("scenario.psk_order-12", {"scenario": {"psk_order": 12}}, "scenario: psk_order "),
    _range_case("scenario.psk_order-2048", {"scenario": {"psk_order": 2048}},
                "scenario: psk_order "),
    _range_case("scenario.n_packets-0", {"scenario": {"n_packets": 0}}, "scenario: n_packets "),
    _range_case("scenario.n_packets-1025", {"scenario": {"n_packets": 1025}},
                "scenario: n_packets must be <= 1024, got 1025"),
    _range_case("scenario.n_packets-huge", {"scenario": {"n_packets": 10**400}},
                "scenario: n_packets must be <= 1024, got 1000"),
    _range_case("scenario.mode", {"scenario": {"mode": "three-level"}}, "scenario.mode: "),
    _range_case("scenario.cfar_pfa-0", {"scenario": {"mode": "two-cfar", "cfar_pfa": 0}},
                "scenario.cfar_pfa: "),
    _range_case("scenario.cfar_pfa-1.5", {"scenario": {"mode": "two-cfar", "cfar_pfa": 1.5}},
                "scenario.cfar_pfa: "),
    _range_case("scenario.cfar_pfa-missing", {"scenario": {"mode": "two-cfar"}},
                "scenario.cfar_pfa: "),
    _range_case("scenario.tx_irr_db", {"scenario": {"tx_irr_db": 0}}, "scenario.tx_irr_db: "),
    _range_case("scenario.tx_epsilon", {"scenario": {"tx_epsilon": 1.0}},
                "scenario.tx_epsilon/tx_theta: "),
    _range_case("scenario.tx_theta", {"scenario": {"tx_theta": 2.0}},
                "scenario.tx_epsilon/tx_theta: "),
    _range_case("scenario.rx_irr_db", {"scenario": {"rx_irr_db": 0.5}}, "scenario.rx_irr_db: "),
    _range_case("scenario.rx_epsilon", {"scenario": {"rx_epsilon": -1.0}},
                "scenario.rx_epsilon/rx_theta: "),
    _range_case("scenario.rx_theta", {"scenario": {"rx_theta": -2.0}},
                "scenario.rx_epsilon/rx_theta: "),
    *(_range_case(f"outage.{key}", {"outage": {key: value}}, f"outage: {key} ")
      for key, value in (("p_mk", -1), ("p0", -1), ("beta_sq_sec", -1), ("noise_p", 0),
                         ("var_g", 0), ("var_h", -1), ("rate_p", -1), ("irr_db", 0))),
    *(_range_case(f"frame.n_subcarriers-{n}", {"frame": {"n_subcarriers": n}},
                  "frame: n_subcarriers ") for n in (0, 7, 2**21)),
    _range_case("frame.active-dc", {"frame": {"active": [0]}}, "frame.active: "),
    _range_case("frame.active-outside", {"frame": {"n_subcarriers": 8, "active": [5]}},
                "frame.active: "),
    _range_case("frame.snr_db", {"frame": {"snr_db": 4000}}, "frame.snr_db: ", ["frame"]),
    _range_case("frame.snr_db-mirror-heavy", _MIRROR_HEAVY,
                "frame.snr_db: variances must be nondecreasing (model ordering assumption), "
                "got (0.7505936168136361, ", ["frame"]),
    _range_case("frame.table-overflow-frame", _TABLE_OVERFLOW,
                "frame: snr_db=100: the pair's mean powers overflow a float", ["frame"]),
    _range_case("frame.n_subcarriers-x-n_packets",
                {"scenario": {"n_packets": 2}, "frame": {"n_subcarriers": 2**20}},
                "frame: n_subcarriers x n_packets must be <= 1048576, got 1048576 x 2",
                ["frame"]),
    _range_case("sweep.cfar_pfa-unused",
                {"sweep": {"axis": "irr_db", "grid": [-10], "modes": ["four"], "cfar_pfa": 5}},
                "sweep.cfar_pfa: only valid when", ["sweep"]),
    _range_case("sweep.modes", {"sweep": {"axis": "irr_db", "grid": [-10], "modes": ["x"]}},
                "sweep.modes[0]: "),
    _range_case("sweep.cfar_pfa",
                {"sweep": {"axis": "irr_db", "grid": [-10], "modes": ["four", "two-cfar"],
                           "cfar_pfa": 0}},
                "sweep.cfar_pfa: "),
    _range_case("seed-negative", {"seed": -1}, "seed: master_seed "),
    _range_case("seed-65-bits", {"seed": 2**64}, "seed: master_seed "),
    _range_case("stream_index", {"stream_index": -1}, "seed: stream_index "),
    _range_case("chunk_size", {"chunk_size": 0}, "chunk_size: unknown key"),
    _range_case("workers", {"workers": 0}, "workers must be an int >= 1, got 0"),
    # the key left the config with the block-addressed streams
    _range_case("chunk_size-removed", {"chunk_size": 65536}, "chunk_size: unknown key",
                ["sense"]),
    _range_case("workers-max", {"workers": 10**6}, "workers must be <= 256, got 1000000",
                ["sense"]),
    _range_case("--workers-max", {}, "--workers: workers must be <= 256, got 1000000",
                ["sense", "--workers", str(10**6)]),
    _range_case("--workers-0", {}, "--workers: workers must be an int >= 1, got 0",
                ["sense", "--workers", "0"]),
    # 400 digits of trials would start a run without end
    _range_case("trials-max", {"trials": 10**400}, f"trials must be <= {10**12}, got 1000",
                ["sense"]),
    _range_case("--trials-max", {}, f"--trials: trials must be <= {10**12}, got 1000",
                ["sense", "--trials", str(10**400)]),
    _range_case("--trials-0", {}, "--trials: trials must be an int >= 1, got 0",
                ["sense", "--trials", "0"]),
    _range_case("--seed-negative", {}, "--seed: ", ["analytic", "--seed", "-1"]),
    _range_case("--seed-65-bits", {}, "--seed: ", ["analytic", "--seed", str(2**64)]),
    *(_range_case(f"--cfar-pfa-{pfa}", {}, "--cfar-pfa: ",
                  ["analytic", "--mode", "two-cfar", "--cfar-pfa", pfa])
      for pfa in ("0", "1.5", "nan")),
    _range_case("--mode-two-cfar-alone", {}, "--cfar-pfa: ", ["analytic", "--mode", "two-cfar"]),
    _range_case("--cfar-pfa-with-four", {}, "--cfar-pfa: ",
                ["analytic", "--mode", "four", "--cfar-pfa", "0.1"]),
    _range_case("--cfar-pfa-alone", {}, "--cfar-pfa: requires --mode two-cfar",
                ["analytic", "--cfar-pfa", "0.1"]),
])
def test_every_range_error_names_its_key(tmp_path, monkeypatch, capsys, command, config, where):
    """Each model type states its own ranges, ExperimentConfig those of the
    top-level values; its error reads bare for a top-level value, behind
    the section for a nested one, or behind the dotted key (or flag) where
    the model names another field, and always exits 2 before any trial."""
    code, err = _main_without_trials(tmp_path, monkeypatch, capsys, config, command)
    assert code == 2
    assert err.startswith(f"error: {where}")


@pytest.mark.parametrize("command, config", [
    pytest.param(["analytic"], {"frame": {"snr_db": 4000}}, id="frame.snr_db-analytic"),
    pytest.param(["sense", "--trials", "100"], _TABLE_OVERFLOW, id="frame.table-overflow-sense"),
    pytest.param(["analytic"], _MIRROR_HEAVY, id="mirror-heavy-analytic"),
    pytest.param(["sense", "--trials", "2000", "--verify"], _MIRROR_HEAVY,
                 id="mirror-heavy-sense-verify"),
    pytest.param(["figure", "5", "--trials", "100"], _MIRROR_HEAVY, id="mirror-heavy-figure-5"),
])
def test_only_frame_checks_the_frames_scenario(tmp_path, capsys, command, config):
    """The frame's scenario (``frame.snr_db`` on both sides) and its pair
    table are checked by ``frame`` alone, so a frame section, written or
    default, that ``frame`` refuses does not refuse another command."""
    import iqsense.cli as cli

    cfgf = tmp_path / "c.json"
    cfgf.write_text(json.dumps(config))
    assert cli.main([*command, "--config", str(cfgf), "--out", str(tmp_path / "o")]) == 0
    assert all(line.startswith("verify OK") for line in capsys.readouterr().err.splitlines())


@pytest.mark.parametrize("command", [["outage"], ["figure", "6"]], ids=["outage", "figure-6"])
@pytest.mark.parametrize("flag", [False, True], ids=["config", "flag"])
def test_outage_takes_any_trial_count(tmp_path, monkeypatch, capsys, command, flag):
    """The outage Monte Carlo draws in slices, so ``outage`` and
    ``figure 6`` take 10**10 trials, from the config or the flag, and hand
    that count to every call."""
    import iqsense.cli as cli
    from iqsense.stats import Estimate

    calls = []

    def stub(sc, trials, rng):
        calls.append(trials)
        return Estimate(0.5, 0.4, 0.6)

    monkeypatch.setattr(cli, "mc_outage", stub)
    cfgf = tmp_path / "c.json"
    cfgf.write_text(json.dumps({} if flag else {"trials": 10**10}))
    argv = [*command, "--config", str(cfgf), *(["--trials", str(10**10)] if flag else [])]
    assert cli.main(argv) == 0
    assert capsys.readouterr().err == ""
    assert calls and set(calls) == {10**10}


_HUGE = 10**400
# A string, a bool, null, NaN and an int too large for a double.
_BAD = {"string": "1", "true": True, "null": None, "nan": math.nan, "400-digits": _HUGE}


def _real(name, bound=""):
    return lambda v: f"{name} must be finite{bound}, got {v!r}"


def _int(name, lo, hi):
    return lambda v: (f"{name} must be <= {hi}, got {v}" if v is _HUGE
                      else f"{name} must be an int >= {lo}, got {v!r}")


def _scalar(key, where, message, *, config=None, command=("analytic",), skip=()):
    """One case per bad value of config ``key``: its full error line reads
    ``<where>: <model message>``, bare when ``where`` is empty."""
    section, _, field = key.rpartition(".")
    config = config or (lambda v: {section: {field: v}} if section else {field: v})
    for bad, v in _BAD.items():
        if bad not in skip:
            line = f"{where}: {message(v)}" if where else message(v)
            yield pytest.param(list(command), config(v), line, id=f"{key}-{bad}")


def _scalar_cases():
    yield from _scalar("trials", "", _int("trials", 1, 10**12))
    yield from _scalar("workers", "", _int("workers", 1, 256))
    yield from _scalar("seed", "seed",
                       lambda v: f"master_seed must be an int in [0, 2**64), got {v!r}")
    # any nonnegative int names a stream, 400 digits long too
    yield from _scalar("stream_index", "seed", _int("stream_index", 0, None), skip=["400-digits"])
    yield from _scalar("format", "", lambda v: f"format must be one of ['csv', 'json'], got {v!r}")
    for key in ("snr1_db", "snr2_db"):  # null is a silent subcarrier
        yield from _scalar(f"scenario.{key}", "scenario", _real(key), skip=["null"])
    for key in ("noise_var", "channel_var", "channel_var_mirror"):
        yield from _scalar(f"scenario.{key}", "scenario", _real(key, " and > 0"))
    yield from _scalar("scenario.psk_order", "scenario", _int("psk_order", 2, 1024))
    yield from _scalar("scenario.n_packets", "scenario", _int("n_packets", 1, 1024))
    yield from _scalar(
        "scenario.cfar_pfa", "scenario.cfar_pfa",
        lambda v: ("two-cfar requires target_pfa in (0, 1], got None" if v is None
                   else f"target_pfa must be finite, got {v!r}"),
        config=lambda v: {"scenario": {"mode": "two-cfar", "cfar_pfa": v}})
    for side in ("tx", "rx"):  # a null IRR is the ideal front end
        yield from _scalar(f"scenario.{side}_irr_db", f"scenario.{side}_irr_db", _real("irr_db"),
                           skip=["null"])
        for name in ("epsilon", "theta"):
            yield from _scalar(f"scenario.{side}_{name}",
                               f"scenario.{side}_epsilon/{side}_theta", _real(name))
    for key in ("p_mk", "p0", "beta_sq_sec", "rate_p"):
        yield from _scalar(f"outage.{key}", "outage", _real(key, " and >= 0"))
    for key in ("noise_p", "var_g", "var_h"):
        yield from _scalar(f"outage.{key}", "outage", _real(key, " and > 0"))
    yield from _scalar("outage.irr_db", "outage", _real("irr_db"), skip=["null"])
    yield from _scalar("frame.n_subcarriers", "frame", _int("n_subcarriers", 2, 2**20))
    yield from _scalar("frame.snr_db", "frame", _real("snr_db"), command=["frame"])
    yield from _scalar("figure.irr_grid", "figure", _real("irr_grid[1]"), command=["figure", "3"],
                       config=lambda v: {"figure": {"irr_grid": [-10.0, v]}})
    yield from _scalar("sweep.grid", "sweep", _real("grid[1]"), command=["sweep"],
                       config=lambda v: {"sweep": {"axis": "snr1_db", "grid": [0.0, v]}})


@pytest.mark.parametrize("command, config, message", list(_scalar_cases()))
def test_every_scalar_error_reads_in_one_form(tmp_path, monkeypatch, capsys,
                                             command, config, message):
    """A bad value of any scalar key, a JSON integer too large for a double
    among them, exits 2 before any trial with one stderr line: the message
    of the model type that takes it, in the one form."""
    code, err = _main_without_trials(tmp_path, monkeypatch, capsys, config, command)
    assert code == 2
    assert err == f"error: {message}\n"


def test_largest_constellation_runs(tmp_path, capsys):
    import iqsense.cli as cli

    cfgf = tmp_path / "c.json"
    cfgf.write_text(json.dumps({"scenario": {"psk_order": 1024}, "trials": 10}))
    assert cli.main(["sense", "--config", str(cfgf)]) == 0
    assert "tally,H3,H3," in capsys.readouterr().out


def test_overflowing_variances_stderr_is_the_error_line(tmp_path):
    cfgf = tmp_path / "c.json"
    cfgf.write_text(json.dumps({"scenario": {"snr1_db": 3080, "channel_var": 100}}))
    r = run_cli("analytic", "--config", str(cfgf))
    assert r.returncode == 2
    assert r.stderr == "error: scenario: sigma2_sq must be finite and > 0, got inf\n"


def test_seed_beyond_64_bits_exit_code(tmp_path):
    cfgf = tmp_path / "c.json"
    cfgf.write_text(json.dumps({"seed": 2**64}))
    r = run_cli("analytic", "--config", str(cfgf))
    assert r.returncode == 2
    assert r.stderr.startswith("error: seed: master_seed must be an int in [0, 2**64)")
    assert "Traceback" not in r.stderr


def _count_batches_and_helpers(monkeypatch) -> tuple[list, list]:
    """Record every helper thread the trial engine starts and the job
    count of every engine batch; both still run."""
    import threading

    import iqsense.montecarlo as montecarlo

    started, batches = [], []
    real_tally = montecarlo._tally_jobs

    class Helper(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    def tally(jobs, *args):
        batches.append(len(jobs))
        return real_tally(jobs, *args)

    monkeypatch.setattr(montecarlo, "Thread", Helper)
    monkeypatch.setattr(montecarlo, "_tally_jobs", tally)
    return started, batches


@pytest.mark.parametrize("fig_id", ["4", "5"])
def test_figure_call_runs_one_engine_batch(tmp_path, monkeypatch, fig_id):
    """All the figure's curves run as one engine batch: below the
    crossover on the calling thread alone, above it (65,536 trials at two
    packets) with one helper for the whole batch at --workers 2, not one
    batch per curve or one helper per grid point."""
    import iqsense.cli as cli

    started, batches = _count_batches_and_helpers(monkeypatch)
    for trials, helpers in ((300, 0), (65_536, 1)):
        cfgf = tmp_path / "c.json"
        cfgf.write_text(json.dumps({
            "scenario": {"n_packets": 2},
            "figure": {"irr_grid": [-30.0, -20.0], "snr1_grid": [0.0, 5.0],
                       "delta_snrs": [0.0, 10.0]},
            "trials": trials,
        }))
        argv = ["figure", fig_id, "--config", str(cfgf), "--workers", "2",
                "--out", str(tmp_path / "f.csv")]
        assert cli.main(argv) == 0
        assert batches == [4]  # two curves of two grid points each
        assert len(started) == helpers
        batches.clear()
        started.clear()


def test_sweep_call_runs_one_engine_batch(tmp_path, monkeypatch):
    """A sweep's grid points and modes run as one engine batch, on the
    calling thread alone below the crossover."""
    import iqsense.cli as cli

    started, batches = _count_batches_and_helpers(monkeypatch)
    cfgf = tmp_path / "c.json"
    cfgf.write_text(json.dumps({
        "sweep": {"axis": "irr_db", "grid": [-30.0, -20.0, -10.0],
                  "modes": ["four", "two-bayes"]},
        "trials": 300,
    }))
    argv = ["sweep", "--config", str(cfgf), "--workers", "2", "--out", str(tmp_path / "s.csv")]
    assert cli.main(argv) == 0
    assert batches == [3]
    assert started == []


def test_figure_computes_each_points_variances_once(tmp_path, monkeypatch):
    """The sweep computes each grid point's variances once, for the
    grid check before the trials and for the points' rules."""
    import iqsense.cli as cli
    import iqsense.montecarlo as montecarlo

    calls = []
    real = montecarlo.hypothesis_variances

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(montecarlo, "hypothesis_variances", counting)
    montecarlo.scenario_variances.cache_clear()
    cfgf = tmp_path / "c.json"
    cfgf.write_text(json.dumps({"figure": {"irr_grid": [-30.0, -20.0, -10.0]}, "trials": 100}))
    assert cli.main(["figure", "5", "--config", str(cfgf), "--out", str(tmp_path / "f.csv")]) == 0
    assert len(calls) == 3 * 2  # grid points x curves


@pytest.mark.parametrize("command, points", [
    (["sense", "--verify"], 1),
    (["figure", "3"], 4),  # two grid points x two modes
], ids=["sense-verify", "figure-3"])
def test_each_printed_point_evaluates_one_conditional_matrix(tmp_path, monkeypatch, command,
                                                             points):
    """Every Gamma column of a printed point reads one matrix of
    P(decide | truth); the exact columns of `sense`, and its closure check,
    read one set of exact rows, and `figure` forms none."""
    import iqsense.cli as cli
    import iqsense.detection as detection

    calls, exact_calls = [], []
    real, real_exact = detection.conditional_probabilities, cli.exact_probabilities

    def counting(*args):
        calls.append(args)
        return real(*args)

    def counting_exact(*args):
        exact_calls.append(args)
        return real_exact(*args)

    monkeypatch.setattr(cli, "conditional_probabilities", counting)
    monkeypatch.setattr(detection, "conditional_probabilities", counting)
    monkeypatch.setattr(cli, "exact_probabilities", counting_exact)
    cfgf = tmp_path / "c.json"
    cfgf.write_text(json.dumps({"figure": {"irr_grid": [-30.0, -20.0]}, "trials": 2000}))
    assert cli.main([*command, "--config", str(cfgf), "--out", str(tmp_path / "o.csv")]) == 0
    assert len(calls) == points
    assert len(exact_calls) == (command[0] == "sense")


@pytest.mark.parametrize("command", [["sense", "--trials", "20000"], ["figure", "5"]],
                         ids=["sense", "figure-5"])
def test_parallel_calls_start_no_child_process(tmp_path, monkeypatch, command):
    import multiprocessing

    import iqsense.cli as cli

    def no_fork():
        raise AssertionError("os.fork called")

    monkeypatch.setattr(os, "fork", no_fork)
    cfgf = tmp_path / "c.json"
    cfgf.write_text(json.dumps({
        "figure": {"irr_grid": [-30.0, -20.0]}, "trials": 2000,
    }))
    argv = [*command, "--config", str(cfgf), "--workers", "2", "--out", str(tmp_path / "o.csv")]
    assert cli.main(argv) == 0
    assert multiprocessing.active_children() == []


def test_calls_without_trials_start_no_engine_batch_or_helper(tmp_path, monkeypatch, capsys):
    """`analytic`, and a `figure 5` whose grid is refused, start no engine
    batch and no thread."""
    import iqsense.cli as cli

    started, batches = _count_batches_and_helpers(monkeypatch)
    assert cli.main(["analytic", "--workers", "2"]) == 0
    cfgf = tmp_path / "c.json"
    cfgf.write_text(json.dumps({
        "scenario": {"snr1_db": 0, "snr2_db": 13},
        "figure": {"irr_grid": [-15.0]},
        "trials": 100,
    }))
    assert cli.main(["figure", "5", "--config", str(cfgf), "--workers", "2"]) == 2
    assert started == []
    assert batches == []


def test_figure_bytes_independent_of_workers(tmp_path):
    cfgf = tmp_path / "c.json"
    cfgf.write_text(json.dumps({
        "figure": {"irr_grid": [-30.0, -20.0, -10.0]},
        "trials": 2000,
    }))
    outs = []
    for workers in ("1", "2"):
        out = tmp_path / f"f{workers}.csv"
        r = run_cli("figure", "5", "--config", str(cfgf), "--workers", workers,
                    "--out", str(out))
        assert r.returncode == 0, r.stderr
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
    assert outs[0].count(b"\n5,joint,irr_db,") == 3


@pytest.mark.parametrize("pfa", ["0", "1.5", "nan"])
def test_cfar_pfa_out_of_range_exit_code(pfa):
    r = run_cli("analytic", "--mode", "two-cfar", "--cfar-pfa", pfa)
    assert r.returncode == 2
    want = ("target_pfa must be finite, got nan" if pfa == "nan"
            else "two-cfar requires target_pfa in (0, 1]")
    assert r.stderr.startswith(f"error: --cfar-pfa: {want}")
    assert "Traceback" not in r.stderr


@pytest.mark.parametrize("where", ["flag", "config"])
@pytest.mark.parametrize("target, reason", [
    ("", "is a directory"),
    ("missing/s.csv", "does not exist"),
    ("s.csv", "permission denied"),
])
def test_unwritable_out_exits_before_any_trial(tmp_path, monkeypatch, capsys, where,
                                               target, reason):
    import iqsense.cli as cli

    def no_trials(*args, **kwargs):
        raise AssertionError("run_trials called")

    monkeypatch.setattr(cli, "run_trials", no_trials)
    if reason == "permission denied":  # root writes anywhere; deny it here
        monkeypatch.setattr(cli.os, "access", lambda path, mode: False)
    out = str(tmp_path / target)
    if where == "flag":
        argv, key = ["sense", "--out", out], "--out"
    else:
        cfgf = tmp_path / "c.json"
        cfgf.write_text(json.dumps({"out": out}))
        argv, key = ["sense", "--config", str(cfgf)], "out"
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {key}: {out}")
    assert reason in err


@pytest.mark.parametrize("where", ["flag", "config"])
@pytest.mark.parametrize("target, reason", [
    *((target, f"{target!r} does not name a file")
      for target in ("", "missing/", "sub/x/", "sub/a.csv/")),
    *((target, f"{target}: directory {target[:-6]} does not exist")
      for target in ("missing/../y.csv", "sub/a.csv/../y.csv")),
])
def test_out_that_names_no_file_exits_before_any_trial(tmp_path, monkeypatch, capsys, where,
                                                       target, reason):
    """An empty ``--out`` or ``out``, or one ending in a separator, names
    no file to write, and one that passes through a missing directory or a
    file cannot be written: each is refused before any trial, not after
    them all."""
    import iqsense.cli as cli

    def no_trials(*args, **kwargs):
        raise AssertionError("run_trials called")

    monkeypatch.setattr(cli, "run_trials", no_trials)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sub").mkdir()
    (tmp_path / "sub" / "a.csv").write_text("")
    if where == "flag":
        argv, key = ["sense", "--out", target], "--out"
    else:
        (tmp_path / "c.json").write_text(json.dumps({"out": target}))
        argv, key = ["sense", "--config", "c.json"], "out"
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == f"error: {key}: {reason}\n"


def test_removed_calibration_key_exit_code(tmp_path):
    cfgf = tmp_path / "old.json"
    cfgf.write_text(json.dumps({"calibration_samples": 1000000}))
    r = run_cli("analytic", "--config", str(cfgf))
    assert r.returncode == 2
    assert "calibration_samples: unknown key" in r.stderr


def test_out_leaves_foreign_tmp_file_alone(tmp_path):
    out = tmp_path / "s.csv"
    other = tmp_path / "s.csv.tmp"
    other.write_text("another run's partial output")
    r = run_cli("sense", "--trials", "100", "--out", str(out))
    assert r.returncode == 0
    assert other.read_text() == "another run's partial output"
    assert "tally,H0,H0," in out.read_text()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["s.csv", "s.csv.tmp"]


def test_malformed_json_exit_code(tmp_path):
    cfgf = tmp_path / "broken.json"
    cfgf.write_text("{oops")
    r = run_cli("analytic", "--config", str(cfgf))
    assert r.returncode == 2
    assert "malformed JSON" in r.stderr


def test_sweep_requires_section():
    r = run_cli("sweep", "--trials", "100")
    assert r.returncode == 2
    assert "sweep" in r.stderr


def test_sweep_runs(tmp_path):
    cfgf = tmp_path / "c.json"
    cfgf.write_text(json.dumps({
        "sweep": {"axis": "irr_db", "grid": [-20.0, -10.0],
                  "modes": ["four", "two-bayes"]},
        "trials": 2000,
    }))
    out = tmp_path / "sweep.csv"
    r = run_cli("sweep", "--config", str(cfgf), "--out", str(out))
    assert r.returncode == 0
    lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    assert lines[0].startswith("axis,value,mode,")
    assert len(lines) == 1 + 4  # header + 2 grid points x 2 modes


def test_sweep_analytic_columns_are_the_closed_forms(tmp_path):
    """Each row's analytic columns are analytic_false_alarm and
    analytic_detection at that row's variances and rule, to the last bit."""
    import csv

    from iqsense.config import load_config
    from iqsense.detection import CONVENTIONS, analytic_detection, analytic_false_alarm
    from iqsense.montecarlo import rule_for_mode, scenario_variances

    cfgf = tmp_path / "c.json"
    cfgf.write_text(json.dumps({
        "scenario": {"n_packets": 2, "rx_irr_db": -20.0},
        "sweep": {"axis": "irr_db", "grid": [-25.0, -12.0],
                  "modes": ["four", "two-bayes", "two-cfar"], "cfar_pfa": 0.1},
        "trials": 500,
    }))
    r = run_cli("sweep", "--config", str(cfgf))
    assert r.returncode == 0
    rows = list(csv.DictReader(l for l in r.stdout.splitlines() if not l.startswith("#")))
    cfg = load_config(str(cfgf))
    scenarios = [cfg.scenario.with_irr(irr) for irr in cfg.sweep.grid]
    expected = [(scn, scenario_variances(scn), mode)
                for scn in scenarios for mode in cfg.sweep.modes]
    assert len(rows) == len(expected) == 6
    for row, (scn, v, mode) in zip(rows, expected):
        assert row["mode"] == mode.kind
        rule = rule_for_mode(v, scn.n_packets, mode)
        for convention in CONVENTIONS:
            short = convention.split("-")[0]
            assert float(row[f"pfa_analytic_{short}"]) == analytic_false_alarm(v, rule, convention)
            assert float(row[f"pd_analytic_{short}"]) == analytic_detection(v, rule, convention)


def test_sweep_mode_override_without_sweep_modes(tmp_path, capsys):
    """A sweep with no ``modes`` runs the scenario's mode as --mode left it,
    and prints the hash of the config that states that mode."""
    import iqsense.cli as cli

    sweep_cfg = {"sweep": {"axis": "irr_db", "grid": [-20.0, -10.0]}, "trials": 200}
    outputs = []
    for config, flags in ((sweep_cfg, ["--mode", "two-bayes"]),
                          ({**sweep_cfg, "scenario": {"mode": "two-bayes"}}, [])):
        cfgf = tmp_path / "c.json"
        cfgf.write_text(json.dumps(config))
        assert cli.main(["sweep", "--config", str(cfgf), "--format", "json", *flags]) == 0
        outputs.append(capsys.readouterr().out)
    doc = json.loads(outputs[0])
    assert [row["mode"] for row in doc["rows"]] == ["two-bayes", "two-bayes"]
    assert outputs[0] == outputs[1]


def test_mode_override_flags():
    r = run_cli("analytic", "--mode", "two-cfar", "--cfar-pfa", "0.1",
                "--format", "json")
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    assert doc["report"]["mode"] == "two-cfar"
    assert doc["report"]["rule"]["levels"] == ["H0", "H2"]
    bad = run_cli("analytic", "--mode", "two-cfar")
    assert bad.returncode == 2
    lone = run_cli("analytic", "--cfar-pfa", "0.1")
    assert lone.returncode == 2


def test_outage_command():
    r = run_cli("outage", "--trials", "50000", "--seed", "9",
                "--format", "json")
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    rep = doc["report"]
    assert rep["monte_carlo"]["lo"] <= rep["analytic"] <= rep["monte_carlo"]["hi"]


def test_frame_command(tmp_path):
    cfgf = tmp_path / "c.json"
    cfgf.write_text(json.dumps({
        "frame": {"n_subcarriers": 16, "active": [1, 2, -3], "snr_db": 10.0},
        "scenario": {"n_packets": 8},
    }))
    out = tmp_path / "frame.json"
    r = run_cli("frame", "--config", str(cfgf), "--seed", "4",
                "--format", "json", "--out", str(out))
    assert r.returncode == 0
    doc = json.loads(out.read_text())
    assert len(doc["rows"]) == 16
    total = sum(sum(row) for row in doc["summary"]["confusion"])
    assert total == 16
    # stdout carries the summary line for quick inspection
    assert json.loads(r.stdout) == {"summary": doc["summary"]}
    assert set(doc["summary"]) == {
        "confusion", "vacant_mirror_flags", "unflagged_mirror_risk", "missed_own",
    }


# sha256 of `iqsense frame` stdout for one seeded 512-subcarrier frame,
# drawn from SFC64 substreams.
_FRAME_STDOUT_SHA256 = {
    "csv": "16ae36ce103f8b60edc541041ff91037c3cc59233ab2dd1797d0cf830f4175c6",
    "json": "dca21e08da8f7af53297c572a8887da7f940a46c4f3713470a0718e70dcb485d",
}


@pytest.mark.parametrize("fmt", sorted(_FRAME_STDOUT_SHA256))
def test_frame_output_bytes_golden(tmp_path, fmt):
    active = [1, 2, 3, -3, -7, 40, -40, 100, 255, -256, 256, -128, 17, -17, -200]
    cfgf = tmp_path / "c.json"
    cfgf.write_text(json.dumps({
        "frame": {"n_subcarriers": 512, "active": active, "snr_db": 5.0},
        "scenario": {"n_packets": 2},
    }))
    r = subprocess.run(
        [*CMD, "frame", "--config", str(cfgf), "--seed", "31", "--format", fmt],
        capture_output=True, timeout=300,
    )
    assert r.returncode == 0, r.stderr
    assert hashlib.sha256(r.stdout).hexdigest() == _FRAME_STDOUT_SHA256[fmt]


_IMPORT_PROBE = """
import json, sys

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

seen = {}
import iqsense
seen["import iqsense"] = scipy_modules()
random_at_import = "numpy.random" in sys.modules
import iqsense.cli as cli
seen["import iqsense.cli"] = scipy_modules()
rules = []
run_trials = cli.run_trials
def spy(*args, **kwargs):
    rules.append(kwargs["rule"])
    return run_trials(*args, **kwargs)
cli.run_trials = spy
rc = {}
for name, argv in json.loads(sys.argv[1]):
    rc[name] = cli.main(argv)
    seen[name] = scipy_modules()
print(json.dumps({
    "rc": rc,
    "scipy": seen,
    "random_at_import": random_at_import,
    "boundaries": [[b.hex() for b in r.boundaries] for r in rules],
}))
"""


def test_runs_never_import_scipy(tmp_path):
    """iqsense needs numpy only: importing it and running the four-level
    detector, the two-cfar detector or a frame loads no scipy module.
    numpy.random, which every trial needs and numpy loads lazily, must be
    loaded at import, not in the first trial.  The two-cfar threshold is
    the one computed in this process.  A fresh interpreter is needed
    because the tests load scipy into this one as an oracle."""
    from iqsense.config import parse_config
    from iqsense.montecarlo import scenario_variances
    from iqsense.numerics import inverse_gamma_sf

    cfgf = tmp_path / "c.json"
    cfgf.write_text(json.dumps({
        "frame": {"n_subcarriers": 16, "active": [1, 2, -3], "snr_db": 10.0},
    }))
    r = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, json.dumps([
            ["sense", ["sense", "--trials", "200", "--workers", "1",
                       "--out", str(tmp_path / "s.csv")]],
            ["cfar", ["sense", "--mode", "two-cfar", "--cfar-pfa", "0.1", "--trials", "200",
                      "--workers", "1", "--out", str(tmp_path / "c.csv")]],
            ["frame", ["frame", "--config", str(cfgf), "--out", str(tmp_path / "f.csv")]],
        ])],
        capture_output=True, text=True, timeout=300,
    )
    assert r.returncode == 0, r.stderr
    doc = json.loads(r.stdout.splitlines()[-1])
    assert doc["rc"] == {"sense": 0, "cfar": 0, "frame": 0}
    assert doc["scipy"] == {
        "import iqsense": [], "import iqsense.cli": [], "sense": [], "cfar": [], "frame": [],
    }
    assert doc["random_at_import"]
    sc = parse_config({}).scenario
    t = inverse_gamma_sf(sc.n_packets, 2.0 * scenario_variances(sc).sigma0_sq / sc.n_packets, 0.1)
    assert doc["boundaries"][1] == [t.hex()]


def test_figure_smoke(tmp_path):
    cfgf = tmp_path / "c.json"
    cfgf.write_text(json.dumps({
        "figure": {"irr_grid": [-20.0, -10.0], "snr1_grid": [0.0],
                   "delta_snrs": [-10.0]},
        "trials": 2000,
    }))
    for fig, expected_rows in ((3, 4), (4, 1), (5, 4), (6, 2)):
        out = tmp_path / f"fig{fig}.csv"
        r = run_cli("figure", str(fig), "--config", str(cfgf),
                    "--out", str(out))
        assert r.returncode == 0, r.stderr
        rows = [l for l in out.read_text().splitlines()
                if l and not l.startswith("#")]
        assert len(rows) == 1 + expected_rows
    bad = run_cli("figure", "7")
    assert bad.returncode == 2
