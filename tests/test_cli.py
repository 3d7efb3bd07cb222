"""End-to-end CLI behaviour through the real entry point."""

import json
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
    assert "verify OK" in r.stdout


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
    assert r.stderr.startswith("error: figure: irr_db=-15: variances must be nondecreasing")


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
    assert err.startswith(f"error: figure: {point}: variances must be nondecreasing")


def _count_pools(monkeypatch) -> list:
    """Record every worker pool montecarlo constructs; the pools still work."""
    import iqsense.montecarlo as montecarlo

    made = []
    real = montecarlo.ProcessPoolExecutor

    def spy(*args, **kwargs):
        made.append(kwargs.get("max_workers"))
        return real(*args, **kwargs)

    monkeypatch.setattr(montecarlo, "ProcessPoolExecutor", spy)
    return made


@pytest.mark.parametrize("fig_id", ["4", "5"])
def test_figure_call_uses_one_pool(tmp_path, monkeypatch, fig_id):
    """Every curve and grid point of one figure call shares one pool."""
    import iqsense.cli as cli

    made = _count_pools(monkeypatch)
    cfgf = tmp_path / "c.json"
    cfgf.write_text(json.dumps({
        "figure": {"irr_grid": [-30.0, -20.0], "snr1_grid": [0.0, 5.0],
                   "delta_snrs": [0.0, 10.0]},
        "trials": 300, "chunk_size": 128,
    }))
    argv = ["figure", fig_id, "--config", str(cfgf), "--workers", "2",
            "--out", str(tmp_path / "f.csv")]
    assert cli.main(argv) == 0
    assert made == [2]


def test_calls_without_parallel_trials_start_no_pool(tmp_path, monkeypatch, capsys):
    import iqsense.cli as cli

    made = _count_pools(monkeypatch)
    assert cli.main(["analytic", "--workers", "2"]) == 0
    cfgf = tmp_path / "c.json"
    cfgf.write_text(json.dumps({
        "scenario": {"snr1_db": 0, "snr2_db": 13},
        "figure": {"irr_grid": [-15.0]},
        "trials": 100,
    }))
    assert cli.main(["figure", "5", "--config", str(cfgf), "--workers", "2"]) == 2
    assert made == []


def test_figure_bytes_independent_of_workers(tmp_path):
    cfgf = tmp_path / "c.json"
    cfgf.write_text(json.dumps({
        "figure": {"irr_grid": [-30.0, -20.0, -10.0]},
        "trials": 2000, "chunk_size": 512,
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


def test_removed_calibration_key_exit_code(tmp_path):
    cfgf = tmp_path / "old.json"
    cfgf.write_text(json.dumps({"calibration_samples": 1000000}))
    r = run_cli("analytic", "--config", str(cfgf))
    assert r.returncode == 2
    assert "calibration_samples: key removed" in r.stderr
    assert "closed form" in r.stderr


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
    assert json.loads(r.stdout)["summary"]["confusion"] == doc["summary"]["confusion"]


def test_frame_summary_line_serialises_numpy_counters(tmp_path, monkeypatch, capsys):
    """The stdout summary after ``--out`` takes numpy scalars, as the
    ``--out`` document does."""
    import dataclasses

    import numpy as np

    import iqsense.cli as cli

    real = cli.simulate_frame

    def numpy_counters(*args, **kwargs):
        r = real(*args, **kwargs)
        return dataclasses.replace(
            r,
            vacant_mirror_flags=np.int64(r.vacant_mirror_flags),
            unflagged_mirror_risk=np.int64(r.unflagged_mirror_risk),
            missed_own=np.int64(r.missed_own),
        )

    monkeypatch.setattr(cli, "simulate_frame", numpy_counters)
    cfgf = tmp_path / "c.json"
    cfgf.write_text(json.dumps({
        "frame": {"n_subcarriers": 16, "active": [1, 2, -3], "snr_db": 10.0},
    }))
    out = tmp_path / "frame.csv"
    assert cli.main(["frame", "--config", str(cfgf), "--seed", "4", "--out", str(out)]) == 0
    summary = json.loads(capsys.readouterr().out)["summary"]
    assert set(summary) == {
        "confusion", "vacant_mirror_flags", "unflagged_mirror_risk", "missed_own",
    }
    assert sum(map(sum, summary["confusion"])) == 16


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


def _probe(runs):
    """Run ``runs`` (name, argv) through ``cli.main`` in a fresh interpreter;
    return the exit codes, the scipy modules loaded after each step, whether
    ``import iqsense`` loaded numpy.random and the boundaries of every rule
    handed to ``run_trials``."""
    r = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, json.dumps(runs)],
        capture_output=True, text=True, timeout=300,
    )
    assert r.returncode == 0, r.stderr
    return json.loads(r.stdout.splitlines()[-1])


def test_four_level_and_frame_runs_never_import_scipy(tmp_path):
    """scipy is needed only by the two-cfar threshold and the far Gamma
    tail; importing iqsense and running the four-level detector or a frame
    must not pay its start-up cost.  numpy.random, which every trial needs
    and numpy loads lazily, must be loaded at import, not in the first
    trial.  A fresh interpreter is needed because other tests load scipy
    into this one."""
    cfgf = tmp_path / "c.json"
    cfgf.write_text(json.dumps({
        "frame": {"n_subcarriers": 16, "active": [1, 2, -3], "snr_db": 10.0},
    }))
    doc = _probe([
        ["sense", ["sense", "--trials", "200", "--workers", "1",
                   "--out", str(tmp_path / "s.csv")]],
        ["frame", ["frame", "--config", str(cfgf), "--out", str(tmp_path / "f.csv")]],
    ])
    assert doc["rc"] == {"sense": 0, "frame": 0}
    assert doc["scipy"] == {
        "import iqsense": [], "import iqsense.cli": [], "sense": [], "frame": [],
    }
    assert doc["random_at_import"]


def test_cfar_run_imports_scipy_on_first_use(tmp_path):
    """Positive control for the test above: the two-cfar threshold loads
    scipy when it is first needed, and the threshold it yields is the one
    computed in this process."""
    from iqsense.config import parse_config
    from iqsense.detection import scale_of
    from iqsense.montecarlo import scenario_variances
    from iqsense.numerics import inverse_gamma_sf

    doc = _probe([
        ["cfar", ["sense", "--mode", "two-cfar", "--cfar-pfa", "0.1", "--trials", "200",
                  "--workers", "1", "--out", str(tmp_path / "s.csv")]],
    ])
    assert doc["rc"] == {"cfar": 0}
    assert doc["scipy"]["import iqsense.cli"] == []
    assert "scipy.optimize" in doc["scipy"]["cfar"]
    sc = parse_config({}).scenario
    t = inverse_gamma_sf(sc.n_packets, scale_of(scenario_variances(sc).sigma0_sq, sc.n_packets), 0.1)
    assert doc["boundaries"] == [[t.hex()]]


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
