"""JSON experiment configuration: defaults, validation, hashing."""

import json
import math

import pytest

from iqsense.config import (
    DEFAULT_IRR_GRID,
    DEFAULT_SNR1_GRID,
    ConfigError,
    canonical_hash,
    load_config,
    parse_config,
)
from iqsense.signal_model import IqMismatch


def test_empty_config_defaults():
    cfg = parse_config({})
    sc = cfg.scenario
    assert sc.snr1_db == 0.0 and sc.snr2_db == -10.0
    assert sc.tx_mismatch.epsilon == pytest.approx(10.0 ** (-15.0 / 20.0))
    assert sc.rx_mismatch is None
    assert sc.n_packets == 1
    assert sc.mode.kind == "four"
    assert cfg.trials == 1_000_000
    assert cfg.seed.master_seed == 0 and cfg.seed.stream_index == 0
    assert cfg.workers == 1
    assert cfg.fmt == "csv"
    assert cfg.sweep is None
    # Outage and frame sections always resolve (with defaults).
    assert cfg.outage.p0 == 10.0
    assert cfg.outage.beta_sq_sec == pytest.approx(10.0 ** (-1.5))
    assert cfg.frame.occupancy.n_subcarriers == 512
    assert cfg.figure.irr_grid == DEFAULT_IRR_GRID
    assert cfg.figure.snr1_grid == DEFAULT_SNR1_GRID


def test_unknown_keys_rejected_with_path():
    with pytest.raises(ConfigError, match="bogus"):
        parse_config({"bogus": 1})
    with pytest.raises(ConfigError, match="scenario.extra"):
        parse_config({"scenario": {"extra": 1}})
    with pytest.raises(ConfigError, match="sweep.unknown"):
        parse_config({"sweep": {"axis": "irr_db", "grid": [-10.0], "unknown": 2}})
    with pytest.raises(ConfigError, match="frame.foo"):
        parse_config({"frame": {"foo": 1}})
    with pytest.raises(ConfigError, match="outage.bar"):
        parse_config({"outage": {"bar": 1}})
    with pytest.raises(ConfigError, match="figure"):
        parse_config({"figure": {"grid": [1.0]}})


def test_scenario_fields():
    cfg = parse_config({
        "scenario": {
            "snr1_db": 5.0, "snr2_db": None, "tx_irr_db": -20.0,
            "rx_irr_db": -25.0, "n_packets": 4, "psk_order": 8,
            "noise_var": 2.0, "mode": "two-bayes",
        }
    })
    sc = cfg.scenario
    assert sc.snr2_db == -math.inf and sc.pair.power_mk == 0.0
    assert sc.pair.power_k == pytest.approx(2.0 * 10.0 ** 0.5)
    assert sc.rx_mismatch.epsilon == pytest.approx(10.0 ** (-25.0 / 20.0))
    assert sc.n_packets == 4 and sc.pair.psk_order == 8
    assert sc.mode.kind == "two-bayes"


def test_scenario_explicit_ideal_tx():
    cfg = parse_config({"scenario": {"tx_irr_db": None}})
    assert cfg.scenario.tx_mismatch == IqMismatch.ideal()


def test_scenario_epsilon_theta_form():
    cfg = parse_config({
        "scenario": {"tx_epsilon": 0.1, "tx_theta": 0.05}
    })
    assert cfg.scenario.tx_mismatch.epsilon == 0.1
    assert cfg.scenario.tx_mismatch.theta == 0.05
    with pytest.raises(ConfigError, match="tx_irr_db"):
        parse_config({"scenario": {"tx_irr_db": -15.0, "tx_epsilon": 0.1}})


def test_mode_cfar_requirements():
    cfg = parse_config({"scenario": {"mode": "two-cfar", "cfar_pfa": 0.05}})
    assert cfg.scenario.mode.target_pfa == 0.05
    with pytest.raises(ConfigError, match="cfar_pfa"):
        parse_config({"scenario": {"mode": "two-cfar"}})
    with pytest.raises(ConfigError, match="cfar_pfa"):
        parse_config({"scenario": {"mode": "four", "cfar_pfa": 0.05}})
    with pytest.raises(ConfigError, match="mode"):
        parse_config({"scenario": {"mode": "three-level"}})


def test_sweep_section():
    cfg = parse_config({
        "sweep": {"axis": "irr_db", "grid": [-20.0, -10.0],
                  "modes": ["four", "two-cfar"], "cfar_pfa": 0.1}
    })
    assert cfg.sweep.axis == "irr_db"
    assert [m.kind for m in cfg.sweep.modes] == ["four", "two-cfar"]
    assert cfg.sweep.modes[1].target_pfa == 0.1
    with pytest.raises(ConfigError, match="axis"):
        parse_config({"sweep": {"grid": [-10.0]}})
    with pytest.raises(ConfigError, match="axis"):
        parse_config({"sweep": {"axis": "power", "grid": [-10.0]}})
    with pytest.raises(ConfigError, match="grid"):
        parse_config({"sweep": {"axis": "irr_db", "grid": []}})
    with pytest.raises(ConfigError, match="cfar_pfa"):
        parse_config({"sweep": {"axis": "irr_db", "grid": [-10.0],
                                "modes": ["two-cfar"]}})
    # Without explicit modes the scenario's own mode sweeps.
    d = parse_config({"sweep": {"axis": "snr1_db", "grid": [0.0]}})
    assert [m.kind for m in d.sweep.modes] == ["four"]


def test_frame_section():
    cfg = parse_config({
        "frame": {"n_subcarriers": 32, "active": [1, -5, 8], "snr_db": 3.0}
    })
    assert cfg.frame.occupancy.active == frozenset({1, -5, 8})
    assert cfg.frame.snr_db == 3.0
    with pytest.raises(ConfigError, match="DC bin"):
        parse_config({"frame": {"active": [0]}})
    with pytest.raises(ConfigError, match="n_subcarriers"):
        parse_config({"frame": {"n_subcarriers": 7}})


def test_outage_section():
    cfg = parse_config({"outage": {"irr_db": -20.0, "p0": 4.0, "rate_p": 2.0}})
    assert cfg.outage.beta_sq_sec == pytest.approx(0.01)
    assert cfg.outage.gamma_threshold == 3.0
    ideal = parse_config({"outage": {"irr_db": None}})
    assert ideal.outage.beta_sq_sec == 0.0
    direct = parse_config({"outage": {"beta_sq_sec": 0.2}})
    assert direct.outage.beta_sq_sec == 0.2
    with pytest.raises(ConfigError, match="irr_db"):
        parse_config({"outage": {"irr_db": -20.0, "beta_sq_sec": 0.2}})


def test_type_checks():
    with pytest.raises(ConfigError, match="trials"):
        parse_config({"trials": 0})
    with pytest.raises(ConfigError, match="trials"):
        parse_config({"trials": True})
    with pytest.raises(ConfigError, match="seed"):
        parse_config({"seed": -1})
    with pytest.raises(ConfigError, match="n_packets"):
        parse_config({"scenario": {"n_packets": 2.5}})
    with pytest.raises(ConfigError, match="snr1_db"):
        parse_config({"scenario": {"snr1_db": "loud"}})
    with pytest.raises(ConfigError, match="format"):
        parse_config({"format": "yaml"})


def test_canonical_hash_stability_and_sensitivity():
    base = parse_config({})
    same = parse_config({"scenario": {"snr1_db": 0.0}, "workers": 8, "out": "x.csv"})
    # Workers and output destination are not part of the math.
    assert canonical_hash(base) == canonical_hash(same)
    for raw in (
        {"seed": 1},
        {"trials": 2},
        {"scenario": {"snr1_db": 1.0}},
        {"scenario": {"tx_irr_db": -16.0}},
        {"scenario": {"mode": "two-bayes"}},
        {"chunk_size": 1024},
        {"outage": {"p0": 5.0}},
    ):
        assert canonical_hash(parse_config(raw)) != canonical_hash(base)


def test_canonical_dict_roundtrips_through_json():
    cfg = parse_config({
        "scenario": {"snr2_db": None, "tx_irr_db": -18.0},
        "sweep": {"axis": "irr_db", "grid": [-20.0, -10.0]},
        "seed": 7,
    })
    blob = json.dumps(cfg.canonical_dict())
    assert json.loads(blob) == cfg.canonical_dict()


def test_load_config_errors(tmp_path):
    missing = tmp_path / "nope.json"
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(str(missing))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError, match="malformed"):
        load_config(str(bad))
    ok = tmp_path / "ok.json"
    ok.write_text('{"trials": 5}')
    assert load_config(str(ok)).trials == 5
