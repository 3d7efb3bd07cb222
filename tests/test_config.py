"""JSON experiment configuration: defaults, validation, hashing."""

import copy
import functools
import importlib.util
import json
import math
import re
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, seed, settings
from hypothesis import strategies as st

from iqsense.config import (
    ACCEPTED_KEYS,
    DEFAULT_IRR_GRID,
    DEFAULT_SNR1_GRID,
    ConfigError,
    canonical_hash,
    load_config,
    parse_config,
)
from iqsense.signal_model import IqMismatch

_ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("same_bytes", _ROOT / "tools" / "same_bytes.py")
same_bytes = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(same_bytes)


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
    # A target no sweep mode reads is refused, as scenario.cfar_pfa is.
    for extra in ({"modes": ["four", "two-bayes"]}, {}):
        with pytest.raises(ConfigError, match=r"^sweep\.cfar_pfa: only valid when"):
            parse_config({"sweep": {"axis": "irr_db", "grid": [-10.0],
                                    "cfar_pfa": 0.1, **extra}})
    # Without explicit modes the scenario's own mode sweeps, resolved
    # where it is used, after any --mode override.
    d = parse_config({"sweep": {"axis": "snr1_db", "grid": [0.0]}})
    assert d.sweep.modes is None
    assert d.canonical_dict()["sweep"]["modes"] == ["four"]


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


@pytest.mark.parametrize("raw, message", [
    ({"trials": 0}, "trials must be an int >= 1, got 0"),
    ({"workers": True}, "workers must be an int >= 1, got True"),
    ({"seed": 2**64}, f"seed: master_seed must be an int in [0, 2**64), got {2**64}"),
    ({"stream_index": 1.5}, "seed: stream_index must be an int >= 0, got 1.5"),
    ({"format": "yaml"}, "format must be one of ['csv', 'json'], got 'yaml'"),
    ({"bogus": 1}, "bogus: unknown key"),
    ({"scenario": {"n_packets": 0}}, "scenario: n_packets must be an int >= 1, got 0"),
])
def test_error_paths_join_like_unknown_keys(raw, message):
    """An unknown key is named by its path, bare at the top level.  A bad
    value reads as its model type's message: bare for a top-level value
    (ExperimentConfig's own), behind its section for a nested one, and
    behind ``seed`` for ``seed`` and ``stream_index``."""
    with pytest.raises(ConfigError) as e:
        parse_config(raw)
    assert str(e.value) == message


def test_minus_infinity_snr_is_a_silent_subcarrier(tmp_path):
    """JSON -Infinity on an SNR reads as null does: the same config and
    the same hash."""
    cfgs = []
    for name, text in (("inf", "-Infinity"), ("null", "null")):
        f = tmp_path / f"{name}.json"
        f.write_text('{"scenario": {"snr2_db": %s}}' % text)
        cfgs.append(load_config(str(f)))
    assert cfgs[0].scenario.snr2_db == -math.inf
    assert cfgs[0] == cfgs[1] and canonical_hash(cfgs[0]) == canonical_hash(cfgs[1])


@pytest.mark.parametrize("text, shown", [("NaN", "nan"), ("Infinity", "inf")])
def test_nan_and_infinite_snr_are_refused(tmp_path, text, shown):
    f = tmp_path / "c.json"
    f.write_text('{"scenario": {"snr2_db": %s}}' % text)
    with pytest.raises(ConfigError) as e:
        load_config(str(f))
    assert str(e.value) == f"scenario: snr2_db must be finite, got {shown}"


def test_seed_spans_64_bits():
    assert parse_config({"seed": 2**64 - 1}).seed.master_seed == 2**64 - 1


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
        {"outage": {"p0": 5.0}},
    ):
        assert canonical_hash(parse_config(raw)) != canonical_hash(base)


def test_sweep_hash_covers_its_modes():
    sweep = {"axis": "irr_db", "grid": [-20.0, -10.0]}
    # A sweep without modes keeps the hash it had when modes were
    # resolved at parse time (re-pinned when chunk_size left the config).
    assert canonical_hash(parse_config({"sweep": sweep})) == (
        "c0d11f7aa30773f8e2540bfcc5dd892d21737b217f2da937eebc3570b3fe9561"
    )
    # The sweep's own two-cfar target is part of the math.
    a, b = (parse_config({"sweep": {**sweep, "modes": ["four", "two-cfar"], "cfar_pfa": p}})
            for p in (0.1, 0.2))
    assert canonical_hash(a) != canonical_hash(b)


# same_bytes.EVERY_SECTION sets every section and every optional key, so
# each hashed field is in its digest; tools/same_bytes.py runs it too.
@pytest.mark.parametrize("raw, digest", [
    ({}, "bf0c7b4123590a0abe2b39bd53a7cfe42be48714d273d975e84743cae7ebeb2d"),
    (same_bytes.EVERY_SECTION, "4d809d501be0b8f9ba3a5228ad0e03f224aaa4a246adfbe9ed2abd9f89bd2035"),
], ids=["defaults", "every-section"])
def test_config_sha256_is_pinned(raw, digest):
    """Every output prints this digest as its config_sha256: a rewrite of
    canonical_dict that moves one byte of its JSON moves the digest."""
    assert canonical_hash(parse_config(raw)) == digest


# (section, key) of every leaf key the parser accepts, "" for the top level,
# sorted so that the fuzz test's draws do not depend on PYTHONHASHSEED.
_CONFIG_KEYS = sorted((section, key) for section, keys in ACCEPTED_KEYS.items()
                      for key in keys if section or key not in ACCEPTED_KEYS)
# A valid value other than its default for every key of _CONFIG_KEYS; a key
# the parser accepts with no value here fails the digest test.
_NON_DEFAULT = {
    ("", "trials"): 7, ("", "seed"): 1, ("", "stream_index"): 1,
    ("", "workers"): 2, ("", "out"): "x.csv", ("", "format"): "json",
    ("scenario", "snr1_db"): 1.0, ("scenario", "snr2_db"): None,
    ("scenario", "noise_var"): 2.0, ("scenario", "channel_var"): 2.0,
    ("scenario", "channel_var_mirror"): 2.0, ("scenario", "psk_order"): 8,
    ("scenario", "n_packets"): 4, ("scenario", "mode"): "two-bayes",
    ("scenario", "cfar_pfa"): 0.2,
    ("scenario", "tx_irr_db"): -20.0, ("scenario", "tx_epsilon"): 0.1,
    ("scenario", "tx_theta"): 0.1, ("scenario", "rx_irr_db"): -20.0,
    ("scenario", "rx_epsilon"): 0.1, ("scenario", "rx_theta"): 0.1,
    ("sweep", "axis"): "snr1_db", ("sweep", "grid"): [-10.0],
    ("sweep", "modes"): ["two-cfar"], ("sweep", "cfar_pfa"): 0.2,
    ("outage", "p_mk"): 2.0, ("outage", "p0"): 5.0, ("outage", "beta_sq_sec"): 0.01,
    ("outage", "noise_p"): 2.0, ("outage", "var_g"): 2.0, ("outage", "var_h"): 2.0,
    ("outage", "rate_p"): 2.0, ("outage", "irr_db"): -12.0,
    ("frame", "n_subcarriers"): 64, ("frame", "active"): [1], ("frame", "snr_db"): 4.0,
    ("figure", "irr_grid"): [-20.0], ("figure", "snr1_grid"): [0.0],
    ("figure", "delta_snrs"): [-5.0],
}
# Keys that cannot change a computed number, so stay out of the digest.
_UNHASHED = {("", "workers"), ("", "out"), ("", "format")}


@pytest.mark.parametrize("section, key", _CONFIG_KEYS, ids=lambda x: x or "top")
def test_every_accepted_key_moves_the_digest(section, key):
    """Each key, set over a config that it may be set in (a sweep needs its
    axis and grid, a scenario's cfar_pfa its two-cfar mode), moves
    config_sha256, unless it is an execution detail."""
    base: dict = {}
    if section == "sweep":
        base = {"sweep": {"axis": "irr_db", "grid": [-20.0], "modes": ["four", "two-cfar"],
                          "cfar_pfa": 0.1}}
    elif (section, key) == ("scenario", "cfar_pfa"):
        base = {"scenario": {"mode": "two-cfar", "cfar_pfa": 0.1}}
    raw = copy.deepcopy(base)
    (raw.setdefault(section, {}) if section else raw)[key] = _NON_DEFAULT[section, key]
    moved = canonical_hash(parse_config(raw)) != canonical_hash(parse_config(base))
    assert moved == ((section, key) not in _UNHASHED)


def test_readme_schema_names_the_accepted_keys():
    """README's "Configuration schema" block quotes only keys the parser
    accepts, and names every one of them, as a key or in an ``// OR``
    comment."""
    readme = (_ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"## Configuration schema\n.*?```jsonc\n(.*?)```", readme, re.S)[1]
    quoted = set(re.findall(r'"(\w+)"\s*:', block))
    alternatives = {k for names in re.findall(r"// OR ([\w/]+)", block) for k in names.split("/")}
    accepted = {key for keys in ACCEPTED_KEYS.values() for key in keys}
    assert quoted <= accepted
    assert accepted <= quoted | alternatives


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


# Edge values of every JSON kind, for any key: zero, negative, subnormal,
# huge, 2**63, strings, booleans, null, arrays and objects.
_EDGE_VALUES = (0, -1, 5e-324, 1e308, 2**63, "", "x", True, None, [], [1, "x"], {})
_COMMANDS = (["analytic"], ["sense", "--verify"], ["outage"], ["frame"])


@pytest.fixture
def cli_in_tmp(tmp_path, monkeypatch):
    """``iqsense.cli`` run in ``tmp_path`` (an ``out`` string names a file
    there), its argument parser, the same for every call, built once."""
    import iqsense.cli as cli

    monkeypatch.setattr(cli, "_build_parser", functools.cache(cli._build_parser))
    monkeypatch.chdir(tmp_path)
    return cli


@seed(26)
# inputs that once crashed: a rate_p whose threshold 2**rate_p - 1
# overflows, a subnormal noise_var whose thresholds round to 0, a pair
# whose H3 means overflow, and an interference draw that overflows at a
# zero threshold; a signal mean that overflows, which printed nan; and a
# CFAR rule over a noise variance so small that n/(2 sigma0^2) overflows
@example({("outage", "rate_p"): 1e308})
@example({("outage", "noise_p"): 5e-324})
@example({("scenario", "noise_var"): 1e-320})
@example({("scenario", "noise_var"): 1e308, ("scenario", "channel_var"): 5e-324})
@example({("outage", "var_h"): 1e308, ("outage", "rate_p"): 0})
@example({("scenario", "noise_var"): 1e-307, ("scenario", "n_packets"): 32,
          ("scenario", "mode"): "two-cfar", ("scenario", "cfar_pfa"): 0.1})
@settings(max_examples=400, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.dictionaries(st.sampled_from(_CONFIG_KEYS), st.sampled_from(_EDGE_VALUES),
                       min_size=1, max_size=3))
def test_any_config_runs_or_is_refused_in_one_line(cli_in_tmp, capsys, entries):
    """One to three keys set to edge values, under each command: every
    run exits 0, exits 1 only under --verify, or exits 2 with one
    ``error:`` line, and none raises.  ``--trials 100`` keeps each run
    short; the config's own ``trials`` is still checked."""
    raw: dict = {}
    for (section, key), value in entries.items():
        (raw.setdefault(section, {}) if section else raw)[key] = value
    with open("c.json", "w", encoding="utf-8") as f:
        json.dump(raw, f)
    for command in _COMMANDS:
        code = cli_in_tmp.main([*command, "--config", "c.json", "--trials", "100"])
        err = capsys.readouterr().err
        if code == 2:
            assert err.startswith("error: ") and err.count("\n") == 1, (command, raw, err)
        else:
            assert code == 0 or (code == 1 and "--verify" in command), (command, raw, code, err)
