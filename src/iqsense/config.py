"""JSON experiment configuration: strict parsing and canonical hashing.

Unknown keys are rejected with their full path so that typos fail loudly
instead of silently running a default.  The canonical dictionary (the
resolved, math-relevant portion of a configuration) is hashed into the
output provenance; execution details that cannot change results
(worker count, output path, format) stay out of the hash.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass

from .detection import DetectorMode
from .frame import OccupancyMap
from .montecarlo import (
    DEFAULT_CHUNK_SIZE,
    SWEEP_AXES,
    SeedSpec,
    SensingScenario,
)
from .outage import OutageScenario
from .signal_model import IqMismatch, irr_to_mismatch

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "SweepSection",
    "FrameSection",
    "FigureSection",
    "load_config",
    "parse_config",
    "canonical_hash",
    "DEFAULT_TRIALS",
    "DEFAULT_IRR_GRID",
    "DEFAULT_SNR1_GRID",
    "DEFAULT_DELTA_SNRS",
]

DEFAULT_TRIALS = 1_000_000
DEFAULT_IRR_GRID = tuple(-30.0 + 2.5 * i for i in range(11))  # -30 .. -5 dB
DEFAULT_SNR1_GRID = tuple(float(x) for x in range(-20, 22, 2))  # -20 .. 20 dB
DEFAULT_DELTA_SNRS = (-10.0, -5.0, 0.0)


class ConfigError(ValueError):
    """Invalid configuration; the message carries the offending path."""


def _reject_unknown(d: dict, path: str, known: set[str]):
    for key in d:
        if key not in known:
            raise ConfigError(f"{path}.{key}: unknown key" if path else f"{key}: unknown key")


def _number(d, path, key, default, *, minimum=None, maximum=None, allow_null=False,
            exclusive_min=None, exclusive_max=None):
    v = d.get(key, default)
    if v is None:
        if allow_null:
            return None
        raise ConfigError(f"{path}.{key}: must be a number, got null")
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigError(f"{path}.{key}: must be a number, got {v!r}")
    v = float(v)
    if not math.isfinite(v):
        raise ConfigError(f"{path}.{key}: must be finite, got {v}")
    if minimum is not None and v < minimum:
        raise ConfigError(f"{path}.{key}: must be >= {minimum}, got {v}")
    if maximum is not None and v > maximum:
        raise ConfigError(f"{path}.{key}: must be <= {maximum}, got {v}")
    if exclusive_min is not None and v <= exclusive_min:
        raise ConfigError(f"{path}.{key}: must be > {exclusive_min}, got {v}")
    if exclusive_max is not None and v >= exclusive_max:
        raise ConfigError(f"{path}.{key}: must be < {exclusive_max}, got {v}")
    return v


def _integer(d, path, key, default, *, minimum=None, maximum=None):
    v = d.get(key, default)
    if isinstance(v, bool) or not isinstance(v, int):
        raise ConfigError(f"{path}.{key}: must be an integer, got {v!r}")
    if minimum is not None and v < minimum:
        raise ConfigError(f"{path}.{key}: must be >= {minimum}, got {v}")
    if maximum is not None and v > maximum:
        raise ConfigError(f"{path}.{key}: must be <= {maximum}, got {v}")
    return v


def _string(d, path, key, default, *, choices=None):
    v = d.get(key, default)
    if not isinstance(v, str):
        raise ConfigError(f"{path}.{key}: must be a string, got {v!r}")
    if choices is not None and v not in choices:
        raise ConfigError(f"{path}.{key}: must be one of {sorted(choices)}, got {v!r}")
    return v


def _mode_from(d: dict, path: str) -> DetectorMode:
    kind = _string(d, path, "mode", "four", choices=set(DetectorMode.KINDS))
    if kind == "two-cfar":
        if "cfar_pfa" not in d:
            raise ConfigError(f"{path}.cfar_pfa: required for mode two-cfar")
        p = _number(d, path, "cfar_pfa", None, exclusive_min=0.0, maximum=1.0)
        return DetectorMode.two_level_cfar(p)
    if "cfar_pfa" in d:
        raise ConfigError(f"{path}.cfar_pfa: only valid with mode two-cfar")
    return DetectorMode(kind)


def _mismatch_from(d: dict, path: str, prefix: str) -> IqMismatch | None:
    """Front-end mismatch from either <prefix>_irr_db or the explicit
    (<prefix>_epsilon, <prefix>_theta) pair; None if no key present."""
    irr_key = f"{prefix}_irr_db"
    eps_key, theta_key = f"{prefix}_epsilon", f"{prefix}_theta"
    has_irr = irr_key in d and d[irr_key] is not None
    has_explicit = eps_key in d or theta_key in d
    if has_irr and has_explicit:
        raise ConfigError(f"{path}.{irr_key}: conflicts with {eps_key}/{theta_key}")
    if has_irr:
        irr = _number(d, path, irr_key, None, exclusive_max=0.0)
        return irr_to_mismatch(irr)
    if has_explicit:
        eps = _number(d, path, eps_key, 0.0, exclusive_min=-1.0, exclusive_max=1.0)
        theta = _number(
            d, path, theta_key, 0.0, exclusive_min=-math.pi / 2, exclusive_max=math.pi / 2
        )
        try:
            return IqMismatch(eps, theta)
        except ValueError as e:
            raise ConfigError(f"{path}.{eps_key}/{theta_key}: {e}") from None
    if irr_key in d:  # explicit null -> ideal front end
        return IqMismatch.ideal()
    return None


_SCENARIO_KEYS = {
    "snr1_db", "snr2_db", "noise_var", "channel_var", "channel_var_mirror",
    "psk_order", "n_packets", "mode", "cfar_pfa",
    "tx_irr_db", "tx_epsilon", "tx_theta", "rx_irr_db", "rx_epsilon", "rx_theta",
}


def _snr_value(d, path, key, default):
    """SNR in dB; JSON null encodes -inf (a silent subcarrier)."""
    v = _number(d, path, key, default, allow_null=True)
    return float("-inf") if v is None else v


def _scenario_from(d: dict, path: str = "scenario") -> SensingScenario:
    if not isinstance(d, dict):
        raise ConfigError(f"{path}: must be an object")
    _reject_unknown(d, path, _SCENARIO_KEYS)
    tx = _mismatch_from(d, path, "tx")
    if tx is None:
        tx = irr_to_mismatch(-15.0)
    rx = _mismatch_from(d, path, "rx")
    try:
        return SensingScenario.from_snr(
            _snr_value(d, path, "snr1_db", 0.0),
            _snr_value(d, path, "snr2_db", -10.0),
            tx_mismatch=tx,
            rx_mismatch=rx,
            n_packets=_integer(d, path, "n_packets", 1, minimum=1),
            mode=_mode_from(d, path),
            noise_var=_number(d, path, "noise_var", 1.0, exclusive_min=0.0),
            channel_var=_number(d, path, "channel_var", 1.0, exclusive_min=0.0),
            channel_var_mirror=_number(d, path, "channel_var_mirror", 1.0, exclusive_min=0.0),
            psk_order=_integer(d, path, "psk_order", 16, minimum=2),
        )
    except ConfigError:
        raise
    except ValueError as e:
        raise ConfigError(f"{path}: {e}") from None


@dataclass(frozen=True)
class SweepSection:
    axis: str
    grid: tuple[float, ...]
    modes: tuple[DetectorMode, ...]


def _sweep_from(d: dict, scenario_mode: DetectorMode, path: str = "sweep") -> SweepSection:
    if not isinstance(d, dict):
        raise ConfigError(f"{path}: must be an object")
    _reject_unknown(d, path, {"axis", "grid", "modes", "cfar_pfa"})
    if "axis" not in d:
        raise ConfigError(f"{path}.axis: required")
    axis = _string(d, path, "axis", None, choices=set(SWEEP_AXES))
    grid = d.get("grid")
    if not isinstance(grid, list) or not grid:
        raise ConfigError(f"{path}.grid: must be a nonempty array of numbers")
    for i, g in enumerate(grid):
        if isinstance(g, bool) or not isinstance(g, (int, float)) or not math.isfinite(g):
            raise ConfigError(f"{path}.grid[{i}]: must be a finite number, got {g!r}")
    modes_raw = d.get("modes")
    if modes_raw is None:
        modes = (scenario_mode,)
    else:
        if not isinstance(modes_raw, list) or not modes_raw:
            raise ConfigError(f"{path}.modes: must be a nonempty array of mode names")
        built = []
        for i, name in enumerate(modes_raw):
            if name not in DetectorMode.KINDS:
                raise ConfigError(
                    f"{path}.modes[{i}]: must be one of {list(DetectorMode.KINDS)}, got {name!r}"
                )
            if name == "two-cfar":
                if "cfar_pfa" not in d:
                    raise ConfigError(f"{path}.cfar_pfa: required for mode two-cfar")
                p = _number(d, path, "cfar_pfa", None, exclusive_min=0.0, maximum=1.0)
                built.append(DetectorMode.two_level_cfar(p))
            else:
                built.append(DetectorMode(name))
        modes = tuple(built)
    return SweepSection(axis=axis, grid=tuple(float(g) for g in grid), modes=modes)


@dataclass(frozen=True)
class FrameSection:
    occupancy: OccupancyMap
    snr_db: float


def _frame_from(d: dict, path: str = "frame") -> FrameSection:
    if not isinstance(d, dict):
        raise ConfigError(f"{path}: must be an object")
    _reject_unknown(d, path, {"n_subcarriers", "active", "snr_db"})
    n = _integer(d, path, "n_subcarriers", 512, minimum=2)
    active = d.get("active", [])
    if not isinstance(active, list):
        raise ConfigError(f"{path}.active: must be an array of subcarrier indices")
    for i, k in enumerate(active):
        if isinstance(k, bool) or not isinstance(k, int):
            raise ConfigError(f"{path}.active[{i}]: must be an integer, got {k!r}")
    try:
        occ = OccupancyMap(n, frozenset(active))
    except ValueError as e:
        raise ConfigError(f"{path}: {e}") from None
    return FrameSection(occ, _number(d, path, "snr_db", 0.0))


def _outage_from(d: dict, path: str = "outage") -> OutageScenario:
    if not isinstance(d, dict):
        raise ConfigError(f"{path}: must be an object")
    _reject_unknown(
        d, path, {"p_mk", "p0", "noise_p", "var_g", "var_h", "rate_p", "irr_db", "beta_sq_sec"}
    )
    if "irr_db" in d and "beta_sq_sec" in d:
        raise ConfigError(f"{path}.irr_db: conflicts with beta_sq_sec")
    if "beta_sq_sec" in d:
        beta_sq = _number(d, path, "beta_sq_sec", None, minimum=0.0)
    else:
        irr = _number(d, path, "irr_db", -15.0, exclusive_max=0.0, allow_null=True)
        beta_sq = 0.0 if irr is None else 10.0 ** (irr / 10.0)
    try:
        return OutageScenario(
            p_mk=_number(d, path, "p_mk", 1.0, minimum=0.0),
            p0=_number(d, path, "p0", 10.0, minimum=0.0),
            beta_sq_sec=beta_sq,
            noise_p=_number(d, path, "noise_p", 1.0, exclusive_min=0.0),
            var_g=_number(d, path, "var_g", 1.0, exclusive_min=0.0),
            var_h=_number(d, path, "var_h", 1.0, exclusive_min=0.0),
            rate_p=_number(d, path, "rate_p", 1.0, minimum=0.0),
        )
    except ConfigError:
        raise
    except ValueError as e:
        raise ConfigError(f"{path}: {e}") from None


@dataclass(frozen=True)
class FigureSection:
    irr_grid: tuple[float, ...]
    snr1_grid: tuple[float, ...]
    delta_snrs: tuple[float, ...]


def _grid_list(d, path, key, default):
    v = d.get(key)
    if v is None:
        return tuple(default)
    if not isinstance(v, list) or not v:
        raise ConfigError(f"{path}.{key}: must be a nonempty array of numbers")
    for i, g in enumerate(v):
        if isinstance(g, bool) or not isinstance(g, (int, float)) or not math.isfinite(g):
            raise ConfigError(f"{path}.{key}[{i}]: must be a finite number, got {g!r}")
    return tuple(float(g) for g in v)


def _figure_from(d: dict, path: str = "figure") -> FigureSection:
    if not isinstance(d, dict):
        raise ConfigError(f"{path}: must be an object")
    _reject_unknown(d, path, {"irr_grid", "snr1_grid", "delta_snrs"})
    return FigureSection(
        irr_grid=_grid_list(d, path, "irr_grid", DEFAULT_IRR_GRID),
        snr1_grid=_grid_list(d, path, "snr1_grid", DEFAULT_SNR1_GRID),
        delta_snrs=_grid_list(d, path, "delta_snrs", DEFAULT_DELTA_SNRS),
    )


_TOP_KEYS = {
    "scenario", "trials", "seed", "stream_index", "chunk_size", "workers",
    "sweep", "outage", "frame", "figure", "out", "format",
}


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully resolved experiment description."""

    scenario: SensingScenario
    trials: int
    seed: SeedSpec
    chunk_size: int
    workers: int
    sweep: SweepSection | None
    outage: OutageScenario
    frame: FrameSection
    figure: FigureSection
    out: str | None
    fmt: str

    def canonical_dict(self) -> dict:
        """Math-relevant resolved configuration (hash input).

        Excludes workers, output path and format: they cannot affect
        computed numbers.
        """
        sc = self.scenario
        d: dict = {
            "scenario": {
                "snr1_db": _json_num(sc.snr1_db),
                "snr2_db": _json_num(sc.snr2_db),
                "noise_var": sc.pair.noise_var,
                "channel_var": sc.pair.channel_var,
                "channel_var_mirror": sc.pair.channel_var_mirror,
                "psk_order": sc.pair.psk_order,
                "n_packets": sc.n_packets,
                "mode": sc.mode.kind,
                "tx_epsilon": sc.tx_mismatch.epsilon,
                "tx_theta": sc.tx_mismatch.theta,
            },
            "trials": self.trials,
            "seed": self.seed.master_seed,
            "stream_index": self.seed.stream_index,
            "chunk_size": self.chunk_size,
        }
        if self.scenario.mode.target_pfa is not None:
            d["scenario"]["cfar_pfa"] = self.scenario.mode.target_pfa
        if sc.rx_mismatch is not None:
            d["scenario"]["rx_epsilon"] = sc.rx_mismatch.epsilon
            d["scenario"]["rx_theta"] = sc.rx_mismatch.theta
        if self.sweep is not None:
            d["sweep"] = {
                "axis": self.sweep.axis,
                "grid": list(self.sweep.grid),
                "modes": [m.kind for m in self.sweep.modes],
            }
        o = self.outage
        d["outage"] = {
            "p_mk": o.p_mk, "p0": o.p0, "beta_sq_sec": o.beta_sq_sec,
            "noise_p": o.noise_p, "var_g": o.var_g, "var_h": o.var_h,
            "rate_p": o.rate_p,
        }
        d["frame"] = {
            "n_subcarriers": self.frame.occupancy.n_subcarriers,
            "active": sorted(self.frame.occupancy.active),
            "snr_db": self.frame.snr_db,
        }
        d["figure"] = {
            "irr_grid": list(self.figure.irr_grid),
            "snr1_grid": list(self.figure.snr1_grid),
            "delta_snrs": list(self.figure.delta_snrs),
        }
        return d


def _json_num(x: float):
    """JSON-safe number: -inf encodes back to null."""
    return None if x == float("-inf") else x


def parse_config(raw: dict) -> ExperimentConfig:
    """Validate a raw JSON object into an :class:`ExperimentConfig`."""
    if not isinstance(raw, dict):
        raise ConfigError("top level: must be an object")
    if "calibration_samples" in raw:
        raise ConfigError("calibration_samples: key removed; joint-model variances are "
                          "now computed in closed form, so delete it from the config")
    _reject_unknown(raw, "", _TOP_KEYS)
    scenario = _scenario_from(raw.get("scenario", {}))
    seed = SeedSpec(
        _integer(raw, "", "seed", 0, minimum=0),
        _integer(raw, "", "stream_index", 0, minimum=0),
    )
    sweep_sec = _sweep_from(raw["sweep"], scenario.mode) if "sweep" in raw else None
    outage_sec = _outage_from(raw.get("outage", {}))
    frame_sec = _frame_from(raw.get("frame", {}))
    figure_sec = _figure_from(raw.get("figure", {}))
    out = raw.get("out")
    if out is not None and not isinstance(out, str):
        raise ConfigError(f"out: must be a string path, got {out!r}")
    return ExperimentConfig(
        scenario=scenario,
        trials=_integer(raw, "", "trials", DEFAULT_TRIALS, minimum=1),
        seed=seed,
        chunk_size=_integer(raw, "", "chunk_size", DEFAULT_CHUNK_SIZE, minimum=1),
        workers=_integer(raw, "", "workers", 1, minimum=1),
        sweep=sweep_sec,
        outage=outage_sec,
        frame=frame_sec,
        figure=figure_sec,
        out=out,
        fmt=_string(raw, "", "format", "csv", choices={"csv", "json"}),
    )


def load_config(path: str) -> ExperimentConfig:
    """Read and validate a JSON config file."""
    try:
        with open(path, encoding="utf-8") as f:
            raw = json.load(f)
    except OSError as e:
        raise ConfigError(f"cannot read config {path}: {e}") from None
    except json.JSONDecodeError as e:
        raise ConfigError(f"malformed JSON in {path}: {e}") from None
    return parse_config(raw)


def canonical_hash(cfg: ExperimentConfig) -> str:
    """SHA-256 over the canonical JSON encoding of the configuration."""
    blob = json.dumps(cfg.canonical_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()
