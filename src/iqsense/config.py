"""JSON experiment configuration: strict parsing and canonical hashing.

Unknown keys are rejected with their full path so that typos fail loudly
instead of silently running a default.  The parser checks structure
only: which keys a section holds (:data:`ACCEPTED_KEYS`, the one list of
them), and that a section is an object and a list an array.  Each value goes, as written, to the model type that
takes it (``trials``, ``workers``, ``format`` and ``out`` to
:class:`ExperimentConfig` itself), whose check is the only one, and
:func:`config_key` reports its error under the key the user wrote.  An
IRR grid point is checked when the config is read, so every command
refuses one that is not negative, not only the commands that run it;
anything formed from the scenario (a grid point's variances, the frame's
scenario and pair table) is checked by the command that runs it.  The
canonical dictionary (the resolved, math-relevant portion of a
configuration) is hashed into the output provenance; execution details
that cannot change results (worker count, output path, format) stay out
of the hash.
"""

from __future__ import annotations

import hashlib
import json
import math
from contextlib import contextmanager
from dataclasses import asdict, dataclass, fields

from .detection import DetectorMode
from .frame import OccupancyMap
from .montecarlo import MAX_WORKERS, SWEEP_AXES, SeedSpec, SensingScenario
from .numerics import check_int, check_real
from .outage import OutageScenario, irr_to_beta_sq
from .signal_model import IqMismatch, irr_to_mismatch
from .stats import MAX_TRIALS

__all__ = [
    "ACCEPTED_KEYS",
    "ConfigError",
    "config_key",
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


def _section(d, path: str):
    """Refuse a section at ``path`` (``""`` for the top level) that is not
    an object or that holds a key outside ``ACCEPTED_KEYS[path]``."""
    if not isinstance(d, dict):
        raise ConfigError(f"{path or 'top level'}: must be an object")
    for key in d:
        if key not in ACCEPTED_KEYS[path]:
            raise ConfigError(f"{path}.{key}: unknown key" if path else f"{key}: unknown key")


@contextmanager
def config_key(key: str):
    """Report a ``ValueError`` of the model as a bad value at config path
    (or command-line flag) ``key``, bare for a top-level value (``key``
    empty); a ``ConfigError`` already names its own."""
    try:
        yield
    except ConfigError:
        raise
    except ValueError as e:
        raise ConfigError(f"{key}: {e}" if key else str(e)) from None


def _mode(kind, d: dict, path: str, kind_key: str) -> DetectorMode:
    """Detector mode ``kind``, written at ``kind_key``, with the CFAR target
    at ``<path>.cfar_pfa`` (None when absent).  :class:`DetectorMode` checks
    both; its error reads under ``kind_key`` when the kind is not one it
    knows, else under ``<path>.cfar_pfa``."""
    try:
        return DetectorMode(kind, d.get("cfar_pfa"))
    except ValueError as e:
        key = f"{path}.cfar_pfa" if kind in DetectorMode.KINDS else kind_key
        raise ConfigError(f"{key}: {e}") from None


def _mismatch_from(d: dict, path: str, prefix: str) -> IqMismatch | None:
    """Front-end mismatch from either <prefix>_irr_db or the explicit
    (<prefix>_epsilon, <prefix>_theta) pair; None if no key present."""
    irr_key, eps_key, theta_key = (f"{prefix}_{key}" for key in ("irr_db", "epsilon", "theta"))
    has_irr = irr_key in d and d[irr_key] is not None
    has_explicit = eps_key in d or theta_key in d
    if has_irr and has_explicit:
        raise ConfigError(f"{path}.{irr_key}: conflicts with {eps_key}/{theta_key}")
    if has_irr:
        with config_key(f"{path}.{irr_key}"):
            return irr_to_mismatch(d[irr_key])
    if has_explicit:
        with config_key(f"{path}.{eps_key}/{theta_key}"):
            return IqMismatch(d.get(eps_key, 0.0), d.get(theta_key, 0.0))
    if irr_key in d:  # explicit null -> ideal front end
        return IqMismatch.ideal()
    return None


# Keys whose config default is the SensingScenario field's own; the hash reads
# each as that field.
_SCENARIO_NUMBERS = ("noise_var", "channel_var", "channel_var_mirror", "psk_order", "n_packets")


def _snr_value(d, key, default):
    """SNR in dB; JSON null encodes -inf (a silent subcarrier)."""
    v = d.get(key, default)
    return -math.inf if v is None else v


def _scenario_from(d: dict, path: str = "scenario") -> SensingScenario:
    _section(d, path)
    tx = _mismatch_from(d, path, "tx")
    if tx is None:
        tx = irr_to_mismatch(-15.0)
    rx = _mismatch_from(d, path, "rx")
    with config_key(path):
        return SensingScenario(
            _snr_value(d, "snr1_db", 0.0),
            _snr_value(d, "snr2_db", -10.0),
            tx_mismatch=tx,
            rx_mismatch=rx,
            mode=_mode(d.get("mode", "four"), d, path, f"{path}.mode"),
            **{key: d[key] for key in _SCENARIO_NUMBERS if key in d},
        )


def _grid_list(d, path, key, default):
    """A nonempty array of finite numbers at ``key``, or ``default`` (when
    not None) for a missing or null key."""
    v = d.get(key)
    if v is None and default is not None:
        return tuple(default)
    if not isinstance(v, list) or not v:
        raise ConfigError(f"{path}.{key}: must be a nonempty array of numbers")
    with config_key(path):
        return tuple(check_real(f"{key}[{i}]", g) for i, g in enumerate(v))


def _check_irr_grid(grid, path, key):
    """Refuse an IRR grid point no front end can take, under every command;
    the error names the point as the sweep that would run it does."""
    for v in grid:
        with config_key(f"{path}.{key}: irr_db={v:g}"):
            irr_to_mismatch(v)


@dataclass(frozen=True)
class SweepSection:
    """One sweep axis and grid; ``modes`` None sweeps the scenario's mode,
    as it stands after any command-line override."""

    axis: str
    grid: tuple[float, ...]
    modes: tuple[DetectorMode, ...] | None


def _sweep_from(d: dict, path: str = "sweep") -> SweepSection:
    _section(d, path)
    if "axis" not in d:
        raise ConfigError(f"{path}.axis: required")
    axis = d["axis"]
    if axis not in SWEEP_AXES:
        raise ConfigError(f"{path}.axis: must be one of {sorted(SWEEP_AXES)}, got {axis!r}")
    grid = _grid_list(d, path, "grid", None)
    if axis == "irr_db":
        _check_irr_grid(grid, path, "grid")
    modes = d.get("modes")
    if modes is not None and (not isinstance(modes, list) or not modes):
        raise ConfigError(f"{path}.modes: must be a nonempty array of mode names")
    if "cfar_pfa" in d and "two-cfar" not in (modes or ()):
        raise ConfigError(f"{path}.cfar_pfa: only valid when {path}.modes has two-cfar")
    if modes is not None:
        # the sweep's one CFAR target belongs to its two-cfar entry
        modes = tuple(_mode(kind, d if kind == "two-cfar" else {}, path, f"{path}.modes[{i}]")
                      for i, kind in enumerate(modes))
    return SweepSection(axis=axis, grid=grid, modes=modes)


@dataclass(frozen=True)
class FrameSection:
    occupancy: OccupancyMap
    snr_db: float


def _frame_from(d: dict, path: str = "frame") -> FrameSection:
    _section(d, path)
    n = d.get("n_subcarriers", 512)
    active = d.get("active", [])
    if not isinstance(active, list):
        raise ConfigError(f"{path}.active: must be an array of subcarrier indices")
    for i, k in enumerate(active):
        if isinstance(k, bool) or not isinstance(k, int):
            raise ConfigError(f"{path}.active[{i}]: must be an integer, got {k!r}")
    with config_key(path):
        OccupancyMap(n, frozenset())  # the frame size alone: its errors name n_subcarriers
    with config_key(f"{path}.active"):
        occ = OccupancyMap(n, frozenset(active))
    with config_key(path):
        return FrameSection(occ, check_real("snr_db", d.get("snr_db", 0.0)))


def _outage_from(d: dict, path: str = "outage") -> OutageScenario:
    _section(d, path)
    if "irr_db" in d and "beta_sq_sec" in d:
        raise ConfigError(f"{path}.irr_db: conflicts with beta_sq_sec")
    # every other key's config default is the OutageScenario field's own
    values = {"p0": 10.0, **d}
    irr_db = values.pop("irr_db", -15.0)
    with config_key(path):
        if "beta_sq_sec" not in values:
            values["beta_sq_sec"] = irr_to_beta_sq(irr_db)
        return OutageScenario(**values)


@dataclass(frozen=True)
class FigureSection:
    irr_grid: tuple[float, ...]
    snr1_grid: tuple[float, ...]
    delta_snrs: tuple[float, ...]


def _figure_from(d: dict, path: str = "figure") -> FigureSection:
    _section(d, path)
    irr_grid = _grid_list(d, path, "irr_grid", DEFAULT_IRR_GRID)
    _check_irr_grid(irr_grid, path, "irr_grid")
    return FigureSection(
        irr_grid=irr_grid,
        snr1_grid=_grid_list(d, path, "snr1_grid", DEFAULT_SNR1_GRID),
        delta_snrs=_grid_list(d, path, "delta_snrs", DEFAULT_DELTA_SNRS),
    )


# The keys each config section accepts, by its path ("" is the top level);
# the parser refuses any other.
ACCEPTED_KEYS = {
    "": ("scenario", "trials", "seed", "stream_index", "workers",
         "sweep", "outage", "frame", "figure", "out", "format"),
    "scenario": (*_SCENARIO_NUMBERS, "snr1_db", "snr2_db", "mode", "cfar_pfa",
                 "tx_irr_db", "tx_epsilon", "tx_theta", "rx_irr_db", "rx_epsilon", "rx_theta"),
    "sweep": ("axis", "grid", "modes", "cfar_pfa"),
    "outage": (*(f.name for f in fields(OutageScenario)), "irr_db"),
    "frame": ("n_subcarriers", "active", "snr_db"),
    "figure": tuple(f.name for f in fields(FigureSection)),
}


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully resolved experiment description.

    It checks its own top-level values: ``trials`` and ``workers`` by the
    number rule up to :data:`~iqsense.stats.MAX_TRIALS` and
    :data:`~iqsense.montecarlo.MAX_WORKERS`, ``fmt`` (the ``format`` key)
    as csv or json, and ``out`` as a path string or None.
    """

    scenario: SensingScenario
    trials: int
    seed: SeedSpec
    workers: int
    sweep: SweepSection | None
    outage: OutageScenario
    frame: FrameSection
    figure: FigureSection
    out: str | None
    fmt: str

    def __post_init__(self):
        object.__setattr__(self, "trials", check_int("trials", self.trials, 1, MAX_TRIALS))
        object.__setattr__(self, "workers", check_int("workers", self.workers, 1, MAX_WORKERS))
        if self.fmt not in ("csv", "json"):
            raise ValueError(f"format must be one of ['csv', 'json'], got {self.fmt!r}")
        if self.out is not None and not isinstance(self.out, str):
            raise ValueError(f"out must be a string path, got {self.out!r}")

    def canonical_dict(self) -> dict:
        """Math-relevant resolved configuration (hash input).

        Excludes workers, output path and format: they cannot affect
        computed numbers.
        """
        sc = self.scenario
        scenario = {
            "snr1_db": _json_num(sc.snr1_db),
            "snr2_db": _json_num(sc.snr2_db),
            **{key: getattr(sc, key) for key in _SCENARIO_NUMBERS},
            "mode": sc.mode.kind,
        }
        if sc.mode.target_pfa is not None:
            scenario["cfar_pfa"] = sc.mode.target_pfa
        for side, m in (("tx", sc.tx_mismatch), ("rx", sc.rx_mismatch)):
            if m is not None:
                scenario[f"{side}_epsilon"], scenario[f"{side}_theta"] = m.epsilon, m.theta
        d: dict = {
            "scenario": scenario,
            "trials": self.trials,
            "seed": self.seed.master_seed,
            "stream_index": self.seed.stream_index,
        }
        if self.sweep is not None:
            d["sweep"] = {
                "axis": self.sweep.axis,
                "grid": list(self.sweep.grid),
                "modes": [m.kind for m in self.sweep.modes or (sc.mode,)],
            }
            cfar = [m.target_pfa for m in self.sweep.modes or () if m.kind == "two-cfar"]
            if cfar:
                d["sweep"]["cfar_pfa"] = cfar[0]
        d["outage"] = asdict(self.outage)
        d["frame"] = {
            "n_subcarriers": self.frame.occupancy.n_subcarriers,
            "active": sorted(self.frame.occupancy.active),
            "snr_db": self.frame.snr_db,
        }
        d["figure"] = {key: list(grid) for key, grid in asdict(self.figure).items()}
        return d


def _json_num(x: float):
    """JSON-safe number: -inf encodes back to null."""
    return None if x == float("-inf") else x


def parse_config(raw: dict) -> ExperimentConfig:
    """Validate a raw JSON object into an :class:`ExperimentConfig`."""
    _section(raw, "")
    scenario = _scenario_from(raw.get("scenario", {}))
    with config_key("seed"):
        seed = SeedSpec(raw.get("seed", 0), raw.get("stream_index", 0))
    sweep_sec = _sweep_from(raw["sweep"]) if "sweep" in raw else None
    outage_sec = _outage_from(raw.get("outage", {}))
    frame_sec = _frame_from(raw.get("frame", {}))
    figure_sec = _figure_from(raw.get("figure", {}))
    with config_key(""):
        return ExperimentConfig(
            scenario=scenario,
            trials=raw.get("trials", DEFAULT_TRIALS),
            seed=seed,
            workers=raw.get("workers", 1),
            sweep=sweep_sec,
            outage=outage_sec,
            frame=frame_sec,
            figure=figure_sec,
            out=raw.get("out"),
            fmt=raw.get("format", "csv"),
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
