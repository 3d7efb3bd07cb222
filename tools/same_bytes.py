"""Check that two source trees of iqsense print the same bytes.

Runs one fixed list of ``iqsense`` commands under each tree, each in a
fresh interpreter with ``PYTHONPATH=<tree>/src`` and in a temporary
working directory of its own, and compares the sha256 of stdout, of
stderr and of the ``--out`` file, and the exit codes.  Every output embeds
its ``config_sha256``, so the hash is compared too.  Trial counts are
small and ``--workers`` is at most 2.

Usage::

    python tools/same_bytes.py PARENT_TREE CHANGE_TREE

Prints one line per command and exits 1 if any command differs.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

_JOINT = {"rx_irr_db": -20.0}
_JOINT_IDEAL_TX = {"tx_irr_db": None, "rx_irr_db": -20}
_CFAR = {"mode": "two-cfar", "cfar_pfa": 0.1}
_FIGURE = {"trials": 2000, "figure": {"irr_grid": [-30.0, -20.0, -10.0],
                                      "snr1_grid": [-10.0, 0.0, 10.0],
                                      "delta_snrs": [-5.0, 0.0]}}
_FRAME = {"n_subcarriers": 64, "active": [1, 2, -3, 7, -20, 31], "snr_db": 8.0}
_MODES = {"modes": ["four", "two-bayes", "two-cfar"], "cfar_pfa": 0.1}
# A joint scenario whose own variances are in order while the default
# frame's (0 dB on both sides) are not; only `frame` refuses it.
_MIRROR_HEAVY = {"scenario": {"tx_irr_db": -3, "rx_irr_db": -3, "channel_var_mirror": 10}}
# Every section and every optional key set; tests/test_config.py pins its
# config_sha256.
EVERY_SECTION = {
    "scenario": {"snr1_db": 5.0, "snr2_db": None, "rx_irr_db": -20, "n_packets": 4,
                 "mode": "two-cfar", "cfar_pfa": 0.05, "psk_order": 8,
                 "channel_var_mirror": 2.0},
    "seed": 7, "stream_index": 3, "trials": 1234,
    "sweep": {"axis": "irr_db", "grid": [-25, -10], "modes": ["four", "two-bayes", "two-cfar"],
              "cfar_pfa": 0.1},
    "outage": {"irr_db": -12.0, "rate_p": 2},
    "frame": {"n_subcarriers": 16, "active": [1, -3, 8], "snr_db": 4.0},
    "figure": {"irr_grid": [-20, -5], "snr1_grid": [0, 10], "delta_snrs": [-5]},
}


def _sweep(axis, grid, **scenario):
    return {"trials": 5000, "scenario": {"n_packets": 8, **scenario},
            "sweep": {"axis": axis, "grid": grid, **_MODES}}


# (name, config or None, argv); an "--out" path is relative to the
# working directory.
COMMANDS = [
    ("sense", {"trials": 5000}, ["sense"]),
    ("sense-verify", {"trials": 5000}, ["sense", "--verify", "--workers", "2"]),
    # figure 4's SNR1 20 dB point at delta -10 dB, whose H3 row is far from
    # its Gamma stand-in: --verify tests it against its packet-count law
    ("sense-verify-h3-table", {"trials": 100000, "scenario": {"snr1_db": 20.0, "snr2_db": 30.0}},
     ["sense", "--seed", "5", "--verify", "--workers", "2"]),
    ("sense-joint", {"trials": 5000, "scenario": _JOINT},
     ["sense", "--format", "json", "--out", "o.json"]),
    ("sense-trials", None, ["sense", "--trials", "3000"]),
    ("sense-stream-index", {"trials": 5000, "stream_index": 2}, ["sense", "--seed", "7"]),
    ("sense-two-cfar", {"trials": 5000, "scenario": _CFAR}, ["sense", "--out", "o.csv"]),
    # Gamma rows by products of uniforms at the benchmark's sense-tx
    # point, H3 from its packet-count table, and packet by packet past the
    # table's length cap (a cross term that nearly cancels the signal).
    # That point's H3 trials fall almost wholly in H3, so its tally cannot
    # show a moved per-packet stream; tests/test_montecarlo.py pins one.
    ("sense-n4", {"trials": 5000, "scenario": {
        "snr1_db": 0.0, "snr2_db": -10.0, "tx_irr_db": -15.0, "n_packets": 4}},
     ["sense", "--workers", "2"]),
    # the same point with blocks of 65,536 x 4 packet variates, past the
    # engine's thread crossover: the calling thread and one helper share them
    ("sense-n4-two-threads", {"trials": 70000, "scenario": {
        "snr1_db": 0.0, "snr2_db": -10.0, "tx_irr_db": -15.0, "n_packets": 4}},
     ["sense", "--workers", "2"]),
    # two full blocks and a short last one per hypothesis, all drawn by
    # one thread into the same arrays
    ("sense-n4-one-thread", {"trials": 150000, "scenario": {
        "snr1_db": 0.0, "snr2_db": -10.0, "tx_irr_db": -15.0, "n_packets": 4}},
     ["sense", "--workers", "1"]),
    ("sense-n32", {"trials": 5000, "scenario": {"n_packets": 32}}, ["sense"]),
    ("sense-past-table-cap", {"trials": 2000, "scenario": {
        "snr1_db": 10.0, "snr2_db": 24.9, "tx_irr_db": -15.0, "n_packets": 256}},
     ["sense", "--workers", "2"]),
    # --verify's three kinds of row: H3 past the table's cap is left out with
    # a note on stderr, H3 of an ideal front end keeps its Gamma row, and the
    # joint model's H3 is tested against its packet-count table
    ("sense-verify-past-table-cap", {"trials": 2000, "scenario": {
        "snr1_db": 10.0, "snr2_db": 24.9, "tx_irr_db": -15.0, "n_packets": 256}},
     ["sense", "--verify", "--workers", "2"]),
    ("sense-verify-ideal-tx", {"trials": 5000, "scenario": {"tx_irr_db": None}},
     ["sense", "--verify"]),
    ("sense-verify-joint", {"trials": 5000, "scenario": _JOINT},
     ["sense", "--verify", "--workers", "2"]),
    # packet by packet in a full block and a short one, on two threads
    ("sense-past-table-cap-two-blocks", {"trials": 70000, "scenario": {
        "snr1_db": 10.0, "snr2_db": 24.9, "tx_irr_db": -15.0, "n_packets": 128}},
     ["sense", "--workers", "2"]),
    ("sweep-irr_db", _sweep("irr_db", [-25.0, -15.0], psk_order=2), ["sweep", "--workers", "2"]),
    ("sweep-snr1_db", _sweep("snr1_db", [0.0, 5.0], psk_order=1024),
     ["sweep", "--format", "json"]),
    ("sweep-delta_snr_db", _sweep("delta_snr_db", [4.0, 9.0], rx_epsilon=0.1, rx_theta=-0.1),
     ["sweep", "--out", "o.csv"]),
    ("sweep-snr_db_at_delta", _sweep("snr_db_at_delta", [-2.0, 4.0, 10.0], **_JOINT),
     ["sweep", "--workers", "2"]),
    ("figure-3", _FIGURE, ["figure", "3"]),
    ("figure-4", _FIGURE, ["figure", "4", "--workers", "2", "--out", "o.csv"]),
    ("figure-5", _FIGURE, ["figure", "5", "--format", "json"]),
    ("figure-6", _FIGURE, ["figure", "6"]),
    ("analytic", None, ["analytic"]),
    ("analytic-json", None, ["analytic", "--format", "json"]),
    ("analytic-joint", {"scenario": {**_JOINT, "n_packets": 3}}, ["analytic", "--out", "o.csv"]),
    ("analytic-mode-two-cfar", None, ["analytic", "--mode", "two-cfar", "--cfar-pfa", "0.05"]),
    # figure 4's SNR1 20 dB point at delta -10 dB, where the exact p_d is
    # 0.0623 below the Gamma form, and a point past the H3 table's length
    # cap, whose exact p_d is an empty cell
    ("analytic-figure-4-point", {"scenario": {"snr1_db": 20.0, "snr2_db": 30.0}}, ["analytic"]),
    ("analytic-past-table-cap", {"scenario": {
        "snr1_db": 10.0, "snr2_db": 24.9, "tx_irr_db": -15.0, "n_packets": 256}}, ["analytic"]),
    ("analytic-two-cfar", {"scenario": _CFAR}, ["analytic", "--format", "json"]),
    # the headline point at 1024 packets: its H3 table has 140 entries and
    # its boundaries sit at n*t/v of about 542, 752 and 1,084, so the exact
    # and the Gamma tails take the Poisson weights from their logarithms
    ("analytic-n1024", {"scenario": {"n_packets": 1024}}, ["analytic"]),
    # every section and every optional key set: analytic prints the
    # config_sha256 of them all and runs no trials
    ("analytic-every-section", EVERY_SECTION, ["analytic"]),
    ("frame-csv", {"frame": _FRAME}, ["frame"]),
    ("frame-json", {"frame": _FRAME}, ["frame", "--format", "json", "--out", "o.json"]),
    ("frame-joint", {"frame": _FRAME, "scenario": {**_JOINT, "n_packets": 4}},
     ["frame", "--format", "json"]),
    ("frame-default", None, ["frame"]),
    ("frame-mirror-heavy", _MIRROR_HEAVY, ["frame"]),
    ("analytic-mirror-heavy", _MIRROR_HEAVY, ["analytic"]),
    # rule shapes with fewer than three boundaries: an ideal front end
    # merges H0/H1 and H2/H3, and CFAR at target 1 has no boundary
    ("analytic-ideal-tx", {"scenario": {"tx_irr_db": None}}, ["analytic"]),
    # an ideal transmitter with a receiver mismatch: H3 has no cross term,
    # so its Gamma row is exact and 2*sigma3^2 is its one-entry law's mean
    ("analytic-joint-ideal-tx", {"scenario": _JOINT_IDEAL_TX}, ["analytic"]),
    ("sense-joint-ideal-tx", {"trials": 5000, "scenario": _JOINT_IDEAL_TX}, ["sense"]),
    ("sense-cfar-always-busy", {"trials": 5000},
     ["sense", "--mode", "two-cfar", "--cfar-pfa", "1"]),
    ("outage-csv", {"trials": 20000}, ["outage"]),
    ("outage-json", {"trials": 20000}, ["outage", "--format", "json", "--out", "o.json"]),
    # the default 1e6 trials, as criterion 9 draws them: one slice of the outage draw
    ("outage-default", None, ["outage"]),
    # the closed forms' guards: a zero threshold, and a dead wanted path
    ("outage-rate-p-0", {"trials": 20000, "outage": {"rate_p": 0}}, ["outage"]),
    ("outage-p-mk-0", {"trials": 20000, "outage": {"p_mk": 0}}, ["outage"]),
    # an ideal front end: H3 has no cross term and no packet-count table,
    # so its row is drawn from the one-entry Gamma law
    ("sense-ideal-tx", {"trials": 5000, "scenario": {"tx_irr_db": None}}, ["sense"]),
    # refusals whose stderr comes from a model type's own check
    ("analytic-psk-order-12", {"scenario": {"psk_order": 12}}, ["analytic"]),
    ("outage-p0-negative", {"outage": {"p0": -1}}, ["outage"]),
    ("frame-odd-subcarriers", {"frame": {"n_subcarriers": 7}}, ["frame"]),
    ("noise-var-string", {"scenario": {"noise_var": "x"}}, ["analytic"]),
    ("sense-trials-0", None, ["sense", "--trials", "0"]),
    ("analytic-out-empty", None, ["analytic", "--out", ""]),
    # a threshold or a rule that does not exist: refused under their section
    ("analytic-rate-p-2000", {"outage": {"rate_p": 2000}}, ["analytic"]),
    ("sense-noise-var-1e-320", {"scenario": {"noise_var": 1e-320}}, ["sense"]),
    # a signal mean p_mk*var_g/noise_p that overflows a float
    ("outage-noise-p-5e-324", {"outage": {"noise_p": 5e-324}}, ["outage"]),
]


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run(tree: Path, config, argv: list[str]) -> dict:
    """sha256 of stdout, stderr and the ``--out`` file, and the exit code,
    of one command run under ``tree``."""
    env = {**os.environ, "PYTHONPATH": str(tree.resolve() / "src")}
    with tempfile.TemporaryDirectory() as tmp:
        if config is not None:
            Path(tmp, "c.json").write_text(json.dumps(config))
            argv = [*argv, "--config", "c.json"]
        r = subprocess.run([sys.executable, "-m", "iqsense", *argv], cwd=tmp, env=env,
                           capture_output=True, timeout=600)
        out = Path(tmp, argv[argv.index("--out") + 1]) if "--out" in argv else None
        return {
            "stdout": _sha(r.stdout),
            "stderr": _sha(r.stderr),
            "exit": r.returncode,
            "out": _sha(out.read_bytes()) if out is not None and out.is_file() else None,
        }


def main(argv: list[str]) -> int:
    if len(argv) != 2 or not all(Path(t, "src", "iqsense").is_dir() for t in argv):
        print("usage: python tools/same_bytes.py PARENT_TREE CHANGE_TREE", file=sys.stderr)
        return 2
    parent, change = map(Path, argv)
    differ = 0
    for name, config, command in COMMANDS:
        a, b = run(parent, config, command), run(change, config, command)
        parts = [k for k in ("stdout", "stderr", "exit", "out") if a[k] != b[k]]
        differ += bool(parts)
        verdict = f"DIFF in {', '.join(parts)}" if parts else "same"
        print(f"{name:<24} exit {a['exit']}/{b['exit']}  {verdict}", flush=True)
    print(f"{len(COMMANDS) - differ} of {len(COMMANDS)} commands identical")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
