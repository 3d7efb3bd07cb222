"""The output-byte comparison in tools/same_bytes.py."""

import importlib.util
import shutil
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("same_bytes", _ROOT / "tools" / "same_bytes.py")
same_bytes = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(same_bytes)


def test_a_changed_out_file_is_reported(tmp_path, monkeypatch, capsys):
    """A tree matches itself; a tree whose provenance line differs
    differs in the --out file only, and a refused command matches on its
    exit code and stderr."""
    changed = tmp_path / "changed"
    shutil.copytree(_ROOT / "src", changed / "src", ignore=shutil.ignore_patterns("__pycache__"))
    cli = changed / "src" / "iqsense" / "cli.py"
    source = cli.read_text()
    assert source.count('"tool": f"iqsense {__version__}"') == 1
    cli.write_text(source.replace('"tool": f"iqsense {__version__}"',
                                  '"tool": f"iqsense {__version__}+"'))
    monkeypatch.setattr(same_bytes, "COMMANDS", [
        ("analytic-out", None, ["analytic", "--out", "o.csv"]),
        ("bad-seed", {"seed": -1}, ["analytic"]),
    ])
    assert same_bytes.main([str(_ROOT), str(_ROOT)]) == 0
    capsys.readouterr()
    assert same_bytes.main([str(_ROOT), str(changed)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == ["analytic-out", "exit", "0/0", "DIFF", "in", "out"]
    assert lines[1].split() == ["bad-seed", "exit", "2/2", "same"]
    assert lines[2] == "1 of 2 commands identical"
    assert same_bytes.main([str(_ROOT)]) == 2
