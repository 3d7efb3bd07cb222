"""Put ``src`` on the import path of the child processes some tests start
(``python -m iqsense``), so the suite runs without installing the package;
pytest's own ``pythonpath`` setting reaches only this process."""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p
)
