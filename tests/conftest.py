"""Put ``src`` on the import path of the child processes some tests start
(``python -m iqsense``), so the suite runs without installing the package;
pytest's own ``pythonpath`` setting reaches only this process.  Also holds
the ``h3_draw`` fixture, which selects the trial engine's H3 draw."""

import os
from pathlib import Path

import pytest

import iqsense.detection as detection

_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p
)


@pytest.fixture
def h3_draw(request, monkeypatch):
    """The engine's H3 draw, from the test's indirect ``h3_draw``
    parameter: "table" draws from the packet-count table; "per-packet"
    sets the table's length cap to 0, so every H3 row draws packet by
    packet."""
    if request.param == "per-packet":
        monkeypatch.setattr(detection, "_MAX_TABLE_LENGTH", 0)
    detection.h3_packet_count_law.cache_clear()
    yield request.param
    detection.h3_packet_count_law.cache_clear()
