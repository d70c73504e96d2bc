"""Make the repository's sources importable when ``PYTHONPATH`` lacks them."""

import sys
from pathlib import Path

SOURCES = str(Path(__file__).resolve().parents[2] / "src")
if SOURCES not in sys.path:
    sys.path.insert(0, SOURCES)
