"""The tests import ncgrass from src/ (pyproject's pytest pythonpath); the
command-line runs they start as subprocesses import it from there too."""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parent.parent / "src")
_paths = os.environ.get("PYTHONPATH", "").split(os.pathsep)
if _SRC not in _paths:
    os.environ["PYTHONPATH"] = os.pathsep.join([_SRC] + [p for p in _paths if p])
