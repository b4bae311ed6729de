"""Make `src/` importable in subprocesses as well.

The `pythonpath` setting in pyproject.toml puts `src/` on this process's
`sys.path` only; the `python -m chflow` entry-point test starts a fresh
interpreter, which finds the package through `PYTHONPATH`.  So a bare
`python -m pytest` runs the whole suite without setting it by hand.
"""

import os
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")
_paths = [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
if SRC not in (str(Path(p).resolve()) for p in _paths):
    os.environ["PYTHONPATH"] = os.pathsep.join([SRC] + _paths)
