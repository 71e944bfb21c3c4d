"""Session set-up shared by every test module."""

import os
import pathlib

# pyproject's pythonpath reaches only this process; the CLI and worker
# subprocesses the tests start find the package through PYTHONPATH
_SRC = str(pathlib.Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))
