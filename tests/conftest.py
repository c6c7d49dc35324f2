"""Put the checkout's ``src`` first on PYTHONPATH, so the CLI subprocesses the
tests spawn import this tree with no install and no PYTHONPATH set."""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))
