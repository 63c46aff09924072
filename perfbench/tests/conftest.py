"""Put the repository root and ``src/`` on the import path.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""

import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parents[2]
for path in (ROOT, ROOT / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
