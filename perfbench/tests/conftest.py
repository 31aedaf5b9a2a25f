"""Put the program source and the benchmark package on the import path."""

import sys
from pathlib import Path

ROOT_DIR = Path(__file__).resolve().parents[2]
for path in (ROOT_DIR / "src", ROOT_DIR):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
