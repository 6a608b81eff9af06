"""Put the benchmark modules and the repro sources on the import path."""

import sys
from pathlib import Path

_BENCH = Path(__file__).resolve().parent.parent
for entry in (_BENCH, _BENCH.parent / "src"):
    if str(entry) not in sys.path:
        sys.path.insert(0, str(entry))
