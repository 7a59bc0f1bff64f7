"""Import paths for the benchmark's own tests: the benchmark modules and the
checkout's ``src/``.  Run with ``python3 -m pytest perfbench/tests``."""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
for path in (HERE.parent, HERE.parents[1] / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
