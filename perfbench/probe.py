"""Set-up probe: a fresh process that imports cornerflow from the checkout's
``src/`` and runs one warm-up scenario.

    python3 perfbench/probe.py WARMUP.json OUT_DIR

Prints ``<CLOCK_MONOTONIC seconds when set-up finished> <exit code>``; the
caller subtracts the time at which it started the process.
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from cornerflow import cli  # noqa: E402

code = cli.run(sys.argv[1], sys.argv[2])
print(time.monotonic(), code)
