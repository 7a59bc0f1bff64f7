"""Traffic trace: which executable lines of cornerflow do real runs reach?

Tooling, not a test; it gates nothing.  Run from the repository root:

    PYTHONPATH=src:tests:perfbench python tests/traffic.py

Under the line trace of ``linetrace`` it runs, through ``cli.run``, each
bundled scenario and passes 0-1 of every benchmark workload at seed 1
(``perfbench/scenarios.py``), then prints each run's exit code and every
executable line that no run reaches.  Tier-1 reaches every line, so a line
listed here is reached by tests alone: an input guard, an error path, or
API that no run uses.
"""

import json
import sys
import tempfile
import threading
from pathlib import Path

import linetrace
import scenarios

SEED, PASSES = 1, 2


def main() -> int:
    sys.settrace(linetrace._global)
    threading.settrace(linetrace._global)
    from cornerflow import cli  # traced from its first line

    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        runs = [(path.name, path.name)  # by name, as the CLI finds them
                for path in sorted((linetrace.PACKAGE / "scenarios").glob("*.json"))]
        for workload in scenarios.WORKLOADS:
            gen = scenarios.Generator(workload, SEED)
            for k in range(PASSES):
                for cfg in gen.pass_(k):
                    path = work / f"{workload}_{k}_{cfg['name']}.json"
                    path.write_text(json.dumps(cfg))
                    runs.append((f"{workload} pass {k} {cfg['name']}", path))
        codes = [(label, cli.run(str(path), str(work / "out" / label)))
                 for label, path in runs]
    sys.settrace(None)
    threading.settrace(None)

    for label, code in codes:
        print(f"exit {code}: {label}")
    missed = linetrace.unreached()
    for path, line, text in missed:
        print(f"unreached: {path.relative_to(linetrace.PACKAGE.parent)}:{line}: {text}")
    print(f"traffic: {len(codes)} runs, {len(missed)} executable lines unreached")
    return 0


if __name__ == "__main__":
    sys.exit(main())
