"""The benchmark's command: ``python3 benchmarks/ledger/run.py --workload W
--seed S --seconds N --trace 0|1`` from the repository root (see
:mod:`ledger.harness` for what a run does and prints).

A script, not a module of the package: it puts ``src/`` and the package's
parent directory on ``sys.path`` itself, so it needs no ``PYTHONPATH``
and fails with an import error where there is no program to measure.
"""

import sys
import time
from pathlib import Path

if __name__ == "__main__":
    started = time.perf_counter()
    here = Path(__file__).resolve().parent
    # The script's own directory holds trace.py, which must not shadow the
    # standard library's ``trace``; its parent makes ``ledger`` a package.
    sys.path[0] = str(here.parent)
    sys.path.insert(1, str(here.parents[1] / "src"))
    from ledger.harness import main

    sys.exit(main(import_s=time.perf_counter() - started))
