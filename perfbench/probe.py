"""Set-up probe: import ``aht`` and generate one workload's inputs, then exit.

``run.py`` times this script in fresh interpreters to measure ``setup_s``,
the cost a CLI user pays before the first operation starts.

Usage: ``python3 perfbench/probe.py WORKLOAD SEED DIRECTORY``
"""
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import aht.cli  # noqa: E402,F401  (the import a CLI call pays for)
from perfbench import workloads  # noqa: E402

if __name__ == "__main__":
    workload, seed, directory = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    workloads.materialize(workloads.generate(workload, seed), directory)
