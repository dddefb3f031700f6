"""What a CLI user pays before the first command, in a fresh interpreter.

Imports `modsquares.cli` and generates the workload's first pass, then
exits; `run.py` times this script from spawn to exit as `setup_s`.

    python3 perfbench/setup_probe.py WORKLOAD SEED
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import modsquares.cli  # noqa: E402,F401
from workloads import passes  # noqa: E402

next(passes(sys.argv[1], int(sys.argv[2])))
