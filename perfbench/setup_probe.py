"""One set-up sample: import dreidel_lab with its dependencies and make a
workload's inputs in a fresh interpreter; print the seconds it took.

Run from the repository root: python3 perfbench/setup_probe.py WORKLOAD SEED
"""

import time

T0 = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path.cwd() / "src"))

import dreidel_lab.cli  # noqa: E402,F401

import workloads  # noqa: E402

make_inputs, _ = workloads.WORKLOADS[sys.argv[1]]
make_inputs(int(sys.argv[2]), 0)
print(repr(time.perf_counter() - T0))
