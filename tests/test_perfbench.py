"""The benchmark's own tests, run from the repository root as the
benchmark runs them: they pin the outputs and interfaces it reads."""

import subprocess
import sys
from pathlib import Path


def test_benchmark_tests_pass():
    root = Path(__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "perfbench/tests"],
                          cwd=root, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, "\n".join((proc.stdout + proc.stderr).splitlines()[-40:])
