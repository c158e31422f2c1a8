"""The benchmark at tiny sizes: result schema and exact checks, no timing."""

import subprocess
import sys
from pathlib import Path


def test_benchmark_smoke():
    run = Path(__file__).with_name("run.py")
    proc = subprocess.run([sys.executable, str(run), "--smoke"], capture_output=True,
                          text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines()[-1] == "smoke ok"
