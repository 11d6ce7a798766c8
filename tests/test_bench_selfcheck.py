"""The benchmark's own checks must pass on the engine as it stands."""

import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).parent.parent


def test_bench_selfcheck_passes():
    proc = subprocess.run([sys.executable, "bench/selfcheck.py"], cwd=ROOT,
                          stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    assert proc.returncode == 0, proc.stdout
