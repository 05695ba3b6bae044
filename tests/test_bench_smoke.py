"""The benchmark's own smoke mode runs against the current library.

bench/ patches library names (weights._decompose, oracle._phi_degree, the
functions in bench/tracer.py's TRACED, run_suite's signature); this test
fails when a change to the library removes one of them.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_smoke_exits_zero():
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
