"""The benchmark's smoke run must keep working against the package.

``perfbench/smoke.py`` runs every workload at small sizes, untraced and
traced.  It exits non-zero when a verdict disagrees with its answer key
or a metric goes missing, and it crashes when a public name that the
benchmark imports or calls is gone.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_smoke_passes():
    proc = subprocess.run(
        [sys.executable, "perfbench/smoke.py"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
