"""Smoke run of the benchmark harness, so it cannot silently stop working.

The harness runs in a subprocess: its own tests put ``bench/tests`` on the
import path under the module name ``conftest``, which would shadow this
suite's ``conftest`` if both were collected in one session. No timing is
asserted.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_spectral_theory_workload_runs_and_passes_its_checks():
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "spectral_theory",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] > 0
