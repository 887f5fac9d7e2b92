"""The benchmark script runs and its CLI output still matches the recorded digests."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_chmm_train_benchmark_runs_and_is_correct():
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "chmm-train", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1])["correct"] is True
