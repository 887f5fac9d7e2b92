"""The benchmark script runs and its CLI output still matches the recorded digests."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _assert_benchmark_correct(workload, trace="0"):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", trace],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1])["correct"] is True


def test_chmm_train_benchmark_runs_and_is_correct():
    _assert_benchmark_correct("chmm-train")


@pytest.mark.parametrize("workload", ["hmm-train", "hmm-query"])
def test_benchmark_runs_and_is_correct(workload):
    _assert_benchmark_correct(workload)


@pytest.mark.parametrize("workload", ["hmm-train", "chmm-train", "hmm-query"])
def test_traced_benchmark_runs_and_times_every_layer(workload):
    # A traced pass fails unless every per-layer span was timed at least once.
    _assert_benchmark_correct(workload, trace="1")
