"""Smoke test for the benchmark harness.

`bench/run.py --selfcheck` drives every workload at tiny sizes through
the public API (discover, abduction_sample, counterfactual_replay,
run_inference, InferenceResult, TraceEntry, sample_and_score,
rng_for_address), so it fails when any of those calls changes shape.
It writes no result file.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_selfcheck_passes():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--selfcheck"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "selfcheck ok" in proc.stdout
