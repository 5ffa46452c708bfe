"""Smoke test for the benchmark harness.

`bench/run.py --selfcheck` drives every workload at tiny sizes through
the public API, so it fails when any call the harness makes changes
shape.  The harness calls:

- engine: discover, abduction_sample, counterfactual_replay,
  run_inference, InferenceResult (built by keyword: predictions,
  log_weights, n_samples, n_rejected, wall_seconds, degenerate), ess
  and estimate_expectation;
- families: the constructors Normal, Bernoulli, ObservableNormal and
  ObservableBernoulli, and dists.sample_and_score;
- traces: Trace(), Trace.record, Trace.entries, Trace.predictions,
  Trace.log_weight and TraceEntry(address, value, log_prior,
  log_proposal, role);
- rng: rng_for_address, RandomStream.uniform and RandomStream.normal;
- models: generate_scm, generate_query, derive_seed,
  DegenerateGraphError, build_program, exact_counterfactual, and the
  ScmSpec node fields id, kind, p and q.

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
