"""Seeded end-to-end and per-layer benchmark of whatif.

    python3 bench/run.py --workload scm_cf --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --selfcheck

Run from the root of a source checkout: whatif is imported from its
src/ directory, never from an installed copy, and the command fails
when there is none.  One client drives the public API in a closed loop
(run_inference with workers=1), so each query starts when the previous
one has returned.

--trace 0 measures the end-to-end metrics.  Setup (importing whatif
afresh, generating every case from the seed, exact references) runs
SETUP_REPEATS times, once before the queries and the rest spread evenly
between them, and reports its median.  Queries run in order over the
cases, repeating the list until --seconds have passed, with at
least one full pass; a repeated query must give the same bits again.
Each setup and each query is timed with perf_counter outside the call,
and its wall time is scaled by the machine's speed at that moment, as
measured by a fixed kernel timed on either side of it (calibrate.py):
on a shared machine the raw wall time of the same work swings by up to
a factor of two.  The raw wall-clock figures and the speed factor are
printed on the report's second line and kept in the record.

--trace 1 answers each case once in order, stopping early when --seconds
have passed: untraced, then rebuilt phase by phase with spans around
every public call (see tracing.py).  It checks that both give the same
bits and reports the per-layer metrics; a layer the workload never
enters reads 0.

The last line of standard output is one JSON object with the metrics
that BENCHMARK.json declares for the mode; the lines before it list
every metric that applies to the workload.  A full record with the
environment, the digest of the estimates, per-span self times and any
failures goes to bench/results/, and the spans of a traced run next to it.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS = BENCH_DIR / "results"
SETUP_REPEATS = 12
KEEP_PER_RUN = 4

from calibrate import Speedometer  # noqa: E402
from tracing import Run, Tracer, micro_timings, pc, same_bits  # noqa: E402
from workloads import WORKLOADS, answer_bits, answer_work  # noqa: E402

E2E_UNITS = {
    "setup_s": "s",
    "query_p50_ms": "ms",
    "query_p90_ms": "ms",
    "queries_per_s": "1/s",
    "samples_per_s": "1/s",
    "ess_per_s": "1/s",
    "worlds_per_s": "1/s",
    "abs_err_p50": "1",
    "abs_err_p90": "1",
    "fail_frac": "ratio",
    "peak_rss_mb": "MiB",
}
LAYER_UNITS = {
    "engine.abduction.us_per_call": "us",
    "engine.abduction.us_per_entry": "us",
    "engine.abduction.calls": "count",
    "engine.abduction.entries_per_trace": "count",
    "engine.replay.us_per_call": "us",
    "engine.replay.us_per_entry": "us",
    "engine.replay.calls": "count",
    "engine.replay.entries_per_trace": "count",
    "engine.discover.ms": "ms",
    "engine.estimate.us": "us",
    "engine.executions_per_query": "count",
    "engine.ess_frac": "ratio",
    "engine.reject_frac": "ratio",
    "rng.uniform_us": "us",
    "rng.normal_us": "us",
    "dists.bernoulli_sample_and_score_us": "us",
    "dists.normal_sample_and_score_us": "us",
    "dists.construct_us": "us",
    "trace.record_us": "us",
    "trace.log_weight_us": "us",
    "scm.generate_ms": "ms",
    "scm.build_program_us": "us",
    "oracle.exact_ms": "ms",
    "oracle.ns_per_world": "ns",
    "oracle.worlds": "count",
    "trace_overhead_frac": "ratio",
}
UNITS = {**E2E_UNITS, **LAYER_UNITS}
SAMPLING_ONLY = ("samples_per_s", "ess_per_s", "abs_err_p50", "abs_err_p90")


def import_whatif():
    """Import whatif afresh from the checkout's src/, dropping any earlier import."""
    for name in [m for m in sys.modules if m == "whatif" or m.startswith("whatif.")]:
        del sys.modules[name]
    wi = importlib.import_module("whatif")
    if Path(wi.__file__).resolve().parent != SRC / "whatif":
        raise RuntimeError(f"imported whatif from {wi.__file__}, not from {SRC}")
    return wi


def environment(workload, seed: int) -> dict:
    import numpy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "unknown"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            ref = ref_file.read_text().strip() if ref_file.is_file() else ref
        commit = ref
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu": cpu,
        "commit": commit,
        "workload": workload.name,
        "seed": seed,
        "sizes": workload.sizes,
        "workers": 1,
    }


def _quantile(values, q: float) -> float:
    """Quantile by linear interpolation between order statistics."""
    s = sorted(values)
    pos = q * (len(s) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


class Ledger:
    """Attempted and failed queries, with the first few failure reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def note(self, qid: int, reasons: list[str]) -> None:
        self.attempted += 1
        if reasons:
            self.failed += 1
            if len(self.reasons) < 20:
                self.reasons.append(f"query {qid}: " + "; ".join(reasons))
            print(f"FAILED query {qid}: " + "; ".join(reasons), file=sys.stderr)


def _failure(exc: BaseException) -> list[str]:
    traceback.print_exception(exc)
    return [f"{type(exc).__name__}: {exc}"]


def run_end_to_end(wl, seed: int, seconds: float):
    """Setup and queries, each wall time scaled to the reference speed."""
    setup_meter = Speedometer("python")
    setup_times, setup_walls = [], []

    def timed_setup():
        setup_meter.begin()
        t0 = pc()
        wi = import_whatif()
        cases = wl.setup(wi, seed)
        setup_walls.append(pc() - t0)
        setup_times.append(setup_walls[-1] * setup_meter.factor())
        return wi, cases

    wi, cases = timed_setup()
    meter = Speedometer(wl.speed_kernel)
    ledger = Ledger()
    walls, latencies, first, errors = [], [], [None] * len(cases), []
    samples = ess_sum = 0.0
    deadline = pc() + seconds
    gap = seconds / SETUP_REPEATS
    next_setup = pc() + gap
    k = 0
    while k < len(cases) or pc() < deadline:
        if pc() >= next_setup and len(setup_times) < SETUP_REPEATS:
            # Another setup, whose result is dropped: the queries keep the
            # first import.  Freeing its module cycles at once keeps peak
            # memory independent of how many setups have run.
            timed_setup()
            gc.collect()
            next_setup += gap
            meter.begin()
        i = k % len(cases)
        k += 1
        case = cases[i]
        t0 = pc()
        try:
            answer, error = wl.query(wi, case), None
        except Exception as exc:  # a failed query is counted, never fatal
            error = exc
        walls.append(pc() - t0)
        latencies.append(walls[-1] * meter.factor())
        if error is not None:
            ledger.note(i, _failure(error))
            continue
        try:
            bad = wl.check(case, answer)
        except Exception as exc:
            bad = _failure(exc)
        bits = answer_bits(answer)
        if first[i] is None:
            first[i] = bits
            err = wl.abs_err(case, answer)
            if err is not None:
                errors.append(err)
        elif bits != first[i]:
            bad.append("a repeat of the query gave other bits")
        n, e = answer_work(answer)
        samples += n
        ess_sum += e
        ledger.note(i, bad)

    while len(setup_times) < SETUP_REPEATS:
        timed_setup()
        gc.collect()

    busy = sum(latencies)
    metrics = {
        "setup_s": statistics.median(setup_times),
        "query_p50_ms": _quantile(latencies, 0.5) * 1e3,
        "query_p90_ms": _quantile(latencies, 0.9) * 1e3,
        "queries_per_s": len(latencies) / busy,
        "fail_frac": ledger.failed / ledger.attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if "nodes" in wl.sizes:
        metrics["worlds_per_s"] = len(latencies) * 2 ** wl.sizes["nodes"] / busy
    else:
        metrics["samples_per_s"] = samples / busy
        metrics["ess_per_s"] = ess_sum / busy
        if errors:
            metrics["abs_err_p50"] = _quantile(errors, 0.5)
            metrics["abs_err_p90"] = _quantile(errors, 0.9)
    digest_src = b"".join(b if b is not None else b"" for b in first)
    extra = {
        "digest": hashlib.sha256(digest_src).hexdigest()[:16],
        "timed_queries": len(latencies),
        "distinct_queries": sum(b is not None for b in first),
        "speed_factor_p50": statistics.median(meter.factors),
        "wall_setup_s": statistics.median(setup_walls),
        "wall_query_p50_ms": _quantile(walls, 0.5) * 1e3,
        "wall_query_p90_ms": _quantile(walls, 0.9) * 1e3,
        "latencies_ms": [round(t * 1e3, 4) for t in latencies],
        "speed_factors": [round(f, 4) for f in meter.factors],
    }
    return metrics, ledger, extra


def _same_answer(a, b) -> bool:
    return all(
        same_bits(x, y) if isinstance(x, Run) else x.hex() == y.hex() for x, y in zip(a, b)
    )


def run_traced(wl, seed: int, seconds: float):
    tr = Tracer()
    wi = import_whatif()
    cases = wl.setup(wi, seed, tr)

    ledger = Ledger()
    runs, answered, bits = [], [], []
    untraced = traced = 0.0
    deadline = pc() + seconds
    for qid, case in enumerate(cases):
        if qid and pc() >= deadline:
            break
        try:
            t0 = pc()
            plain = wl.query(wi, case)
            t1 = pc()
            slot = tr.open()
            rebuilt = wl.query_traced(wi, case, tr, slot, qid, KEEP_PER_RUN)
            tr.close(slot, "query", t1, -1, qid)
            t2 = pc()
        except Exception as exc:
            ledger.note(qid, _failure(exc))
            continue
        untraced += t1 - t0
        traced += t2 - t1
        try:
            bad = wl.check(case, plain)
        except Exception as exc:
            bad = _failure(exc)
        if not _same_answer(plain, rebuilt):
            bad.append("the phase-by-phase rebuild differs in bits from run_inference")
        ledger.note(qid, bad)
        answered.append(case)
        runs.append(rebuilt)
        bits.append(answer_bits(plain))

    st = tr.self_times()

    def count(name):
        return st.get(name, (0, 0.0))[0]

    def per_call(name, scale):
        n, total = st.get(name, (0, 0.0))
        return total / n * scale if n else 0.0

    engine_runs = [r for answer in runs for r in answer if isinstance(r, Run)]
    n_samples = sum(r.result.n_samples for r in engine_runs)
    abd_entries = sum(r.abduction_entries for r in engine_runs)
    rep_entries = sum(r.replay_entries for r in engine_runs)
    n_abd, n_rep = count("engine.abduction"), count("engine.replay")
    n_exact = count("oracle.exact")
    worlds = 2 ** len(cases[0].scm.nodes) if n_exact else 0
    metrics = {
        "engine.abduction.us_per_call": per_call("engine.abduction", 1e6),
        "engine.abduction.us_per_entry": st.get("engine.abduction", (0, 0.0))[1] / max(abd_entries, 1) * 1e6,
        "engine.abduction.calls": n_abd,
        "engine.abduction.entries_per_trace": abd_entries / n_abd if n_abd else 0.0,
        "engine.replay.us_per_call": per_call("engine.replay", 1e6),
        "engine.replay.us_per_entry": st.get("engine.replay", (0, 0.0))[1] / max(rep_entries, 1) * 1e6,
        "engine.replay.calls": n_rep,
        "engine.replay.entries_per_trace": rep_entries / n_rep if n_rep else 0.0,
        "engine.discover.ms": per_call("engine.discover", 1e3),
        "engine.estimate.us": per_call("engine.estimate", 1e6),
        "engine.executions_per_query": (
            statistics.mean(r.executions for r in engine_runs) if engine_runs else 0.0
        ),
        "engine.ess_frac": sum(r.ess for r in engine_runs) / n_samples if n_samples else 0.0,
        "engine.reject_frac": (
            sum(r.result.n_rejected for r in engine_runs) / n_samples if n_samples else 0.0
        ),
        "scm.generate_ms": per_call("scm.generate", 1e3),
        "scm.build_program_us": per_call("scm.build_program", 1e6),
        "oracle.exact_ms": per_call("oracle.exact", 1e3),
        "oracle.ns_per_world": per_call("oracle.exact", 1e9) / worlds if worlds else 0.0,
        "oracle.worlds": worlds,
        "trace_overhead_frac": traced / untraced - 1.0 if untraced else 0.0,
    }
    metrics.update(micro_timings(wi, wl.layer_inputs(wi, answered, runs)))
    extra = {
        "digest": hashlib.sha256(b"".join(bits)).hexdigest()[:16],
        "timed_queries": len(answered),
        "self_times_s": {name: {"count": n, "self_s": s} for name, (n, s) in sorted(st.items())},
    }
    return metrics, ledger, extra, tr


def declared_metrics() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def reported_names(wl, trace: int) -> list[str]:
    """Every metric the report prints for the workload in the mode."""
    if trace:
        return list(LAYER_UNITS)
    skip = SAMPLING_ONLY if "nodes" in wl.sizes else ("worlds_per_s",)
    return [n for n in E2E_UNITS if n not in skip]


def run_workload(name: str, seed: int, seconds: float, trace: int, tiny: bool = False):
    """One benchmark run: (report lines, result line, full record, tracer or None)."""
    wl = WORKLOADS[name](tiny)
    declared = declared_metrics()[trace]
    if trace:
        metrics, ledger, extra, tr = run_traced(wl, seed, seconds)
    else:
        metrics, ledger, extra = run_end_to_end(wl, seed, seconds)
        tr = None
    for m, unit in declared.items():
        if UNITS.get(m) != unit:
            raise RuntimeError(f"BENCHMARK.json gives {m} the unit {unit!r}, the run {UNITS.get(m)!r}")
    missing = [m for m in list(declared) + reported_names(wl, trace) if m not in metrics]
    if missing:
        raise RuntimeError(f"metrics not measured: {missing}")
    lines = [f"# {name} seed={seed} trace={trace} digest={extra['digest']} "
             f"queries={extra['timed_queries']} attempted={ledger.attempted} failed={ledger.failed}"]
    if not trace:
        lines.append(f"# speed factor p50 {extra['speed_factor_p50']:.4f}; wall clock: setup "
                     f"{extra['wall_setup_s']:.4g} s, query p50 {extra['wall_query_p50_ms']:.4g} ms, "
                     f"p90 {extra['wall_query_p90_ms']:.4g} ms")
    lines += [f"{m:40s} {metrics[m]:.6g} {UNITS[m]}" for m in reported_names(wl, trace)]
    result = {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {m: {"value": metrics[m], "unit": u} for m, u in declared.items()},
    }
    record = {
        "environment": environment(wl, seed),
        "trace": trace,
        "seconds": seconds,
        "metrics": {m: {"value": v, "unit": UNITS[m]} for m, v in metrics.items()},
        "failures": ledger.reasons,
        **extra,
    }
    return lines, result, record, tr


def selfcheck() -> int:
    """Run every workload at tiny sizes in both modes; every named metric must appear."""
    ok = True
    for name in WORKLOADS:
        for trace in (0, 1):
            lines, result, _, _ = run_workload(name, 1, 0.05, trace, tiny=True)
            printed = {ln.split()[0]: ln.split()[-1] for ln in lines if not ln.startswith("#")}
            wanted = reported_names(WORKLOADS[name](True), trace)
            bad = [m for m in wanted if printed.get(m) != UNITS[m]]
            good = result["correct"] and not bad and set(result["metrics"]) == set(declared_metrics()[trace])
            ok &= good
            print(f"{name:14s} trace={trace} {'ok' if good else 'FAIL'} "
                  f"{len(printed)} metrics {bad or ''}")
    print("selfcheck", "ok" if ok else "FAILED")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="whatif benchmark")
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selfcheck", action="store_true",
                        help="tiny sizes, every workload and mode; checks every metric is emitted")
    args = parser.parse_args(argv)
    if not (SRC / "whatif" / "__init__.py").is_file():
        print(f"no whatif sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.selfcheck:
        return selfcheck()
    if args.workload is None:
        parser.error("--workload is required")
    lines, result, record, tr = run_workload(args.workload, args.seed, args.seconds, args.trace)
    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if tr is not None:
        tr.write(RESULTS / f"{stem}-spans.json.gz")
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
