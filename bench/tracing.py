"""Spans recorded around calls into whatif, and the per-layer figures they give.

Nothing here reaches inside the library: every span opens and closes in
this file or in workloads.py, around a call into one public function of
one whatif module.  The engine layer is traced by rebuilding
run_inference's sampling loop from its public phases (discover,
abduction_sample, counterfactual_replay, estimate_expectation, ess); the
rng, dists and trace layers are timed by replaying each workload's own
addresses, sample indices and recorded entries through them.
"""

from __future__ import annotations

import gzip
import json
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

pc = time.perf_counter

# At most this many abducted traces are kept per traced run for the
# rng / dists / trace micro-timings.
KEEP_TRACES = 200
MICRO_REPEATS = 5


class Tracer:
    """In-memory spans: (name, start, end, parent index, query id)."""

    def __init__(self):
        self.spans: list = []
        self.t_origin = pc()

    def open(self) -> int:
        """Reserve a slot for a span whose children are recorded first."""
        self.spans.append(None)
        return len(self.spans) - 1

    def close(self, slot: int, name: str, start: float, parent: int, qid: int) -> None:
        self.spans[slot] = (name, start, pc(), parent, qid)

    def add(self, name: str, start: float, end: float, parent: int, qid: int) -> None:
        self.spans.append((name, start, end, parent, qid))

    def self_times(self) -> dict[str, tuple[int, float]]:
        """Per span name: (count, summed self time in seconds).

        Self time is a span's duration minus the durations of its
        children; one client runs everything in sequence, so children
        never overlap.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, tuple[int, float]] = {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            n, total = out.get(name, (0, 0.0))
            out[name] = (n + 1, total + (end - start) - child[i])
        return out

    def write(self, path) -> None:
        """Spans as gzipped JSON, times in ns from the tracer's creation."""
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        t0 = self.t_origin
        rows = [
            [index[n], round((s - t0) * 1e9), round((e - t0) * 1e9), p, q]
            for n, s, e, p, q in self.spans
        ]
        doc = {"names": names, "columns": ["name", "start_ns", "end_ns", "parent", "query"],
               "spans": rows}
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def span_call(tr: Tracer | None, name: str, parent: int, qid: int, fn, *args):
    """Call fn, recording a span around it when tracing."""
    if tr is None:
        return fn(*args)
    t0 = pc()
    out = fn(*args)
    tr.add(name, t0, pc(), parent, qid)
    return out


class Counted:
    """Program wrapper that counts program executions."""

    __slots__ = ("program", "calls")

    def __init__(self, program):
        self.program = program
        self.calls = 0

    def __call__(self, ctx):
        self.calls += 1
        return self.program(ctx)


@dataclass
class Run:
    """One inference run: the estimate and what it cost."""

    executions: int
    result: object  # whatif.InferenceResult
    estimate: float
    ess: float
    abduction_entries: int = 0
    replay_entries: int = 0
    kept: list = field(default_factory=list)  # (sample index, abducted Trace)


def infer(wi, program, n: int, seed: int) -> Run:
    """The untraced query, exactly as a user runs it."""
    counted = Counted(program)
    res = wi.run_inference(counted, n, seed=seed)
    return Run(counted.calls, res, wi.estimate_expectation(res), wi.ess(res.log_weights))


def infer_traced(wi, program, n: int, seed: int, tr: Tracer, parent: int, qid: int,
                 keep: int) -> Run:
    """run_inference's single-worker loop rebuilt from public phase calls."""
    counted = Counted(program)
    add = tr.add
    t0 = pc()
    plan = wi.discover(counted, seed=seed)
    add("engine.discover", t0, pc(), parent, qid)
    predictions, lws, kept = [], [], []
    n_rejected = abd_entries = rep_entries = 0
    t_loop = pc()
    for i in range(n):
        t0 = pc()
        abd = wi.abduction_sample(counted, plan, seed, i)
        add("engine.abduction", t0, pc(), parent, qid)
        abd_entries += len(abd.entries)
        merged = dict(abd.predictions)
        if abd.rejected:
            n_rejected += 1
        elif plan.needs_replay:
            t0 = pc()
            rep = wi.counterfactual_replay(abd, plan, counted, seed, i)
            add("engine.replay", t0, pc(), parent, qid)
            rep_entries += len(rep.entries)
            merged.update(rep.predictions)
        predictions.append(merged)
        lws.append(abd.log_weight)
        if i < keep:
            kept.append((i, abd))
    res = wi.InferenceResult(
        predictions=predictions,
        log_weights=np.asarray(lws, dtype=float),
        n_samples=n,
        n_rejected=n_rejected,
        wall_seconds=pc() - t_loop,
        degenerate=n > 0 and n_rejected == n,
    )
    t0 = pc()
    estimate = wi.estimate_expectation(res)
    ess = wi.ess(res.log_weights)
    add("engine.estimate", t0, pc(), parent, qid)
    return Run(counted.calls, res, estimate, ess, abd_entries, rep_entries, kept)


def same_bits(a: Run, b: Run) -> bool:
    """Bitwise agreement of estimate, ESS and every log-weight."""
    return (
        a.estimate.hex() == b.estimate.hex()
        and a.ess.hex() == b.ess.hex()
        and a.result.log_weights.tobytes() == b.result.log_weights.tobytes()
    )


# -- micro-timings on a workload's own inputs --------------------------------


@dataclass
class LayerInputs:
    """What a workload hands the rng, dists and trace layers.

    keys: (seed, sample index, address) triples the workload draws at.
    bernoulli_p, normal_params: the workload's own family parameters
    (a workload without the family times it at Bernoulli(0.5) or
    Normal(0, 1) on its own keys).
    specs: (family, args) pairs the workload constructs.
    entry_lists: recorded trace entries, one list per trace.
    """

    keys: list
    bernoulli_p: list
    normal_params: list
    specs: list
    entry_lists: list


def _per_call_us(body, n_calls: int) -> float:
    """Median over repeats of body()'s wall time per call, in us."""
    times = []
    for _ in range(MICRO_REPEATS):
        t0 = pc()
        body()
        times.append(pc() - t0)
    return statistics.median(times) / max(n_calls, 1) * 1e6


def micro_timings(wi, inp: LayerInputs) -> dict[str, float]:
    """Per-call times of the rng, dists and trace layers on a workload's inputs."""
    from whatif.dists import sample_and_score
    from whatif.rng import rng_for_address

    keys = inp.keys
    bern = [wi.Bernoulli(inp.bernoulli_p[k % len(inp.bernoulli_p)]) for k in range(len(keys))]
    norm = [wi.Normal(*inp.normal_params[k % len(inp.normal_params)]) for k in range(len(keys))]

    def uniform():
        for s, i, a in keys:
            rng_for_address(s, i, a).uniform()

    def normal():
        for s, i, a in keys:
            rng_for_address(s, i, a).normal()

    def bernoulli_ss():
        for spec, (s, i, a) in zip(bern, keys):
            sample_and_score(spec, rng_for_address(s, i, a))

    def normal_ss():
        for spec, (s, i, a) in zip(norm, keys):
            sample_and_score(spec, rng_for_address(s, i, a))

    def construct():
        for family, args in inp.specs:
            family(*args)

    n_entries = sum(len(e) for e in inp.entry_lists)
    record_times, weight_times = [], []
    for _ in range(MICRO_REPEATS):
        traces = [wi.Trace() for _ in inp.entry_lists]
        t0 = pc()
        for tr, entries in zip(traces, inp.entry_lists):
            for entry in entries:
                tr.record(entry)
        t1 = pc()
        for tr in traces:
            tr.log_weight
        t2 = pc()
        record_times.append(t1 - t0)
        weight_times.append(t2 - t1)
    n_traces = max(len(inp.entry_lists), 1)
    return {
        "rng.uniform_us": _per_call_us(uniform, len(keys)),
        "rng.normal_us": _per_call_us(normal, len(keys)),
        "dists.bernoulli_sample_and_score_us": _per_call_us(bernoulli_ss, len(keys)),
        "dists.normal_sample_and_score_us": _per_call_us(normal_ss, len(keys)),
        "dists.construct_us": _per_call_us(construct, len(inp.specs)),
        "trace.record_us": statistics.median(record_times) / max(n_entries, 1) * 1e6,
        "trace.log_weight_us": statistics.median(weight_times) / n_traces * 1e6,
    }
