"""Command line front end.

Two subcommands: `run` answers a single query on a model file, `bench`
regenerates the random-model convergence study and writes a CSV.  Both
are importable (`cmd_run`, `cmd_bench`) so tests can drive them without
a subprocess.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import sys
import time
from dataclasses import astuple, dataclass, fields

import numpy as np

from .engine import IV, NOISE_SUFFIX, ess, estimate_expectation, process_pool, run_inference
from .errors import ImpossibleEvidenceError
from .oracle import MAX_NODES, check_bound, exact_counterfactual, exact_interventional
from .scm import (
    BenchQuery,
    build_program,
    check_query,
    derive_seed,
    generate_case,
    load_model,
    load_query,
)


@dataclass(frozen=True)
class BenchRow:
    model_id: str
    n_samples: int
    engine: str
    estimate: float
    exact_value: float
    abs_error: float
    ess: float
    n_rejected: int
    wall_seconds: float
    seed: int


BENCH_COLUMNS = tuple(f.name for f in fields(BenchRow))


def _answer(scm, query: BenchQuery, engine: str, n: int, seed: int,
            workers: int = 1, keep_traces: bool = False):
    """Answer one query with one engine: (answer, traces).

    answer holds the `whatif run` keys from estimate to n_samples; its
    estimate is None on a degenerate posterior (evidence of probability
    zero for the exact engine, every sample rejected for a sampled one).
    traces are the kept sample traces, or None.
    """
    if engine == "exact":
        d, d_value = query.intervention
        exact = exact_interventional if query.kind == IV else exact_counterfactual
        t0 = time.perf_counter()
        try:
            estimate = exact(scm, dict(query.evidence), {d: d_value}, query.target)
        except ImpossibleEvidenceError:
            estimate = None
        wall = time.perf_counter() - t0
        return {"estimate": estimate, "ess": 0.0, "n_rejected": 0,
                "wall_seconds": wall, "n_samples": 0}, None
    program = build_program(scm, query, style=engine)
    result = run_inference(program, n, seed=seed, workers=workers, keep_traces=keep_traces)
    answer = {
        "estimate": None if result.degenerate else estimate_expectation(result),
        "ess": ess(result.log_weights),
        "n_rejected": result.n_rejected,
        "wall_seconds": result.wall_seconds,
        "n_samples": result.n_samples,
    }
    return answer, result.traces


def _choices(trace) -> dict:
    """Values by address; an observable's noise goes first, as <addr>::noise."""
    out = {}
    for addr, entry in trace.entries.items():
        if entry.noise is not None:
            out[addr + NOISE_SUFFIX] = entry.noise
        out[addr] = entry.value
    return out


def _dump_traces(traces, fh) -> None:
    for i, (abducted, replay) in enumerate(traces):
        record = {
            "sample_index": i,
            "log_weight": abducted.log_weight,
            "choices": _choices(abducted),
        }
        if replay is not None:
            record["replay_choices"] = _choices(replay)
        fh.write(json.dumps(record) + "\n")


def cmd_run(args: argparse.Namespace) -> int:
    if args.engine == "exact" and args.dump_traces:
        print("whatif run: error: argument --dump-traces: not allowed with "
              "--engine exact, which samples no traces", file=sys.stderr)
        return 2
    try:
        scm = load_model(args.model)
        query = load_query(args.query)
        check_query(scm, query)
        if args.engine == "exact":
            check_bound(scm)
        # Opened before inference, so a bad path fails before any work.
        dump = open(args.dump_traces, "w", encoding="utf-8") if args.dump_traces else None
    except (OSError, ValueError) as exc:
        print(str(exc), file=sys.stderr)
        return 1

    with dump or contextlib.nullcontext():
        answer, traces = _answer(scm, query, args.engine, args.samples, args.seed,
                                 args.workers, keep_traces=dump is not None)
        if dump is not None:
            _dump_traces(traces, dump)
    if answer["estimate"] is None:
        print(f"degenerate posterior: the evidence {query.evidence} has zero weight",
              file=sys.stderr)
        return 2
    print(json.dumps({**answer, "seed": args.seed}))
    return 0


def _bench_model(job) -> list[BenchRow]:
    index, base_seed, n_blocks, budgets, timing = job
    scm, query = generate_case(base_seed, index, n_blocks)
    runs = [("exact", 0, base_seed)]
    runs += [(style, n, derive_seed(base_seed, index, n))
             for style in ("eager", "lazy") for n in budgets]
    rows = []
    for engine, n, seed in runs:
        answer, _ = _answer(scm, query, engine, n, seed)
        if engine == "exact":
            exact_value = answer["estimate"]
        if not timing:
            answer["wall_seconds"] = 0.0
        rows.append(
            BenchRow(
                model_id=f"m{index:03d}",
                engine=engine,
                exact_value=exact_value,
                abs_error=abs(answer["estimate"] - exact_value),
                seed=seed,
                **answer,
            )
        )
    return rows


def write_bench_csv(rows: list[BenchRow], fh) -> None:
    ordered = sorted(rows, key=lambda r: (r.model_id, r.engine, r.n_samples))
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(BENCH_COLUMNS)
    for row in ordered:
        writer.writerow(astuple(row))


def summarize(rows: list[BenchRow]) -> list[tuple[str, int, float, float, float]]:
    """Mean and 10th/90th percentile absolute error per engine and budget."""
    groups: dict[tuple[str, int], list[float]] = {}
    for row in rows:
        if row.engine == "exact":
            continue
        groups.setdefault((row.engine, row.n_samples), []).append(row.abs_error)
    out = []
    for (engine, n), errs in sorted(groups.items()):
        arr = np.asarray(errs)
        out.append(
            (
                engine,
                n,
                float(arr.mean()),
                float(np.percentile(arr, 10)),
                float(np.percentile(arr, 90)),
            )
        )
    return out


def cmd_bench(args: argparse.Namespace) -> int:
    timing = not args.no_timing
    try:
        # Opened before the study runs, so a bad path fails before any work.
        out = open(args.out, "w", encoding="utf-8", newline="")
    except OSError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    jobs = [
        (i, args.seed, args.blocks, args.samples, timing) for i in range(args.models)
    ]
    rows: list[BenchRow] = []
    workers = min(args.workers, args.models)
    with out:
        if workers > 1:
            with process_pool(workers) as pool:
                for chunk in pool.map(_bench_model, jobs):
                    rows.extend(chunk)
        else:
            for job in jobs:
                rows.extend(_bench_model(job))
        write_bench_csv(rows, out)
    for engine, n, mean, p10, p90 in summarize(rows):
        print(
            f"{engine} n={n}: mean abs error {mean:.5f} "
            f"(p10 {p10:.5f}, p90 {p90:.5f})"
        )
    return 0


def _at_least(low: int):
    """argparse type: an integer no smaller than low."""

    def parse(text: str) -> int:
        try:
            n = int(text)
        except ValueError:
            n = low - 1
        if n < low:
            raise argparse.ArgumentTypeError(f"expected an integer >= {low}, got {text!r}")
        return n

    return parse


def _block_count(text: str) -> int:
    """argparse type for --blocks: at least 3, as the first two nodes are never
    targets, and at most the exact engine's bound, as every model gets an exact answer."""
    n = _at_least(3)(text)
    if n > MAX_NODES:
        raise argparse.ArgumentTypeError(
            f"expected at most {MAX_NODES}, the exact engine's node bound, got {text!r}"
        )
    return n


def _sample_budgets(text: str) -> tuple[int, ...]:
    return tuple(_at_least(1)(s) for s in text.split(","))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="whatif",
        description="Interventional and counterfactual queries on generative models",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="answer one query on a model file")
    run.add_argument("--model", required=True, help="model JSON path")
    run.add_argument("--query", required=True, help="query JSON path")
    run.add_argument("--samples", type=_at_least(1), default=1000)
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--workers", type=_at_least(1), default=1)
    run.add_argument(
        "--engine", choices=("eager", "lazy", "exact"), default="eager"
    )
    run.add_argument("--dump-traces", help="write sampled traces as JSONL")
    run.set_defaults(func=cmd_run)

    bench = sub.add_parser("bench", help="random-model convergence study")
    bench.add_argument("--models", type=_at_least(1), default=50)
    bench.add_argument("--blocks", type=_block_count, default=12)
    bench.add_argument("--samples", type=_sample_budgets, default="100,1000,5000")
    bench.add_argument("--seed", type=int, default=0)
    bench.add_argument("--workers", type=_at_least(1), default=1)
    bench.add_argument("--out", required=True, help="output CSV path")
    bench.add_argument(
        "--no-timing",
        action="store_true",
        help="zero the wall_seconds column for reproducible output",
    )
    bench.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
