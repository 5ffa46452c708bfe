"""The benchmark's three workloads.

Each workload turns the seed into a list of cases (setup), answers one
case per query through whatif's public API, and checks the answer.
Setup is the only place inputs are made; the library sees nothing but
the generated cases.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import partial

import numpy as np

from tracing import KEEP_TRACES, LayerInputs, Run, infer, infer_traced, same_bits, span_call

# An estimate may sit this many Monte Carlo standard errors from its
# reference before the query counts as failed.
Z_MAX = 5.0
MAX_KEYS = 4000


def _gauss_program(ctx, y_obs: float, z_star: float):
    """X, Z ~ N(0,1); Y = X + Z + N(0, 2) observed; do(Z = z_star) in the twin world."""
    x = ctx.normal(0, 1, name="X")
    z = ctx.normal(0, 1, name="Z")
    y = ctx.observable_normal(x.value + z.value, 2, name="Y", depends_on=[x, z])
    ctx.observe(y, y_obs)
    ctx.do(z, z_star, kind="cf")
    ctx.predict(y.value, label="Y", counterfactual=True)


def _mc_se(run: Run, label: str) -> float:
    """Delta-method standard error of a self-normalised estimate."""
    lw = run.result.log_weights
    w = np.exp(lw - lw[np.isfinite(lw)].max())
    w /= w.sum()
    x = np.array([float(p[label]) for p in run.result.predictions])
    return math.sqrt(float((w * w * (x - run.estimate) ** 2).sum()))


def _check_runs(runs, n: int) -> list[str]:
    bad = []
    for run in runs:
        if run.executions != 2 * n + 1:
            bad.append(f"{run.executions} program executions, expected 2N+1 = {2 * n + 1}")
        if run.result.degenerate:
            bad.append("degenerate posterior")
    return bad


def _kept_inputs(runs_by_case, bernoulli_p, normal_params, specs_for) -> LayerInputs:
    """Layer inputs from the abducted traces kept by traced runs."""
    keys, entry_lists, specs = [], [], []
    for case, runs in runs_by_case:
        for run in runs:
            for i, trace in run.kept:
                if len(entry_lists) < KEEP_TRACES:
                    entry_lists.append(list(trace.entries.values()))
                    specs.extend(specs_for(case, trace))
                keys.extend((case.run_seed, i, a) for a in trace.entries)
    return LayerInputs(keys[:MAX_KEYS], bernoulli_p, normal_params, specs, entry_lists)


# -- gauss_cf ----------------------------------------------------------------


@dataclass
class GaussCase:
    y_obs: float
    z_star: float
    run_seed: int
    program: object

    @property
    def reference(self) -> float:
        # E[X + eps | Y = y] = 5y/6 for X, Z ~ N(0, 1), eps ~ N(0, 2).
        return 5.0 * self.y_obs / 6.0 + self.z_star


class GaussCF:
    """The paper's worked Gaussian counterfactual, y and z* drawn per query.

    Four entries per trace, so fixed per-execution costs dominate
    (context, Trace, address counter, fsum); never touches the oracle.
    """

    name = "gauss_cf"
    speed_kernel = "python"

    def __init__(self, tiny: bool):
        self.sizes = {"queries": 4 if tiny else 100, "samples": 20 if tiny else 1000}

    def setup(self, wi, seed: int, tr=None) -> list:
        rnd = random.Random(seed)
        cases = []
        for _ in range(self.sizes["queries"]):
            y = rnd.gauss(0.0, math.sqrt(6.0))  # the marginal of Y
            z = rnd.gauss(0.0, 1.0)
            program = partial(_gauss_program, y_obs=y, z_star=z)
            cases.append(GaussCase(y, z, rnd.getrandbits(63), program))
        return cases

    def query(self, wi, case):
        return (infer(wi, case.program, self.sizes["samples"], case.run_seed),)

    def query_traced(self, wi, case, tr, parent, qid, keep):
        n = self.sizes["samples"]
        return (infer_traced(wi, case.program, n, case.run_seed, tr, parent, qid, keep),)

    def check(self, case, answer) -> list[str]:
        (run,) = answer
        bad = _check_runs(answer, self.sizes["samples"])
        se = _mc_se(run, "Y")
        if not abs(run.estimate - case.reference) <= Z_MAX * se:
            bad.append(
                f"estimate {run.estimate!r} is {abs(run.estimate - case.reference):.3g} "
                f"from the closed form {case.reference!r} (MC s.e. {se:.3g})"
            )
        return bad

    def abs_err(self, case, answer) -> float:
        return abs(answer[0].estimate - case.reference)

    def layer_inputs(self, wi, cases, answers) -> LayerInputs:
        def specs_for(case, trace):
            mean = trace["X"].value + trace["Z"].value
            return [(wi.Normal, (0.0, 1.0)), (wi.Normal, (0.0, 1.0)),
                    (wi.ObservableNormal, (mean, 2.0))]

        return _kept_inputs(zip(cases, answers), [0.5], [(0.0, 1.0), (0.0, 2.0)], specs_for)


# -- scm_cf --------------------------------------------------------------------


@dataclass
class ScmCase:
    scm: object
    query: object
    run_seed: int
    exact: float
    eager: object = None
    lazy: object = None


def _generate(wi, seed: int, index: int, n_blocks: int):
    """One (model, query) pair as `whatif bench` draws it."""
    attempt = 0
    while True:
        gen = random.Random(wi.derive_seed(seed, index, attempt))
        scm = wi.generate_scm(gen, n_blocks=n_blocks)
        try:
            return scm, wi.generate_query(gen, scm)
        except wi.DegenerateGraphError:
            attempt += 1


def _exact(wi, scm, query) -> float:
    d, d_value = query.intervention
    return wi.exact_counterfactual(scm, dict(query.evidence), {d: d_value}, query.target)


def _model_params(scm):
    return [n.p if n.kind == "prior" else n.q for n in scm.nodes]


def _model_specs(wi, scm):
    return [
        (wi.Bernoulli, (n.p,)) if n.kind == "prior" else (wi.ObservableBernoulli, (False, n.q))
        for n in scm.nodes
    ]


class ScmCF:
    """Random 12-block binary SCM counterfactuals, eager and lazy as one query.

    The paper's benchmark class: ~22 Bernoulli / flip-noise entries per
    trace, so per-choice dispatch dominates; the lazy program exercises
    the value_if_needed memo path.
    """

    name = "scm_cf"
    speed_kernel = "python"

    def __init__(self, tiny: bool):
        self.sizes = {"queries": 4 if tiny else 100, "samples": 20 if tiny else 200,
                      "blocks": 6 if tiny else 12}

    def setup(self, wi, seed: int, tr=None) -> list:
        n, blocks = self.sizes["samples"], self.sizes["blocks"]
        cases = []
        for i in range(self.sizes["queries"]):
            scm, query = span_call(tr, "scm.generate", -1, i, _generate, wi, seed, i, blocks)
            exact = span_call(tr, "oracle.exact", -1, i, _exact, wi, scm, query)
            case = ScmCase(scm, query, wi.derive_seed(seed, i, n), exact)
            case.eager = span_call(tr, "scm.build_program", -1, i, wi.build_program, scm, query, "eager")
            case.lazy = span_call(tr, "scm.build_program", -1, i, wi.build_program, scm, query, "lazy")
            cases.append(case)
        return cases

    def query(self, wi, case):
        n = self.sizes["samples"]
        return infer(wi, case.eager, n, case.run_seed), infer(wi, case.lazy, n, case.run_seed)

    def query_traced(self, wi, case, tr, parent, qid, keep):
        n = self.sizes["samples"]
        return (infer_traced(wi, case.eager, n, case.run_seed, tr, parent, qid, keep),
                infer_traced(wi, case.lazy, n, case.run_seed, tr, parent, qid, keep))

    def check(self, case, answer) -> list[str]:
        eager, lazy = answer
        bad = _check_runs(answer, self.sizes["samples"])
        if not same_bits(eager, lazy):
            bad.append(f"eager {eager.estimate!r} and lazy {lazy.estimate!r} differ in bits")
        p = case.exact
        se = math.sqrt(p * (1.0 - p) / eager.ess) if eager.ess > 0 else math.inf
        if not abs(eager.estimate - p) <= Z_MAX * se:
            bad.append(f"estimate {eager.estimate!r} vs oracle {p!r} (MC s.e. {se:.3g})")
        return bad

    def abs_err(self, case, answer) -> float:
        return abs(answer[0].estimate - case.exact)

    def layer_inputs(self, wi, cases, answers) -> LayerInputs:
        params = [p for case in cases for p in _model_params(case.scm)]
        return _kept_inputs(zip(cases, answers), params, [(0.0, 1.0)],
                            lambda case, trace: _model_specs(wi, case.scm))


# -- oracle_exact ----------------------------------------------------------------


@dataclass
class OracleCase:
    scm: object
    query: object
    seed: int


class OracleExact:
    """exact_counterfactual on 18-node models: 2^18 worlds in 4 chunks.

    Numpy enumeration that bypasses rng, dists, trace and engine: the
    no-change control for every sampling optimisation.
    """

    name = "oracle_exact"
    speed_kernel = "numpy"

    def __init__(self, tiny: bool):
        self.sizes = {"queries": 4 if tiny else 100, "nodes": 8 if tiny else 18}

    def setup(self, wi, seed: int, tr=None) -> list:
        m = self.sizes["nodes"]
        return [
            OracleCase(*span_call(tr, "scm.generate", -1, i, _generate, wi, seed, i, m), seed)
            for i in range(self.sizes["queries"])
        ]

    def query(self, wi, case):
        return (_exact(wi, case.scm, case.query),)

    def query_traced(self, wi, case, tr, parent, qid, keep):
        return (span_call(tr, "oracle.exact", parent, qid, _exact, wi, case.scm, case.query),)

    def check(self, case, answer) -> list[str]:
        (p,) = answer
        return [] if 0.0 <= p <= 1.0 else [f"oracle answer {p!r} is not a probability"]

    def abs_err(self, case, answer):
        return None

    def layer_inputs(self, wi, cases, answers) -> LayerInputs:
        """The triples and entries a prior sample of each model would have."""
        from whatif.dists import sample_and_score
        from whatif.rng import rng_for_address

        keys, entry_lists, params, specs = [], [], [], []
        for case in cases:
            addrs = [n.id if n.kind == "prior" else n.id + "::noise" for n in case.scm.nodes]
            probs = _model_params(case.scm)
            params.extend(probs)
            specs.extend(_model_specs(wi, case.scm))
            for k in range(4):
                entries = []
                for a, p in zip(addrs, probs):
                    v, lp, lq = sample_and_score(wi.Bernoulli(p), rng_for_address(case.seed, k, a))
                    entries.append(wi.TraceEntry(a, v, lp, lq, "latent"))
                    keys.append((case.seed, k, a))
                entry_lists.append(entries)
        return LayerInputs(keys[:MAX_KEYS], params, [(0.0, 1.0)], specs,
                           entry_lists[:KEEP_TRACES])


WORKLOADS = {w.name: w for w in (GaussCF, ScmCF, OracleExact)}


def answer_bits(answer) -> bytes:
    """The answer's estimates as little-endian float64 bytes, for the digest."""
    vals = [a.estimate if isinstance(a, Run) else a for a in answer]
    return np.asarray(vals, dtype="<f8").tobytes()


def answer_work(answer) -> tuple[int, float]:
    """(abduction samples, summed ESS) behind one answer."""
    runs = [a for a in answer if isinstance(a, Run)]
    return sum(r.result.n_samples for r in runs), sum(r.ess for r in runs)
