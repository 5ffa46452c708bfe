"""Inference engine for observational, interventional, and counterfactual queries.

A program is a callable taking an execution context.  It instantiates
random procedures, declares parents via explicit depends_on lists, and
issues observe / do / predict statements.  Its handle to a procedure is
the TraceEntry the context recorded for it (address, realized value), so
a choice is one object and one entry: an observable's entry also carries
its explicit noise.  The trace keyed by address is the only address
registry and the memo of value_if_needed.
Every procedure goes through one positional entry point,
ExecutionContext._choose(spec, name, parents, proposal), whose parents
is a tuple of addresses: sample and the family constructors resolve
their depends_on handles to it.  _choose hands the procedure to the
handler of the current phase:

  discovery   one execution that records the query structure: which
              addresses are observed or intervened, the predict labels,
              and the declared dependency edges.
  abduction   N importance-sampling executions of the posterior given
              the evidence.  Observable procedures absorb their
              observation through their family's absorb(); do(..., "cf")
              interventions are ignored here, do(..., "iv") are forced.
  replay      for counterfactual queries, each abducted trace is run
              once more with interventions forced.  Replay decides which
              choices are downstream of a cf intervention per execution,
              from the depends_on parents each choice declares, not from
              the discovery execution.  Choices that are not downstream
              keep their abducted values bitwise, deterministic ones
              downstream are recomputed, observable ones downstream rerun
              output() under the abducted noise, and log-weights carry
              over unchanged.

The engine tells families apart only by the kind and raws each family
class declares (see dists); a spec whose class declares no kind raises
EngineError where it is first drawn.

So a counterfactual query costs 2N + 1 program executions, anything
else N + 1.  Every random draw comes from a stream keyed by (seed,
sample_index, address), which makes results independent of evaluation
order and of how samples are split across workers.  Worker processes
are forked where the platform allows, so a closure works as a program.

run_inference keys its samples BLOCK at a time: one rng.key_block pass
computes each sample's key and the first raw draws of every stream that
abduction draws a family with raws 1 or 2 from, at an address discovery
saw with no evidence or iv do there.  rng.block_inputs converts those
raws to doubles once per block, numpy doing the exact integer and
power-of-two steps and math.* the logs and cosines, since np.log rounds
some differently.  Such a choice reads its inputs from its sample's row
by index, with no stream built, and an observable of such a family
absorbs its evidence without one.  Every stream is started by
keyed_stream, which gives the same bits: a family with raws 0 (Beta,
ObservableNoisyOr), a choice whose family differs from the one discovery
saw at its address, a branch discovery never took, replay's @cf redraws,
and the one execution that discover, abduction_sample and
counterfactual_replay each run.

What abduction does at an address (force it, absorb evidence, draw from
the block's inputs at slot i, or draw from a stream) depends only on the
plan, the block's layout and the family, so each chunk of samples works
it out once per address discovery saw, with _abduction_action, the one
rule, and keeps the answers in an action table keyed by address.  A choice
whose family matches the table's costs one lookup there; any other
choice (an address discovery never saw, another family at the address,
every choice of a single execution) asks the rule again.  Replay carries
a choice that no do forces and no tainted parent reaches over from the
abducted trace: it stores the abducted entry itself, with one dict write,
unless the choice now declares other parents, which get an entry of
their own.  So a handle is read-only: a carried one is shared by both
traces.  A chunk builds one abduction and one replay
context and rearms them for each sample (ExecutionContext._run), so a
context is valid only during the call it is passed to.  A replay trace
starts holding the abducted log-weight as its one term; a rejected
sample is never replayed.  run_inference counts the executions of each
phase and times them (InferenceResult.executions and .phase_seconds).
"""

from __future__ import annotations

import math
import multiprocessing
import numbers
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .dists import (
    OBSERVABLE,
    PLAIN,
    POINT_MASS,
    Beta,
    Bernoulli,
    Delta,
    Normal,
    ObservableBernoulli,
    ObservableNormal,
    ObservableNoisyOr,
    Uniform,
    sample_and_score,
    score_inputs,
)
from .errors import (
    AddressCollisionError,
    EngineError,
    NoSurvivingSamplesError,
    UnobservableProcedureError,
    StaleTraceError,
)
from .rng import block_inputs, key_block, keyed_stream, sample_key
from .trace import (
    INTERVENED,
    LATENT,
    OBSERVED,
    Address,
    Trace,
    TraceEntry,
    Value,
    latent_term,
)

DISCOVERY, ABDUCTION, REPLAY = 0, 1, 2

CF = "cf"
IV = "iv"

NOISE_SUFFIX = "::noise"
REPLAY_STREAM_SUFFIX = "@cf"

# Samples keyed together by one rng.key_block pass in _run_chunk.
BLOCK = 128
_NO_SLOTS: dict[str, int] = {}
_NO_ACTIONS: dict[str, tuple] = {}
_NEG_INF = float("-inf")


@dataclass(slots=True)
class Intervention:
    value: Value
    kind: str  # CF or IV


@dataclass
class QueryPlan:
    """Query structure extracted by the discovery pass."""

    observed: dict[Address, Value] = field(default_factory=dict)
    interventions: dict[Address, Intervention] = field(default_factory=dict)
    predicts: list[tuple[str, bool]] = field(default_factory=list)
    parents: dict[Address, tuple[Address, ...]] = field(default_factory=dict)
    families: dict[Address, type] = field(default_factory=dict)

    @property
    def needs_replay(self) -> bool:
        """True when a cf intervention calls for a replay execution."""
        return any(iv.kind == CF for iv in self.interventions.values())


Choice = TraceEntry  # a program's handle to a choice is its trace entry


def descendant_closure(
    parents: dict[Address, tuple[Address, ...]], roots
) -> frozenset[Address]:
    """All strict descendants of the roots under the declared edges."""
    children: dict[Address, list[Address]] = {}
    for child, pars in parents.items():
        for p in pars:
            children.setdefault(p, []).append(child)
    out: set[Address] = set()
    frontier = list(roots)
    while frontier:
        node = frontier.pop()
        for c in children.get(node, ()):
            if c not in out:
                out.add(c)
                frontier.append(c)
    return frozenset(out)


class ExecutionContext:
    """A phase's program executions: issues addresses, records a trace per execution.

    Programs should treat this as their sole source of randomness and
    side effects; the same program must request the same addresses in
    every execution, except where an intervention changes control flow.
    """

    __slots__ = (
        "phase",
        "plan",
        "trace",
        "abducted",
        "_key",
        "_inputs",
        "_actions",
        "_auto",
        "_tainted",
        "_pred_i",
        "_forces",
    )

    def __init__(self, phase: int, plan: QueryPlan, actions: dict[Address, tuple] = _NO_ACTIONS):
        self.phase = phase
        self.plan = plan
        # addr -> _abduction_action's answer for the family discovery saw there
        self._actions = actions
        # the addresses a do forces in this phase: iv dos in abduction, every do in replay
        self._forces = frozenset(a for a, iv in plan.interventions.items()
                                 if phase == REPLAY or (phase == ABDUCTION and iv.kind == IV))
        self.trace = self.abducted = self._inputs = self._tainted = None
        self._key = self._auto = self._pred_i = 0

    def _run(self, program, key: int, inputs: list | None = None,
             abducted: Trace | None = None, log_weight: float = 0.0) -> Trace:
        """Rearm the context for one execution of program and return its trace.

        One context per phase serves a whole chunk of samples.  Rearming
        gives it a fresh trace, the sample's key, its row of the key
        block's converted inputs and zeroed counters; a replay also gets a
        fresh taint set and the abducted trace, and its trace starts at
        log_weight, the abducted weight, as its one term (replay adds no
        non-zero term, and fsum([w]) == w).
        """
        self.trace = trace = Trace()
        self._key = key
        self._inputs = inputs
        self._auto = self._pred_i = 0
        if abducted is not None:
            self.abducted = abducted
            self._tainted = set()
            trace.terms.append(log_weight)
        program(self)
        if self.phase == ABDUCTION and self._pred_i < len(self.plan.predicts):
            # replay may skip a predict, as a cf do can change control flow
            raise StaleTraceError(
                f"stale trace: predict {self.plan.predicts[self._pred_i][0]!r} "
                "recorded during discovery was not issued"
            )
        return trace

    # -- procedure constructors -------------------------------------------

    def sample(self, spec, *, name=None, depends_on=(), proposal=None) -> Choice:
        """Instantiate a procedure from an explicit distribution spec.

        Unnamed procedures get "auto:<k>", k counting only unnamed ones;
        reusing an address is a collision, caught when it is recorded.
        Only plain families draw their value, so only they take a proposal.
        """
        parents = self._addresses(name, depends_on) if depends_on else ()
        return self._choose(spec, name, parents, proposal)

    def normal(self, mean, std, *, name=None, depends_on=()) -> Choice:
        parents = self._addresses(name, depends_on) if depends_on else ()
        return self._choose(Normal(mean, std), name, parents, None)

    def bernoulli(self, p, *, name=None, depends_on=()) -> Choice:
        parents = self._addresses(name, depends_on) if depends_on else ()
        return self._choose(Bernoulli(p), name, parents, None)

    def uniform(self, lo, hi, *, name=None, depends_on=()) -> Choice:
        parents = self._addresses(name, depends_on) if depends_on else ()
        return self._choose(Uniform(lo, hi), name, parents, None)

    def beta(self, a, b, *, name=None, depends_on=()) -> Choice:
        parents = self._addresses(name, depends_on) if depends_on else ()
        return self._choose(Beta(a, b), name, parents, None)

    def delta(self, value, *, name=None, depends_on=()) -> Choice:
        parents = self._addresses(name, depends_on) if depends_on else ()
        return self._choose(Delta(value), name, parents, None)

    def observable_normal(self, mean, noise_std, *, name=None, depends_on=()) -> Choice:
        parents = self._addresses(name, depends_on) if depends_on else ()
        return self._choose(ObservableNormal(mean, noise_std), name, parents, None)

    def observable_bernoulli(
        self, f_value, flip_prob, *, name=None, depends_on=()
    ) -> Choice:
        parents = self._addresses(name, depends_on) if depends_on else ()
        return self._choose(ObservableBernoulli(bool(f_value), flip_prob), name, parents, None)

    def observable_noisy_or(
        self, lambda0, lambdas, parent_states, *, name=None, depends_on=()
    ) -> Choice:
        parents = self._addresses(name, depends_on) if depends_on else ()
        spec = ObservableNoisyOr(lambda0, lambdas, parent_states)
        return self._choose(spec, name, parents, None)

    def _addresses(self, name, depends_on) -> tuple[Address, ...]:
        """The addresses of depends_on; a misuse names the address _choose will give."""
        try:
            return tuple([c.address for c in depends_on])
        except (AttributeError, TypeError):
            addr = f"auto:{self._auto}" if name is None else name
            raise EngineError(
                f"depends_on of {addr!r} must be a list of the choice handles "
                f"it depends on, got {depends_on!r}"
            ) from None

    def _choose(self, spec, name, parents, proposal) -> Choice:
        """The one entry of every choice, by position; parents is a tuple of addresses,
        which sample and the constructors resolve from their depends_on handles."""
        if name is None:
            addr = f"auto:{self._auto}"
            self._auto += 1
        else:
            addr = name
        if proposal is not None and getattr(spec, "kind", None) != PLAIN:
            raise EngineError(f"{type(spec).__name__} at {addr!r} takes no proposal")
        phase = self.phase
        if phase == ABDUCTION:
            act = self._actions.get(addr)
            if act is None or act[0] is not type(spec):
                return self._abduct(addr, spec, parents, proposal)
            return act[1](self, addr, spec, parents, proposal, act[2])
        if phase == REPLAY:
            iv = self.plan.interventions.get(addr)
            if iv is not None:
                return self._forced(addr, parents, iv)  # replay forces both kinds
            tainted = self._tainted
            prev = self.abducted.entries.get(addr)
            if prev is not None and (not tainted or tainted.isdisjoint(parents)):
                # Not downstream of a cf intervention: the abducted world carries
                # over, as the abducted entry itself where it declared these parents.
                if parents == prev.parents:
                    entries = self.trace.entries
                    if addr in entries:
                        raise AddressCollisionError(
                            f"address collision: {addr!r} already recorded")
                    entries[addr] = prev
                    return prev
                return self._record(addr, prev.value, 0.0, 0.0, prev.role, parents, prev.noise)
            return self._replay(addr, spec, parents, prev)
        self.plan.parents[addr] = parents
        self.plan.families[addr] = type(spec)
        return self._forward(addr, spec, parents, proposal)

    # -- phase-specific instantiation -------------------------------------

    def _record(self, addr, value, lp, lq, role, parents, noise=None, term=0.0) -> TraceEntry:
        """Insert the entry and add its weight term in one step.

        The caller, which knows the role, passes trace.entry_contribution
        of the entry as term (trace.latent_term for a drawn latent).  fsum
        ignores zeros (either sign), so a zero term is skipped and every
        weight keeps its bits; NaN is non-zero and raises.
        """
        trace = self.trace
        if addr in trace.entries:
            raise AddressCollisionError(f"address collision: {addr!r} already recorded")
        entry = trace.entries[addr] = TraceEntry(addr, value, lp, lq, role, parents, noise)
        if term != 0.0:
            if term != term:
                trace.accumulate(term)  # NaN: raises InvalidWeightError
            trace.terms.append(term)
        return entry

    def _forward(self, addr, spec, parents, proposal=None, suffix="") -> Choice:
        """Sample from the prior or proposal with no evidence applied.

        The draw comes from a keyed stream; a choice abduction draws from
        the key block's converted inputs goes through _draw or _draw_noise
        instead.  Replay passes REPLAY_STREAM_SUFFIX to redraw on a stream
        of its own, independent of the abducted draws at the same address.
        """
        kind = getattr(spec, "kind", None)
        if kind == POINT_MASS:
            return self._record(addr, spec.value, 0.0, 0.0, LATENT, parents)
        if kind == PLAIN:
            stream = keyed_stream(self._key, addr + suffix)
            value, lp, lq = sample_and_score(spec, stream, proposal)
            return self._record(addr, value, lp, lq, LATENT, parents, None, latent_term(lp, lq))
        if kind != OBSERVABLE:
            raise EngineError(
                f"{type(spec).__name__} at {addr!r} is not a family: its class must "
                "declare kind dists.PLAIN, dists.OBSERVABLE or dists.POINT_MASS"
            )
        noise = spec.sample_noise(keyed_stream(self._key, addr + NOISE_SUFFIX + suffix))
        return self._record(addr, spec.output(noise), 0.0, 0.0, LATENT, parents, noise)

    def _draw(self, addr, spec, parents, proposal, i) -> Choice:
        """A plain choice with raws > 0 drawn from the sample's block inputs at slot i."""
        value, lp, lq = score_inputs(spec, self._inputs, i, proposal)
        return self._record(addr, value, lp, lq, LATENT, parents, None, latent_term(lp, lq))

    def _draw_noise(self, addr, spec, parents, proposal, i) -> Choice:
        """An observable choice with raws > 0, its noise drawn from block inputs at slot i."""
        noise = spec.draw_noise_from(self._inputs, i)
        return self._record(addr, spec.output(noise), 0.0, 0.0, LATENT, parents, noise)

    def _intervened(self, addr, spec, parents, proposal, value) -> Choice:
        """addr forced to value by an iv do in abduction."""
        return self._record(addr, value, 0.0, 0.0, INTERVENED, parents)

    def _forced(self, addr, parents, iv: Intervention) -> Choice:
        """The intervened entry of addr, forced by the do iv; a cf do taints addr."""
        if iv.kind == CF:
            self._tainted.add(addr)
        return self._record(addr, iv.value, 0.0, 0.0, INTERVENED, parents)

    def _abduct(self, addr, spec, parents, proposal) -> Choice:
        """Abduction at an address the execution's action table does not answer.

        That is an address discovery never saw, another family than
        discovery saw there, or any address of a single execution.  None
        of them reads the block's inputs, which were converted for
        discovery's families: each draws from a keyed stream.
        """
        _, act, arg = _abduction_action(self.plan, _NO_SLOTS, addr, type(spec))
        return act(self, addr, spec, parents, proposal, arg)

    def _absorb(self, addr, spec, parents, proposal, observed) -> Choice:
        """Condition the procedure at addr on its observed value.

        Observable families pin their noise to the observation and score
        it by the prior-to-proposal ratio of the forced noise assignment;
        the one observed entry carries both the ratio and the noise.  Only
        a family with raws 0 draws while absorbing, so only it gets a
        stream.
        """
        kind = getattr(spec, "kind", None)
        if kind == POINT_MASS:
            loglik = spec.log_density(observed)
            return self._record(addr, spec.value, loglik, 0.0, OBSERVED, parents, None, loglik)
        if kind != OBSERVABLE:
            raise UnobservableProcedureError(
                f"unobservable procedure: cannot absorb evidence at {addr!r} "
                f"({type(spec).__name__} has implicit randomness)"
            )
        stream = None if spec.raws else keyed_stream(self._key, addr + NOISE_SUFFIX)
        value, noise, log_q = spec.absorb(observed, stream)
        loglik = spec.noise_log_prior(noise) - log_q
        return self._record(addr, value, loglik, log_q, OBSERVED, parents, noise, loglik)

    def _replay(self, addr, spec, parents, prev) -> Choice:
        """Rerun one choice that is downstream of a cf intervention.

        A choice is downstream, "tainted", when it is cf-forced, falls
        back to its prior, or declares a tainted parent.  Programs create
        parents before children, so this per-execution taint is exact
        even where control flow differs from the discovery execution.
        _choose forces or carries every other choice; prev is the
        abducted entry at addr, or None.
        """
        self._tainted.add(addr)
        if prev is None:
            # Control flow opened by an intervention: no abducted value
            # exists, so the choice falls back to its prior.
            if not self.plan.interventions:
                raise StaleTraceError(
                    f"stale trace: address {addr!r} missing from the abducted "
                    "trace with no intervention to explain it"
                )
            return self._forward(addr, spec, parents, suffix=REPLAY_STREAM_SUFFIX)
        if getattr(spec, "kind", None) == OBSERVABLE:
            noise = prev.noise
            return self._record(addr, spec.output(noise), 0.0, 0.0, LATENT, parents, noise)
        # A point mass is recomputed.  An implicit-noise procedure has no shared
        # noise to carry into the new world; it is redrawn from its prior.
        return self._forward(addr, spec, parents, suffix=REPLAY_STREAM_SUFFIX)

    # -- statements --------------------------------------------------------

    def observe(self, choice: Choice, value) -> None:
        """Condition the procedure behind choice on an observed value."""
        addr = choice.address
        plan = self.plan
        if self.phase == DISCOVERY:
            fam = plan.families.get(addr)
            if getattr(fam, "kind", None) not in (OBSERVABLE, POINT_MASS):
                raise UnobservableProcedureError(
                    f"unobservable procedure: cannot observe "
                    f"{getattr(fam, '__name__', fam)} at {addr!r}; "
                    "only observable and Delta procedures absorb evidence"
                )
            iv = plan.interventions.get(addr)
            if iv is not None and iv.kind == IV:  # a cf do forces addr only in replay
                raise EngineError(f"cannot observe intervened address {addr!r}")
            if addr in plan.observed:
                raise EngineError(f"duplicate observation at address {addr!r}")
            plan.observed[addr] = value
        elif self.phase == ABDUCTION:
            if addr not in plan.observed:
                raise StaleTraceError(
                    f"stale trace: observation at {addr!r} was not present "
                    "during discovery"
                )
        # Replay never absorbs evidence.

    def do(self, choice: Choice, value, kind: str = CF) -> None:
        """Force the value at choice's address.

        kind "cf" forces only in the replay phase (three-step
        counterfactual); kind "iv" forces in every phase, equivalent to
        editing the model.  Discovery records the do; abduction checks
        that it did, and replay forces from the plan alone.
        """
        kind = kind.lower() if isinstance(kind, str) else kind
        if kind not in (CF, IV):
            raise ValueError(f"intervention kind must be 'cf' or 'iv', got {kind!r}")
        plan = self.plan
        addr = choice.address
        if self.phase != DISCOVERY:
            if self.phase == ABDUCTION and addr not in plan.interventions:
                raise StaleTraceError(
                    f"stale trace: intervention at {addr!r} was not present during discovery"
                )
            return
        if addr in plan.interventions:
            raise EngineError(f"duplicate intervention at address {addr!r}")
        if kind == IV and addr in plan.observed:
            raise EngineError(
                f"cannot iv-intervene observed address {addr!r}; evidence on a "
                "surgically forced value has no effect"
            )
        plan.interventions[addr] = Intervention(value, kind)

    def predict(self, value, *, label: str | None = None, counterfactual: bool = True) -> None:
        """Register value under label in the result.

        counterfactual=True reports the value from the replay execution
        when one runs; otherwise the abduction-phase value is reported.
        Every abduction execution must issue the predicts discovery
        recorded, in order (_run checks that none is missing); a replay
        that skips one keeps the abduction value as its fallback.
        """
        plan = self.plan
        if self.phase == DISCOVERY:
            if label is None:
                label = f"predict:{len(plan.predicts)}"
            if any(label == lab for lab, _ in plan.predicts):
                raise EngineError(f"duplicate predict label {label!r}")
            plan.predicts.append((label, counterfactual))
            return
        i = self._pred_i
        self._pred_i = i + 1
        if i >= len(plan.predicts):
            raise StaleTraceError("predict statement not present during discovery")
        planned_label, planned_cf = plan.predicts[i]
        if label is not None and label != planned_label:
            raise StaleTraceError(
                f"predict label changed between executions: {label!r} vs "
                f"{planned_label!r}"
            )
        if self.phase == ABDUCTION:
            # Counterfactual labels recorded here are fallbacks; replay
            # overwrites them when it runs.
            self.trace.predictions.append((planned_label, value))
        elif planned_cf:
            self.trace.predictions.append((planned_label, value))

    # -- lazy evaluation gates ---------------------------------------------

    def value_if_needed(self, name: Address, thunk, *args) -> Choice:
        """Memoized access to the procedure at a known address.

        The memo is the trace itself: an address already recorded in this
        execution returns its entry without calling thunk(*args).

        For an address the current phase forces (in _forces) the forced
        value is recorded, with the parents discovery saw declared there,
        and the thunk never runs, so none of its ancestors are evaluated on
        its account.
        """
        got = self.trace.entries.get(name)
        if got is not None:
            return got
        if name in self._forces:
            plan = self.plan
            return self._forced(name, plan.parents.get(name, ()), plan.interventions[name])
        choice = thunk(*args)
        if not isinstance(choice, Choice) or choice.address != name:
            raise EngineError(
                f"value_if_needed thunk for {name!r} produced "
                f"{getattr(choice, 'address', choice)!r}"
            )
        return choice

    def observing(self) -> bool:
        """True in phases that absorb evidence (discovery, abduction)."""
        return self.phase != REPLAY

    def intervening(self) -> bool:
        """True only while interventions are being recorded (discovery)."""
        return self.phase == DISCOVERY


def _abduction_action(plan: QueryPlan, slots: dict[str, int], addr: Address,
                      fam: type) -> tuple:
    """What abduction does with a fam choice at addr: (fam, act, arg).

    The one rule for abduction.  _run_chunk caches its answer for every
    address discovery saw, with the family discovery saw there;
    _block_layout and ExecutionContext._abduct, where that table has none,
    ask it with no slots.  act(ctx, addr, spec, parents, proposal, arg)
    makes the entry: a do that forces addr records the do's value;
    evidence at addr is absorbed; a choice whose family declares raws > 0
    and whose stream has a slot in the block's inputs is drawn from them
    at slot arg; anything else is drawn forward from a stream.
    """
    iv = plan.interventions.get(addr)
    if iv is not None and iv.kind == IV:  # abduction ignores a cf do
        return fam, ExecutionContext._intervened, iv.value
    if addr in plan.observed:
        return fam, ExecutionContext._absorb, plan.observed[addr]
    kind = getattr(fam, "kind", None)  # None: _forward names a class that is no family
    if kind is not None and fam.raws:
        plain = kind == PLAIN
        i = slots.get(addr if plain else addr + NOISE_SUFFIX)
        if i is not None:
            return fam, ExecutionContext._draw if plain else ExecutionContext._draw_noise, i
    return fam, ExecutionContext._forward, ""


# -- plan construction -----------------------------------------------------


def discover(program, *, seed: int = 0, strict_endogeneity: bool = False) -> QueryPlan:
    """Run the discovery pass and return the finalized query plan."""
    plan = QueryPlan()
    ExecutionContext(DISCOVERY, plan)._run(program, sample_key(seed, -1))
    if strict_endogeneity:
        _check_endogeneity(plan)
    return plan


def _check_endogeneity(plan: QueryPlan) -> None:
    """Reject structures whose counterfactual would lean on implicit noise.

    Implicit-noise procedures with parents are simultaneously exogenous
    (their own randomness) and endogenous (their hyperparameters), so
    forcing them or re-evaluating them downstream of an intervention has
    no clean twin-world reading.  Parentless ones are purely exogenous
    and stay fair game.
    """
    for addr in plan.interventions:
        fam = plan.families.get(addr)
        if getattr(fam, "kind", None) == PLAIN and plan.parents.get(addr):
            raise EngineError(
                f"cannot intervene on {addr!r}: {fam.__name__} with parents has "
                "implicit randomness; give it an explicit noise split"
            )
    cf_roots = [a for a, iv in plan.interventions.items() if iv.kind == CF]
    for addr in sorted(descendant_closure(plan.parents, cf_roots)):
        fam = plan.families.get(addr)
        if getattr(fam, "kind", None) == PLAIN:
            raise EngineError(
                f"descendant {addr!r} of an intervened address is a "
                f"{fam.__name__} with implicit randomness; give it an explicit "
                "noise split"
            )


# -- sampling --------------------------------------------------------------


def abduction_sample(program, plan: QueryPlan, seed: int, sample_index: int) -> Trace:
    """One importance sample of the posterior described by the plan."""
    return ExecutionContext(ABDUCTION, plan)._run(program, sample_key(seed, sample_index))


def counterfactual_replay(trace: Trace, plan: QueryPlan, program, seed: int,
                          sample_index: int) -> Trace:
    """Re-execute under forced interventions against an abducted trace.

    The returned trace keeps the abducted log-weight bitwise: replayed
    draws either carry over, are recomputed deterministically, or are
    prior draws whose contribution is exactly zero.
    """
    key = sample_key(seed, sample_index)
    return ExecutionContext(REPLAY, plan)._run(program, key, None, trace, trace.log_weight)


@dataclass
class InferenceResult:
    """Per-sample predictions and weights from one inference run."""

    predictions: list[dict[str, Value]]
    log_weights: np.ndarray
    n_samples: int
    n_rejected: int
    wall_seconds: float
    degenerate: bool = False
    traces: list | None = None
    # per phase ("discovery", "abduction", "replay"): executions run, and their wall time
    executions: dict[str, int] = field(default_factory=dict)
    phase_seconds: dict[str, float] = field(default_factory=dict)


def _block_layout(plan: QueryPlan) -> tuple[list[str], list[str], dict[str, int]]:
    """The streams abduction draws from the key block, and where their inputs sit.

    Returns (uniform, normal, slots): the names of the streams that a
    choice of a family with raws 1, or raws 2, draws from at an address
    discovery saw, where _abduction_action with no slots would draw it
    forward.  rng.key_block keys uniform + normal in that order, and
    slots[name] is where a draw's inputs start in a row of
    rng.block_inputs' result.
    """
    uniform: list[str] = []
    normal: list[str] = []
    forward = ExecutionContext._forward
    for addr, fam in plan.families.items():
        if fam.raws and _abduction_action(plan, _NO_SLOTS, addr, fam)[1] is forward:
            name = addr if fam.kind == PLAIN else addr + NOISE_SUFFIX
            (normal if fam.raws == 2 else uniform).append(name)
    slots = {name: k for k, name in enumerate(uniform)}
    slots.update((name, len(uniform) + 2 * k) for k, name in enumerate(normal))
    return uniform, normal, slots


def _run_chunk(program, plan, seed, keep_traces, lo, hi):
    """Run samples lo..hi-1, keying them one BLOCK-aligned block at a time.

    One abduction and one replay context serve every sample of the chunk.
    Returns (predictions, log-weights, rejected count, traces, abduction
    and replay execution counts, abduction and replay seconds).
    """
    preds: list[dict[str, Value]] = []
    lws: list[float] = []
    traces = [] if keep_traces else None
    n_rejected = n_abd = n_rep = 0
    abd_s = rep_s = 0.0
    uniform, normal, slots = _block_layout(plan)
    names = uniform + normal
    # block_inputs' columns of names: the uniform draws, then the normal ones
    columns = list(range(len(uniform))), list(range(len(uniform), len(names)))
    actions = {addr: _abduction_action(plan, slots, addr, fam)
               for addr, fam in plan.families.items()}
    abduct = ExecutionContext(ABDUCTION, plan, actions)._run
    # replay reads no block inputs: its redraws use @cf streams
    replay = ExecutionContext(REPLAY, plan)._run if plan.needs_replay else None
    clock = time.perf_counter
    # Two clock reads per replayed sample, one per other sample: keying
    # and the loop's own work count toward abduction.
    t0 = clock()
    for start in range(lo - lo % BLOCK, hi, BLOCK):
        keys, table = key_block(seed, max(start, lo), min(start + BLOCK, hi), names)
        for key, inputs in zip(keys, block_inputs(table, *columns)):
            abd = abduct(program, key, inputs)
            t0, t1 = clock(), t0
            abd_s += t0 - t1
            n_abd += 1
            lw = abd.log_weight
            rejected = lw == _NEG_INF
            if rejected:
                n_rejected += 1
            merged = dict(abd.predictions)
            rep = None
            if replay is not None and not rejected:
                rep = replay(program, key, None, abd, lw)
                t0, t1 = clock(), t0
                rep_s += t0 - t1
                n_rep += 1
                merged.update(rep.predictions)
            preds.append(merged)
            lws.append(lw)
            if traces is not None:
                traces.append((abd, rep))
    return preds, lws, n_rejected, traces, (n_abd, n_rep), (abd_s, rep_s)


def run_inference(
    program,
    n_samples: int,
    *,
    seed: int = 0,
    workers: int = 1,
    keep_traces: bool = False,
    strict_endogeneity: bool = False,
) -> InferenceResult:
    """Estimate the program's query from n_samples importance samples.

    Results are a pure function of (program, n_samples, seed): the
    worker count only partitions the sample indices and never changes a
    single bit of the output.  Rejected samples (log-weight -inf) are
    retained with zero normalized weight; if every sample is rejected
    the result is flagged degenerate.  The result also counts the
    executions of each phase and sums their wall time over workers.
    """
    for name, value in (("n_samples", n_samples), ("workers", workers), ("seed", seed)):
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise TypeError(f"{name} must be an integer, got {value!r}")
    if n_samples < 1:
        raise ValueError(f"n_samples must be at least 1, got {n_samples}")
    seed = int(seed)  # a numpy seed would overflow rng's 64-bit masking
    t0 = time.perf_counter()
    plan = discover(program, seed=seed, strict_endogeneity=strict_endogeneity)
    discovery_s = time.perf_counter() - t0
    job = (program, plan, seed, keep_traces)
    t0 = time.perf_counter()
    if workers <= 1 or n_samples < 2:
        parts = [_run_chunk(*job, 0, n_samples)]
    else:
        bounds = np.linspace(0, n_samples, min(workers, n_samples) + 1).astype(int)
        spans = [(int(lo), int(hi)) for lo, hi in zip(bounds[:-1], bounds[1:]) if hi > lo]
        # A forked worker inherits the job through initargs without
        # pickling it, so closures and lambdas work as programs.
        with process_pool(len(spans), initializer=_init_worker, initargs=job) as pool:
            parts = list(pool.map(_run_span, spans))
    wall = time.perf_counter() - t0
    predictions: list[dict[str, Value]] = []
    lws: list[float] = []
    n_rejected = n_abd = n_rep = 0
    abd_s = rep_s = 0.0
    traces = [] if keep_traces else None
    for preds, chunk_lws, rej, chunk_traces, (abd, rep), (abd_t, rep_t) in parts:
        predictions.extend(preds)
        lws.extend(chunk_lws)
        n_rejected += rej
        n_abd += abd
        n_rep += rep
        abd_s += abd_t
        rep_s += rep_t
        if traces is not None:
            traces.extend(chunk_traces)
    return InferenceResult(
        predictions=predictions,
        log_weights=np.asarray(lws, dtype=float),
        n_samples=n_samples,
        n_rejected=n_rejected,
        wall_seconds=wall,
        degenerate=n_rejected == n_samples,
        traces=traces,
        executions={"discovery": 1, "abduction": n_abd, "replay": n_rep},
        phase_seconds={"discovery": discovery_s, "abduction": abd_s, "replay": rep_s},
    )


def process_pool(workers: int, **kwargs) -> ProcessPoolExecutor:
    """A pool of worker processes, forked where the platform allows it."""
    fork = "fork" in multiprocessing.get_all_start_methods()
    ctx = multiprocessing.get_context("fork" if fork else None)
    return ProcessPoolExecutor(max_workers=workers, mp_context=ctx, **kwargs)


_worker_job = None  # (program, plan, seed, keep_traces), set once per worker


def _init_worker(*job):
    global _worker_job
    _worker_job = job


def _run_span(span):
    return _run_chunk(*_worker_job, *span)


# -- estimators ------------------------------------------------------------


def ess(log_weights) -> float:
    """Effective sample size (sum w)^2 / sum w^2, from log-weights."""
    lw = np.asarray(log_weights, dtype=float)
    if lw.size == 0:
        return 0.0
    finite = lw[np.isfinite(lw)]
    if finite.size == 0:
        return 0.0
    m = finite.max()
    w = np.exp(finite - m)
    s1 = w.sum()
    return float(s1 * s1 / (w * w).sum())


def estimate_expectation(result: InferenceResult, label: str | None = None) -> float:
    """Self-normalized importance estimate of the labeled prediction."""
    labels = {lab for p in result.predictions for lab in p}
    if not labels:
        raise ValueError("result has no predictions: the program has no predict statement")
    if label is None:
        if len(labels) != 1:
            raise ValueError(
                f"result has predictions {sorted(labels)}; pass label explicitly"
            )
        label = labels.pop()
    elif label not in labels:
        raise ValueError(f"result has no predictions labelled {label!r}; it has {sorted(labels)}")
    lw = result.log_weights
    finite = np.isfinite(lw)
    if not finite.any():
        raise NoSurvivingSamplesError(
            "no surviving samples: every log-weight is -inf"
        )
    values = np.array([float(p[label]) for p in result.predictions])
    m = lw[finite].max()
    w = np.exp(lw - m)  # rejected samples underflow to exactly 0
    return float((values * w).sum() / w.sum())


# -- dependency declaration checking ---------------------------------------


def verify_declared_dependencies(program, *, seed: int = 0) -> list[str]:
    """Cross-check depends_on declarations by perturb-and-compare.

    Intended for small discrete models in tests: each boolean latent is
    flipped by an iv do added to the discovered plan and abduction rerun
    with identical streams; any other address whose value or noise moves
    must be a declared (transitive) descendant of the flipped one.
    Returns human-readable violation descriptions, empty when all
    declarations cover the true dependencies.
    """
    plan = discover(program, seed=seed)
    base = abduction_sample(program, plan, seed, 0)
    violations: list[str] = []
    for addr, entry in base.entries.items():
        if entry.role != LATENT or not isinstance(entry.value, bool):
            continue
        flip = Intervention(not entry.value, IV)
        forced = replace(plan, interventions={**plan.interventions, addr: flip})
        flipped = abduction_sample(program, forced, seed, 0)
        allowed = descendant_closure(plan.parents, [addr])
        for other, fent in flipped.entries.items():
            if other == addr:
                continue
            bent = base.entries.get(other)
            changed = bent is None or (bent.value, bent.noise) != (fent.value, fent.noise)
            if changed and other not in allowed:
                violations.append(
                    f"flipping {addr!r} changed {other!r}, which does not "
                    f"declare a dependency on it"
                )
    return violations
