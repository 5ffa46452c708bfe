"""Inference engine for observational, interventional, and counterfactual queries.

A program is a callable taking an execution context.  It instantiates
random procedures, declares parents via explicit depends_on lists, and
issues observe / do / predict statements.  Its handle to a procedure is
the TraceEntry the context recorded for it (address, realized value), so
a choice is one object and one entry: an observable's entry also carries
its explicit noise.  The trace keyed by address is the only address
registry and the memo of value_if_needed.
Every procedure goes through one positional entry point,
_choose(spec, name, parents, proposal), whose parents is a tuple of
addresses: sample and the family constructors resolve their depends_on
handles to it.  Each phase's context class defines _choose, its choice
rule, and the phase's statements: Discovery runs once and records
the query structure, Abduction runs N importance-sampling executions of
the posterior given the evidence, and for a counterfactual query Replay
runs each abducted trace once more with interventions forced.

The engine tells families apart only by the kind and raws each family
class declares (see dists); a spec whose class declares no kind raises
EngineError where it is first drawn.

So a counterfactual query costs 2N + 1 program executions, anything
else N + 1.  Every random draw comes from a stream keyed by (seed,
sample_index, address), which makes results independent of evaluation
order and of how samples are split across workers.  Worker processes
are forked where the platform allows, so a closure works as a program.

run_inference keys its samples BLOCK at a time: one rng.key_block pass
computes each sample's key and the first raw draws of the streams that
_abduction_table picks once per chunk, where abduction draws a family
with raws 1 or 2 at an address discovery saw with no evidence or iv do
there.  rng.block_inputs converts those raws to doubles once per block,
with the scalar path's bits (see rng).  Such a choice reads its inputs
from its sample's row by index, with no stream built, and an observable
of such a family absorbs its evidence without one.  Every stream is
started by keyed_stream, which gives the same bits: a family with raws 0
(Beta, ObservableNoisyOr), a choice whose family differs from the one
discovery saw at its address, a branch discovery never took, replay's
@cf redraws, and the one execution that discover, abduction_sample and
counterfactual_replay each run.

A chunk builds one Abduction and one Replay context and rearms them for
each sample (their _run), so a context is valid only during the call it
is passed to.  A rejected sample is never replayed.  run_inference counts the
executions of each phase and times them (InferenceResult.executions and
.phase_seconds).
"""

from __future__ import annotations

import math
import multiprocessing
import numbers
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

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

CF = "cf"
IV = "iv"

NOISE_SUFFIX = "::noise"
REPLAY_STREAM_SUFFIX = "@cf"

# Samples keyed together by one rng.key_block pass in _run_chunk.
BLOCK = 128
_ABSENT = object()  # stands for a statement discovery never recorded
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
    Discovery, Abduction and Replay subclass it, one per phase.
    """

    __slots__ = ("plan", "trace", "_key", "_auto", "_pred_i", "_forces")
    _FORCED_KINDS: tuple[str, ...] = ()  # the do kinds the phase forces, at _forces

    def __init__(self, plan: QueryPlan):
        self.plan = plan
        self._forces = frozenset(a for a, iv in plan.interventions.items()
                                 if iv.kind in self._FORCED_KINDS)

    def _run(self, program, key: int) -> Trace:
        """Rearm the context for one execution of program and return its trace:
        a fresh trace, the sample's key and zeroed counters."""
        self.trace = trace = Trace()
        self._key = key
        self._auto = self._pred_i = 0
        program(self)
        return trace

    # -- procedure constructors -------------------------------------------

    def sample(self, spec, *, name=None, depends_on=(), proposal=None) -> Choice:
        """Instantiate a procedure from an explicit distribution spec.

        Unnamed procedures get "auto:<k>", k counting only unnamed ones;
        reusing an address is a collision, caught when it is recorded.
        Only plain families draw their value, so only they take a proposal.
        """
        parents = self._addresses(name, depends_on) if depends_on else ()
        if proposal is not None and getattr(spec, "kind", None) != PLAIN:
            addr = f"auto:{self._auto}" if name is None else name
            raise EngineError(f"{type(spec).__name__} at {addr!r} takes no proposal")
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

    def _auto_address(self) -> Address:
        """The address each phase's _choose gives an unnamed choice."""
        addr = f"auto:{self._auto}"
        self._auto += 1
        return addr

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

        The draw comes from a keyed stream (abduction's block draws go
        through Abduction._draw or _draw_noise).  Replay passes
        REPLAY_STREAM_SUFFIX to redraw on a stream of its own, independent
        of the abducted draws at the same address.
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
        stream = keyed_stream(self._key, addr + NOISE_SUFFIX + suffix)
        raws = spec.raws
        noise = spec.draw_noise_from(stream.inputs(raws), 0) if raws else spec.sample_noise(stream)
        return self._record(addr, spec.output(noise), 0.0, 0.0, LATENT, parents, noise)

    def _forced(self, addr, spec, parents, proposal, iv: Intervention) -> Choice:
        """The intervened entry of addr, forced to the value of the do iv."""
        return self._record(addr, iv.value, 0.0, 0.0, INTERVENED, parents)

    def _planned(self, label) -> tuple[str, bool]:
        """The next predict discovery recorded, checked against this one's label."""
        i = self._pred_i
        self._pred_i = i + 1
        if i >= len(self.plan.predicts):
            raise StaleTraceError("predict statement not present during discovery")
        planned = self.plan.predicts[i]
        if label is not None and label != planned[0]:
            raise StaleTraceError(
                f"predict label changed between executions: {label!r} vs "
                f"{planned[0]!r}"
            )
        return planned

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
            return self._forced(name, None, plan.parents.get(name, ()), None,
                                plan.interventions[name])
        choice = thunk(*args)
        if not isinstance(choice, Choice) or choice.address != name:
            raise EngineError(
                f"value_if_needed thunk for {name!r} produced "
                f"{getattr(choice, 'address', choice)!r}"
            )
        return choice

    def observing(self) -> bool:
        """True in phases that absorb evidence (discovery, abduction)."""
        return True

    def intervening(self) -> bool:
        """True only while interventions are being recorded (discovery)."""
        return False


def _do_kind(kind) -> str:
    """A do's kind, lower-cased; anything but "cf" or "iv" raises ValueError."""
    kind = kind.lower() if isinstance(kind, str) else kind
    if kind not in (CF, IV):
        raise ValueError(f"intervention kind must be 'cf' or 'iv', got {kind!r}")
    return kind


def _stale(what: str, addr: Address, now, was) -> StaleTraceError:
    """StaleTraceError for a later phase's statement now where discovery recorded was."""
    if was is _ABSENT:
        return StaleTraceError(f"stale trace: {what} at {addr!r} was not present during discovery")
    return StaleTraceError(f"stale trace: {what} at {addr!r} is {now!r}, not discovery's {was!r}")


class Discovery(ExecutionContext):
    """The one execution that records the query structure into the plan:
    each choice's family and declared parents, drawn forward, the observed
    and intervened addresses and the predict labels."""

    __slots__ = ()

    def _choose(self, spec, name, parents, proposal) -> Choice:
        addr = self._auto_address() if name is None else name
        self.plan.parents[addr] = parents
        self.plan.families[addr] = type(spec)
        return self._forward(addr, spec, parents, proposal)

    def observe(self, choice: Choice, value) -> None:
        """Condition the procedure behind choice on an observed value: discovery
        records it, abduction absorbs it with the choice, replay ignores it."""
        addr = choice.address
        plan = self.plan
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

    def do(self, choice: Choice, value, kind: str = CF) -> None:
        """Force the value at choice's address.

        kind "cf" forces only in the replay phase (three-step
        counterfactual); kind "iv" forces in every phase, equivalent to
        editing the model.  Discovery records the do; a later phase's do
        there with another value or kind raises StaleTraceError.
        """
        kind = _do_kind(kind)
        plan = self.plan
        addr = choice.address
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
        recorded, in order (Abduction._run checks that none is missing); a
        replay that skips one keeps the abduction value as its fallback.
        """
        plan = self.plan
        if label is None:
            label = f"predict:{len(plan.predicts)}"
        if any(label == lab for lab, _ in plan.predicts):
            raise EngineError(f"duplicate predict label {label!r}")
        plan.predicts.append((label, counterfactual))

    def intervening(self) -> bool:
        return True


class Abduction(ExecutionContext):
    """N importance-sampling executions of the posterior given the evidence.

    Evidence is absorbed through the family's absorb(); an iv do is
    forced and a cf do ignored, as _abduction_action, the one rule, says;
    _abduction_table keeps its answers for the addresses discovery saw.
    """

    __slots__ = ("_actions", "_inputs")
    _FORCED_KINDS = (IV,)

    def __init__(self, plan: QueryPlan, actions: dict[Address, tuple]):
        super().__init__(plan)
        # addr -> _abduction_table's answer for the family discovery saw there
        self._actions = actions

    def _run(self, program, key: int, inputs: list | None) -> Trace:
        """One execution on the sample's row of the key block's converted inputs
        (None for a single execution, whose action table is empty)."""
        self._inputs = inputs
        trace = ExecutionContext._run(self, program, key)
        if self._pred_i < len(self.plan.predicts):
            # replay may skip a predict, as a cf do can change control flow
            raise StaleTraceError(
                f"stale trace: predict {self.plan.predicts[self._pred_i][0]!r} "
                "recorded during discovery was not issued"
            )
        return trace

    def _choose(self, spec, name, parents, proposal) -> Choice:
        addr = self._auto_address() if name is None else name
        act = self._actions.get(addr)
        if act is None or act[0] is not type(spec):
            # An unseen address, another family, or a single execution: none
            # reads the block's inputs, converted for discovery's families.
            act = _abduction_action(self.plan, addr, type(spec))
        return act[1](self, addr, spec, parents, proposal, act[2])

    def _draw(self, addr, spec, parents, proposal, i) -> Choice:
        """A plain choice with raws > 0 drawn from the sample's block inputs at slot i."""
        value, lp, lq = score_inputs(spec, self._inputs, i, proposal)
        return self._record(addr, value, lp, lq, LATENT, parents, None, latent_term(lp, lq))

    def _draw_noise(self, addr, spec, parents, proposal, i) -> Choice:
        """An observable choice with raws > 0, its noise drawn from block inputs at slot i."""
        noise = spec.draw_noise_from(self._inputs, i)
        return self._record(addr, spec.output(noise), 0.0, 0.0, LATENT, parents, noise)

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

    def observe(self, choice: Choice, value) -> None:
        """The evidence was absorbed with the choice; check discovery recorded this value."""
        was = self.plan.observed.get(choice.address, _ABSENT)
        if value is not was and value != was:  # nothing equals _ABSENT
            raise _stale("observation", choice.address, value, was)

    def do(self, choice: Choice, value, kind: str = CF) -> None:
        """An iv do was forced with the choice; check discovery recorded this do."""
        kind = _do_kind(kind)
        iv = self.plan.interventions.get(choice.address, _ABSENT)
        if iv is _ABSENT or kind != iv.kind or value is not iv.value and value != iv.value:
            raise _stale("intervention", choice.address, Intervention(value, kind), iv)

    def predict(self, value, *, label: str | None = None, counterfactual: bool = True) -> None:
        """Report value; for a counterfactual label, a fallback replay overwrites when it runs."""
        self.trace.predictions.append((self._planned(label)[0], value))


class Replay(ExecutionContext):
    """For a counterfactual query, one more execution per abducted trace.

    Every do is forced.  A choice is downstream of a cf do, "tainted",
    when it is cf-forced, falls back to its prior, or declares a tainted
    parent; programs create parents before children, so this taint is
    exact even where control flow differs from discovery.  Downstream, a
    deterministic choice is recomputed and an observable one reruns
    output() under the abducted noise; any other choice is carried over,
    so a handle is read-only: a carried one is shared by both traces.
    """

    __slots__ = ("abducted", "_tainted")
    _FORCED_KINDS = (CF, IV)

    def _run(self, program, key: int, abducted: Trace) -> Trace:
        """Replay abducted with a fresh taint set.  The trace starts at the abducted
        log-weight as its one term (replay adds none, and fsum([w]) == w)."""
        self.abducted = abducted
        self._tainted = set()
        trace = ExecutionContext._run(self, program, key)
        trace.terms.insert(0, abducted.log_weight)
        return trace

    def _choose(self, spec, name, parents, proposal) -> Choice:
        """Force a do, carry a choice over, or rerun one downstream of a cf do."""
        addr = self._auto_address() if name is None else name
        iv = self.plan.interventions.get(addr)
        if iv is not None:
            return self._forced(addr, spec, parents, proposal, iv)
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
        tainted.add(addr)
        if prev is None:
            # Control flow opened by an intervention: no abducted value
            # exists, so the choice falls back to its prior.
            if not self.plan.interventions:
                raise StaleTraceError(
                    f"stale trace: address {addr!r} missing from the abducted "
                    "trace with no intervention to explain it"
                )
        elif getattr(spec, "kind", None) == OBSERVABLE:
            noise = prev.noise
            return self._record(addr, spec.output(noise), 0.0, 0.0, LATENT, parents, noise)
        # A point mass is recomputed.  An implicit-noise procedure has no shared
        # noise to carry into the new world; it is redrawn from its prior.
        return self._forward(addr, spec, parents, None, REPLAY_STREAM_SUFFIX)

    def _forced(self, addr, spec, parents, proposal, iv: Intervention) -> Choice:
        """The intervened entry of addr; a cf do also taints addr."""
        if iv.kind == CF:
            self._tainted.add(addr)
        return self._record(addr, iv.value, 0.0, 0.0, INTERVENED, parents)

    def observe(self, choice: Choice, value) -> None:
        """Replay never absorbs evidence."""

    def do(self, choice: Choice, value, kind: str = CF) -> None:
        """A do must be discovery's; one it never met (a cf do opened its branch) is ignored."""
        kind = _do_kind(kind)
        iv = self.plan.interventions.get(choice.address)
        if iv is not None and (kind != iv.kind or value is not iv.value and value != iv.value):
            raise _stale("intervention", choice.address, Intervention(value, kind), iv)

    def predict(self, value, *, label: str | None = None, counterfactual: bool = True) -> None:
        """Report value for a counterfactual label; abduction's value stands for a factual one."""
        planned_label, planned_cf = self._planned(label)
        if planned_cf:
            self.trace.predictions.append((planned_label, value))

    def observing(self) -> bool:
        return False


def _abduction_action(plan: QueryPlan, addr: Address, fam: type) -> tuple:
    """What abduction does with a fam choice at addr: (fam, act, arg).

    The one rule for abduction.  It reads only the plan and the family, so
    _abduction_table keeps its answer for each address and family discovery
    saw, and Abduction._choose asks it where that table has none.
    act(ctx, addr, spec, parents, proposal, arg) makes the entry: a forcing
    do records its value, evidence is absorbed, and anything else is drawn
    forward, or from the block's inputs where the table says so.
    """
    iv = plan.interventions.get(addr)
    if iv is not None and iv.kind == IV:  # abduction ignores a cf do
        return fam, Abduction._forced, iv
    if addr in plan.observed:
        return fam, Abduction._absorb, plan.observed[addr]
    return fam, Abduction._forward, ""


# -- plan construction -----------------------------------------------------


def discover(program, *, seed: int = 0, strict_endogeneity: bool = False) -> QueryPlan:
    """Run the discovery pass and return the finalized query plan."""
    plan = QueryPlan()
    Discovery(plan)._run(program, sample_key(seed, -1))
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
    return Abduction(plan, {})._run(program, sample_key(seed, sample_index), None)


def counterfactual_replay(trace: Trace, plan: QueryPlan, program, seed: int,
                          sample_index: int) -> Trace:
    """Re-execute under forced interventions against an abducted trace.

    The returned trace keeps the abducted log-weight bitwise: replayed
    draws either carry over, are recomputed deterministically, or are
    prior draws whose contribution is exactly zero.
    """
    return Replay(plan)._run(program, sample_key(seed, sample_index), trace)


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


def _abduction_table(plan: QueryPlan) -> tuple[list[str], int, dict[Address, tuple]]:
    """Abduction's action table and the key block's layout, in one pass.

    Returns (names, k, actions): actions[addr] is _abduction_action's answer
    for discovery's family at addr, but a forward draw with raws 1 or 2 is
    _draw (_draw_noise for an observable) at its slot in a block_inputs row.
    rng.key_block keys names, the k streams with raws 1 first, then those
    with raws 2, each in discovery order.
    """
    actions = {addr: _abduction_action(plan, addr, fam) for addr, fam in plan.families.items()}
    names: list[str] = []
    slot = 0  # each draw's inputs take fam.raws slots of a row
    # sorted is stable: raws 1 before raws 2, each in discovery order
    for addr, fam in sorted(plan.families.items(), key=lambda item: item[1].raws):
        if fam.raws and actions[addr][1] is Abduction._forward:
            plain = fam.kind == PLAIN
            names.append(addr if plain else addr + NOISE_SUFFIX)
            actions[addr] = fam, Abduction._draw if plain else Abduction._draw_noise, slot
            slot += fam.raws
    return names, 2 * len(names) - slot, actions  # slot == k + 2 * (len(names) - k)


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
    names, k, actions = _abduction_table(plan)
    abduct = Abduction(plan, actions)._run
    # replay reads no block inputs: its redraws use @cf streams
    replay = Replay(plan)._run if plan.needs_replay else None
    clock = time.perf_counter
    # Two clock reads per replayed sample, one per other sample: keying
    # and the loop's own work count toward abduction.
    t0 = clock()
    for start in range(lo - lo % BLOCK, hi, BLOCK):
        keys, raws = key_block(seed, max(start, lo), min(start + BLOCK, hi), names)
        for key, inputs in zip(keys, block_inputs(raws, k)):
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
                rep = replay(program, key, abd)
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
    flipped by an iv do put in abduction's action table and abduction rerun
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
        # not a plan edit: every do the program issues must match the plan's
        flip = (plan.families[addr], Abduction._forced, Intervention(not entry.value, IV))
        flipped = Abduction(plan, {addr: flip})._run(program, sample_key(seed, 0), None)
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
