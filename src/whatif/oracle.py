"""Exact inference over benchmark models by exogenous enumeration.

Every model in the benchmark class has one exogenous bit per node: the
value itself for prior nodes, the flip noise for dependent nodes.  With
m nodes the joint has 2^m worlds, world w giving node i the bit
(w >> i) & 1.  Endogenous values follow deterministically, so
posteriors and counterfactuals reduce to sums of world probabilities.

The walk covers the worlds in chunks of 2^16 consecutive indices.  Once
per query: the low nodes 0..15 take the same bits in every chunk, so
their probability product (in node order), their values in the forced
and the factual pass, and their part of the evidence mask are built
once.  Node i's column repeats every 2^(i+1) worlds and is computed on
that many.  Per chunk: each high node has one bit, fixed depth first in
node order, so a chunk multiplies the low product by the high nodes'
factors in node order, and one threshold sum of a high node serves both
of its bits.  Only ancestors of the evidence and the target get values,
and the factual pass redoes only the intervened nodes and their
descendants.  Each world thus gets the node-order product and the
linear_threshold sums that a world-by-world evaluation gives.

Masses are summed with math.fsum per chunk, then over the chunks.  Each
fsum rounds once, so the chunk width is part of every answer's bits;
the order of the chunks is not.
"""

from __future__ import annotations

import math

import numpy as np

from .engine import descendant_closure
from .errors import ImpossibleEvidenceError
from .scm import PRIOR, ScmSpec, linear_threshold

MAX_NODES = 25
_CHUNK = 1 << 16


def _ancestors(scm: ScmSpec, ids) -> set[str]:
    """The given nodes and all their ancestors."""
    keep = set(ids)
    for node in reversed(scm.nodes):
        if node.id in keep:
            keep.update(node.parents)
    return keep


def _head(v, n: int):
    return v[:n] if isinstance(v, np.ndarray) else v


def _rule(node, known: dict, forced: dict[str, bool], n: int):
    """The node's value as a function of its exogenous bit, over the first
    n worlds of a chunk, given its parents' values in known."""
    if node.id in forced:
        value = forced[node.id]
        return lambda bit: value
    if node.kind == PRIOR:
        return lambda bit: bit
    f = linear_threshold(node.theta, [_head(known[p], n) for p in node.parents])
    return lambda bit: f ^ bit


def _chunks(scm: ScmSpec, evidence: dict[str, bool], interventions: dict[str, bool],
            target: str, condition_on_intervened: bool):
    """Yield (probabilities, target values, evidence mask) per chunk.

    Only the ancestors of the evidence and the target get values, with
    the interventions forced; the target's is a bool column (a bool where
    constant over the chunk).  The mask tests the evidence in the original
    world unless condition_on_intervened, which tests it in the mutilated
    one (post-surgery conditioning).
    """
    m = len(scm.nodes)
    low = min(m, _CHUNK.bit_length() - 1)
    width = 1 << low
    ons = [node.p if node.kind == PRIOR else node.q for node in scm.nodes]
    needed = _ancestors(scm, [*evidence, target])
    redo: set[str] = set()
    if interventions and not condition_on_intervened:
        # only the forced nodes and their descendants differ in the factual pass
        moved = descendant_closure({n.id: n.parents for n in scm.nodes}, interventions)
        redo = (moved | interventions.keys()) & _ancestors(scm, evidence)

    def widen(v):
        short = isinstance(v, np.ndarray) and len(v) < width
        return np.tile(v, width // len(v)) if short else v

    def step(state, i, bits):
        # the (forced values, factual values, mask) after node i takes each bit
        values, base, mask = state
        node = scm.nodes[i]
        if node.id not in needed:
            return [state] * len(bits)
        n = min(2 << i, width)  # a low node's column repeats every 2^(i+1) worlds
        forced = _rule(node, values, interventions, n)
        factual = _rule(node, base, {}, n) if node.id in redo else forced
        out = []
        for bit in bits:
            v = widen(forced(bit))
            b = v if factual is forced else widen(factual(bit))
            held = mask & (b == evidence[node.id]) if node.id in evidence else mask
            out.append(({**values, node.id: v}, {**base, node.id: b}, held))
        return out

    def walk(i, probs, state):
        # fix high node i's bit both ways, depth first
        if i == m:
            yield probs, state[0][target], state[2]
            return
        for b, after in zip((False, True), step(state, i, (False, True))):
            yield from walk(i + 1, probs * (ons[i] if b else 1.0 - ons[i]), after)

    prefix = np.ones(1)
    state = ({}, {}, np.ones(width, dtype=bool))
    for i in range(low):
        prefix = np.concatenate((prefix * (1.0 - ons[i]), prefix * ons[i]))
        (state,) = step(state, i, [np.repeat((False, True), 1 << i)])
    yield from walk(low, prefix, state)


def check_bound(scm: ScmSpec) -> None:
    """Raise ValueError for a model with more exogenous bits than MAX_NODES."""
    if len(scm.nodes) > MAX_NODES:
        raise ValueError(
            f"enumeration bound exceeded: {len(scm.nodes)} exogenous bits "
            f"(max {MAX_NODES})"
        )


def _accumulate(scm: ScmSpec, evidence: dict[str, bool], interventions: dict[str, bool],
                target: str, condition_on_intervened: bool) -> float:
    """P(target) with the interventions forced, given the evidence: the
    target's mass over the evidence mass, each an fsum per chunk and then
    over the chunks.  Unknown nodes raise before the size bound does."""
    for nid in [*evidence, *interventions, target]:
        scm.node(nid)
    check_bound(scm)
    totals, hits = [], []
    for probs, hit, mask in _chunks(
        scm, evidence, interventions, target, condition_on_intervened
    ):
        totals.append(math.fsum(probs[mask].tolist()))
        hits.append(math.fsum(probs[mask & hit].tolist()))
    total = math.fsum(totals)
    if total <= 0.0:
        where = " under the intervened model" if condition_on_intervened else ""
        raise ImpossibleEvidenceError(
            f"impossible evidence: {evidence!r} has probability zero{where}"
        )
    return math.fsum(hits) / total


def exact_counterfactual(
    scm: ScmSpec,
    evidence: dict[str, bool],
    interventions: dict[str, bool],
    target: str,
) -> float:
    """P(target = 1 in the intervened world | evidence in the factual one).

    The three-step reading: posterior over exogenous worlds given the
    evidence, interventions forced, endogenous values recomputed per
    world, and the target averaged under the posterior.
    """
    return _accumulate(scm, evidence, interventions, target, condition_on_intervened=False)


def exact_interventional(
    scm: ScmSpec,
    evidence: dict[str, bool],
    interventions: dict[str, bool],
    target: str,
) -> float:
    """P(target = 1 | evidence) in the mutilated (surgically edited) model."""
    return _accumulate(scm, evidence, interventions, target, condition_on_intervened=True)


def exact_observational(scm: ScmSpec, evidence: dict[str, bool], target: str) -> float:
    """Posterior marginal P(target = 1 | evidence)."""
    return exact_counterfactual(scm, evidence, {}, target)
