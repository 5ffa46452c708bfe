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
from dataclasses import dataclass

import numpy as np

from .engine import descendant_closure
from .errors import ImpossibleEvidenceError
from .scm import PRIOR, ScmSpec, linear_threshold

MAX_NODES = 25
_CHUNK = 1 << 16


@dataclass(frozen=True)
class DiscreteWorld:
    """One exogenous assignment with its induced node values.

    Exogenous keys are node ids for prior nodes and "<id>::noise" for
    dependent nodes, the keys `whatif run --dump-traces` writes them under.
    enumerate_posterior reads the bits off the world's index and the
    values off the chunk walk's columns.
    """

    exogenous: dict[str, bool]
    values: dict[str, bool]
    probability: float


def _check_size(scm: ScmSpec):
    m = len(scm.nodes)
    if m > MAX_NODES:
        raise ValueError(
            f"enumeration bound exceeded: {m} exogenous bits (max {MAX_NODES})"
        )


def _validate_nodes(scm: ScmSpec, evidence, interventions, target=None):
    for nid in evidence:
        scm.node(nid)
    for nid in interventions:
        scm.node(nid)
    if target is not None:
        scm.node(target)


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
            needed: set[str], condition_on_intervened: bool):
    """Yield (first world, probabilities, values, evidence mask) per chunk.

    values maps the needed nodes, interventions forced, to bool columns
    (a bool where constant over the chunk).  The mask tests the evidence
    in the original world unless condition_on_intervened, which tests it
    in the mutilated one (post-surgery conditioning).
    """
    m = len(scm.nodes)
    low = min(m, _CHUNK.bit_length() - 1)
    width = 1 << low
    ons = [node.p if node.kind == PRIOR else node.q for node in scm.nodes]
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

    def walk(i, c, probs, state):
        # fix high node i's bit both ways, depth first
        if i == m:
            yield c << low, probs, state[0], state[2]
            return
        for b, after in zip((False, True), step(state, i, (False, True))):
            yield from walk(i + 1, c | b << (i - low),
                            probs * (ons[i] if b else 1.0 - ons[i]), after)

    prefix = np.ones(1)
    state = ({}, {}, np.ones(width, dtype=bool))
    for i in range(low):
        prefix = np.concatenate((prefix * (1.0 - ons[i]), prefix * ons[i]))
        (state,) = step(state, i, [np.repeat((False, True), 1 << i)])
    yield from walk(low, 0, prefix, state)


def _accumulate(scm: ScmSpec, evidence: dict[str, bool], interventions: dict[str, bool],
                target: str, condition_on_intervened: bool):
    """(total evidence mass, mass where the target is true after forcing
    interventions), each an fsum per chunk and then over the chunks."""
    _check_size(scm)
    needed = _ancestors(scm, [*evidence, target])
    totals, hits = [], []
    for _, probs, values, mask in _chunks(
        scm, evidence, interventions, needed, condition_on_intervened
    ):
        totals.append(math.fsum(probs[mask].tolist()))
        hits.append(math.fsum(probs[mask & values[target]].tolist()))
    return math.fsum(totals), math.fsum(hits)


def enumerate_posterior(scm: ScmSpec, evidence: dict[str, bool]) -> list[DiscreteWorld]:
    """Worlds consistent with the evidence, probabilities renormalized.

    Worlds come from the same chunk walk as the exact queries, in index
    order within a chunk.  Zero-probability worlds are omitted.  Raises
    ImpossibleEvidenceError when the evidence itself has probability zero.
    """
    _check_size(scm)
    _validate_nodes(scm, evidence, {})
    ids = [node.id for node in scm.nodes]
    keys = [n.id if n.kind == PRIOR else n.id + "::noise" for n in scm.nodes]
    kept: list[tuple[dict, dict, float]] = []
    for lo, probs, values, mask in _chunks(scm, evidence, {}, set(ids), False):
        cols = [np.broadcast_to(values[nid], probs.shape) for nid in ids]
        for row in np.flatnonzero(mask & (probs > 0.0)).tolist():
            exo = {key: bool(lo + row >> i & 1) for i, key in enumerate(keys)}
            vals = {nid: bool(col[row]) for nid, col in zip(ids, cols)}
            kept.append((exo, vals, float(probs[row])))
    total = math.fsum(p for _, _, p in kept)
    if total <= 0.0:
        raise ImpossibleEvidenceError(
            f"impossible evidence: {evidence!r} has probability zero"
        )
    return [
        DiscreteWorld(exogenous=exo, values=vals, probability=p / total)
        for exo, vals, p in kept
    ]


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
    _validate_nodes(scm, evidence, interventions, target)
    total, hit = _accumulate(
        scm, evidence, interventions, target, condition_on_intervened=False
    )
    if total <= 0.0:
        raise ImpossibleEvidenceError(
            f"impossible evidence: {evidence!r} has probability zero"
        )
    return hit / total


def exact_interventional(
    scm: ScmSpec,
    evidence: dict[str, bool],
    interventions: dict[str, bool],
    target: str,
) -> float:
    """P(target = 1 | evidence) in the mutilated (surgically edited) model."""
    _validate_nodes(scm, evidence, interventions, target)
    total, hit = _accumulate(
        scm, evidence, interventions, target, condition_on_intervened=True
    )
    if total <= 0.0:
        raise ImpossibleEvidenceError(
            f"impossible evidence: {evidence!r} has probability zero under "
            "the intervened model"
        )
    return hit / total


def exact_observational(scm: ScmSpec, evidence: dict[str, bool], target: str) -> float:
    """Posterior marginal P(target = 1 | evidence)."""
    return exact_counterfactual(scm, evidence, {}, target)
