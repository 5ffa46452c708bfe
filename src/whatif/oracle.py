"""Exact inference over benchmark models by exogenous enumeration.

Every model in the benchmark class has one exogenous bit per node: the
value itself for prior nodes, the flip noise for dependent nodes.
Endogenous values follow deterministically, so posteriors and
counterfactuals reduce to sums of world probabilities.  A node that
neither the evidence nor the target depends on cannot change them, so a
query walks only the bits of those nodes and their ancestors, in model
order, and drops interventions elsewhere: with r of them, 2^r worlds,
world w giving relevant node i the bit (w >> i) & 1.  The size bound
still counts every node.

The walk covers the worlds in chunks of 2^16 consecutive indices.  The
low relevant nodes 0..15 take the same bits in every chunk, so they are
walked once per query, breadth first: node i's bit doubles the low
worlds walked so far, bit 0's copy first, and each world carries its
probability product (in node order) and its values in the forced and
the factual pass.  After each low evidence node only the worlds that
meet the evidence and have mass go on; when none does, no chunk is
walked and the evidence is impossible.  Per chunk: each high node has
one bit, fixed depth first in node order over the low worlds kept, so a
chunk multiplies their products by the high nodes' factors in node
order, a mask tests the high evidence, and one threshold sum of a high
node serves both of its bits.  The factual pass redoes only the
intervened nodes and their descendants.  Each world thus gets the
node-order product and the linear_threshold sums that a world-by-world
evaluation of the relevant sub-model gives.

Masses are summed with math.fsum per chunk, then over the chunks.  Each
fsum rounds once, so the chunk width is part of every answer's bits.
The order of the terms is not, since fsum is correctly rounded, and a
world the walk drops would only have added zeros to its chunk's sums:
it fails the evidence or has no mass.  So dropping worlds early changes
no bit of the relevant sub-model's answer.  Enumerating every node's
bit instead rounds longer products, and its answers differ by a few ulp.
"""

from __future__ import annotations

import itertools
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


def _rule(node, vals, at: dict[str, int], forced: dict[str, bool]):
    """The node's value as a function of its exogenous bit, given its
    parents' value columns vals[at[parent]]."""
    if node.id in forced:
        value = forced[node.id]
        return lambda bit: value
    if node.kind == PRIOR:
        return lambda bit: bit
    f = linear_threshold(node.theta, [vals[at[p]] for p in node.parents])
    return lambda bit: f ^ bit


def _side_by_side(vals, slots: int):
    """Two copies of vals along the worlds, with room for `slots` slots."""
    n = vals.shape[1]
    out = np.empty((slots, 2 * n), dtype=bool)
    out[:len(vals), :n] = out[:len(vals), n:] = vals
    return out


def _chunks(scm: ScmSpec, evidence: dict[str, bool], interventions: dict[str, bool],
            target: str, condition_on_intervened: bool):
    """Yield per chunk the probabilities of its worlds that meet the
    evidence, and of those where the target is true.

    Only the ancestors of the evidence and the target are walked, with the
    interventions among them forced.  The evidence is tested in the
    original world unless condition_on_intervened, which tests it in the
    mutilated one (post-surgery conditioning).
    """
    relevant = _ancestors(scm, [*evidence, target])
    nodes = [node for node in scm.nodes if node.id in relevant]
    interventions = {nid: v for nid, v in interventions.items() if nid in relevant}
    low = min(len(nodes), _CHUNK.bit_length() - 1)
    ons = [node.p if node.kind == PRIOR else node.q for node in nodes]
    redo: set[str] = set()
    if interventions and not condition_on_intervened:
        # only the forced nodes and their descendants differ in the factual pass
        moved = descendant_closure({n.id: n.parents for n in nodes}, interventions)
        redo = (moved | interventions.keys()) & _ancestors(scm, evidence)
    # vals[k] is one value column over the worlds kept, k a slot in node
    # order: one per node's forced value, and one more where the factual
    # pass redoes the node; otherwise its factual value is the forced one
    slot = itertools.count()
    forced_at: dict[str, int] = {}
    factual_at: dict[str, int] = {}
    for node in nodes:
        forced_at[node.id] = factual_at[node.id] = next(slot)
        if node.id in redo:
            factual_at[node.id] = next(slot)

    # vals is passed to each helper, never closed over: walk's closure refers
    # to walk itself, and a cycle through it would keep vals alive until gc
    def setter(node, vals):
        # write(into, bit, part): the node's forced and factual values for the
        # bit, from vals, into the given worlds of its slots in into
        forced = _rule(node, vals, forced_at, interventions)
        factual = _rule(node, vals, factual_at, {}) if node.id in redo else None

        def write(into, bit, part=slice(None)):
            into[forced_at[node.id]][part] = forced(bit)
            if factual:
                into[factual_at[node.id]][part] = factual(bit)

        return write

    def meets(node, vals):
        return vals[factual_at[node.id]] == evidence[node.id]

    vals = np.empty((0, 1), dtype=bool)  # the slots of the nodes walked so far
    probs = np.ones(1)
    for i, node in enumerate(nodes[:low]):
        # node i's bit doubles the low worlds: bit 0's first, then bit 1's
        n = len(probs)
        probs = np.concatenate((probs * (1.0 - ons[i]), probs * ons[i]))
        write = setter(node, vals)
        vals = _side_by_side(vals, factual_at[node.id] + 1)
        write(vals, False, slice(None, n))
        write(vals, True, slice(n, None))
        if node.id in evidence:
            # only the worlds that meet the evidence and have mass go on
            keep = np.flatnonzero(meets(node, vals) & (probs > 0.0))
            if len(keep) == 0:
                return  # the caller raises before any high node runs
            probs, vals = probs[keep], vals[:, keep]

    def walk(i, vals, probs, mask):
        # fix high node i's bit both ways, depth first; a deeper node writes
        # only its own slots, so the slots of nodes < i stay put
        if i == len(nodes):
            yield probs[mask], probs[mask & vals[forced_at[target]]]
            return
        node = nodes[i]
        write = setter(node, vals)
        for bit in (False, True):
            write(vals, bit)
            held = mask & meets(node, vals) if node.id in evidence else mask
            yield from walk(i + 1, vals, probs * (ons[i] if bit else 1.0 - ons[i]), held)

    # the high nodes' slots, overwritten in place as the walk fixes their bits
    vals = [*vals, *np.empty((next(slot) - len(vals), len(probs)), dtype=bool)]
    yield from walk(low, vals, probs, np.ones(len(probs), dtype=bool))


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
    for admitted, hit in _chunks(scm, evidence, interventions, target, condition_on_intervened):
        totals.append(math.fsum(admitted.tolist()))
        hits.append(math.fsum(hit.tolist()))
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
