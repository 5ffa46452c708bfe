"""Exact inference over benchmark models by exogenous enumeration.

Every model in the benchmark class has one exogenous bit per node: the
value itself for prior nodes, the flip noise for dependent nodes.  With
m nodes the joint has 2^m worlds; endogenous values follow
deterministically, so posteriors and counterfactuals reduce to sums of
world probabilities.  Probabilities are kept in linear space and summed
with compensated summation.

A dependent node's threshold sum is one array over the worlds, built
by adding theta over true parents in declaration order as
linear_threshold does, so borderline sums agree with sampled runs
bitwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ImpossibleEvidenceError
from .scm import PRIOR, ScmSpec

MAX_NODES = 25
_CHUNK = 1 << 16


@dataclass(frozen=True)
class DiscreteWorld:
    """One exogenous assignment with its induced node values.

    Exogenous keys are node ids for prior nodes and "<id>::noise" for
    dependent nodes, the keys `whatif run --dump-traces` writes them under.
    """

    exogenous: dict[str, bool]
    values: dict[str, bool]
    probability: float


def _check_size(scm: ScmSpec) -> int:
    m = len(scm.nodes)
    if m > MAX_NODES:
        raise ValueError(
            f"enumeration bound exceeded: {m} exogenous bits (max {MAX_NODES})"
        )
    return m


def _world_bits(m: int, lo: int, hi: int) -> np.ndarray:
    idx = np.arange(lo, hi, dtype=np.uint64)[:, None]
    shifts = np.arange(m, dtype=np.uint64)[None, :]
    return ((idx >> shifts) & np.uint64(1)).astype(bool)


def _node_values(scm: ScmSpec, bits: np.ndarray, forced: dict[str, bool]):
    """Endogenous values per world, with forced overrides applied."""
    values: dict[str, np.ndarray] = {}
    for i, node in enumerate(scm.nodes):
        if node.id in forced:
            col = np.full(bits.shape[0], forced[node.id], dtype=bool)
        elif node.kind == PRIOR:
            col = bits[:, i]
        else:
            # A false parent adds +0.0, which leaves the sum's bits alone.
            acc = np.zeros(bits.shape[0])
            for p, t in zip(node.parents, node.theta):
                acc += values[p] * t
            col = (acc > 0.5) ^ bits[:, i]
        values[node.id] = col
    return values


def _world_probs(scm: ScmSpec, bits: np.ndarray) -> np.ndarray:
    probs = np.ones(bits.shape[0])
    for i, node in enumerate(scm.nodes):
        on = node.p if node.kind == PRIOR else node.q
        probs *= np.where(bits[:, i], on, 1.0 - on)
    return probs


def _validate_nodes(scm: ScmSpec, evidence, interventions, target=None):
    for nid in evidence:
        scm.node(nid)
    for nid in interventions:
        scm.node(nid)
    if target is not None:
        scm.node(target)


def _accumulate(scm: ScmSpec, evidence: dict[str, bool], interventions: dict[str, bool],
                target: str | None, condition_on_intervened: bool):
    """Chunked pass over all worlds.

    Returns (total evidence mass, mass where the target is true after
    forcing interventions).  Evidence is checked against the original
    world unless condition_on_intervened, which checks it against the
    mutilated one (post-surgery conditioning).
    """
    m = _check_size(scm)
    totals: list[float] = []
    hits: list[float] = []
    n_worlds = 1 << m
    for lo in range(0, n_worlds, _CHUNK):
        bits = _world_bits(m, lo, min(lo + _CHUNK, n_worlds))
        probs = _world_probs(scm, bits)
        forced_values = _node_values(scm, bits, interventions)
        if condition_on_intervened:
            base_values = forced_values
        elif interventions:
            base_values = _node_values(scm, bits, {})
        else:
            base_values = forced_values
        mask = np.ones(bits.shape[0], dtype=bool)
        for nid, val in evidence.items():
            mask &= base_values[nid] == val
        totals.append(math.fsum(probs[mask]))
        if target is not None:
            hits.append(math.fsum(probs[mask & forced_values[target]]))
    total = math.fsum(totals)
    hit = math.fsum(hits) if target is not None else 0.0
    return total, hit


def enumerate_posterior(scm: ScmSpec, evidence: dict[str, bool]) -> list[DiscreteWorld]:
    """Worlds consistent with the evidence, probabilities renormalized.

    Zero-probability worlds are omitted.  Raises ImpossibleEvidenceError
    when the evidence itself has probability zero.
    """
    m = _check_size(scm)
    _validate_nodes(scm, evidence, {})
    kept: list[tuple[dict, dict, float]] = []
    n_worlds = 1 << m
    for lo in range(0, n_worlds, _CHUNK):
        bits = _world_bits(m, lo, min(lo + _CHUNK, n_worlds))
        probs = _world_probs(scm, bits)
        values = _node_values(scm, bits, {})
        mask = probs > 0.0
        for nid, val in evidence.items():
            mask &= values[nid] == val
        for row in np.nonzero(mask)[0]:
            exo = {}
            vals = {}
            for i, node in enumerate(scm.nodes):
                key = node.id if node.kind == PRIOR else node.id + "::noise"
                exo[key] = bool(bits[row, i])
                vals[node.id] = bool(values[node.id][row])
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
