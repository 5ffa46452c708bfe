"""Random binary structural causal models for benchmarking.

A model is a topologically ordered list of blocks.  A prior block is a
root Bernoulli(p).  A dependent block computes the linear threshold
f = [sum_k theta_k * parent_k > 0.5] and emits f xor noise with noise ~
Bernoulli(q), expressed as an observable procedure so that evidence
inverts the noise instead of rejecting, and counterfactuals rerun f
under the abducted noise.

Queries pick evidence by independent inclusion, one intervention node
with at least one admissible descendant, and a descendant target.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from dataclasses import dataclass, field, fields
from functools import cached_property, partial

from .dists import Bernoulli, ObservableBernoulli
from .engine import IV, descendant_closure
from .errors import DegenerateGraphError

PRIOR = "prior"
DEPENDENT = "dependent"

_THETA_TOL = 1e-9


def linear_threshold(theta: tuple[float, ...], parent_values):
    """f = [sum of theta over true parents > 0.5].

    Accumulates v * t in declaration order, so parent values may be bools
    or numpy bool columns (one sum per row).  A false parent adds a zero,
    which leaves the sum's bits alone because acc is never -0.0.  The
    exact oracle calls this on columns, and scm._node_choice sums the same
    way while it walks the model's (parent, theta) table, reading each
    parent (a test pins the two together bit for bit), so borderline sums
    agree bitwise between sampled runs and the oracle.
    """
    acc = 0.0
    for t, v in zip(theta, parent_values):
        acc += v * t
    return acc > 0.5


def _tuple_of(types, what: str):
    return (lambda v: isinstance(v, tuple) and v != () and all(isinstance(x, types) for x in v),
            f"must be a non-empty tuple (JSON list) of {what}")


_PROBABILITY = (lambda v: isinstance(v, (int, float)) and 0.0 <= v <= 1.0, "must lie in [0, 1]")

# The fields each kind of node takes, in the order scm_to_json writes them,
# each with the test its value must pass and what that test asks for.  The
# JSON reader and writer and ScmSpec's validation all read this one table.
NODE_FIELDS = {
    PRIOR: {"p": _PROBABILITY},
    DEPENDENT: {
        "parents": _tuple_of(str, "node ids"),
        "theta": _tuple_of((int, float), "numbers"),
        "q": _PROBABILITY,
    },
}


@dataclass(frozen=True)
class ScmNode:
    id: str
    kind: str
    p: float | None = None
    parents: tuple[str, ...] = ()
    theta: tuple[float, ...] = ()
    q: float | None = None


# Every field some kind takes; one at its default (same value and type) was not given.
_DEFAULTS = {f.name: f.default for f in fields(ScmNode)
             if any(f.name in takes for takes in NODE_FIELDS.values())}


@dataclass(frozen=True)
class ScmSpec:
    """Validated SCM in topological node order: the one check of a node, built
    by hand or read from JSON, each failure a ValueError naming node and field."""

    nodes: tuple[ScmNode, ...]
    _index: dict = field(default_factory=dict, compare=False, repr=False)

    def __post_init__(self):
        seen: set[str] = set()
        for i, node in enumerate(self.nodes):
            if not isinstance(node.id, str) or not node.id:
                raise ValueError(f"model: nodes[{i}]: id must be a non-empty string")
            ctx = f"model: node {node.id!r}"
            takes = NODE_FIELDS.get(node.kind) if isinstance(node.kind, str) else None
            if takes is None:
                raise ValueError(f"{ctx}: unknown kind {node.kind!r}")
            for name, default in _DEFAULTS.items():
                value = getattr(node, name)
                if name in takes:
                    if not takes[name][0](value):
                        raise ValueError(f"{ctx}: {name} {takes[name][1]}, got {value!r}")
                elif not (type(value) is type(default) and value == default):
                    raise ValueError(f"{ctx}: {node.kind} nodes take no {name}")
            if node.id in seen:
                raise ValueError(f"model: duplicate node id {node.id!r}")
            for par in node.parents:
                if par not in seen:
                    raise ValueError(f"{ctx}: parent {par!r} is not an earlier node")
            if len(node.theta) != len(node.parents):
                raise ValueError(f"{ctx}: got {len(node.theta)} theta values for "
                                 f"{len(node.parents)} parents")
            if node.theta and not abs(sum(node.theta) - 1.0) <= _THETA_TOL:  # NaN too
                raise ValueError(f"{ctx}: theta must sum to 1, got {sum(node.theta)!r}")
            seen.add(node.id)
        object.__setattr__(self, "_index", {n.id: n for n in self.nodes})

    @cached_property
    def _walks(self) -> dict:
        """Dependent node id -> (parents, its (parent, theta) pairs): the walk
        every program of the model shares, built by the first build_program,
        so a model only the oracle reads never builds it."""
        return {n.id: (n.parents, tuple(zip(n.parents, n.theta)))
                for n in self.nodes if n.kind == DEPENDENT}

    def node(self, node_id: str) -> ScmNode:
        try:
            return self._index[node_id]
        except KeyError:
            raise KeyError(f"model has no node {node_id!r}") from None

    def __contains__(self, node_id: str) -> bool:
        return node_id in self._index


@dataclass
class BenchQuery:
    evidence: dict[str, bool]
    intervention: tuple[str, bool]
    target: str
    kind: str = "cf"


def descendants(scm: ScmSpec, node_id: str) -> frozenset[str]:
    """Strict descendants of node_id under the model edges."""
    scm.node(node_id)
    return descendant_closure({n.id: n.parents for n in scm.nodes}, [node_id])


# -- generation ------------------------------------------------------------


def generate_scm(
    rng: random.Random,
    n_blocks: int = 15,
    edge_density: float = 0.3,
    max_parents: int = 4,
) -> ScmSpec:
    """Draw a random model: first node prior, later nodes dependent when
    edge sampling gives them parents.

    Edge j -> i (j < i) is included with probability edge_density, then
    parent sets are thinned to max_parents.  p and q are U[0.3, 0.7];
    theta is unit-normalized Beta(5, 5).
    """
    if n_blocks < 1:
        raise ValueError(f"n_blocks must be positive, got {n_blocks}")
    nodes: list[ScmNode] = []
    for i in range(n_blocks):
        nid = f"n{i}"
        parents: list[int] = []
        if i > 0:
            parents = [j for j in range(i) if rng.random() < edge_density]
            if len(parents) > max_parents:
                parents = sorted(rng.sample(parents, max_parents))
        if not parents:
            nodes.append(ScmNode(nid, PRIOR, p=rng.uniform(0.3, 0.7)))
            continue
        raw = [rng.betavariate(5.0, 5.0) for _ in parents]
        total = sum(raw)
        nodes.append(
            ScmNode(
                nid,
                DEPENDENT,
                parents=tuple(f"n{j}" for j in parents),
                theta=tuple(t / total for t in raw),
                q=rng.uniform(0.3, 0.7),
            )
        )
    return ScmSpec(tuple(nodes))


def generate_query(rng: random.Random, scm: ScmSpec) -> BenchQuery:
    """Draw evidence, one intervention, and a downstream target.

    Evidence includes each node independently with probability 0.3 and
    is resampled whole until non-empty.  The target must be a strict
    descendant of the intervention node and not among the first two
    nodes in topological order; if no node admits such a target the
    graph is degenerate and the caller should regenerate.
    """
    ids = [n.id for n in scm.nodes]
    while True:
        evidence = {nid: rng.random() < 0.5 for nid in ids if rng.random() < 0.3}
        if evidence:
            break
    excluded = set(ids[:2])
    candidates = [nid for nid in ids if descendants(scm, nid) - excluded]
    if not candidates:
        raise DegenerateGraphError(
            "degenerate graph: no node has an admissible descendant target"
        )
    d = rng.choice(candidates)
    if d in evidence:
        d_value = not evidence[d]
    else:
        d_value = rng.random() < 0.5
    targets = sorted(descendants(scm, d) - excluded)
    target = rng.choice(targets)
    return BenchQuery(evidence=evidence, intervention=(d, d_value), target=target)


def derive_seed(base: int, *parts) -> int:
    """Stable 63-bit sub-seed from a base seed and a label path."""
    h = hashlib.blake2b(digest_size=8)
    h.update(repr(base).encode())
    for part in parts:
        h.update(b"/")
        h.update(repr(part).encode())
    return int.from_bytes(h.digest(), "little") >> 1


def generate_case(base_seed: int, index: int, n_blocks: int) -> tuple[ScmSpec, BenchQuery]:
    """The index-th benchmark model and query of base_seed.

    Attempt k draws both from random.Random(derive_seed(base_seed, index,
    k)); a degenerate graph moves on to the next attempt.  Every graph of
    fewer than 3 nodes is degenerate, as the first two are never targets.
    """
    if n_blocks < 3:
        raise ValueError(f"generate_case needs n_blocks of at least 3, got {n_blocks}")
    for attempt in itertools.count():
        gen = random.Random(derive_seed(base_seed, index, attempt))
        scm = generate_scm(gen, n_blocks=n_blocks)
        try:
            return scm, generate_query(gen, scm)
        except DegenerateGraphError:
            pass


# -- programs --------------------------------------------------------------


def _node_specs(node: ScmNode, evidence: dict[str, bool]):
    """One node's specs, built once per program.

    A root gets (prior, proposal): observing a root is conditioning by a
    pinned proposal rather than an observe, with the same importance
    weight.  A dependent node gets its family at f = False and f = True.
    """
    if node.kind == PRIOR:
        ev = evidence.get(node.id)
        return Bernoulli(node.p), None if ev is None else Bernoulli(1.0 if ev else 0.0)
    return ObservableBernoulli(False, node.q), ObservableBernoulli(True, node.q)


def _node_choice(ctx, nodes, nid: str):
    """Instantiate node nid; eager and lazy programs both build it here.

    nodes[nid] is (walk, specs), walk None for a root and the model's
    (parents, pairs) for a dependent node, pairs being its (parent, theta)
    tuples.  One walk over the pairs reads each parent from the trace and
    sums the threshold as linear_threshold does, in declaration order from
    0.0, which test_node_walk_sums_like_linear_threshold pins bit for bit.
    The walks are built once per model (ScmSpec._walks), so a walk builds
    no zip and reads no ScmNode.  Only a lazy program can find a parent
    missing.  It builds that parent here, unless the phase forces it: then
    the gate records the forced value, so none of the parent's ancestors
    are evaluated on its account."""
    walk, specs = nodes[nid]
    if walk is None:
        prior, proposal = specs
        return ctx._choose(prior, nid, (), proposal)  # sample's positional entry
    parents, pairs = walk
    entries = ctx.trace.entries
    acc = 0.0
    for p, t in pairs:
        parent = entries.get(p)
        if parent is None:
            parent = (ctx.value_if_needed(p, _node_choice, ctx, nodes, p) if p in ctx._forces
                      else _node_choice(ctx, nodes, p))
        acc += parent.value * t
    return ctx._choose(specs[acc > 0.5], nid, parents, None)


def _eager_program(ctx, nodes, query: BenchQuery):
    """Every node instantiated in topological order, then the statements."""
    for nid in nodes:
        _node_choice(ctx, nodes, nid)
    entries = ctx.trace.entries
    for nid, val in query.evidence.items():
        if nodes[nid][0] is not None:  # a dependent node; a root's evidence is its proposal
            ctx.observe(entries[nid], val)
    d, d_value = query.intervention
    ctx.do(entries[d], d_value, kind=query.kind)
    ctx.predict(entries[query.target].value, label=query.target, counterfactual=True)


def _lazy_program(ctx, nodes, query: BenchQuery):
    """Only ancestors of the statements actually issued get evaluated.

    The gate gets _node_choice and its arguments, not a closure: closures
    over ctx that captured each other would leave every execution to the
    cyclic collector.
    """
    gate = ctx.value_if_needed
    if ctx.observing():
        for nid, val in query.evidence.items():
            choice = gate(nid, _node_choice, ctx, nodes, nid)
            if nodes[nid][0] is not None:
                ctx.observe(choice, val)
    if ctx.intervening():
        d, d_value = query.intervention
        ctx.do(gate(d, _node_choice, ctx, nodes, d), d_value, kind=query.kind)
    target = gate(query.target, _node_choice, ctx, nodes, query.target)
    ctx.predict(target.value, label=query.target, counterfactual=True)


def check_query(scm: ScmSpec, query: BenchQuery) -> None:
    """Raise ValueError, naming the node, for a query no engine accepts.

    Every node must exist, and an iv do may not force an evidence node:
    evidence on a surgically forced value has no effect.
    """
    d = query.intervention[0]
    if d not in scm:
        raise ValueError(f"query: intervention node {d!r} unknown")
    if query.target not in scm:
        raise ValueError(f"query: predict node {query.target!r} unknown")
    for nid in query.evidence:
        if nid not in scm:
            raise ValueError(f"query: evidence node {nid!r} unknown")
    if query.kind == IV and d in query.evidence:
        raise ValueError(f"query: cannot iv-intervene evidence node {d!r}")


def build_program(scm: ScmSpec, query: BenchQuery, style: str = "eager"):
    """Picklable program for one (model, query) pair; builds every spec it
    samples, and shares the model's walk table (see _node_choice)."""
    check_query(scm, query)
    if style not in ("eager", "lazy"):
        raise ValueError(f"style must be 'eager' or 'lazy', got {style!r}")
    nodes = {node.id: (scm._walks.get(node.id), _node_specs(node, query.evidence))
             for node in scm.nodes}
    body = _eager_program if style == "eager" else _lazy_program
    return partial(body, nodes=nodes, query=query)


# -- JSON ------------------------------------------------------------------


def scm_to_json(scm: ScmSpec) -> dict:
    return {"nodes": [
        {"id": n.id, "kind": n.kind} | {f: _to_json(getattr(n, f)) for f in NODE_FIELDS[n.kind]}
        for n in scm.nodes
    ]}


def _to_json(value):
    return list(value) if isinstance(value, tuple) else value


def _from_json(value, where: str):
    """JSON numbers become floats and lists tuples; ScmSpec checks the rest."""
    if isinstance(value, list):
        return tuple(_from_json(v, where) for v in value)
    if not isinstance(value, (int, float)):
        return value
    try:
        return float(value)
    except OverflowError:  # an integer past the float range
        raise ValueError(f"{where} is too large for a float") from None


def _require(cond: bool, message: str):
    if not cond:
        raise ValueError(message)


def scm_from_json(doc) -> ScmSpec:
    _require(isinstance(doc, dict), "model: top level must be an object")
    _require(isinstance(doc.get("nodes"), list), "model: 'nodes' must be a list")
    nodes = []
    for i, item in enumerate(doc["nodes"]):
        _require(isinstance(item, dict), f"model: nodes[{i}] must be an object")
        nid = item.get("id")
        where = f"model: node {nid!r}" if isinstance(nid, str) and nid else f"model: nodes[{i}]"
        given = {f: _from_json(item[f], f"{where}: {f}") for f in _DEFAULTS if f in item}
        nodes.append(ScmNode(item.get("id"), item.get("kind"), **given))
    return ScmSpec(tuple(nodes))


def _coerce_binary(value, where: str) -> bool:
    if value in (0, 1):  # True and False too
        return bool(value)
    raise ValueError(f"query: {where} must be 0 or 1, got {value!r}")


def query_to_json(query: BenchQuery) -> dict:
    return {
        "evidence": {nid: int(v) for nid, v in query.evidence.items()},
        "do": {
            "id": query.intervention[0],
            "value": int(query.intervention[1]),
            "type": query.kind.upper(),
        },
        "predict": query.target,
    }


def query_from_json(doc) -> BenchQuery:
    _require(isinstance(doc, dict), "query: top level must be an object")
    evidence_doc = doc.get("evidence", {})
    _require(isinstance(evidence_doc, dict), "query: 'evidence' must be an object")
    evidence = {
        nid: _coerce_binary(v, f"evidence[{nid!r}]") for nid, v in evidence_doc.items()
    }
    do_doc = doc.get("do")
    _require(isinstance(do_doc, dict), "query: 'do' must be an object")
    _require(isinstance(do_doc.get("id"), str), "query: do.id must be a node id")
    kind = str(do_doc.get("type", "CF")).lower()
    _require(kind in ("cf", "iv"), "query: do.type must be 'CF' or 'IV'")
    target = doc.get("predict")
    _require(isinstance(target, str), "query: 'predict' must be a node id")
    return BenchQuery(
        evidence=evidence,
        intervention=(do_doc["id"], _coerce_binary(do_doc.get("value"), "do.value")),
        target=target,
        kind=kind,
    )


def _read_json(path: str, what: str):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{what}: {path}: invalid JSON at line {exc.lineno}: {exc.msg}")


def load_model(path: str) -> ScmSpec:
    return scm_from_json(_read_json(path, "model"))


def load_query(path: str) -> BenchQuery:
    return query_from_json(_read_json(path, "query"))
