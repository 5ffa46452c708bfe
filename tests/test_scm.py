import itertools
import json
import math
import random
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import whatif as wi
from whatif import engine, scm as scm_module
from whatif.engine import descendant_closure, discover
from whatif.scm import (
    BenchQuery,
    ScmNode,
    ScmSpec,
    linear_threshold,
    query_from_json,
    query_to_json,
    scm_from_json,
    scm_to_json,
)

ENTRY_FIELDS = ("value", "log_prior", "log_proposal", "role", "parents", "noise")


def test_linear_threshold_values():
    assert linear_threshold((0.6, 0.4), [True, False]) is True
    assert linear_threshold((0.6, 0.4), [False, True]) is False
    assert linear_threshold((0.5, 0.5), [True, False]) is False  # strict >
    assert linear_threshold((0.5, 0.5), [True, True]) is True
    assert linear_threshold((), []) is False


def test_linear_threshold_takes_bool_columns():
    # 0.2 + 0.3 lands exactly on the strict threshold
    theta = (0.2, 0.3, 0.5)
    rows = list(itertools.product((False, True), repeat=3))
    cols = [np.array(c) for c in zip(*rows)]
    expected = [linear_threshold(theta, r) for r in rows]
    assert linear_threshold(theta, cols).tolist() == expected
    mixed = linear_threshold(theta, [True, cols[1], cols[2]])
    assert mixed.tolist() == [linear_threshold(theta, (True,) + r[1:]) for r in rows]


class TestValidation:
    def test_theta_must_sum_to_one(self):
        for theta in ((0.7,), (float("nan"),)):
            with pytest.raises(ValueError, match="node 'y'.*theta must sum to 1"):
                ScmSpec(
                    (
                        ScmNode("x", "prior", p=0.5),
                        ScmNode("y", "dependent", parents=("x",), theta=theta, q=0.1),
                    )
                )

    def test_parents_must_be_earlier_nodes(self):
        with pytest.raises(ValueError, match="parent 'z' is not an earlier node"):
            ScmSpec(
                (
                    ScmNode("x", "prior", p=0.5),
                    ScmNode("y", "dependent", parents=("z",), theta=(1.0,), q=0.1),
                )
            )

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError, match="duplicate node id"):
            ScmSpec((ScmNode("x", "prior", p=0.5), ScmNode("x", "prior", p=0.5)))

    def test_probability_ranges(self):
        with pytest.raises(ValueError, match="p must lie in"):
            ScmSpec((ScmNode("x", "prior", p=1.5),))
        with pytest.raises(ValueError, match="q must lie in"):
            ScmSpec(
                (
                    ScmNode("x", "prior", p=0.5),
                    ScmNode("y", "dependent", parents=("x",), theta=(1.0,), q=-0.1),
                )
            )

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown kind"):
            ScmSpec((ScmNode("x", "exogenous", p=0.5),))


class TestGeneration:
    @given(st.integers(0, 10_000))
    @settings(max_examples=300, deadline=None)
    def test_generated_models_are_well_formed(self, seed):
        gen = random.Random(seed)
        scm = wi.generate_scm(gen, n_blocks=10)
        assert len(scm.nodes) == 10
        assert scm.nodes[0].kind == "prior"
        order = {n.id: i for i, n in enumerate(scm.nodes)}
        for node in scm.nodes:
            assert len(node.parents) <= 4
            for par in node.parents:
                assert order[par] < order[node.id]
            if node.kind == "prior":
                assert 0.3 <= node.p <= 0.7
            else:
                assert 0.3 <= node.q <= 0.7
                assert abs(sum(node.theta) - 1.0) < 1e-9

    @given(st.integers(0, 10_000))
    @settings(max_examples=200, deadline=None)
    def test_generated_queries_are_admissible(self, seed):
        gen = random.Random(seed)
        scm = wi.generate_scm(gen, n_blocks=10)
        try:
            q = wi.generate_query(gen, scm)
        except wi.DegenerateGraphError:
            return
        assert q.evidence
        d, d_value = q.intervention
        first_two = {scm.nodes[0].id, scm.nodes[1].id}
        assert q.target in wi.descendants(scm, d)
        assert q.target not in first_two
        if d in q.evidence:
            # the query must ask about a different world than observed
            assert d_value == (not q.evidence[d])

    def test_two_block_graphs_are_degenerate(self):
        gen = random.Random(0)
        scm = wi.generate_scm(gen, n_blocks=2)
        with pytest.raises(wi.DegenerateGraphError, match="degenerate graph"):
            wi.generate_query(gen, scm)

    def test_generate_case_refuses_graphs_too_small_to_target(self):
        # 1 and 2 blocks used to redraw degenerate graphs forever
        for n_blocks in (1, 2):
            with pytest.raises(ValueError, match=f"n_blocks of at least 3, got {n_blocks}"):
                wi.generate_case(0, 0, n_blocks)
        scm, query = wi.generate_case(0, 0, 3)
        assert len(scm.nodes) == 3 and query.target == "n2"

    def test_generate_case_regenerates_degenerate_graphs(self):
        def draw(index, attempt):
            gen = random.Random(wi.derive_seed(0, index, attempt))
            return gen, wi.generate_scm(gen, n_blocks=4)

        # model 39 of seed 0 at 4 blocks is degenerate on attempts 0, 1 and 2
        for attempt in range(3):
            gen, scm = draw(39, attempt)
            with pytest.raises(wi.DegenerateGraphError):
                wi.generate_query(gen, scm)
        gen, scm = draw(39, 3)
        assert wi.generate_case(0, 39, 4) == (scm, wi.generate_query(gen, scm))
        gen, scm = draw(0, 0)  # model 0 needs no retry
        assert wi.generate_case(0, 0, 4) == (scm, wi.generate_query(gen, scm))

    def test_generation_is_deterministic_in_the_rng(self):
        a = wi.generate_scm(random.Random(123), n_blocks=12)
        b = wi.generate_scm(random.Random(123), n_blocks=12)
        assert a == b


class TestReachability:
    def diamond(self):
        return ScmSpec(
            (
                ScmNode("a", "prior", p=0.5),
                ScmNode("b", "dependent", parents=("a",), theta=(1.0,), q=0.1),
                ScmNode("c", "dependent", parents=("a",), theta=(1.0,), q=0.1),
                ScmNode("d", "dependent", parents=("b", "c"), theta=(0.5, 0.5), q=0.1),
            )
        )

    def test_descendants(self):
        scm = self.diamond()
        assert wi.descendants(scm, "a") == {"b", "c", "d"}
        assert wi.descendants(scm, "b") == {"d"}
        assert wi.descendants(scm, "d") == set()

    def test_directed_path(self):
        scm = self.diamond()
        assert "d" in wi.descendants(scm, "a")
        assert "c" not in wi.descendants(scm, "b")
        assert "a" not in wi.descendants(scm, "a")  # strict reachability


class TestDerivedSeeds:
    def test_stable(self):
        assert wi.derive_seed(0, 1, "x") == wi.derive_seed(0, 1, "x")

    def test_distinct_paths_distinct_seeds(self):
        seeds = {wi.derive_seed(0, i, n) for i in range(50) for n in (100, 1000)}
        assert len(seeds) == 100

    def test_range(self):
        for s in (wi.derive_seed(0), wi.derive_seed(2**62, "a", 3)):
            assert 0 <= s < 2**63


class TestPrograms:
    def scm_and_query(self):
        scm = ScmSpec(
            (
                ScmNode("x", "prior", p=0.5),
                ScmNode("y", "dependent", parents=("x",), theta=(1.0,), q=0.2),
                ScmNode("z", "dependent", parents=("y",), theta=(1.0,), q=0.1),
            )
        )
        query = BenchQuery(
            evidence={"y": True}, intervention=("x", True), target="z", kind="cf"
        )
        return scm, query

    def test_eager_plan_mirrors_model_edges(self):
        scm, query = self.scm_and_query()
        plan = discover(wi.build_program(scm, query, style="eager"))
        assert plan.parents["y"] == ("x",)
        assert plan.parents["z"] == ("y",)
        assert plan.observed == {"y": True}
        assert set(plan.interventions) == {"x"}
        assert descendant_closure(plan.parents, plan.interventions) == {"y", "z"}

    def test_lazy_skips_unreachable_nodes(self):
        scm, query = self.scm_and_query()
        # pad with an isolated island the query never touches
        padded = ScmSpec(
            scm.nodes
            + (
                ScmNode("island", "prior", p=0.5),
                ScmNode(
                    "islet",
                    "dependent",
                    parents=("island",),
                    theta=(1.0,),
                    q=0.1,
                ),
            )
        )
        plan = discover(wi.build_program(padded, query, style="lazy"))
        assert "island" not in plan.parents
        assert "islet" not in plan.parents
        eager_plan = discover(wi.build_program(padded, query, style="eager"))
        assert "island" in eager_plan.parents

    def test_program_estimates_agree_between_styles(self):
        scm, query = self.scm_and_query()
        re_ = wi.run_inference(wi.build_program(scm, query, "eager"), 2000, seed=4)
        rl = wi.run_inference(wi.build_program(scm, query, "lazy"), 2000, seed=4)
        assert wi.estimate_expectation(re_) == wi.estimate_expectation(rl)

    @pytest.mark.parametrize("kind", ["cf", "iv"])
    def test_lazy_traces_equal_eager_entry_by_entry(self, kind):
        # every entry a lazy execution records, a forced one included, is
        # the eager entry at that address: same bits, same declared parents
        forced = {"abduction": 0, "replay": 0}
        for i in range(12):
            scm, query = wi.generate_case(5, i, 8)
            d = query.intervention[0]
            if scm.node(d).kind != "dependent" or (kind == "iv" and d in query.evidence):
                continue
            query.kind = kind
            eager, lazy = (
                wi.run_inference(wi.build_program(scm, query, style), 30, seed=i,
                                 keep_traces=True).traces
                for style in ("eager", "lazy")
            )
            for e_pair, l_pair in zip(eager, lazy):
                for phase, e_trace, l_trace in zip(("abduction", "replay"), e_pair, l_pair):
                    assert (e_trace is None) == (l_trace is None)
                    if l_trace is None:
                        continue
                    for addr, got in l_trace.entries.items():
                        want = e_trace[addr]
                        assert [repr(getattr(got, f)) for f in ENTRY_FIELDS] == [
                            repr(getattr(want, f)) for f in ENTRY_FIELDS
                        ], (i, phase, addr)
                        if addr == d and got.role == "intervened":
                            forced[phase] += 1
        # a cf do forces only in replay; an iv query forces in abduction and has no replay
        assert forced["replay" if kind == "cf" else "abduction"] > 0

    @pytest.mark.parametrize("style", ["eager", "lazy"])
    def test_node_walk_sums_like_linear_threshold(self, style):
        # y's true parents a, b, d sum to exactly 0.5 in declaration order, so
        # f = False; summed in reverse, or by math.fsum, they pass 0.5
        theta = (0.05, 0.35, 0.5, 0.10000000000000009)
        borderline = [True, True, False, True]
        assert linear_threshold(theta, borderline) is False
        true_thetas = list(itertools.compress(theta, borderline))
        assert math.fsum(true_thetas) > 0.5 and sum(reversed(true_thetas)) > 0.5
        scm = ScmSpec(
            tuple(ScmNode(n, "prior", p=0.5) for n in "abcd")
            + (
                ScmNode("y", "dependent", parents=tuple("abcd"), theta=theta, q=0.3),
                ScmNode("z", "dependent", parents=("y",), theta=(1.0,), q=0.2),
            )
        )
        # a, b, d pinned true; c drawn in abduction and cf-forced false in replay
        query = BenchQuery(
            evidence={"a": True, "b": True, "d": True}, intervention=("c", False), target="z"
        )
        res = wi.run_inference(wi.build_program(scm, query, style), 200, seed=3,
                               keep_traces=True)
        seen = {"abduction": 0, "replay": 0}
        for pair in res.traces:
            for phase, trace in zip(seen, pair):
                for addr, entry in trace.entries.items():
                    node = scm.node(addr)
                    if node.kind != "dependent":
                        continue
                    values = [trace[p].value for p in node.parents]
                    f = linear_threshold(node.theta, values)
                    assert (entry.value != entry.noise) == f, (phase, addr, values)
                    seen[phase] += values == borderline
        assert seen["abduction"] > 0 and seen["replay"] == len(res.traces)

    @pytest.mark.parametrize("kind, phase", [("cf", 1), ("iv", 0)])
    def test_lazy_walk_skips_the_ancestors_of_a_forced_parent(self, kind, phase):
        # the target t reads the do node d as a parent; a0 and a1 reach t only
        # through d, so a phase that forces d never needs them
        scm = ScmSpec(
            (
                ScmNode("a0", "prior", p=0.5),
                ScmNode("a1", "dependent", parents=("a0",), theta=(1.0,), q=0.3),
                ScmNode("d", "dependent", parents=("a1",), theta=(1.0,), q=0.3),
                ScmNode("o", "prior", p=0.5),
                ScmNode("t", "dependent", parents=("d", "o"), theta=(0.6, 0.4), q=0.2),
            )
        )
        query = BenchQuery(evidence={"t": True}, intervention=("d", False), target="t",
                           kind=kind)
        eager, lazy = (
            wi.run_inference(wi.build_program(scm, query, style), 50, seed=1,
                             keep_traces=True)
            for style in ("eager", "lazy")
        )
        assert wi.estimate_expectation(eager) == wi.estimate_expectation(lazy)
        for e_pair, l_pair in zip(eager.traces, lazy.traces):
            assert e_pair[phase]["d"].role == l_pair[phase]["d"].role == "intervened"
            assert {"a0", "a1"} <= set(e_pair[phase].entries)
            assert set(l_pair[phase].entries) == {"d", "o", "t"}

    @pytest.mark.parametrize("style", ["eager", "lazy"])
    def test_no_spec_is_built_per_choice(self, style, monkeypatch):
        scm, query = wi.generate_case(0, 0, 12)
        program = wi.build_program(scm, query, style)
        built = []
        for family in (wi.Bernoulli, wi.ObservableBernoulli):
            real = family.__post_init__

            def counted(spec, real=real):
                built.append(spec)
                real(spec)

            monkeypatch.setattr(family, "__post_init__", counted)
        wi.run_inference(program, 300, seed=2)
        assert built == []

    @pytest.mark.parametrize("style", ["eager", "lazy"])
    def test_node_walk_builds_no_zip(self, style):
        # each node walk reads the model's (parent, theta) table; a zip per
        # walk was a measurable share of every SCM query
        program = wi.build_program(*wi.generate_case(0, 0, 12), style)
        calls = [0]

        def counted(*args):
            calls[0] += 1
            return zip(*args)

        real_discover = engine.discover
        with pytest.MonkeyPatch.context() as mp:
            def discover_then_count(*args, **kwargs):
                plan = real_discover(*args, **kwargs)
                mp.setattr(scm_module, "zip", counted, raising=False)
                return plan

            mp.setattr(engine, "discover", discover_then_count)
            wi.run_inference(program, 2 * engine.BLOCK + 3, seed=21)
            assert calls[0] == 0
            linear_threshold((1.0,), [True])  # the counter sees scm's zip
            assert calls[0] == 1

    def test_programs_share_the_model_walk_table(self):
        scm, query = wi.generate_case(0, 0, 12)
        assert {nid: pairs for nid, (_, pairs) in scm._walks.items()} == {
            n.id: tuple(zip(n.parents, n.theta)) for n in scm.nodes if n.kind == "dependent"
        }
        for style in ("eager", "lazy"):
            nodes = wi.build_program(scm, query, style).keywords["nodes"]
            for n in scm.nodes:
                walk = nodes[n.id][0]
                if n.kind == "prior":
                    assert walk is None
                else:
                    assert walk is scm._walks[n.id] and walk[0] is n.parents
        # the table is derived state: not compared, not part of the model's JSON
        assert scm_from_json(scm_to_json(scm)) == scm
        assert "_walks" not in repr(scm)

    def test_only_programs_build_the_walk_table(self):
        scm, query = wi.generate_case(0, 0, 12)
        wi.exact_observational(scm, query.evidence, query.target)
        assert "_walks" not in vars(scm)
        wi.build_program(scm, query)
        assert "_walks" in vars(scm)

    def test_unknown_query_nodes_rejected(self):
        scm, query = self.scm_and_query()
        query.target = "nope"
        with pytest.raises(ValueError, match="predict node 'nope'"):
            wi.build_program(scm, query)


class TestJson:
    def test_model_round_trip(self):
        scm = wi.generate_scm(random.Random(9), n_blocks=10)
        assert scm_from_json(scm_to_json(scm)) == scm

    def test_query_round_trip(self):
        q = BenchQuery(
            evidence={"n3": True, "n1": False},
            intervention=("n2", False),
            target="n5",
            kind="iv",
        )
        doc = query_to_json(q)
        assert doc["do"] == {"id": "n2", "value": 0, "type": "IV"}
        assert doc["evidence"] == {"n3": 1, "n1": 0}
        assert query_from_json(doc) == q

    def test_query_accepts_integer_and_bool_values(self):
        doc = {"evidence": {"a": 1}, "do": {"id": "b", "value": True}, "predict": "c"}
        q = query_from_json(doc)
        assert q.evidence == {"a": True}
        assert q.intervention == ("b", True)
        assert q.kind == "cf"  # default

    def test_query_rejects_nonbinary_values(self):
        doc = {"evidence": {"a": 2}, "do": {"id": "b", "value": 1}, "predict": "c"}
        with pytest.raises(ValueError, match="evidence\\['a'\\] must be 0 or 1"):
            query_from_json(doc)

    def test_query_rejects_bad_type(self):
        doc = {"evidence": {}, "do": {"id": "b", "value": 1, "type": "??"}, "predict": "c"}
        with pytest.raises(ValueError, match="do.type"):
            query_from_json(doc)

    def test_model_diagnostics_name_the_node(self):
        doc = {"nodes": [{"id": "x", "kind": "prior", "p": 0.5},
                         {"id": "y", "kind": "dependent", "parents": ["x"], "q": 0.1}]}
        with pytest.raises(ValueError, match="node 'y'"):
            scm_from_json(doc)

    @pytest.mark.parametrize(
        "node, where",
        [
            ({"id": "x", "kind": "prior", "p": 10**400}, "node 'x': p"),
            ({"id": "x", "kind": "dependent", "parents": ["r"], "theta": [-(10**400)],
              "q": 0.5}, "node 'x': theta"),
            ({"kind": "dependent", "parents": ["r"], "theta": [1.0], "q": 10**400},
             "nodes\\[1\\]: q"),
        ],
    )
    def test_integer_past_the_float_range_names_node_and_field(self, node, where):
        # was an OverflowError from float()
        doc = {"nodes": [{"id": "r", "kind": "prior", "p": 0.5}, node]}
        with pytest.raises(ValueError, match=f"model: {where} is too large for a float"):
            scm_from_json(doc)

    def test_load_model_reports_json_line(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{\n "nodes": [\n broken\n]}\n')
        with pytest.raises(ValueError, match="invalid JSON at line 3"):
            wi.load_model(str(path))

    def test_load_round_trip(self, tmp_path):
        scm = wi.generate_scm(random.Random(11), n_blocks=6)
        path = tmp_path / "model.json"
        path.write_text(json.dumps(scm_to_json(scm)))
        assert wi.load_model(str(path)) == scm


# Model documents and what scm_from_json made of them before the node checks
# moved into ScmSpec.  An accepted document maps to the nodes it loads to; a
# rejected one maps to patterns its ValueError must match, naming the node
# (its id or nodes[i]) and the field.  NOW_REJECTED were accepted before.
_X = {"id": "x", "kind": "prior", "p": 0.5}
_Y = {"id": "y", "kind": "dependent", "parents": ["x"], "theta": [1.0], "q": 0.2}
X = ScmNode("x", "prior", p=0.5)
Y = ScmNode("y", "dependent", parents=("x",), theta=(1.0,), q=0.2)
P, Q, ID = r"\bp\b", r"\bq\b", r"\bid\b"


def x_with(**keys):
    return {"nodes": [{**_X, **keys}]}


def x_without(key):
    return {"nodes": [{k: v for k, v in _X.items() if k != key}]}


def y_with(**keys):
    return {"nodes": [_X, {**_Y, **keys}]}


def y_without(key):
    return {"nodes": [_X, {k: v for k, v in _Y.items() if k != key}]}


MODEL_DOCS = {
    # refused by the reader
    "top level not an object": ([_X], ("top level",)),
    "nodes missing": ({}, ("'nodes'",)),
    "nodes not a list": ({"nodes": {"x": _X}}, ("'nodes'",)),
    "node not an object": ({"nodes": [_X, 3]}, (r"nodes\[1\]",)),
    "id missing": (x_without("id"), (r"nodes\[0\]", ID)),
    "id empty": (x_with(id=""), (r"nodes\[0\]", ID)),
    "id a number": (x_with(id=7), (r"nodes\[0\]", ID)),
    "kind unknown": (x_with(kind="exogenous"), ("node 'x'", "kind")),
    "kind missing": (x_without("kind"), ("node 'x'", "kind")),
    "kind a list": (x_with(kind=["prior"]), ("node 'x'", "kind")),
    "p missing": (x_without("p"), ("node 'x'", P)),
    "p a string": (x_with(p="0.5"), ("node 'x'", P)),
    "parents missing": (y_without("parents"), ("node 'y'", "parent")),
    "parents empty": (y_with(parents=[]), ("node 'y'", "parent")),
    "parents a string": (y_with(parents="x"), ("node 'y'", "parent")),
    "parents holding a number": (y_with(parents=[1]), ("node 'y'", "parent")),
    "parents holding a list": (y_with(parents=[["x"]]), ("node 'y'", "parent")),
    "theta missing": (y_without("theta"), ("node 'y'", "theta")),
    "theta a string": (y_with(theta="1.0"), ("node 'y'", "theta")),
    "theta holding a string": (y_with(theta=["1.0"]), ("node 'y'", "theta")),
    "q missing": (y_without("q"), ("node 'y'", Q)),
    "q a string": (y_with(q="0.2"), ("node 'y'", Q)),
    "q null": (y_with(q=None), ("node 'y'", Q)),
    # refused by ScmSpec
    "id repeated": ({"nodes": [_X, _X]}, ("'x'", ID)),
    "p above one": (x_with(p=1.5), ("node 'x'", P)),
    "p not a number": (x_with(p=float("nan")), ("node 'x'", P)),
    "q below zero": (y_with(q=-0.1), ("node 'y'", Q)),
    "parent later in the list": (y_with(parents=["z"]), ("node 'y'", "parent")),
    "parent is the node itself": (y_with(parents=["y"]), ("node 'y'", "parent")),
    "more theta than parents": (y_with(theta=[0.5, 0.5]), ("node 'y'", "theta")),
    "theta not summing to one": (y_with(theta=[0.7]), ("node 'y'", "theta")),
    "theta not a number": (y_with(theta=[float("nan")]), ("node 'y'", "theta")),
    # accepted
    "two nodes": ({"nodes": [_X, _Y]}, (X, Y)),
    "integer p": (x_with(p=1), (ScmNode("x", "prior", p=1.0),)),
    "true as p": (x_with(p=True), (ScmNode("x", "prior", p=1.0),)),
    "unknown extra key": (x_with(note="ignored"), (X,)),
    "integer theta": (y_with(theta=[1]), (X, Y)),
    "null for a field the kind does not take": (x_with(q=None), (X,)),
    "empty parents on a prior": (x_with(parents=[]), (X,)),
}
NOW_REJECTED = {
    "prior with parents": (x_with(parents=["zz"]), ("node 'x'", "parents")),
    "prior with theta": (x_with(theta=[1.0]), ("node 'x'", "theta")),
    "prior with q": (x_with(q=0.2), ("node 'x'", Q)),
    "dependent with p": (y_with(p=0.5), ("node 'y'", P)),
}


@pytest.mark.parametrize(
    "doc, outcome",
    [pytest.param(*case, id=name) for name, case in {**MODEL_DOCS, **NOW_REJECTED}.items()],
)
def test_model_documents_keep_their_outcome(doc, outcome):
    if isinstance(outcome[0], ScmNode):
        expected = ScmSpec(outcome)
        scm = scm_from_json(doc)
        assert scm == expected
        assert json.dumps(scm_to_json(scm)) == json.dumps(scm_to_json(expected))
        return
    with pytest.raises(ValueError) as exc:
        scm_from_json(doc)
    for pattern in outcome:
        assert re.search(pattern, str(exc.value)), (pattern, str(exc.value))


# Hand-built nodes that ScmSpec used to accept (an empty id, parents given as
# a string or a list) or to fail on with a TypeError (a string number).
HAND_BUILT = {
    "p a string": (ScmNode("x", "prior", p="0.5"), ("node 'x'", P)),
    "id empty": (ScmNode("", "prior", p=0.5), (r"nodes\[1\]", ID)),
    "parents a string": (
        ScmNode("y", "dependent", parents="x", theta=(1.0,), q=0.2), ("node 'y'", "parents")
    ),
    "parents a list": (
        ScmNode("y", "dependent", parents=["x"], theta=(1.0,), q=0.2), ("node 'y'", "parents")
    ),
    "theta holding a string": (
        ScmNode("y", "dependent", parents=("x",), theta=("1.0",), q=0.2), ("node 'y'", "theta")
    ),
    "q a string": (ScmNode("y", "dependent", parents=("x",), theta=(1.0,), q="0.2"),
                   ("node 'y'", Q)),
}


@pytest.mark.parametrize(
    "node, patterns", [pytest.param(*case, id=name) for name, case in HAND_BUILT.items()]
)
def test_hand_built_nodes_are_checked_like_loaded_ones(node, patterns):
    with pytest.raises(ValueError) as exc:
        ScmSpec((X, node))
    for pattern in patterns:
        assert re.search(pattern, str(exc.value)), (pattern, str(exc.value))
