import gc
import math
import random
import tracemalloc

import numpy as np
import pytest

import whatif as wi
from whatif import oracle
from whatif.oracle import MAX_NODES
from whatif.scm import ScmNode, ScmSpec, linear_threshold


def two_node():
    return ScmSpec(
        (
            ScmNode("x", "prior", p=0.5),
            ScmNode("y", "dependent", parents=("x",), theta=(1.0,), q=0.2),
        )
    )


class TestPosterior:
    def test_two_node_posterior_worlds(self):
        # y = x xor noise with q = 0.2; y = 1 keeps the worlds (x, noise) =
        # (1, 0) and (0, 1), with posterior mass 0.8 and 0.2
        assert math.isclose(wi.exact_observational(two_node(), {"y": True}, "x"), 0.8)

    def test_empty_evidence_sums_to_one(self):
        # with no evidence every world counts: the prior marginals, and the
        # posteriors given y = 1 and y = 0 average back to P(x = 1)
        scm = two_node()
        p_x = wi.exact_observational(scm, {}, "x")
        p_y = wi.exact_observational(scm, {}, "y")
        assert math.isclose(p_x, 0.5)
        assert math.isclose(p_y, 0.5 * 0.8 + 0.5 * 0.2)
        given = {v: wi.exact_observational(scm, {"y": v}, "x") for v in (False, True)}
        assert math.isclose(p_y * given[True] + (1.0 - p_y) * given[False], p_x)

    def test_worlds_obey_structural_equations(self, monkeypatch):
        monkeypatch.setattr(oracle, "_CHUNK", 1 << 3)
        gen = random.Random(31)
        scm = wi.generate_scm(gen, n_blocks=9)
        for node in scm.nodes:
            assert_reference(lambda: wi.exact_observational(scm, {}, node.id),
                             scm, {}, {}, node.id, False)

    def test_impossible_evidence_raises(self):
        scm = ScmSpec(
            (
                ScmNode("x", "prior", p=1.0),
                ScmNode("y", "dependent", parents=("x",), theta=(1.0,), q=0.0),
            )
        )
        # x is surely 1 and y copies it noiselessly
        with pytest.raises(wi.ImpossibleEvidenceError, match="impossible evidence"):
            wi.exact_observational(scm, {"y": False}, "x")

    def test_unknown_evidence_node_rejected(self):
        with pytest.raises(KeyError, match="no node"):
            wi.exact_observational(two_node(), {"zzz": True}, "x")
        with pytest.raises(KeyError, match="no node"):
            wi.exact_observational(two_node(), {}, "zzz")

    def test_size_guard(self):
        nodes = tuple(
            ScmNode(f"n{i}", "prior", p=0.5) for i in range(MAX_NODES + 1)
        )
        with pytest.raises(ValueError, match="enumeration bound"):
            wi.exact_observational(ScmSpec(nodes), {}, "n0")


class TestExactQueries:
    def test_two_node_counterfactual(self):
        assert math.isclose(
            wi.exact_counterfactual(two_node(), {"y": True}, {"x": True}, "y"), 0.8
        )

    def test_counterfactual_of_unintervened_is_posterior_marginal(self):
        scm = two_node()
        post = wi.exact_counterfactual(scm, {"y": True}, {}, "x")
        assert math.isclose(post, 0.8)
        assert wi.exact_observational(scm, {"y": True}, "x") == post

    def test_iv_and_cf_coincide_without_evidence(self):
        gen = random.Random(77)
        scm = wi.generate_scm(gen, n_blocks=7)
        q = wi.generate_query(gen, scm)
        d, dv = q.intervention
        cf = wi.exact_counterfactual(scm, {}, {d: dv}, q.target)
        iv = wi.exact_interventional(scm, {}, {d: dv}, q.target)
        assert math.isclose(cf, iv)

    def test_iv_and_cf_disagree_when_evidence_flows_through_the_cut(self):
        # chain x -> y -> z -> t, force y, evidence on z.  The factual
        # reading abducts z's noise from the factual world; the surgical
        # reading conditions z in the mutilated model.
        scm = ScmSpec(
            (
                ScmNode("x", "prior", p=0.5),
                ScmNode("y", "dependent", parents=("x",), theta=(1.0,), q=0.2),
                ScmNode("z", "dependent", parents=("y",), theta=(1.0,), q=0.2),
                ScmNode("t", "dependent", parents=("z",), theta=(1.0,), q=0.1),
            )
        )
        cf = wi.exact_counterfactual(scm, {"z": True}, {"y": False}, "t")
        iv = wi.exact_interventional(scm, {"z": True}, {"y": False}, "t")
        # IV: z = noise_z, evidence pins it True, so t = 1 xor noise_t
        assert math.isclose(iv, 0.9)
        # CF: z' = abducted noise_z ~ Bern(0.2), t' = z' xor noise_t
        assert math.isclose(cf, 0.2 * 0.9 + 0.8 * 0.1)

    def test_iv_contradicting_evidence_on_the_forced_node_is_impossible(self):
        scm = two_node()
        with pytest.raises(wi.ImpossibleEvidenceError, match="intervened model"):
            wi.exact_interventional(scm, {"y": True}, {"y": False}, "y")

    def test_intervention_forces_target_itself(self):
        assert wi.exact_counterfactual(two_node(), {"y": True}, {"y": False}, "y") == 0.0

    def test_probabilities_lie_in_unit_interval(self):
        gen = random.Random(5)
        for _ in range(20):
            scm = wi.generate_scm(gen, n_blocks=8)
            try:
                q = wi.generate_query(gen, scm)
            except wi.DegenerateGraphError:
                continue
            d, dv = q.intervention
            val = wi.exact_counterfactual(scm, q.evidence, {d: dv}, q.target)
            assert 0.0 <= val <= 1.0

    def test_wide_node_fallback_matches_structural_equations(self, monkeypatch):
        # 13 parents; the second theta has many parent subsets summing to
        # exactly 0.5 in declaration order, which another summation order
        # (a BLAS dot product) can push to either side of the threshold.
        # Against the world-by-world reference at the same chunk width, a
        # single world that breaks the structural equation moves the answer.
        monkeypatch.setattr(oracle, "_CHUNK", 1 << 3)
        gen = random.Random(3)
        priors = tuple(
            ScmNode(f"n{i}", "prior", p=gen.uniform(0.3, 0.7)) for i in range(13)
        )
        raw = [gen.betavariate(5, 5) for _ in range(13)]
        total = sum(raw)
        ties = (1, 2, 1, 1, 3, 2, 3, 3, 3, 1, 2, 1, 3)
        for theta in (
            tuple(t / total for t in raw),
            tuple(t / 26 for t in ties),
        ):
            wide = ScmNode(
                "wide",
                "dependent",
                parents=tuple(f"n{i}" for i in range(13)),
                theta=theta,
                q=0.3,
            )
            scm = ScmSpec(priors + (wide,))
            assert_reference(lambda: wi.exact_observational(scm, {}, "wide"),
                             scm, {}, {}, "wide", False)


class TestEngineAgreement:
    def exact_and_sampled(self, seed, kind, n=4000):
        gen = random.Random(wi.derive_seed(200, seed))
        scm = wi.generate_scm(gen, n_blocks=8)
        try:
            q = wi.generate_query(gen, scm)
        except wi.DegenerateGraphError:
            return None
        d, dv = q.intervention
        if kind == "iv":
            if d in q.evidence:
                del q.evidence[d]
            if not q.evidence:
                q.evidence = {scm.nodes[0].id: True}
            q.kind = "iv"
            exact = wi.exact_interventional(scm, q.evidence, {d: dv}, q.target)
        else:
            exact = wi.exact_counterfactual(scm, q.evidence, {d: dv}, q.target)
        program = wi.build_program(scm, q, style="eager")
        res = wi.run_inference(program, n, seed=9)
        return exact, wi.estimate_expectation(res)

    def test_counterfactual_estimates_converge_to_oracle(self):
        checked = 0
        for s in range(8):
            pair = self.exact_and_sampled(s, "cf")
            if pair is None:
                continue
            exact, est = pair
            assert abs(exact - est) < 0.05
            checked += 1
        assert checked >= 5

    def test_interventional_estimates_converge_to_oracle(self):
        checked = 0
        for s in range(8):
            pair = self.exact_and_sampled(s, "iv")
            if pair is None:
                continue
            exact, est = pair
            assert abs(exact - est) < 0.05
            checked += 1
        assert checked >= 5


def world_values(scm, w, forced):
    """Node values in world w, node i taking exogenous bit (w >> i) & 1."""
    values = {}
    for i, node in enumerate(scm.nodes):
        bit = bool(w >> i & 1)
        if node.id in forced:
            values[node.id] = forced[node.id]
        elif node.kind == "prior":
            values[node.id] = bit
        else:
            f = linear_threshold(node.theta, [values[p] for p in node.parents])
            values[node.id] = f ^ bit
    return values


def world_prob(scm, w):
    prob = 1.0
    for i, node in enumerate(scm.nodes):
        on = node.p if node.kind == "prior" else node.q
        prob *= on if w >> i & 1 else 1.0 - on
    return prob


def full_reference(scm, evidence, interventions, target, condition_on_intervened):
    """(total, hit) one world at a time over every node's bit, each an fsum
    per chunk of 8 consecutive worlds and then over the chunks."""
    chunk = 1 << 3
    totals, hits = [], []
    n_worlds = 1 << len(scm.nodes)
    for lo in range(0, n_worlds, chunk):
        total, hit = [], []
        for w in range(lo, min(lo + chunk, n_worlds)):
            forced = world_values(scm, w, interventions)
            base = forced if condition_on_intervened else world_values(scm, w, {})
            if all(base[nid] == val for nid, val in evidence.items()):
                total.append(world_prob(scm, w))
                if forced[target]:
                    hit.append(world_prob(scm, w))
        totals.append(math.fsum(total))
        hits.append(math.fsum(hit))
    return math.fsum(totals), math.fsum(hits)


def ancestor_model(scm, ids):
    """The sub-model of the given nodes and every node they reach by
    following parents, in model order."""
    parents = {node.id: node.parents for node in scm.nodes}
    keep, todo = set(), list(ids)
    while todo:
        nid = todo.pop()
        if nid not in keep:
            keep.add(nid)
            todo.extend(parents[nid])
    return ScmSpec(tuple(node for node in scm.nodes if node.id in keep))


def reference(scm, evidence, interventions, target, condition_on_intervened):
    """The oracle's answer one world at a time: full_reference over the
    sub-model of the evidence, the target and their ancestors, with the
    interventions on it."""
    sub = ancestor_model(scm, [*evidence, target])
    interventions = {nid: v for nid, v in interventions.items() if nid in sub}
    return full_reference(sub, evidence, interventions, target, condition_on_intervened)


def assert_reference(answer, scm, evidence, interventions, target, condition_on_intervened):
    """answer() under 8-world chunks equals reference() bit for bit and lies
    within 2 ulp of full_reference(); impossible evidence raises."""
    args = (scm, evidence, interventions, target, condition_on_intervened)
    total, hit = reference(*args)
    full_total, full_hit = full_reference(*args)
    if total <= 0.0:
        assert full_total <= 0.0
        with pytest.raises(wi.ImpossibleEvidenceError):
            answer()
    else:
        got = answer()
        assert got == hit / total
        full = full_hit / full_total
        assert abs(got - full) <= 2 * math.ulp(full)


def reference_cases():
    """Generated 4-10-node models, plus p=1 / q=0 nodes under a query
    whose target is the intervened node."""
    cases = []
    for i in range(24):
        gen = random.Random(wi.derive_seed(61, i))
        scm = wi.generate_scm(gen, n_blocks=4 + i % 7, edge_density=0.4)
        try:
            q = wi.generate_query(gen, scm)
        except wi.DegenerateGraphError:
            continue
        cases.append((scm, q.evidence, dict([q.intervention]), q.target))
    pinned = ScmSpec(
        (
            ScmNode("a", "prior", p=1.0),
            ScmNode("b", "prior", p=0.4),
            ScmNode("c", "dependent", parents=("a", "b"), theta=(0.5, 0.5), q=0.0),
            ScmNode("d", "dependent", parents=("c",), theta=(1.0,), q=0.25),
            ScmNode("e", "prior", p=0.0),
            ScmNode("f", "dependent", parents=("d", "e", "b"), theta=(0.3, 0.3, 0.4), q=0.1),
        )
    )
    cases.append((pinned, {"f": True}, {"d": False}, "d"))
    cases.append((pinned, {"d": True}, {"c": False}, "f"))
    return cases


def cut_model():
    """Seven nodes: under 8-world chunks a, b, c are low and d..g high.
    c is surely 1 and f = a and e exactly, so evidence can be impossible in
    either phase."""
    return ScmSpec(
        (
            ScmNode("a", "prior", p=0.3),
            ScmNode("b", "dependent", parents=("a",), theta=(1.0,), q=0.2),
            ScmNode("c", "prior", p=1.0),
            ScmNode("d", "dependent", parents=("b", "c"), theta=(0.6, 0.4), q=0.1),
            ScmNode("e", "prior", p=0.6),
            ScmNode("f", "dependent", parents=("a", "e"), theta=(0.5, 0.5), q=0.0),
            ScmNode("g", "dependent", parents=("d", "f", "c"), theta=(0.2, 0.3, 0.5), q=0.35),
        )
    )


def cut_cases():
    """Queries on cut_model for each way the low evidence can cut a chunk."""
    scm = cut_model()
    return [
        pytest.param((scm, {"b": True, "c": True}, {"a": False}, "g"), id="low-evidence"),
        pytest.param((scm, {"g": False, "e": True}, {"b": True}, "d"), id="high-evidence"),
        pytest.param((scm, {}, {"d": True}, "g"), id="no-evidence"),
        pytest.param((scm, {"c": False, "g": True}, {"e": True}, "g"), id="impossible-low"),
        pytest.param((scm, {"f": True, "e": False}, {"b": False}, "g"), id="impossible-high"),
    ]


class TestBitwiseReference:
    """The chunked walk against a world-by-world evaluation, bit for bit."""

    @pytest.mark.parametrize("case", reference_cases() + cut_cases())
    def test_queries_match_world_by_world_reference(self, monkeypatch, case):
        # 8-world chunks, so these models span up to 128 chunks
        monkeypatch.setattr(oracle, "_CHUNK", 1 << 3)
        scm, evidence, interventions, target = case
        queries = [
            (lambda: wi.exact_counterfactual(scm, evidence, interventions, target),
             interventions, False),
            (lambda: wi.exact_interventional(scm, evidence, interventions, target),
             interventions, True),
            (lambda: wi.exact_observational(scm, evidence, target), {}, False),
        ]
        for answer, iv, condition_on_intervened in queries:
            assert_reference(answer, scm, evidence, iv, target, condition_on_intervened)

    @pytest.mark.parametrize("case", reference_cases()[-4:])
    def test_posterior_worlds_match_reference(self, monkeypatch, case):
        # the posterior over worlds, read off every node's marginal
        monkeypatch.setattr(oracle, "_CHUNK", 1 << 3)
        scm, evidence = case[0], case[1]
        for node in scm.nodes:
            assert_reference(lambda: wi.exact_observational(scm, evidence, node.id),
                             scm, evidence, {}, node.id, False)


def test_golden_counterfactuals():
    # (answer, the full-model enumeration's answer) in hex: the world-at-a-time
    # oracle this walk replaced summed every node's bit, and two answers
    # moved by one ulp when the walk came to cover only the query's ancestors
    golden = {
        (17, 0): ("0x1.15f10190b7255p-1", "0x1.15f10190b7254p-1"),
        (20, 1): ("0x1.ce889250220dbp-1", "0x1.ce889250220dbp-1"),
        (22, 2): ("0x1.fe54b1ec0cc15p-2", "0x1.fe54b1ec0cc15p-2"),
        (25, 0): ("0x1.06ebb3a4ee110p-1", "0x1.06ebb3a4ee110p-1"),
        (25, 1): ("0x1.0849a851ceb70p-1", "0x1.0849a851ceb6fp-1"),
    }
    for (n_blocks, i), (expected, full) in golden.items():
        scm, q = wi.generate_case(6, i, n_blocks)
        d, dv = q.intervention
        got = wi.exact_counterfactual(scm, q.evidence, {d: dv}, q.target)
        assert got.hex() == expected
        assert abs(got - float.fromhex(full)) <= math.ulp(got)


def test_a_query_frees_its_columns_without_gc():
    # a reference cycle holding a query's value columns would keep them
    # alive until the cyclic collector runs, query after query
    scm, q = wi.generate_case(6, 1, 20)
    d, dv = q.intervention
    gc.collect()
    gc.disable()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        wi.exact_counterfactual(scm, q.evidence, {d: dv}, q.target)
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
        gc.enable()
    assert kept < 1 << 16


class TestLowEvidenceCut:
    """The high phase runs only on the worlds the low evidence admits."""

    def threshold_rows(self, monkeypatch, scm):
        # high node id -> the row counts of its threshold's column arguments
        thetas = {id(node.theta): node.id for node in scm.nodes[3:] if node.kind == "dependent"}
        rows: dict[str, set[int]] = {}
        real = oracle.linear_threshold

        def counting(theta, parent_values):
            if id(theta) in thetas:
                rows.setdefault(thetas[id(theta)], set()).update(
                    v.size for v in parent_values if isinstance(v, np.ndarray)
                )
            return real(theta, parent_values)

        monkeypatch.setattr(oracle, "_CHUNK", 1 << 3)
        monkeypatch.setattr(oracle, "linear_threshold", counting)
        return rows

    def test_high_thresholds_see_only_admitted_rows(self, monkeypatch):
        scm = cut_model()
        rows = self.threshold_rows(monkeypatch, scm)
        evidence = {"b": True, "c": True, "g": True}
        low = {"b", "c"}
        # the low worlds the evidence admits that have mass; no high node
        # has on == 1, so a high bit of 0 zeroes no world's probability
        admitted = sum(
            world_prob(scm, w) > 0.0
            and all(world_values(scm, w, {})[nid] == evidence[nid] for nid in low)
            for w in range(1 << 3)
        )
        assert 0 < admitted < 1 << 3
        wi.exact_counterfactual(scm, evidence, {"a": False}, "g")
        assert rows == {"d": {admitted}, "f": {admitted}, "g": {admitted}}

    @pytest.mark.parametrize(
        "condition_on_intervened, evidence, interventions",
        [
            pytest.param(False, {"c": False}, {"e": True}, id="cf-no-mass"),
            pytest.param(True, {"c": False}, {"e": True}, id="iv-no-mass"),
            pytest.param(True, {"b": True}, {"b": False}, id="iv-forced"),
        ],
    )
    def test_impossible_low_evidence_stops_before_the_high_phase(
        self, monkeypatch, condition_on_intervened, evidence, interventions
    ):
        scm = cut_model()
        rows = self.threshold_rows(monkeypatch, scm)
        query = wi.exact_interventional if condition_on_intervened else wi.exact_counterfactual
        where = " under the intervened model" if condition_on_intervened else ""
        message = f"impossible evidence: {evidence!r} has probability zero{where}"
        with pytest.raises(wi.ImpossibleEvidenceError) as raised:
            query(scm, evidence, interventions, "g")
        assert str(raised.value) == message
        assert rows == {}


def padded(scm, low_at, high_at, ons):
    """scm with four nodes that no evidence or target on scm reaches: a root
    u0 and a child u1 of scm's first node at position low_at, a root u2 at
    position high_at of scm, and at the end a child u3 of u2 and scm's last
    node.  ons gives u0..u3 their p or q."""
    p0, q1, p2, q3 = ons
    nodes = list(scm.nodes)
    nodes.insert(high_at, ScmNode("u2", "prior", p=p2))
    nodes.append(ScmNode("u3", "dependent", parents=("u2", scm.nodes[-1].id),
                         theta=(0.25, 0.75), q=q3))
    nodes[low_at:low_at] = [
        ScmNode("u0", "prior", p=p0),
        ScmNode("u1", "dependent", parents=(scm.nodes[0].id, "u0"),
                theta=(0.625, 0.375), q=q1),
    ]
    return ScmSpec(tuple(nodes))


def answers(scm, evidence, interventions, target):
    """The hex of each kind of exact answer."""
    return [
        wi.exact_counterfactual(scm, evidence, interventions, target).hex(),
        wi.exact_interventional(scm, evidence, interventions, target).hex(),
        wi.exact_observational(scm, evidence, target).hex(),
    ]


class TestRelevance:
    """Nodes that neither the evidence nor the target depends on never enter
    the walk, so their bits and their p and q move no answer."""

    def test_irrelevant_nodes_move_no_bit(self):
        # 18 relevant nodes, so under 2^16-world chunks two of them are high
        scm, q = wi.generate_case(6, 0, 21)
        base = ancestor_model(scm, [*q.evidence, q.target])
        assert len(base.nodes) == 18
        d, dv = q.intervention
        expected = answers(base, q.evidence, {d: dv}, q.target)
        for ons in [(0.5, 0.5, 0.5, 0.5), (0.0, 1.0, 1.0, 0.0), (0.9, 0.05, 0.3, 0.7)]:
            # u2 lands between the two high relevant nodes
            model = padded(base, 3, 17, ons)
            assert answers(model, q.evidence, {d: dv}, q.target) == expected
            assert answers(model, q.evidence, {d: dv, "u1": True}, q.target) == expected

    def test_irrelevant_nodes_enter_no_threshold(self, monkeypatch):
        # under 8-world chunks an irrelevant low node would push c into the
        # high phase, and u2 would double every later high threshold sum
        base = cut_model()
        model = padded(base, 1, 4, (0.5, 0.5, 0.5, 0.5))
        owner = {id(n.theta): n.id for n in model.nodes if n.kind == "dependent"}
        assert len(owner) == 6
        calls = []
        real = oracle.linear_threshold

        def counting(theta, parent_values):
            calls.append((owner[id(theta)], tuple(np.size(v) for v in parent_values)))
            return real(theta, parent_values)

        monkeypatch.setattr(oracle, "_CHUNK", 1 << 3)
        monkeypatch.setattr(oracle, "linear_threshold", counting)
        logs = []
        for scm in (base, model):
            calls.clear()
            answers(scm, {"b": True, "g": True}, {"a": False}, "d")
            logs.append(list(calls))
        assert logs[0] and logs[1] == logs[0]
