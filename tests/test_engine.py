import copy
import gc
import math
from dataclasses import dataclass

import numpy as np
import pytest
from scipy.stats import truncnorm

import whatif as wi
from whatif import engine
from whatif.dists import OBSERVABLE, PLAIN, Bernoulli, Normal, Uniform
from whatif.engine import (
    BLOCK,
    abduction_sample,
    counterfactual_replay,
    descendant_closure,
    discover,
)
from whatif.errors import (
    EngineError,
    NoSurvivingSamplesError,
    StaleTraceError,
    UnobservableProcedureError,
)
from whatif.rng import RandomStream
from whatif.scm import build_program, generate_case
from whatif.trace import entry_contribution


def gaussian_program(ctx):
    # X, Z ~ N(0,1); Y = X + Z + eps, eps ~ N(0,2); the standard
    # continuous counterfactual example
    x = ctx.normal(0, 1, name="X")
    z = ctx.normal(0, 1, name="Z")
    y = ctx.observable_normal(x.value + z.value, 2, name="Y", depends_on=[x, z])
    ctx.observe(y, 1.2342)
    ctx.do(z, -2.5236, kind=wi.CF)
    ctx.predict(y.value, label="Y", counterfactual=True)


def two_node_program(ctx, evidence=True, kind=wi.CF, x_value=True):
    x = ctx.bernoulli(0.5, name="x")
    y = ctx.observable_bernoulli(x.value, 0.2, name="y", depends_on=[x])
    if evidence:
        ctx.observe(y, True)
    ctx.do(x, x_value, kind=kind)
    ctx.predict(y.value, label="y", counterfactual=True)


class TestWeights:
    def test_gaussian_abduction_weight_formula(self):
        # log w = logN(1.2342 - X - Z; 0, 2) for every sample
        res = wi.run_inference(gaussian_program, 200, seed=5, keep_traces=True)
        for (abd, _), lw in zip(res.traces, res.log_weights):
            x = abd["X"].value
            z = abd["Z"].value
            eps = 1.2342 - (x + z)
            assert abd["Y"].noise == eps
            assert lw == Normal(0, 2).log_density(eps)

    def test_proposal_weight_is_prior_over_proposal(self):
        def program(ctx):
            x = ctx.sample(Normal(0, 1), proposal=Normal(1, 1), name="x")
            ctx.predict(x.value, label="x")

        res = wi.run_inference(program, 300, seed=6, keep_traces=True)
        xs = []
        for (abd, _), lw in zip(res.traces, res.log_weights):
            x = abd["x"].value
            xs.append(x)
            assert lw == Normal(0, 1).log_density(x) - Normal(1, 1).log_density(x)
        assert abs(np.mean(xs) - 1.0) < 0.2  # drawn from the proposal

    @pytest.mark.parametrize(
        "spec",
        [wi.ObservableNormal(0, 1), wi.ObservableBernoulli(True, 0.1), wi.Delta(0.0)],
        ids=lambda spec: type(spec).__name__,
    )
    def test_proposal_a_family_cannot_use_is_refused(self, spec):
        # was dropped: ObservableNormal(0, 1) estimated about 0, from the prior
        def program(ctx):
            y = ctx.sample(spec, name="y", proposal=Normal(5, 1))
            ctx.predict(y.value, label="y")

        with pytest.raises(EngineError, match=f"{type(spec).__name__} at 'y' takes no proposal"):
            wi.run_inference(program, 10, seed=0)

    def test_replay_preserves_weight_bitwise(self):
        res = wi.run_inference(gaussian_program, 500, seed=2, keep_traces=True)
        for abd, rep in res.traces:
            assert rep is not None
            assert rep.log_weight == abd.log_weight

    def test_rejected_samples_counted_and_kept(self):
        def program(ctx):
            c = ctx.bernoulli(0.5, name="c")
            d = ctx.delta(c.value, name="d", depends_on=[c])
            ctx.observe(d, True)
            ctx.predict(c.value, label="c")

        res = wi.run_inference(program, 2000, seed=8)
        # hard conditioning by rejection: about half the prior draws miss
        assert 0.4 < res.n_rejected / 2000 < 0.6
        assert res.log_weights.shape == (2000,)
        assert np.isneginf(res.log_weights).sum() == res.n_rejected
        assert wi.estimate_expectation(res) == 1.0


class TestCounterfactuals:
    def test_two_node_flip_query(self):
        res = wi.run_inference(two_node_program, 50_000, seed=1)
        # posterior over the noise given y=1 reweights the forced world
        assert abs(wi.estimate_expectation(res) - 0.8) < 0.01

    def test_gaussian_counterfactual_mean(self):
        res = wi.run_inference(gaussian_program, 20_000, seed=4)
        assert abs(wi.estimate_expectation(res) - (5 * 1.2342 / 6 - 2.5236)) < 0.02

    def test_families_defined_outside_dists(self):
        res = wi.run_inference(outside_families_program, 4000, seed=3)
        x_mean = truncnorm.mean(-0.3, 1.7)
        est = wi.estimate_expectation(res)
        w = np.exp(res.log_weights - res.log_weights.max())
        w /= w.sum()
        z = np.array([p["z"] for p in res.predictions])
        se = math.sqrt(float(w**2 @ (z - est) ** 2))
        assert 0 < res.n_rejected < 4000  # y's uniform noise cannot reach every x
        assert abs(est - (1.5 + 0.7 - x_mean + 1.0)) < 5 * se

    def test_iv_and_cf_agree_without_evidence(self):
        # with no evidence the abducted world is the prior, so forcing in
        # all phases or only in replay gives the same distribution
        cf = wi.run_inference(
            lambda ctx: two_node_program(ctx, evidence=False, kind=wi.CF),
            30_000,
            seed=6,
        )
        iv = wi.run_inference(
            lambda ctx: two_node_program(ctx, evidence=False, kind=wi.IV),
            30_000,
            seed=7,
        )
        a, b = wi.estimate_expectation(cf), wi.estimate_expectation(iv)
        se = 3 * math.sqrt(0.8 * 0.2 / 30_000)
        assert abs(a - 0.8) < se
        assert abs(b - 0.8) < se

    def test_cf_on_observed_address_flips_the_observation(self):
        # "what if the observed variable had been False instead"
        def program(ctx):
            x = ctx.bernoulli(0.5, name="x")
            y = ctx.observable_bernoulli(x.value, 0.2, name="y", depends_on=[x])
            z = ctx.observable_bernoulli(y.value, 0.1, name="z", depends_on=[y])
            ctx.observe(y, True)
            ctx.do(y, False, kind=wi.CF)
            ctx.predict(z.value, label="z")

        res = wi.run_inference(program, 30_000, seed=9)
        # downstream of the forced flip, z rethrows its abducted noise:
        # P(z' = 1) = P(noise_z = 1 | y=1, z unobserved) = 0.1
        assert abs(wi.estimate_expectation(res) - 0.1) < 0.01

    def test_evaluation_counts(self):
        calls = [0]

        def counting(ctx):
            calls[0] += 1
            two_node_program(ctx)

        wi.run_inference(counting, 50, seed=0)
        assert calls[0] == 2 * 50 + 1  # discovery + N abductions + N replays

        calls[0] = 0

        def counting_iv(ctx):
            calls[0] += 1
            two_node_program(ctx, kind=wi.IV)

        wi.run_inference(counting_iv, 50, seed=0)
        assert calls[0] == 50 + 1  # no replay needed


class TestReplay:
    def plan_and_trace(self, program, seed=3, index=0):
        plan = discover(program)
        return plan, abduction_sample(program, plan, seed, index)

    def test_no_intervention_identity(self):
        def program(ctx):
            x = ctx.normal(0, 1, name="x")
            y = ctx.observable_normal(x.value, 1, name="y", depends_on=[x])
            ctx.observe(y, 0.5)
            ctx.predict(y.value, label="y")

        plan, abd = self.plan_and_trace(program)
        rep = counterfactual_replay(abd, plan, program, 3, 0)
        assert rep.log_weight == abd.log_weight
        for addr, entry in abd.entries.items():
            assert rep[addr].value == entry.value

    def test_non_descendants_carry_over_bitwise(self):
        def program(ctx):
            a = ctx.normal(0, 1, name="a")
            b = ctx.normal(0, 1, name="b")
            c = ctx.observable_normal(a.value + b.value, 1, name="c", depends_on=[a, b])
            ctx.observe(c, 0.3)
            ctx.do(b, 9.0, kind=wi.CF)
            ctx.predict(c.value, label="c")

        plan, abd = self.plan_and_trace(program)
        rep = counterfactual_replay(abd, plan, program, 3, 0)
        assert rep["a"].value == abd["a"].value  # not downstream of b
        assert rep["b"].value == 9.0
        # c reruns its function under the abducted noise
        assert rep["c"].value == abd["a"].value + 9.0 + abd["c"].noise

    def test_intervention_opened_branch_draws_from_prior(self):
        def program(ctx):
            x = ctx.bernoulli(0.5, name="x")
            if x.value:
                y = ctx.normal(10, 1, name="hot")
            else:
                y = ctx.normal(-10, 1, name="cold")
            ctx.do(x, True, kind=wi.CF)
            ctx.predict(y.value, label="y")

        plan = discover(program)
        # find an abduction where x came out False so replay opens "hot"
        for i in range(50):
            abd = abduction_sample(program, plan, 12, i)
            if abd["x"].value is False:
                rep = counterfactual_replay(abd, plan, program, 12, i)
                assert "hot" in rep
                assert rep["hot"].value > 0  # fresh prior draw near +10
                assert rep.log_weight == abd.log_weight
                return
        pytest.fail("no abduction sampled x=False")

    def test_branch_unseen_by_discovery_is_rerun(self):
        # Which observable a sample instantiates depends on a coin, so
        # half the samples use an address the discovery execution never
        # saw; each must still rerun under do(Z=10).
        def program(ctx):
            z = ctx.normal(0, 1, name="Z")
            coin = ctx.bernoulli(0.5, name="coin")
            name = "Y" if coin.value else "Y2"
            y = ctx.observable_normal(z.value, 0.1, name=name, depends_on=[z])
            ctx.do(z, 10.0, kind=wi.CF)
            ctx.predict(y.value, label="y")

        res = wi.run_inference(program, 4000, seed=3)
        assert abs(wi.estimate_expectation(res) - 10.0) < 0.05

    def test_missing_address_without_intervention_is_stale(self):
        def small(ctx):
            ctx.normal(0, 1, name="a")
            ctx.predict(0.0, label="p")

        def bigger(ctx):
            ctx.normal(0, 1, name="a")
            ctx.normal(0, 1, name="b")
            ctx.predict(0.0, label="p")

        plan, abd = self.plan_and_trace(small)
        with pytest.raises(StaleTraceError, match="stale trace"):
            counterfactual_replay(abd, plan, bigger, 3, 0)

    def test_carried_choices_are_the_abducted_entries(self):
        def program(ctx):
            a = ctx.normal(0, 1, name="a")
            b = ctx.normal(0, 1, name="b")
            e = ctx.normal(0, 1, name="e")
            u = ctx.observable_normal(a.value, 1, name="u", depends_on=[a])
            ctx.observe(u, 0.2)
            c = ctx.observable_normal(a.value + b.value, 1, name="c", depends_on=[a, b])
            ctx.observe(c, 0.3)
            d = ctx.delta(c.value + e.value, name="d", depends_on=[c, e])
            ctx.do(b, 9.0, kind=wi.CF)
            ctx.do(e, 1.0, kind=wi.IV)
            ctx.predict(d.value, label="d")

        plan, abd = self.plan_and_trace(program)
        rep = counterfactual_replay(abd, plan, program, 3, 0)
        # a and the observed u are not downstream of b: replay holds the
        # abducted objects themselves, with the abduction's weight fields
        for addr in ("a", "u"):
            assert rep[addr] is abd[addr]
        assert rep["u"].log_prior != 0.0
        # forced (cf and iv) and downstream choices are entries of their own
        for addr in ("b", "e", "c", "d"):
            assert rep[addr] is not abd[addr]
        assert rep["b"].value == 9.0 and rep["e"].value == 1.0
        assert rep.log_weight == abd.log_weight

    def test_carried_address_issued_twice_collides(self):
        def program(ctx):
            a = ctx.normal(0, 1, name="a")
            b = ctx.bernoulli(0.5, name="b")
            ctx.do(b, True, kind=wi.CF)
            if not ctx.observing():
                ctx.normal(0, 1, name="a")  # only replay issues a twice
            ctx.predict(a.value, label="a")

        plan, abd = self.plan_and_trace(program)
        with pytest.raises(wi.AddressCollisionError, match="'a' already recorded"):
            counterfactual_replay(abd, plan, program, 3, 0)
        with pytest.raises(wi.AddressCollisionError, match="'a' already recorded"):
            wi.run_inference(program, 5, seed=0)

    def test_carried_choice_with_new_parents_records_them(self):
        def program(ctx):
            w = ctx.normal(0, 1, name="w")
            x = ctx.normal(0, 1, name="x")
            t = ctx.normal(0, 1, name="t")
            # replay declares one more untainted parent than abduction did
            parents = [w] if ctx.observing() else [w, x]
            y = ctx.observable_normal(w.value, 1, name="y", depends_on=parents)
            ctx.do(t, 2.0, kind=wi.CF)
            ctx.predict(y.value + t.value, label="s")

        plan, abd = self.plan_and_trace(program)
        rep = counterfactual_replay(abd, plan, program, 3, 0)
        assert rep["w"] is abd["w"] and rep["x"] is abd["x"]
        assert rep["y"] is not abd["y"]
        assert abd["y"].parents == ("w",)
        assert rep["y"].parents == ("w", "x")
        assert (rep["y"].value, rep["y"].noise) == (abd["y"].value, abd["y"].noise)


class TestStatements:
    def test_observation_unseen_by_discovery_is_stale(self):
        def program(ctx):
            y = ctx.observable_normal(0, 1, name="y")
            if not ctx.intervening():  # discovery never observes y
                ctx.observe(y, 1.0)

        plan = discover(program)
        with pytest.raises(StaleTraceError, match="observation at 'y'"):
            abduction_sample(program, plan, 0, 0)

    def test_intervention_unseen_by_discovery_is_stale(self):
        # was ignored: the samples ran as if no do had been issued
        def program(ctx):
            x = ctx.bernoulli(0.5, name="x")
            y = ctx.observable_bernoulli(x.value, 0.1, name="y", depends_on=[x])
            if not ctx.intervening():  # discovery never reaches the do
                ctx.do(x, True)
            ctx.predict(y.value, label="y")

        with pytest.raises(StaleTraceError, match="intervention at 'x'"):
            abduction_sample(program, discover(program), 0, 0)
        with pytest.raises(StaleTraceError, match="intervention at 'x'"):
            wi.run_inference(program, 10, seed=0)

    def test_do_value_drawn_per_execution_is_stale(self):
        # was silently forced to discovery's draw of a: the estimate read
        # 0.2093 (discovery drew a = 0.2182) where each execution's own a
        # gives about 0
        def program(ctx):
            a = ctx.normal(0, 1, name="a")
            x = ctx.normal(0, 1, name="x")
            y = ctx.observable_normal(x.value, 1, name="y", depends_on=[x])
            ctx.do(x, a.value, kind=wi.CF)
            ctx.predict(y.value)

        match = r"intervention at 'x' is Intervention\(value=-?\d"
        with pytest.raises(StaleTraceError, match=match):
            wi.run_inference(program, 2000, seed=0)

    def test_observation_value_drawn_per_execution_is_stale(self):
        # was silently conditioned on discovery's draw of a
        def program(ctx):
            a = ctx.normal(0, 1, name="a")
            x = ctx.normal(0, 1, name="x")
            y = ctx.observable_normal(x.value, 1, name="y", depends_on=[x])
            ctx.observe(y, a.value)
            ctx.predict(x.value)

        with pytest.raises(StaleTraceError, match="observation at 'y' is .*, not discovery's"):
            wi.run_inference(program, 2000, seed=0)

    @pytest.mark.parametrize("phase", ["abduction", "replay"])
    def test_do_kind_or_value_unlike_discovery_is_stale(self, phase):
        # discovery and abduction both observe, so ctx.observing() tells
        # replay apart; ctx.intervening() tells discovery apart
        def changes(ctx):
            return not ctx.observing() if phase == "replay" else not ctx.intervening()

        def kind_program(ctx):
            two_node_program(ctx, kind=wi.IV if changes(ctx) else wi.CF)

        def value_program(ctx):
            two_node_program(ctx, x_value=not changes(ctx))

        plan = discover(two_node_program)
        cases = ((kind_program, "kind='iv'"), (value_program, r"value=False, kind='cf'\)"))
        for program, match in cases:
            with pytest.raises(StaleTraceError, match=f"intervention at 'x' is .*{match}"):
                trace = abduction_sample(program, plan, 0, 0)
                counterfactual_replay(trace, plan, program, 0, 0)

    def test_recomputed_equal_statement_values_pass(self):
        # equal values need not be the same object, and numpy scalars equal
        # their Python twins
        def program(ctx):
            x = ctx.normal(0, 1, name="x")
            y = ctx.observable_normal(x.value, 1, name="y", depends_on=[x])
            ctx.observe(y, float(np.float64(0.25) + 0.5) if ctx.intervening() else np.float64(0.75))
            ctx.do(x, [0.5][0] * 2, kind=wi.CF)
            ctx.predict(y.value)

        res = wi.run_inference(program, 50, seed=0)
        assert res.executions == {"discovery": 1, "abduction": 50, "replay": 50}

    def test_predicts_must_match_discovery(self):
        def extra(ctx):
            ctx.predict(1.0, label="p")
            if not ctx.intervening():
                ctx.predict(2.0, label="q")

        def relabelled(ctx):
            ctx.predict(1.0, label="p" if ctx.intervening() else "q")

        with pytest.raises(StaleTraceError, match="not present during discovery"):
            abduction_sample(extra, discover(extra), 0, 0)
        with pytest.raises(StaleTraceError, match="label changed"):
            abduction_sample(relabelled, discover(relabelled), 0, 0)

    def test_skipped_predict_names_the_missing_label(self):
        # was a bare KeyError: 'a' from estimate_expectation, when discovery
        # took the predict and some abduction execution did not
        def program(ctx):
            c = ctx.bernoulli(0.5, name="c")
            if c.value:
                ctx.predict(1.0, label="a")

        for seed in range(6):
            took = bool(discover(program, seed=seed).predicts)
            match = "predict 'a' recorded during discovery" if took else "not present"
            with pytest.raises(StaleTraceError, match=match):
                wi.estimate_expectation(wi.run_inference(program, 50, seed=seed), "a")
        # the single-execution path checks it too
        plan = discover(program, seed=0)
        assert plan.predicts == [("a", True)]
        skipped = 0
        for i in range(20):
            try:
                assert abduction_sample(program, plan, 0, i).predictions == [("a", 1.0)]
            except StaleTraceError as exc:
                assert "predict 'a'" in str(exc)
                skipped += 1
        assert 0 < skipped < 20

    def test_replay_may_skip_a_predict(self):
        # a cf do can change control flow; abduction's fallback value stands
        def program(ctx):
            x = ctx.observable_bernoulli(True, 0.0, name="x")
            ctx.do(x, False)
            if x.value:
                ctx.predict(1.0, label="a")

        res = wi.run_inference(program, 20, seed=0)
        assert res.executions["replay"] == 20
        assert wi.estimate_expectation(res, "a") == 1.0

    def test_observe_plain_procedure_rejected(self):
        def program(ctx):
            x = ctx.normal(0, 1, name="x")
            ctx.observe(x, 0.5)

        with pytest.raises(UnobservableProcedureError, match="unobservable procedure"):
            wi.run_inference(program, 5, seed=0)

    def test_observe_intervened_address_rejected(self):
        def program(ctx):
            y = ctx.observable_normal(0, 1, name="y")
            ctx.do(y, 2.0, kind=wi.IV)
            ctx.observe(y, 1.0)

        with pytest.raises(EngineError, match="observe intervened"):
            wi.run_inference(program, 5, seed=0)

    def test_observe_and_cf_do_answer_in_either_order(self):
        # a cf do forces y only in replay, so abduction still absorbs the
        # evidence on y, whichever statement comes first
        def program(ctx, do_first):
            x = ctx.normal(0, 1, name="x")
            y = ctx.observable_normal(x.value, 1, name="y", depends_on=[x])
            if do_first:
                ctx.do(y, 3.0, kind=wi.CF)
            ctx.observe(y, 1.0)
            if not do_first:
                ctx.do(y, 3.0, kind=wi.CF)
            z = ctx.observable_normal(x.value + y.value, 0.5, name="z", depends_on=[x, y])
            ctx.predict(z.value, label="z")

        runs = [wi.run_inference(lambda ctx, f=f: program(ctx, f), 300, seed=4)
                for f in (True, False)]
        assert runs[0].log_weights.tobytes() == runs[1].log_weights.tobytes()
        assert np.isfinite(runs[0].log_weights).all()
        est = wi.estimate_expectation(runs[0])
        assert est.hex() == wi.estimate_expectation(runs[1]).hex()
        assert abs(est - 3.5) < 0.3  # E[x | y = 1] + 3, as x | y = 1 is N(0.5, 0.5)

    def test_iv_on_observed_address_rejected(self):
        def program(ctx):
            y = ctx.observable_normal(0, 1, name="y")
            ctx.observe(y, 1.0)
            ctx.do(y, 2.0, kind=wi.IV)

        with pytest.raises(EngineError, match="iv-intervene"):
            wi.run_inference(program, 5, seed=0)

    def test_duplicate_statements_rejected(self):
        def dup_obs(ctx):
            y = ctx.observable_normal(0, 1, name="y")
            ctx.observe(y, 1.0)
            ctx.observe(y, 2.0)

        def dup_do(ctx):
            x = ctx.normal(0, 1, name="x")
            ctx.do(x, 1.0)
            ctx.do(x, 2.0)

        with pytest.raises(EngineError, match="duplicate observation"):
            wi.run_inference(dup_obs, 5, seed=0)
        with pytest.raises(EngineError, match="duplicate intervention"):
            wi.run_inference(dup_do, 5, seed=0)

    def test_unknown_intervention_kind_rejected(self):
        def program(ctx):
            x = ctx.normal(0, 1, name="x")
            ctx.do(x, 1.0, kind="weird")

        with pytest.raises(ValueError, match="'cf' or 'iv'"):
            wi.run_inference(program, 5, seed=0)

    def test_non_string_intervention_kind_rejected(self):
        # was an AttributeError from kind.lower()
        def program(ctx):
            x = ctx.normal(0, 1, name="x")
            ctx.do(x, 1.0, kind=None)

        with pytest.raises(ValueError, match="'cf' or 'iv', got None"):
            wi.run_inference(program, 5, seed=0)

    def test_predict_auto_labels_and_duplicates(self):
        def program(ctx):
            x = ctx.normal(0, 1, name="x")
            ctx.predict(x.value)
            ctx.predict(x.value * 2)

        res = wi.run_inference(program, 3, seed=0)
        assert set(res.predictions[0]) == {"predict:0", "predict:1"}

        def dup(ctx):
            x = ctx.normal(0, 1, name="x")
            ctx.predict(x.value, label="p")
            ctx.predict(x.value, label="p")

        with pytest.raises(EngineError, match="duplicate predict"):
            wi.run_inference(dup, 3, seed=0)

    def test_factual_predict_ignores_replay(self):
        def program(ctx):
            x = ctx.bernoulli(0.5, name="x")
            ctx.do(x, True, kind=wi.CF)
            ctx.predict(x.value, label="factual", counterfactual=False)
            ctx.predict(x.value, label="twin", counterfactual=True)

        res = wi.run_inference(program, 4000, seed=3)
        assert wi.estimate_expectation(res, "twin") == 1.0
        assert abs(wi.estimate_expectation(res, "factual") - 0.5) < 0.05

    def test_address_collision_detected(self):
        def plain(ctx):
            ctx.normal(0, 1, name="x")
            ctx.normal(0, 1, name="x")

        def observable(ctx):
            ctx.observable_normal(0, 1, name="y")
            ctx.observable_normal(0, 1, name="y")

        # the error names the address the program wrote
        for program, addr in ((plain, "x"), (observable, "y")):
            with pytest.raises(wi.AddressCollisionError, match=f"'{addr}' already recorded"):
                wi.run_inference(program, 3, seed=0)

    @pytest.mark.parametrize("depends_on", ["values", "bare handle"])
    def test_depends_on_misuse_names_the_address(self, depends_on):
        def program(ctx):
            x = ctx.normal(0, 1, name="x")
            parents = [x.value] if depends_on == "values" else x
            ctx.observable_normal(x.value, 1, name="y", depends_on=parents)
            ctx.predict(x.value, label="x")

        with pytest.raises(EngineError, match="depends_on of 'y'"):
            wi.run_inference(program, 1, seed=0)

    @pytest.mark.parametrize("depends_on", ["values", "bare handle"])
    def test_depends_on_misuse_names_the_automatic_address(self, depends_on):
        def program(ctx):
            x = ctx.normal(0, 1, name="x")
            parents = [x.value] if depends_on == "values" else x
            ctx.observable_normal(x.value, 1, depends_on=parents)
            ctx.predict(x.value, label="x")

        with pytest.raises(EngineError, match="depends_on of 'auto:0'"):
            wi.run_inference(program, 1, seed=0)

    @pytest.mark.parametrize("n", [0, -3])
    def test_sample_count_below_one_refused_before_discovery(self, n):
        calls = [0]

        def program(ctx):
            calls[0] += 1
            two_node_program(ctx)

        with pytest.raises(ValueError, match=f"n_samples must be at least 1, got {n}"):
            wi.run_inference(program, n, seed=0)
        assert calls[0] == 0

    @pytest.mark.parametrize("n", [True, 1.5, "3"])
    def test_non_integer_sample_count_refused_before_discovery(self, n):
        # True ran one sample, 1.5 failed in range() after discovery, "3" at the < test
        calls = [0]

        def program(ctx):
            calls[0] += 1
            two_node_program(ctx)

        with pytest.raises(TypeError, match=f"n_samples must be an integer, got {n!r}"):
            wi.run_inference(program, n, seed=0)
        assert calls[0] == 0
        assert wi.run_inference(program, np.int64(3), seed=0).executions["abduction"] == 3

    @pytest.mark.parametrize(
        "param, value",
        [("workers", 1.5), ("workers", "2"), ("workers", True), ("seed", 1.5), ("seed", "7"),
         ("seed", None)],
    )
    def test_non_integer_workers_or_seed_refused_before_discovery(self, param, value):
        # workers=1.5 failed in np.linspace after discovery, "2" at the <= test,
        # seed=1.5 in rng's masking
        calls = [0]

        def program(ctx):
            calls[0] += 1
            two_node_program(ctx)

        with pytest.raises(TypeError, match=f"{param} must be an integer, got {value!r}"):
            wi.run_inference(program, 3, **{param: value})
        assert calls[0] == 0
        numpy_int = wi.run_inference(program, 3, **{param: np.int64(2)})
        plain_int = wi.run_inference(program, 3, **{param: 2})
        assert numpy_int.log_weights.tobytes() == plain_int.log_weights.tobytes()

    @pytest.mark.parametrize("where", ["discovery", "abduction", "replay", "proposal"])
    def test_unknown_family_names_the_address_and_family(self, where):
        # was an AttributeError for the missing sample_noise
        class MyDist:
            pass

        def program(ctx):
            if where in ("discovery", "proposal"):
                ctx.sample(MyDist(), name="x", proposal=MyDist() if where == "proposal" else None)
                return
            # discovery and abduction draw x False; the do opens y's branch
            x = ctx.bernoulli(0.0, name="x")
            ctx.do(x, True, kind=wi.IV if where == "abduction" else wi.CF)
            if x.value:
                ctx.sample(MyDist(), name="y", depends_on=[x])
            ctx.predict(x.value, label="x")

        addr = "y" if where in ("abduction", "replay") else "x"
        if where == "proposal":
            what = "takes no proposal"
        else:
            what = "is not a family: its class must declare kind"
        with pytest.raises(EngineError, match=f"MyDist at '{addr}' {what}"):
            wi.run_inference(program, 3, seed=0)


class TestExecutionCounts:
    @pytest.mark.parametrize("workers", [1, 3])
    def test_counterfactual_counts_one_n_and_n(self, workers):
        n = 2 * BLOCK + 3
        res = wi.run_inference(gaussian_program, n, seed=5, workers=workers)
        assert res.executions == {"discovery": 1, "abduction": n, "replay": n}
        assert set(res.phase_seconds) == set(res.executions)
        assert all(t > 0.0 for t in res.phase_seconds.values())

    def test_rejected_samples_are_not_replayed(self):
        def program(ctx):
            c = ctx.bernoulli(0.5, name="c")
            d = ctx.delta(c.value, name="d", depends_on=[c])
            ctx.observe(d, True)
            ctx.do(c, False, kind=wi.CF)
            ctx.predict(d.value, label="d")

        res = wi.run_inference(program, 300, seed=8)
        assert 0 < res.n_rejected < 300
        assert res.executions == {
            "discovery": 1, "abduction": 300, "replay": 300 - res.n_rejected,
        }

    def test_no_cf_do_runs_no_replay(self):
        res = wi.run_inference(lambda ctx: two_node_program(ctx, kind=wi.IV), 50, seed=0)
        assert res.executions == {"discovery": 1, "abduction": 50, "replay": 0}
        assert res.phase_seconds["replay"] == 0.0

    def test_worker_count_leaves_counts_alone(self):
        def program(ctx):
            c = ctx.bernoulli(0.3, name="c")
            y = ctx.observable_bernoulli(c.value, 0.0, name="y", depends_on=[c])
            ctx.observe(y, True)
            ctx.do(c, False, kind=wi.CF)
            ctx.predict(y.value, label="y")

        one = wi.run_inference(program, 400, seed=4, workers=1)
        three = wi.run_inference(program, 400, seed=4, workers=3)
        assert 0 < one.n_rejected < 400
        assert one.executions == three.executions
        assert one.executions["replay"] == 400 - one.n_rejected


class TestAddresses:
    def test_auto_addresses_count_unnamed_choices_in_order(self):
        def program(ctx):
            a = ctx.normal(0, 1)
            b = ctx.normal(a.value, 1, depends_on=[a])
            c = ctx.normal(b.value, 1, depends_on=[b])
            ctx.predict(c.value, label="c")

        res = wi.run_inference(program, 2, seed=0, keep_traces=True)
        for abd, _ in res.traces:
            assert list(abd.entries) == ["auto:0", "auto:1", "auto:2"]

    def test_user_keys_do_not_advance_auto_counter(self):
        def program(ctx):
            a = ctx.normal(0, 1)
            x = ctx.normal(0, 1, name="X")
            b = ctx.normal(a.value + x.value, 1, depends_on=[a, x])
            ctx.predict(b.value, label="b")

        res = wi.run_inference(program, 2, seed=0, keep_traces=True)
        for abd, _ in res.traces:
            assert list(abd.entries) == ["auto:0", "X", "auto:1"]

    def test_user_key_colliding_with_auto_address_raises(self):
        def program(ctx):
            ctx.normal(0, 1, name="auto:0")
            ctx.normal(0, 1)

        with pytest.raises(wi.AddressCollisionError, match="address collision"):
            wi.run_inference(program, 1, seed=0)

    def test_handle_is_the_recorded_entry(self):
        same = []

        def program(ctx):
            x = ctx.normal(0, 1, name="x")
            y = ctx.observable_normal(x.value, 1, name="y", depends_on=[x])
            ctx.observe(y, 0.5)
            ctx.do(x, 2.0, kind=wi.CF)
            same.append(x is ctx.trace["x"] and y is ctx.trace["y"])
            ctx.predict(y.value, label="y")

        wi.run_inference(program, 3, seed=0)
        assert same == [True] * (2 * 3 + 1)


class TestDeltaConditioning:
    def test_bool_equality_never_uses_tolerance(self):
        def program(ctx):
            x = ctx.delta(True, name="x")
            ctx.observe(x, False)
            ctx.predict(1.0, label="p")

        res = wi.run_inference(program, 5, seed=0)
        assert res.degenerate


class TestLazyGates:
    def test_value_if_needed_memoizes(self):
        runs = [0]

        def program(ctx):
            def thunk():
                runs[0] += 1
                return ctx.normal(0, 1, name="x")

            a = ctx.value_if_needed("x", thunk)
            b = ctx.value_if_needed("x", thunk)
            assert a is b is ctx.trace["x"]
            ctx.predict(a.value, label="x")

        wi.run_inference(program, 1, seed=0)
        assert runs[0] == 2  # once in discovery, once in abduction

    def test_forced_address_skips_ancestors(self):
        def program(ctx):
            def make_parent():
                return ctx.normal(0, 1, name="parent")

            def make_child():
                p = ctx.value_if_needed("parent", make_parent)
                return ctx.normal(p.value, 1, name="child", depends_on=[p])

            c = ctx.value_if_needed("child", make_child)
            if ctx.intervening():
                ctx.do(c, 5.0, kind=wi.IV)
            ctx.predict(c.value, label="child")

        res = wi.run_inference(program, 20, seed=0, keep_traces=True)
        assert wi.estimate_expectation(res) == 5.0
        for abd, _ in res.traces:
            assert "parent" not in abd  # never evaluated under the force

    def test_value_if_needed_passes_its_arguments_to_the_thunk(self):
        calls = []

        def thunk(ctx, name, mean=0.0):
            calls.append((name, mean))
            return ctx.normal(mean, 1, name=name)

        def program(ctx):
            a = ctx.value_if_needed("a", thunk, ctx, "a", 3.0)
            b = ctx.value_if_needed("b", lambda: ctx.normal(a.value, 1, name="b", depends_on=[a]))
            assert ctx.value_if_needed("a", thunk, ctx, "a", 9.0) is a  # a hit runs nothing
            ctx.predict(b.value, label="b")

        res = wi.run_inference(program, 2, seed=0, keep_traces=True)
        assert calls == [("a", 3.0)] * 3  # discovery and two abductions
        assert [abd["b"].parents for abd, _ in res.traces] == [("a",), ("a",)]

    @pytest.mark.parametrize("kind", [wi.CF, wi.IV])
    @pytest.mark.parametrize("style", ["eager", "lazy"])
    def test_scm_parents_are_the_model_edges(self, style, kind):
        scm, query = generate_case(0, 3, 12)
        query.kind = kind
        query.evidence.pop(query.intervention[0], None)  # an iv do forces no evidence node
        program = build_program(scm, query, style)
        edges = {n.id: n.parents for n in scm.nodes}
        plan = discover(program)
        if style == "eager":
            assert plan.parents == edges
        else:  # lazy discovery reaches only the statements' ancestors
            assert plan.parents == {a: edges[a] for a in plan.parents}
        res = wi.run_inference(program, 20, seed=1, keep_traces=True)
        recorded = [e for pair in res.traces for t in pair if t is not None
                    for e in t.entries.values()]
        assert any(e.role == "intervened" and e.parents for e in recorded)
        for entry in recorded:
            assert entry.parents == edges[entry.address]

    def test_thunk_address_mismatch_rejected(self):
        def program(ctx):
            ctx.value_if_needed("x", lambda: ctx.normal(0, 1, name="other"))

        with pytest.raises(EngineError, match="value_if_needed"):
            wi.run_inference(program, 1, seed=0)


class TestEstimators:
    def test_ess_raw_weight_example(self):
        # weights 2,1,1: (4)^2 / 6 = 16/6
        lw = np.log([2.0, 1.0, 1.0])
        assert math.isclose(wi.ess(lw), 16 / 6, rel_tol=1e-12)

    def test_ess_uniform_weights_is_exact_n(self):
        assert wi.ess(np.zeros(137)) == 137.0

    def test_ess_ignores_rejected(self):
        lw = np.array([0.0, 0.0, -np.inf])
        assert wi.ess(lw) == 2.0
        assert wi.ess(np.array([-np.inf])) == 0.0
        assert wi.ess(np.array([])) == 0.0

    def test_estimate_weighted_example(self):
        # values 1,0 with weights 3,1 -> 0.75
        res = wi.InferenceResult(
            predictions=[{"t": 1.0}, {"t": 0.0}],
            log_weights=np.log([3.0, 1.0]),
            n_samples=2,
            n_rejected=0,
            wall_seconds=0.0,
        )
        assert wi.estimate_expectation(res) == 0.75

    def test_estimate_requires_label_when_ambiguous(self):
        res = wi.InferenceResult(
            predictions=[{"a": 1.0, "b": 2.0}],
            log_weights=np.zeros(1),
            n_samples=1,
            n_rejected=0,
            wall_seconds=0.0,
        )
        with pytest.raises(ValueError, match="pass label"):
            wi.estimate_expectation(res)
        assert wi.estimate_expectation(res, "b") == 2.0

    def test_estimate_names_a_missing_predict_statement(self):
        def program(ctx):
            ctx.normal(0, 1, name="x")

        res = wi.run_inference(program, 3, seed=0)
        for label in (None, "x"):
            with pytest.raises(ValueError, match="program has no predict statement"):
                wi.estimate_expectation(res, label)

    def test_estimate_names_a_label_no_prediction_carries(self):
        res = wi.run_inference(two_node_program, 3, seed=0)
        with pytest.raises(ValueError, match=r"no predictions labelled 'nope'; it has \['y'\]"):
            wi.estimate_expectation(res, "nope")

    def test_estimate_raises_when_all_rejected(self):
        res = wi.InferenceResult(
            predictions=[{"t": 1.0}],
            log_weights=np.array([-np.inf]),
            n_samples=1,
            n_rejected=1,
            wall_seconds=0.0,
            degenerate=True,
        )
        with pytest.raises(NoSurvivingSamplesError, match="no surviving samples"):
            wi.estimate_expectation(res)


class TestParallel:
    def test_worker_partition_is_invisible(self):
        r1 = wi.run_inference(gaussian_program, 2000, seed=13, workers=1)
        r4 = wi.run_inference(gaussian_program, 2000, seed=13, workers=4)
        assert (r1.log_weights == r4.log_weights).all()
        assert wi.estimate_expectation(r1) == wi.estimate_expectation(r4)

    def test_more_workers_than_samples(self):
        r = wi.run_inference(gaussian_program, 3, seed=0, workers=8)
        assert r.n_samples == 3

    def test_closure_program_on_workers(self):
        observed = 1.2342

        def program(ctx):
            x = ctx.normal(0, 1, name="X")
            y = ctx.observable_normal(x.value, 2, name="Y", depends_on=[x])
            ctx.observe(y, observed)
            ctx.predict(x.value, label="X")

        r1 = wi.run_inference(program, 500, seed=13, workers=1)
        r2 = wi.run_inference(program, 500, seed=13, workers=2)
        assert r1.log_weights.tobytes() == r2.log_weights.tobytes()
        assert r1.predictions == r2.predictions


def noisy_or_program(ctx):
    # y observed True absorbs up to five raws from one stream, more than
    # a key block draws ahead
    parents = [ctx.bernoulli(0.6, name=f"p{j}") for j in range(4)]
    y = ctx.observable_noisy_or(
        0.9, [0.3, 0.4, 0.5, 0.2], [p.value for p in parents], name="y", depends_on=parents
    )
    ctx.observe(y, True)
    ctx.do(parents[0], False, kind=wi.CF)
    ctx.predict(y.value, label="y")


def beta_program(ctx):
    # shape 0.5 is boosted through a Gamma(1.5) rejection loop
    p = ctx.beta(0.5, 2.0, name="p")
    c = ctx.observable_bernoulli(p.value > 0.2, 0.1, name="c", depends_on=[p])
    ctx.observe(c, True)
    ctx.do(c, False, kind=wi.CF)
    ctx.predict(p.value, label="p", counterfactual=False)


def coin_branch_program(ctx):
    # Y or Y2, and auto:0 or auto:1, depending on a coin: discovery sees
    # only one branch, so the other streams are not in any key block
    z = ctx.normal(0, 1, name="Z")
    coin = ctx.bernoulli(0.5, name="coin")
    if coin.value:
        ctx.uniform(0, 1)
    u = ctx.uniform(0, 1)
    name = "Y" if coin.value else "Y2"
    y = ctx.observable_normal(z.value + u.value, 0.1, name=name, depends_on=[z, u])
    ctx.do(z, 10.0, kind=wi.CF)
    ctx.predict(y.value, label="y")


def uniform_program(ctx):
    u = ctx.uniform(-1, 3, name="u")
    y = ctx.observable_normal(u.value, 0.5, name="y", depends_on=[u])
    ctx.observe(y, 1.0)
    ctx.do(u, 0.0, kind=wi.CF)
    ctx.predict(y.value, label="y")


def proposal_program(ctx):
    # every plain family under a proposal; the Uniform and Bernoulli
    # proposals reach outside their priors' support, scoring -inf
    x = ctx.sample(Normal(0, 1), proposal=Normal(1, 2), name="x")
    u = ctx.sample(Uniform(0, 1), proposal=Uniform(-0.1, 1.2), name="u")
    c = ctx.sample(Bernoulli(0.0), proposal=Bernoulli(0.02), name="c")
    b = ctx.sample(Bernoulli(0.7), proposal=Bernoulli(1.0), name="b")
    y = ctx.observable_bernoulli(
        b.value and x.value > u.value, 0.2, name="y", depends_on=[x, u, b]
    )
    ctx.observe(y, True)
    ctx.do(x, -1.0, kind=wi.CF)
    ctx.predict(y.value or c.value, label="y")


def iv_program(ctx):
    # the key block holds x's stream, but an iv do forces x in every
    # sampling execution, so its raws are never read
    x = ctx.normal(0, 1, name="x")
    z = ctx.normal(0, 1, name="z")
    y = ctx.observable_normal(x.value + z.value, 0.5, name="y", depends_on=[x, z])
    ctx.observe(y, 0.7)
    ctx.do(x, 1.5, kind=wi.IV)
    ctx.do(z, -1.0, kind=wi.CF)
    ctx.predict(y.value, label="y")


def family_switch_program(ctx):
    # a coin decides whether "x" is a Normal or a Uniform; discovery saw one
    coin = ctx.bernoulli(0.5, name="coin")
    x = ctx.normal(0, 1, name="x") if coin.value else ctx.uniform(-1, 1, name="x")
    y = ctx.observable_normal(x.value, 0.5, name="y", depends_on=[x])
    ctx.observe(y, 0.3)
    ctx.do(x, 0.0, kind=wi.CF)
    ctx.predict(y.value, label="y")


def latent_noise_program(ctx):
    # n and b are observables no observe pins: their noises are drawn
    # from the key block, an ObservableNormal's and an ObservableBernoulli's
    x = ctx.normal(0, 1, name="x")
    n = ctx.observable_normal(x.value, 0.5, name="n", depends_on=[x])
    b = ctx.observable_bernoulli(n.value > 0.0, 0.3, name="b", depends_on=[n])
    y = ctx.observable_normal(n.value + b.value, 1.0, name="y", depends_on=[n, b])
    ctx.observe(y, 0.4)
    ctx.do(x, 1.0, kind=wi.CF)
    ctx.predict(b.value, label="b")


@dataclass(slots=True)
class UniformNoise:
    """output = mean + noise, noise ~ Uniform(-width, width): an observable
    family defined outside dists, drawn from one block input."""

    kind, raws = OBSERVABLE, 1

    mean: float
    width: float

    def draw_noise_from(self, inputs, i):
        return self.width * (2.0 * inputs[i] - 1.0)

    def output(self, noise):
        return self.mean + noise

    def noise_log_prior(self, noise):
        return -math.log(2.0 * self.width) if abs(noise) <= self.width else -math.inf

    def absorb(self, observed, stream=None):
        return observed, observed - self.mean, 0.0


@dataclass(slots=True)
class Exponential:
    """A plain family defined outside dists, drawn from a stream."""

    kind, raws = PLAIN, 0

    rate: float

    def sample(self, stream):
        return -math.log(stream.uniform_pos()) / self.rate

    def log_density(self, x):
        return math.log(self.rate) - self.rate * x if x >= 0.0 else -math.inf


def outside_families_program(ctx):
    # E[z] = 1.5 + 0.7 - E[x | y = 0.7] + E[u]: y's abducted noise is
    # 0.7 - x, and x given y is N(0, 1) truncated to [-0.3, 1.7]
    x = ctx.normal(0, 1, name="x")
    u = ctx.sample(Exponential(1.0), name="u")
    y = ctx.sample(UniformNoise(x.value, 1.0), name="y", depends_on=[x])
    ctx.observe(y, 0.7)
    ctx.do(x, 1.5, kind=wi.CF)
    z = ctx.sample(UniformNoise(y.value + u.value, 0.5), name="z", depends_on=[y, u])
    ctx.predict(z.value, label="z")


def _one_at_a_time(program, n, seed):
    """run_inference's loop over the single-execution functions."""
    plan = discover(program, seed=seed)
    lws, preds = [], []
    for i in range(n):
        abd = abduction_sample(program, plan, seed, i)
        merged = dict(abd.predictions)
        if plan.needs_replay and not abd.rejected:
            merged.update(counterfactual_replay(abd, plan, program, seed, i).predictions)
        lws.append(abd.log_weight)
        preds.append(merged)
    return np.asarray(lws, dtype=float), preds


def _calls_after_discovery(program, owner, attr):
    """Calls of owner.attr while run_inference samples, after discovery."""
    calls = [0]
    real_attr, real_discover = getattr(owner, attr), engine.discover

    def counted(*args, **kwargs):
        calls[0] += 1
        return real_attr(*args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        def discover_then_count(*args, **kwargs):
            plan = real_discover(*args, **kwargs)
            mp.setattr(owner, attr, counted)
            return plan

        mp.setattr(engine, "discover", discover_then_count)
        wi.run_inference(program, 2 * BLOCK + 3, seed=21)
    return calls[0]


def _reprs(predictions):
    return [{k: repr(v) for k, v in p.items()} for p in predictions]


def _fields(trace):
    """Every field of every entry, and the predictions, compared by repr (bits)."""
    entries = [
        (e.address, repr(e.value), repr(e.log_prior), repr(e.log_proposal), e.role,
         e.parents, repr(e.noise))
        for e in trace.entries.values()
    ]
    return entries, [(label, repr(v)) for label, v in trace.predictions]


class TestKeyBlocks:
    @pytest.mark.parametrize(
        "program",
        [gaussian_program, noisy_or_program, beta_program, coin_branch_program,
         uniform_program, proposal_program, iv_program, family_switch_program,
         latent_noise_program, outside_families_program],
    )
    @pytest.mark.parametrize("workers", [1, 3])
    def test_blocked_run_matches_single_executions(self, program, workers):
        # 2 blocks + 3 samples; with 3 workers each span starts mid-block
        n, seed = 2 * BLOCK + 3, 21
        res = wi.run_inference(program, n, seed=seed, workers=workers)
        lws, preds = _one_at_a_time(program, n, seed)
        assert res.log_weights.tobytes() == lws.tobytes()
        assert _reprs(res.predictions) == _reprs(preds)

    @pytest.mark.parametrize(
        "program",
        [gaussian_program, noisy_or_program, beta_program, coin_branch_program,
         uniform_program, proposal_program, iv_program, family_switch_program,
         latent_noise_program, outside_families_program],
    )
    @pytest.mark.parametrize("workers", [1, 3])
    def test_rearmed_contexts_leak_nothing_between_samples(self, program, workers):
        # one context per phase serves a whole chunk; every kept trace must
        # equal a single execution's, which gets a context of its own
        n, seed = 2 * BLOCK + 3, 21
        res = wi.run_inference(program, n, seed=seed, workers=workers, keep_traces=True)
        plan = discover(program, seed=seed)
        kept = [t for pair in res.traces for t in pair if t is not None]
        assert len({id(t) for t in kept}) == len(kept)
        for i, (abd, rep) in enumerate(res.traces):
            fresh = abduction_sample(program, plan, seed, i)
            assert _fields(abd) == _fields(fresh)
            if rep is None:
                assert not plan.needs_replay or abd.rejected
                continue
            assert _fields(rep) == _fields(counterfactual_replay(fresh, plan, program, seed, i))
            assert rep.log_weight.hex() == abd.log_weight.hex()

    @pytest.mark.parametrize(
        "program",
        [gaussian_program, noisy_or_program, beta_program, coin_branch_program,
         uniform_program, proposal_program, iv_program, family_switch_program,
         latent_noise_program],
    )
    def test_replay_never_writes_an_abducted_entry(self, program):
        # replay shares every carried entry with the abducted trace
        seed = 21
        plan = discover(program, seed=seed)
        for i in range(40):
            abd = abduction_sample(program, plan, seed, i)
            if not plan.needs_replay or abd.rejected:
                continue
            before = copy.deepcopy(abd)
            counterfactual_replay(abd, plan, program, seed, i)
            assert _fields(abd) == _fields(before)
            assert abd.terms == before.terms

    def test_stale_sample_mid_block_leaves_the_next_run_alone(self):
        runs = [0]

        def turns_stale(ctx):
            # call 1 is discovery, then abduction and replay alternate: call
            # 60 is sample 29's abduction, which meets a new observation
            runs[0] += 1
            gaussian_program(ctx)
            if runs[0] == 60:
                ctx.observe(ctx.observable_normal(0, 1, name="late"), 0.5)

        with pytest.raises(StaleTraceError, match="'late'"):
            wi.run_inference(turns_stale, 2 * BLOCK + 3, seed=21)
        res = wi.run_inference(gaussian_program, 1000, seed=101)
        # test_golden_estimates' Gaussian pins
        assert wi.estimate_expectation(res).hex() == "-0x1.880cdb1923eb8p+0"
        assert math.fsum(res.log_weights.tolist()).hex() == "-0x1.02ed314bd4385p+11"

    def test_block_keys_only_the_streams_abduction_reads(self):
        def block_names(program):
            names, real = set(), engine.key_block

            def spy(seed, lo, hi, block_names):
                names.update(block_names)
                return real(seed, lo, hi, block_names)

            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(engine, "key_block", spy)
                wi.run_inference(program, 2 * BLOCK + 3, seed=21)
            return names

        # an observed ObservableNormal/Bernoulli absorbs without a draw, and an
        # iv-forced address records the do's value
        assert block_names(gaussian_program) == {"X", "Z"}
        assert block_names(iv_program) == {"z"}
        # a family with raws 0 (Beta, noisy-OR, Exponential) keys its stream
        # on the scalar path
        assert block_names(beta_program) == set()
        assert block_names(noisy_or_program) == {"p0", "p1", "p2", "p3"}
        # an unobserved observable draws its noise from the block
        assert block_names(latent_noise_program) == {"x", "n::noise", "b::noise"}
        # families defined outside dists, laid out by the raws they declare
        assert block_names(outside_families_program) == {"x", "z::noise"}

    def test_block_streams_replace_scalar_keying(self):
        # digests cannot show which path ran: count scalar stream keyings
        # after discovery, whose one execution is always scalar
        def scalar_keyings(program):
            return _calls_after_discovery(program, engine, "keyed_stream")

        scm, query = generate_case(0, 0, 12)
        assert scalar_keyings(gaussian_program) == 0
        for style in ("eager", "lazy"):
            assert scalar_keyings(build_program(scm, query, style)) == 0
        # streams discovery never saw, and those of families with raws 0,
        # take the scalar path
        for program in (coin_branch_program, beta_program, noisy_or_program):
            assert scalar_keyings(program) > 0

    def test_block_choices_build_no_stream(self):
        # Normal, Bernoulli and the observables' noise are drawn from the
        # block's raws, and an observed ObservableNormal/Bernoulli absorbs
        # without a stream; Beta, noisy-OR and unseen branches need one
        def streams_built(program):
            return _calls_after_discovery(program, RandomStream, "__init__")

        scm, query = generate_case(0, 0, 12)
        assert streams_built(gaussian_program) == 0
        for style in ("eager", "lazy"):
            assert streams_built(build_program(scm, query, style)) == 0
        for program in (noisy_or_program, beta_program, coin_branch_program):
            assert streams_built(program) > 0

    def test_abduction_actions_resolved_once_per_chunk(self):
        # the chunk's action table answers every address discovery saw;
        # only an unseen address or another family there asks the rule
        # while the program runs (building the table asks it outside)
        def general_path(program):
            running, calls, rule = [False], [0], engine._abduction_action

            def counted(*args):
                calls[0] += running[0]
                return rule(*args)

            def watched(ctx):
                running[0] = True
                try:
                    program(ctx)
                finally:
                    running[0] = False

            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(engine, "_abduction_action", counted)
                wi.run_inference(watched, 2 * BLOCK + 3, seed=21)
            return calls[0]

        scm, query = generate_case(0, 0, 12)
        assert general_path(gaussian_program) == 0
        for style in ("eager", "lazy"):
            assert general_path(build_program(scm, query, style)) == 0
        assert general_path(family_switch_program) > 0
        assert general_path(coin_branch_program) > 0

    @pytest.mark.parametrize("style", ["eager", "lazy"])
    def test_shared_specs_are_never_written(self, style):
        # build_program builds each spec once and every execution reuses
        # it; specs are not frozen, so this guards them
        program = build_program(*generate_case(0, 0, 12), style)
        nodes = program.keywords["nodes"]
        before = copy.deepcopy(nodes)
        wi.run_inference(program, 2 * BLOCK + 3, seed=21)
        assert [specs for _, specs in nodes.values()] == [
            specs for _, specs in before.values()
        ]

    @pytest.mark.parametrize(
        "program",
        ["eager", "lazy", gaussian_program, noisy_or_program, beta_program,
         coin_branch_program, uniform_program, proposal_program, iv_program,
         family_switch_program, outside_families_program],
    )
    def test_log_weight_is_the_fsum_of_entry_terms(self, program):
        # the engine adds each entry's term as it records it; the sum must
        # read the same as entry_contribution over the finished trace
        if isinstance(program, str):
            program = build_program(*generate_case(0, 0, 12), program)
        res = wi.run_inference(program, 2 * BLOCK + 3, seed=21, keep_traces=True)
        for abd, _ in res.traces:
            terms = [t for t in map(entry_contribution, abd.entries.values()) if t != 0.0]
            assert math.fsum(terms).hex() == abd.log_weight.hex()

    def test_golden_estimates(self):
        # recorded before samples were keyed in blocks
        def pins(program, n):
            res = wi.run_inference(program, n, seed=101)
            est = wi.estimate_expectation(res)
            return est.hex(), math.fsum(res.log_weights.tolist()).hex()

        assert pins(gaussian_program, 1000) == (
            "-0x1.880cdb1923eb8p+0", "-0x1.02ed314bd4385p+11"
        )
        scm, query = generate_case(0, 0, 12)
        for style in ("eager", "lazy"):
            assert pins(build_program(scm, query, style), 600) == (
                "0x1.1379197a39a14p-1", "-0x1.d03bf6914a05cp+9"
            )


@pytest.mark.parametrize("style", ["eager", "lazy", None])
def test_executions_leave_no_cyclic_garbage(style):
    # a reference cycle through an execution's context would keep every
    # context and trace alive until the cyclic collector runs
    if style is None:
        program = gaussian_program
    else:
        program = build_program(*generate_case(0, 0, 12), style)
    gc.collect()
    gc.disable()
    try:
        wi.run_inference(program, 2 * BLOCK + 3, seed=21)
        assert gc.collect() == 0
    finally:
        gc.enable()


class TestEndogeneityChecks:
    def test_permissive_by_default(self):
        def program(ctx):
            x = ctx.normal(0, 1, name="x")
            y = ctx.normal(x.value, 1, name="y", depends_on=[x])
            ctx.do(x, 1.0, kind=wi.CF)
            ctx.predict(y.value, label="y")

        wi.run_inference(program, 10, seed=0)  # allowed, y redrawn in replay

    def test_strict_mode_rejects_implicit_noise_descendants(self):
        def program(ctx):
            x = ctx.normal(0, 1, name="x")
            y = ctx.normal(x.value, 1, name="y", depends_on=[x])
            ctx.do(x, 1.0, kind=wi.CF)
            ctx.predict(y.value, label="y")

        with pytest.raises(EngineError, match="implicit randomness"):
            wi.run_inference(program, 10, seed=0, strict_endogeneity=True)

    def test_strict_mode_rejects_intervened_plain_with_parents(self):
        def program(ctx):
            x = ctx.normal(0, 1, name="x")
            y = ctx.normal(x.value, 1, name="y", depends_on=[x])
            ctx.do(y, 1.0, kind=wi.CF)
            ctx.predict(y.value, label="y")

        with pytest.raises(EngineError, match="implicit randomness"):
            wi.run_inference(program, 10, seed=0, strict_endogeneity=True)

    def test_strict_mode_allows_observable_split(self):
        def program(ctx):
            x = ctx.normal(0, 1, name="x")
            y = ctx.observable_normal(x.value, 1, name="y", depends_on=[x])
            ctx.do(x, 1.0, kind=wi.CF)
            ctx.predict(y.value, label="y")

        wi.run_inference(program, 10, seed=0, strict_endogeneity=True)


class TestDependencyChecker:
    def test_clean_declarations_pass(self):
        def program(ctx):
            a = ctx.bernoulli(0.5, name="a")
            b = ctx.observable_bernoulli(a.value, 0.1, name="b", depends_on=[a])
            ctx.predict(b.value, label="b")

        assert wi.verify_declared_dependencies(program) == []

    def test_missing_declaration_reported(self):
        def program(ctx):
            a = ctx.bernoulli(0.5, name="a")
            b = ctx.observable_bernoulli(a.value, 0.1, name="b")  # forgot depends_on
            ctx.predict(b.value, label="b")

        violations = wi.verify_declared_dependencies(program)
        assert violations
        assert "'b'" in violations[0] and "'a'" in violations[0]

    @pytest.mark.parametrize("style", ["eager", "lazy"])
    def test_benchmark_programs_declare_every_dependency(self, style):
        # abduction under a plan without the evidence raised StaleTraceError
        for i in range(30):
            scm, query = wi.generate_case(0, i, 8)
            program = wi.build_program(scm, query, style)
            assert wi.verify_declared_dependencies(program) == [], i

    def test_observed_child_with_undeclared_parent_reported(self):
        # b's value is pinned by the evidence; flipping a moves its noise
        def program(ctx):
            a = ctx.bernoulli(0.5, name="a")
            b = ctx.observable_bernoulli(a.value, 0.1, name="b")  # forgot depends_on
            ctx.observe(b, True)
            ctx.predict(a.value, label="a")

        violations = wi.verify_declared_dependencies(program)
        assert len(violations) == 1
        assert "'b'" in violations[0] and "'a'" in violations[0]


def test_descendant_closure():
    parents = {"b": ("a",), "c": ("b",), "d": ("a", "c"), "e": ()}
    assert descendant_closure(parents, ["a"]) == {"b", "c", "d"}
    assert descendant_closure(parents, ["c"]) == {"d"}
    assert descendant_closure(parents, []) == frozenset()
