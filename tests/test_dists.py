import copy
import math
import pickle

import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from scipy import integrate

from whatif.dists import (
    Bernoulli,
    Beta,
    Delta,
    Normal,
    ObservableBernoulli,
    ObservableNoisyOr,
    ObservableNormal,
    Uniform,
    _bernoulli_log_mass,
    sample_and_score,
    score_inputs,
)
from whatif.rng import RandomStream, normal_parts, rng_for_address, to_uniform


def stream(tag, idx=0):
    return rng_for_address(99, idx, tag)


class TestDensities:
    def test_standard_normal_at_zero(self):
        assert round(Normal(0, 1).log_density(0.0), 7) == -0.9189385

    def test_bernoulli_point_three_true(self):
        assert round(Bernoulli(0.3).log_density(True), 7) == -1.2039728

    def test_wide_normal_frozen_value(self):
        # density used by the worked continuous example; scipy gives
        # -1.6794669187646178
        assert round(Normal(0, 2).log_density(0.7342), 6) == -1.679467

    def test_uniform_density(self):
        d = Uniform(-1.0, 3.0)
        assert math.isclose(d.log_density(0.0), -math.log(4.0))
        assert d.log_density(3.5) == -math.inf

    def test_delta_matches_exactly_or_rejects(self):
        d = Delta(2.0)
        assert d.log_density(2.0) == 0.0
        assert d.log_density(2.0 + 1e-12) == -math.inf

    def test_delta_works_for_bools(self):
        assert Delta(True).log_density(True) == 0.0
        assert Delta(True).log_density(False) == -math.inf

    @pytest.mark.parametrize(
        "dist,lo,hi",
        [
            (Normal(0.5, 1.3), -12, 13),
            (Uniform(-2, 5), -2, 5),
            (Beta(2.0, 3.0), 0, 1),
            (Beta(0.7, 0.9), 0, 1),
        ],
    )
    def test_continuous_densities_normalize(self, dist, lo, hi):
        total, err = integrate.quad(lambda x: math.exp(dist.log_density(x)), lo, hi)
        assert abs(total - 1.0) < 1e-6

    def test_bernoulli_mass_sums_to_one(self):
        d = Bernoulli(0.42)
        assert math.isclose(
            math.exp(d.log_density(True)) + math.exp(d.log_density(False)), 1.0
        )


class TestSampling:
    def test_prior_equals_proposal_bitwise_without_override(self):
        for spec in (Normal(1.0, 2.0), Bernoulli(0.4), Uniform(0, 1), Beta(3, 2)):
            _, lp, lq = sample_and_score(spec, stream(repr(spec)))
            assert lp == lq

    def test_proposal_override_scores_both_sides(self):
        value, lp, lq = sample_and_score(
            Normal(0.0, 1.0), stream("over"), proposal=Normal(5.0, 0.5)
        )
        assert lp == Normal(0.0, 1.0).log_density(value)
        assert lq == Normal(5.0, 0.5).log_density(value)
        assert value > 2.0  # drawn from the shifted proposal

    def test_family_mismatch_rejected(self):
        with pytest.raises(ValueError, match="proposal family"):
            sample_and_score(Normal(0, 1), stream("mm"), proposal=Uniform(0, 1))

    def test_importance_identity_for_shifted_proposal(self):
        # E_q[f(x) w(x)] must equal E_p[f(x)]; f = indicator(x > 0)
        n = 40_000
        s = stream("imp")
        acc = wsum = 0.0
        for _ in range(n):
            value, lp, lq = sample_and_score(
                Normal(0.0, 1.0), s, proposal=Normal(1.0, 1.0)
            )
            w = math.exp(lp - lq)
            wsum += w
            if value > 0.0:
                acc += w
        assert abs(acc / wsum - 0.5) < 0.01

    def test_beta_moments(self):
        s = stream("beta")
        xs = [Beta(5.0, 5.0).sample(s) for _ in range(50_000)]
        assert abs(sum(xs) / len(xs) - 0.5) < 0.005
        assert all(0.0 < x < 1.0 for x in xs)

    def test_delta_sampling_is_deterministic(self):
        assert Delta(7).sample(stream("d")) == 7


def _bits(x):
    return x.hex() if isinstance(x, float) else repr(x)


class _FirstRaws(RandomStream):
    """A fake stream: its first draws are the given raws, then it counts on from base."""

    __slots__ = ("_first",)

    def __init__(self, base, *first):
        super().__init__(base)
        self._first = first

    def next_raw(self):
        n = self._n
        if n < len(self._first):
            self._n = n + 1
            return self._first[n]
        return super().next_raw()


_RAW = st.integers(0, 2**64 - 1)
_PROB = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))


@given(_RAW, _RAW, _RAW, _PROB, _PROB, st.floats(-1e3, 1e3), st.floats(1e-3, 1e3))
# raw 0 draws uniform 0.0: the proposals draw True and below the prior's
# support, so both score -inf under the prior
@example(base=1, raw1=0, raw2=2**64 - 1, p=0.0, q=1.0, loc=0.0, scale=1.0)
@example(base=1, raw1=2**64 - 1, raw2=0, p=1.0, q=0.0, loc=-5.0, scale=1e-3)
def test_draw_from_raws_matches_the_stream(base, raw1, raw2, p, q, loc, scale):
    # a key block's choice is drawn from the inputs its family's raws
    # declare, converted from its stream's first raws; it must give what
    # a stream whose first draws are those raws gives
    def started():
        return _FirstRaws(base, raw1, raw2)

    def inputs(spec):
        return {1: (to_uniform(raw1),), 2: normal_parts(raw1, raw2)}[spec.raws]

    plain = [
        (Normal(loc, scale), Normal(-loc, 2.0 * scale)),
        (Bernoulli(p), Bernoulli(q)),
        (Uniform(loc, loc + scale), Uniform(loc - scale, loc + 0.5 * scale)),
    ]
    for spec, proposal in plain:
        assert _bits(spec.draw_from(inputs(spec), 0)) == _bits(spec.sample(started()))
        for prop in (None, proposal):
            drawn = score_inputs(spec, inputs(spec), 0, prop)
            sampled = sample_and_score(spec, started(), prop)
            assert list(map(_bits, drawn)) == list(map(_bits, sampled))
    for spec in (ObservableNormal(loc, scale), ObservableBernoulli(True, p)):
        noise = spec.draw_noise_from(inputs(spec), 0)
        assert _bits(noise) == _bits(spec.sample_noise(started()))


@given(st.floats(0.0, 1.0))
@example(0.0)
@example(-0.0)
@example(0.5)
@example(1.0)
@example(5e-324)
@example(1 - 2**-53)
def test_cached_masses_are_the_rule_bit_for_bit(p):
    # both families fix their log masses at construction; a score must
    # still read what _bernoulli_log_mass gives, -0.0 and -inf included
    rule = [_bernoulli_log_mass(p, v).hex() for v in (True, False)]
    for score in (Bernoulli(p).log_density, ObservableBernoulli(False, p).noise_log_prior):
        assert [score(True).hex(), score(False).hex()] == rule
        assert [score(1).hex(), score(0).hex()] == rule  # picked by truthiness, as bool() did


@pytest.mark.parametrize(
    "spec, declared",
    [(Bernoulli(0.3), (0.3,)), (Bernoulli(-0.0), (-0.0,)),
     (ObservableBernoulli(True, 0.2), (True, 0.2))],
)
def test_cached_masses_stay_out_of_equality_repr_copy_and_pickle(spec, declared):
    # a copy or an unpickled spec is rebuilt from the declared fields,
    # which recomputes the same masses
    assert spec.__reduce__() == (type(spec), declared)
    for twin in (copy.deepcopy(spec), pickle.loads(pickle.dumps(spec))):
        assert twin == spec and repr(twin) == repr(spec)
        assert [repr(getattr(twin, s)) for s in spec.__slots__] == [
            repr(getattr(spec, s)) for s in spec.__slots__
        ]


def test_cached_masses_are_not_declared_fields():
    assert repr(Bernoulli(0.3)) == "Bernoulli(p=0.3)"
    assert repr(ObservableBernoulli(True, 0.2)) == "ObservableBernoulli(f_value=True, flip_prob=0.2)"
    # equality reads declared fields only: -0.0 == 0.0 though a mass's bits differ
    assert Bernoulli(-0.0) == Bernoulli(0.0)
    assert Bernoulli(0.0).log_density(False).hex() != Bernoulli(-0.0).log_density(False).hex()


def test_score_inputs_refuses_a_mismatched_proposal():
    with pytest.raises(ValueError, match="proposal family"):
        score_inputs(Normal(0, 1), normal_parts(1, 2), 0, proposal=Uniform(0, 1))


class TestObservableNormal:
    def test_inversion_recovers_frozen_noise(self):
        value, noise, log_q = ObservableNormal(0.5, 1.0).absorb(1.2342, stream("n"))
        assert value == 1.2342
        assert noise == 0.7342
        assert log_q == 0.0

    @given(st.floats(-1e6, 1e6), st.floats(-1e6, 1e6))
    def test_forward_of_inverted_noise_reproduces_observation(self, mean, obs):
        spec = ObservableNormal(mean, 1.5)
        _, noise, _ = spec.absorb(obs, stream("n"))
        assert spec.output(noise) == mean + (obs - mean)

    def test_noise_prior_matches_plain_normal(self):
        spec = ObservableNormal(3.0, 2.0)
        assert math.isclose(spec.noise_log_prior(0.7342), Normal(0, 2).log_density(0.7342))


class TestObservableBernoulli:
    @given(st.booleans(), st.booleans())
    def test_forward_of_inverted_noise_reproduces_observation(self, f_val, obs):
        spec = ObservableBernoulli(f_val, 0.2)
        value, noise, log_q = spec.absorb(obs, stream("b"))
        assert value == obs
        assert log_q == 0.0
        assert spec.output(noise) == obs

    def test_noise_is_xor_of_f_and_observation(self):
        def noise(f_val, obs):
            return ObservableBernoulli(f_val, 0.2).absorb(obs, stream("b"))[1]

        assert noise(True, True) is False
        assert noise(True, False) is True
        assert noise(False, True) is True

    def test_flip_rate(self):
        spec = ObservableBernoulli(False, 0.2)
        s = stream("flip")
        hits = sum(spec.output(spec.sample_noise(s)) for _ in range(50_000))
        assert abs(hits / 50_000 - 0.2) < 0.01


def noisy_or_false_prob(lambda0, lambdas, parent_states):
    """P(output = False): no activation among the leak and active parents."""
    prob = lambda0
    for lam, state in zip(lambdas, parent_states):
        if state:
            prob *= lam
    return prob


class TestNoisyOr:
    def test_false_prob_hand_values(self):
        assert math.isclose(noisy_or_false_prob(0.9, [0.8], [True]), 0.72)
        assert math.isclose(noisy_or_false_prob(0.9, [0.8], [False]), 0.9)
        assert noisy_or_false_prob(1.0, [], []) == 1.0

    def test_inactive_parents_never_contribute(self):
        p_all_off = noisy_or_false_prob(0.5, [0.1, 0.2], [False, False])
        assert math.isclose(p_all_off, 0.5)

    def test_proposal_false_forces_leak_and_active_off(self):
        spec = ObservableNoisyOr(0.9, (0.8, 0.6), (True, False))
        value, noise, log_q = spec.absorb(False, stream("no1"))
        assert value is False
        assert noise[0] is False  # leak suppressed
        assert noise[1] is False  # active parent suppressed
        # inactive parent noise is free: log_q only scores constrained bits
        assert log_q <= 0.0

    def test_proposal_true_leaves_output_hot(self):
        spec = ObservableNoisyOr(0.9, (0.8, 0.6), (True, True))
        for i in range(200):
            _, noise, _ = spec.absorb(True, stream("no2", i))
            assert spec.output(noise) is True

    def test_proposal_never_rejects_even_when_unlikely(self):
        # lambda0 = 1 means the leak never fires on its own; observing
        # True still succeeds through a parent noise
        spec = ObservableNoisyOr(1.0, (0.99,), (True,))
        for i in range(100):
            _, noise, _ = spec.absorb(True, stream("no3", i))
            assert spec.output(noise) is True

    def test_proposal_weight_consistency_monte_carlo(self):
        # sum over proposal draws of p(noise)/q(noise) restricted to the
        # observation must converge to P(output = obs)
        lam0, lams, states = 0.7, (0.8, 0.5), (True, True)
        spec = ObservableNoisyOr(lam0, lams, states)
        target = 1.0 - noisy_or_false_prob(lam0, lams, states)
        n = 60_000
        acc = 0.0
        for i in range(n):
            _, noise, log_q = spec.absorb(True, stream("no4", i))
            acc += math.exp(spec.noise_log_prior(noise) - log_q)
        assert abs(acc / n - target) < 0.01

    def test_forward_rate_matches_false_prob(self):
        lam0, lams, states = 0.6, (0.3, 0.9), (True, True)
        spec = ObservableNoisyOr(lam0, lams, states)
        s = stream("no5")
        falses = sum(
            not spec.output(spec.sample_noise(s)) for _ in range(60_000)
        )
        assert abs(falses / 60_000 - noisy_or_false_prob(lam0, lams, states)) < 0.01
