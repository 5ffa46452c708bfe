"""Distribution families for program random choices.

Each family class declares two class attributes, all the engine reads
to tell families apart.  Its kind is PLAIN, a value sampled and scored
with implicit randomness (Normal, Bernoulli, Uniform, Beta), OBSERVABLE,
a value computed from an explicit noise (ObservableNormal,
ObservableBernoulli, ObservableNoisyOr), or POINT_MASS (Delta).  Its
raws says how a draw reads its randomness: 0 from a stream, as many raws
as it needs; 1 from one input, rng.to_uniform(raw1); 2 from two,
rng.normal_parts(raw1, raw2).  A class defined elsewhere that declares
both and has its kind's methods is a family like these.

Observable families model an endogenous quantity as a deterministic
function of its parents composed with an explicit noise variable, and
share one protocol:

    sample_noise(stream)        draw the noise from its prior
    output(noise)               the value that noise produces
    noise_log_prior(noise)      log prior mass or density of the noise
    absorb(observed, stream)    (value, noise, log_q): a noise that
                                produces the observation, and the log
                                density of having proposed it

Because the noise is explicit, evidence is absorbed without rejection,
and counterfactual replay can rerun output() under new parent values
while holding the abducted noise fixed.

A family with raws 1 or 2 draws from at most rng.PRE_DRAWN raws, the
ones a key block computes ahead, and its draw is one rule on inputs
converted from those raws: draw_from(inputs, i) for a plain family,
draw_noise_from(inputs, i) for an observable one, reading inputs[i], or
inputs[i] and inputs[i + 1] with raws 2.  A key block converts its raws
to such inputs a column at a time (rng.block_inputs); sample and
sample_noise convert a stream's next raws (stream.uniform() or
normal_parts) and call the same rule, so both paths give the same bits.
Such an observable absorbs by inverting output(), drawing nothing, and
takes stream None.  Beta's rejection loop and ObservableNoisyOr's
per-parent noises draw an unbounded or larger count: they declare raws
0 and keep the stream.

Every spec is a slotted value object: equal, repr'd, copied and pickled
by its declared fields, not hashable, and never written to by the
engine, so a program may build one once and pass it in every execution,
as scm.build_program does.  A spec is built for nearly every choice, so
they are not frozen (a frozen dataclass pays an object.__setattr__ per
field), but a spec is read-only once built.  Bernoulli and
ObservableBernoulli compute both log masses at construction, through
_bernoulli_log_mass, and score by picking one; writing p or flip_prob
afterwards is unsupported.  Normal, Uniform and ObservableNoisyOr cache
nothing on purpose: Gaussian and most user programs build them per call,
and replay constructs them without scoring them, so a cache would cost
more than it saves.

Densities are returned in nats.  Zero-probability outcomes score -inf.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .rng import RandomStream, normal_parts

# A family's kind, its class attribute `kind` (see the module doc).
PLAIN, OBSERVABLE, POINT_MASS = "plain", "observable", "point mass"

_NEG_INF = float("-inf")
_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)


def _bernoulli_log_mass(p_true: float, value: bool) -> float:
    if value:
        return math.log(p_true) if p_true > 0.0 else _NEG_INF
    return math.log1p(-p_true) if p_true < 1.0 else _NEG_INF


@dataclass(slots=True)
class Normal:
    kind, raws = PLAIN, 2

    mean: float
    std: float

    def __post_init__(self):
        if not self.std > 0.0:
            raise ValueError(f"Normal std must be positive, got {self.std}")

    def log_density(self, x: float) -> float:
        z = (x - self.mean) / self.std
        return -0.5 * z * z - math.log(self.std) - _HALF_LOG_2PI

    def draw_from(self, inputs, i: int) -> float:
        return self.mean + self.std * inputs[i] * inputs[i + 1]  # normal_parts' order

    def sample(self, stream: RandomStream) -> float:
        return self.draw_from(normal_parts(stream.next_raw(), stream.next_raw()), 0)


@dataclass(slots=True)
class Bernoulli:
    kind, raws = PLAIN, 1

    p: float
    # log masses of True and False, fixed at construction (see the module doc)
    _log_true: float = field(init=False, repr=False, compare=False)
    _log_false: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"Bernoulli p must lie in [0, 1], got {self.p}")
        self._log_true = _bernoulli_log_mass(self.p, True)
        self._log_false = _bernoulli_log_mass(self.p, False)

    def __reduce__(self):
        return type(self), (self.p,)

    def log_density(self, value: bool) -> float:
        return self._log_true if value else self._log_false

    def draw_from(self, inputs, i: int) -> bool:
        return inputs[i] < self.p

    def sample(self, stream: RandomStream) -> bool:
        return self.draw_from((stream.uniform(),), 0)


@dataclass(slots=True)
class Uniform:
    kind, raws = PLAIN, 1

    lo: float
    hi: float

    def __post_init__(self):
        if not self.lo < self.hi:
            raise ValueError(f"Uniform needs lo < hi, got [{self.lo}, {self.hi}]")

    def log_density(self, x: float) -> float:
        if self.lo <= x <= self.hi:
            return -math.log(self.hi - self.lo)
        return _NEG_INF

    def draw_from(self, inputs, i: int) -> float:
        return self.lo + inputs[i] * (self.hi - self.lo)

    def sample(self, stream: RandomStream) -> float:
        return self.draw_from((stream.uniform(),), 0)


def _gamma_sample(stream: RandomStream, shape: float) -> float:
    # Marsaglia-Tsang squeeze; shapes below 1 are boosted through
    # G(a) = G(a+1) * U^(1/a).
    if shape < 1.0:
        u = stream.uniform_pos()
        return _gamma_sample(stream, shape + 1.0) * u ** (1.0 / shape)
    d = shape - 1.0 / 3.0
    c = 1.0 / math.sqrt(9.0 * d)
    while True:
        x = stream.normal()
        t = 1.0 + c * x
        if t <= 0.0:
            continue
        v = t * t * t
        u = stream.uniform_pos()
        if math.log(u) < 0.5 * x * x + d - d * v + d * math.log(v):
            return d * v


@dataclass(slots=True)
class Beta:
    kind, raws = PLAIN, 0

    a: float
    b: float

    def __post_init__(self):
        if not (self.a > 0.0 and self.b > 0.0):
            raise ValueError(f"Beta needs positive shapes, got ({self.a}, {self.b})")

    def log_density(self, x: float) -> float:
        if not 0.0 < x < 1.0:
            return _NEG_INF
        a, b = self.a, self.b
        lbeta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
        return (a - 1.0) * math.log(x) + (b - 1.0) * math.log1p(-x) - lbeta

    def sample(self, stream: RandomStream) -> float:
        g1 = _gamma_sample(stream, self.a)
        g2 = _gamma_sample(stream, self.b)
        return g1 / (g1 + g2)


@dataclass(slots=True)
class Delta:
    """Point mass; scoring compares values exactly (no tolerance)."""

    kind, raws = POINT_MASS, 0

    value: object

    def log_density(self, x) -> float:
        return 0.0 if x == self.value else _NEG_INF

    def sample(self, stream: RandomStream):
        return self.value


@dataclass(slots=True)
class ObservableNormal:
    """output = mean + noise, noise ~ Normal(0, noise_std)."""

    kind, raws = OBSERVABLE, 2

    mean: float
    noise_std: float

    def __post_init__(self):
        if not self.noise_std > 0.0:
            raise ValueError(
                f"ObservableNormal noise_std must be positive, got {self.noise_std}"
            )

    def noise_log_prior(self, noise: float) -> float:
        z = noise / self.noise_std
        return -0.5 * z * z - math.log(self.noise_std) - _HALF_LOG_2PI

    def draw_noise_from(self, inputs, i: int) -> float:
        return 0.0 + self.noise_std * inputs[i] * inputs[i + 1]  # normal_parts' order

    def sample_noise(self, stream: RandomStream) -> float:
        return self.draw_noise_from(normal_parts(stream.next_raw(), stream.next_raw()), 0)

    def output(self, noise: float) -> float:
        return self.mean + noise

    def absorb(self, observed: float, stream=None):
        """The unique noise with mean + noise == observed."""
        return float(observed), observed - self.mean, 0.0


@dataclass(slots=True)
class ObservableBernoulli:
    """output = f_value xor noise, noise ~ Bernoulli(flip_prob).

    f_value is the already-computed deterministic function of the
    parents; the family only models the flip noise around it.
    """

    kind, raws = OBSERVABLE, 1

    f_value: bool
    flip_prob: float
    # log masses of a flip and of none, fixed at construction
    _log_flip: float = field(init=False, repr=False, compare=False)
    _log_keep: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not 0.0 <= self.flip_prob <= 1.0:
            raise ValueError(
                f"ObservableBernoulli flip_prob must lie in [0, 1], got {self.flip_prob}"
            )
        self._log_flip = _bernoulli_log_mass(self.flip_prob, True)
        self._log_keep = _bernoulli_log_mass(self.flip_prob, False)

    def __reduce__(self):
        return type(self), (self.f_value, self.flip_prob)

    def noise_log_prior(self, noise: bool) -> float:
        return self._log_flip if noise else self._log_keep

    def draw_noise_from(self, inputs, i: int) -> bool:
        return inputs[i] < self.flip_prob

    def sample_noise(self, stream: RandomStream) -> bool:
        return self.draw_noise_from((stream.uniform(),), 0)

    def output(self, noise: bool) -> bool:
        return bool(self.f_value) != bool(noise)

    def absorb(self, observed: bool, stream=None):
        """The unique flip with f_value xor flip == observed."""
        return bool(observed), bool(self.f_value) != bool(observed), 0.0


@dataclass(slots=True)
class ObservableNoisyOr:
    """Noisy-OR gate with explicit activation noises.

    noise_0 ~ Bernoulli(1 - lambda0) is the leak activation; noise_j ~
    Bernoulli(1 - lambdas[j]) is the activation of parent j.  The output
    is true iff the leak fires or any active parent's noise fires, so

        P(output = False | parents) = lambda0 * prod_{j active} lambdas[j]
    """

    kind, raws = OBSERVABLE, 0

    lambda0: float
    lambdas: tuple[float, ...]
    parent_states: tuple[bool, ...]

    def __post_init__(self):
        self.lambdas = tuple(self.lambdas)
        self.parent_states = tuple(bool(s) for s in self.parent_states)
        if len(self.lambdas) != len(self.parent_states):
            raise ValueError(
                f"ObservableNoisyOr got {len(self.lambdas)} lambdas for "
                f"{len(self.parent_states)} parents"
            )
        for lam in (self.lambda0, *self.lambdas):
            if not 0.0 <= lam <= 1.0:
                raise ValueError(f"noisy-or lambda must lie in [0, 1], got {lam}")

    def sample_noise(self, stream: RandomStream) -> tuple[bool, ...]:
        out = [stream.bernoulli(1.0 - self.lambda0)]
        for lam in self.lambdas:
            out.append(stream.bernoulli(1.0 - lam))
        return tuple(out)

    def output(self, noise: tuple[bool, ...]) -> bool:
        if noise[0]:
            return True
        return any(
            noise[j + 1] and self.parent_states[j]
            for j in range(len(self.parent_states))
        )

    def noise_log_prior(self, noise: tuple[bool, ...]) -> float:
        total = _bernoulli_log_mass(1.0 - self.lambda0, noise[0])
        for j, lam in enumerate(self.lambdas):
            total += _bernoulli_log_mass(1.0 - lam, noise[j + 1])
        return total

    def absorb(self, observed: bool, stream: RandomStream):
        """Constructive noise proposal consistent with the observed output.

        observed False: the leak and every active parent's noise are forced
        off; inactive parents' noises are free and drawn from their priors.
        observed True: parent noises are drawn from their priors first (in
        index order), then the leak is forced on only if no active parent
        noise already produced a True output.  An impossible observation
        surfaces as a -inf prior mass on a forced noise, never as a
        rejection here.
        """
        observed = bool(observed)
        lambdas, parent_states = self.lambdas, self.parent_states
        parts = [False] * (len(lambdas) + 1)
        log_q = 0.0
        hot = False
        for j, lam in enumerate(lambdas):
            if parent_states[j] and not observed:
                continue
            eps = stream.bernoulli(1.0 - lam)
            parts[j + 1] = eps
            log_q += _bernoulli_log_mass(1.0 - lam, eps)
            if eps and parent_states[j]:
                hot = True
        if observed:
            if hot:
                parts[0] = eps0 = stream.bernoulli(1.0 - self.lambda0)
                log_q += _bernoulli_log_mass(1.0 - self.lambda0, eps0)
            else:
                parts[0] = True
        return observed, tuple(parts), log_q


def sample_and_score(spec, stream: RandomStream, proposal=None):
    """Draw from proposal (default: the prior) and score both densities.

    Returns (value, log_prior, log_proposal).  With no proposal override
    the two densities are the same float object, so prior == proposal
    holds bitwise by construction.
    """
    if proposal is None:
        value = spec.sample(stream)
        lp = spec.log_density(value)
        return value, lp, lp
    _check_proposal(spec, proposal)
    value = proposal.sample(stream)
    return value, spec.log_density(value), proposal.log_density(value)


def score_inputs(spec, inputs, i: int, proposal=None):
    """sample_and_score for a plain spec with raws > 0, drawn from converted inputs at inputs[i]."""
    if proposal is None:
        value = spec.draw_from(inputs, i)
        lp = spec.log_density(value)
        return value, lp, lp
    _check_proposal(spec, proposal)
    value = proposal.draw_from(inputs, i)
    return value, spec.log_density(value), proposal.log_density(value)


def _check_proposal(spec, proposal) -> None:
    if type(proposal) is not type(spec):
        raise ValueError(
            f"proposal family {type(proposal).__name__} does not match "
            f"prior family {type(spec).__name__}"
        )
