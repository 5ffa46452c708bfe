"""Program traces: addressed random choices plus a running log-weight.

An address is a plain string, either supplied by the program author or
auto-generated in execution order.  Each entry records the value at an
address (and, for an observable procedure, the explicit noise behind it)
together with the log densities that justify its contribution to the
importance weight:

    latent      contributes log_prior - log_proposal
    observed    contributes log_prior (the absorbed likelihood)
    intervened  contributes nothing

A trace's log-weight is the exact (fsum) sum of its terms, so it does not
depend on the order they were added in.  That exactness is load-bearing:
lazy and eager evaluation record the same entries in different orders and
must end up with bitwise-equal weights.  In a sampled trace the terms are
the entries' contributions.  A replay trace instead starts from the
abducted log-weight as its one term and adds no other non-zero one: an
entry it carries over is the abducted entry itself, with the abduction's
log densities, which are not summed a second time.

Entries are read-only once recorded: replay shares each carried entry
with the abducted trace, so writing one would change both worlds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

from .errors import AddressCollisionError, InvalidWeightError

Address = str
Value = Union[bool, int, float]

LATENT = "latent"
OBSERVED = "observed"
INTERVENED = "intervened"

_NEG_INF = float("-inf")


@dataclass(slots=True)
class TraceEntry:
    address: Address
    value: Value
    log_prior: float
    log_proposal: float
    role: str
    parents: tuple[Address, ...] = ()
    noise: object = None  # an observable's explicit noise; None otherwise


def latent_term(log_prior: float, log_proposal: float) -> float:
    """A latent's contribution: -inf where the prior rules its value out."""
    return log_prior if log_prior == _NEG_INF else log_prior - log_proposal


def entry_contribution(entry: TraceEntry) -> float:
    """Log-weight contribution of a single entry, per its role."""
    if entry.role == LATENT:
        return latent_term(entry.log_prior, entry.log_proposal)
    if entry.role == OBSERVED:
        return entry.log_prior
    return 0.0


class Trace:
    """Ordered map of trace entries with an accumulated log-weight.

    terms holds the log-weight increments in the order they were added
    (the engine skips zeros, which fsum ignores); the log-weight is their fsum.
    """

    __slots__ = ("entries", "predictions", "terms")

    def __init__(self):
        self.entries: dict[Address, TraceEntry] = {}
        self.predictions: list[tuple[str, Value]] = []
        self.terms: list[float] = []

    def record(self, entry: TraceEntry) -> None:
        """Insert an entry and accumulate its weight contribution."""
        if entry.address in self.entries:
            raise AddressCollisionError(
                f"address collision: {entry.address!r} already recorded"
            )
        self.entries[entry.address] = entry
        delta = entry_contribution(entry)
        # fsum ignores zeros (either sign), so skipping them keeps every
        # weight's bits; NaN is non-zero and still raises in accumulate.
        if delta != 0.0:
            self.accumulate(delta)

    def accumulate(self, delta: float) -> None:
        """Add a log-weight increment; -inf absorbs, NaN is an error."""
        if math.isnan(delta):
            raise InvalidWeightError("invalid weight increment: NaN")
        self.terms.append(delta)

    @property
    def log_weight(self) -> float:
        """Exact order-independent sum of all accumulated increments."""
        return math.fsum(self.terms)

    @property
    def rejected(self) -> bool:
        return self.log_weight == _NEG_INF

    def __contains__(self, address: Address) -> bool:
        return address in self.entries

    def __getitem__(self, address: Address) -> TraceEntry:
        return self.entries[address]

    def __len__(self) -> int:
        return len(self.entries)
