"""Deterministic per-address random streams.

Every random choice in a program execution draws from a stream that is a
pure function of (seed, sample_index, address).  Draws therefore do not
depend on execution order, which is what makes lazy and eager evaluation
of the same program bitwise identical, and makes results independent of
how samples are partitioned across worker processes.

Streams use a splitmix64 counter construction: the k-th raw draw is
mix64(base + (k+1) * GAMMA) where base is derived by hashing the triple
into 64 bits (collisions need ~2^32 streams).  Addresses are folded in
through blake2b so the mapping is stable across processes and platforms
(never the salted builtin hash()).
"""

from __future__ import annotations

import hashlib
import math
from functools import lru_cache

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_TWO_PI = 2.0 * math.pi
_INV_2_53 = 2.0 ** -53


def _mix64(x: int) -> int:
    x &= _MASK
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & _MASK
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & _MASK
    return x ^ (x >> 31)


@lru_cache(maxsize=1 << 16)
def _address_key(address: str) -> int:
    return int.from_bytes(
        hashlib.blake2b(address.encode(), digest_size=8).digest(), "little"
    )


def sample_key(seed: int, sample_index: int) -> int:
    """The (seed, sample_index) half of every stream key in one execution."""
    return _mix64(_mix64(seed & _MASK) ^ (sample_index & _MASK))


class RandomStream:
    """Stateful view over one address's counter-based draw sequence."""

    __slots__ = ("_base", "_n")

    def __init__(self, base: int):
        self._base = base
        self._n = 0

    def _next64(self) -> int:
        self._n += 1
        return _mix64(self._base + self._n * _GAMMA)

    def uniform(self) -> float:
        """Uniform double in [0, 1)."""
        return (self._next64() >> 11) * _INV_2_53

    def uniform_pos(self) -> float:
        """Uniform double in (0, 1]; safe to pass to log()."""
        return ((self._next64() >> 11) + 1) * _INV_2_53

    def normal(self, mean: float = 0.0, std: float = 1.0) -> float:
        # Box-Muller, one deviate per pair of raws; the sine branch is
        # discarded so each call consumes exactly two counter steps.
        u1 = self.uniform_pos()
        u2 = self.uniform()
        r = math.sqrt(-2.0 * math.log(u1))
        return mean + std * r * math.cos(_TWO_PI * u2)

    def bernoulli(self, p: float) -> bool:
        return self.uniform() < p


def keyed_stream(key: int, address: str) -> RandomStream:
    """Stream for address in the execution whose sample_key is key.

    Equal to rng_for_address(seed, sample_index, address) for
    key = sample_key(seed, sample_index); an execution computes its key
    once and pays one mix per stream.
    """
    return RandomStream(_mix64(key ^ _address_key(address)))


def rng_for_address(seed: int, sample_index: int, address: str) -> RandomStream:
    """Stream of draws for one address within one sample's execution.

    Pure in all three arguments: reconstructing the stream replays the
    identical draw sequence.  sample_index -1 is reserved for the
    discovery pass, 0..N-1 for the N posterior samples.
    """
    return keyed_stream(sample_key(seed, sample_index), address)
