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

The engine keys a block of samples at once: key_block computes, in one
numpy uint64 pass, every sample's key and the first PRE_DRAWN raw draws
of each stream it names.  numpy's uint64 arithmetic wraps modulo 2^64
exactly like the masked Python ints of _mix64, so those raws are the
bits keyed_stream would draw.  Only block_inputs reads them, to convert
them for the choices whose whole draw fits in them; every stream starts
at keyed_stream.

Raws become doubles in two places, with the same bits.  A stream
converts them one at a time through to_uniform, to_uniform_pos and
normal_parts; RandomStream.inputs gives a draw with raws 1 or 2 the
inputs its family reads.  A key block converts every draw's raws once,
when it is keyed: block_inputs is the column twin of RandomStream.inputs.
numpy does its shifts and scalings, which are exact because raw >> 11
fits a double and the scalings are powers of two, and np.sqrt, which
IEEE 754 rounds correctly; the transcendentals go through math.log and
math.cos over the column's .tolist(), since np.log (and np.cos on some
platforms) rounds some results differently.
"""

from __future__ import annotations

import hashlib
import math
from functools import lru_cache

import numpy as np

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_TWO_PI = 2.0 * math.pi
_INV_2_53 = 2.0 ** -53
PRE_DRAWN = 2  # raw draws per stream computed ahead by key_block


def _mix64(x: int) -> int:
    x &= _MASK
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & _MASK
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & _MASK
    return x ^ (x >> 31)


def _mix64_array(x: np.ndarray) -> np.ndarray:
    """_mix64 elementwise over a uint64 array (wrapping arithmetic)."""
    x = x ^ (x >> np.uint64(30))
    x *= np.uint64(0xBF58476D1CE4E5B9)
    x ^= x >> np.uint64(27)
    x *= np.uint64(0x94D049BB133111EB)
    return x ^ (x >> np.uint64(31))


@lru_cache(maxsize=1 << 16)
def _address_key(address: str) -> int:
    return int.from_bytes(
        hashlib.blake2b(address.encode(), digest_size=8).digest(), "little"
    )


def sample_key(seed: int, sample_index: int) -> int:
    """The (seed, sample_index) half of every stream key in one execution."""
    return _mix64(_mix64(seed & _MASK) ^ (sample_index & _MASK))


def to_uniform(raw: int) -> float:
    """Uniform double in [0, 1) from one raw draw."""
    return (raw >> 11) * _INV_2_53


def to_uniform_pos(raw: int) -> float:
    """Uniform double in (0, 1] from one raw draw; safe to pass to log()."""
    return ((raw >> 11) + 1) * _INV_2_53


def normal_parts(raw1: int, raw2: int) -> tuple[float, float]:
    """Box-Muller radius r and cosine c of two raw draws.

    A Normal(mean, std) deviate is mean + std * r * c, in that order; the
    sine branch is discarded, so each deviate consumes exactly two raws.
    """
    return math.sqrt(-2.0 * math.log(to_uniform_pos(raw1))), math.cos(_TWO_PI * to_uniform(raw2))


class RandomStream:
    """Stateful view over one address's counter-based draw sequence, from its base."""

    __slots__ = ("_base", "_n")

    def __init__(self, base: int):
        self._base = base
        self._n = 0

    def next_raw(self) -> int:
        """The sequence's next raw 64-bit draw."""
        n = self._n = self._n + 1
        return _mix64(self._base + n * _GAMMA)

    def uniform(self) -> float:
        """Uniform double in [0, 1)."""
        return to_uniform(self.next_raw())

    def uniform_pos(self) -> float:
        """Uniform double in (0, 1]; safe to pass to log()."""
        return to_uniform_pos(self.next_raw())

    def normal(self, mean: float = 0.0, std: float = 1.0) -> float:
        r, c = normal_parts(self.next_raw(), self.next_raw())
        return mean + std * r * c

    def bernoulli(self, p: float) -> bool:
        return self.uniform() < p

    def inputs(self, raws: int) -> tuple[float, ...]:
        """The draw inputs of the next raws (1 or 2) raw draws, as block_inputs converts them."""
        raw = self.next_raw()
        return (to_uniform(raw),) if raws == 1 else normal_parts(raw, self.next_raw())


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


def key_block(seed: int, lo: int, hi: int, names: list[str]) -> tuple[list[int], np.ndarray]:
    """Key samples lo..hi-1 and draw ahead on the named streams, in one numpy pass.

    Returns (keys, raws): keys[r] == sample_key(seed, lo + r) as a Python
    int, and raws[r, j] (uint64) holds the first PRE_DRAWN raw draws of
    keyed_stream(keys[r], names[j]).
    """
    index = np.uint64(lo & _MASK) + np.arange(hi - lo, dtype=np.uint64)
    keys = _mix64_array(np.uint64(_mix64(seed & _MASK)) ^ index)
    addr = np.array([_address_key(a) for a in names], dtype=np.uint64)
    steps = np.array([(k * _GAMMA) & _MASK for k in range(1, PRE_DRAWN + 1)], dtype=np.uint64)
    # raws[r, j, k] mixes the stream's base + (k + 1) * GAMMA
    raws = _mix64_array(_mix64_array(keys[:, None] ^ addr)[:, :, None] + steps)
    return keys.tolist(), raws


def block_inputs(raws: np.ndarray, k: int) -> list[list[float]]:
    """The draw inputs of key_block's raws, converted in one pass per kind.

    Row r lists to_uniform(raw1) of each of the first k streams, then the
    normal_parts(raw1, raw2) of each other stream, two entries each, where
    raw1, raw2 are raws[r, j].
    """
    shifted = raws >> np.uint64(11)
    out = np.empty((len(raws), 2 * raws.shape[1] - k))
    out[:, :k] = shifted[:, :k, 0] * _INV_2_53
    if raws.shape[1] > k:
        pos = ((shifted[:, k:, 0] + np.uint64(1)) * _INV_2_53).ravel().tolist()
        turn = (_TWO_PI * (shifted[:, k:, 1] * _INV_2_53)).ravel().tolist()
        logs = np.array(list(map(math.log, pos))).reshape(len(raws), -1)
        out[:, k::2] = np.sqrt(-2.0 * logs)
        out[:, k + 1::2] = np.array(list(map(math.cos, turn))).reshape(len(raws), -1)
    return out.tolist()
