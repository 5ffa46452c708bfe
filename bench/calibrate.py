"""Fixed kernels that measure how fast the machine is right now.

On a shared machine the speed of one core can change by a factor of two
within seconds as other tenants come and go, and interpreted Python and
numpy array code slow down by different amounts.  Each kernel imitates
one workload's kind of code without calling whatif, so its time tracks
the machine and never the code under test:

  python  64-bit integer mixing, log/sqrt/cos, small slotted objects,
          dict inserts and fsum, like the sampling engine;
  numpy   bit extraction, masked products, table lookups and fsum over
          a chunk of worlds, like the enumeration oracle.

Speedometer times its kernel next to each timed piece of work; scaling
the work's wall time by reference / (kernel time) gives the time it
would take on a machine that runs the kernel in exactly `reference`
seconds.  The references are the kernels' typical times on a 2-core
Intel Xeon at 2.0 GHz, so scaled times read close to wall times there.
"""

from __future__ import annotations

import math
import time

import numpy as np

_MASK = (1 << 64) - 1


class _Entry:
    __slots__ = ("address", "value", "score")

    def __init__(self, address, value, score):
        self.address = address
        self.value = value
        self.score = score


def python_kernel(rounds: int = 300) -> float:
    total = 0.0
    for i in range(rounds):
        entries = {}
        terms = []
        for j in range(4):
            x = (i * 0x9E3779B97F4A7C15 + j) & _MASK
            x ^= x >> 30
            x = (x * 0xBF58476D1CE4E5B9) & _MASK
            x ^= x >> 27
            u = ((x >> 11) + 1) * 2.0 ** -53
            v = math.sqrt(-2.0 * math.log(u)) * math.cos(6.283185307179586 * u)
            e = _Entry(f"a:{j}", v, -0.5 * v * v)
            entries[e.address] = e
            terms.append(e.score)
        total += math.fsum(terms)
    return total


_ROWS = np.arange(1 << 14, dtype=np.uint64)[:, None]
_SHIFTS = np.arange(16, dtype=np.uint64)[None, :]
_TABLE = np.array([bin(k).count("1") % 2 == 0 for k in range(16)])


def numpy_kernel() -> float:
    bits = ((_ROWS >> _SHIFTS) & np.uint64(1)).astype(bool)
    probs = np.ones(bits.shape[0])
    pattern = np.zeros(bits.shape[0], dtype=np.int64)
    for i in range(bits.shape[1]):
        probs *= np.where(bits[:, i], 0.4, 0.6)
        pattern |= bits[:, i].astype(np.int64) << (i % 4)
    return math.fsum(probs[_TABLE[pattern & 15] ^ bits[:, 3]])


KERNELS = {
    # name: (kernel, reference seconds)
    "python": (python_kernel, 0.0029),
    "numpy": (numpy_kernel, 0.0027),
}


class Speedometer:
    """Speed factors from a kernel timed before and after each piece of work."""

    def __init__(self, name: str):
        self.kernel, self.reference = KERNELS[name]
        self.factors: list[float] = []
        self.begin()

    def _time(self) -> float:
        t0 = time.perf_counter()
        self.kernel()
        return time.perf_counter() - t0

    def begin(self) -> None:
        """Time the kernel just before a piece of work."""
        self.before = self._time()

    def factor(self) -> float:
        """reference / kernel time, over the kernel runs either side of the
        work that ended just now; multiply the work's wall time by it.
        The kernel run after one piece of work is the one before the next."""
        after = self._time()
        f = 2.0 * self.reference / (self.before + after)
        self.before = after
        self.factors.append(f)
        return f
