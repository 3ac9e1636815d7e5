"""Deterministic, platform-stable random primitives.

All randomness in the package flows through a counter-based 64-bit mixing
chain (the splitmix64 finalizer).  Draws depend only on (seed, stream,
counter) as exact integer arithmetic, so tables and golden outputs are
reproducible across platforms and numpy versions.

Draw conventions (fixed so serialized tables never change):
  - word i of a stream is finalize(state0 + (i+1) * GAMMA) (counter_words)
  - bounded draws in [0, m) use modulo rejection: a word w is accepted when
    w >= 2**64 mod m (an exact multiple of m values remains), and the value
    is w % m; words are consumed in counter order
  - Fisher-Yates runs i = 0 .. N-2, swapping position i with i + draw(N - i)
  - sign bits take bit 63 of a word; uniforms take the top 53 bits
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_M64 = np.uint64(0xFFFFFFFFFFFFFFFF)
_STREAM_SALT = np.uint64(0xD1B54A32D192ED03)


@dataclass(frozen=True)
class RngSeed:
    """A (seed, stream) pair; identical pairs reproduce identical draws."""

    seed: int
    stream: int = 0

    def state(self) -> np.uint64:
        s = _finalize(np.uint64(self.seed & 0xFFFFFFFFFFFFFFFF))
        t = _finalize(np.uint64(self.stream & 0xFFFFFFFFFFFFFFFF) ^ _STREAM_SALT)
        with np.errstate(over="ignore"):
            return _finalize(s + t)


def _finalize(z):
    """splitmix64 finalizer; accepts uint64 scalar or array (wrapping mod 2**64)."""
    with np.errstate(over="ignore"):
        z = (z + _GAMMA) & _M64
        z = ((z ^ (z >> np.uint64(30))) * _MIX1) & _M64
        z = ((z ^ (z >> np.uint64(27))) * _MIX2) & _M64
        return z ^ (z >> np.uint64(31))


def counter_words(state, counters) -> np.ndarray:
    """finalize(state + (x + 1) * GAMMA) at each counter x, as uint64: the one
    counter word behind WordStream, the Feistel rounds and the keyed PRF."""
    x = np.asarray(counters, dtype=np.uint64)
    with np.errstate(over="ignore"):
        return _finalize(np.uint64(state) + (x + np.uint64(1)) * _GAMMA)


class WordStream:
    """Sequential consumer over the counter stream of an RngSeed."""

    def __init__(self, rs: RngSeed):
        self._state = rs.state()
        self._pos = 0

    def take(self, count: int) -> np.ndarray:
        out = counter_words(self._state, np.arange(self._pos, self._pos + count, dtype=np.uint64))
        self._pos += count
        return out

    def bounded(self, bounds: np.ndarray) -> np.ndarray:
        """One draw in [0, bounds[i]) per entry, via modulo rejection."""
        bounds = np.asarray(bounds, dtype=np.uint64)
        out = np.empty(bounds.shape[0], dtype=np.uint64)
        pending = np.arange(bounds.shape[0])
        while pending.size:
            m = bounds[pending]
            w = self.take(pending.size)
            rem = (_M64 % m + np.uint64(1)) % m  # 2^64 mod m
            ok = w >= rem
            out[pending[ok]] = w[ok] % m[ok]
            pending = pending[~ok]
        return out

    def integers(self, m: int, count: int) -> np.ndarray:
        """count iid uniform draws in [0, m)."""
        return self.bounded(np.full(count, m, dtype=np.uint64))

    def bits(self, count: int) -> np.ndarray:
        """count iid fair bits (bit 63 of each word), as uint8."""
        return (self.take(count) >> np.uint64(63)).astype(np.uint8)

    def uniform01(self, count: int) -> np.ndarray:
        """count doubles in [0, 1) from the top 53 bits."""
        return (self.take(count) >> np.uint64(11)).astype(np.float64) * (2.0 ** -53)

    def standard_normal(self, count: int) -> np.ndarray:
        """Box-Muller normals; exact stream position consumed: 2*ceil(count/2)."""
        half = (count + 1) // 2
        u1 = self.uniform01(half)
        u2 = self.uniform01(half)
        r = np.sqrt(-2.0 * np.log1p(-u1))
        th = 2.0 * np.pi * u2
        out = np.concatenate([r * np.cos(th), r * np.sin(th)])
        return out[:count]


def fisher_yates(n: int, rs: RngSeed) -> np.ndarray:
    """Seeded uniform permutation of [0, n) with the documented conventions."""
    stream = WordStream(rs)
    bounds = np.arange(n, 1, -1, dtype=np.uint64)  # n, n-1, ..., 2
    draws = stream.bounded(bounds) if n > 1 else np.empty(0, dtype=np.uint64)
    table = list(range(n))
    for i, r in enumerate(draws.tolist()):
        j = i + r
        table[i], table[j] = table[j], table[i]
    return np.asarray(table, dtype=np.uint32)
