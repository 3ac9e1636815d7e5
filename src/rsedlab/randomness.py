"""Seeded permutations p and sign functions f, and the RSEDPERM1 sidecar.

n alone picks the backend the samplers draw:
  - n <= 16: explicit tables.  A permutation holds forward and inverse uint32
    arrays (Fisher-Yates); a sign function holds the bit array of length
    2**n from the seeded stream.
  - n > 16: evaluated on demand.  A permutation is a 4-round alternating
    Feistel network over the n-bit index with rng.counter_words as round
    function; a sign function is the keyed PRF, bit 63 of
    rng.counter_words at counter x.
The constructors take either form at any n, so tests can compare them.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .bitcore import SystemShape, check_index
from .rng import RngSeed, WordStream, _finalize, counter_words, fisher_yates

FEISTEL_ROUNDS = 4

PERM_MAGIC = b"RSEDPERM1"


@dataclass(frozen=True)
class FeistelSpec:
    """Alternating (unbalanced for odd n) Feistel network on n bits.

    The low ceil(n/2) bits form L, the high floor(n/2) bits form R.  Round i
    XORs a keyed mix of the untouched half into the other: even rounds update
    L from R, odd rounds update R from L.  Inversion replays rounds in
    reverse order.  A round's mix depends on the untouched half alone, so it
    is evaluated once at every value of that half (at most 2**15 words for
    n <= 30) and kept with the spec: a round is then one uint32 gather.
    """

    n: int
    key: int

    def _halves(self):
        n_low = (self.n + 1) // 2
        n_high = self.n - n_low
        return n_low, n_high

    def _round_key(self, i: int) -> np.uint64:
        return _finalize(np.uint64(self.key & 0xFFFFFFFFFFFFFFFF) ^ np.uint64(0xA076_1D64_78BD_642F + i))

    @cached_property
    def _round_tables(self) -> tuple[np.ndarray, ...]:
        """Round i's mix, masked to the half it updates, at every value of the
        half it reads, as uint32."""
        n_low, n_high = self._halves()
        tables = []
        for i in range(FEISTEL_ROUNDS):
            src, dst = (n_high, n_low) if i % 2 == 0 else (n_low, n_high)
            words = counter_words(self._round_key(i), np.arange(1 << src, dtype=np.uint64))
            tables.append((words & np.uint64((1 << dst) - 1)).astype(np.uint32))
        return tuple(tables)

    def forward(self, xs: np.ndarray) -> np.ndarray:
        return self._run(xs, range(FEISTEL_ROUNDS))

    def inverse(self, xs: np.ndarray) -> np.ndarray:
        return self._run(xs, reversed(range(FEISTEL_ROUNDS)))

    def _run(self, xs: np.ndarray, order) -> np.ndarray:
        n_low, n_high = self._halves()
        tables = self._round_tables
        x = np.asarray(xs, dtype=np.uint32)
        lo = x & np.uint32((1 << n_low) - 1)
        hi = (x >> np.uint32(n_low)) & np.uint32((1 << n_high) - 1)
        for i in order:
            if i % 2 == 0:
                lo = lo ^ tables[i][hi]
            else:
                hi = hi ^ tables[i][lo]
        return lo | (hi << np.uint32(n_low))


@dataclass(frozen=True)
class SubsetPermutation:
    """Seeded bijection on [0, 2**n), by table or Feistel network.

    A table is checked to be a bijection on [0, 2**n) here, and its inverse
    table is derived from it, since it may come from outside (a sidecar)."""

    shape: SystemShape
    table: np.ndarray | None = field(default=None, repr=False)
    feistel: FeistelSpec | None = None
    inverse_table: np.ndarray | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        if (self.table is None) == (self.feistel is None):
            raise ValueError("exactly one of table / feistel must be set")
        if self.table is None:
            return
        table, dim = self.table, self.shape.dim
        if len(table) != dim:
            raise ValueError("table length does not match shape")
        # range first, so bincount never allocates past 2**n; dim counts that
        # sum to dim are all 1 exactly when none exceeds 1
        if table.max() >= dim or np.bincount(table, minlength=dim).max() != 1:
            raise ValueError("permutation table is not a bijection on [0, 2**n)")
        inv = np.empty_like(table)
        inv[table] = np.arange(dim, dtype=table.dtype)
        object.__setattr__(self, "inverse_table", inv)

    def permute(self, x: int) -> int:
        check_index(x, self.shape)
        return int(self.forward_array(np.asarray([x]))[0])

    def invert(self, y: int) -> int:
        check_index(y, self.shape)
        return int(self.inverse_array(np.asarray([y]))[0])

    def forward_array(self, xs: np.ndarray) -> np.ndarray:
        xs = np.asarray(xs)
        if self.table is not None:
            return self.table[xs]
        return self.feistel.forward(xs)

    def inverse_array(self, ys: np.ndarray) -> np.ndarray:
        ys = np.asarray(ys)
        if self.inverse_table is not None:
            return self.inverse_table[ys]
        return self.feistel.inverse(ys)


@dataclass(frozen=True)
class SignFunction:
    """Deterministic sign bit f(x) on [0, 2**n); explicit bits must lie in {0, 1}."""

    shape: SystemShape
    bits: np.ndarray | None = field(default=None, repr=False)
    key: int | None = None

    def __post_init__(self):
        if (self.bits is None) == (self.key is None):
            raise ValueError("exactly one of bits / key must be set")
        if self.bits is None:
            return
        if len(self.bits) != self.shape.dim:
            raise ValueError("bit array length does not match shape")
        if np.any((self.bits != 0) & (self.bits != 1)):
            raise ValueError("sign bits must lie in {0, 1}")

    def sign_array(self, xs: np.ndarray) -> np.ndarray:
        xs = np.asarray(xs)
        if self.bits is not None:
            return self.bits[xs]
        return (counter_words(self.key & 0xFFFFFFFFFFFFFFFF, xs) >> np.uint64(63)).astype(np.uint8)


def sample_permutation(shape: SystemShape, seed: RngSeed) -> SubsetPermutation:
    """Seeded random permutation: a Fisher-Yates table for n <= 16, else a
    Feistel network keyed by the seed."""
    if shape.n <= 16:
        return SubsetPermutation(shape, table=fisher_yates(shape.dim, seed))
    return SubsetPermutation(shape, feistel=FeistelSpec(shape.n, int(seed.state())))


def sample_sign_function(shape: SystemShape, seed: RngSeed) -> SignFunction:
    """Seeded sign function: bits from the seed's stream for n <= 16, else the
    keyed PRF."""
    if shape.n <= 16:
        return SignFunction(shape, bits=WordStream(seed).bits(shape.dim))
    return SignFunction(shape, key=int(seed.state()))


def save_permutation(p: SubsetPermutation, path) -> None:
    """Binary sidecar: magic 'RSEDPERM1', u32 LE n, then 2**n u32 LE entries."""
    if p.table is None:
        raise ValueError("only explicit-table permutations are serialized")
    with open(path, "wb") as fh:
        fh.write(PERM_MAGIC)
        fh.write(struct.pack("<I", p.shape.n))
        fh.write(p.table.astype("<u4").tobytes())


def load_permutation(path, k: int) -> SubsetPermutation:
    with open(path, "rb") as fh:
        magic = fh.read(len(PERM_MAGIC))
        if magic != PERM_MAGIC:
            raise ValueError(f"bad magic {magic!r}, expected {PERM_MAGIC!r}")
        header = fh.read(4)
        if len(header) != 4:
            raise ValueError("truncated permutation file")
        (n,) = struct.unpack("<I", header)
        shape = SystemShape(n, k)
        table = np.frombuffer(fh.read(4 * shape.dim), dtype="<u4").astype(np.uint32)
        trailing = fh.read(1)
    if len(table) != shape.dim:
        raise ValueError("truncated permutation file")
    if trailing:
        raise ValueError("trailing bytes after the permutation table")
    return SubsetPermutation(shape, table=table)
