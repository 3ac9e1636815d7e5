"""Basis-index arithmetic: bit layouts, subsystem/seed splits, and Pauli
strings as signed basis permutations.

Layout convention used everywhere in this package: a full-system basis index
x splits into a subsystem index b (the LOW k bits) and a seed index a (the
HIGH n-k bits), so x = b + a * 2**k.  Site j carries bit weight 2**j; sites
are 0-based.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

MAX_QUBITS = 30

_AXES = ("X", "Y", "Z")


@dataclass(frozen=True)
class SystemShape:
    """The (n, k) qubit split defining full and subsystem dimensions."""

    n: int
    k: int

    def __post_init__(self):
        if not 1 <= self.n <= MAX_QUBITS:
            raise ValueError(f"n must be in [1, {MAX_QUBITS}], got {self.n}")
        if not 1 <= self.k <= self.n:
            raise ValueError(f"k must be in [1, n={self.n}], got {self.k}")

    @property
    def dim(self) -> int:
        """Full Hilbert-space dimension N = 2**n."""
        return 1 << self.n

    @property
    def subdim(self) -> int:
        """Subsystem dimension K = 2**k."""
        return 1 << self.k

    @property
    def num_seeds(self) -> int:
        """Number of seed blocks A = 2**(n-k)."""
        return 1 << (self.n - self.k)


def check_index(x: int, shape: SystemShape) -> None:
    if not 0 <= x < shape.dim:
        raise ValueError(f"basis index {x} out of range [0, {shape.dim})")


def split(x: int, shape: SystemShape) -> tuple[int, int]:
    """Split full index x into (b, a): b = low k bits, a = high n-k bits."""
    check_index(x, shape)
    return x & (shape.subdim - 1), x >> shape.k


def join(b: int, a: int, shape: SystemShape) -> int:
    """Inverse of split: x = b + a * 2**k."""
    if not 0 <= b < shape.subdim:
        raise ValueError(f"subsystem index {b} out of range [0, {shape.subdim})")
    if not 0 <= a < shape.num_seeds:
        raise ValueError(f"seed index {a} out of range [0, {shape.num_seeds})")
    return b | (a << shape.k)


@dataclass(frozen=True)
class PauliString:
    """Product of single-site Paulis, at most one axis per site; squares to I."""

    sites: tuple[tuple[int, str], ...]

    def __post_init__(self):
        seen = set()
        for j, axis in self.sites:
            if axis not in _AXES:
                raise ValueError(f"axis must be one of {_AXES}, got {axis!r}")
            if j in seen:
                raise ValueError(f"site {j} repeated in Pauli string")
            seen.add(j)

    def masks(self, n: int) -> tuple[int, int, int]:
        """(flip mask from X/Y, Z-phase mask from Z/Y, number of Y sites)."""
        flip = phase = ny = 0
        for j, axis in self.sites:
            if not 0 <= j < n:
                raise ValueError(f"site {j} out of range [0, {n})")
            if axis in ("X", "Y"):
                flip |= 1 << j
            if axis in ("Z", "Y"):
                phase |= 1 << j
            if axis == "Y":
                ny += 1
        return flip, phase, ny


def pauli_action(s: PauliString, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(source index array, phase array) with (S psi)[x] = phase[x] psi[src[x]].

    X flips, Z phases, Y = i X Z per site; each Z|Y site j contributes
    (-1)^{bit_j of the KET index} to <x|S|x^flip>.
    """
    flip, zmask, ny = s.masks(n)
    src = np.arange(1 << n) ^ flip
    par = np.bitwise_count(src & zmask) & 1
    return src, (1j) ** (ny % 4) * (1.0 - 2.0 * par)
