"""The full-system operator U = sum_a O_a u O_a^dagger, applied blockwise.

Within seed block a, positions p(join(b, a)) for b in [0, K) carry an
embedded copy of u dressed by the signs (-1)^{f}.  Since p is a bijection on
all 2**n points, the blocks partition the full space and application costs
O(2**(n-k) * K**2) with no materialization.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bitcore import SystemShape, check_index, split
from .randomness import SignFunction, SubsetPermutation
from .subsystem import SubUnitary

DENSE_MAX_N = 10


@dataclass(frozen=True)
class RsedOperator:
    """U = sum_a O_a u O_a^dagger for one (p, f, u) realization."""

    shape: SystemShape
    perm: SubsetPermutation
    sign: SignFunction
    sub: SubUnitary

    def __post_init__(self):
        if self.sub.k != self.shape.k:
            raise ValueError(f"sub unitary acts on k={self.sub.k}, shape has k={self.shape.k}")
        if self.perm.shape != self.shape or self.sign.shape != self.shape:
            raise ValueError("permutation/sign shapes do not match operator shape")

    def _block_indices(self, seeds: np.ndarray) -> np.ndarray:
        """Row a holds join(b, seeds[a]) over b in [0, K)."""
        seeds = np.asarray(seeds, dtype=np.uint32)
        return (seeds[:, None] << np.uint32(self.shape.k)) | np.arange(self.shape.subdim, dtype=np.uint32)[None, :]

    def block_positions(self, seeds: np.ndarray) -> np.ndarray:
        """Row a of the result holds p(join(b, seeds[a])) over b in [0, K)."""
        xs = self._block_indices(seeds)
        return self.perm.forward_array(xs.reshape(-1)).reshape(xs.shape)

    def block_signs(self, seeds: np.ndarray) -> np.ndarray:
        """Row a holds (-1)^{f(join(b, seeds[a]))} over b, as float."""
        xs = self._block_indices(seeds)
        return 1.0 - 2.0 * self.sign.sign_array(xs.reshape(-1)).reshape(xs.shape).astype(np.float64)

    def adjoint(self) -> "RsedOperator":
        return RsedOperator(self.shape, self.perm, self.sign, self.sub.adjoint())


def apply(op: RsedOperator, amps: np.ndarray) -> np.ndarray:
    """U amps for 2**n amplitudes: gather each block, sign, act with u, sign,
    scatter back."""
    amps = np.asarray(amps, dtype=np.complex128)
    if amps.shape != (op.shape.dim,):
        raise ValueError(f"expected {op.shape.dim} amplitudes, got shape {amps.shape}")
    seeds = np.arange(op.shape.num_seeds)
    return _apply_blocks(op.sub.matrix, op.block_positions(seeds), op.block_signs(seeds), amps)


def _apply_blocks(u: np.ndarray, pos: np.ndarray, sg: np.ndarray, amps: np.ndarray) -> np.ndarray:
    """apply's blockwise step for every block's positions pos and signs sg,
    so callers that apply one (p, f) many times gather them once."""
    c = amps[pos] * sg
    d = c @ u.T  # d[a, b'] = sum_b u[b', b] c[a, b]
    out = np.empty_like(amps)
    out[pos] = d * sg
    return out


def evolve_basis_state(op: RsedOperator, x: int) -> tuple[np.ndarray, np.ndarray]:
    """U|x> as K sparse pairs: indices p(join(b', a)) and amplitudes
    u_{b', b} (-1)^{f(join(b, a)) + f(join(b', a))} with (b, a) = split(p^{-1}(x))."""
    check_index(x, op.shape)
    b, a = split(op.perm.invert(x), op.shape)
    seeds = np.asarray([a])
    pos = op.block_positions(seeds)[0]
    sg = op.block_signs(seeds)[0]
    amps = op.sub.matrix[:, b] * (sg[b] * sg)
    return pos.copy(), amps


def dense_embedding(op: RsedOperator, block: np.ndarray) -> np.ndarray:
    """N x N matrix sum_a O_a block O_a^dagger for a K x K block (n <= 10)."""
    if op.shape.n > DENSE_MAX_N:
        raise ValueError(f"dense materialization capped at n={DENSE_MAX_N}")
    N = op.shape.dim
    seeds = np.arange(op.shape.num_seeds)
    pos = op.block_positions(seeds)
    sg = op.block_signs(seeds)
    out = np.zeros((N, N), dtype=np.complex128)
    for a in range(op.shape.num_seeds):
        out[np.ix_(pos[a], pos[a])] = (sg[a][:, None] * sg[a][None, :]) * block
    return out


def dense_matrix(op: RsedOperator) -> np.ndarray:
    """N x N materialization of U (oracle backend, n <= 10)."""
    return dense_embedding(op, op.sub.matrix)
