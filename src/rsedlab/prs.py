"""Pseudorandom-state diagnostics: coherence of RSED states, type-state
mixtures on K**t dimensions, trace distance and design-condition checks.

The states are RSED states U|x> as rsed.evolve_basis_state returns them.
With u = H^{tensor k}, U|p(join(0, a))> is, up to a global sign, the
binary-phase subset state 2**(-k/2) sum_b (-1)^{f(join(b, a))}
|p(join(b, a))>.  Density matrices are plain complex arrays: mixture and
hybrid3_state make them, and trace_distance compares two of them."""

from __future__ import annotations

from itertools import combinations, permutations
from math import comb, factorial

import numpy as np

from .subsystem import SubUnitary, _walsh_hadamard

TCOPY_MAX_QUBITS = 16  # dense t-copy algebra capped at dimension 2**16


def mixture(states: np.ndarray) -> np.ndarray:
    """Uniform mixture (1/m) sum_i |s_i><s_i| of the m rows of states."""
    states = np.asarray(states, dtype=np.complex128)
    weights = np.full(states.shape[0], 1.0 / states.shape[0])
    return (states.T * weights[None, :]) @ states.conj()


def _shannon(probs: np.ndarray) -> float:
    probs = probs[probs > 1e-300]
    return float(-np.sum(probs * np.log(probs)))


def coherence_rel_entropy(psi: np.ndarray) -> float:
    """Relative entropy of coherence S(diag rho) - S(rho) in nats, >= 0; for
    a pure state S(rho) = 0, leaving the Shannon entropy of |amplitude|**2."""
    return _shannon(np.abs(psi) ** 2)


def _type_state(subset: tuple[int, ...], dim: int) -> np.ndarray:
    """Symmetrized distinct-index state over t copies, dimension dim**t."""
    t = len(subset)
    amps = np.zeros(dim**t, dtype=np.complex128)
    for order in permutations(subset):
        idx = 0
        for b in order:
            idx = idx * dim + b
        amps[idx] += 1.0
    return amps / np.sqrt(factorial(t))


def hybrid3_state(k: int, t: int) -> np.ndarray:
    """Uniform mixture over symmetrized t-tuples of distinct subsystem
    indices b in [0, K), K = 2**k, on K**t dimensions."""
    if t < 1:
        raise ValueError("t must be >= 1")
    K = 1 << k
    if t > K:
        raise ValueError("distinct-index types need t <= K")
    if k * t > TCOPY_MAX_QUBITS:
        raise ValueError(f"t-copy algebra capped at {TCOPY_MAX_QUBITS} qubits")
    total = K**t
    rho = np.zeros((total, total), dtype=np.complex128)
    for subset in combinations(range(K), t):
        vec = _type_state(subset, K)
        rho += np.outer(vec, vec.conj())
    return rho / comb(K, t)


def trace_distance(rho: np.ndarray, sigma: np.ndarray) -> float:
    """(1/2) sum |eig(rho - sigma)| of two density matrices, in [0, 1]."""
    eigs = np.linalg.eigvalsh(rho - sigma)
    return float(0.5 * np.sum(np.abs(eigs)))


def design_variance_condition(u: SubUnitary) -> float:
    """Ybar = mean over distinct-index pairs {b_1, b_2} (t = 2 copies) of
    (X/Xbar - 1)**2, with X_b = |u_{b_1, 0}|**2 |u_{b_2, 0}|**2 on the
    reference column 0; inf (degenerate) when Xbar = 0 instead of dividing."""
    K = u.dim
    if K > 64:
        raise ValueError("enumeration capped at K <= 64")
    col = np.abs(u.matrix[:, 0]) ** 2
    xs = np.array([np.prod(col[list(subset)]) for subset in combinations(range(K), 2)])
    xbar = xs.mean()
    if xbar == 0.0:
        return float("inf")
    return float(np.mean((xs / xbar - 1.0) ** 2))


def element_condition_check(u: SubUnitary) -> float:
    """Exact scan of |u|**2 against the threshold K**-0.3: the worst
    per-column fraction of entries at or above it.  The condition holds
    exactly when this is 0, that is when no entry reaches the threshold.
    """
    exceed = np.abs(u.matrix) ** 2 >= u.dim ** (-0.3)
    return float(exceed.mean(axis=0).max())


def coherence_trial(pos: np.ndarray, amps: np.ndarray, n: int) -> tuple[float, float]:
    """(c0, c1) in nats for a state on n qubits given as the sparse pairs
    (pos, amps) of rsed.evolve_basis_state: its coherence, exactly k log 2
    for U|x> of a gate with flat columns such as H^{tensor k} P, and that
    after a Hadamard on every qubit, one Walsh-Hadamard transform of the
    dense (2**n, 1) amplitudes."""
    psi = np.zeros((1 << n, 1), dtype=amps.dtype)
    psi[pos, 0] = amps
    return coherence_rel_entropy(amps), coherence_rel_entropy(_walsh_hadamard(psi, np.empty_like(psi)))


def entanglement_entropy(psi: np.ndarray, cut) -> float:
    """Von Neumann entropy (nats) of the reduced state of 2**n amplitudes
    across the cut."""
    psi = np.asarray(psi)
    n = max(psi.size.bit_length() - 1, 0)
    dim = 1 << n
    if psi.shape != (dim,):
        raise ValueError(f"expected 2**n amplitudes, got shape {psi.shape}")
    side_a = sorted(set(int(q) for q in cut))
    if any(not 0 <= q < n for q in side_a):
        raise ValueError("cut sites out of range")
    if len(side_a) == 0 or len(side_a) == n:
        raise ValueError("cut must be a proper nonempty subset of sites")
    side_b = [q for q in range(n) if q not in side_a]
    xs = np.arange(dim)
    ia = np.zeros(dim, dtype=np.int64)
    for pos, q in enumerate(side_a):
        ia |= ((xs >> q) & 1) << pos
    ib = np.zeros(dim, dtype=np.int64)
    for pos, q in enumerate(side_b):
        ib |= ((xs >> q) & 1) << pos
    m = np.zeros((1 << len(side_a), 1 << len(side_b)), dtype=np.complex128)
    m[ia, ib] = psi
    svals = np.linalg.svd(m, compute_uv=False)
    probs = svals**2
    probs = probs / probs.sum()
    return _shannon(probs)
