"""Embedded K x K unitaries and Hamiltonians: Hadamard layers, random-sign
Hadamard, the Pauli spin-SYK model, parent Hamiltonians, real-time powers."""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

import numpy as np
from scipy.linalg import schur

from .bitcore import PauliString, pauli_action
from .rng import RngSeed, WordStream

MAX_SUB_QUBITS = 12  # dense K x K with K = 2**k capped at 4096

UNITARITY_TOL = 1e-10
HERMITICITY_TOL = 1e-10
PHASE_SNAP = 1e-6  # arccos eigenphases this close to 0 or pi are exactly 0 or pi


def _check_k(k: int) -> None:
    if not 1 <= k <= MAX_SUB_QUBITS:
        raise ValueError(f"k must be in [1, {MAX_SUB_QUBITS}], got {k}")


@dataclass(frozen=True)
class SubUnitary:
    """Dense K x K unitary acting on the embedded subsystem.

    The constructor checks unitarity (O(K**3)) because the matrix comes from
    the caller; gates this module builds skip that check via _trusted.  The
    Schur eigenpath (theta, z) is computed on first use and kept with the
    gate (see _unitary_eigh), so treat `matrix` as read-only."""

    k: int
    matrix: np.ndarray = field(repr=False)
    _eig: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        _check_k(self.k)
        m = np.asarray(self.matrix, dtype=np.complex128)
        object.__setattr__(self, "matrix", m)
        K = 1 << self.k
        if m.shape != (K, K):
            raise ValueError(f"expected shape {(K, K)}, got {m.shape}")
        dev = np.max(np.abs(m.conj().T @ m - np.eye(K)))
        if dev > UNITARITY_TOL:
            raise ValueError(f"matrix is not unitary (deviation {dev:.3g})")

    @property
    def dim(self) -> int:
        return 1 << self.k

    def adjoint(self) -> "SubUnitary":
        return _trusted(self.k, self.matrix.conj().T)


def _trusted(k: int, matrix: np.ndarray) -> SubUnitary:
    """SubUnitary around a matrix this module built as unitary; no check."""
    u = object.__new__(SubUnitary)
    object.__setattr__(u, "k", k)
    object.__setattr__(u, "matrix", np.asarray(matrix, dtype=np.complex128))
    object.__setattr__(u, "_eig", None)
    return u


@dataclass(frozen=True)
class SubHamiltonian:
    """Dense K x K Hermitian matrix with its eigendecomposition cached."""

    k: int
    matrix: np.ndarray = field(repr=False)
    eigenvalues: np.ndarray = field(init=False, repr=False)
    eigenvectors: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        _check_k(self.k)
        m = np.asarray(self.matrix, dtype=np.complex128)
        object.__setattr__(self, "matrix", m)
        K = 1 << self.k
        if m.shape != (K, K):
            raise ValueError(f"expected shape {(K, K)}, got {m.shape}")
        dev = np.max(np.abs(m - m.conj().T))
        if dev > HERMITICITY_TOL:
            raise ValueError(f"matrix is not Hermitian (deviation {dev:.3g})")
        lam, vec = np.linalg.eigh(m)
        object.__setattr__(self, "eigenvalues", lam)
        object.__setattr__(self, "eigenvectors", vec)

    @property
    def dim(self) -> int:
        return 1 << self.k


def _dense_h(k: int) -> np.ndarray:
    """Real H^{tensor k}: entries 2**(-k/2) * (-1)**(b . b')."""
    h1 = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
    m = np.array([[1.0]])
    for _ in range(k):
        m = np.kron(m, h1)
    return m


def _signs(k: int, seed: RngSeed) -> np.ndarray:
    """The seeded diagonal of P, (-1)**phi(b), as float."""
    return 1.0 - 2.0 * WordStream(seed).bits(1 << k).astype(np.float64)


def hadamard_layer(k: int) -> SubUnitary:
    """u = H tensor-power k: entries 2**(-k/2) * (-1)**(b . b')."""
    _check_k(k)
    return _trusted(k, _dense_h(k))


def random_sign_diag(k: int, seed: RngSeed) -> SubUnitary:
    """Diagonal P with entries (-1)**phi(b), phi seeded."""
    _check_k(k)
    return _trusted(k, np.diag(_signs(k, seed)))


def random_sign_hadamard(k: int, seed: RngSeed) -> SubUnitary:
    """u = H^{tensor k} P, the workhorse non-chaotic embedded gate."""
    _check_k(k)
    return _trusted(k, _dense_h(k) * _signs(k, seed)[None, :])


def pauli_syk(k: int, seed: RngSeed) -> SubHamiltonian:
    """All-to-all four-body random Hamiltonian over Pauli Majorana labels.

    chi_{2m-1} = X_m, chi_{2m} = Y_m (labels 1-based), couplings J standard
    normal.  Each term carries i**eta with eta the number of same-site label
    pairs among the four (0, 1, or 2), which is exactly the phase needed to
    keep every term Hermitian.  Since X_m Y_m = i Z_m, the four labels
    multiply to i**eta times one Pauli string (Z on each paired site), so a
    term is J (-1)**eta times that string, added through its signed-permutation
    action.  The result is rescaled by 1/max(|E_min|, |E_max|) so the spectrum
    lies in [-1, 1] with one endpoint at magnitude 1.
    """
    if k < 2:
        raise ValueError(f"pauli_syk needs k >= 2, got k={k}")
    _check_k(k)
    K = 1 << k
    # 0-based label L sits on site L // 2, as X for even L and Y for odd L
    quads = list(combinations(range(2 * k), 4))
    couplings = WordStream(seed).standard_normal(len(quads))
    rows = np.arange(K)
    h = np.zeros((K, K), dtype=np.complex128)
    for J, quad in zip(couplings, quads):
        axes: dict[int, str] = {}
        for label in quad:
            site = label // 2
            axes[site] = "Z" if site in axes else "XY"[label % 2]
        eta = 4 - len(axes)
        src, phase = pauli_action(PauliString(tuple(axes.items())), k)
        h[rows, src] += J * (-1.0) ** eta * phase
    lam = np.linalg.eigvalsh(h)
    scale = max(abs(lam[0]), abs(lam[-1]))
    if scale > 0:
        h = h / scale
    return SubHamiltonian(k, h)


def _unitary_eigh(u: SubUnitary) -> tuple[np.ndarray, np.ndarray]:
    """Eigenphases theta in (-pi, pi] and an orthonormal eigenbasis, computed
    once per gate and cached on it (read-only arrays).

    Schur of a normal matrix is diagonal, so Z gives orthonormal eigenvectors
    even under degeneracies (unlike np.linalg.eig).  Every fractional power,
    parent_hamiltonian and the criteria share the one factorization.
    """
    if u._eig is None:
        t_mat, z = schur(u.matrix, output="complex")
        ev = np.diag(t_mat)
        if np.max(np.abs(np.abs(ev) - 1.0)) > 1e-8:
            raise ValueError("input is not unitary to working precision")
        theta = np.angle(ev)
        theta.flags.writeable = False
        z.flags.writeable = False
        object.__setattr__(u, "_eig", (theta, z))
    return u._eig


def _phase_branch(theta: np.ndarray) -> np.ndarray:
    lam = -theta / (2.0 * np.pi)
    lam[np.isclose(lam, -0.5, atol=1e-12)] = 0.5
    return lam


def _orthogonal_phases(m: np.ndarray) -> np.ndarray:
    """Eigenphases of a real orthogonal m from the symmetric eigenproblem.

    m is normal, so the real parts of its eigenvalues are the eigenvalues of
    (m + m^T)/2, and its spectrum is closed under theta -> -theta.  Sorted in
    descending order, each conjugate pair e^{+-i theta} shows up as two
    adjacent cos(theta) entries, so alternate signs +, - rebuild it.  arccos
    loses ~1e-8 next to +-1, so theta within PHASE_SNAP of 0 or pi is set to
    exactly 0 or pi (the real eigenvalues +1 and -1).
    """
    K = m.shape[0]
    dev = np.max(np.abs(m.T @ m - np.eye(K)))
    if not dev <= 1e-8:
        raise ValueError(f"input is not unitary to working precision (deviation {dev:.3g})")
    c = np.linalg.eigvalsh(0.5 * (m + m.T))[::-1]
    theta = np.arccos(np.clip(c, -1.0, 1.0))
    theta[theta < PHASE_SNAP] = 0.0
    theta[theta > np.pi - PHASE_SNAP] = np.pi
    theta[1::2] *= -1.0
    return theta


def parent_hamiltonian(u: SubUnitary) -> SubHamiltonian:
    """h = (i/2pi) log u, branch fixed so exp(-2 pi i h) = u and the
    eigenvalue -1 maps to +1/2 (spectrum in (-1/2, 1/2])."""
    theta, z = _unitary_eigh(u)
    lam = _phase_branch(theta)
    h = (z * lam[None, :]) @ z.conj().T
    h = 0.5 * (h + h.conj().T)
    return SubHamiltonian(u.k, h)


def parent_spectrum(u: SubUnitary) -> np.ndarray:
    """Sorted eigenvalues of the parent Hamiltonian, without the dense
    reconstruction (same branch as parent_hamiltonian).

    A real (orthogonal) gate goes through the symmetric eigenproblem of
    (u + u^T)/2 (_orthogonal_phases), several times faster than a general
    eigensolver; a complex gate keeps np.linalg.eigvals.
    """
    m = u.matrix
    if np.max(np.abs(m.imag)) < 1e-14:
        theta = _orthogonal_phases(m.real)
    else:
        ev = np.linalg.eigvals(m)
        if np.max(np.abs(np.abs(ev) - 1.0)) > 1e-8:
            raise ValueError("input is not unitary to working precision")
        theta = np.angle(ev)
    return np.sort(_phase_branch(theta))


def unitary_power(u: SubUnitary, t) -> SubUnitary:
    """u**t: repeated multiplication for Python ints t >= 0, eigenpath
    V e^{i theta t} V^dagger (theta in (-pi, pi]) for real t, from the Schur
    form cached on u, so a grid of t costs one factorization per gate.

    theta is np.angle of the Schur diagonal, so for an eigenvalue -1 the
    rounding of that factorization picks +pi or -pi: unlike
    parent_hamiltonian, this path has no fixed branch.
    """
    if isinstance(t, (int, np.integer)):
        if t < 0:
            raise ValueError("integer powers must be >= 0")
        return _trusted(u.k, np.linalg.matrix_power(u.matrix, int(t)))
    theta, z = _unitary_eigh(u)
    m = (z * np.exp(1j * theta * float(t))[None, :]) @ z.conj().T
    return _trusted(u.k, m)


def evolve(h: SubHamiltonian, t: float) -> SubUnitary:
    """e^{-i h t} via the cached eigendecomposition."""
    phases = np.exp(-1j * h.eigenvalues * float(t))
    m = (h.eigenvectors * phases[None, :]) @ h.eigenvectors.conj().T
    return _trusted(h.k, m)


def walsh_hadamard(matrix: np.ndarray) -> np.ndarray:
    """H^{tensor k} @ matrix via a blocked tensor split (two BLAS calls).

    The row index splits into (high k1 bits, low k2 bits) and H^{tensor k}
    factorizes accordingly, so the transform is two dense multiplications by
    small Hadamard blocks instead of one K x K product.
    """
    m = np.asarray(matrix)
    K = m.shape[0]
    k = K.bit_length() - 1
    cols = m.reshape(K, -1).shape[1]
    k1 = k // 2
    k2 = k - k1
    K1, K2 = 1 << k1, 1 << k2
    if k1 == 0:
        return (_dense_h(k2) @ m.reshape(K, -1)).reshape(m.shape)
    t = _dense_h(k1) @ m.reshape(K1, K2 * cols)
    t = t.reshape(K1, K2, cols).transpose(1, 0, 2).reshape(K2, K1 * cols)
    t = _dense_h(k2) @ t
    out = t.reshape(K2, K1, cols).transpose(1, 0, 2).reshape(K, cols)
    return out.reshape(m.shape)


def hadamard_sign_power(k: int, seed: RngSeed, t: int) -> SubUnitary:
    """(H^{tensor k} P)^t for integer t via blocked transforms."""
    if t < 0:
        raise ValueError("t must be >= 0")
    _check_k(k)
    signs = _signs(k, seed)
    m = np.eye(1 << k)
    for _ in range(t):
        m = walsh_hadamard(signs[:, None] * m)
    return _trusted(k, m)


def element_magnitude_stats(u: SubUnitary, eps: float | None = None):
    """Exact |u_{b,b'}|**2 statistics over all K**2 entries.

    Returns (max, mean, fraction exceeding K**-eps); the fraction is None
    when eps is not given.
    """
    m = np.abs(u.matrix) ** 2
    frac = None
    if eps is not None:
        frac = float(np.mean(m >= u.dim ** (-eps)))
    return float(m.max()), float(m.mean()), frac
