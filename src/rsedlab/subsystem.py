"""Embedded K x K unitaries and Hamiltonians: Hadamard layers, random-sign
Hadamard, the Pauli spin-SYK model, parent Hamiltonians, real-time powers."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache
from itertools import combinations

import numpy as np

from .bitcore import PauliString, pauli_action
from .pool import COMPLEX_BLAS_SERIAL_SIZE, zz_chunks_pooled
from .rng import RngSeed, WordStream

MAX_SUB_QUBITS = 12  # dense K x K with K = 2**k capped at 4096

UNITARITY_TOL = 1e-10
HERMITICITY_TOL = 1e-10
PHASE_SNAP = 1e-6  # arccos eigenphases this close to 0 or pi are exactly 0 or pi
# Cap on K * columns of one Hadamard-sign column batch, as a bit count so
# that the batch width (column_batches) is a power of two: 2**17 entries, 1 MiB
# of float64, so the XOR tile and each worker's batch and transform scratch
# fit in a few MiB of cache.  Timed in fresh processes over the scaling
# curve k = 4, 7, 9, 12 at t = 4 (2 cores, 2 MiB L2 each, transform in
# factors of at most 4 bits, batches on 2 pool workers), median of 10:
# 2**17 122 ms, 2**18 135 ms, 2**16 139 ms.  Another width would also move
# the f-average's last bits, which are summed batch by batch.
_F_BATCH_BITS = 17
# Columns per stacked slice of a Walsh-Hadamard factor: a 16 x 16 factor
# times 512 columns is 2**17 multiply-adds, under pool.BLAS_SERIAL_SIZE.
_WH_SLICE = 512


def _check_k(k: int) -> None:
    if not 1 <= k <= MAX_SUB_QUBITS:
        raise ValueError(f"k must be in [1, {MAX_SUB_QUBITS}], got {k}")


@dataclass(frozen=True)
class SubUnitary:
    """Dense K x K unitary acting on the embedded subsystem.

    The constructor is the one unitarity check (O(K**3)), as the matrix comes
    from the caller; gates this module builds skip it via _trusted.  A real
    matrix is kept as float64 and any other as complex128 (_gate_array).
    The Schur eigenpath (theta, z) is computed on first use and kept with the
    gate (see _unitary_eigh), so treat `matrix` as read-only."""

    k: int
    matrix: np.ndarray = field(repr=False)
    _eig: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        _check_k(self.k)
        m = _gate_array(self.matrix)
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


def _gate_array(matrix) -> np.ndarray:
    """A gate's matrix as float64 if it is real, else as complex128: a real
    gate stays real, so parent_spectrum and the ZZ trace kernel can pick
    their real path by dtype."""
    m = np.asarray(matrix)
    return m.astype(np.complex128 if np.iscomplexobj(m) else np.float64, copy=False)


def _trusted(k: int, matrix: np.ndarray) -> SubUnitary:
    """SubUnitary around a matrix, no check: the caller must build it unitary,
    since parent spectra, powers and Schur eigenpaths never check again."""
    u = object.__new__(SubUnitary)
    object.__setattr__(u, "k", k)
    object.__setattr__(u, "matrix", _gate_array(matrix))
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


@cache
def _sylvester(k: int) -> np.ndarray:
    """The sign pattern (-1)**(b . b') of H^{tensor k}, as a shared read-only
    int8 array (1 MiB at k = 10)."""
    p = np.ones((1, 1), dtype=np.int8)
    for _ in range(k):
        p = np.block([[p, p], [p, -p]])
    p.flags.writeable = False
    return p


def _dense_h(k: int) -> np.ndarray:
    """Real H^{tensor k}: entries 2**(-k/2) * (-1)**(b . b'), a new array.

    The magnitude is 1/sqrt(2) multiplied in k times, rounded at each step,
    so the result equals the chain of k Kronecker products by the normalized
    2 x 2 factor bit for bit (a product of two normalized factors would not:
    it rounds differently at k = 4 and k = 12)."""
    scale = 1.0
    for _ in range(k):
        scale *= 1.0 / np.sqrt(2.0)
    return _sylvester(k) * scale


@cache
def _hadamard_factor(k: int) -> np.ndarray:
    """_dense_h(k) as a shared read-only array, for the factors (at most
    16 x 16) of _walsh_hadamard; full gates call _dense_h, so no K x K array
    outlives its gate."""
    m = _dense_h(k)
    m.flags.writeable = False
    return m


def sign_bits(k: int, seed: RngSeed) -> np.ndarray:
    """The seeded bits phi(b) of P = diag((-1)**phi(b)), as uint8."""
    return WordStream(seed).bits(1 << k)


def _signs(k: int, seed: RngSeed) -> np.ndarray:
    """The seeded diagonal of P, (-1)**phi(b), as float."""
    return 1.0 - 2.0 * sign_bits(k, seed).astype(np.float64)


def hadamard_layer(k: int) -> SubUnitary:
    """u = H tensor-power k: entries 2**(-k/2) * (-1)**(b . b')."""
    _check_k(k)
    return _trusted(k, _dense_h(k))


def identity_gate(k: int) -> SubUnitary:
    """u = identity on k qubits."""
    _check_k(k)
    return _trusted(k, np.eye(1 << k))


def random_sign_hadamard(k: int, seed: RngSeed) -> SubUnitary:
    """u = H^{tensor k} P, the workhorse non-chaotic embedded gate."""
    _check_k(k)
    m = _dense_h(k)
    m *= _signs(k, seed)[None, :]
    return _trusted(k, m)


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


def schur(a: np.ndarray):
    """The complex scipy.linalg.schur form, imported on first call: a lazy
    module-level name, so runs that take no Schur form never pay the ~0.4 s
    scipy.linalg import (the CLI loads it during config validation for runs
    that do), while _unitary_eigh still calls it here, where it can be
    wrapped or patched."""
    from scipy.linalg import schur as scipy_schur

    return scipy_schur(a, output="complex")


def _unitary_eigh(u: SubUnitary) -> tuple[np.ndarray, np.ndarray]:
    """Eigenphases theta in (-pi, pi] and an orthonormal eigenbasis, computed
    once per gate and cached on it (read-only arrays).

    u is unitary by the SubUnitary contract, so its Schur form is diagonal
    and Z gives orthonormal eigenvectors even under degeneracies (unlike
    np.linalg.eig).  Every fractional power, parent_hamiltonian,
    parent_spectrum of a complex gate and the criteria share it.
    """
    if u._eig is None:
        t_mat, z = schur(u.matrix)
        theta = np.angle(np.diag(t_mat))
        theta.flags.writeable = False
        z.flags.writeable = False
        object.__setattr__(u, "_eig", (theta, z))
    return u._eig


def _phase_branch(theta: np.ndarray) -> np.ndarray:
    lam = -theta / (2.0 * np.pi)
    lam[np.isclose(lam, -0.5, atol=1e-12)] = 0.5
    return lam


def _is_symmetric(a: np.ndarray) -> bool:
    """a == a.T exactly, compared in 128 x 128 tiles against the transposed
    tile so that both reads stay in cache (a whole-matrix a == a.T is ~8x
    slower at K = 1024)."""
    K, tile = len(a), 128
    return all(
        np.array_equal(a[i : i + tile, j : j + tile], a[j : j + tile, i : i + tile].T)
        for i in range(0, K, tile)
        for j in range(i, K, tile)
    )


def _orthogonal_phases(m: np.ndarray) -> np.ndarray:
    """Eigenphases of a real orthogonal m from the symmetric eigenproblem.

    m is orthogonal by the SubUnitary contract, hence normal: the real parts
    of its eigenvalues are the eigenvalues of (m + m^T)/2, and its spectrum
    is closed under theta -> -theta.  Sorted in descending order, each
    conjugate pair e^{+-i theta} shows up as two adjacent cos(theta)
    entries, so alternate signs +, - rebuild it.  arccos loses ~1e-8 next
    to +-1, so theta within PHASE_SNAP of 0 or pi is set to exactly 0 or pi
    (the real eigenvalues +1 and -1).

    Let S = {b : m[0, b] > 0} and J = diag(+1 on S, -1 off it).  When J m is
    exactly symmetric (every H^{tensor k} diag(d), whose S is the set d = +1,
    H^{tensor k} and the identity), m = J (J m) is a product of two
    involutions, (m + m^T)/2 = blockdiag(m[S, S], m[S^c, S^c]), and by the
    two-subspace theorem (Halmos 1969) the two blocks share every eigenvalue
    in (-1, 1) with its multiplicity: m[S, S^c] maps the c-eigenvectors of
    m[S^c, S^c] onto those of m[S, S].  So one eigvalsh of the smaller block
    (none for a block of size 0 or 1) gives the values both hold: the larger
    block holds the ones with |c| <= cos(PHASE_SNAP), which PHASE_SNAP does
    not snap, plus n_+ values +1 and n_- values -1, read from its size and
    trace.  Any other gate, or counts that are not within 1e-6 of whole
    numbers >= 0, takes one K x K eigvalsh of (m + m^T)/2.
    """
    pos = m[0] > 0
    c = None
    if _is_symmetric(m * np.where(pos, 1.0, -1.0)[:, None]):
        s, r = np.flatnonzero(pos), np.flatnonzero(~pos)
        if s.size > r.size:
            s, r = r, s
        small = m[np.ix_(s, s)]
        c_small = np.linalg.eigvalsh(small) if s.size > 1 else np.diag(small)
        paired = c_small[np.abs(c_small) <= np.cos(PHASE_SNAP)]
        units = r.size - paired.size  # n_+ + n_-
        net = float(m.diagonal()[r].sum() - paired.sum())  # n_+ - n_-
        n_plus, n_minus = (units + net) / 2.0, (units - net) / 2.0
        if min(n_plus, n_minus) > -1e-6 and abs(n_plus - round(n_plus)) <= 1e-6:
            c = np.concatenate([c_small, paired, np.ones(round(n_plus)), -np.ones(round(n_minus))])
    if c is None:
        c = np.linalg.eigvalsh(0.5 * (m + m.T))
    c = np.sort(c)[::-1]
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

    A real (float64) gate is orthogonal by the SubUnitary contract and goes
    through the symmetric eigenproblem (_orthogonal_phases), several times
    faster than a general eigensolver: one block of at most K/2 for every
    H^{tensor k} P, one K x K block for other gates.  A complex gate reads
    the eigenphases of the Schur form cached on it (_unitary_eigh), the one
    factorization its fractional powers and parent_hamiltonian also use.
    """
    m = u.matrix
    if m.dtype == np.float64:
        theta = _orthogonal_phases(m)
    else:
        theta = _unitary_eigh(u)[0]
    return np.sort(_phase_branch(theta))


def unitary_power(u: SubUnitary, t) -> SubUnitary:
    """u**t: repeated multiplication for Python ints t >= 0, eigenpath
    V e^{i theta t} V^dagger (theta in (-pi, pi]) for real t, from the Schur
    form cached on u, so a grid of t costs one factorization per gate.

    theta is np.angle of the Schur diagonal, so for an eigenvalue -1 the
    rounding of that factorization picks +pi or -pi: unlike
    parent_hamiltonian, this path has no fixed branch.  The product is
    _eigenpath's, in serial-size slices at K <= 64.
    """
    if isinstance(t, (int, np.integer)):
        if t < 0:
            raise ValueError("integer powers must be >= 0")
        return _trusted(u.k, np.linalg.matrix_power(u.matrix, int(t)))
    theta, z = _unitary_eigh(u)
    return _eigenpath(u.k, z, np.exp(1j * theta * float(t)))


def evolve(h: SubHamiltonian, t: float) -> SubUnitary:
    """e^{-i h t} via the cached eigendecomposition."""
    return _eigenpath(h.k, h.eigenvectors, np.exp(-1j * h.eigenvalues * float(t)))


def _eigenpath(k: int, v: np.ndarray, phases: np.ndarray) -> SubUnitary:
    """The gate v diag(phases) v^dagger, for an orthonormal basis v.

    The product is one np.matmul over stacked slices of w rows of the
    result.  Where the ZZ trace kernel runs its seed chunks on the pool
    (pool.zz_chunks_pooled, K <= 64), w is pool.COMPLEX_BLAS_SERIAL_SIZE //
    K**2, at most K: 8 rows at K = 64, so each product runs on the calling
    thread and leaves no OpenBLAS thread spinning into the pool's pass that
    follows.  From K = 128 the kernel runs inline and threads its own
    complex products, so w = K, one product (2-row slices at K = 128 took
    four times as long).  Every entry sums the same K terms in the same
    order as one product, so the gate is the same bit for bit.
    """
    K = 1 << k
    w = min(K, COMPLEX_BLAS_SERIAL_SIZE // (K * K)) if zz_chunks_pooled(K) else K
    m = np.empty((K // w, w, K), dtype=np.complex128)
    np.matmul((v * phases[None, :]).reshape(K // w, w, K), v.conj().T, out=m)
    return _trusted(k, m.reshape(K, K))


def _walsh_hadamard(a: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """H^{tensor k} @ a for a C-contiguous (K, cols) array, with a scratch
    array of the same shape and dtype, allocating nothing; returns whichever
    of a and scratch holds the result, and the other holds garbage.

    H^{tensor k} is a product of commuting factors, one per group of row
    bits, so the transform is a chain of the fewest balanced groups of at
    most 4 bits (k = 12 is 4 + 4 + 4, k = 9 is 3 + 3 + 3, k <= 4 one group):
    the group of b bits with h bits above it is one np.matmul of the 2**b x
    2**b Hadamard factor with the (2**h, 2**b, rest * cols) view, from one
    buffer into the other, 3 * 16 = 48 multiply-adds per entry at k = 12.
    A last axis that is a multiple of _WH_SLICE (every one longer than that
    for a power-of-two cols) goes in stacked slices of _WH_SLICE columns, so
    no product exceeds pool.BLAS_SERIAL_SIZE and OpenBLAS runs each on the
    calling thread; every entry sums the same 2**b terms in the same order
    as one product over the whole axis.
    """
    K, cols = a.shape
    k = K.bit_length() - 1
    n = -(-k // 4)
    src, dst, h = a, scratch, 0
    for i in range(n):
        b = (k + i) // n  # the n group sizes differ by at most one and sum to k
        rest = (K >> (h + b)) * cols
        s = _WH_SLICE if rest % _WH_SLICE == 0 else rest
        view = (1 << h, 1 << b, rest // s, s)
        np.matmul(_hadamard_factor(b), src.reshape(view).transpose(0, 2, 1, 3), out=dst.reshape(view).transpose(0, 2, 1, 3))
        src, dst, h = dst, src, h + b
    return src


def column_batches(k: int) -> list[range]:
    """The column ranges, left to right, in which _hadamard_sign_builder
    builds a K x K gate (K = 2**k) and otoc_zz_f_average sums it: w =
    2**min(k, _F_BATCH_BITS - k) columns each, a power of two that divides
    K, so every batch is an aligned range(lo, lo + w), lo a multiple of w;
    K**2 <= 2**_F_BATCH_BITS (k <= 8) is one batch and k = 12 is 128
    batches of 32 columns."""
    _check_k(k)
    w = 1 << min(k, _F_BATCH_BITS - k)
    return [range(lo, lo + w) for lo in range(0, 1 << k, w)]


def _hadamard_sign_builder(k: int, seed: RngSeed, t: int):
    """build(cols, m, scratch) for (H^{tensor k} P)^t: it writes the batch
    cols of column_batches(k) into m or scratch, two (K, w) float64 arrays,
    and returns the one that holds it.  The signs and the XOR tile are made
    here, once per gate, and build only reads them, so concurrent calls on
    buffers of their own are safe.  k and t are checked here.

    For t >= 2 a batch starts from the closed form of the first two factors:
    with g = H s / sqrt(K) (one length-K transform per gate), (H P H)[b, c]
    = g[b ^ c], so (H P)^2 e_c = s_c g[b ^ c].  The batch range(lo, lo + w)
    has c = lo ^ j, so it is the tile g[b ^ j] (K x w, gathered once per
    gate) with its row blocks of w permuted by b -> b ^ lo.  The remaining
    t - 2 steps go through signs * m -> _walsh_hadamard, which leaves its
    result in m or in the scratch, so the two swap roles instead of copying
    back.  For t < 2 a batch starts from identity columns and takes t steps,
    so t = 0 is exactly the identity.
    """
    _check_k(k)
    if isinstance(t, bool) or not isinstance(t, (int, np.integer)):
        raise ValueError(f"t must be an integer, got {t!r}")
    if t < 0:
        raise ValueError("t must be >= 0")
    K, w = 1 << k, len(column_batches(k)[0])
    signs = _signs(k, seed)
    j = np.arange(w)
    if t >= 2:
        g = signs.reshape(K, 1).copy()
        g = _walsh_hadamard(g, np.empty_like(g))
        tile = g.reshape(K)[np.bitwise_xor.outer(np.arange(K), j)].reshape(K // w, w, w)

    def build(cols: range, m: np.ndarray, scratch: np.ndarray) -> np.ndarray:
        if t < 2:
            m.fill(0.0)
            m[cols, j] = 1.0
        else:
            blocks = np.arange(K // w) ^ (cols.start // w)
            np.take(tile, blocks, axis=0, out=m.reshape(K // w, w, w), mode="clip")
            m *= signs[cols] / np.sqrt(K)
        for _ in range(t if t < 2 else t - 2):
            np.multiply(m, signs[:, None], out=m)
            if _walsh_hadamard(m, scratch) is scratch:
                m, scratch = scratch, m
        return m

    return build


def hadamard_sign_power(k: int, seed: RngSeed, t: int) -> SubUnitary:
    """(H^{tensor k} P)^t for integer t >= 0 as a real gate, assembled from
    the batches _hadamard_sign_builder writes over column_batches(k), so
    each column is bit for bit the one the matrix-free f-average reads."""
    build = _hadamard_sign_builder(k, seed, t)  # checks k and t before the K x K allocation
    batches = column_batches(k)
    bufs = [np.empty((1 << k, len(batches[0]))) for _ in range(2)]
    m = np.empty((1 << k, 1 << k))
    for cols in batches:
        m[:, cols.start : cols.stop] = build(cols, *bufs)
    return _trusted(k, m)
