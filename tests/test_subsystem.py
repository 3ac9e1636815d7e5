from itertools import combinations

import numpy as np
import pytest

from rsedlab import pool, subsystem
from rsedlab.cli import hadamard_sign_f_average
from rsedlab.rng import RngSeed, WordStream
from rsedlab.subsystem import (
    SubHamiltonian,
    SubUnitary,
    _hadamard_sign_builder,
    _walsh_hadamard,
    column_batches,
    evolve,
    hadamard_layer,
    hadamard_sign_power,
    identity_gate,
    parent_hamiltonian,
    pauli_syk,
    random_sign_hadamard,
    sign_bits,
    unitary_power,
)

X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
Z = np.diag([1.0, -1.0]).astype(complex)


def test_hadamard_entries():
    h1 = hadamard_layer(1)
    assert np.allclose(h1.matrix, np.array([[1, 1], [1, -1]]) / np.sqrt(2))
    h2 = hadamard_layer(2)
    # entry (3, 3): parity of 0b11 . 0b11 is even
    assert h2.matrix[3, 3] == pytest.approx(0.5)
    for k in range(1, 7):
        h = hadamard_layer(k)
        assert np.max(np.abs(h.matrix @ h.matrix - np.eye(h.dim))) < 1e-12


def test_dense_h_equals_the_kron_chain_bit_for_bit():
    """_dense_h scales a cached +-1 pattern by one magnitude rounded the way
    k Kronecker products by the normalized 2 x 2 factor round it."""
    h1 = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
    m = np.ones((1, 1))
    for k in range(1, 13):
        m = np.kron(m, h1)
        assert np.array_equal(subsystem._dense_h(k), m)


def test_random_sign_diag():
    """P = diag((-1)**phi) from the seeded sign bits squares to I exactly and
    is reproduced by its seed."""
    bits = sign_bits(4, RngSeed(8))
    assert bits.dtype == np.uint8 and set(bits.tolist()) <= {0, 1}
    p = np.diag(1.0 - 2.0 * bits)
    assert np.max(np.abs(p @ p - np.eye(16))) == 0.0
    assert (sign_bits(4, RngSeed(8)) == bits).all()
    zero_bits = SubUnitary(2, np.eye(4, dtype=complex))
    assert np.allclose(zero_bits.matrix, np.eye(4))


def test_pauli_syk_k2_single_term():
    """Single quadruple chi1 chi2 chi3 chi4 = -Z1 Z2 with two same-site
    pairs (phase i^2); normalized spectrum is {-1,-1,+1,+1}."""
    h = pauli_syk(2, RngSeed(1))
    evals = np.sort(h.eigenvalues)
    assert np.allclose(evals, [-1.0, -1.0, 1.0, 1.0], atol=1e-12)
    zz = np.kron(Z, Z)  # Z on both qubits in either ordering
    assert np.allclose(np.abs(h.matrix), np.abs(zz))


def test_pauli_syk_hermitian_and_normalized():
    for k in (2, 3, 4):
        h = pauli_syk(k, RngSeed(20, k))
        assert np.max(np.abs(h.matrix - h.matrix.conj().T)) <= 1e-10
    for s in range(20):
        h = pauli_syk(5, RngSeed(21, s))
        lam = h.eigenvalues
        assert max(abs(lam[0]), abs(lam[-1])) == pytest.approx(1.0, abs=1e-9)
        assert lam[0] >= -1.0 - 1e-9 and lam[-1] <= 1.0 + 1e-9


def _dense_syk(k: int, seed: RngSeed) -> np.ndarray:
    """Reference spin-SYK from dense Majoranas: chi_{2m-1} = X_m, chi_{2m} = Y_m
    as Kronecker products (bit m of the index is qubit m), each four-label
    product times i**eta, then rescaled to max |E| = 1."""

    def on_site(op, m):
        out = np.array([[1.0 + 0.0j]])
        for q in range(k - 1, -1, -1):
            out = np.kron(out, op if q == m else np.eye(2, dtype=complex))
        return out

    chi = [on_site(X if label % 2 == 1 else Y, (label + 1) // 2 - 1) for label in range(1, 2 * k + 1)]
    quads = list(combinations(range(1, 2 * k + 1), 4))
    couplings = WordStream(seed).standard_normal(len(quads))
    site = lambda label: (label + 1) // 2
    h = np.zeros((1 << k, 1 << k), dtype=complex)
    for J, (a, b, c, d) in zip(couplings, quads):
        eta = int(site(a) == site(b)) + int(site(b) == site(c)) + int(site(c) == site(d))
        h += J * (1j**eta) * (chi[a - 1] @ chi[b - 1] @ chi[c - 1] @ chi[d - 1])
    lam = np.linalg.eigvalsh(h)
    return h / max(abs(lam[0]), abs(lam[-1]))


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_pauli_syk_matches_dense_majorana_reference(k):
    for s in (0, 1):
        assert np.array_equal(pauli_syk(k, RngSeed(50 + s, k)).matrix, _dense_syk(k, RngSeed(50 + s, k)))


def test_pauli_syk_requires_k2():
    with pytest.raises(ValueError):
        pauli_syk(1, RngSeed(0))


def test_pauli_syk_chaotic_matrix_elements():
    """e^{-i h t} has mean |entry|^2 = 1/K for t >= 1 (within factor 3)."""
    h = pauli_syk(4, RngSeed(22))
    for t in (1.0, 2.5, 4.0):
        u = evolve(h, t)
        mean = np.mean(np.abs(u.matrix) ** 2)
        assert mean * u.dim == pytest.approx(1.0, rel=2.0)


def test_parent_hamiltonian_identity_and_branch():
    h0 = parent_hamiltonian(SubUnitary(1, np.eye(2, dtype=complex)))
    assert np.max(np.abs(h0.matrix)) < 1e-12
    hb = parent_hamiltonian(SubUnitary(1, Z))
    assert np.allclose(np.sort(hb.eigenvalues), [0.0, 0.5], atol=1e-12)


def test_parent_hamiltonian_roundtrip():
    u = random_sign_hadamard(4, RngSeed(31))
    h = parent_hamiltonian(u)
    back = evolve(h, 2.0 * np.pi)
    assert np.max(np.abs(back.matrix - u.matrix)) < 1e-8


@pytest.mark.parametrize(
    "k, m",
    [
        (2, np.eye(4, dtype=complex) * 1.5),
        (3, 2.0 * np.eye(8)),
        # every eigenvalue has modulus 1, yet the matrix is not unitary
        (1, np.array([[1.0, 1.0], [0.0, 1.0]])),
    ],
    ids=["scaled_identity", "twice_identity", "jordan_block"],
)
def test_nonunitary_rejected_at_construction(k, m):
    """The constructor is the one unitarity check: parent spectra, powers and
    Schur eigenpaths downstream trust it."""
    with pytest.raises(ValueError, match="not unitary"):
        SubUnitary(k, m)


def test_unitary_power_paths():
    u = random_sign_hadamard(3, RngSeed(41))
    assert np.allclose(unitary_power(u, 0).matrix, np.eye(8))
    assert (unitary_power(u, 1).matrix == u.matrix).all()
    h = hadamard_layer(4)
    eig2 = unitary_power(h, 2.0).matrix
    int2 = unitary_power(h, 2).matrix
    assert np.max(np.abs(eig2 - np.eye(16))) < 1e-9
    assert np.max(np.abs(int2 - np.eye(16))) < 1e-12
    assert np.max(np.abs(eig2 - int2)) < 1e-9


def test_unitary_power_paths_agree_random_sign_hadamard():
    for k in (2, 4, 6):
        u = random_sign_hadamard(k, RngSeed(42, k))
        for t in (2, 3, 4):
            a = unitary_power(u, t).matrix
            b = unitary_power(u, float(t)).matrix
            assert np.max(np.abs(a - b)) < 1e-8


@pytest.mark.parametrize("k", range(1, 9))
def test_sliced_fractional_power_equals_one_product(k):
    """The fractional power, in row slices at K <= 64, equals the one
    product (z e^{i theta t}) z^dagger bit for bit, for random-sign gates
    and for the Hadamard layer, whose -1 eigenspace is degenerate; so does
    the evolution e^{-iht} of a spin-SYK Hamiltonian, the same product."""
    for u in (hadamard_layer(k), random_sign_hadamard(k, RngSeed(44, k)), random_sign_hadamard(k, RngSeed(45, k))):
        theta, z = subsystem._unitary_eigh(u)
        for t in (0.25, 0.5, 1.5, 3.5):
            one = (z * np.exp(1j * theta * t)[None, :]) @ z.conj().T
            assert unitary_power(u, t).matrix.tobytes() == one.tobytes()
    if k >= 2:
        h = pauli_syk(k, RngSeed(46, k))
        for t in (0.25, 0.5, 1.5, 3.5):
            one = (h.eigenvectors * np.exp(-1j * h.eigenvalues * t)[None, :]) @ h.eigenvectors.conj().T
            assert evolve(h, t).matrix.tobytes() == one.tobytes()


@pytest.mark.parametrize(
    "make",
    [lambda: random_sign_hadamard(6, RngSeed(43)), lambda: hadamard_layer(6)],
    ids=["random_sign_hadamard", "hadamard"],
)
def test_cached_schur_form_is_bit_identical(monkeypatch, make):
    """Powers and the parent Hamiltonian of a gate whose Schur form is cached
    equal those of a fresh, uncached copy byte for byte, with one schur call
    for the cached gate."""
    u = make()
    calls = []
    schur = subsystem.schur
    monkeypatch.setattr(subsystem, "schur", lambda *a, **kw: calls.append(1) or schur(*a, **kw))
    unitary_power(u, 0.25)
    for t in (0.5, 1.5, 2.75):
        assert unitary_power(u, t).matrix.tobytes() == unitary_power(make(), t).matrix.tobytes()
    assert parent_hamiltonian(u).matrix.tobytes() == parent_hamiltonian(make()).matrix.tobytes()
    assert len(calls) == 1 + 4  # u once, then each fresh copy once
    theta, z = u._eig
    assert not theta.flags.writeable and not z.flags.writeable


def test_evolve_examples():
    hz = SubHamiltonian(1, Z)
    assert np.allclose(evolve(hz, 0.0).matrix, np.eye(2))
    assert np.max(np.abs(evolve(hz, np.pi).matrix + np.eye(2))) < 1e-12
    h = pauli_syk(4, RngSeed(43))
    lhs = evolve(h, 0.7).matrix @ evolve(h, 1.6).matrix
    rhs = evolve(h, 2.3).matrix
    assert np.max(np.abs(lhs - rhs)) < 1e-8
    dev = np.max(np.abs(evolve(h, 3.0).matrix @ evolve(h, 3.0).matrix.conj().T - np.eye(16)))
    assert dev < 1e-9


def test_element_magnitude_tail_random_sign_hadamard():
    """(H^{x8}P)^4: fraction of |u|^2 >= K^{-1/2} stays below 1e-3."""
    fracs = []
    for s in range(5):
        u = hadamard_sign_power(8, RngSeed(44, s), 4)
        fracs.append(np.mean(np.abs(u.matrix) ** 2 >= u.dim**-0.5))
    assert max(fracs) < 1e-3


def _hadamard_rows(k: int, rows: np.ndarray) -> np.ndarray:
    """Rows of H^{tensor k} from its definition, 2**(-k/2) * (-1)**(b . b')."""
    parity = np.bitwise_count(np.bitwise_and.outer(rows, np.arange(1 << k))) & 1
    return (1.0 - 2.0 * parity) * 2.0 ** (-k / 2)


def test_walsh_hadamard_matches_dense():
    """Every k up to 12, at width 1 and at the column_batches width: the
    chain of Hadamard factors against H built from its definition 512 rows
    at a time, and applied twice it gives back its input."""
    for k in range(13):
        K = 1 << k
        for w in {1, len(column_batches(k)[0]) if k else 1}:
            a = WordStream(RngSeed(45, k)).standard_normal(K * w).reshape(K, w)
            dense = np.concatenate([_hadamard_rows(k, np.arange(lo, min(lo + 512, K))) @ a for lo in range(0, K, 512)])
            out = _walsh_hadamard(a.copy(), np.empty_like(a))
            assert np.max(np.abs(out - dense)) < 1e-13
            back = _walsh_hadamard(out.copy(), np.empty_like(a))
            assert np.max(np.abs(back - a)) < 1e-13


def test_walsh_hadamard_factors_are_at_most_16_by_16(monkeypatch):
    """A k = 12 f-average transforms in factors of at most 4 bits (4 + 4 +
    4): no larger Hadamard factor is built."""
    sizes, factor = [], subsystem._hadamard_factor

    def counted(b):
        m = factor(b)
        sizes.append(m.shape)
        return m

    monkeypatch.setattr(subsystem, "_hadamard_factor", counted)
    hadamard_sign_f_average(12, RngSeed(58), 4)
    assert sizes and set(sizes) == {(16, 16)}


def test_hadamard_sign_power_matches_unitary_power():
    """The closed-form start (t >= 2) and the identity start (t < 2) against
    matrix_power of the dense gate; t = 0 is exactly the identity."""
    for k in range(1, 9):
        K = 1 << k
        seed = RngSeed(46, k)
        u = random_sign_hadamard(k, seed)
        assert (hadamard_sign_power(k, seed, 0).matrix == np.eye(K)).all()
        for t in range(6):
            slow = unitary_power(u, t).matrix
            assert np.max(np.abs(hadamard_sign_power(k, seed, t).matrix - slow)) < 1e-12


@pytest.mark.parametrize("t", range(6))
def test_hadamard_sign_power_transform_count(monkeypatch, t):
    """From t = 2 on, a batch starts from the closed form of (H P)^2: one
    (K, 1) transform of the signs, then t - 2 transforms of the batch."""
    shapes = []

    def counted(a, scratch):
        shapes.append(a.shape)
        return _walsh_hadamard(a, scratch)

    monkeypatch.setattr(subsystem, "_walsh_hadamard", counted)
    hadamard_sign_power(7, RngSeed(54), t)
    assert shapes == ([(128, 128)] * t if t < 2 else [(128, 1)] + [(128, 128)] * (t - 2))


def test_subhamiltonian_invariants():
    h = pauli_syk(3, RngSeed(47))
    recon = (h.eigenvectors * h.eigenvalues[None, :]) @ h.eigenvectors.conj().T
    assert np.max(np.abs(recon - h.matrix)) < 1e-8
    with pytest.raises(ValueError):
        SubHamiltonian(2, np.arange(16).reshape(4, 4).astype(complex))


@pytest.mark.parametrize("k", [1, 4, 7])
def test_library_builders_are_unitary(k):
    """Library-built gates skip the constructor's unitarity check, so the
    invariant that check asserted is pinned here for every builder."""
    seed = RngSeed(48, k)
    u = random_sign_hadamard(k, seed)
    h = pauli_syk(k, seed) if k >= 2 else SubHamiltonian(1, X)
    real = [hadamard_layer(k), identity_gate(k), u, u.adjoint(), unitary_power(u, 3)]
    real += [hadamard_sign_power(k, seed, t) for t in range(4)]
    for gates, dtype in ((real, np.float64), ([evolve(h, 0.9), unitary_power(u, 0.75)], np.complex128)):
        for g in gates:
            assert g.k == k and g.matrix.dtype == dtype
            assert np.max(np.abs(g.matrix.conj().T @ g.matrix - np.eye(g.dim))) <= 1e-10
    assert SubUnitary(k, u.matrix).matrix.dtype == np.float64
    assert SubUnitary(k, u.matrix.astype(complex)).matrix.dtype == np.complex128
    assert (u.matrix == hadamard_layer(k).matrix @ np.diag(1.0 - 2.0 * sign_bits(k, seed))).all()
    assert (identity_gate(k).matrix == np.eye(1 << k)).all()


def test_builders_skip_the_constructor_check(monkeypatch):
    def refuse(self):
        raise AssertionError("library-built gate went through the public check")

    monkeypatch.setattr(SubUnitary, "__post_init__", refuse)
    u = random_sign_hadamard(3, RngSeed(49))
    identity_gate(3)
    unitary_power(u.adjoint(), 0.5)
    hadamard_sign_power(3, RngSeed(49), 2)
    with pytest.raises(AssertionError):
        SubUnitary(3, u.matrix)


@pytest.mark.parametrize("t", [2.0, 2.5, np.float64(2.0), True, False])
def test_hadamard_sign_power_needs_an_integer_t(t):
    with pytest.raises(ValueError, match="t must be an integer"):
        hadamard_sign_power(3, RngSeed(52), t)
    with pytest.raises(ValueError, match="t must be an integer"):
        _hadamard_sign_builder(3, RngSeed(52), t)
    with pytest.raises(ValueError, match="t must be an integer"):
        hadamard_sign_f_average(3, RngSeed(52), t)


def test_hadamard_sign_power_columns():
    seed = RngSeed(53)
    u = hadamard_sign_power(6, seed, np.int64(3))
    (cols,) = column_batches(6)
    batch = _hadamard_sign_builder(6, seed, 3)(cols, np.empty((64, 64)), np.empty((64, 64)))
    assert batch.shape == (64, 64) and batch.dtype == np.float64
    assert np.array_equal(batch, u.matrix)
    with pytest.raises(ValueError, match=">= 0"):
        hadamard_sign_power(6, seed, -1)


@pytest.mark.parametrize("t", [2, 3, 4])
def test_xor_tile_equals_the_per_entry_gather(t):
    """Every batch of column_batches(k), k = 1..12, which the builder
    makes from one XOR tile, against the per-entry gather
    (H P)^2 e_c = s_c g[b ^ c] / sqrt(K) with g = H s, then t - 2 steps of
    signs * m -> H m, bit for bit."""
    for k in range(1, 13):
        K, seed = 1 << k, RngSeed(55, k)
        signs = 1.0 - 2.0 * sign_bits(k, seed)
        g = _walsh_hadamard(signs.reshape(K, 1).copy(), np.empty((K, 1))).reshape(K)
        batches = column_batches(k)
        assert [c for b in batches for c in b] == list(range(K))
        build = _hadamard_sign_builder(k, seed, t)
        bufs = [np.empty((K, len(batches[0]))) for _ in range(2)]
        for cols in batches:
            batch = build(cols, *bufs)
            c = np.array(cols)
            m = g[np.bitwise_xor.outer(np.arange(K), c)] * (signs[c] / np.sqrt(K))
            for _ in range(t - 2):
                m = _walsh_hadamard(m * signs[:, None], np.empty_like(m))
            assert np.array_equal(batch, m)


@pytest.mark.parametrize("t", [0, 1, 2, 4])
def test_each_gate_draws_its_signs_and_transforms_them_once(monkeypatch, t):
    """A k = 7 f-average over 16 narrowed batches draws the signs once and
    runs the (K, 1) transform of g = H s / sqrt(K) once per gate; only the
    remaining steps run per batch."""
    monkeypatch.setattr(subsystem, "_F_BATCH_BITS", 10)  # 8 columns of 128
    assert len(list(column_batches(7))) == 16
    draws, shapes, signs = [], [], subsystem._signs

    def counted_signs(k, seed):
        draws.append(k)
        return signs(k, seed)

    def counted(a, scratch):
        shapes.append(a.shape)
        return _walsh_hadamard(a, scratch)

    monkeypatch.setattr(subsystem, "_signs", counted_signs)
    monkeypatch.setattr(subsystem, "_walsh_hadamard", counted)
    hadamard_sign_f_average(7, RngSeed(57), t)
    assert draws == [7]
    assert shapes == ([(128, 8)] * 16 * t if t < 2 else [(128, 1)] + [(128, 8)] * 16 * (t - 2))


def test_hadamard_sign_power_checks_k_first():
    with pytest.raises(ValueError, match="k must be"):
        hadamard_sign_power(13, RngSeed(50), 1)


def test_walsh_hadamard_products_stay_on_one_blas_thread(monkeypatch):
    """A k = 12 f-average multiplies in products of at most 16 x 16 x 512
    (2**17 multiply-adds), under the size at which OpenBLAS threads a GEMM,
    so BLAS starts no threads beside the pool's."""
    sizes = []

    class CountedNumpy:
        def __getattr__(self, name):
            return getattr(np, name)

        def matmul(self, a, b, out):
            sizes.append(a.shape[-2] * a.shape[-1] * b.shape[-1])
            return np.matmul(a, b, out=out)

    monkeypatch.setattr(subsystem, "np", CountedNumpy())
    hadamard_sign_f_average(12, RngSeed(59), 4)
    assert max(sizes) == 16 * 16 * 512 < pool.BLAS_SERIAL_SIZE
