import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import backend_permutation, basis_state, identity_permutation, zero_sign_function
from rsedlab.bitcore import PauliString, SystemShape, pauli_action
from rsedlab.randomness import sample_permutation, sample_sign_function
from rsedlab.rng import RngSeed, WordStream
from rsedlab.rsed import RsedOperator, apply, dense_matrix, evolve_basis_state
from rsedlab.subsystem import SubUnitary, hadamard_layer, random_sign_hadamard, unitary_power


def random_state(shape, seed):
    g = WordStream(RngSeed(seed)).standard_normal(2 * shape.dim)
    amps = g[: shape.dim] + 1j * g[shape.dim :]
    return amps / np.linalg.norm(amps)


def pauli(s, amps):
    """S amps as the signed basis permutation phase * amps[src]."""
    src, phase = pauli_action(s, len(amps).bit_length() - 1)
    return phase * amps[src]


def random_operator(n, k, seed, sub=None):
    shape = SystemShape(n, k)
    p = sample_permutation(shape, RngSeed(seed, 1))
    f = sample_sign_function(shape, RngSeed(seed, 2))
    sub = sub if sub is not None else random_sign_hadamard(k, RngSeed(seed, 3))
    return RsedOperator(shape, p, f, sub)


def test_apply_identity_sub_is_identity():
    shape = SystemShape(6, 3)
    op = random_operator(6, 3, 11, sub=SubUnitary(3, np.eye(8, dtype=complex)))
    psi = random_state(shape, 12)
    out = apply(op, psi)
    assert np.max(np.abs(out - psi)) < 1e-14


def test_apply_single_block_hadamard():
    shape = SystemShape(2, 1)
    op = RsedOperator(
        shape,
        identity_permutation(shape),
        zero_sign_function(shape),
        hadamard_layer(1),
    )
    out = apply(op, basis_state(shape.dim, 0))
    expect = np.zeros(4, dtype=complex)
    expect[0] = expect[1] = 1 / np.sqrt(2)  # b is the low bit
    assert np.allclose(out, expect)


def test_apply_adjoint_roundtrip():
    shape = SystemShape(10, 5)
    op = random_operator(10, 5, 13)
    psi = random_state(shape, 14)
    back = apply(op.adjoint(), apply(op, psi))
    assert np.max(np.abs(back - psi)) < 1e-10
    assert abs(np.linalg.norm(apply(op, psi)) - 1.0) < 1e-10


def power(op: RsedOperator, t) -> RsedOperator:
    """U^t = sum_a O_a u^t O_a^dagger."""
    return RsedOperator(op.shape, op.perm, op.sign, unitary_power(op.sub, t))


def test_apply_power_semantics():
    shape = SystemShape(8, 4)
    op = random_operator(8, 4, 15)
    psi = random_state(shape, 16)
    assert np.allclose(apply(power(op, 0), psi), psi)
    assert np.allclose(apply(power(op, 1), psi), apply(op, psi))
    twice = apply(op, apply(op, psi))
    assert np.max(np.abs(apply(power(op, 2), psi) - twice)) < 1e-9


def test_evolve_basis_state_matches_dense():
    op = random_operator(8, 4, 17)
    u = dense_matrix(op)
    picks = WordStream(RngSeed(18)).integers(op.shape.dim, 50)
    for x in picks.tolist():
        idx, amps = evolve_basis_state(op, int(x))
        assert len(idx) == op.shape.subdim
        assert np.sum(np.abs(amps) ** 2) == pytest.approx(1.0)
        col = np.zeros(op.shape.dim, dtype=complex)
        col[idx] = amps
        assert np.max(np.abs(col - u[:, int(x)])) < 1e-12


def test_evolve_basis_state_identity_and_hadamard():
    op = random_operator(6, 3, 19, sub=SubUnitary(3, np.eye(8, dtype=complex)))
    idx, amps = evolve_basis_state(op, 33)
    live = np.abs(amps) > 1e-14
    assert live.sum() == 1
    assert idx[live][0] == 33 and amps[live][0] == pytest.approx(1.0)
    oph = random_operator(6, 3, 19, sub=hadamard_layer(3))
    _, amps = evolve_basis_state(oph, 33)
    assert np.allclose(np.abs(amps), 2.0**-1.5)


def test_dense_matrix_unitary_and_identity():
    op = random_operator(8, 3, 20)
    u = dense_matrix(op)
    assert np.max(np.abs(u.conj().T @ u - np.eye(op.shape.dim))) < 1e-9
    opi = random_operator(8, 3, 20, sub=SubUnitary(3, np.eye(8, dtype=complex)))
    assert np.max(np.abs(dense_matrix(opi) - np.eye(256))) == 0.0


def test_factorization_identity_dense():
    """sum_a O_a u O_a^dag = P F (u x I) F P^dag, exactly, for mixed backends."""
    for idx, backend in enumerate(["explicit", "feistel"]):
        shape = SystemShape(8, 4)
        p = backend_permutation(shape, RngSeed(21, idx), backend)
        f = sample_sign_function(shape, RngSeed(22, idx))
        u = random_sign_hadamard(4, RngSeed(23, idx))
        op = RsedOperator(shape, p, f, u)
        lhs = dense_matrix(op)
        m = np.kron(np.eye(shape.num_seeds, dtype=complex), u.matrix)
        signs = 1.0 - 2.0 * f.sign_array(np.arange(shape.dim, dtype=np.uint32)).astype(float)
        m = signs[:, None] * m * signs[None, :]
        table = p.forward_array(np.arange(shape.dim, dtype=np.uint32))
        rhs = np.zeros_like(m)
        rhs[np.ix_(table, table)] = m
        assert np.max(np.abs(lhs - rhs)) <= 1e-12


def test_blockwise_apply_matches_dense_many_configs():
    for idx in range(20):
        n = 5 + idx % 4
        k = 1 + idx % n if idx % n < n else 1
        k = max(1, min(k, n))
        op = random_operator(n, k, 100 + idx, sub=random_sign_hadamard(k, RngSeed(200 + idx)))
        psi = random_state(op.shape, 300 + idx)
        dense_out = dense_matrix(op) @ psi
        block_out = apply(op, psi)
        assert np.max(np.abs(dense_out - block_out)) < 1e-10


def test_apply_pauli_examples():
    shape = SystemShape(1, 1)
    z = PauliString(((0, "Z"),))
    assert pauli(z, basis_state(shape.dim, 0))[0] == 1.0
    assert pauli(z, basis_state(shape.dim, 1))[1] == -1.0
    x = PauliString(((0, "X"),))
    assert pauli(x, basis_state(shape.dim, 0))[1] == 1.0
    y = PauliString(((0, "Y"),))
    out = pauli(y, basis_state(shape.dim, 0))
    assert out[1] == 1j


def test_apply_pauli_dense_consistency():
    """String action agrees with the explicit tensor-product matrix."""
    X = np.array([[0, 1], [1, 0]], dtype=complex)
    Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
    Z = np.diag([1.0, -1.0]).astype(complex)
    shape = SystemShape(3, 1)
    s = PauliString(((0, "Y"), (2, "Z")))
    mats = [Z, np.eye(2), Y]  # qubit 2, 1, 0 in kron order
    dense = mats[0]
    for m in mats[1:]:
        dense = np.kron(dense, m)
    psi = random_state(shape, 31)
    assert np.max(np.abs(pauli(s, psi) - dense @ psi)) < 1e-14


@given(st.integers(0, 10**6))
@settings(max_examples=30)
def test_pauli_strings_are_involutions(seed):
    shape = SystemShape(6, 2)
    stream = WordStream(RngSeed(seed))
    sites = sorted(set(stream.integers(shape.n, 3).tolist()))
    axes = stream.integers(3, len(sites))
    s = PauliString(tuple((int(q), "XYZ"[int(a)]) for q, a in zip(sites, axes)))
    psi = random_state(shape, seed + 1)
    out = pauli(s, pauli(s, psi))
    assert np.max(np.abs(out - psi)) < 1e-14


def test_norm_preserved_through_mixed_sequence():
    shape = SystemShape(8, 4)
    op = random_operator(8, 4, 32)
    psi = random_state(shape, 33)
    psi = apply(op, psi)
    psi = pauli(PauliString(((2, "X"), (5, "Z"))), psi)
    psi = apply(power(op, 3), psi)
    psi = pauli(PauliString(((1, "Y"),)), psi)
    assert abs(np.linalg.norm(psi) - 1.0) < 1e-10


def test_shape_mismatch_errors():
    op = random_operator(6, 3, 34)
    other = random_state(SystemShape(7, 3), 35)
    with pytest.raises(ValueError):
        apply(op, other)
    with pytest.raises(ValueError):
        PauliString(((0, "X"), (0, "Z")))
    with pytest.raises(ValueError):
        PauliString(((0, "Q"),))
    with pytest.raises(ValueError):
        dense_matrix(random_operator(11, 3, 36))
    psi = random_state(op.shape, 38)
    for bad in (psi[:-1], np.append(psi, 0.0), psi.reshape(8, 8)):
        with pytest.raises(ValueError, match="expected 64 amplitudes"):
            apply(op, bad)


def test_apply_takes_a_state_built_at_another_k():
    """A state is 2**n amplitudes, whatever subsystem size made it: a k = 5
    RSED state U|x> goes through a k = 4 operator on the same 10 qubits."""
    pos, amps = evolve_basis_state(random_operator(10, 5, 39), 3)
    psi = np.zeros(1 << 10, dtype=np.complex128)
    psi[pos] = amps
    op = random_operator(10, 4, 40)
    assert np.max(np.abs(apply(op, psi) - dense_matrix(op) @ psi)) < 1e-12
