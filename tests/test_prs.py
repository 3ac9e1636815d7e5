from itertools import permutations
from math import comb, factorial

import numpy as np
import pytest

from conftest import identity_permutation, subset_phase_state, zero_sign_function
from rsedlab.bitcore import SystemShape, join
from rsedlab.circuits import GateCircuit, simulate_circuit
from rsedlab.otoc import otoc_pauli_dense
from rsedlab.prs import (
    coherence_rel_entropy,
    coherence_trial,
    design_variance_condition,
    element_condition_check,
    entanglement_entropy,
    hybrid3_state,
    mixture,
    trace_distance,
)
from rsedlab.randomness import sample_permutation, sample_sign_function
from rsedlab.rng import RngSeed, WordStream
from rsedlab.bitcore import PauliString, pauli_action
from rsedlab.rsed import RsedOperator, dense_matrix, evolve_basis_state
from rsedlab.subsystem import _walsh_hadamard, hadamard_layer, hadamard_sign_power, random_sign_hadamard, unitary_power

LN2 = np.log(2.0)


def pure(psi) -> np.ndarray:
    """|psi><psi|."""
    psi = np.asarray(psi, dtype=np.complex128)
    return np.outer(psi, psi.conj())


def sym_projector_state(d: int, t: int) -> np.ndarray:
    """Pi_sym / tr(Pi_sym) on t copies of a d-dimensional space."""
    total = d**t
    digits = np.empty((total, t), dtype=np.int64)
    rem = np.arange(total)
    for pos in range(t - 1, -1, -1):
        digits[:, pos] = rem % d
        rem //= d
    proj = np.zeros((total, total), dtype=np.complex128)
    idx = np.arange(total)
    for perm in permutations(range(t)):
        shuffled = digits[:, list(perm)]
        target = np.zeros(total, dtype=np.int64)
        for pos in range(t):
            target = target * d + shuffled[:, pos]
        proj[target, idx] += 1.0 / factorial(t)
    return proj / np.trace(proj)


def seed_state(p, f, u, a, shape):
    """The sparse pairs of U|p(join(0, a))>, as the coherence driver reads them."""
    return evolve_basis_state(RsedOperator(shape, p, f, u), p.permute(join(0, a, shape)))


def dense(pos, amps, shape) -> np.ndarray:
    psi = np.zeros(shape.dim, dtype=amps.dtype)
    psi[pos] = amps
    return psi


def hadamard_circuit(n: int) -> GateCircuit:
    return GateCircuit(n, tuple(("H", q) for q in range(n)))


def test_subset_phase_state_basics():
    shape = SystemShape(6, 4)
    p = sample_permutation(shape, RngSeed(1))
    f = sample_sign_function(shape, RngSeed(2))
    psi = subset_phase_state(p, f, 2, shape)
    assert abs(np.linalg.norm(psi) - 1.0) < 1e-12
    support = np.abs(psi) > 1e-14
    assert support.sum() == shape.subdim
    assert coherence_rel_entropy(psi) == pytest.approx(shape.k * LN2, abs=1e-9)
    c0, _ = coherence_trial(*seed_state(p, f, hadamard_layer(shape.k), 2, shape), shape.n)
    assert c0 == pytest.approx(shape.k * LN2, abs=1e-9)


def test_subset_phase_state_full_k_uniform():
    shape = SystemShape(3, 3)
    p, f = identity_permutation(shape), zero_sign_function(shape)
    assert np.allclose(subset_phase_state(p, f, 0, shape), 1 / np.sqrt(8))
    assert np.allclose(dense(*seed_state(p, f, hadamard_layer(3), 0, shape), shape), 1 / np.sqrt(8))


@pytest.mark.parametrize("n, k", [(6, 3), (10, 4), (10, 5), (12, 6)])
def test_subset_phase_state_is_the_rsed_state_of_a_hadamard_sign_gate(n, k):
    """With u = H^{tensor k} or H^{tensor k} P, U|p(join(0, a))> is the
    subset-phase state of seed a up to a global sign, so the coherence
    driver reads it from evolve_basis_state."""
    shape = SystemShape(n, k)
    for s in range(8):
        p = sample_permutation(shape, RngSeed(41, s))
        f = sample_sign_function(shape, RngSeed(42, s))
        a = (7 * s) % shape.num_seeds
        want = subset_phase_state(p, f, a, shape)
        for u in (hadamard_layer(k), random_sign_hadamard(k, RngSeed(43, s))):
            psi = dense(*seed_state(p, f, u, a, shape), shape)
            assert np.max(np.abs(psi - np.sign(psi @ want) * want)) <= 1e-15


@pytest.mark.parametrize("n", [4, 10, 16])
def test_walsh_hadamard_matches_the_circuit_h_layer(n):
    """coherence_trial's Hadamard layer, one _walsh_hadamard of the dense
    (2**n, 1) amplitudes, against simulate_circuit of one H per qubit."""
    psi = WordStream(RngSeed(44, n)).standard_normal(1 << n).reshape(-1, 1)
    want = simulate_circuit(hadamard_circuit(n), psi[:, 0])
    got = _walsh_hadamard(psi.copy(), np.empty_like(psi))[:, 0]
    assert np.max(np.abs(got - want)) <= 1e-13


def test_coherence_trial_matches_the_circuit_layer_for_real_and_complex_gates():
    shape = SystemShape(8, 4)
    p = sample_permutation(shape, RngSeed(45, 1))
    f = sample_sign_function(shape, RngSeed(45, 2))
    u = random_sign_hadamard(4, RngSeed(45, 3))
    for gate in (u, unitary_power(u, 0.5)):
        pos, amps = seed_state(p, f, gate, 5, shape)
        psi = dense(pos, amps, shape)
        c0, c1 = coherence_trial(pos, amps, shape.n)
        assert c0 == pytest.approx(coherence_rel_entropy(psi), abs=1e-12)
        assert c1 == pytest.approx(coherence_rel_entropy(simulate_circuit(hadamard_circuit(shape.n), psi)), abs=1e-12)


def test_coherence_examples():
    basis = np.zeros(32, dtype=complex)
    basis[0] = 1.0
    assert coherence_rel_entropy(basis) == 0.0
    uniform = np.full(32, 1 / np.sqrt(32), dtype=complex)
    assert coherence_rel_entropy(uniform) == pytest.approx(5 * LN2)


def test_hybrid3_small_cases():
    rho = hybrid3_state(1, 1)
    evals = np.linalg.eigvalsh(rho)
    assert np.sum(evals > 1e-12) == 2
    assert evals[-1] == pytest.approx(0.5)
    rho2 = hybrid3_state(2, 2)
    assert np.trace(rho2).real == pytest.approx(1.0)
    assert np.linalg.eigvalsh(rho2)[0] >= -1e-9


def test_hybrid3_vs_sym_projector_bound():
    """TD(hybrid3, sym projector) = (missing diagonal-pair weight) which is
    well inside 4 t^2 / K at K=16, t=2."""
    shape = SystemShape(4, 4)
    t = 2
    hyb = hybrid3_state(shape.k, t)
    sym = sym_projector_state(shape.subdim, t)
    td = trace_distance(hyb, sym)
    K = shape.subdim
    d_sym = comb(K + t - 1, t)
    d_types = comb(K, t)
    expected = 1.0 - d_types / d_sym  # uniform-mixture support mismatch
    assert td == pytest.approx(expected, abs=1e-10)
    assert td <= 4.0 * t**2 / K


def test_sym_projector_examples():
    s1 = sym_projector_state(3, 1)
    assert np.allclose(s1, np.eye(3) / 3.0)
    s2 = sym_projector_state(2, 2)
    proj = s2 * 3.0  # triplet projector
    assert np.allclose(proj @ proj, proj, atol=1e-12)
    singlet = np.array([0.0, 1.0, -1.0, 0.0]) / np.sqrt(2)
    assert np.max(np.abs(proj @ singlet)) < 1e-12
    for d, t in ((2, 2), (2, 3), (4, 2)):
        s = sym_projector_state(d, t)
        rank = np.sum(np.linalg.eigvalsh(s) > 1e-12)
        assert rank == comb(d + t - 1, t)


def test_trace_distance_properties():
    rho = sym_projector_state(2, 2)
    assert trace_distance(rho, rho) == pytest.approx(0.0, abs=1e-12)
    e0 = pure(np.array([1.0, 0.0], dtype=complex))
    e1 = pure(np.array([0.0, 1.0], dtype=complex))
    assert trace_distance(e0, e1) == pytest.approx(1.0)
    stream = WordStream(RngSeed(6))
    for _ in range(100):
        states = stream.standard_normal(12).reshape(3, 4)
        mats = []
        for row in states:
            v = row[:2] + 1j * row[2:]
            v = v / np.linalg.norm(v)
            mats.append(pure(v))
        a, b, c = mats
        assert trace_distance(a, c) <= trace_distance(a, b) + trace_distance(b, c) + 1e-12


def test_design_variance_condition():
    h = hadamard_layer(3)
    assert design_variance_condition(h) == pytest.approx(0.0, abs=1e-12)
    ident = np.eye(8, dtype=complex)
    from rsedlab.subsystem import SubUnitary

    assert design_variance_condition(SubUnitary(3, ident)) == float("inf")


def test_design_variance_flat_vs_powered():
    """One application of H^{x6}P keeps |u|^2 flat, so Ybar = 0 exactly; the
    fourth power has chi-squared-product column statistics with Ybar = O(1)
    (E[(g1^2 g2^2 - 1)^2] = 8 for Gaussian entries), far above K^{-1/2};
    only flat-magnitude gates meet that threshold."""
    flat = design_variance_condition(hadamard_sign_power(6, RngSeed(7), 1))
    assert flat == pytest.approx(0.0, abs=1e-12)
    vals = [design_variance_condition(hadamard_sign_power(6, RngSeed(7, s), 4)) for s in range(5)]
    assert all(v > (1 << 6) ** -0.5 for v in vals)
    assert 3.0 <= np.mean(vals) <= 20.0


def test_element_condition_check():
    assert element_condition_check(hadamard_layer(4)) == 0.0
    from rsedlab.subsystem import SubUnitary

    assert element_condition_check(SubUnitary(3, np.eye(8, dtype=complex))) == pytest.approx(1.0 / 8)


def test_element_condition_statistics_k8():
    """(H^{x8}P)^4 at the threshold K**-0.3 passes in at least 99/100 seeds."""
    passes = 0
    for s in range(100):
        u = hadamard_sign_power(8, RngSeed(8, s), 4)
        if element_condition_check(u) == 0.0:
            passes += 1
    assert passes >= 99


def test_coherence_enhancement_after_hadamard_layer():
    n, k = 10, 5
    shape = SystemShape(n, k)
    passes = 0
    for s in range(20):
        p = sample_permutation(shape, RngSeed(10, s))
        f = sample_sign_function(shape, RngSeed(11, s))
        _, c1 = coherence_trial(*seed_state(p, f, hadamard_layer(k), 0, shape), n)
        if c1 >= 0.25 * n * LN2:
            passes += 1
    assert passes >= 19


def test_otoc_invariant_under_onsite_layer():
    """For U' = L U with L a tensor product of single-site gates,
    O(U', V, W) = O(U, L^dag V L, W); checked dense with L a T layer."""
    from rsedlab.randomness import sample_permutation as sp, sample_sign_function as sf
    n, k = 6, 3
    shape = SystemShape(n, k)
    op = RsedOperator(shape, sp(shape, RngSeed(12)), sf(shape, RngSeed(13)), random_sign_hadamard(k, RngSeed(14)))
    u = dense_matrix(op)
    t_site = 1
    l_circ = GateCircuit(n, (("T", t_site),))
    l_mat = simulate_circuit(l_circ, np.eye(2**n))
    v = PauliString(((t_site, "X"),))
    w = PauliString(((4, "Z"),))
    lhs = otoc_pauli_dense(l_mat @ u, v, w)
    # L^dag X L for a T gate rotates X in the XY plane; compare via dense
    vd = np.zeros((2**n, 2**n), dtype=complex)
    src, ph = pauli_action(v, n)
    vd[np.arange(2**n), src] = ph
    v_rot = l_mat.conj().T @ vd @ l_mat
    m = u @ _pauli_dense(w, n) @ u.conj().T
    g = v_rot @ m
    rhs = np.trace(g @ g) / 2**n
    assert abs(lhs - rhs) < 1e-9


def _pauli_dense(s, n):
    src, ph = pauli_action(s, n)
    m = np.zeros((2**n, 2**n), dtype=complex)
    m[np.arange(2**n), src] = ph
    return m


def test_entanglement_entropy_examples():
    product = np.kron([1, 0], [1 / np.sqrt(2), 1 / np.sqrt(2)]).astype(complex)
    assert entanglement_entropy(product, [0]) == pytest.approx(0.0, abs=1e-12)
    bell = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
    assert entanglement_entropy(bell, [0]) == pytest.approx(LN2)
    assert entanglement_entropy(bell, [1]) == pytest.approx(LN2)
    psi = WordStream(RngSeed(15)).standard_normal(16).astype(complex)
    psi = psi / np.linalg.norm(psi)
    assert entanglement_entropy(psi, [0, 2]) == pytest.approx(entanglement_entropy(psi, [1, 3]), abs=1e-10)
    with pytest.raises(ValueError):
        entanglement_entropy(bell, [])
    with pytest.raises(ValueError):
        entanglement_entropy(bell, [0, 1])
    for bad in (psi[:15], np.append(psi, 0.0), psi.reshape(4, 4)):
        with pytest.raises(ValueError, match="expected 2\\*\\*n amplitudes"):
            entanglement_entropy(bad, [0])


def test_mixture_is_the_sum_of_projectors():
    """A single state s gives |s><s| = outer(s, conj s), not its conjugate
    (s = (1, i)/sqrt 2 has <0|rho|1> = -i/2), and m states give the mean of
    their projectors."""
    s = np.array([1.0, 1j]) / np.sqrt(2)
    assert np.array_equal(mixture(s[None, :]), np.outer(s, s.conj()))
    assert mixture(s[None, :])[0, 1] == pytest.approx(-0.5j)
    stream = WordStream(RngSeed(31))
    states = stream.standard_normal(12).reshape(3, 4) + 1j * stream.standard_normal(12).reshape(3, 4)
    assert np.allclose(mixture(states), sum(pure(row) for row in states) / 3, atol=1e-14)
