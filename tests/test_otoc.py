from itertools import product

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rsedlab import otoc
from rsedlab.bitcore import SystemShape
from rsedlab.otoc import (
    OtocEstimate,
    early_time_slope,
    otoc_finite_temperature,
    otoc_pauli,
    otoc_pauli_dense,
    otoc_zz_exact,
    otoc_zz_f_average,
    otoc_zz_f_variance_hadamard,
    otoc_zz_sampled,
    poisson_bracket,
    zz_f_variance_hadamard_exact,
)
from rsedlab.randomness import SignFunction, sample_permutation, sample_sign_function
from rsedlab.rng import RngSeed, WordStream
from rsedlab.rsed import PauliString, RsedOperator, dense_matrix
from rsedlab.subsystem import (
    SubHamiltonian,
    SubUnitary,
    evolve,
    hadamard_layer,
    parent_hamiltonian,
    pauli_syk,
    random_sign_diag,
    random_sign_hadamard,
    unitary_power,
)

Z0 = PauliString(((0, "Z"),))


def make_op(n, k, u, seed):
    shape = SystemShape(n, k)
    return RsedOperator(
        shape,
        sample_permutation(shape, RngSeed(seed, 1)),
        sample_sign_function(shape, RngSeed(seed, 2)),
        u,
    )


def test_zz_identity_and_diagonal_sub():
    op = make_op(8, 3, SubUnitary(3, np.eye(8, dtype=complex)), 1)
    assert otoc_zz_exact(op, 0, 5).value == pytest.approx(1.0)
    opd = make_op(8, 3, random_sign_diag(3, RngSeed(2)), 1)
    assert otoc_zz_exact(opd, 0, 5).value == pytest.approx(1.0)


def test_zz_requires_distinct_sites():
    op = make_op(6, 3, hadamard_layer(3), 3)
    with pytest.raises(ValueError):
        otoc_zz_exact(op, 2, 2)


def test_zz_rejects_non_integer_sites():
    """A fractional or bool site is an error, not the site it truncates to;
    numpy integer sites give the same value as Python ints."""
    op = make_op(8, 3, hadamard_layer(3), 3)
    seed = RngSeed(3, 9)
    for bad in ((0.5, 5), (5, 2.0), (True, 5), (0, np.float64(5.0))):
        with pytest.raises(ValueError, match="not an integer"):
            otoc_zz_exact(op, *bad)
        with pytest.raises(ValueError, match="not an integer"):
            otoc_zz_sampled(op, *bad, 4, seed)
    assert otoc_zz_exact(op, np.int64(0), np.uint8(5)).value == otoc_zz_exact(op, 0, 5).value
    assert otoc_zz_sampled(op, np.int32(0), 5, 4, seed).value == otoc_zz_sampled(op, 0, 5, 4, seed).value


def test_zz_exact_matches_dense_definition():
    """Blocked per-seed reduction equals the dense four-point trace."""
    u = unitary_power(random_sign_hadamard(4, RngSeed(4)), 2)
    for r in range(10):
        op = make_op(8, 4, u, 100 + r)
        fast = otoc_zz_exact(op, 1, 6).value
        dense = otoc_pauli_dense(dense_matrix(op), PauliString(((1, "Z"),)), PauliString(((6, "Z"),)))
        assert abs(fast - dense) < 1e-10


def test_zz_is_sign_function_independent():
    """With V, W diagonal the isometry sign function cancels identically."""
    shape = SystemShape(2, 2)
    u = SubUnitary(2, random_sign_hadamard(2, RngSeed(6)).matrix)
    p = sample_permutation(shape, RngSeed(5))
    vals = set()
    for bits in product((0, 1), repeat=4):
        f = SignFunction(shape, bits=np.array(bits, dtype=np.uint8))
        vals.add(complex(otoc_zz_exact(RsedOperator(shape, p, f, u), 0, 1).value))
    assert len(vals) == 1


def _zz_block_trace(row, u, i, j):
    """tr(Di u Dj u^dag Di u Dj u^dag) for one block's positions (oracle helper)."""
    di = 1.0 - 2.0 * ((row >> i) & 1)
    dj = 1.0 - 2.0 * ((row >> j) & 1)
    x = (di[:, None] * u * dj[None, :]) @ u.conj().T
    return np.einsum("ij,ji->", x, x)


def _zz_trace_from_positions(pos, u, i, j):
    """Per-seed ZZ reduction for an arbitrary index map (oracle helper)."""
    total = 0j
    for row in pos:
        total += _zz_block_trace(row, u, i, j)
    return total / (pos.size)


def test_closed_form_equals_iid_map_enumeration():
    """The ensemble closed form 2^-k sum |u|^4 is exact for independent
    uniform sign bits: enumerating ALL 4^4 index maps q: [4) -> [4) at
    n = k = 2 reproduces it to 1e-12 (for any unitary u)."""
    stream_u = [hadamard_layer(2).matrix, random_sign_hadamard(2, RngSeed(7)).matrix]
    for u in stream_u:
        vals = []
        for assignment in product(range(4), repeat=4):
            pos = np.array([assignment], dtype=np.uint32)
            vals.append(_zz_trace_from_positions(pos, u, 0, 1))
        mean = np.mean(vals)
        closed = np.sum(np.abs(u) ** 4) / 4.0
        assert abs(mean - closed) < 1e-12


def test_f_average_examples():
    for k in range(2, 9):
        assert abs(otoc_zz_f_average(hadamard_layer(k)) - 2.0**-k) < 1e-12
    assert otoc_zz_f_average(SubUnitary(3, np.eye(8, dtype=complex))) == pytest.approx(1.0)


def test_variance_formula_values():
    # printed closed form at (n=8, k=3)
    assert otoc_zz_f_variance_hadamard(8, 3) == pytest.approx(0.00354766845703125, abs=1e-15)
    n = k = 5
    assert otoc_zz_f_variance_hadamard(n, k) == pytest.approx(
        8 / 2 ** (2 * n) - 6 / 2 ** (3 * n) + 2.0 ** (-4 * n)
    )


def test_variance_matches_exact_contraction():
    """Empirical isometry-ensemble variance agrees with the exact
    second-moment contraction 8/2^(n+k) - 12/2^(n+2k) + 4/2^(n+3k) (the
    printed -6/+1 form overshoots; see acceptance 2 in the README
    by-design failures table)."""
    n, k = 8, 3
    u = hadamard_layer(k)
    shape = SystemShape(n, k)
    f = sample_sign_function(shape, RngSeed(8))
    m = 3000
    vals = np.empty(m)
    for r in range(m):
        p = sample_permutation(shape, RngSeed(9, r))
        vals[r] = otoc_zz_exact(RsedOperator(shape, p, f, u), 1, 5).value.real
    var = vals.var(ddof=1)
    m4 = np.mean((vals - vals.mean()) ** 4)
    se = np.sqrt((m4 - var**2) / m)
    assert abs(var - zz_f_variance_hadamard_exact(n, k)) <= 5 * se
    # the permutation ensemble sits slightly below the independent-bit
    # closed form (distinct points anti-correlate); bias is ~ -4.5% here
    closed = otoc_zz_f_average(u)
    assert closed - 0.012 <= vals.mean() <= closed


def test_sampled_exhaustive_bitwise_and_identity_case():
    u = unitary_power(random_sign_hadamard(4, RngSeed(10)), 2)
    op = make_op(10, 4, u, 11)
    exact = otoc_zz_exact(op, 0, 7)
    clamped = otoc_zz_sampled(op, 0, 7, num_seeds=10**6, seed=RngSeed(12))
    assert clamped.value == exact.value and clamped.std_error == 0.0
    opi = make_op(8, 4, SubUnitary(4, np.eye(16, dtype=complex)), 13)
    est = otoc_zz_sampled(opi, 0, 7, num_seeds=8, seed=RngSeed(14))
    assert est.value == pytest.approx(1.0) and est.std_error < 1e-12


@given(
    n=st.integers(2, 9),
    data=st.data(),
    perm_backend=st.sampled_from(["explicit", "feistel"]),
    sign_backend=st.sampled_from(["explicit", "keyed_prf"]),
    gate=st.sampled_from(["integer_power", "fractional_power", "syk"]),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=40, deadline=None)
def test_zz_kernel_matches_generic_pauli_otoc(n, data, perm_backend, sign_backend, gate, seed):
    """The ZZ reduction equals the dense Pauli OTOC on either backend, for a
    real gate (integer Hadamard-sign power), a complex one (fractional power)
    and a chaotic one (evolved spin SYK)."""
    k = data.draw(st.integers(1, n - 1))
    assume(gate != "syk" or k >= 2)
    i, j = data.draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
    shape = SystemShape(n, k)
    if gate == "syk":
        u = evolve(pauli_syk(k, RngSeed(seed, 3)), data.draw(st.floats(0.1, 4.0)))
    else:
        base = random_sign_hadamard(k, RngSeed(seed, 3))
        t = data.draw(st.integers(1, 4)) if gate == "integer_power" else data.draw(st.floats(0.1, 3.9))
        u = unitary_power(base, t)
        assert (not u.matrix.imag.any()) == (gate == "integer_power")
    op = RsedOperator(
        shape,
        sample_permutation(shape, RngSeed(seed, 1), backend=perm_backend),
        sample_sign_function(shape, RngSeed(seed, 2), backend=sign_backend),
        u,
    )
    zz = otoc_zz_exact(op, i, j).value
    generic = otoc_pauli(op, PauliString(((i, "Z"),)), PauliString(((j, "Z"),)), mode="exact").value
    assert abs(zz - generic) <= 1e-10


@pytest.mark.parametrize("t", [2, 0.5], ids=["real", "complex"])
def test_zz_kernel_chunk_boundaries(monkeypatch, t):
    """Seeds split into 25 + 25 + 14 at n = 10, k = 4: the ragged chunking
    keeps the exact value, the exhaustive clamp and the per-seed traces."""
    u = unitary_power(random_sign_hadamard(4, RngSeed(20)), t)
    op = make_op(10, 4, u, 21)
    single = otoc_zz_exact(op, 2, 7).value
    monkeypatch.setattr(otoc, "_CHUNK_ENTRIES", 25 * 16 * 16)
    exact = otoc_zz_exact(op, 2, 7)
    assert abs(exact.value - single) <= 1e-13
    assert otoc_zz_sampled(op, 2, 7, num_seeds=64, seed=RngSeed(22)).value == exact.value
    draws = WordStream(RngSeed(23)).integers(op.shape.num_seeds, 60).astype(np.uint32)
    assert len(np.unique(draws)) < len(draws)
    _, traces = otoc._zz_trace_sum(op, 2, 7, draws)
    oracle = [_zz_block_trace(row, u.matrix, 2, 7) for row in op.block_positions(draws)]
    assert np.max(np.abs(traces - oracle)) <= 1e-12
    sampled = otoc_zz_sampled(op, 2, 7, num_seeds=60, seed=RngSeed(23))
    assert abs(sampled.value - np.mean(oracle) / 16) <= 1e-12


def test_sampled_subsample_consistency():
    """Genuine subsample at n=16, k=8 sits within 4 SE of its own exact
    value; across scales (n=12 vs n=16) realizations agree within 5 combined
    realization widths from the exact variance contraction."""
    u = unitary_power(random_sign_hadamard(8, RngSeed(15)), 4)
    op16 = make_op(16, 8, u, 16)
    sampled = otoc_zz_sampled(op16, 0, 9, num_seeds=64, seed=RngSeed(17))
    exact16 = otoc_zz_exact(op16, 0, 9)
    assert abs(sampled.value - exact16.value) <= 4 * sampled.std_error
    op12 = make_op(12, 8, u, 18)
    exact12 = otoc_zz_exact(op12, 0, 9)
    width = np.sqrt(zz_f_variance_hadamard_exact(12, 8) + zz_f_variance_hadamard_exact(16, 8))
    assert abs(exact16.value - exact12.value) <= 5 * width


def test_otoc_pauli_commuting_and_anticommuting():
    opi = make_op(6, 3, SubUnitary(3, np.eye(8, dtype=complex)), 19)
    v, w = PauliString(((0, "Z"),)), PauliString(((1, "Z"),))
    assert otoc_pauli(opi, v, w).value == pytest.approx(1.0)
    x0, z0 = PauliString(((0, "X"),)), PauliString(((0, "Z"),))
    assert otoc_pauli(opi, x0, z0).value == pytest.approx(-1.0)


def test_otoc_pauli_stochastic_consistency():
    u = unitary_power(random_sign_hadamard(4, RngSeed(20)), 2)
    op = make_op(8, 4, u, 21)
    v = PauliString(((0, "X"), (3, "Z")))
    w = PauliString(((5, "Z"),))
    exact = otoc_pauli(op, v, w, mode="exact")
    stoch = otoc_pauli(op, v, w, mode="stochastic", samples=512, seed=RngSeed(22))
    assert abs(stoch.value - exact.value) <= 4 * stoch.std_error


def test_poisson_bracket_values():
    assert poisson_bracket(OtocEstimate(1.0, 0.0, 0.0)) == 0.0
    assert poisson_bracket(OtocEstimate(-1.0, 0.0, 0.0)) == 2.0
    assert poisson_bracket(OtocEstimate(0.0, 0.0, 0.0)) == 1.0


def test_otoc_magnitude_invariant():
    with pytest.raises(ValueError):
        OtocEstimate(1.5, 0.0, 0.0)


def test_finite_temperature_beta0_equals_pauli():
    base = random_sign_hadamard(3, RngSeed(23))
    h = parent_hamiltonian(base)
    op = make_op(6, 3, unitary_power(base, 2), 24)
    v, w = PauliString(((0, "Z"),)), PauliString(((4, "Z"),))
    thermal = otoc_finite_temperature(op, h, 0.0, v, w, mode="exact")
    pauli = otoc_pauli(op, v, w, mode="exact")
    assert abs(thermal.value - pauli.value) < 1e-12


def test_finite_temperature_leading_formula_brute_force():
    base = random_sign_hadamard(3, RngSeed(25))
    h = parent_hamiltonian(base)
    u = unitary_power(base, 2)
    op = make_op(6, 3, u, 26)
    v, w = PauliString(((0, "Z"),)), PauliString(((4, "Z"),))
    lead = otoc_finite_temperature(op, h, 1.3, v, w, mode="leading").value
    K = 8
    gs = (h.eigenvectors * np.exp(-1.3 * h.eigenvalues)[None, :]) @ h.eigenvectors.conj().T
    rho = gs / np.trace(gs)
    off = sum(rho[b1, b2] for b1 in range(K) for b2 in range(K) if b1 != b2)
    tot = sum(
        u.matrix[b1, b2] ** 2 * np.conj(u.matrix[b1, b2]) * np.conj(u.matrix[b3, b2])
        for b1 in range(K)
        for b2 in range(K)
        for b3 in range(K)
    )
    brute = np.real((1.0 + off / (2**6 - 1)) * tot / K)
    assert abs(lead - brute) < 1e-12


def test_finite_temperature_leading_magnitude_k8():
    u = random_sign_hadamard(8, RngSeed(27))
    h = parent_hamiltonian(u)
    op = make_op(10, 8, u, 28)
    v, w = PauliString(((0, "Z"),)), PauliString(((9, "Z"),))
    lead = otoc_finite_temperature(op, h, 1.0, v, w, mode="leading")
    assert abs(lead.value) <= 4.0 * 2.0**-8


def test_finite_temperature_rejects_negative_beta():
    base = random_sign_hadamard(3, RngSeed(29))
    op = make_op(6, 3, base, 30)
    with pytest.raises(ValueError):
        otoc_finite_temperature(op, parent_hamiltonian(base), -1.0, Z0, PauliString(((1, "Z"),)))


def test_early_time_slope_x_and_z():
    x = SubHamiltonian(1, np.array([[0, 1], [1, 0]], dtype=complex))
    z = SubHamiltonian(1, np.diag([1.0, -1.0]).astype(complex))
    assert early_time_slope(x) == pytest.approx(2.0, abs=1e-14)
    assert early_time_slope(z) == pytest.approx(0.0, abs=1e-14)


def test_early_time_slope_finite_difference():
    h = pauli_syk(4, RngSeed(31))
    slope = early_time_slope(h)
    t0 = 1e-3
    c = 1.0 - otoc_zz_f_average(evolve(h, t0))
    assert abs(c / t0**2 - slope) / abs(slope) < 0.01


def test_hadamard_power_true_period_two():
    """Eigenpath powers of H^{tensor k} satisfy u^{t+2} = u^t exactly, so the
    OTOC is exactly 2-periodic; at t = 0.5 conjugation symmetry also gives
    C(0.5) = C(1.5).  (The t vs t+1 comparison is acceptance 6's known
    defect.)"""
    n, k = 10, 6
    u = hadamard_layer(k)
    shape = SystemShape(n, k)
    p = sample_permutation(shape, RngSeed(32))
    f = sample_sign_function(shape, RngSeed(33))
    for t in (0.25, 0.5, 0.75):
        c_t = poisson_bracket(otoc_zz_exact(RsedOperator(shape, p, f, unitary_power(u, t)), 0, 7))
        c_t2 = poisson_bracket(otoc_zz_exact(RsedOperator(shape, p, f, unitary_power(u, t + 2.0)), 0, 7))
        assert abs(c_t - c_t2) < 1e-12
    c_half = poisson_bracket(otoc_zz_exact(RsedOperator(shape, p, f, unitary_power(u, 0.5)), 0, 7))
    c_three_half = poisson_bracket(otoc_zz_exact(RsedOperator(shape, p, f, unitary_power(u, 1.5)), 0, 7))
    assert abs(c_half - c_three_half) < 1e-12


def test_saturation_single_realizations():
    """u = (H^{x8}P)^t at n=12, k=8: |1 - C| stays below 2^-4 for t=1..4."""
    from rsedlab.subsystem import hadamard_sign_power

    for t in (1, 2, 3, 4):
        u = hadamard_sign_power(8, RngSeed(34), t)
        op = make_op(12, 8, u, 35)
        c = poisson_bracket(otoc_zz_exact(op, 0, 9))
        assert abs(1.0 - c) <= 2.0**-4
