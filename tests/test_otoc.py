import os
import subprocess
import sys
import tracemalloc
from itertools import product
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import rsedlab
from rsedlab import otoc, subsystem
from rsedlab.bitcore import PauliString, SystemShape
from rsedlab.cli import evolved, hadamard_sign_f_average
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
from conftest import backend_permutation, backend_sign_function, identity_permutation
from rsedlab.randomness import SignFunction, sample_permutation, sample_sign_function
from rsedlab.rng import RngSeed, WordStream
from rsedlab.rsed import RsedOperator, dense_matrix
from rsedlab.subsystem import (
    SubHamiltonian,
    SubUnitary,
    column_batches,
    evolve,
    hadamard_layer,
    hadamard_sign_power,
    parent_hamiltonian,
    pauli_syk,
    random_sign_hadamard,
    sign_bits,
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
    assert otoc_zz_exact(op.perm, op.sign, 0, 5, [op.sub])[0].value == pytest.approx(1.0)
    opd = make_op(8, 3, SubUnitary(3, np.diag(1.0 - 2.0 * sign_bits(3, RngSeed(2)))), 1)
    assert otoc_zz_exact(opd.perm, opd.sign, 0, 5, [opd.sub])[0].value == pytest.approx(1.0)


def test_zz_requires_distinct_sites():
    op = make_op(6, 3, hadamard_layer(3), 3)
    with pytest.raises(ValueError):
        otoc_zz_exact(op.perm, op.sign, 2, 2, [op.sub])


def test_zz_rejects_non_integer_sites():
    """A fractional or bool site is an error, not the site it truncates to;
    numpy integer sites give the same value as Python ints."""
    op = make_op(8, 3, hadamard_layer(3), 3)
    p, f, u = op.perm, op.sign, op.sub
    seed = RngSeed(3, 9)
    for bad in ((0.5, 5), (5, 2.0), (True, 5), (0, np.float64(5.0))):
        with pytest.raises(ValueError, match="not an integer"):
            otoc_zz_exact(p, f, *bad, [u])
        with pytest.raises(ValueError, match="not an integer"):
            otoc_zz_sampled(p, f, *bad, [u], 4, seed)
    assert otoc_zz_exact(p, f, np.int64(0), np.uint8(5), [u])[0].value == otoc_zz_exact(p, f, 0, 5, [u])[0].value
    assert otoc_zz_sampled(p, f, np.int32(0), 5, [u], 4, seed)[0].value == otoc_zz_sampled(p, f, 0, 5, [u], 4, seed)[0].value


def test_zz_exact_matches_dense_definition():
    """Blocked per-seed reduction equals the dense four-point trace."""
    u = unitary_power(random_sign_hadamard(4, RngSeed(4)), 2)
    for r in range(10):
        op = make_op(8, 4, u, 100 + r)
        fast = otoc_zz_exact(op.perm, op.sign, 1, 6, [op.sub])[0].value
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
        vals.add(complex(otoc_zz_exact(p, f, 0, 1, [u])[0].value))
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


@pytest.mark.parametrize("t", [0, 1, 2, 4])
def test_matrix_free_f_average_is_the_dense_value_bitwise(t):
    """k = 11 at the production batch width: the gate is several column
    batches, and the matrix-free sum equals the dense gate's sum exactly."""
    seed = RngSeed(51, t)
    assert len(list(column_batches(11))) >= 2
    dense = otoc_zz_f_average(hadamard_sign_power(11, seed, t))
    assert hadamard_sign_f_average(11, seed, t) == dense
    if t == 0:
        assert dense == 1.0


@pytest.mark.parametrize("k", [3, 6, 8])
@pytest.mark.parametrize("t", [0, 1, 2, 4])
def test_matrix_free_f_average_over_narrow_batches(monkeypatch, k, t):
    """Batches narrowed to K/8 columns (one column at k = 3): every case
    spans 8 batches and is still bitwise."""
    K = 1 << k
    monkeypatch.setattr(subsystem, "_F_BATCH_BITS", 2 * k - 3)
    assert len(column_batches(k)) == 8
    seed = RngSeed(52, k)
    u = hadamard_sign_power(k, seed, t)
    slow = unitary_power(random_sign_hadamard(k, seed), t)
    assert np.max(np.abs(u.matrix - slow.matrix)) < 1e-12
    assert hadamard_sign_f_average(k, seed, t) == otoc_zz_f_average(u)
    if t == 0:
        assert hadamard_sign_f_average(k, seed, t) == 1.0


def test_matrix_free_f_average_stays_below_one_dense_gate():
    """The k = 12, t = 4 f-average never holds a K x K array: its reused
    4096 x 32 buffers keep the traced peak (4.2 MiB) under 16 MiB, an
    eighth of one dense float64 gate (128 MiB; the dense complex path peaks
    at 512 MiB)."""
    tracemalloc.start()
    try:
        hadamard_sign_f_average(12, RngSeed(53), 4)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * (1 << 20)


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
        vals[r] = otoc_zz_exact(p, f, 1, 5, [u])[0].value.real
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
    exact = otoc_zz_exact(op.perm, op.sign, 0, 7, [op.sub])[0]
    clamped = otoc_zz_sampled(op.perm, op.sign, 0, 7, [op.sub], num_seeds=10**6, seed=RngSeed(12))[0]
    assert clamped.value == exact.value and clamped.std_error == 0.0
    opi = make_op(8, 4, SubUnitary(4, np.eye(16, dtype=complex)), 13)
    est = otoc_zz_sampled(opi.perm, opi.sign, 0, 7, [opi.sub], num_seeds=8, seed=RngSeed(14))[0]
    assert est.value == pytest.approx(1.0) and est.std_error < 1e-12


def test_sampled_exhaustive_clamp_keeps_the_exact_cap():
    """num_seeds >= 2**(n-k) runs otoc_zz_exact, so n - k > 20 is refused
    before an enumeration of 2**21 seeds starts."""
    shape = SystemShape(23, 2)
    op = RsedOperator(
        shape, sample_permutation(shape, RngSeed(1)), sample_sign_function(shape, RngSeed(2)), hadamard_layer(2)
    )
    with pytest.raises(ValueError, match="n - k <= 20"):
        otoc_zz_sampled(op.perm, op.sign, 0, 5, [op.sub], num_seeds=shape.num_seeds, seed=RngSeed(3))
    assert otoc_zz_sampled(op.perm, op.sign, 0, 5, [op.sub], num_seeds=4, seed=RngSeed(3))[0].meta["exhaustive"] is False


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
        backend_permutation(shape, RngSeed(seed, 1), perm_backend),
        backend_sign_function(shape, RngSeed(seed, 2), sign_backend),
        u,
    )
    zz = otoc_zz_exact(op.perm, op.sign, i, j, [op.sub])[0].value
    generic = otoc_pauli_dense(dense_matrix(op), PauliString(((i, "Z"),)), PauliString(((j, "Z"),)))
    assert abs(zz - generic) <= 1e-10


@pytest.mark.parametrize("t", [2, 0.5], ids=["real", "complex"])
def test_zz_kernel_chunk_boundaries(monkeypatch, t):
    """Seeds split into 25 + 25 + 14 at n = 10, k = 4: the ragged chunking
    keeps the exact value, the exhaustive clamp and the per-seed traces."""
    u = unitary_power(random_sign_hadamard(4, RngSeed(20)), t)
    op = make_op(10, 4, u, 21)
    single = otoc_zz_exact(op.perm, op.sign, 2, 7, [op.sub])[0].value
    monkeypatch.setattr(otoc, "_CHUNK_ENTRIES", 25 * 16 * 16)
    exact = otoc_zz_exact(op.perm, op.sign, 2, 7, [op.sub])[0]
    assert abs(exact.value - single) <= 1e-13
    assert otoc_zz_sampled(op.perm, op.sign, 2, 7, [op.sub], num_seeds=64, seed=RngSeed(22))[0].value == exact.value
    draws = WordStream(RngSeed(23)).integers(op.shape.num_seeds, 60).astype(np.uint32)
    assert len(np.unique(draws)) < len(draws)
    traces = np.concatenate(list(otoc._zz_chunk_traces(op, [u.matrix], 2, 7, draws)), axis=1)[0]
    oracle = [_zz_block_trace(row, u.matrix, 2, 7) for row in op.block_positions(draws)]
    assert np.max(np.abs(traces - oracle)) <= 1e-12
    sampled = otoc_zz_sampled(op.perm, op.sign, 2, 7, [op.sub], num_seeds=60, seed=RngSeed(23))[0]
    assert abs(sampled.value - np.mean(oracle) / 16) <= 1e-12


@given(
    n=st.integers(2, 9),
    data=st.data(),
    perm_backend=st.sampled_from(["explicit", "feistel", "identity"]),
    complex_gate=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_minor_traces_match_the_dense_oracle(n, data, perm_backend, complex_gate, seed):
    """Each per-seed trace from the minor u[R_a, S_a], at most K/2 x K/2,
    equals the dense tr(Di G Di G) within 1e-12: real and complex gates,
    both permutation backends, K = 2 (k = 1), repeated seeds, and chunks of
    1-5 seeds with a shorter last one.  The identity table with a site >= k
    gives a constant bit in every block, an empty minority set, and so
    exactly T_a = K.

    The identity uses u^dag u = I, and the dense form does not, so a gate
    unitary only to eps = ||u^dag u - I||_2 may move T_a by up to
    K (16 eps + 19 eps**2) (otoc module docstring): fractional powers move
    it by up to 2e-12 at K = 128 and 7e-12 at K = 256.  The bound allows
    that on top of 1e-12."""
    k = data.draw(st.integers(1, n - 1))
    i, j = data.draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
    shape = SystemShape(n, k)
    base = random_sign_hadamard(k, RngSeed(seed, 3))
    u = unitary_power(base, data.draw(st.floats(0.1, 3.9) if complex_gate else st.integers(0, 4)))
    assert bool(u.matrix.imag.any()) == complex_gate
    if perm_backend == "identity":
        p = identity_permutation(shape)
    else:
        p = backend_permutation(shape, RngSeed(seed, 1), perm_backend)
    op = RsedOperator(shape, p, sample_sign_function(shape, RngSeed(seed, 2)), u)
    draws = WordStream(RngSeed(seed, 4)).integers(shape.num_seeds, data.draw(st.integers(1, 12))).astype(np.uint32)
    per_chunk = data.draw(st.integers(1, 5))
    with mock.patch.object(otoc, "_CHUNK_ENTRIES", per_chunk * shape.subdim**2):
        chunks = list(otoc._zz_chunk_traces(op, [u.matrix], i, j, draws))
    assert [c.shape[1] for c in chunks[:-1]] == [per_chunk] * (len(chunks) - 1)
    traces = np.concatenate(chunks, axis=1)[0]
    assert otoc._minor_sets(op.block_positions(draws), i, j).shape[2] <= shape.subdim // 2
    oracle = np.array([_zz_block_trace(row, u.matrix, i, j) for row in op.block_positions(draws)])
    eps = np.linalg.norm(u.matrix.conj().T @ u.matrix - np.eye(shape.subdim), 2)
    assert np.max(np.abs(traces - oracle)) <= 1e-12 + shape.subdim * (16 * eps + 19 * eps**2)
    if perm_backend == "identity" and min(i, j) >= k:
        assert np.all(traces == shape.subdim)


def test_empty_minority_set_gives_trace_k():
    """Explicit identity table, both sites >= k: every block sees a constant
    bit, so R_a and S_a are empty and T_a = K exactly; with one site < k the
    other set alone is empty, and T_a = K still."""
    shape = SystemShape(7, 3)
    u = unitary_power(random_sign_hadamard(3, RngSeed(40)), 0.5)
    op = RsedOperator(shape, identity_permutation(shape), sample_sign_function(shape, RngSeed(41)), u)
    seeds = np.arange(shape.num_seeds, dtype=np.uint32)
    for i, j in ((3, 6), (0, 5), (5, 1)):
        traces = np.concatenate(list(otoc._zz_chunk_traces(op, [u.matrix], i, j, seeds)), axis=1)[0]
        assert np.all(traces == 8.0)


@pytest.mark.parametrize("k, kind", [(1, "ones"), (3, "ones"), (3, "signs"), (5, "ones")])
def test_near_unitary_gate_moves_the_value_by_at_most_16_eps(k, kind):
    """u = V (I + E)**(1/2) with V unitary and E Hermitian passes the
    unitarity check (largest entry of u^dag u - I = E just under
    UNITARITY_TOL) without being unitary.  The identity assumes u^dag u = I
    and the dense trace does not: the two OTOC values part by a visible
    amount, but by no more than 16 eps + 19 eps**2, eps = ||E||_2 (K times
    the largest entry for E = d * ones, equal to it for a diagonal of +-d)."""
    K = 1 << k
    d = 0.9 * subsystem.UNITARITY_TOL
    e = np.full((K, K), d) if kind == "ones" else np.diag(np.where(np.arange(K) % 3 == 0, -d, d))
    w, v = np.linalg.eigh(e)
    base = unitary_power(random_sign_hadamard(k, RngSeed(50)), 0.5).matrix
    u = SubUnitary(k, base @ ((v * np.sqrt(1.0 + w)) @ v.conj().T))
    eps = np.linalg.norm(u.matrix.conj().T @ u.matrix - np.eye(K), 2)
    shape = SystemShape(k + 4, k)
    op = RsedOperator(shape, sample_permutation(shape, RngSeed(51)), sample_sign_function(shape, RngSeed(52)), u)
    moves = []
    for i, j in ((0, k + 3), (0, 1), (k + 2, k + 3)):
        dense = _zz_trace_from_positions(op.block_positions(np.arange(shape.num_seeds)), u.matrix, i, j)
        moves.append(abs(otoc_zz_exact(op.perm, op.sign, i, j, [op.sub])[0].value - dense))
    assert max(moves) <= 16 * eps + 19 * eps**2
    assert max(moves) > 1e-3 * eps


def zz_estimates(p, f, i, j, gates, num_seeds=None, seed=None):
    """otoc_zz_exact, or with num_seeds otoc_zz_sampled drawing from seed."""
    if num_seeds is None:
        return otoc_zz_exact(p, f, i, j, gates)
    return otoc_zz_sampled(p, f, i, j, gates, num_seeds, seed)


@pytest.mark.parametrize("group_entries", [None, 2 * 16 * 16], ids=["one-group", "groups-of-2"])
@pytest.mark.parametrize("num_seeds", [None, 40, 64], ids=["exact", "sampled", "clamped"])
def test_grid_equals_one_gate_calls_bitwise(monkeypatch, group_entries, num_seeds):
    """One call over the gates of integer and fractional t equals the
    one-gate calls at each t bit for bit, whether the gates are one group or
    groups of 2 + 2 + 1 (then with chunks of two seeds)."""
    if group_entries is not None:
        monkeypatch.setattr(otoc, "_CHUNK_ENTRIES", group_entries)
    base = random_sign_hadamard(4, RngSeed(42))
    shape = SystemShape(10, 4)
    p, f = sample_permutation(shape, RngSeed(43)), sample_sign_function(shape, RngSeed(44))
    ts = [0.0, 0.5, 1.0, 2.0, 2.75]
    grid = zz_estimates(p, f, 2, 7, (evolved(base, t) for t in ts), num_seeds, RngSeed(45))
    assert len(grid) == len(ts)
    for t, est in zip(ts, grid):
        one = zz_estimates(p, f, 2, 7, [evolved(base, t)], num_seeds, RngSeed(45))[0]
        assert (est.value, est.std_error, est.meta) == (one.value, one.std_error, one.meta)
    if num_seeds is not None:
        assert grid[-1].meta["exhaustive"] == (num_seeds >= shape.num_seeds)


@pytest.mark.parametrize("num_seeds", [None, 40], ids=["exact", "sampled"])
def test_grid_maps_positions_once_per_chunk_and_gate_group(monkeypatch, num_seeds):
    """Block positions are computed once per seed chunk per gate group, not
    once per t, and each group's gates are drawn from gates just before its
    pass: with chunks and groups of 3 (K = 16), 7 t values are groups of
    3 + 3 + 1 and 64 seeds (or 40 draws) are 22 (14) chunks."""
    monkeypatch.setattr(otoc, "_CHUNK_ENTRIES", 3 * 16 * 16)
    events = []
    block_positions = RsedOperator.block_positions
    monkeypatch.setattr(RsedOperator, "block_positions", lambda *a: events.append("pos") or block_positions(*a))
    base = random_sign_hadamard(4, RngSeed(53))
    shape = SystemShape(10, 4)
    p, f = sample_permutation(shape, RngSeed(54)), sample_sign_function(shape, RngSeed(55))
    ts = [0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0]
    zz_estimates(p, f, 1, 8, (events.append(t) or evolved(base, t) for t in ts), num_seeds, RngSeed(56))
    chunks = ["pos"] * (22 if num_seeds is None else 14)
    assert events == [*ts[:3], *chunks, *ts[3:6], *chunks, ts[6], *chunks]


def test_grid_checks_before_building_a_gate():
    """Bad sites, too few samples and the n - k <= 20 cap are refused before
    a gate is drawn from gates."""
    built = []
    gates = (built.append(t) or hadamard_layer(2) for t in [1.0])
    shape = SystemShape(23, 2)
    p, f = sample_permutation(shape, RngSeed(46)), sample_sign_function(shape, RngSeed(47))
    for args, match in (
        ((0, 0, gates), "distinct"),
        ((0, 23, gates), "out of range"),
        ((0, 5, gates, 1, RngSeed(48)), "at least 2"),
        ((0, 5, gates), "n - k <= 20"),
        ((0, 5, gates, shape.num_seeds, RngSeed(48)), "n - k <= 20"),
    ):
        with pytest.raises(ValueError, match=match):
            zz_estimates(p, f, *args)
    assert built == []


@pytest.mark.parametrize("k", [3, 5])
def test_every_gate_must_act_on_the_shape_k(k):
    """A gate on another k after a right one in the same group is refused,
    not gathered out of its wrong-size matrix."""
    shape = SystemShape(8, 4)
    p, f = sample_permutation(shape, RngSeed(57)), sample_sign_function(shape, RngSeed(58))
    with pytest.raises(ValueError, match="every gate must act on k=4"):
        otoc_zz_exact(p, f, 0, 5, [hadamard_layer(4), hadamard_layer(k)])


def test_zz_kernel_views_its_buffers_at_each_chunk_shape(monkeypatch):
    """Chunks of 3 + 3 + 1 draws whose minority sets pad to m = 7, 8, 7: the
    pass's buffers are viewed at (3, 7, 7), (3, 8, 8) and (1, 7, 7), for a
    real and a complex gate in one pass, and every trace matches the dense
    per-seed trace."""
    monkeypatch.setattr(otoc, "_CHUNK_ENTRIES", 3 * 16 * 16)
    shape = SystemShape(9, 4)
    base = random_sign_hadamard(4, RngSeed(60))
    gates = [unitary_power(base, 2).matrix, unitary_power(base, 0.5).matrix]
    assert [u.dtype for u in gates] == [np.float64, np.complex128]
    op = make_op(9, 4, base, 66)
    draws = WordStream(RngSeed(66, 3)).integers(shape.num_seeds, 7).astype(np.uint32)
    assert [otoc._minor_sets(op.block_positions(draws[lo : lo + 3]), 0, 6).shape[2] for lo in (0, 3, 6)] == [7, 8, 7]
    traces = np.concatenate(list(otoc._zz_chunk_traces(op, gates, 0, 6, draws)), axis=1)
    for u, tr in zip(gates, traces):
        oracle = [_zz_block_trace(row, u, 0, 6) for row in op.block_positions(draws)]
        assert np.max(np.abs(tr - oracle)) <= 1e-12


def test_sampled_subsample_consistency():
    """Genuine subsample at n=16, k=8 sits within 4 SE of its own exact
    value; across scales (n=12 vs n=16) realizations agree within 5 combined
    realization widths from the exact variance contraction."""
    u = unitary_power(random_sign_hadamard(8, RngSeed(15)), 4)
    op16 = make_op(16, 8, u, 16)
    sampled = otoc_zz_sampled(op16.perm, op16.sign, 0, 9, [op16.sub], num_seeds=64, seed=RngSeed(17))[0]
    exact16 = otoc_zz_exact(op16.perm, op16.sign, 0, 9, [op16.sub])[0]
    assert abs(sampled.value - exact16.value) <= 4 * sampled.std_error
    op12 = make_op(12, 8, u, 18)
    exact12 = otoc_zz_exact(op12.perm, op12.sign, 0, 9, [op12.sub])[0]
    width = np.sqrt(zz_f_variance_hadamard_exact(12, 8) + zz_f_variance_hadamard_exact(16, 8))
    assert abs(exact16.value - exact12.value) <= 5 * width


def test_otoc_pauli_commuting_and_anticommuting():
    opi = make_op(6, 3, SubUnitary(3, np.eye(8, dtype=complex)), 19)
    u = dense_matrix(opi)
    v, w = PauliString(((0, "Z"),)), PauliString(((1, "Z"),))
    assert otoc_pauli_dense(u, v, w) == pytest.approx(1.0)
    assert otoc_pauli(opi, v, w, RngSeed(1)).value == pytest.approx(1.0)
    x0, z0 = PauliString(((0, "X"),)), PauliString(((0, "Z"),))
    assert otoc_pauli_dense(u, x0, z0) == pytest.approx(-1.0)
    assert otoc_pauli(opi, x0, z0, RngSeed(1)).value == pytest.approx(-1.0)


def test_otoc_pauli_runs_512_probes(monkeypatch):
    """Each probe applies U or U^dag four times, so one call applies the
    operator 2048 times, blockwise, and reports 512 samples."""
    applied, apply_blocks = [], otoc._apply_blocks

    def counted(u, pos, sg, state):
        applied.append(u)
        return apply_blocks(u, pos, sg, state)

    monkeypatch.setattr(otoc, "_apply_blocks", counted)
    op = make_op(6, 3, random_sign_hadamard(3, RngSeed(23)), 24)
    est = otoc_pauli(op, PauliString(((0, "X"),)), PauliString(((4, "Z"),)), RngSeed(25))
    assert len(applied) == 2048 and est.meta["samples"] == 512


_PAULI_PROBE = """
import sys
sys.path.insert(0, sys.argv[1])
from rsedlab.bitcore import PauliString, SystemShape
from rsedlab.otoc import otoc_pauli
from rsedlab.randomness import sample_permutation, sample_sign_function
from rsedlab.rng import RngSeed
from rsedlab.rsed import RsedOperator
from rsedlab.subsystem import random_sign_hadamard
shape = SystemShape(14, 2)
p, f = sample_permutation(shape, RngSeed(1)), sample_sign_function(shape, RngSeed(2))
op = RsedOperator(shape, p, f, random_sign_hadamard(2, RngSeed(3)))
est = otoc_pauli(op, PauliString(((0, "X"),)), PauliString(((5, "Z"),)), RngSeed(4))
print(repr(est.value), repr(est.std_error))
"""


def test_otoc_pauli_is_independent_of_the_blas_thread_count():
    """At n = 14 each probe's overlap sums 2**14 products, past the length at
    which OpenBLAS splits a dot product across its threads; the estimate must
    not move with OPENBLAS_NUM_THREADS.  One fresh process per thread count,
    since OpenBLAS reads the variable when it loads."""
    src = str(Path(rsedlab.__file__).resolve().parents[1])
    runs = [
        subprocess.Popen(
            [sys.executable, "-c", _PAULI_PROBE, src],
            env={**os.environ, "OPENBLAS_NUM_THREADS": str(threads)},
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        for threads in (1, 2)
    ]
    outs = [run.communicate(timeout=120) for run in runs]
    assert all(run.returncode == 0 for run in runs), [err for _, err in outs]
    one, two = (out.strip() for out, _ in outs)
    assert one == two


def test_otoc_pauli_stochastic_consistency():
    u = unitary_power(random_sign_hadamard(4, RngSeed(20)), 2)
    op = make_op(8, 4, u, 21)
    v = PauliString(((0, "X"), (3, "Z")))
    w = PauliString(((5, "Z"),))
    exact = otoc_pauli_dense(dense_matrix(op), v, w)
    stoch = otoc_pauli(op, v, w, RngSeed(22))
    assert abs(stoch.value - exact) <= 4 * stoch.std_error


def test_poisson_bracket_values():
    assert poisson_bracket(OtocEstimate(1.0, 0.0)) == 0.0
    assert poisson_bracket(OtocEstimate(-1.0, 0.0)) == 2.0
    assert poisson_bracket(OtocEstimate(0.0, 0.0)) == 1.0


def test_otoc_magnitude_invariant():
    with pytest.raises(ValueError):
        OtocEstimate(1.5, 0.0)


def test_finite_temperature_beta0_equals_pauli():
    base = random_sign_hadamard(3, RngSeed(23))
    h = parent_hamiltonian(base)
    op = make_op(6, 3, unitary_power(base, 2), 24)
    v, w = PauliString(((0, "Z"),)), PauliString(((4, "Z"),))
    thermal = otoc_finite_temperature(op, h, 0.0, v, w, mode="exact")
    pauli = otoc_pauli_dense(dense_matrix(op), v, w)
    assert abs(thermal.value - pauli) < 1e-12


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
        c_t = poisson_bracket(otoc_zz_exact(p, f, 0, 7, [unitary_power(u, t)])[0])
        c_t2 = poisson_bracket(otoc_zz_exact(p, f, 0, 7, [unitary_power(u, t + 2.0)])[0])
        assert abs(c_t - c_t2) < 1e-12
    c_half = poisson_bracket(otoc_zz_exact(p, f, 0, 7, [unitary_power(u, 0.5)])[0])
    c_three_half = poisson_bracket(otoc_zz_exact(p, f, 0, 7, [unitary_power(u, 1.5)])[0])
    assert abs(c_half - c_three_half) < 1e-12


def test_saturation_single_realizations():
    """u = (H^{x8}P)^t at n=12, k=8: |1 - C| stays below 2^-4 for t=1..4."""
    from rsedlab.subsystem import hadamard_sign_power

    for t in (1, 2, 3, 4):
        u = hadamard_sign_power(8, RngSeed(34), t)
        op = make_op(12, 8, u, 35)
        c = poisson_bracket(otoc_zz_exact(op.perm, op.sign, 0, 9, [op.sub])[0])
        assert abs(1.0 - c) <= 2.0**-4
