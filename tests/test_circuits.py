import json
import tracemalloc
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import backend_permutation, backend_sign_function, basis_state
from rsedlab.bitcore import SystemShape
from rsedlab.circuits import (
    CircuitParseError,
    GateCircuit,
    build_manifest,
    parse,
    random_clifford_circuit,
    serialize,
    simulate_circuit,
    synthesize_rsed_circuit,
)
from rsedlab.rng import RngSeed, WordStream
from rsedlab.rsed import RsedOperator, apply, dense_matrix
from rsedlab.subsystem import hadamard_layer, random_sign_hadamard, unitary_power


def test_serialize_parse_roundtrip_random():
    stream = WordStream(RngSeed(1))
    gates = []
    n = 8
    for idx in range(50):
        kind = int(stream.integers(6, 1)[0])
        q = int(stream.integers(n, 1)[0])
        q2 = (q + 1 + int(stream.integers(n - 1, 1)[0])) % n
        q3 = next(x for x in range(n) if x not in (q, q2))
        gates.append(
            [("H", q), ("X", q), ("S", q), ("T", q), ("CX", q, q2), ("CCX", q, q2, q3)][kind]
        )
    circ = GateCircuit(n, tuple(gates))
    again = parse(serialize(circ))
    assert again.gates == circ.gates and again.n == n


def test_parse_simple_and_errors():
    circ = parse("RSEDCIRC 1 n=3\nH 0\n")
    assert circ.gates == (("H", 0),)
    with pytest.raises(CircuitParseError, match="line 2"):
        parse("RSEDCIRC 1 n=3\nFOO 0\n")
    with pytest.raises(CircuitParseError, match="line 3"):
        parse("RSEDCIRC 1 n=3\nH 0\nCX 1\n")
    # the gate checks GateCircuit makes name their line too
    with pytest.raises(CircuitParseError, match="line 3"):
        parse("RSEDCIRC 1 n=2\nH 0\nH 5")
    with pytest.raises(CircuitParseError, match="line 2"):
        parse("RSEDCIRC 1 n=3\nCX 1 1")
    with pytest.raises(CircuitParseError, match="line 2"):
        parse("RSEDCIRC 1 n=3\nPERM sideways p0")
    with pytest.raises(CircuitParseError):
        parse("BADHEADER\nH 0\n")
    # a count outside [1, MAX_QUBITS] parsed, to fail later or never
    for n in (-3, 0, 31, 4_000_000_000):
        with pytest.raises(CircuitParseError, match="line 1: qubit count"):
            parse(f"RSEDCIRC 1 n={n}\n")


@pytest.mark.parametrize("gate", [("CX", 1), ("CCX", 0, 1), ("H", 0, 1), ("PHASE_F",)])
def test_gate_arity_is_checked(gate):
    """A CX with one qubit would run as an X and serialize to text that parse
    rejects; every mnemonic takes exactly its own number of arguments."""
    with pytest.raises(ValueError, match="takes"):
        GateCircuit(3, (gate,))


@pytest.mark.parametrize("gate", [("H", 4), ("T", -1), ("CX", 1, 1)])
def test_gate_qubits_are_checked(gate):
    with pytest.raises(ValueError, match="out of range|repeated"):
        GateCircuit(4, (gate,))


def test_reference_names_roundtrip():
    shape = SystemShape(6, 3)
    circ = synthesize_rsed_circuit(shape, {"type": "hadamard"}, 11, 12)
    text = serialize(circ)
    again = parse(text, registry=circ.registry)
    assert again.gates == circ.gates
    assert "PERM inv perm0" in text and "PHASE_F f0" in text


def test_empty_and_single_gate_simulation():
    shape = SystemShape(3, 1)
    psi = basis_state(shape.dim, 0)
    empty = GateCircuit(3, ())
    assert (simulate_circuit(empty, psi) == psi).all()
    h0 = GateCircuit(3, (("H", 0),))
    out = simulate_circuit(h0, psi)
    expect = np.zeros(8, dtype=complex)
    expect[0] = expect[1] = 1 / np.sqrt(2)
    assert np.allclose(out, expect)


def test_ccx_truth_table():
    """X, CX and CCX flip qubit 2 exactly where all their control bits are set."""
    shape = SystemShape(3, 1)
    for gate, controls in ((("X", 2), 0b00), (("CX", 1, 2), 0b10), (("CCX", 0, 1, 2), 0b11)):
        circ = GateCircuit(3, (gate,))
        for x in range(8):
            out = simulate_circuit(circ, basis_state(shape.dim, x))
            target = x ^ (1 << 2) if (x & controls) == controls else x
            assert out[target] == 1.0
            assert np.count_nonzero(out) == 1


def _on_qubits(n: int, factors: dict) -> np.ndarray:
    """kron of a 2 x 2 factor per qubit (identity where none is given),
    qubit 0 being the lowest bit of the basis index."""
    out = np.eye(1)
    for q in reversed(range(n)):
        out = np.kron(out, factors.get(q, np.eye(2)))
    return out


def test_every_gate_at_every_placement_matches_kron_reference():
    """At n = 4: H, S, T, X on each qubit, CX on every ordered pair and CCX
    on every ordered triple, against matrices built from np.kron and control
    projectors; each basis state run alone equals its dense column bit for bit."""
    n = 4
    shape = SystemShape(n, 1)
    one = {"H": np.array([[1, 1], [1, -1]]) / np.sqrt(2), "S": np.diag([1, 1j]),
           "T": np.diag([1, np.exp(1j * np.pi / 4)]), "X": np.array([[0, 1], [1, 0]])}
    p0, p1 = np.diag([1, 0]), np.diag([0, 1])
    cases = [((name, q), _on_qubits(n, {q: g})) for name, g in one.items() for q in range(n)]
    cases += [(("CX", c, t), _on_qubits(n, {c: p0}) + _on_qubits(n, {c: p1, t: one["X"]}))
              for c, t in permutations(range(n), 2)]
    cases += [(("CCX", c1, c2, t),
               np.eye(1 << n) - _on_qubits(n, {c1: p1, c2: p1}) + _on_qubits(n, {c1: p1, c2: p1, t: one["X"]}))
              for c1, c2, t in permutations(range(n), 3)]
    assert len(cases) == 16 + 12 + 24
    for gate, want in cases:
        circ = GateCircuit(n, (gate,))
        dense = simulate_circuit(circ, np.eye(1 << n))
        assert np.max(np.abs(dense - want)) <= 1e-15, gate
        for x in range(1 << n):
            assert np.array_equal(simulate_circuit(circ, basis_state(shape.dim, x)), dense[:, x]), gate


def test_dense_simulation_peak_memory():
    """The n = 10 sandwich run over the identity holds at most two 2^10 x
    2^10 complex buffers (32 MiB) at once: the gates work in place on qubit
    views."""
    circ = synthesize_rsed_circuit(SystemShape(10, 6), {"type": "random_sign_hadamard", "seed": 7}, 11, 12)
    tracemalloc.start()
    try:
        simulate_circuit(circ, np.eye(1 << 10))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 40 * (1 << 20)


def test_synthesized_circuit_matches_rsed_dense():
    shape = SystemShape(8, 4)
    for spec in ({"type": "hadamard"}, {"type": "random_sign_hadamard", "seed": 5}):
        circ = synthesize_rsed_circuit(shape, spec, 21, 22)
        sub = hadamard_layer(4) if spec["type"] == "hadamard" else random_sign_hadamard(4, RngSeed(5))
        op = RsedOperator(shape, circ.registry["perm0"], circ.registry["f0"], sub)
        dev = np.max(np.abs(simulate_circuit(circ, np.eye(shape.dim)) - dense_matrix(op)))
        assert dev < 1e-12


def test_hadamard_gate_count():
    shape = SystemShape(7, 3)
    circ = synthesize_rsed_circuit(shape, {"type": "hadamard"}, 1, 2)
    counts = circ.gate_counts()
    assert counts["H"] == 3
    assert counts["PERM"] == 2 and counts["PHASE_F"] == 2


def rebuild(manifest: dict):
    """The circuit a manifest records, synthesized again from its fields."""
    shape = SystemShape(manifest["n"], manifest["k"])
    return synthesize_rsed_circuit(shape, manifest["u_spec"], manifest["perm_seed"], manifest["sign_seed"])


def test_manifest_roundtrip_and_determinism():
    shape = SystemShape(6, 3)
    spec = {"type": "random_sign_hadamard", "seed": 9}
    circ = synthesize_rsed_circuit(shape, spec, 51, 52)
    manifest = build_manifest(circ, spec, 51, 52)
    again = json.loads(json.dumps(manifest, sort_keys=True))
    assert again == manifest and again["gate_counts"] == circ.gate_counts()
    c1 = rebuild(manifest)
    c2 = rebuild(again)
    assert c1.gates == c2.gates == circ.gates
    assert (c1.registry["perm0"].table == c2.registry["perm0"].table).all()
    assert (c1.registry["f0"].bits == c2.registry["f0"].bits).all()


@pytest.mark.parametrize(
    "u_spec, recorded",
    [
        ({"type": "hadamard", "seed": 3}, {"type": "hadamard"}),
        ({"type": "random_sign_hadamard"}, {"type": "random_sign_hadamard", "seed": 7}),
        ({"type": "random_sign_hadamard", "seed": 4}, {"type": "random_sign_hadamard", "seed": 4}),
    ],
)
def test_manifest_records_the_canonical_spec(u_spec, recorded):
    """A hadamard spec records no seed, a random-sign one its seed (7 unless
    given), and the very circuit is rebuilt from that record."""
    shape = SystemShape(6, 3)
    circ = synthesize_rsed_circuit(shape, u_spec, 5, 6)
    manifest = json.loads(json.dumps(build_manifest(circ, u_spec, 5, 6), sort_keys=True))
    assert manifest["u_spec"] == recorded
    again = rebuild(manifest)
    assert again.gates == circ.gates
    assert np.array_equal(simulate_circuit(again, np.eye(64)), simulate_circuit(circ, np.eye(64)))


@pytest.mark.parametrize(
    "u_spec", ["hadamard", ("random_sign_hadamard", 5), {"type": "pauli_syk"}, {}, hadamard_layer(2)]
)
def test_unsupported_gate_specs_are_rejected(u_spec):
    with pytest.raises(ValueError, match="unsupported u_spec"):
        synthesize_rsed_circuit(SystemShape(4, 2), u_spec, 1, 2)


@given(
    n=st.integers(2, 10),
    data=st.data(),
    perm_backend=st.sampled_from(["explicit", "feistel"]),
    sign_backend=st.sampled_from(["explicit", "keyed_prf"]),
    gate=st.sampled_from(["hadamard", "random_sign_hadamard", "complex"]),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=25, deadline=None)
def test_apply_dense_and_circuit_agree(n, data, perm_backend, sign_backend, gate, seed):
    """Blockwise apply, dense_matrix and the simulated sandwich circuit give
    the same U psi, with the Feistel and keyed-PRF backends built at small n
    (the samplers draw them only for n > 16).  A complex gate has no circuit,
    so only apply and dense_matrix meet on it."""
    k = data.draw(st.integers(1, min(n, 6)))
    shape = SystemShape(n, k)
    if gate == "complex":
        sub, u_spec = unitary_power(random_sign_hadamard(k, RngSeed(seed, 3)), 0.5), None
    elif gate == "hadamard":
        sub, u_spec = hadamard_layer(k), {"type": "hadamard"}
    else:
        sub, u_spec = random_sign_hadamard(k, RngSeed(seed % 1000)), {"type": gate, "seed": seed % 1000}
    perm = backend_permutation(shape, RngSeed(seed, 1), perm_backend)
    sign = backend_sign_function(shape, RngSeed(seed, 2), sign_backend)
    op = RsedOperator(shape, perm, sign, sub)
    stream = WordStream(RngSeed(seed, 4))
    psi = stream.standard_normal(shape.dim) + 1j * stream.standard_normal(shape.dim)
    blockwise = apply(op, psi)
    assert np.max(np.abs(dense_matrix(op) @ psi - blockwise)) < 1e-12
    if u_spec is not None:
        circ = synthesize_rsed_circuit(shape, u_spec, 0, 0)
        circ = GateCircuit(n, circ.gates, {**circ.registry, "perm0": perm, "f0": sign})
        assert np.max(np.abs(simulate_circuit(circ, psi) - blockwise)) < 1e-12


def test_unresolved_reference_error():
    circ = parse("RSEDCIRC 1 n=3\nPERM fwd nosuch\n")
    shape = SystemShape(3, 1)
    with pytest.raises(KeyError):
        simulate_circuit(circ, basis_state(shape.dim, 0))


def test_random_clifford_circuit_unitary():
    circ = random_clifford_circuit(5, RngSeed(61))
    u = simulate_circuit(circ, np.eye(32))
    assert np.max(np.abs(u.conj().T @ u - np.eye(32))) < 1e-12
