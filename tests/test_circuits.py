import numpy as np
import pytest

from rsedlab.bitcore import SystemShape
from rsedlab.circuits import (
    CircuitManifest,
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
from rsedlab.rsed import RsedOperator, StateVector, dense_matrix
from rsedlab.subsystem import SubUnitary, hadamard_layer, random_sign_hadamard


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
    with pytest.raises(CircuitParseError):
        parse("BADHEADER\nH 0\n")


@pytest.mark.parametrize("gate", [("CX", 1), ("CCX", 0, 1), ("H", 0, 1), ("PHASE_F",)])
def test_gate_arity_is_checked(gate):
    """A CX with one qubit would run as an X and serialize to text that parse
    rejects; every mnemonic takes exactly its own number of arguments."""
    with pytest.raises(ValueError, match="takes"):
        GateCircuit(3, (gate,))


def test_reference_names_roundtrip():
    shape = SystemShape(6, 3)
    circ = synthesize_rsed_circuit(shape, "hadamard", 11, 12)
    text = serialize(circ)
    again = parse(text, registry=circ.registry)
    assert again.gates == circ.gates
    assert "PERM inv perm0" in text and "PHASE_F f0" in text


def test_empty_and_single_gate_simulation():
    shape = SystemShape(3, 1)
    psi = StateVector.basis(shape, 0)
    empty = GateCircuit(3, ())
    assert (simulate_circuit(empty, psi).amplitudes == psi.amplitudes).all()
    h0 = GateCircuit(3, (("H", 0),))
    out = simulate_circuit(h0, psi)
    expect = np.zeros(8, dtype=complex)
    expect[0] = expect[1] = 1 / np.sqrt(2)
    assert np.allclose(out.amplitudes, expect)


def test_ccx_truth_table():
    """X, CX and CCX flip qubit 2 exactly where all their control bits are set."""
    shape = SystemShape(3, 1)
    for gate, controls in ((("X", 2), 0b00), (("CX", 1, 2), 0b10), (("CCX", 0, 1, 2), 0b11)):
        circ = GateCircuit(3, (gate,))
        for x in range(8):
            out = simulate_circuit(circ, StateVector.basis(shape, x)).amplitudes
            target = x ^ (1 << 2) if (x & controls) == controls else x
            assert out[target] == 1.0
            assert np.count_nonzero(out) == 1


def test_synthesized_circuit_matches_rsed_dense():
    shape = SystemShape(8, 4)
    for spec in ("hadamard", ("random_sign_hadamard", 5)):
        circ = synthesize_rsed_circuit(shape, spec, 21, 22)
        sub = hadamard_layer(4) if spec == "hadamard" else random_sign_hadamard(4, RngSeed(5))
        op = RsedOperator(shape, circ.registry["perm0"], circ.registry["f0"], sub)
        dev = np.max(np.abs(simulate_circuit(circ, dense=True) - dense_matrix(op)))
        assert dev < 1e-12


def test_synthesized_explicit_subunitary():
    shape = SystemShape(6, 2)
    u = random_sign_hadamard(2, RngSeed(31))
    circ = synthesize_rsed_circuit(shape, u, 32, 33)
    op = RsedOperator(shape, circ.registry["perm0"], circ.registry["f0"], u)
    dev = np.max(np.abs(simulate_circuit(circ, dense=True) - dense_matrix(op)))
    assert dev < 1e-12
    assert circ.gate_counts()["SUB"] == 1


def test_identity_sub_gives_identity_circuit():
    shape = SystemShape(6, 2)
    circ = synthesize_rsed_circuit(shape, SubUnitary(2, np.eye(4, dtype=complex)), 41, 42)
    assert np.max(np.abs(simulate_circuit(circ, dense=True) - np.eye(64))) < 1e-12


def test_hadamard_gate_count():
    shape = SystemShape(7, 3)
    circ = synthesize_rsed_circuit(shape, "hadamard", 1, 2)
    counts = circ.gate_counts()
    assert counts["H"] == 3
    assert counts["PERM"] == 2 and counts["PHASE_F"] == 2


def test_manifest_roundtrip_and_determinism():
    shape = SystemShape(6, 3)
    manifest = build_manifest(shape, ("random_sign_hadamard", 9), 51, 52)
    again = CircuitManifest.from_json(manifest.to_json())
    assert again == manifest
    c1 = manifest.regenerate()
    c2 = again.regenerate()
    assert c1.gates == c2.gates
    assert (c1.registry["perm0"].table == c2.registry["perm0"].table).all()
    assert (c1.registry["f0"].bits == c2.registry["f0"].bits).all()


def test_unresolved_reference_error():
    circ = parse("RSEDCIRC 1 n=3\nPERM fwd nosuch\n")
    shape = SystemShape(3, 1)
    with pytest.raises(KeyError):
        simulate_circuit(circ, StateVector.basis(shape, 0))


def test_random_clifford_circuit_unitary():
    circ = random_clifford_circuit(5, RngSeed(61))
    u = simulate_circuit(circ, dense=True)
    assert np.max(np.abs(u.conj().T @ u - np.eye(32))) < 1e-12
