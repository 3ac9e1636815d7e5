"""Gate-level synthesis of the RSED sandwich circuit and a text format.

The realized unitary is P F (u tensor I) F P^dagger with P the registered
permutation, F the diagonal sign layer, and u on the LOW k qubits; gates are
listed in application order, so a synthesized circuit reads

    PERM inv perm0 / PHASE_F f0 / <u gates> / PHASE_F f0 / PERM fwd perm0.

Text format ("RSEDCIRC 1"):  header line "RSEDCIRC 1 n=<n>", then one gate
per line: "H 0", "X 2", "S 1", "T 3", "CX 2 5", "CCX 0 1 2",
"PERM fwd|inv <name>", "PHASE_F <name>".  PERM/PHASE_F references resolve
against the circuit registry at simulation time.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .bitcore import MAX_QUBITS, SystemShape
from .randomness import (
    SignFunction,
    SubsetPermutation,
    sample_permutation,
    sample_sign_function,
)
from .rng import RngSeed, WordStream
from .subsystem import sign_bits

HEADER = "RSEDCIRC 1"
DEFAULT_GATE_SEED = 7  # the seed of a u_spec that names none

# arguments per mnemonic; gates on qubits take integer indices, the rest names
_ARITY = {"H": 1, "X": 1, "S": 1, "T": 1, "CX": 2, "CCX": 3, "PERM": 2, "PHASE_F": 1}
_QUBIT_GATES = {"H", "X", "S", "T", "CX", "CCX"}


class CircuitParseError(ValueError):
    pass


def _check_gate(gate: tuple, n: int, registry: dict) -> None:
    """ValueError unless gate is a known mnemonic with its number of
    arguments: distinct qubits in [0, n), or a PERM direction and names that
    registry, where it holds them, binds to the right kind."""
    name, args = gate[0], gate[1:]
    if name not in _ARITY:
        raise ValueError(f"unknown gate {name!r}")
    if len(args) != _ARITY[name]:
        raise ValueError(f"{name} takes {_ARITY[name]} arguments, got {args}")
    if name in _QUBIT_GATES:
        if len(set(args)) != len(args):
            raise ValueError(f"repeated qubit in gate args {args}")
        for q in args:
            if not 0 <= q < n:
                raise ValueError(f"qubit {q} out of range [0, {n})")
        return
    if name == "PERM" and args[0] not in ("fwd", "inv"):
        raise ValueError(f"bad PERM direction {args[0]!r}")
    ref, kind = (args[1], SubsetPermutation) if name == "PERM" else (args[0], SignFunction)
    if ref in registry and not isinstance(registry[ref], kind):
        raise ValueError(f"reference {ref!r} is not a {kind.__name__}")


@dataclass(frozen=True)
class GateCircuit:
    n: int
    gates: tuple[tuple, ...]
    registry: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        for gate in self.gates:
            _check_gate(gate, self.n, self.registry)

    def gate_counts(self) -> dict[str, int]:
        return dict(Counter(g[0] for g in self.gates))


def serialize(circuit: GateCircuit) -> str:
    lines = [f"{HEADER} n={circuit.n}"]
    for gate in circuit.gates:
        lines.append(" ".join(str(part) for part in gate))
    return "\n".join(lines) + "\n"


def parse(text: str, registry: dict | None = None) -> GateCircuit:
    lines = [ln for ln in text.splitlines()]
    if not lines:
        raise CircuitParseError("empty circuit text")
    head = lines[0].split()
    if len(head) != 3 or " ".join(head[:2]) != HEADER or not head[2].startswith("n="):
        raise CircuitParseError(f"line 1: bad header {lines[0]!r}")
    try:
        n = int(head[2][2:])
    except ValueError:
        raise CircuitParseError(f"line 1: bad qubit count in header {lines[0]!r}")
    if not 1 <= n <= MAX_QUBITS:
        raise CircuitParseError(f"line 1: qubit count {n} outside [1, {MAX_QUBITS}]")
    registry = registry or {}
    gates = []
    for lineno, raw in enumerate(lines[1:], start=2):
        line = raw.strip()
        if not line:
            continue
        name, *args = line.split()
        try:
            gate = (name, *map(int, args)) if name in _QUBIT_GATES else (name, *args)
            _check_gate(gate, n, registry)
        except ValueError as exc:
            raise CircuitParseError(f"line {lineno}: malformed gate {line!r}: {exc}") from exc
        gates.append(gate)
    return GateCircuit(n, tuple(gates), registry)


def _named_spec(u_spec: dict) -> dict:
    """The canonical form of a named gate spec, as a manifest records it:
    {"type": "hadamard"}, or {"type": "random_sign_hadamard", "seed": s}
    with s = DEFAULT_GATE_SEED unless given."""
    kind = u_spec.get("type") if isinstance(u_spec, dict) else None
    if kind == "hadamard":
        return {"type": kind}
    if kind == "random_sign_hadamard":
        return {"type": kind, "seed": u_spec.get("seed", DEFAULT_GATE_SEED)}
    raise ValueError(f"unsupported u_spec {u_spec!r}")


def synthesize_rsed_circuit(shape: SystemShape, u_spec: dict, perm_seed: int, sign_seed: int) -> GateCircuit:
    """PERM(inv) PHASE_F [u gates] PHASE_F PERM(fwd), realizing
    sum_a O_a u O_a^dagger.

    u_spec names the gate as a config does: {"type": "hadamard"} (k H gates)
    or {"type": "random_sign_hadamard", "seed": s} (a PHASE_F of the seeded
    sign diagonal, then k H gates; see _named_spec).  Any other spec is a
    ValueError, so every gate of the circuit is a named mnemonic.
    """
    registry = {
        "perm0": sample_permutation(shape, RngSeed(perm_seed)),
        "f0": sample_sign_function(shape, RngSeed(sign_seed)),
    }
    spec = _named_spec(u_spec)
    mid = [("H", q) for q in range(shape.k)]
    if spec["type"] == "random_sign_hadamard":
        bits = sign_bits(shape.k, RngSeed(spec["seed"]))
        registry["psign0"] = SignFunction(shape, bits=np.tile(bits, shape.num_seeds))
        mid = [("PHASE_F", "psign0")] + mid
    gates = (
        [("PERM", "inv", "perm0"), ("PHASE_F", "f0")]
        + mid
        + [("PHASE_F", "f0"), ("PERM", "fwd", "perm0")]
    )
    return GateCircuit(shape.n, tuple(gates), registry)


def _resolve(circuit: GateCircuit, ref: str, kind):
    try:
        obj = circuit.registry[ref]
    except KeyError:
        raise KeyError(f"unresolved circuit reference {ref!r}")
    if not isinstance(obj, kind):
        raise TypeError(f"reference {ref!r} is not a {kind.__name__}")
    return obj


_PHASES = {"S": 1j, "T": np.exp(1j * np.pi / 4.0)}


def _halves(amps: np.ndarray, q: int) -> tuple[np.ndarray, np.ndarray]:
    """Views of the rows of a C-contiguous (2**n, m) array with bit q clear
    and with bit q set, row x of one facing row x ^ (1 << q) of the other;
    np.reshape raises rather than copying."""
    view = np.reshape(amps, (len(amps) >> (q + 1), 2, 1 << q, -1), copy=False)
    return view[:, 0], view[:, 1]


def _gate_h(amps: np.ndarray, q: int) -> None:
    """Hadamard on qubit q, in place: (a + b) / sqrt 2 and (a - b) / sqrt 2."""
    a, b = _halves(amps, q)
    total = a + b
    np.subtract(a, b, out=b)
    a[...] = total
    amps /= np.sqrt(2.0)


def _gate_phase(amps: np.ndarray, q: int, phase: complex) -> None:
    """diag(1, phase) on qubit q, in place."""
    _, b = _halves(amps, q)
    b *= phase


def _gate_flip(amps: np.ndarray, controls: tuple, q: int) -> np.ndarray:
    """Flip qubit q where every control bit is set (X, CX, CCX)."""
    xs = np.arange(len(amps))
    cmask = sum(1 << c for c in controls)
    return amps[np.where((xs & cmask) == cmask, xs ^ (1 << q), xs)]


def simulate_circuit(circuit: GateCircuit, amps: np.ndarray) -> np.ndarray:
    """The circuit applied left to right to amps of shape (2**n,) or
    (2**n, m), each column a state, in an array of the same shape; at
    np.eye(2**n) that is the circuit's dense matrix.  The gate kernels act
    on rows, so every column comes out as it would alone.  Each gate updates
    one private C-contiguous (2**n, m) copy in place or replaces it (X, CX,
    CCX, PERM inv); kernel temporaries stay in the kernels' scope, so a
    replaced copy is freed at once."""
    dim = 1 << circuit.n
    if len(amps) != dim:
        raise ValueError("amplitude length mismatch")
    shape = amps.shape
    amps = np.array(amps, dtype=np.complex128, order="C").reshape(dim, -1)
    for gate in circuit.gates:
        name = gate[0]
        if name == "H":
            _gate_h(amps, gate[1])
        elif name in _PHASES:
            _gate_phase(amps, gate[1], _PHASES[name])
        elif name in ("X", "CX", "CCX"):
            amps = _gate_flip(amps, gate[1:-1], gate[-1])
        elif name == "PERM":
            perm = _resolve(circuit, gate[2], SubsetPermutation)
            table = perm.forward_array(np.arange(dim, dtype=np.uint32))
            if gate[1] == "fwd":
                amps[table] = amps.copy()
            else:
                amps = amps[table]
        elif name == "PHASE_F":
            f = _resolve(circuit, gate[1], SignFunction)
            amps *= 1.0 - 2.0 * f.sign_array(np.arange(dim, dtype=np.uint32)).astype(np.float64)[:, None]
    return amps.reshape(shape)


def random_clifford_circuit(n: int, seed: RngSeed) -> GateCircuit:
    """Seeded circuit of 3n draws from {H, S, CX}."""
    length = 3 * n
    stream = WordStream(seed)
    kinds = stream.integers(3, length)
    firsts = stream.integers(n, length)
    offsets = stream.integers(max(n - 1, 1), length)
    gates: list[tuple] = []
    for kind, q, off in zip(kinds.tolist(), firsts.tolist(), offsets.tolist()):
        if kind == 0:
            gates.append(("H", q))
        elif kind == 1:
            gates.append(("S", q))
        else:
            target = (q + 1 + off) % n if n > 1 else q
            if target != q:
                gates.append(("CX", q, target))
    return GateCircuit(n, tuple(gates))


def build_manifest(circuit: GateCircuit, u_spec: dict, perm_seed: int, sign_seed: int) -> dict:
    """The manifest of a circuit that synthesize_rsed_circuit built from
    (u_spec, perm_seed, sign_seed): n, k and those inputs, with u_spec in
    canonical form (_named_spec), enough to rebuild the circuit exactly, and
    its gate counts."""
    k = circuit.registry["perm0"].shape.k
    return {
        "n": circuit.n, "k": k, "u_spec": _named_spec(u_spec),
        "perm_seed": perm_seed, "sign_seed": sign_seed, "gate_counts": circuit.gate_counts(),
    }
