"""rsedlab: simulation and verification toolkit for random subsystem-embedded
dynamics (RSED) -- pseudochaotic unitaries, their OTOCs, level statistics,
spectral form factors, coherence, and pseudorandom-state diagnostics."""

__version__ = "0.1.0"

from .bitcore import PauliString, SystemShape, join, split
from .randomness import (
    SignFunction,
    SubsetPermutation,
    load_permutation,
    sample_permutation,
    sample_sign_function,
    save_permutation,
)
from .rng import RngSeed
from .rsed import RsedOperator, dense_matrix, evolve_basis_state
from .subsystem import (
    SubHamiltonian,
    SubUnitary,
    evolve,
    hadamard_layer,
    hadamard_sign_power,
    parent_hamiltonian,
    pauli_syk,
    random_sign_hadamard,
    unitary_power,
)
from .otoc import (
    OtocEstimate,
    early_time_slope,
    otoc_finite_temperature,
    otoc_pauli,
    otoc_zz_exact,
    otoc_zz_f_average,
    otoc_zz_f_variance_hadamard,
    otoc_zz_sampled,
    poisson_bracket,
)
from .spectra import (
    ks_distance,
    level_spacing_stats,
    spectral_form_factor,
)
from .prs import (
    coherence_rel_entropy,
    design_variance_condition,
    element_condition_check,
    entanglement_entropy,
    hybrid3_state,
    mixture,
    trace_distance,
)
from .circuits import (
    GateCircuit,
    build_manifest,
    parse,
    serialize,
    simulate_circuit,
    synthesize_rsed_circuit,
)
