import numpy as np
import pytest
from scipy.integrate import quad

from rsedlab.bitcore import SystemShape
from rsedlab.randomness import sample_permutation, sample_sign_function
from rsedlab.rng import RngSeed, WordStream
from rsedlab.rsed import RsedOperator
from rsedlab.spectra import (
    embed_spectrum,
    export_histogram_csv,
    ks_distance,
    level_spacing_stats,
    rsed_sff,
    sff_from_eigenvalues,
    spectral_form_factor,
    wigner_dyson_cdf,
    wigner_dyson_pdf,
)
from rsedlab.subsystem import (
    parent_spectrum,
    SubHamiltonian,
    SubUnitary,
    _trusted,
    hadamard_layer,
    parent_hamiltonian,
    pauli_syk,
    random_sign_hadamard,
    unitary_power,
)


def test_equally_spaced_spacings():
    report = level_spacing_stats(np.array([0.0, 1.0, 2.0, 3.0]))
    assert np.allclose(report.spacings, 1.0)
    assert report.degeneracy_multiplicity == 1


def test_embedded_zero_gap_fraction():
    """Counting oracle: N - K of the N - 1 gaps of an embedded spectrum
    vanish (each distinct eigenvalue repeats 2^(n-k) times)."""
    shape = SystemShape(7, 3)
    evals_sub = np.linspace(-1.0, 1.0, shape.subdim)
    full = embed_spectrum(shape, evals_sub)
    gaps = np.diff(np.sort(full))
    zero = int((gaps < 1e-12).sum())
    assert zero == shape.dim - shape.subdim
    frac = zero / (shape.dim - 1)
    assert frac == pytest.approx(1.0 - (shape.subdim - 1) / (shape.dim - 1))
    report = level_spacing_stats(full, exclude_degenerate=False)
    assert report.degeneracy_multiplicity == shape.num_seeds
    excluded = level_spacing_stats(full, exclude_degenerate=True)
    assert np.allclose(excluded.spacings, 1.0)  # linspace gaps are equal


def test_hadamard_parent_two_point_pattern():
    """Parent of H^{tensor k} has the two-level spectrum {0, 1/2}."""
    h = parent_hamiltonian(hadamard_layer(4))
    vals = np.unique(np.round(h.eigenvalues, 9))
    assert np.allclose(vals, [0.0, 0.5], atol=1e-9)
    report = level_spacing_stats(h.eigenvalues, exclude_degenerate=True)
    assert np.allclose(report.spacings, 1.0)  # single nonzero gap


def test_wigner_dyson_pdf_properties():
    assert wigner_dyson_pdf(0.0, "GOE") == 0.0
    assert wigner_dyson_pdf(0.0, "GUE") == 0.0
    for ens in ("GOE", "GUE"):
        total, _ = quad(lambda s: wigner_dyson_pdf(s, ens), 0, np.inf)
        mean, _ = quad(lambda s: s * wigner_dyson_pdf(s, ens), 0, np.inf)
        assert abs(total - 1.0) < 1e-6
        assert abs(mean - 1.0) < 1e-6
    with pytest.raises(ValueError):
        wigner_dyson_pdf(-0.1, "GOE")
    with pytest.raises(ValueError):
        wigner_dyson_pdf(1.0, "XYZ")


def test_wigner_dyson_cdf_matches_pdf():
    for ens in ("GOE", "GUE"):
        for s in (0.3, 1.0, 2.2):
            val, _ = quad(lambda x: wigner_dyson_pdf(x, ens), 0, s)
            assert abs(val - wigner_dyson_cdf(s, ens)) < 1e-8


def test_sff_examples():
    h = pauli_syk(3, RngSeed(1))
    assert spectral_form_factor(h, 0.0, 0.0) == pytest.approx(h.dim**2)
    single = SubHamiltonian(1, np.diag([0.4, 0.4]).astype(complex))
    # both eigenvalues 0.4: R2s = |2 e^{-0.4 beta}|^2; the one-eigenvalue law
    assert spectral_form_factor(single, 2.0, 0.0) == pytest.approx(4 * np.exp(-2 * 0.4 * 2.0))


def test_sff_factorization_exact():
    stream = WordStream(RngSeed(2))
    betas = stream.uniform01(20) * 3
    ts = stream.uniform01(20) * 8
    for idx in range(20):
        n = 4 + idx % 5
        k = 1 + idx % min(n, 3)
        shape = SystemShape(n, k)
        h = pauli_syk(max(k, 2), RngSeed(3, idx)) if k >= 2 else SubHamiltonian(1, np.diag([0.3, -0.9]).astype(complex))
        if h.k != k:
            continue
        r2s = spectral_form_factor(h, float(betas[idx]), float(ts[idx]))
        assert rsed_sff(shape, h, float(betas[idx]), float(ts[idx])) == 4.0 ** (n - k) * r2s


def test_rsed_sff_matches_dense_embedding():
    n, k = 8, 3
    shape = SystemShape(n, k)
    h = pauli_syk(k, RngSeed(4))
    p = sample_permutation(shape, RngSeed(5))
    f = sample_sign_function(shape, RngSeed(6))
    op = RsedOperator(shape, p, f, SubUnitary(k, np.eye(shape.subdim, dtype=complex)))
    pos = op.block_positions(np.arange(shape.num_seeds))
    sg = op.block_signs(np.arange(shape.num_seeds))
    h_emb = np.zeros((shape.dim, shape.dim), dtype=complex)
    for a in range(shape.num_seeds):
        h_emb[np.ix_(pos[a], pos[a])] = (sg[a][:, None] * sg[a][None, :]) * h.matrix
    evals = np.linalg.eigvalsh(h_emb)
    for beta, t in ((0.0, 1.0), (0.5, 4.2), (1.5, 0.0)):
        assert abs(sff_from_eigenvalues(evals, beta, t) - rsed_sff(shape, h, beta, t)) < 1e-8


def test_embed_spectrum_examples():
    shape = SystemShape(3, 3)
    vals = np.array([0.1, 0.2] + [0.0] * 6)
    assert (embed_spectrum(shape, vals) == np.sort(vals)).all()
    shape = SystemShape(3, 1)
    out = embed_spectrum(shape, np.array([-1.0, 1.0]))
    assert (out == np.array([-1.0] * 4 + [1.0] * 4)).all()
    with pytest.raises(ValueError):
        embed_spectrum(SystemShape(3, 2), np.array([1.0, 2.0]))


def test_parent_spectrum_matches_parent_hamiltonian():
    u = random_sign_hadamard(5, RngSeed(9))
    half = unitary_power(u, 0.5)
    assert half.matrix.imag.any()  # complex, so it takes the eigvals path
    for gate in (u, half):
        fast = parent_spectrum(gate)
        slow = np.sort(parent_hamiltonian(gate).eigenvalues)
        assert np.max(np.abs(fast - slow)) < 1e-10


def _parent_spectrum_eigvals(u: SubUnitary) -> np.ndarray:
    """parent_spectrum through the general eigensolver, as it was before real
    gates took the symmetric eigenproblem: the reference for that path."""
    m = u.matrix
    if np.max(np.abs(m.imag)) < 1e-14:
        m = m.real
    ev = np.linalg.eigvals(m)
    assert np.max(np.abs(np.abs(ev) - 1.0)) <= 1e-8
    lam = -np.angle(ev) / (2.0 * np.pi)
    lam[np.isclose(lam, -0.5, atol=1e-12)] = 0.5
    return np.sort(lam)


_REAL_GATES = {
    "hadamard": lambda: (hadamard_layer(k) for k in range(1, 11)),
    "identity": lambda: (SubUnitary(k, np.eye(1 << k)) for k in (1, 5, 10)),
    "criterion_10": lambda: (random_sign_hadamard(8, RngSeed(0xA0, s)) for s in range(40)),
    "goe_fit_k10": lambda: (random_sign_hadamard(10, RngSeed(7, s)) for s in range(20)),
    "level_stats_workload": lambda: (
        random_sign_hadamard(10, RngSeed(s, r)) for s in range(1, 21) for r in (0, 1)
    ),
}


@pytest.mark.parametrize("family", list(_REAL_GATES))
def test_real_parent_spectrum_matches_eigvals(family):
    """The symmetric-eigenproblem spectrum of real gates keeps every spacing
    count after the 1e-12 degeneracy cut and agrees with the general
    eigensolver to 1e-9, on the gates the criteria, tests and the level-stats
    workload use (H^{tensor k} has only the eigenvalues +-1)."""
    for u in _REAL_GATES[family]():
        fast = parent_spectrum(u)
        ref = _parent_spectrum_eigvals(u)
        assert np.max(np.abs(fast - ref)) <= 1e-9
        assert np.count_nonzero(np.diff(fast) >= 1e-12) == np.count_nonzero(np.diff(ref) >= 1e-12)


def test_real_parent_spectrum_rejects_non_orthogonal():
    """Gates wrapped without the constructor check still fail loudly when not
    orthogonal, including a Jordan block whose eigenvalues all have modulus 1."""
    for m in (2.0 * np.eye(8), np.array([[1.0, 1.0], [0.0, 1.0]])):
        with pytest.raises(ValueError, match="not unitary"):
            parent_spectrum(_trusted(len(m).bit_length() - 1, m))


def test_level_statistics_goe_fit_k10():
    """Pooled parent-spectrum spacings of H^{x10}P over 20 seeds fit the GOE
    surmise within KS distance 0.08."""
    pooled = []
    for s in range(20):
        u = random_sign_hadamard(10, RngSeed(7, s))
        gaps = np.diff(parent_spectrum(u))
        gaps = gaps[gaps > 1e-12]
        pooled.append(gaps / gaps.mean())
    ks = ks_distance(np.concatenate(pooled), "GOE")
    assert ks <= 0.08


def test_level_spacing_stats_errors():
    with pytest.raises(ValueError):
        level_spacing_stats(np.array([1.0, 2.0]))


def test_histogram_export(tmp_path):
    report = level_spacing_stats(np.cumsum(WordStream(RngSeed(8)).uniform01(500)))
    path = tmp_path / "hist.csv"
    export_histogram_csv(report, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "bin_left,bin_right,density"
    assert len(lines) == len(report.histogram[1]) + 1
