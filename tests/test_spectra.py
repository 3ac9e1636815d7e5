import json
from functools import lru_cache

import numpy as np
import pytest
from scipy.integrate import quad

from rsedlab.bitcore import SystemShape
from rsedlab.cli import ExperimentConfig, base_gate, main
from rsedlab.pool import one_blas_thread
from rsedlab.randomness import sample_permutation, sample_sign_function
from rsedlab.rng import RngSeed, WordStream
from rsedlab.rsed import RsedOperator
from rsedlab.spectra import (
    HISTOGRAM_BINS,
    ks_distance,
    level_spacing_stats,
    spectral_form_factor,
    wigner_dyson_cdf,
)
from rsedlab import subsystem
from rsedlab.subsystem import (
    PHASE_SNAP,
    parent_spectrum,
    SubUnitary,
    _trusted,
    hadamard_layer,
    parent_hamiltonian,
    pauli_syk,
    random_sign_hadamard,
    sign_bits,
    unitary_power,
)


def wigner_dyson_pdf(s, ensemble: str = "GOE"):
    """Wigner-surmise spacing density, the oracle of wigner_dyson_cdf.

    GOE: (pi/2) s exp(-pi s^2/4); GUE: (32/pi^2) s^2 exp(-4 s^2/pi).
    """
    s = np.asarray(s, dtype=np.float64)
    if np.any(s < 0):
        raise ValueError("spacings must be >= 0")
    if ensemble == "GOE":
        out = (np.pi / 2.0) * s * np.exp(-np.pi * s**2 / 4.0)
    elif ensemble == "GUE":
        out = (32.0 / np.pi**2) * s**2 * np.exp(-4.0 * s**2 / np.pi)
    else:
        raise ValueError(f"unknown ensemble {ensemble!r}")
    return out if out.shape else float(out)


def embed_spectrum(shape: SystemShape, evals_sub: np.ndarray) -> np.ndarray:
    """The full-system spectrum of an embedded gate: each subsystem
    eigenvalue repeated 2**(n-k) times, sorted."""
    evals_sub = np.asarray(evals_sub, dtype=np.float64)
    if len(evals_sub) != shape.subdim:
        raise ValueError(f"expected {shape.subdim} eigenvalues, got {len(evals_sub)}")
    return np.sort(np.repeat(evals_sub, shape.num_seeds))


def test_equally_spaced_spacings():
    stats = level_spacing_stats([np.array([0.0, 1.0, 2.0, 3.0])])
    assert np.array_equal(stats.spacings, np.ones(3))
    edges, dens = stats.histogram
    assert len(dens) == HISTOGRAM_BINS and edges[0] == 0.0 and edges[-1] == 4.0


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
    # the cut leaves the K - 1 equal linspace gaps
    assert np.allclose(level_spacing_stats([full]).spacings, np.ones(shape.subdim - 1))


def test_hadamard_parent_two_point_pattern():
    """Parent of H^{tensor k} has the two-level spectrum {0, 1/2}."""
    h = parent_hamiltonian(hadamard_layer(4))
    vals = np.unique(np.round(h.eigenvalues, 9))
    assert np.allclose(vals, [0.0, 0.5], atol=1e-9)
    assert np.allclose(level_spacing_stats([h.eigenvalues]).spacings, [1.0])  # the cut leaves the single nonzero gap


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


def _gue_cdf_scipy(s):
    """The GUE surmise CDF as it was computed with scipy.special.erf."""
    from scipy.special import erf

    a = 2.0 * np.asarray(s, dtype=np.float64) / np.sqrt(np.pi)
    return erf(a) - a * np.exp(-(a**2)) * 2.0 / np.sqrt(np.pi)


def test_gue_cdf_math_erf_matches_scipy_erf():
    """math.erf and scipy.special.erf differ by at most 3 ulp, so the GUE
    CDF, a value in [0, 1], moves by a few ulp of 1 at most: from s = 0 out
    to the tail (s = 5), as arrays and scalars, and so does a KS distance."""
    tol = 4 * np.finfo(np.float64).eps
    s = np.concatenate([[0.0], np.linspace(1e-6, 5.0, 20001)])
    new = wigner_dyson_cdf(s, "GUE")
    assert new.dtype == np.float64 and new.shape == s.shape
    assert np.max(np.abs(new - _gue_cdf_scipy(s))) <= tol
    assert wigner_dyson_cdf(0.0, "GUE") == 0.0
    for x in (0.0, 0.7, 1.0, 5.0):
        val = wigner_dyson_cdf(x, "GUE")
        assert isinstance(val, float)
        assert abs(val - float(_gue_cdf_scipy(x))) <= tol
    spac = WordStream(RngSeed(0x6E0)).uniform01(4000) * 3.0
    m = spac.size
    cdf = _gue_cdf_scipy(np.sort(spac))
    old_ks = max(np.max(np.arange(1, m + 1) / m - cdf), np.max(cdf - np.arange(0, m) / m))
    assert abs(ks_distance(spac, "GUE") - old_ks) <= tol


def test_sff_examples():
    h = pauli_syk(3, RngSeed(1))
    assert spectral_form_factor(h.eigenvalues, 0.0, 0.0) == pytest.approx(h.dim**2)
    # both eigenvalues 0.4: R2s = |2 e^{-0.4 beta}|^2; the one-eigenvalue law
    assert spectral_form_factor(np.array([0.4, 0.4]), 2.0, 0.0) == pytest.approx(4 * np.exp(-2 * 0.4 * 2.0))
    with pytest.raises(ValueError, match="beta must be >= 0"):
        spectral_form_factor(h.eigenvalues, -0.5, 1.0)


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
        full = 4.0 ** (n - k) * spectral_form_factor(h.eigenvalues, beta, t)
        assert abs(spectral_form_factor(evals, beta, t) - full) < 1e-8


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
    assert half.matrix.imag.any()  # complex, so it reads the cached Schur form
    for gate in (u, half):
        fast = parent_spectrum(gate)
        slow = np.sort(parent_hamiltonian(gate).eigenvalues)
        assert np.max(np.abs(fast - slow)) < 1e-10


def test_one_schur_form_serves_a_complex_gate(monkeypatch):
    """parent_spectrum, parent_hamiltonian and the fractional powers of one
    complex gate share the Schur form cached on it: one factorization."""
    calls = []
    schur = subsystem.schur
    monkeypatch.setattr(subsystem, "schur", lambda *a, **kw: calls.append(1) or schur(*a, **kw))
    q, r = np.linalg.qr(WordStream(RngSeed(5)).standard_normal(64).reshape(8, 8) + 1j * np.eye(8))
    u = SubUnitary(3, q * (np.diag(r) / np.abs(np.diag(r)))[None, :])
    spectrum = parent_spectrum(u)
    assert len(calls) == 1  # no second, general eigensolver
    h = parent_hamiltonian(u)
    for t in (0.25, 0.5, 1.5):
        unitary_power(u, t)
    assert len(calls) == 1
    assert np.array_equal(spectrum, parent_spectrum(u))
    assert np.max(np.abs(spectrum - np.sort(h.eigenvalues))) < 1e-12
    assert np.max(np.abs(spectrum - _parent_spectrum_eigvals(u))) < 1e-12


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


@lru_cache(maxsize=None)
def _hadamard_plus_basis(k: int) -> np.ndarray:
    """Orthonormal basis (columns) of the +1 eigenspace of H^{tensor k}."""
    w, v = np.linalg.eigh(hadamard_layer(k).matrix.real)
    return v[:, w > 0]


def _parent_spectrum_principal_angles(k: int, d: np.ndarray) -> np.ndarray:
    """parent_spectrum of H^{tensor k} diag(d) from principal angles, with
    neither the symmetric part nor a general eigensolver.

    H = 2 P_M - I with M its +1 eigenspace, and diag(d) = 2 P_N - I with N
    spanned by the e_b with d_b = +1, so the gate is a product of two
    reflections.  By the two-subspace theorem it is +1 on M & N and on
    M^perp & N^perp, -1 on M & N^perp and on M^perp & N, and a rotation by
    2 phi on each generic pair, where phi = arccos(svd(Q[S, :])) are the
    principal angles between M (orthonormal basis Q) and N.  With a angles
    at 0 and g generic ones, dim(M & N^perp) = dim M - a - g and
    dim(M^perp & N) = |S| - a - g.  Angles are sorted into 0, pi/2 and
    generic by the PHASE_SNAP rule parent_spectrum applies to theta = 2 phi,
    and the branch is the same as in _parent_spectrum_eigvals.
    """
    K = 1 << k
    q = _hadamard_plus_basis(k)
    in_s = d > 0
    theta = 2.0 * np.arccos(np.clip(np.linalg.svd(q[in_s], compute_uv=False), -1.0, 1.0))
    zero = theta < PHASE_SNAP
    generic = theta[~zero & (theta <= np.pi - PHASE_SNAP)]
    a, g = int(np.count_nonzero(zero)), generic.size
    b = q.shape[1] - a - g
    c = int(np.count_nonzero(in_s)) - a - g
    theta = np.concatenate([np.zeros(a + (K - a - b - c - 2 * g)), np.full(b + c, np.pi), generic, -generic])
    lam = -theta / (2.0 * np.pi)
    lam[np.isclose(lam, -0.5, atol=1e-12)] = 0.5
    return np.sort(lam)


def _sign_hadamard_family(k: int, seeds):
    """(gate, d) for H^{tensor k} diag(d), d = (-1)**sign_bits."""
    for seed in seeds:
        yield random_sign_hadamard(k, seed), 1.0 - 2.0 * sign_bits(k, seed)


# Each family yields (gate, d): d is the sign diagonal of a gate
# H^{tensor k} diag(d), or None for a gate of no such form.
_REAL_GATES = {
    "hadamard": lambda: ((hadamard_layer(k), np.ones(1 << k)) for k in range(1, 11)),
    "identity": lambda: ((SubUnitary(k, np.eye(1 << k)), None) for k in (1, 5, 10)),
    "criterion_10": lambda: _sign_hadamard_family(8, (RngSeed(0xA0, s) for s in range(40))),
    "goe_fit_k10": lambda: _sign_hadamard_family(10, (RngSeed(7, s) for s in range(20))),
    "level_stats_workload": lambda: _sign_hadamard_family(
        10, (RngSeed(s, r) for s in range(1, 21) for r in (0, 1))
    ),
}


def _assert_same_spectrum(fast: np.ndarray, ref: np.ndarray) -> None:
    assert np.max(np.abs(fast - ref)) <= 1e-9
    assert np.count_nonzero(np.diff(fast) >= 1e-12) == np.count_nonzero(np.diff(ref) >= 1e-12)


@pytest.mark.parametrize("family", list(_REAL_GATES))
def test_real_parent_spectrum_matches_eigvals(family):
    """The symmetric-eigenproblem spectrum of real gates keeps every spacing
    count after the 1e-12 degeneracy cut and agrees with an independent
    reference to 1e-9, on the gates the criteria, tests and the level-stats
    workload use (H^{tensor k} has only the eigenvalues +-1).

    The reference is the general eigensolver for the identity gates and the
    first gate of each family, and the principal angles of the two
    reflections for every H^{tensor k} diag(d), so the first gate of each
    such family also checks one reference against the other."""
    for i, (u, d) in enumerate(_REAL_GATES[family]()):
        fast = parent_spectrum(u)
        if d is None or i == 0:
            _assert_same_spectrum(fast, _parent_spectrum_eigvals(u))
        if d is not None:
            assert np.array_equal(u.matrix, hadamard_layer(u.k).matrix * d)
            _assert_same_spectrum(fast, _parent_spectrum_principal_angles(u.k, d))


@pytest.mark.parametrize("k", range(1, 7))
def test_principal_angle_reference_matches_eigvals(k):
    """The principal-angle reference equals the general eigensolver's
    spectrum, multiplicities included, for d all +1, all -1 and seeded."""
    h = hadamard_layer(k).matrix
    K = 1 << k
    signs = [np.ones(K), -np.ones(K)] + [1.0 - 2.0 * sign_bits(k, RngSeed(11, s)) for s in range(4)]
    for d in signs:
        ref = _parent_spectrum_principal_angles(k, d)
        eig = _parent_spectrum_eigvals(_trusted(k, h * d))
        assert np.max(np.abs(ref - eig)) <= 1e-12
        assert np.count_nonzero(np.diff(ref) >= 1e-12) == np.count_nonzero(np.diff(eig) >= 1e-12)


def _record_eigvalsh(monkeypatch) -> list:
    """Sizes of the matrices subsystem hands to np.linalg.eigvalsh."""
    sizes = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(
        subsystem.np.linalg, "eigvalsh", lambda a, *args, **kw: sizes.append(len(a)) or eigvalsh(a, *args, **kw)
    )
    return sizes


def test_level_stats_gate_splits_into_two_blocks(monkeypatch):
    """The random-sign Hadamard gate that `rsed level-stats` builds at k = 10
    splits into the blocks S = {b : u[0, b] > 0} and its complement, which
    share every eigenvalue in (-1, 1): one eigenproblem, the smaller block,
    of at most K/2."""
    cfg = ExperimentConfig("level-stats", n=13, k=10, u_spec={"type": "random_sign_hadamard", "seed": 1})
    u = base_gate(cfg, 0)
    sizes = _record_eigvalsh(monkeypatch)
    parent_spectrum(u)
    s = int(np.count_nonzero(u.matrix[0] > 0))
    assert sizes == [min(s, u.dim - s)] and 1 < sizes[0] <= u.dim // 2


def _random_orthogonal(k: int, seed: RngSeed) -> SubUnitary:
    K = 1 << k
    q, r = np.linalg.qr(WordStream(seed).standard_normal(K * K).reshape(K, K))
    return SubUnitary(k, q * np.sign(np.diag(r))[None, :])


def _two_rotations(phi: float, psi: float) -> SubUnitary:
    """diag(R(phi), R(psi)) at k = 2: for phi != psi its symmetric part splits
    along row 0 (S = {0}), but J u is not symmetric, so u is no product of
    the two involutions J and J u."""
    m = np.zeros((4, 4))
    for lo, a in ((0, phi), (2, psi)):
        m[lo : lo + 2, lo : lo + 2] = [[np.cos(a), -np.sin(a)], [np.sin(a), np.cos(a)]]
    sym, j = m + m.T, np.where(m[0] > 0, 1.0, -1.0)[:, None]
    assert not sym[0, 1:].any() and not np.array_equal(j * m, (j * m).T)
    return SubUnitary(2, m)


@pytest.mark.parametrize(
    "gate, blocks",
    [
        (_random_orthogonal(4, RngSeed(21)), [16]),  # J u is not symmetric
        (_two_rotations(0.3, 1.1), [4]),
        (hadamard_layer(4), []),  # row 0 all positive: S^c is empty
        (hadamard_layer(1), []),
        (SubUnitary(4, np.eye(16)), []),  # S = {0}, a 1 x 1 block
        (SubUnitary(1, np.eye(2)), []),
        (random_sign_hadamard(1, RngSeed(0)), []),  # d = (-1, -1): S is empty
        (random_sign_hadamard(1, RngSeed(2)), []),  # d = (-1, +1)
        (random_sign_hadamard(3, RngSeed(3)), [3]),  # |S| = 5: the complement is solved
        (random_sign_hadamard(3, RngSeed(7)), [3]),  # |S| = 3
        (random_sign_hadamard(3, RngSeed(5)), [4]),  # |S| = 4
    ],
    ids=[
        "orthogonal", "two_rotations", "hadamard_k4", "hadamard_k1", "identity_k4", "identity_k1",
        "sign_hadamard_k1_one_sign", "sign_hadamard_k1_mixed", "sign_hadamard_k3_large_s",
        "sign_hadamard_k3_small_s", "sign_hadamard_k3_even",
    ],
)
def test_real_gate_block_split(monkeypatch, gate, blocks):
    """A real gate u with J u symmetric is solved as the smaller of its two
    blocks S = {b : u[0, b] > 0} and S^c, and a block of size 0 or 1 needs no
    solve; any other real gate is solved as one K x K block.  Each matches
    the general eigensolver to 1e-12."""
    sizes = _record_eigvalsh(monkeypatch)
    spectrum = parent_spectrum(gate)
    assert np.max(np.abs(spectrum - _parent_spectrum_eigvals(gate))) < 1e-12
    assert sizes == blocks


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


def test_pooled_spacings_unit_mean_per_spectrum():
    """Each spectrum's gaps are scaled to unit mean before pooling; gaps
    below 1e-12 go, and a spectrum with none left adds nothing."""
    spectra = [np.array([0.0, 1.0, 3.0]), np.array([0.0, 0.0, 5e-13]), np.array([-1.0, -1.0, 0.0, 2.0])]
    assert np.array_equal(level_spacing_stats(spectra).spacings, [2 / 3, 4 / 3, 2 / 3, 4 / 3])


@pytest.mark.parametrize(
    "spectra, match",
    [
        ([np.zeros(4), np.full(3, 0.5)], "nothing to pool"),
        ([], "nothing to pool"),
    ],
    ids=["spectra1-True-nothing to pool", "spectra2-True-nothing to pool"],
)
def test_pooled_spacings_rejects_degenerate_pools(spectra, match):
    """An empty pool has nothing to concatenate."""
    with pytest.raises(ValueError, match=match):
        level_spacing_stats(spectra)


def _gap_walk_spacings(evals: np.ndarray) -> tuple[int, list[float]]:
    """(cluster count, spacings) by walking the sorted gaps one at a time: a
    gap below 1e-12 stays inside a cluster of repeated levels, any other
    starts the next cluster and is a spacing, scaled to unit mean at the end."""
    clusters, kept = 1, []
    for g in np.diff(np.sort(evals)):
        if g >= 1e-12:
            clusters += 1
            kept.append(g)
    return clusters, [g / np.mean(kept) for g in kept]


_REPEATS = np.sort(WordStream(RngSeed(15)).integers(40, 120).astype(np.float64))


@pytest.mark.parametrize(
    "evals, clusters",
    [
        (np.array([0.0, 0.3, 0.5, 1.0]), 4),
        # every gap below the cut: one cluster and nothing to pool
        (np.array([0.0, 0.3, 0.5, 1.0]) * 1e-12, 1),
        (np.array([0.0, 1.0, 1.0, 1.0, 2.0, 3.0, 3.0, 3.0, 4.0]), 5),
        (np.array([0.0, 0.0, 0.0, 1.0, 2.0, 3.0, 3.0]), 4),
        (np.array([0.0, 1.0, 1.0, 2.0, 2.0, 2.0]), 3),
        (np.array([0.0, 0.0, 1.0, 2.0, 2.0, 3.0, 3.0, 4.0, 4.0]), 5),
        (_REPEATS, len(np.unique(_REPEATS))),
    ],
    ids=["none_below", "all_below", "mixed", "cluster_at_low_end", "cluster_at_high_end",
         "clusters_at_both_ends", "seeded_repeats"],
)
def test_level_spacing_clusters_match_a_gap_walk(evals, clusters):
    """The degeneracy cut leaves one spacing between each pair of adjacent
    clusters of repeated levels, wherever the clusters sit, as a gap-by-gap
    walk finds them."""
    walked, spacings = _gap_walk_spacings(evals)
    assert walked == clusters
    if clusters == 1:
        with pytest.raises(ValueError, match="nothing to pool"):
            level_spacing_stats([evals])
    else:
        assert np.array_equal(level_spacing_stats([evals]).spacings, spacings)


def test_level_spacing_stats_errors():
    """A spectrum of fewer than two levels, or of one repeated level, has no
    gap to pool."""
    for spectra in ([np.array([1.0])], [np.zeros(3)], [np.array([2.0, 2.0 + 1e-13])]):
        with pytest.raises(ValueError, match="nothing to pool"):
            level_spacing_stats(spectra)


def test_histogram_export(tmp_path):
    """level-stats writes the pooled-spacing histogram as HISTOGRAM_BINS
    contiguous bins from 0 whose densities integrate to 1."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"experiment": "level-stats", "n": 6, "k": 5, "ensemble": 2}))
    assert main(["level-stats", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    lines = [ln for ln in (tmp_path / "level_stats_hist.csv").read_text().splitlines() if not ln.startswith("#")]
    assert lines[0] == "bin_left,bin_right,density"
    rows = [[float(v) for v in ln.split(",")] for ln in lines[1:]]
    assert len(rows) == HISTOGRAM_BINS and rows[0][0] == 0.0
    assert all(a[1] == b[0] for a, b in zip(rows, rows[1:]))
    assert sum((hi - lo) * d for lo, hi, d in rows) == pytest.approx(1.0)


def test_histogram_bins_the_spacings_the_ks_distances_read(tmp_path):
    """level_stats_hist.csv is np.histogram of the pooled spacings themselves,
    bit for bit, on the benchmark's level-stats shape at seed 1, whose
    largest spacing (4.03) sets the top edge.  The spectra are taken at one
    BLAS thread, as rsed takes them."""
    cfg = {"experiment": "level-stats", "n": 13, "k": 10, "ensemble": 2, "seed": 1,
           "u_spec": {"type": "random_sign_hadamard", "seed": 1}}
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    assert main(["level-stats", "--config", str(tmp_path / "cfg.json"), "--out", str(tmp_path)]) == 0
    gates = [base_gate(ExperimentConfig(**cfg), r) for r in range(2)]
    with one_blas_thread():
        spectra = [parent_spectrum(u) for u in gates]
    spacings = []
    for gaps in map(np.diff, spectra):
        gaps = gaps[gaps >= 1e-12]
        spacings.append(gaps / gaps.mean())
    spacings = np.concatenate(spacings)
    assert spacings.max() > 4.0
    dens, edges = np.histogram(spacings, HISTOGRAM_BINS, (0.0, max(4.0, spacings.max())), density=True)
    lines = [ln for ln in (tmp_path / "level_stats_hist.csv").read_text().splitlines() if not ln.startswith("#")]
    rows = [[float(v) for v in ln.split(",")] for ln in lines[1:]]
    assert rows == [[lo, hi, d] for lo, hi, d in zip(edges[:-1].tolist(), edges[1:].tolist(), dens.tolist())]
