"""Out-of-time-ordered correlators for RSED operators.

O_VW(U) = 2**-n tr(V U W U^dag V U W U^dag); the Poisson-bracket form is
C_VW = 1 - Re O_VW for involutive V, W.  For V = Z_i, W = Z_j the trace
reduces to one K x K trace per seed block,

    O = 2**-n sum_a tr(D_i(a) u~ D_j(a) u~^dag D_i(a) u~ D_j(a) u~^dag),

with D_i(a) the diagonal of (-1)^{bit i of p(join(b, a))} and u~ the evolved
subsystem gate.  The sign function f cancels identically in this reduction.
With the Hermitian G = u~ D_j u~^dag each trace is sum_{b,c} di_b di_c |G_bc|**2,
so one matrix product forms G for a whole chunk of seeds; a gate with zero
imaginary part (any integer power of a Hadamard-family gate) is run in real
arithmetic.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field

import numpy as np

from .bitcore import PauliString, pauli_action
from .rng import RngSeed, WordStream
from .rsed import (
    DENSE_MAX_N,
    RsedOperator,
    StateVector,
    apply,
    apply_pauli,
    dense_embedding,
    dense_matrix,
)
from .subsystem import SubHamiltonian, SubUnitary, column_batches

_CHUNK_ENTRIES = 1 << 18  # cap on seeds_per_chunk * K**2 workspace


@dataclass(frozen=True)
class OtocEstimate:
    value: complex
    std_error: float
    t: float
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if abs(self.value) > 1.0 + 1e-9:
            raise ValueError(f"|OTOC| = {abs(self.value)} exceeds the unitarity bound")


def poisson_bracket(estimate: OtocEstimate) -> float:
    """C_VW = 1 - Re O_VW (V, W involutive)."""
    return 1.0 - float(np.real(estimate.value))


def _zz_trace_sum(op: RsedOperator, i: int, j: int, seeds: np.ndarray) -> tuple[complex, np.ndarray]:
    """Per-seed traces T_a and their ordered sum for the ZZ reduction.

    T_a = sum_{b,c} di_b di_c |G_bc|**2 with the Hermitian G = u Dj u^dag, so
    G for a whole chunk of seeds is one (chunk * K, K) @ (K, K) product.  A
    gate whose imaginary part is exactly zero (every integer power of a
    Hadamard-family gate) runs the same code in real arithmetic.
    """
    K = op.shape.subdim
    u = op.sub.matrix
    if not u.imag.any():
        u = u.real
    ud = u.conj().T
    chunk = max(1, _CHUNK_ENTRIES // (K * K))
    traces = np.empty(len(seeds), dtype=np.complex128)
    total = 0.0 + 0.0j
    for lo in range(0, len(seeds), chunk):
        batch = seeds[lo : lo + chunk]
        pos = op.block_positions(batch)
        di = 1.0 - 2.0 * ((pos >> np.uint32(i)) & np.uint32(1)).astype(np.float64)
        dj = 1.0 - 2.0 * ((pos >> np.uint32(j)) & np.uint32(1)).astype(np.float64)
        g = (u[None, :, :] * dj[:, None, :]).reshape(-1, K) @ ud
        # |G_bc|**2 in place: a complex G is viewed as (re, im) pairs, so
        # each di_c weighs both halves of its entry
        g2 = g.view(np.float64).reshape(len(batch), K, -1)
        np.square(g2, out=g2)
        w = np.repeat(di, g2.shape[2] // K, axis=1)
        t = np.sum((g2 @ w[:, :, None])[:, :, 0] * di, axis=1)
        traces[lo : lo + len(batch)] = t
        total += t.sum()
    return total, traces


def _check_zz_sites(op: RsedOperator, i: int, j: int) -> None:
    if i == j:
        raise ValueError("ZZ OTOC requires distinct sites i != j")
    for s in (i, j):
        if isinstance(s, bool) or not isinstance(s, (int, np.integer)):
            raise ValueError(f"site {s!r} is not an integer")
        if not 0 <= s < op.shape.n:
            raise ValueError(f"site {s} out of range [0, {op.shape.n})")


def otoc_zz_exact(op: RsedOperator, i: int, j: int, t: float = 0.0) -> OtocEstimate:
    """Exhaustive-seed ZZ OTOC; op.sub must already be the evolved gate."""
    _check_zz_sites(op, i, j)
    if op.shape.n - op.shape.k > 20:
        raise ValueError("exact seed enumeration capped at n - k <= 20")
    seeds = np.arange(op.shape.num_seeds, dtype=np.uint32)
    total, _ = _zz_trace_sum(op, i, j, seeds)
    value = total * (2.0 ** -op.shape.n)
    return OtocEstimate(value, 0.0, t, {
        "estimator": "zz-exact", "n": op.shape.n, "k": op.shape.k,
        "sites": (i, j), "seed_count": op.shape.num_seeds,
    })


def otoc_zz_sampled(
    op: RsedOperator, i: int, j: int, num_seeds: int, seed: RngSeed, t: float = 0.0
) -> OtocEstimate:
    """Uniform seed-sampling estimator: 2**-k times the sample mean of the
    per-seed traces of num_seeds seeds drawn with replacement.

    num_seeds >= 2**(n-k) clamps to exhaustive: the result is otoc_zz_exact's
    value, bit for bit, with std_error 0 and meta "exhaustive": True, and
    exact mode's n - k <= 20 cap applies.
    """
    _check_zz_sites(op, i, j)
    if num_seeds < 2:
        raise ValueError("need at least 2 sampled seeds")
    A = op.shape.num_seeds
    if num_seeds >= A:
        exact = otoc_zz_exact(op, i, j, t)
        return OtocEstimate(exact.value, 0.0, t, {**exact.meta, "estimator": "zz-sampled", "exhaustive": True})
    draws = WordStream(seed).integers(A, num_seeds).astype(np.uint32)
    _, traces = _zz_trace_sum(op, i, j, draws)
    mean = traces.mean()
    value = mean * (2.0 ** -op.shape.k)
    dev = np.abs(traces - mean) ** 2
    se = np.sqrt(dev.sum() / (num_seeds * (num_seeds - 1))) * (2.0 ** -op.shape.k)
    return OtocEstimate(value, float(se), t, {
        "estimator": "zz-sampled", "n": op.shape.n, "k": op.shape.k,
        "sites": (i, j), "seed_count": num_seeds, "exhaustive": False,
    })


def otoc_zz_f_average(u: SubUnitary | Iterable[np.ndarray]) -> float:
    """Ensemble-averaged ZZ OTOC closed form 2**-k sum_{b,b'} |u_{b,b'}|**4.

    This is the average over ideally-random subset isometries (independent
    fair sign bits); see the notes in otoc_zz_f_variance_hadamard.  u is a
    SubUnitary, or an iterable of the column blocks of one, left to right
    (hadamard_sign_power(k, seed, t, cols) for cols in column_batches(k)
    never forms the K x K matrix).  The sum runs block by block, a SubUnitary
    in the blocks of column_batches(k), so a gate and its column batches give
    the same float bit for bit; for k <= 10 that is one block.
    """
    blocks = u
    if isinstance(u, SubUnitary):
        blocks = (u.matrix[:, cols.start : cols.stop] for cols in column_batches(u.k))
    total, K = 0.0, 0
    for block in blocks:
        mags = np.abs(block)
        np.square(mags, out=mags)
        np.square(mags, out=mags)
        total += float(np.sum(mags))
        K = block.shape[0]
        del block, mags  # free this block before the iterable builds the next
    return total / K


def otoc_zz_f_variance_hadamard(n: int, k: int) -> float:
    """Printed closed-form isometry-ensemble variance for u = H^{tensor k}:
    8/2^(n+k) - 6/2^(n+2k) + 1/2^(n+3k)."""
    if not 1 <= k <= n:
        raise ValueError("need 1 <= k <= n")
    return 8.0 / 2 ** (n + k) - 6.0 / 2 ** (n + 2 * k) + 1.0 / 2 ** (n + 3 * k)


def zz_f_variance_hadamard_exact(n: int, k: int) -> float:
    """Exact isometry-ensemble variance for u = H^{tensor k} under ideally
    random (independent fair) sign bits, from the full contraction of the
    second moment: 8/2^(n+k) - 12/2^(n+2k) + 4/2^(n+3k).

    The printed closed form above drops half of the fourth-order contraction
    terms; this exact version is what seed-sampled and exhaustive ensembles
    converge to.
    """
    if not 1 <= k <= n:
        raise ValueError("need 1 <= k <= n")
    return 8.0 / 2 ** (n + k) - 12.0 / 2 ** (n + 2 * k) + 4.0 / 2 ** (n + 3 * k)


def otoc_pauli_dense(u_dense: np.ndarray, v: PauliString, w: PauliString) -> complex:
    """2**-n tr(V U W U^dag V U W U^dag) for an explicit N x N unitary."""
    dim = u_dense.shape[0]
    n = dim.bit_length() - 1
    src_w, ph_w = pauli_action(w, n)
    src_v, ph_v = pauli_action(v, n)
    a = u_dense @ (ph_w[:, None] * u_dense.conj().T[src_w, :])  # U W U^dag
    g = ph_v[:, None] * a[src_v, :]  # V U W U^dag
    return complex(np.einsum("ij,ji->", g, g) / dim)


def otoc_pauli(
    op: RsedOperator,
    v: PauliString,
    w: PauliString,
    mode: str = "exact",
    samples: int = 256,
    seed: RngSeed = RngSeed(0),
    t: float = 0.0,
) -> OtocEstimate:
    """Generic Pauli-string OTOC, dense (n <= 10) or stochastic-trace mode."""
    n = op.shape.n
    if mode == "exact":
        if n > DENSE_MAX_N:
            raise ValueError(f"exact mode capped at n={DENSE_MAX_N}")
        value = otoc_pauli_dense(dense_matrix(op), v, w)
        return OtocEstimate(value, 0.0, t, {
            "estimator": "pauli-exact", "n": n, "k": op.shape.k,
            "sites": (tuple(v.sites), tuple(w.sites)),
        })
    if mode == "stochastic":
        if samples < 2:
            raise ValueError("need at least 2 probes")
        adj = op.adjoint()
        stream = WordStream(seed)
        vals = np.empty(samples, dtype=np.complex128)
        for p_idx in range(samples):
            z = np.exp(2j * np.pi * stream.uniform01(op.shape.dim))
            probe = StateVector(op.shape, z)
            y = apply_pauli(w, apply(adj, probe))
            y = apply_pauli(v, apply(op, y))
            y = apply_pauli(w, apply(adj, y))
            y = apply_pauli(v, apply(op, y))
            vals[p_idx] = np.vdot(z, y.amplitudes) / op.shape.dim
        mean = complex(vals.mean())
        se = np.sqrt(np.sum(np.abs(vals - mean) ** 2) / (samples * (samples - 1)))
        # probe noise can push the sample mean just outside the unit disk the
        # true value lives in; projecting back only moves it closer to truth
        value = mean / abs(mean) if abs(mean) > 1.0 else mean
        return OtocEstimate(value, float(se), t, {
            "estimator": "pauli-stochastic", "n": n, "k": op.shape.k,
            "sites": (tuple(v.sites), tuple(w.sites)), "samples": samples,
            "raw_mean": mean,
        })
    raise ValueError(f"unknown mode {mode!r}")


def otoc_finite_temperature(
    op: RsedOperator,
    h_sub: SubHamiltonian,
    beta: float,
    v: PauliString,
    w: PauliString,
    mode: str = "exact",
    t: float = 0.0,
) -> OtocEstimate:
    """Thermal four-point correlator tr(rho_beta V~ W V~ W), V~ = U^dag V U.

    rho_beta = e^{-beta H}/Z with H = sum_a O_a h O_a^dagger; op.sub must be
    the caller-supplied evolved gate e^{-i h t}.  The beta = 0 exact value
    coincides with the infinite-temperature Pauli OTOC by trace cyclicity.
    Leading mode evaluates the seed-averaged approximation

        [1 + (N-1)^{-1} sum_{b1 != b2} (e^{-beta h}/tr e^{-beta h})_{b1,b2}]
        * K^{-1} * Re sum_{b1,b2,b3} [u o u o u*]_{b1,b2} [u^dag]_{b2,b3}.
    """
    if beta < 0:
        raise ValueError("beta must be >= 0")
    if h_sub.k != op.shape.k:
        raise ValueError("h_sub dimension does not match operator subsystem")
    n = op.shape.n
    gibbs_sub = (h_sub.eigenvectors * np.exp(-beta * h_sub.eigenvalues)[None, :]) @ h_sub.eigenvectors.conj().T
    if mode == "exact":
        if n > DENSE_MAX_N:
            raise ValueError(f"exact mode capped at n={DENSE_MAX_N}")
        u = dense_matrix(op)
        # e^{-beta H} assembled blockwise like the dense operator
        gibbs = dense_embedding(op, gibbs_sub)
        rho = gibbs / np.trace(gibbs)
        src_v, ph_v = pauli_action(v, n)
        src_w, ph_w = pauli_action(w, n)
        vt = u.conj().T @ (ph_v[:, None] * u[src_v, :])  # U^dag V U
        m = vt @ (ph_w[:, None] * vt[src_w, :])  # V~ W V~
        # tr(rho m W) with W[l, i] = ph_w[l] delta_{i, src_w[l]}
        value = complex(np.einsum("ij,ji,i->", rho, m[:, src_w], ph_w[src_w]))
        return OtocEstimate(value, 0.0, t, {
            "estimator": "thermal-exact", "n": n, "k": op.shape.k, "beta": beta,
        })
    if mode == "leading":
        u = op.sub.matrix
        K = op.shape.subdim
        rho_sub = gibbs_sub / np.trace(gibbs_sub)
        off_diag = np.sum(rho_sub) - np.trace(rho_sub)
        factor = 1.0 + off_diag / (op.shape.dim - 1)
        s1 = np.sum(u * u * u.conj(), axis=0)  # over b1, indexed by b2
        s2 = np.sum(u.conj(), axis=0)  # sum_b3 u^dag[b2, b3] = conj column sums
        value = complex(np.real(factor * np.sum(s1 * s2) / K))
        return OtocEstimate(value, 0.0, t, {
            "estimator": "thermal-leading", "n": n, "k": op.shape.k, "beta": beta,
        })
    raise ValueError(f"unknown mode {mode!r}")


def early_time_slope(h: SubHamiltonian) -> float:
    """Quadratic growth coefficient: the ensemble-averaged Poisson bracket
    behaves as slope * t**2 for t << 1 under u = e^{-i h t}.

    slope = 2**-k * (1/2) tr(3 diag(h^2) + h^2 - 2 diag(h o h*) - 2 diag(h) h).
    """
    m = h.matrix
    hh = m @ m
    d_hh = np.diag(np.diag(hh))
    d_abs = np.diag(np.diag(m * m.conj()))
    d_h = np.diag(np.diag(m)) @ m
    val = 0.5 * np.trace(3.0 * d_hh + hh - 2.0 * d_abs - 2.0 * d_h) / h.dim
    return float(np.real(val))

