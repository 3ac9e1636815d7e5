"""Out-of-time-ordered correlators for RSED operators.

O_VW(U) = 2**-n tr(V U W U^dag V U W U^dag); the Poisson-bracket form is
C_VW = 1 - Re O_VW for involutive V, W.  For V = Z_i, W = Z_j the trace
reduces to one K x K trace per seed block,

    O = 2**-n sum_a T_a,  T_a = tr(D_i(a) G D_i(a) G),  G = u~ D_j(a) u~^dag,

with D_i(a) the diagonal of (-1)^{bit i of p(join(b, a))} and u~ the evolved
subsystem gate.  The sign function f cancels identically in this reduction.

Each T_a comes from a minor of u~ of at most K/2 x K/2.  Let R_a be the rows
b of block a where bit i of p(join(b, a)) takes its minority value, S_a the
same set for bit j, and W_a = u~[R_a, S_a].  Then

    T_a = K - 16 ||W_a||_F**2 + 16 ||W_a^dag W_a||_F**2.

Derivation: D_j = I - 2 P_S gives G = I - 2 V V^dag with V = u~[:, S], and
D_i = I - 2 P_R.  Using G**2 = I, tr(D_i G D_i G) = tr(D_i) - 2 tr(P_R)
+ 4 tr((P_R G P_R)**2) = K - 4|R| + 4 tr((I_R - 2 W W^dag)**2), which
expands to the line above.  T_a is unchanged by D_i -> -D_i and by
G -> -G (that is D_j -> -D_j), so both sets may be taken as minority sets:
|R_a|, |S_a| <= K/2, and a seed costs at most K**3/8 multiply-adds where
forming G costs K**3.

The identity takes u~ to be unitary (G**2 = I and P_R G P_R = I_R - 2 W W^dag
use it); the dense trace does not.  For a gate unitary only to
eps = ||u~^dag u~ - I||_2, the spectral norm, each T_a differs from
tr(D_i G D_i G) by at most K (16 eps + 19 eps**2), and so the OTOC value by
at most 16 eps + 19 eps**2.  SubUnitary's check bounds the largest entry of
u~^dag u~ - I by UNITARITY_TOL, which bounds eps only by K UNITARITY_TOL.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from itertools import islice

import numpy as np

from .bitcore import PauliString, SystemShape, pauli_action
from .pool import _ordered_map, zz_chunks_pooled
from .randomness import SignFunction, SubsetPermutation
from .rng import RngSeed, WordStream
from .rsed import DENSE_MAX_N, RsedOperator, _apply_blocks, dense_embedding, dense_matrix
from .subsystem import SubHamiltonian, SubUnitary, column_batches

_CHUNK_ENTRIES = 1 << 18  # seeds per chunk and gates per group: max(1, this // K**2)


@dataclass(frozen=True)
class OtocEstimate:
    value: complex
    std_error: float
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if abs(self.value) > 1.0 + 1e-9:
            raise ValueError(f"|OTOC| = {abs(self.value)} exceeds the unitarity bound")


def poisson_bracket(estimate: OtocEstimate) -> float:
    """C_VW = 1 - Re O_VW (V, W involutive)."""
    return 1.0 - float(np.real(estimate.value))


def _minor_sets(pos: np.ndarray, i: int, j: int) -> np.ndarray:
    """R_a and S_a for the rows a of a chunk's positions: an array
    (chunk, 2, m) of column indices, R_a at [a, 0] and S_a at [a, 1].

    R_a (S_a) holds the columns b where bit i (bit j) of pos[a, b] takes its
    less frequent value, the 1s on a tie, in increasing order.  Every set is
    padded with K, the zero row and column of _zero_padded, to the chunk's
    largest set m <= K/2.  One sort of the keys (outside << k) | b, outside
    being 0 on the members, puts each row's members first; the keys of the
    rest are >= K and clip to K.
    """
    K = pos.shape[1]
    bits = (pos[:, None, :] >> np.array([[i], [j]], dtype=np.uint32)) & np.uint32(1)
    twice = 2 * bits.sum(axis=2, keepdims=True, dtype=np.int64)  # twice the 1s; signed, so twice - K cannot wrap
    outside = bits ^ (twice <= K)
    m = (K - int(np.abs(twice - K).min())) // 2  # min(ones, K - ones), maximized
    keys = np.sort((outside << np.uint32(K.bit_length() - 1)) | np.arange(K, dtype=np.uint32), axis=2)
    return np.minimum(keys[:, :, :m], K)


def _zero_padded(u: np.ndarray) -> np.ndarray:
    """u with a zero row and column appended, flattened: the target of the
    padded sets.  It keeps u's dtype, so a real gate (every integer power of
    a Hadamard-family gate) runs in real arithmetic."""
    K = len(u)
    out = np.zeros((K + 1, K + 1), dtype=u.dtype)
    out[:K, :K] = u
    return out.reshape(-1)


def _sq_norms(x: np.ndarray) -> np.ndarray:
    """Squared Frobenius norm of each matrix of a C-contiguous real or complex stack."""
    f = x.reshape(len(x), -1).view(np.float64)
    return np.einsum("ij,ij->i", f, f)


def _zz_chunk_traces(op: RsedOperator, gates: list[np.ndarray], i: int, j: int, seeds: np.ndarray) -> Iterator[np.ndarray]:
    """Per-seed traces T_a = K - 16 ||W_a||^2 + 16 ||W_a^dag W_a||^2 of each
    K x K gate matrix in gates, one seed chunk at a time: an array
    (len(gates), chunk) per chunk.

    op supplies the block positions only (its permutation; the sign function
    cancels and its gate is not read), so each chunk's positions, minority
    sets and gather indices are computed once for all the gates.  The
    padding of the sets to m gathers zero rows and columns, which change
    neither norm.  The Gram matrix W_a^dag W_a costs at most (K/2)**3
    multiply-adds per seed; with ||W_a||^2 its trace,
    T_a = K - 4m + 16 ||W_a^dag W_a - I_m / 2||^2.

    The gather index, and per gate dtype W, W^dag and the Gram matrix, live
    in buffers of chunk * (K/2)**2 entries made once per pass (and per
    worker); a chunk of c seeds and padding m works in their (c, m, m)
    views.  Where pool.zz_chunks_pooled(K) (K <= 64) the chunks go to
    pool._ordered_map's workers; the block positions are computed on the
    calling thread either way, and the chunks come back in order, so no
    value depends on the worker count.
    """
    K = op.shape.subdim
    padded = [_zero_padded(u) for u in gates]
    del gates  # the padded copies are all the pass needs
    chunk = max(1, _CHUNK_ENTRIES // (K * K))
    size = min(chunk, len(seeds)) * (K // 2) ** 2
    dtypes = {u.dtype for u in padded}

    def scratch():
        return np.empty(size, dtype=np.intp), {dt: [np.empty(size, dtype=dt) for _ in range(3)] for dt in dtypes}

    def chunk_traces(pos: np.ndarray, bufs) -> np.ndarray:
        index, work = bufs
        sets = _minor_sets(pos, i, j)
        c, m = len(sets), sets.shape[2]
        idx = index[: c * m * m].reshape(c, m, m)
        np.multiply(sets[:, 0, :, None], np.intp(K + 1), out=idx)  # into the padded gates
        idx += sets[:, 1, None, :]
        traces = np.empty((len(padded), c))
        for g, u in enumerate(padded):
            w, wh, gram = (buf[: c * m * m].reshape(c, m, m) for buf in work[u.dtype])
            np.take(u, idx, out=w, mode="clip")  # every index is in range; mode "raise" buffers out
            np.conjugate(w.transpose(0, 2, 1), out=wh)
            np.matmul(wh, w, out=gram)
            gram.reshape(c, -1)[:, :: m + 1] -= 0.5
            traces[g] = (K - 4 * m) + 16.0 * _sq_norms(gram)
        return traces

    positions = (op.block_positions(seeds[lo : lo + chunk]) for lo in range(0, len(seeds), chunk))
    return _ordered_map(chunk_traces, positions, scratch, threaded=zz_chunks_pooled(K))


def _check_zz_sites(shape: SystemShape, i: int, j: int) -> None:
    if i == j:
        raise ValueError("ZZ OTOC requires distinct sites i != j")
    for s in (i, j):
        if isinstance(s, bool) or not isinstance(s, (int, np.integer)):
            raise ValueError(f"site {s!r} is not an integer")
        if not 0 <= s < shape.n:
            raise ValueError(f"site {s} out of range [0, {shape.n})")


def _otoc_zz(
    p: SubsetPermutation, f: SignFunction, i: int, j: int, gates: Iterable[SubUnitary], num_seeds: int | None, seed: RngSeed | None
) -> list[OtocEstimate]:
    """ZZ OTOCs of one realization (p, f) under each gate of gates: exact
    over every seed block, or with num_seeds the seed-sampling estimator,
    its draws taken from seed once for all the gates.

    gates is read lazily, max(1, _CHUNK_ENTRIES // K**2) at a time (one gate
    for K >= 512), so its gates are never all held at once, and each such
    group shares one pass over the seed chunks: the positions and minority
    sets of a chunk are computed once per group, not once per gate.  Sites,
    the sample size and exact mode's n - k <= 20 cap are checked before any
    gate is drawn, and each group's gates before its pass: a gate on another
    k is a ValueError.  A gate's value does not depend on the others in
    gates, bit for bit.
    """
    shape = p.shape
    _check_zz_sites(shape, i, j)
    A = shape.num_seeds
    if num_seeds is not None and num_seeds < 2:
        raise ValueError("need at least 2 sampled seeds")
    sampled = num_seeds is not None and num_seeds < A
    if not sampled and shape.n - shape.k > 20:
        raise ValueError("exact seed enumeration capped at n - k <= 20")
    meta = {"estimator": "zz-exact", "n": shape.n, "k": shape.k, "sites": (i, j), "seed_count": A}
    if num_seeds is not None:
        meta.update(estimator="zz-sampled", exhaustive=not sampled)
    if sampled:
        meta["seed_count"] = num_seeds
        seeds = WordStream(seed).integers(A, num_seeds).astype(np.uint32)
    else:
        seeds = np.arange(A, dtype=np.uint32)
    gates = iter(gates)
    group = max(1, _CHUNK_ENTRIES // (shape.subdim**2))
    out = []
    while subs := list(islice(gates, group)):
        if any(s.k != shape.k for s in subs):  # the kernel's gather would read a wrong-size gate silently
            raise ValueError(f"every gate must act on k={shape.k}, got k={[s.k for s in subs]}")
        chunks = _zz_chunk_traces(RsedOperator(shape, p, f, subs[0]), [s.matrix for s in subs], i, j, seeds)
        del subs  # only the chunk pass holds the gates now, so they go when it ends
        if sampled:
            traces = np.concatenate(list(chunks), axis=1)
            for tr in traces:
                mean = tr.mean()
                se = np.sqrt(np.sum((tr - mean) ** 2) / (num_seeds * (num_seeds - 1)))
                out.append(OtocEstimate(complex(mean * 2.0**-shape.k), float(se * 2.0**-shape.k), dict(meta)))
        else:
            totals = sum(traces.sum(axis=1) for traces in chunks)
            out.extend(OtocEstimate(complex(total * 2.0**-shape.n), 0.0, dict(meta)) for total in totals)
    return out


def otoc_zz_exact(p: SubsetPermutation, f: SignFunction, i: int, j: int, gates: Iterable[SubUnitary]) -> list[OtocEstimate]:
    """Exhaustive-seed ZZ OTOC of the realization (p, f) under each evolved
    gate of gates, one estimate per gate, in order.  gates is read lazily
    (see _otoc_zz), so a generator of gates evolved at each t gives a
    realization's whole t grid from one pass per gate group.  Each gate is
    taken to be unitary: a deviation eps = ||u^dag u - I||_2 moves its value
    by at most 16 eps + 19 eps**2 from the dense trace (module docstring).
    """
    return _otoc_zz(p, f, i, j, gates, None, None)


def otoc_zz_sampled(
    p: SubsetPermutation, f: SignFunction, i: int, j: int, gates: Iterable[SubUnitary], num_seeds: int, seed: RngSeed
) -> list[OtocEstimate]:
    """Uniform seed-sampling estimator under each gate of gates: 2**-k times
    the sample mean of the per-seed traces of num_seeds seeds drawn with
    replacement, the same draws for every gate.

    num_seeds >= 2**(n-k) clamps to exhaustive: each result is
    otoc_zz_exact's value, bit for bit, with std_error 0 and meta
    "exhaustive": True, and exact mode's n - k <= 20 cap applies.  The gates
    are taken to be unitary, as in otoc_zz_exact.
    """
    return _otoc_zz(p, f, i, j, gates, num_seeds, seed)


def otoc_zz_f_average(u: SubUnitary) -> float:
    """Ensemble-averaged ZZ OTOC closed form 2**-k sum_{b,b'} |u_{b,b'}|**4.

    This is the average over ideally-random subset isometries (independent
    fair sign bits); see the notes in otoc_zz_f_variance_hadamard.  The sum
    runs block by block over column_batches(k), left to right, with the
    fourth powers of each block in one reused buffer (_fourth_power_sum);
    for k <= 8 that is one block.  cli.hadamard_sign_f_average sums the
    same blocks without forming the gate, so the two agree bit for bit.
    """
    batches = column_batches(u.k)
    mags = np.empty((u.dim, len(batches[0])))
    total = 0.0
    for cols in batches:
        total += _fourth_power_sum(u.matrix[:, cols.start : cols.stop], mags)
    return total / u.dim


def _fourth_power_sum(block: np.ndarray, out: np.ndarray) -> float:
    """sum |block|**4 through out, a float64 array of block's shape (block
    itself, for a real block that may be overwritten): a real block is
    squared twice, a complex one takes abs first."""
    if np.iscomplexobj(block):
        np.abs(block, out=out)
        np.square(out, out=out)
    else:
        np.square(block, out=out)  # x * x == |x| * |x| bit for bit
    np.square(out, out=out)
    return float(np.sum(out))


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


def otoc_pauli(op: RsedOperator, v: PauliString, w: PauliString, seed: RngSeed) -> OtocEstimate:
    """Stochastic-trace Pauli-string OTOC: the mean of <z| V U W U^dag V U W
    U^dag |z> / 2**n over 512 random-phase probes z, blockwise at any n.
    The dense value at n <= 10 is otoc_pauli_dense(dense_matrix(op), v, w)."""
    samples = 512
    n, dim = op.shape.n, op.shape.dim
    u, u_adj = op.sub.matrix, op.sub.adjoint().matrix
    seeds = np.arange(op.shape.num_seeds)
    pos, sg = op.block_positions(seeds), op.block_signs(seeds)  # shared by U and U^dag
    src_v, ph_v = pauli_action(v, n)
    src_w, ph_w = pauli_action(w, n)
    stream = WordStream(seed)
    vals = np.empty(samples, dtype=np.complex128)
    for p_idx in range(samples):
        z = np.exp(2j * np.pi * stream.uniform01(dim))
        y = ph_w * _apply_blocks(u_adj, pos, sg, z)[src_w]
        y = ph_v * _apply_blocks(u, pos, sg, y)[src_v]
        y = ph_w * _apply_blocks(u_adj, pos, sg, y)[src_w]
        y = ph_v * _apply_blocks(u, pos, sg, y)[src_v]
        # a pairwise sum, not np.vdot: OpenBLAS threads long dot products, so
        # their rounding would follow OPENBLAS_NUM_THREADS
        vals[p_idx] = np.sum(z.conj() * y) / dim
    mean = complex(vals.mean())
    se = np.sqrt(np.sum(np.abs(vals - mean) ** 2) / (samples * (samples - 1)))
    # probe noise can push the sample mean just outside the unit disk the
    # true value lives in; projecting back only moves it closer to truth
    value = mean / abs(mean) if abs(mean) > 1.0 else mean
    return OtocEstimate(value, float(se), {
        "estimator": "pauli-stochastic", "n": n, "k": op.shape.k,
        "sites": (tuple(v.sites), tuple(w.sites)), "samples": samples,
        "raw_mean": mean,
    })


def otoc_finite_temperature(
    op: RsedOperator,
    h_sub: SubHamiltonian,
    beta: float,
    v: PauliString,
    w: PauliString,
    mode: str = "exact",
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
        return OtocEstimate(value, 0.0, {
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
        return OtocEstimate(value, 0.0, {
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

