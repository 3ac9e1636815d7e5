"""Reference results for the benchmark's correctness check.

Computed once per run, outside the timed region.  The seeded inputs come
from rsedlab itself: permutations (`sample_permutation`), sign streams
(`WordStream`) and the random-sign Hadamard gate, whose draws the library's
golden-seed tests pin.  Everything the drivers compute from those inputs is
recomputed here by another route:

- otoc-trace: positions straight from the permutation table, one Schur form
  per realization for all fractional t, and the per-seed trace as
  T_a = sum_{b,c} di_b di_c |G_bc|^2 with G = u Dj u^dagger.
- otoc-scaling: (H P)^t by a Kronecker-split Walsh-Hadamard transform on
  batches of identity columns, never the dense K x K power.
- level-stats: eigenphase branch, spacings, degenerate-gap exclusion and
  the Kolmogorov-Smirnov distances.

Tolerances: OTOC_TOL absolute on every OTOC CSV column and scaling row,
KS_TOL on the KS distances, exact spacing counts.  Both admit the
rounding-level (~1e-18) differences of a reordered summation.
"""

from __future__ import annotations

import json
from math import ceil, log2
from pathlib import Path

import numpy as np
from scipy.linalg import hadamard, schur

from rsedlab.bitcore import SystemShape
from rsedlab.randomness import sample_permutation
from rsedlab.rng import RngSeed, WordStream
from rsedlab.subsystem import random_sign_hadamard

OTOC_TOL = 1e-9
KS_TOL = 1e-6
_ZZ_BATCH = 1 << 17  # entries of G per batch; small batches stay in cache
_WHT_BATCH = 1 << 21  # entries per column batch of the Hadamard-sign power


def _gate(cfg: dict, k: int, r: int) -> np.ndarray:
    return random_sign_hadamard(k, RngSeed(cfg["u_spec"]["seed"], r)).matrix


def _zz_traces(u: np.ndarray, di: np.ndarray, dj: np.ndarray) -> np.ndarray:
    """T_a for every seed a; G is formed for a batch of seeds in one product."""
    K = len(u)
    ud = u.conj().T
    chunk = max(1, _ZZ_BATCH // u.size)
    out = np.empty(len(di))
    for lo in range(0, len(di), chunk):
        a, b = di[lo : lo + chunk], dj[lo : lo + chunk]
        g = ((u[None, :, :] * b[:, None, :]).reshape(-1, K) @ ud).reshape(len(a), K, K)
        g2 = g.real**2 + g.imag**2
        out[lo : lo + chunk] = np.sum((g2 @ a[:, :, None])[:, :, 0] * a, axis=1)
    return out


def _otoc_trace(cfg: dict) -> np.ndarray:
    """C(t) per realization: rows follow t_grid, columns realizations."""
    shape = SystemShape(cfg["n"], cfg["k"])
    i, j = cfg["sites"]
    cols = []
    for r in range(cfg["ensemble"]):
        u = _gate(cfg, shape.k, r)
        perm = sample_permutation(shape, RngSeed(cfg["seed"], 2 * r))
        pos = perm.forward_array(np.arange(shape.dim, dtype=np.uint32)).reshape(shape.num_seeds, shape.subdim)
        di = 1.0 - 2.0 * ((pos >> i) & 1)
        dj = 1.0 - 2.0 * ((pos >> j) & 1)
        tmat, z = schur(u, output="complex")
        theta = np.angle(np.diag(tmat))
        col = []
        for t in cfg["t_grid"]:
            if float(t).is_integer():
                ut = np.linalg.matrix_power(u, int(t))
            else:
                ut = (z * np.exp(1j * theta * t)) @ z.conj().T
            col.append(1.0 - _zz_traces(ut, di, dj).sum() / shape.dim)
        cols.append(col)
    return np.array(cols).T


def _wht(m: np.ndarray) -> np.ndarray:
    """Normalized H^{tensor k} @ m for m of shape (2**k, cols)."""
    K, cols = m.shape
    K1 = 1 << ((K.bit_length() - 1) // 2)
    K2 = K // K1
    t = (hadamard(K1) @ m.reshape(K1, K2 * cols)).reshape(K1, K2, cols)
    return (np.matmul(hadamard(K2), t) / np.sqrt(K)).reshape(K, cols)


def _hadamard_sign_f_average(k: int, seed: RngSeed, t: int) -> float:
    """2**-k sum |u_bc|^4 for u = (H^{tensor k} P)^t, by column batches."""
    K = 1 << k
    signs = 1.0 - 2.0 * WordStream(seed).bits(K)
    width = max(1, _WHT_BATCH // K)
    total = 0.0
    for lo in range(0, K, width):
        w = min(width, K - lo)
        m = np.zeros((K, w))
        m[lo + np.arange(w), np.arange(w)] = 1.0
        for _ in range(t):
            m = _wht(signs[:, None] * m)
        total += float(np.sum(m**4))
    return total / K


def _scaling(cfg: dict) -> np.ndarray:
    rows = []
    for n in cfg["n_list"]:
        k = ceil(log2(n) ** 2)
        vals = [
            _hadamard_sign_f_average(k, RngSeed(cfg["seed"], 100 * n + r), int(cfg["t_fixed"]))
            for r in range(cfg["ensemble"])
        ]
        rows.append([n, k, float(np.mean(np.abs(vals)))])
    return np.array(rows)


def _ks(s: np.ndarray, cdf: np.ndarray) -> float:
    m = len(s)
    return float(max(np.max(np.arange(1, m + 1) / m - cdf), np.max(cdf - np.arange(m) / m)))


def _level_stats(cfg: dict) -> dict:
    from scipy.special import erf

    pooled = []
    for r in range(cfg["ensemble"]):
        u = _gate(cfg, cfg["k"], r).real  # the random-sign Hadamard gate is real
        lam = -np.angle(np.linalg.eigvals(u)) / (2.0 * np.pi)
        lam[np.isclose(lam, -0.5, atol=1e-12)] = 0.5
        gaps = np.diff(np.sort(lam))
        gaps = gaps[gaps >= 1e-12]
        pooled.append(gaps / gaps.mean())
    s = np.sort(np.concatenate(pooled))
    a = 2.0 * s / np.sqrt(np.pi)
    return {
        "ks_goe": _ks(s, 1.0 - np.exp(-np.pi * s**2 / 4.0)),
        "ks_gue": _ks(s, erf(a) - a * np.exp(-(a**2)) * 2.0 / np.sqrt(np.pi)),
        "spacing_count": int(s.size),
    }


def compute(cfg: dict):
    """The reference result for one driver config."""
    return {"otoc-trace": _otoc_trace, "otoc-scaling": _scaling, "level-stats": _level_stats}[cfg["experiment"]](cfg)


def _read_csv(path: Path) -> tuple[list[str], np.ndarray]:
    lines = [ln for ln in path.read_text().splitlines() if ln and not ln.startswith("#")]
    return lines[0].split(","), np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])


def _compare(label: str, got: np.ndarray, want: np.ndarray, tol: float) -> list[str]:
    if got.shape != want.shape:
        return [f"{label}: shape {got.shape}, expected {want.shape}"]
    dev = float(np.max(np.abs(got - want)))
    return [] if dev <= tol else [f"{label}: max deviation {dev:.3g} exceeds {tol:g}"]


def check(cfg: dict, ref, out: Path) -> list[str]:
    """Problems found in one job's driver outputs (empty when correct)."""
    exp = cfg["experiment"]
    if exp == "otoc-trace":
        header, got = _read_csv(out / "otoc_trace.csv")
        reals = ref.shape[1]
        want_header = ["t"] + [f"C_r{r}" for r in range(reals)] + ["mean", "sem"]
        if header != want_header:
            return [f"otoc_trace.csv: header {header}, expected {want_header}"]
        want = np.column_stack([cfg["t_grid"], ref, ref.mean(axis=1), ref.std(axis=1) / np.sqrt(reals)])
        return _compare("otoc_trace.csv", got, want, OTOC_TOL)
    if exp == "otoc-scaling":
        header, got = _read_csv(out / "otoc_scaling.csv")
        if header != ["n", "k", "abs_mean_otoc"]:
            return [f"otoc_scaling.csv: header {header}"]
        return _compare("otoc_scaling.csv", got, ref, OTOC_TOL)
    summary = json.loads((out / "level_stats_summary.json").read_text())
    problems = [
        f"{key}: {summary[key]!r}, expected {ref[key]!r}"
        for key in ("ks_goe", "ks_gue")
        if not abs(summary[key] - ref[key]) <= KS_TOL
    ]
    if summary["spacing_count"] != ref["spacing_count"]:
        problems.append(f"spacing_count: {summary['spacing_count']}, expected {ref['spacing_count']}")
    return problems
