"""Eigenvalue statistics: nearest-neighbor spacings against the Wigner
surmises, and the spectral form factor of a spectrum."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

DEGENERACY_TOL_SCALE = 1e-10
HISTOGRAM_BINS = 40
_erf = np.vectorize(math.erf, otypes=[float])  # elementwise, without loading scipy.special


@dataclass(frozen=True)
class SpectrumReport:
    eigenvalues: np.ndarray = field(repr=False)
    spacings: np.ndarray = field(repr=False)
    degeneracy_multiplicity: int
    histogram: tuple[np.ndarray, np.ndarray]  # (bin edges, densities)


def level_spacing_stats(evals: np.ndarray) -> SpectrumReport:
    """Sorted spectrum, unit-mean normalized gaps, histogram.

    Every gap is kept (pooled_spacings makes the degeneracy cut).
    degeneracy_multiplicity is the modal size of eigenvalue clusters at a
    tolerance of 1e-10 times the spectral range (1 for a simple spectrum,
    2**(n-k) for an embedded one).  The histogram has HISTOGRAM_BINS bins
    over [0, max(4, largest spacing)].
    """
    evals = np.sort(np.asarray(evals, dtype=np.float64))
    if len(evals) < 3:
        raise ValueError("need at least 3 eigenvalues")
    spread = evals[-1] - evals[0]
    tol = DEGENERACY_TOL_SCALE * spread
    gaps = np.diff(evals)
    # each gap not below tol ends a cluster; sizes are the runs between them
    ends = np.flatnonzero(~(gaps < tol))
    cluster_sizes = np.diff(ends, prepend=-1, append=len(gaps))
    sizes, counts = np.unique(cluster_sizes, return_counts=True)
    multiplicity = int(sizes[np.argmax(counts)])
    if gaps.mean() == 0:
        raise ValueError("no nonzero gaps to normalize")
    spacings = gaps / gaps.mean()
    top = max(4.0, float(spacings.max()))
    dens, edges = np.histogram(spacings, bins=HISTOGRAM_BINS, range=(0.0, top), density=True)
    return SpectrumReport(evals, spacings, multiplicity, (edges, dens))


def pooled_spacings(spectra, exclude_degenerate: bool = True) -> np.ndarray:
    """Nearest-neighbor gaps of each sorted spectrum, each set scaled to unit
    mean, concatenated in order.

    exclude_degenerate drops gaps below an absolute 1e-12 before the scaling,
    and a spectrum with no gap left adds nothing.  The cut is absolute, not
    1e-10 of the spread as in level_spacing_stats: it removes only gaps that
    are zero up to rounding (pooled spectra are parent-Hamiltonian
    eigenvalues -theta / 2pi in (-1/2, 1/2] or SYK energies of order one),
    at one threshold for every spectrum of the pool.  level_spacing_stats
    scales its cluster tolerance because it sizes the degenerate clusters of
    one spectrum at any energy scale.

    A kept gap set of mean 0 (one repeated eigenvalue, without the cut) or an
    empty pool (every spectrum degenerate, with it) is a ValueError.
    """
    pooled = []
    for r, evals in enumerate(spectra):
        gaps = np.diff(evals)
        if exclude_degenerate:
            gaps = gaps[gaps >= 1e-12]
        if gaps.size:
            mean = gaps.mean()
            if not mean > 0:
                raise ValueError(f"spectrum {r} has gaps of mean {mean}; a degenerate spectrum has no unit scale")
            pooled.append(gaps / mean)
    if not pooled:
        raise ValueError("no spectrum has a gap above the 1e-12 degeneracy cut; nothing to pool")
    return np.concatenate(pooled)


def wigner_dyson_cdf(s, ensemble: str = "GOE"):
    s = np.asarray(s, dtype=np.float64)
    if ensemble == "GOE":
        out = 1.0 - np.exp(-np.pi * s**2 / 4.0)
    elif ensemble == "GUE":
        a = 2.0 * s / np.sqrt(np.pi)
        out = _erf(a) - a * np.exp(-(a**2)) * 2.0 / np.sqrt(np.pi)
    else:
        raise ValueError(f"unknown ensemble {ensemble!r}")
    return out if out.shape else float(out)


def ks_distance(spacings: np.ndarray, ensemble: str = "GOE") -> float:
    """Two-sided Kolmogorov-Smirnov distance to the surmise CDF."""
    s = np.sort(np.asarray(spacings, dtype=np.float64))
    m = len(s)
    cdf = wigner_dyson_cdf(s, ensemble)
    upper = np.max(np.arange(1, m + 1) / m - cdf)
    lower = np.max(cdf - np.arange(0, m) / m)
    return float(max(upper, lower))


def spectral_form_factor(evals: np.ndarray, beta: float, t: float) -> float:
    """R_2(beta, t) = |sum_m e^{-beta e_m - i e_m t}|^2 of a spectrum.

    An RSED spectrum is the subsystem one 2**(n-k) times over, so its value
    is 4**(n-k) times the subsystem's."""
    if beta < 0:
        raise ValueError("beta must be >= 0")
    z = np.sum(np.exp(-(beta + 1j * t) * np.asarray(evals)))
    return float(np.abs(z) ** 2)
