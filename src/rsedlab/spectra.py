"""Eigenvalue statistics: pooled nearest-neighbor spacings against the
Wigner surmises, and the spectral form factor of a spectrum.

level_spacing_stats is the one path from spectra to spacings: it cuts the
gaps below 1e-12, scales each spectrum's remaining gaps to unit mean, pools
them and bins them."""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

HISTOGRAM_BINS = 40
_erf = np.vectorize(math.erf, otypes=[float])  # elementwise, without loading scipy.special


class SpacingStats(NamedTuple):
    spacings: np.ndarray
    histogram: tuple[np.ndarray, np.ndarray]  # (bin edges, densities)


def level_spacing_stats(spectra) -> SpacingStats:
    """Pooled unit-mean spacings of sorted spectra, and their histogram.

    Each spectrum's gaps below an absolute 1e-12 are dropped (they are zero
    up to rounding: pooled spectra are parent-Hamiltonian eigenvalues
    -theta / 2pi in (-1/2, 1/2] or SYK energies of order one), the rest are
    scaled to unit mean, and the sets are concatenated in order; a spectrum
    with no gap left adds nothing, and an empty pool is a ValueError.  The
    histogram has HISTOGRAM_BINS bins over [0, max(4, largest spacing)].
    """
    pooled = []
    for evals in spectra:
        gaps = np.diff(evals)
        gaps = gaps[gaps >= 1e-12]
        if gaps.size:
            pooled.append(gaps / gaps.mean())
    if not pooled:
        raise ValueError("no spectrum has a gap above the 1e-12 degeneracy cut; nothing to pool")
    spacings = np.concatenate(pooled)
    top = max(4.0, float(spacings.max()))
    dens, edges = np.histogram(spacings, bins=HISTOGRAM_BINS, range=(0.0, top), density=True)
    return SpacingStats(spacings, (edges, dens))


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
