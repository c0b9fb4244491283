"""Per-eigenstate parity diagnostics of a solved spectrum.

The conserved parity P is diagonal in the working basis, so expectation
values reduce to sign-weighted sums of squared amplitudes.
``pair_report`` reads a solved block once: it squares each column once
and takes that level's <P> and even/odd photon populations (summed over
spin) from the squares.  Eigenvalues come in pairs (2k, 2k+1) of
opposite parity whose splitting collapses with coupling; once it falls
to the solver's resolution the returned eigenvectors are arbitrary
mixtures within the pair and per-state <P> wanders off +-1.  For
orthonormal columns the sum of the two members' unclamped <P> is the
trace of P over the pair span, which is basis independent and stays at
zero through that regime: the invariant worth testing against.

A state is called regular when |<P>| >= 1 - eps_par for a configurable
threshold eps_par.  The onset coupling of a pair, the smallest grid point
at which either member turns irregular, is located from these reports by
``rabi_lab.sweeps.phase_boundary_scan``.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .eigensolve import Spectrum
from .model import ModelParams, Truncation, parity_diagonal, shifted_energy

__all__ = [
    "DEFAULT_EPS_PAR",
    "STATE_NORM_TOL",
    "PairParity",
    "pair_report",
    "parity_expectation",
]

DEFAULT_EPS_PAR = 0.1
STATE_NORM_TOL = 1e-10


def _checked_state(state, trunc: Truncation) -> np.ndarray:
    v = np.asarray(state, dtype=float).ravel()
    if v.size != trunc.dim:
        raise ValueError(f"state length {v.size} does not match dimension {trunc.dim}")
    norm = np.linalg.norm(v)
    if abs(norm - 1.0) > STATE_NORM_TOL:
        raise ValueError(f"state norm {norm!r} deviates from 1 beyond {STATE_NORM_TOL}")
    return v


def check_eps_par(eps_par: float) -> float:
    """The irregularity threshold as a float, which must lie in (0, 1)."""
    if not isinstance(eps_par, numbers.Real):
        raise ValueError(f"eps_par must be a number, got {eps_par!r}")
    if not 0.0 < eps_par < 1.0:
        raise ValueError(f"eps_par must be in (0, 1), got {eps_par}")
    return float(eps_par)


def parity_expectation(state, trunc: Truncation) -> float:
    """<P> of a normalized state vector; always lands in [-1, 1]."""
    v = _checked_state(state, trunc)
    value = float(np.dot(parity_diagonal(trunc), v * v))
    return max(-1.0, min(1.0, value))


@dataclass(frozen=True)
class PairParity:
    """Diagnostics for one opposite-parity doublet (levels 2k, 2k+1)."""

    pair_index: int
    energies: tuple[float, float]
    energies_shifted: tuple[float, float]
    parity: tuple[float, float]
    gap_shifted: float
    parity_sum: float
    p_even: tuple[float, float]
    p_odd: tuple[float, float]
    regular: bool
    degenerate: bool


def pair_report(
    spectrum: Spectrum,
    params: ModelParams,
    trunc: Truncation,
    eps_par: float = DEFAULT_EPS_PAR,
) -> list[PairParity]:
    """Pairwise parity report over consecutive levels of a sorted spectrum.

    ``parity_sum`` is the sum of the two members' unclamped <P>, which for
    orthonormal columns is the trace of P over the pair span, so it stays
    meaningful when the pair is solver-mixed.  ``parity`` holds the same
    values clamped to [-1, 1].  The ``regular`` flag applies the eps_par
    threshold to both members.
    """
    check_eps_par(eps_par)
    if spectrum.k < 2:
        raise ValueError("need at least two levels to form a pair")
    n_pairs = spectrum.k // 2
    energies = tuple(spectrum.eigenvalues.tolist())
    shifted = tuple(shifted_energy(e, params) for e in energies)
    p = parity_diagonal(trunc)
    levels = []
    # each column once, as a contiguous row, so every sum runs in parity_expectation's order
    for v in np.ascontiguousarray(spectrum.eigenvectors[:, : 2 * n_pairs].T, dtype=float):
        v2 = _checked_state(v, trunc) ** 2
        pops = v2[0::2] + v2[1::2]
        levels.append((float(np.dot(p, v2)), float(pops[0::2].sum()), float(pops[1::2].sum())))
    raw, p_even, p_odd = zip(*levels)
    parity = tuple(max(-1.0, min(1.0, value)) for value in raw)
    out = []
    for k in range(n_pairs):
        lo, hi = 2 * k, 2 * k + 1
        out.append(
            PairParity(
                pair_index=k,
                energies=energies[lo : hi + 1],
                energies_shifted=shifted[lo : hi + 1],
                parity=parity[lo : hi + 1],
                gap_shifted=shifted[hi] - shifted[lo],
                parity_sum=raw[lo] + raw[hi],
                p_even=p_even[lo : hi + 1],
                p_odd=p_odd[lo : hi + 1],
                regular=min(abs(parity[lo]), abs(parity[hi])) >= 1.0 - eps_par,
                degenerate=bool(spectrum.near_degenerate[lo]),
            )
        )
    return out
