"""Quantum Rabi model operators in a truncated Fock basis.

The Hamiltonian of a single bosonic mode coupled to a two-level system,

    H = a^dag a + (delta/2) sigma_x + g sigma_z (a + a^dag),

is written in units of the mode frequency, so ``delta`` and ``g`` are
dimensionless.  Everything here is built in the sigma_x eigenbasis, where
the conserved parity operator

    P = sigma_x exp(i pi a^dag a)

is diagonal.  Basis states are labeled (n, s) with n the Fock number and
s = +1/-1 the sigma_x eigenvalue; the flattened index is

    i = 2 n + (0 if s == +1 else 1)

so photon number is the major axis and spin the minor one.  The parity of
basis state (n, s) is s * (-1)**n, giving the diagonal pattern
(+1, -1, -1, +1, +1, -1, ...).  The coupling term flips s and shifts n by
one, which preserves that label, so H never connects opposite parities
and the commutator [H, P] vanishes identically even at finite truncation.
It links index 2n to 2n + 3 and 2n + 1 to 2n + 2: H is a symmetric band of
width BANDWIDTH = 3, which a spin flip at fixed n (2n to 2n + 1) keeps.

Restricting to a fixed parity p forces s = p * (-1)**n and leaves a real
symmetric tridiagonal matrix in n alone; the dense matrix is built from it:

    diag[n]    = n + p * (-1)**n * delta / 2
    offdiag[n] = g * sqrt(n + 1)

The normal/superradiant crossover reference coupling is

    g_c = sqrt(1 + sqrt(1 + delta**2 / 16))

and reported energies are conventionally shifted by +g**2 so the deep
strong coupling ladder sits near the integers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "BANDWIDTH",
    "ModelParams",
    "Truncation",
    "build_hamiltonian",
    "critical_coupling",
    "parity_diagonal",
    "sector_hamiltonian",
    "sector_rows",
    "shifted_energy",
]

BANDWIDTH = 3


@dataclass(frozen=True)
class ModelParams:
    """Dimensionless model parameters: level splitting and coupling."""

    delta: float
    g: float

    def __post_init__(self) -> None:
        for name in ("delta", "g"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if self.delta < 0:
            raise ValueError(f"delta must be >= 0, got {self.delta}")
        if self.g < 0:
            raise ValueError(f"g must be >= 0, got {self.g}")
        # normalize numpy scalars so dataclass equality and repr stay plain
        object.__setattr__(self, "delta", float(self.delta))
        object.__setattr__(self, "g", float(self.g))


def _integer(name: str, value) -> int:
    """A count as an int; a bool or a float such as 2.7 or even 4.0 raises ValueError naming it."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class Truncation:
    """Fock-space cutoff: photon numbers 0 .. n_trunc - 1 are retained."""

    n_trunc: int

    def __post_init__(self) -> None:
        n_trunc = _integer("n_trunc", self.n_trunc)
        if n_trunc < 2:
            raise ValueError(f"n_trunc must be >= 2, got {n_trunc}")
        object.__setattr__(self, "n_trunc", n_trunc)

    @property
    def dim(self) -> int:
        """Full two-component dimension, photons times spin."""
        return 2 * self.n_trunc


def critical_coupling(delta: float) -> float:
    """Reference coupling g_c separating the normal and superradiant regimes."""
    try:
        delta = float(delta)
    except (TypeError, ValueError):
        raise ValueError(f"delta must be a number, got {delta!r}") from None
    if not math.isfinite(delta) or delta < 0:
        raise ValueError(f"delta must be finite and >= 0, got {delta!r}")
    return math.sqrt(1.0 + math.sqrt(1.0 + delta * delta / 16.0))


def shifted_energy(energy, params: ModelParams):
    """Energy with the deep-strong-coupling offset +g**2 added."""
    return energy + params.g * params.g


def parity_diagonal(trunc: Truncation) -> np.ndarray:
    """Diagonal of the parity operator, s * (-1)**n per basis state.

    In the interleaved index that is the period-4 pattern (+1, -1, -1, +1).
    """
    return np.tile([1.0, -1.0, -1.0, 1.0], (trunc.n_trunc + 1) // 2)[: trunc.dim]


def sector_rows(trunc: Truncation, sector: int) -> np.ndarray:
    """Full-basis indices of one parity sector's states, in photon order."""
    return np.flatnonzero(parity_diagonal(trunc) == sector)


def build_hamiltonian(params: ModelParams, trunc: Truncation) -> np.ndarray:
    """Dense Hamiltonian in the interleaved (n, s) basis, from the sector tridiagonals.

    Each sector's entries go on its ``sector_rows`` rows and columns, each off-diagonal
    one to (i, j) and (j, i): bitwise symmetric and parity-block-diagonal by construction.
    The array is Fortran-ordered, the layout LAPACK solves in place.
    """
    h = np.zeros((trunc.dim, trunc.dim), order="F")
    for sector in (1, -1):
        diag, offdiag = sector_hamiltonian(params, trunc, sector)
        rows = sector_rows(trunc, sector)
        h[rows, rows] = diag
        h[rows[:-1], rows[1:]] = offdiag
        h[rows[1:], rows[:-1]] = offdiag
    return h


def sector_hamiltonian(
    params: ModelParams, trunc: Truncation, sector: int
) -> tuple[np.ndarray, np.ndarray]:
    """Tridiagonal Hamiltonian restricted to one parity sector.

    Returns (diag, offdiag) with diag of length n_trunc and offdiag of
    length n_trunc - 1.  Within sector p the spin label is fixed to
    s = p * (-1)**n, so the photon index alone spans the block.  A g
    whose largest entry g * sqrt(n_trunc - 1) overflows raises ValueError.
    """
    if sector not in (1, -1):
        raise ValueError(f"sector must be +1 or -1, got {sector!r}")
    if not math.isfinite(params.g * math.sqrt(trunc.n_trunc - 1)):
        raise ValueError(f"g={params.g!r} overflows g * sqrt(n) at n_trunc={trunc.n_trunc}")
    n = np.arange(trunc.n_trunc)
    sign = 1.0 - 2.0 * (n % 2)
    diag = n + sector * sign * (0.5 * params.delta)
    offdiag = params.g * np.sqrt(n[:-1] + 1.0)
    return diag, offdiag
