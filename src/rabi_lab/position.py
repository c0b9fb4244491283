"""Real-space view of eigenstates on a uniform symmetric grid.

Oscillator eigenfunctions are generated with the normalized two-term
recurrence

    phi_0(xi)     = pi**-0.25 * exp(-xi**2 / 2)
    phi_{n+1}(xi) = sqrt(2/(n+1)) * xi * phi_n(xi)
                    - sqrt(n/(n+1)) * phi_{n-1}(xi)

which keeps every value of order one instead of routing through the 2**n n!
factors that overflow almost immediately.  A two-component wavefunction
psi_s(xi) = sum_n c_{n,s} phi_n(xi) follows by contraction with the state's
Fock amplitudes in each spin component.  ``position_wavefunction`` takes a
block of states and builds one Hermite table per call, shared by every
column.  It contracts each column separately (a per-column gemv), because
one gemm over the whole block is not bitwise-equal to the per-vector
product, and exported tables must not depend on how many levels were
asked for.

In this representation the conserved parity acts as reflection xi -> -xi
together with the sign s of the spin component, so the mismatch between a
state and its own reflection,

    symmetry_defect = 1 - | sum_s s * integral psi_s(xi) psi_s(-xi) dxi |,

measures the same purity as 1 - |<P>| computed from amplitudes, up to
quadrature error.  Superradiant states sit near xi = +-sqrt(2) g, hence
the default window max(10, 4 g + 8).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import Truncation, _integer

__all__ = [
    "BOUNDARY_AMPLITUDE_TOL",
    "DEFAULT_STEP",
    "PositionGrid",
    "TwoComponentWavefunction",
    "hermite_basis",
    "position_wavefunction",
    "symmetry_defect",
]

DEFAULT_STEP = 0.02
BOUNDARY_AMPLITUDE_TOL = 1e-8
# step coarser than this aliases high-order oscillations
ALIASING_STEP = 0.1
ALIASING_N = 100


class PositionGrid:
    """Uniform grid symmetric about 0, built from integer multiples of step."""

    def __init__(self, xi_max: float, step: float = DEFAULT_STEP):
        xi_max = float(xi_max)
        step = float(step)
        if not (math.isfinite(xi_max) and xi_max > 0):
            raise ValueError(f"xi_max must be finite and > 0, got {xi_max}")
        if not (math.isfinite(step) and 0 < step <= xi_max):
            raise ValueError(f"step must satisfy 0 < step <= xi_max, got {step}")
        window = f"grid of xi_max {xi_max} and step {step}"
        if not math.isfinite(xi_max / step):
            raise ValueError(f"{window} has too many points to count")
        half = int(math.ceil(xi_max / step - 1e-12))
        try:  # from a count, since np.arange(-half, half + 1) wraps to empty near half = 2**62
            xi = step * (np.arange(2 * half + 1) - half)
        except (MemoryError, ValueError):  # numpy refuses a size it cannot allocate or address
            raise ValueError(f"{window} has too many points to allocate") from None
        xi.flags.writeable = False
        self.xi_max = float(xi[-1])
        self.step = step
        self.xi = xi

    @classmethod
    def default_for(cls, g: float, step: float = DEFAULT_STEP) -> "PositionGrid":
        """Window wide enough for displaced states at coupling g."""
        return cls(max(10.0, 4.0 * float(g) + 8.0), step)

    @property
    def npoints(self) -> int:
        return len(self.xi)

    def __repr__(self) -> str:
        return f"PositionGrid(xi_max={self.xi_max}, step={self.step}, npoints={self.npoints})"


def hermite_basis(grid: PositionGrid, n_max: int) -> np.ndarray:
    """Rows phi_0 .. phi_{n_max-1} evaluated on the grid.

    Rejects coarse grids for high orders: with step > 0.1 the n > 100
    functions oscillate faster than the sampling and every later use of
    the table would alias silently.
    """
    n_max = _integer("n_max", n_max)
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    if n_max > ALIASING_N and grid.step > ALIASING_STEP:
        raise ValueError(
            f"grid step {grid.step} too coarse for n_max={n_max}; "
            f"need step <= {ALIASING_STEP} above n_max={ALIASING_N}"
        )
    xi = grid.xi
    table = np.zeros((n_max, len(xi)))
    table[0] = math.pi ** -0.25 * np.exp(-0.5 * xi * xi)
    if n_max > 1:
        table[1] = math.sqrt(2.0) * xi * table[0]
    for n in range(1, n_max - 1):
        table[n + 1] = (
            math.sqrt(2.0 / (n + 1)) * xi * table[n]
            - math.sqrt(n / (n + 1.0)) * table[n - 1]
        )
    return table


@dataclass(frozen=True)
class TwoComponentWavefunction:
    """psi_s(xi) for the two spin components s = +1, -1."""

    grid: PositionGrid
    psi_plus: np.ndarray
    psi_minus: np.ndarray

    @property
    def boundary_amplitude(self) -> float:
        return float(
            max(
                abs(self.psi_plus[0]),
                abs(self.psi_plus[-1]),
                abs(self.psi_minus[0]),
                abs(self.psi_minus[-1]),
            )
        )

    def quadrature_norm(self) -> float:
        density = self.psi_plus**2 + self.psi_minus**2
        return float(np.trapezoid(density, dx=self.grid.step))


def position_wavefunction(
    vectors, grid: PositionGrid, trunc: Truncation
) -> list[TwoComponentWavefunction]:
    """Contract each column of a (dim, k) amplitude block against the oscillator functions.

    Raises when the window clips a state: an endpoint amplitude above
    BOUNDARY_AMPLITUDE_TOL means the grid is too small for this coupling
    and any quadrature on it would be quietly wrong.
    """
    v = np.asarray(vectors, dtype=float)
    if v.ndim != 2 or v.shape[0] != trunc.dim:
        raise ValueError(f"states must form a ({trunc.dim}, k) block, got shape {v.shape}")
    table = hermite_basis(grid, trunc.n_trunc)
    wfs = []
    for j in range(v.shape[1]):
        wf = TwoComponentWavefunction(
            grid=grid, psi_plus=v[0::2, j] @ table, psi_minus=v[1::2, j] @ table
        )
        if wf.boundary_amplitude >= BOUNDARY_AMPLITUDE_TOL:
            raise ValueError(
                f"level {j}: wavefunction amplitude {wf.boundary_amplitude:.3e} at the grid "
                f"edge xi = +-{grid.xi_max}; enlarge xi_max for this coupling"
            )
        wfs.append(wf)
    return wfs


def symmetry_defect(wf: TwoComponentWavefunction) -> float:
    """1 - |<psi|R|psi>| with R: xi -> -xi combined with the component sign.

    Trapezoid quadrature on the symmetric grid; the reflection is an exact
    array reversal, so the only error is the quadrature's own.  Clamped to
    [0, 1] against roundoff at the endpoints of the range.
    """
    xi = wf.grid.xi
    if len(xi) < 3 or abs(xi[0] + xi[-1]) != 0.0:
        raise ValueError("grid must be symmetric about 0")
    overlap = np.trapezoid(
        wf.psi_plus * wf.psi_plus[::-1] - wf.psi_minus * wf.psi_minus[::-1],
        dx=wf.grid.step,
    )
    return float(max(0.0, min(1.0, 1.0 - abs(overlap))))
