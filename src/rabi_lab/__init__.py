"""Exact diagonalization of the quantum Rabi model with parity diagnostics.

The library diagonalizes the two-level/single-mode Hamiltonian in a
truncated Fock basis, tracks the conserved parity of every computed
eigenstate, and quantifies where pairs of near-degenerate levels stop
being parity-pure while their pairwise parity sum stays pinned at zero.
"""

from .eigensolve import (
    SolverError,
    Spectrum,
    eig_sym_dense,
    eig_sym_tridiag,
)
from .model import (
    ModelParams,
    Truncation,
    build_hamiltonian,
    critical_coupling,
    parity_diagonal,
    sector_hamiltonian,
    sector_rows,
    shifted_energy,
)
from .parity import (
    PairParity,
    pair_report,
    parity_expectation,
)
from .position import (
    PositionGrid,
    TwoComponentWavefunction,
    hermite_basis,
    position_wavefunction,
    symmetry_defect,
)
from .sweeps import (
    SweepResult,
    convergence_sweep,
    coupling_sweep,
    grid_values,
    phase_boundary_scan,
    solve_point,
    tail_population,
)

__version__ = "0.1.0"

__all__ = [
    "ModelParams",
    "PairParity",
    "PositionGrid",
    "SolverError",
    "Spectrum",
    "SweepResult",
    "Truncation",
    "TwoComponentWavefunction",
    "__version__",
    "build_hamiltonian",
    "convergence_sweep",
    "coupling_sweep",
    "critical_coupling",
    "eig_sym_dense",
    "eig_sym_tridiag",
    "grid_values",
    "hermite_basis",
    "pair_report",
    "parity_diagonal",
    "parity_expectation",
    "phase_boundary_scan",
    "position_wavefunction",
    "sector_hamiltonian",
    "sector_rows",
    "shifted_energy",
    "solve_point",
    "symmetry_defect",
    "tail_population",
]
