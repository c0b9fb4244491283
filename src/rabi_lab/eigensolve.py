"""Symmetric eigensolvers with enforced accuracy contracts.

Two storage paths: dense (full two-component operator) and tridiagonal
(single parity sector).  Both return a ``Spectrum`` whose eigenvalues are
ascending and whose eigenvectors satisfy checked residual, normalization
and orthogonality bounds; a contract violation raises ``SolverError``
instead of returning silently degraded data.

Solves are deterministic for identical inputs within one build of the
underlying LAPACK, which is what makes sweep output byte-reproducible.
Near-degenerate pairs are flagged, and their returned eigenvectors are
whatever mixture the solver produced; no re-rotation is applied here.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np
import scipy.linalg

__all__ = [
    "DEGENERACY_RTOL",
    "NORM_TOL",
    "ORTHO_TOL",
    "RESIDUAL_RTOL",
    "ResidualReport",
    "SolveMeta",
    "SolverError",
    "Spectrum",
    "eig_sym_dense",
    "eig_sym_tridiag",
    "residual_report",
]

# Contract tolerances. scale = max(1, max|matrix entry|).
RESIDUAL_RTOL = 1e-11   # ||M v - lambda v||_2 <= RESIDUAL_RTOL * scale
NORM_TOL = 1e-12        # | ||v|| - 1 | <= NORM_TOL
ORTHO_TOL = 1e-10       # |v_i . v_j| <= ORTHO_TOL for i != j
DEGENERACY_RTOL = 1e-12  # adjacent gap below DEGENERACY_RTOL * scale flags a pair

TridiagPair = tuple[np.ndarray, np.ndarray]


class SolverError(RuntimeError):
    """Eigensolver failure or accuracy-contract violation."""


@dataclass(frozen=True)
class SolveMeta:
    """Provenance of one solve: path, sizes, scale and wall time."""

    path: str
    dim: int
    k: int
    scale: float
    wall_time_s: float


@dataclass
class Spectrum:
    """Eigenpairs in ascending order with per-pair diagnostics.

    ``eigenvectors[:, i]`` belongs to ``eigenvalues[i]``.  ``near_degenerate``
    has length k - 1; entry i marks the gap between levels i and i + 1
    falling below DEGENERACY_RTOL * scale.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    residual_norms: np.ndarray
    near_degenerate: np.ndarray
    meta: SolveMeta

    @property
    def k(self) -> int:
        return len(self.eigenvalues)


def _first_nonzero_index(vec: np.ndarray) -> int:
    big = np.abs(vec) > 1e-12
    idx = np.flatnonzero(big)
    return int(idx[0]) if idx.size else len(vec)


def _order_ties(w: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Stable ascending order; bitwise-equal eigenvalues are ordered by the
    basis index of the first nonzero eigenvector component."""
    order = np.arange(len(w))
    i = 0
    while i < len(w) - 1:
        j = i
        while j + 1 < len(w) and w[j + 1] == w[i]:
            j += 1
        if j > i:
            block = order[i : j + 1]
            keys = [_first_nonzero_index(v[:, b]) for b in block]
            order[i : j + 1] = block[np.argsort(keys, kind="stable")]
        i = j + 1
    return w[order], v[:, order]


def _finalize(
    w: np.ndarray,
    v: np.ndarray,
    residuals: np.ndarray,
    scale: float,
    path: str,
    t0: float,
) -> Spectrum:
    norms = np.linalg.norm(v, axis=0)
    bad = np.flatnonzero(np.abs(norms - 1.0) > NORM_TOL)
    if bad.size:
        raise SolverError(f"{path}: eigenvector {bad[0]} norm defect {abs(norms[bad[0]] - 1.0):.3e}")
    gram = v.T @ v
    np.fill_diagonal(gram, 0.0)
    if gram.size and np.abs(gram).max() > ORTHO_TOL:
        i, j = np.unravel_index(np.abs(gram).argmax(), gram.shape)
        raise SolverError(f"{path}: eigenvectors {i},{j} overlap {abs(gram[i, j]):.3e}")
    tol = RESIDUAL_RTOL * scale
    bad = np.flatnonzero(residuals > tol)
    if bad.size:
        raise SolverError(
            f"{path}: eigenpair {bad[0]} residual {residuals[bad[0]]:.3e} exceeds {tol:.3e}"
        )
    gaps = np.diff(w)
    meta = SolveMeta(
        path=path,
        dim=v.shape[0],
        k=len(w),
        scale=scale,
        wall_time_s=time.perf_counter() - t0,
    )
    return Spectrum(
        eigenvalues=w,
        eigenvectors=v,
        residual_norms=residuals,
        near_degenerate=gaps < DEGENERACY_RTOL * scale,
        meta=meta,
    )


def eig_sym_dense(matrix: np.ndarray, k: Optional[int] = None) -> Spectrum:
    """Lowest k eigenpairs of a real symmetric dense matrix.

    The input must be exactly symmetric (bitwise), which the model
    builders guarantee; anything else is rejected rather than silently
    symmetrized.  k = None solves for the full spectrum.
    """
    t0 = time.perf_counter()
    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"matrix must be square, got shape {m.shape}")
    if not np.array_equal(m, m.T):
        raise ValueError("matrix is not exactly symmetric")
    dim = m.shape[0]
    if k is None:
        k = dim
    if not 1 <= k <= dim:
        raise ValueError(f"k must be in [1, {dim}], got {k}")
    scale = max(1.0, float(np.abs(m).max()))
    try:
        w, v = scipy.linalg.eigh(m, subset_by_index=(0, k - 1), driver="evr")
    except scipy.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise SolverError(f"dense solve failed for dim={dim}: {exc}") from exc
    w, v = _order_ties(w, v)
    residuals = np.linalg.norm(m @ v - v * w, axis=0)
    return _finalize(w, v, residuals, scale, "dense-evr", t0)


def _tridiag_matvec(diag: np.ndarray, offdiag: np.ndarray, v: np.ndarray) -> np.ndarray:
    out = diag[:, None] * v
    out[:-1] += offdiag[:, None] * v[1:]
    out[1:] += offdiag[:, None] * v[:-1]
    return out


def eig_sym_tridiag(
    diag: np.ndarray, offdiag: np.ndarray, k: Optional[int] = None
) -> Spectrum:
    """Lowest k eigenpairs of a real symmetric tridiagonal matrix."""
    t0 = time.perf_counter()
    d = np.asarray(diag, dtype=float)
    e = np.asarray(offdiag, dtype=float)
    if d.ndim != 1 or e.ndim != 1 or len(e) != len(d) - 1:
        raise ValueError(f"need len(offdiag) == len(diag) - 1, got {len(d)} and {len(e)}")
    if not (np.isfinite(d).all() and np.isfinite(e).all()):
        raise ValueError("tridiagonal entries must be finite")
    dim = len(d)
    if k is None:
        k = dim
    if not 1 <= k <= dim:
        raise ValueError(f"k must be in [1, {dim}], got {k}")
    scale = max(1.0, float(np.abs(d).max()), float(np.abs(e).max()) if len(e) else 0.0)
    try:
        w, v = scipy.linalg.eigh_tridiagonal(d, e, select="i", select_range=(0, k - 1))
    except scipy.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise SolverError(f"tridiagonal solve failed for dim={dim}: {exc}") from exc
    w, v = _order_ties(w, v)
    residuals = np.linalg.norm(_tridiag_matvec(d, e, v) - v * w, axis=0)
    return _finalize(w, v, residuals, scale, "tridiag", t0)


@dataclass(frozen=True)
class ResidualReport:
    """Contract check of an existing Spectrum against its matrix."""

    max_residual: float
    max_norm_defect: float
    max_ortho_defect: float
    residual_tol: float
    failing_levels: tuple[int, ...]
    passed: bool


def _as_operator(matrix: Union[np.ndarray, TridiagPair]):
    if isinstance(matrix, tuple):
        d, e = (np.asarray(a, dtype=float) for a in matrix)
        scale = max(1.0, float(np.abs(d).max()), float(np.abs(e).max()) if len(e) else 0.0)
        return (lambda v: _tridiag_matvec(d, e, v)), scale
    m = np.asarray(matrix, dtype=float)
    return (lambda v: m @ v), max(1.0, float(np.abs(m).max()))


def residual_report(
    matrix: Union[np.ndarray, TridiagPair], spectrum: Spectrum
) -> ResidualReport:
    """Recompute residual/orthonormality defects for ``spectrum``.

    ``matrix`` is either the dense array or a (diag, offdiag) pair; it must
    be the operator the spectrum came from for the report to mean anything.
    """
    matvec, scale = _as_operator(matrix)
    v = spectrum.eigenvectors
    residuals = np.linalg.norm(matvec(v) - v * spectrum.eigenvalues, axis=0)
    norms = np.linalg.norm(v, axis=0)
    gram = v.T @ v
    np.fill_diagonal(gram, 0.0)
    tol = RESIDUAL_RTOL * scale
    failing = np.flatnonzero(
        (residuals > tol) | (np.abs(norms - 1.0) > NORM_TOL)
    )
    passed = failing.size == 0 and (not gram.size or np.abs(gram).max() <= ORTHO_TOL)
    return ResidualReport(
        max_residual=float(residuals.max()),
        max_norm_defect=float(np.abs(norms - 1.0).max()),
        max_ortho_defect=float(np.abs(gram).max()) if gram.size else 0.0,
        residual_tol=tol,
        failing_levels=tuple(int(i) for i in failing),
        passed=bool(passed),
    )
