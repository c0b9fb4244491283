"""Symmetric eigensolvers with enforced accuracy contracts.

Two storage paths: dense (a symmetric band matrix held as a full array)
and tridiagonal (a parity sector, or both).  Both return a ``Spectrum`` in
the level order of ``_tie_order``, which the sector merge in ``sweeps``
shares.  Every returned set of eigenpairs passes one accuracy contract
(residual, normalization and orthogonality bounds); a violation raises
``SolverError`` instead of returning silently degraded data.

Both check, scale and verify a solve on its matrix's band, the lower
diagonals 0..bandwidth, a tridiagonal being the bandwidth-1 case.  An
entry beyond the band fails the contract: LAPACK sees it, the residual not.

Solves are deterministic for identical inputs within one build of the
underlying LAPACK, which is what makes sweep output byte-reproducible.
Near-degenerate pairs are flagged, and their returned eigenvectors are
whatever mixture the solver produced; no re-rotation is applied here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from ._blas import stebz_stein
from .model import _integer

__all__ = [
    "DEGENERACY_RTOL",
    "NORM_TOL",
    "ORTHO_TOL",
    "RESIDUAL_RTOL",
    "SolveMeta",
    "SolverError",
    "Spectrum",
    "eig_sym_dense",
    "eig_sym_tridiag",
]

# Contract tolerances. scale = max(1, max|matrix entry|).
RESIDUAL_RTOL = 1e-11   # ||M v - lambda v||_2 <= RESIDUAL_RTOL * scale
NORM_TOL = 1e-12        # | ||v|| - 1 | <= NORM_TOL
ORTHO_TOL = 1e-10       # |v_i . v_j| <= ORTHO_TOL for i != j
DEGENERACY_RTOL = 1e-12  # adjacent gap below DEGENERACY_RTOL * scale flags a pair


class SolverError(RuntimeError):
    """Eigensolver failure or accuracy-contract violation."""


@dataclass(frozen=True)
class SolveMeta:
    """Size and scale of one solve."""

    dim: int
    scale: float


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


def _band_matvec(band: list[np.ndarray], v: np.ndarray) -> np.ndarray:
    """The symmetric matrix with lower diagonals band[0], band[1], ... applied to v's columns."""
    out = band[0][:, None] * v
    for d, b in enumerate(band[1:], start=1):
        out[:-d] += b[:, None] * v[d:]
        out[d:] += b[:, None] * v[:-d]
    return out


def _tie_order(w: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Level order: by energy, exact ties by the index of the first component above 1e-12."""
    return np.lexsort((np.argmax(np.abs(v) > 1e-12, axis=0), w))


def _finalize(w: np.ndarray, v: np.ndarray, band: list, scale: float, path: str) -> Spectrum:
    """Tie-order the raw eigenpairs, enforce the contract on the band, wrap as a Spectrum.

    A level fails on its residual or norm defect; the set fails on any
    failing level or an off-diagonal Gram entry above ORTHO_TOL.  Every
    comparison is written so that NaN fails it.  The residuals are normed
    in units of scale, so no finite matrix overflows their squares.
    """
    order = _tie_order(w, v)
    w, v = w[order], v[:, order]
    residuals = np.linalg.norm((_band_matvec(band, v) - v * w) / scale, axis=0) * scale
    norm_defects = np.abs(np.linalg.norm(v, axis=0) - 1.0)
    gram = v.T @ v
    np.fill_diagonal(gram, 0.0)
    overlap = np.abs(gram).max()
    tol = RESIDUAL_RTOL * scale
    failing = np.flatnonzero(~((residuals <= tol) & (norm_defects <= NORM_TOL)))
    if failing.size or not overlap <= ORTHO_TOL:
        raise SolverError(
            f"{path}: contract violated at levels {failing.tolist()}: "
            f"max residual {residuals.max():.3e} (tol {tol:.3e}), "
            f"max norm defect {norm_defects.max():.3e}, "
            f"max overlap {overlap:.3e}"
        )
    return Spectrum(
        eigenvalues=w,
        eigenvectors=v,
        residual_norms=residuals,
        near_degenerate=np.diff(w) < DEGENERACY_RTOL * scale,
        meta=SolveMeta(dim=v.shape[0], scale=scale),
    )


def _checked_scale(band: list[np.ndarray], k: int, dim: int) -> float:
    """Check k against dim and every band entry for finiteness; return max(1, max|entry|)."""
    k = _integer("k", k)
    if not 1 <= k <= dim:
        raise ValueError(f"k must be in [1, {dim}], got {k}")
    if not all(np.isfinite(b).all() for b in band):
        raise ValueError("band entries must be finite")
    return max(1.0, *(float(np.abs(b).max(initial=0.0)) for b in band))


def eig_sym_dense(matrix: np.ndarray, bandwidth: int, k: int) -> Spectrum:
    """Lowest k eigenpairs of a dense symmetric band matrix, solved in place.

    Every entry more than ``bandwidth`` off the diagonal must be zero.  The
    lower diagonals 0..bandwidth, the triangle LAPACK reads, are copied
    first; the checks, the scale and the residual run on those copies in
    O(dim * bandwidth).  LAPACK then overwrites the matrix, without a copy
    if it is Fortran-ordered float64; the caller must not use it again.
    """
    dim = len(matrix)
    bandwidth = _integer("bandwidth", bandwidth)
    if not 0 <= bandwidth <= dim - 1:
        raise ValueError(f"bandwidth must be in [0, {dim - 1}], got {bandwidth}")
    band = [np.diagonal(matrix, -d).astype(float) for d in range(bandwidth + 1)]
    scale = _checked_scale(band, k, dim)
    try:
        w, v = scipy.linalg.eigh(
            matrix, subset_by_index=(0, k - 1), driver="evr", overwrite_a=True, check_finite=False
        )
    except scipy.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise SolverError(f"dense solve failed for dim={dim}: {exc}") from exc
    return _finalize(w, v, band, scale, "dense-evr")


def eig_sym_tridiag(diag: np.ndarray, offdiag: np.ndarray, k: int) -> Spectrum:
    """Lowest k eigenpairs of a real symmetric tridiagonal matrix, the bandwidth-1 band.

    An exact zero off-diagonal splits it into blocks that LAPACK solves apart, each vector
    on one block: the sector merge joins both parity sectors so, for one solve of both.
    """
    d, e = band = [np.asarray(diag, dtype=float), np.asarray(offdiag, dtype=float)]
    if d.ndim != 1 or e.ndim != 1 or len(e) != len(d) - 1:
        raise ValueError(f"need len(offdiag) == len(diag) - 1, got {len(d)} and {len(e)}")
    scale = _checked_scale(band, k, len(d))
    p = 2.0 ** -np.frexp(scale)[1]  # exact scale into [0.5, 1): stebz fails from about 1e154
    w, v = stebz_stein(d * p, e * p, k)  # scipy's stebz and stein, without the GIL
    return _finalize(w / p, v, band, scale, "tridiag")
