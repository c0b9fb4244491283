"""Independent reference implementations used to cross-check the package.

Everything here is deliberately written from scratch against textbook
formulas: a cyclic Jacobi eigensolver instead of LAPACK, a Kronecker
assembly of the coupled Hamiltonian in the spin-z product basis instead
of the interleaved spin-x layout, and plain trapezoid quadrature.  Slow
is fine; these only run on small problems.  ``shifted_solve`` is the one
probe of the package itself: its dense solve on H + s*I, which moves no
eigenvector and no gap, only the scale the solver resolves them against.
"""

import math

import numpy as np

from rabi_lab.eigensolve import eig_sym_dense
from rabi_lab.model import BANDWIDTH, build_hamiltonian


def jacobi_eigh(matrix, tol=1e-15, max_sweeps=60):
    """Cyclic Jacobi rotations on a real symmetric matrix.

    Returns (eigenvalues ascending, eigenvectors as columns).  Quadratic
    convergence makes max_sweeps=60 absurdly generous; the loop normally
    exits after fewer than ten sweeps.
    """
    a = np.array(matrix, dtype=float)
    n = a.shape[0]
    if a.shape != (n, n) or not np.allclose(a, a.T, atol=0.0):
        raise ValueError("jacobi_eigh needs a symmetric square matrix")
    v = np.eye(n)
    scale = max(1.0, float(np.abs(a).max()))
    for _ in range(max_sweeps):
        off = math.sqrt(max(0.0, (a * a).sum() - (np.diag(a) ** 2).sum()))
        if off <= tol * scale * n:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if abs(apq) <= tol * scale:
                    continue
                theta = (a[q, q] - a[p, p]) / (2.0 * apq)
                if theta >= 0.0:
                    t = 1.0 / (theta + math.sqrt(1.0 + theta * theta))
                else:
                    t = -1.0 / (-theta + math.sqrt(1.0 + theta * theta))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = t * c
                rot = np.eye(n)
                rot[p, p] = c
                rot[q, q] = c
                rot[p, q] = s
                rot[q, p] = -s
                a = rot.T @ a @ rot
                # symmetrize away drift from the two matmuls
                a = 0.5 * (a + a.T)
                v = v @ rot
    w = np.diag(a).copy()
    order = np.argsort(w, kind="stable")
    return w[order], v[:, order]


def spin_z_hamiltonian(delta, g, n_trunc):
    """Coupled Hamiltonian assembled with np.kron in the spin-z basis.

    Basis index 2n + (0 for spin-z up, 1 for down).  This is a different
    construction path from the package (which interleaves spin-x
    components), so agreement of the two spectra is a real check.
    """
    ident2 = np.eye(2)
    sx = np.array([[0.0, 1.0], [1.0, 0.0]])
    sz = np.array([[1.0, 0.0], [0.0, -1.0]])
    number = np.diag(np.arange(n_trunc, dtype=float))
    lower = np.diag(np.sqrt(np.arange(1, n_trunc, dtype=float)), k=1)
    quad = lower + lower.T
    return (
        np.kron(number, ident2)
        + (delta / 2.0) * np.kron(np.eye(n_trunc), sx)
        + g * np.kron(quad, sz)
    )


def shifted_solve(params, trunc, k, shift):
    """Lowest k eigenpairs of H + shift * I: ``build_hamiltonian`` with its diagonal moved."""
    matrix = build_hamiltonian(params, trunc)
    matrix[np.diag_indices_from(matrix)] += shift
    return eig_sym_dense(matrix, BANDWIDTH, k)


def spin_rotation(n_trunc):
    """Unitary mapping the spin-z product basis onto the spin-x one.

    Columns of the 2x2 block are the spin-x eigenvectors (up+dn)/sqrt2
    and (up-dn)/sqrt2, applied identically in every photon block.
    """
    inv = 1.0 / math.sqrt(2.0)
    block = np.array([[inv, inv], [inv, -inv]])
    return np.kron(np.eye(n_trunc), block)


def parity_trace(vectors, n_trunc):
    """tr(V^T P V) for the columns of V, with P built from the basis labels.

    Index i = 2n + (s == -1) carries photon number n and spin-x label s,
    and P = s * (-1)**n there; the trace is formed with a dense P.
    """
    labels = np.zeros(2 * n_trunc)
    for n in range(n_trunc):
        for s in (1, -1):
            labels[2 * n + (s == -1)] = s * (-1) ** n
    v = np.asarray(vectors, dtype=float)
    return float(np.trace(v.T @ np.diag(labels) @ v))


def trapezoid_weights(npoints, step):
    w = np.full(npoints, step, dtype=float)
    w[0] *= 0.5
    w[-1] *= 0.5
    return w


def gram_matrix(table, step):
    """Pairwise trapezoid overlaps of the rows of a sampled function table."""
    w = trapezoid_weights(table.shape[1], step)
    return (table * w) @ table.T


def random_band(rng, dim, bandwidth, scale=1.0):
    """A Fortran-ordered symmetric dim x dim matrix, standard normal times scale on
    diagonals 0..bandwidth and zero beyond them: the input ``eig_sym_dense`` takes."""
    m = np.zeros((dim, dim), order="F")
    for d in range(bandwidth + 1):
        rows = np.arange(dim - d)
        m[rows + d, rows] = m[rows, rows + d] = scale * rng.standard_normal(dim - d)
    return m
