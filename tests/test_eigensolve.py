"""Solver wrapper contracts: ordering, residuals, determinism, tie-breaking."""

import re

import numpy as np
import pytest
import scipy.linalg

from rabi_lab.eigensolve import (
    DEGENERACY_RTOL,
    NORM_TOL,
    ORTHO_TOL,
    RESIDUAL_RTOL,
    SolverError,
    eig_sym_dense,
    eig_sym_tridiag,
)
from rabi_lab.model import ModelParams, Truncation, build_hamiltonian, sector_hamiltonian

from oracles import jacobi_eigh, random_symmetric


def test_dense_matches_jacobi_oracle():
    rng = np.random.default_rng(42)
    for _ in range(5):
        a = random_symmetric(rng, 12)
        w_oracle, _ = jacobi_eigh(a)
        sp = eig_sym_dense(a)
        assert np.abs(sp.eigenvalues - w_oracle).max() <= 1e-12


def test_dense_and_tridiag_paths_agree():
    params = ModelParams(1.0, 0.8)
    tr = Truncation(40)
    diag, off = sector_hamiltonian(params, tr, 1)
    dense = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
    sp_d = eig_sym_dense(dense)
    sp_t = eig_sym_tridiag(diag, off)
    scale = max(1.0, np.abs(diag).max(), np.abs(off).max())
    assert np.abs(sp_d.eigenvalues - sp_t.eigenvalues).max() <= 1e-11 * scale


def test_contract_properties_random_instance():
    rng = np.random.default_rng(3)
    a = random_symmetric(rng, 30, scale=5.0)
    sp = eig_sym_dense(a, k=10)
    assert sp.k == 10
    assert np.all(np.diff(sp.eigenvalues) >= 0.0)
    norms = np.linalg.norm(sp.eigenvectors, axis=0)
    assert np.abs(norms - 1.0).max() <= NORM_TOL
    gram = sp.eigenvectors.T @ sp.eigenvectors
    assert np.abs(gram - np.eye(10)).max() <= ORTHO_TOL
    scale = max(1.0, np.abs(a).max())
    assert sp.residual_norms.max() <= RESIDUAL_RTOL * scale
    assert len(sp.near_degenerate) == 9


def test_subset_matches_head_of_full_solve():
    rng = np.random.default_rng(8)
    a = random_symmetric(rng, 25)
    full = eig_sym_dense(a)
    head = eig_sym_dense(a, k=6)
    assert np.abs(full.eigenvalues[:6] - head.eigenvalues).max() <= 1e-12


def test_input_validation():
    a = np.arange(9.0).reshape(3, 3)
    with pytest.raises(ValueError):
        eig_sym_dense(a)  # not symmetric
    with pytest.raises(ValueError):
        eig_sym_dense(np.ones((2, 3)))
    sym = np.eye(4)
    with pytest.raises(ValueError):
        eig_sym_dense(sym, k=0)
    with pytest.raises(ValueError):
        eig_sym_dense(sym, k=5)
    # a supplied matrix is checked for finiteness itself, not left to LAPACK
    with pytest.raises(ValueError, match="^matrix entries must be finite$"):
        eig_sym_dense(np.diag([1.0, np.inf]))
    with pytest.raises(ValueError):
        eig_sym_tridiag(np.ones(4), np.ones(4))
    with pytest.raises(ValueError):
        eig_sym_tridiag(np.array([1.0, np.nan]), np.array([0.2]))
    # a float level count is refused, not floored or passed on to LAPACK
    with pytest.raises(ValueError, match="^k must be an integer, got 2.7$"):
        eig_sym_dense(np.diag(np.arange(6.0)), 2.7)
    with pytest.raises(ValueError, match="^k must be an integer, got 2.5$"):
        eig_sym_tridiag(np.arange(6.0), np.ones(5), 2.5)
    # nor is a bool, though Python counts it as an int
    with pytest.raises(ValueError, match="^k must be an integer, got True$"):
        eig_sym_dense(np.eye(3), True)
    with pytest.raises(ValueError, match="^k must be an integer, got False$"):
        eig_sym_tridiag(np.arange(6.0), np.ones(5), False)


def test_asymmetry_beyond_tolerance_is_rejected():
    # the input gate is bitwise: even a one-ulp asymmetry is refused,
    # as documented, because downstream contracts assume exactness
    a = np.eye(3)
    a[0, 1] = 1e-16
    with pytest.raises(ValueError):
        eig_sym_dense(a)


def test_repeat_solve_is_bitwise_identical():
    params = ModelParams(1.0, 2.0)
    tr = Truncation(80)
    h = build_hamiltonian(params, tr)
    sp1 = eig_sym_dense(h, k=8)
    sp2 = eig_sym_dense(h, k=8)
    assert np.array_equal(sp1.eigenvalues, sp2.eigenvalues)
    assert np.array_equal(sp1.eigenvectors, sp2.eigenvectors)


def test_exact_ties_ordered_by_first_support():
    vals = np.array([3.0, 1.0, 1.0, 2.0, 1.0])
    sp = eig_sym_dense(np.diag(vals))
    assert np.array_equal(sp.eigenvalues, np.array([1.0, 1.0, 1.0, 2.0, 3.0]))
    supports = [int(np.flatnonzero(np.abs(sp.eigenvectors[:, i]) > 1e-12)[0]) for i in range(3)]
    assert supports == sorted(supports)
    assert supports == [1, 2, 4]


def test_near_degenerate_flags_paired_levels():
    # spin splitting off: levels come in exactly degenerate pairs, so the
    # in-pair gaps flag and the unit gaps between pairs do not
    h = build_hamiltonian(ModelParams(0.0, 1.0), Truncation(60))
    sp = eig_sym_dense(h, k=8)
    flags = list(sp.near_degenerate)
    assert flags == [True, False, True, False, True, False, True]


def test_healthy_solve_residuals():
    # each storage path reports residuals inside the contract, and they
    # match an independent recomputation against the dense operator
    params = ModelParams(1.0, 0.5)
    tr = Truncation(40)
    h = build_hamiltonian(params, tr)
    diag, off = sector_hamiltonian(params, tr, -1)
    tri = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
    for matrix, sp in ((h, eig_sym_dense(h, k=6)), (tri, eig_sym_tridiag(diag, off, k=4))):
        assert sp.meta.scale == max(1.0, np.abs(matrix).max())
        assert sp.residual_norms.max() <= RESIDUAL_RTOL * sp.meta.scale
        v, w = sp.eigenvectors, sp.eigenvalues
        recomputed = np.linalg.norm(matrix @ v - v * w, axis=0)
        assert np.abs(recomputed - sp.residual_norms).max() <= 1e-12 * sp.meta.scale


def test_degeneracy_threshold_scales_with_matrix():
    # gap of 1e-9 on a scale-1 matrix is not flagged; same gap is flagged
    # once the overall scale makes it relatively tiny
    base = np.diag([0.0, 1e-9, 1.0])
    sp = eig_sym_dense(base)
    assert list(sp.near_degenerate) == [False, False]
    big = np.diag([0.0, 1e-9, 1e7])
    sp_big = eig_sym_dense(big)
    assert bool(sp_big.near_degenerate[0]) is True
    assert DEGENERACY_RTOL == 1e-12


@pytest.mark.parametrize("solver", ["eigh", "eigh_tridiagonal"])
def test_contract_violation_raises(monkeypatch, solver):
    # LAPACK's output is corrupted before the contract sees it.  A NaN
    # column must fail every comparison, not slip past them; one vector
    # tilted by 1e-6 out of its eigenspace (still unit-norm and orthogonal
    # to the others) must fail on its residual alone
    params = ModelParams(1.0, 0.5)
    tr = Truncation(40)
    if solver == "eigh":
        h = build_hamiltonian(params, tr)
        solve, path = (lambda: eig_sym_dense(h, k=6)), "dense-evr"
    else:
        diag, off = sector_hamiltonian(params, tr, 1)
        solve, path = (lambda: eig_sym_tridiag(diag, off, k=6)), "tridiag"
    original = getattr(scipy.linalg, solver)

    def corrupt(change):
        def patched(*args, **kwargs):
            w, v = original(*args, **kwargs)
            v = v.copy()
            change(v)
            return w, v

        monkeypatch.setattr(scipy.linalg, solver, patched)

    def nan_column(v):
        v[:, 1] = np.nan

    def tilt_first(v):
        noise = np.random.default_rng(1).standard_normal(v.shape[0])
        noise -= v @ (v.T @ noise)
        bad = v[:, 0] + 1e-6 * noise / np.linalg.norm(noise)
        v[:, 0] = bad / np.linalg.norm(bad)

    corrupt(nan_column)
    with pytest.raises(SolverError, match=rf"^{path}: contract violated at levels \[1\]: "):
        solve()

    corrupt(tilt_first)
    with pytest.raises(SolverError) as info:
        solve()
    found = re.fullmatch(
        rf"{path}: contract violated at levels \[0\]: max residual (?P<res>\S+) "
        r"\(tol (?P<tol>[^)]+)\), max norm defect (?P<norm>\S+), max overlap (?P<overlap>\S+)",
        str(info.value),
    )
    assert found is not None, str(info.value)
    residual, tol, norm, overlap = (float(x) for x in found.groups())
    assert tol < residual <= 1e-3
    assert norm <= NORM_TOL
    assert overlap <= ORTHO_TOL
