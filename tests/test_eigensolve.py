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
from rabi_lab.sweeps import solve_point

from oracles import dense_from_blocks, jacobi_eigh, random_blocks


def _solve_blocks(blocks, k):
    """eig_sym_dense on the matrix written from the blocks."""
    dim = sum(len(diag) for _, diag, _ in blocks)
    return eig_sym_dense(dense_from_blocks(dim, blocks), blocks, k)


def _diagonal(values):
    """One block holding a diagonal matrix."""
    return [(np.arange(len(values)), np.asarray(values, dtype=float), np.zeros(len(values) - 1))]


def test_dense_matches_jacobi_oracle():
    rng = np.random.default_rng(42)
    for _ in range(5):
        blocks = random_blocks(rng, 12)
        w_oracle, _ = jacobi_eigh(dense_from_blocks(12, blocks))
        sp = _solve_blocks(blocks, 12)
        assert np.abs(sp.eigenvalues - w_oracle).max() <= 1e-12


def test_dense_and_tridiag_paths_agree():
    params = ModelParams(1.0, 0.8)
    tr = Truncation(40)
    diag, off = sector_hamiltonian(params, tr, 1)
    sp_d = _solve_blocks([(np.arange(tr.n_trunc), diag, off)], tr.n_trunc)
    sp_t = eig_sym_tridiag(diag, off, tr.n_trunc)
    scale = max(1.0, np.abs(diag).max(), np.abs(off).max())
    assert np.abs(sp_d.eigenvalues - sp_t.eigenvalues).max() <= 1e-11 * scale


def test_contract_properties_random_instance():
    rng = np.random.default_rng(3)
    blocks = random_blocks(rng, 30, scale=5.0)
    scale = max(1.0, np.abs(dense_from_blocks(30, blocks)).max())
    sp = _solve_blocks(blocks, 10)
    assert sp.k == 10
    assert sp.meta.scale == scale
    assert np.all(np.diff(sp.eigenvalues) >= 0.0)
    norms = np.linalg.norm(sp.eigenvectors, axis=0)
    assert np.abs(norms - 1.0).max() <= NORM_TOL
    gram = sp.eigenvectors.T @ sp.eigenvectors
    assert np.abs(gram - np.eye(10)).max() <= ORTHO_TOL
    assert sp.residual_norms.max() <= RESIDUAL_RTOL * scale
    assert len(sp.near_degenerate) == 9


def test_subset_matches_head_of_full_solve():
    rng = np.random.default_rng(8)
    blocks = random_blocks(rng, 25)
    full = _solve_blocks(blocks, 25)
    head = _solve_blocks(blocks, 6)
    assert np.abs(full.eigenvalues[:6] - head.eigenvalues).max() <= 1e-12


def test_input_validation():
    # every check runs on the blocks before LAPACK touches the matrix
    blocks = _diagonal(np.ones(4))
    for k in (0, 5):
        matrix = np.eye(4, order="F")
        with pytest.raises(ValueError, match=rf"^k must be in \[1, 4\], got {k}$"):
            eig_sym_dense(matrix, blocks, k)
        assert np.array_equal(matrix, np.eye(4))
    with pytest.raises(ValueError, match="^tridiagonal entries must be finite$"):
        _solve_blocks([*_diagonal([1.0, 2.0]), (np.array([2]), np.array([np.inf]), np.zeros(0))], 1)
    with pytest.raises(ValueError):
        eig_sym_tridiag(np.ones(4), np.ones(4), 2)
    with pytest.raises(ValueError, match="^tridiagonal entries must be finite$"):
        eig_sym_tridiag(np.array([1.0, np.nan]), np.array([0.2]), 1)
    # a float level count is refused, not floored or passed on to LAPACK
    with pytest.raises(ValueError, match="^k must be an integer, got 2.7$"):
        _solve_blocks(_diagonal(np.arange(6.0)), 2.7)
    with pytest.raises(ValueError, match="^k must be an integer, got 2.5$"):
        eig_sym_tridiag(np.arange(6.0), np.ones(5), 2.5)
    # nor is a bool, though Python counts it as an int
    with pytest.raises(ValueError, match="^k must be an integer, got True$"):
        _solve_blocks(_diagonal(np.ones(3)), True)
    with pytest.raises(ValueError, match="^k must be an integer, got False$"):
        eig_sym_tridiag(np.arange(6.0), np.ones(5), False)


def test_repeat_solve_is_bitwise_identical():
    # each solve builds a fresh matrix and overwrites it
    params = ModelParams(1.0, 2.0)
    tr = Truncation(80)
    sp1 = solve_point(params, tr, 8)
    sp2 = solve_point(params, tr, 8)
    assert np.array_equal(sp1.eigenvalues, sp2.eigenvalues)
    assert np.array_equal(sp1.eigenvectors, sp2.eigenvectors)


def test_exact_ties_ordered_by_first_support():
    # diag(3, 1, 1, 2, 1) split over two blocks, the tie at 1 across both
    blocks = [
        (np.array([4, 1]), np.array([1.0, 1.0]), np.zeros(1)),
        (np.array([0, 2, 3]), np.array([3.0, 1.0, 2.0]), np.zeros(2)),
    ]
    sp = _solve_blocks(blocks, 5)
    assert np.array_equal(sp.eigenvalues, np.array([1.0, 1.0, 1.0, 2.0, 3.0]))
    supports = [int(np.flatnonzero(np.abs(sp.eigenvectors[:, i]) > 1e-12)[0]) for i in range(3)]
    assert supports == sorted(supports)
    assert supports == [1, 2, 4]


def test_near_degenerate_flags_paired_levels():
    # spin splitting off: levels come in exactly degenerate pairs, so the
    # in-pair gaps flag and the unit gaps between pairs do not
    sp = solve_point(ModelParams(0.0, 1.0), Truncation(60), 8)
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
    for matrix, sp in ((h, solve_point(params, tr, 6)), (tri, eig_sym_tridiag(diag, off, k=4))):
        assert sp.meta.scale == max(1.0, np.abs(matrix).max())
        assert sp.residual_norms.max() <= RESIDUAL_RTOL * sp.meta.scale
        v, w = sp.eigenvectors, sp.eigenvalues
        recomputed = np.linalg.norm(matrix @ v - v * w, axis=0)
        assert np.abs(recomputed - sp.residual_norms).max() <= 1e-12 * sp.meta.scale


def test_degeneracy_threshold_scales_with_matrix():
    # gap of 1e-9 on a scale-1 matrix is not flagged; same gap is flagged
    # once the overall scale makes it relatively tiny
    sp = _solve_blocks(_diagonal([0.0, 1e-9, 1.0]), 3)
    assert list(sp.near_degenerate) == [False, False]
    sp_big = _solve_blocks(_diagonal([0.0, 1e-9, 1e7]), 3)
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
        solve, path = (lambda: solve_point(params, tr, 6)), "dense-evr"
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
