"""Solver wrapper contracts: ordering, residuals, determinism, tie-breaking."""

import numpy as np
import pytest
import scipy.linalg

from rabi_lab.eigensolve import (
    DEGENERACY_RTOL,
    NORM_TOL,
    ORTHO_TOL,
    RESIDUAL_RTOL,
    SolveMeta,
    SolverError,
    Spectrum,
    eig_sym_dense,
    eig_sym_tridiag,
    residual_report,
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
    with pytest.raises(ValueError):
        eig_sym_tridiag(np.ones(4), np.ones(4))
    with pytest.raises(ValueError):
        eig_sym_tridiag(np.array([1.0, np.nan]), np.array([0.2]))


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


def test_residual_report_accepts_healthy_solve():
    params = ModelParams(1.0, 0.5)
    tr = Truncation(40)
    h = build_hamiltonian(params, tr)
    sp = eig_sym_dense(h, k=6)
    rep = residual_report(h, sp)
    assert rep.passed
    assert rep.failing_levels == ()
    assert rep.max_residual <= rep.residual_tol


def test_residual_report_flags_perturbed_vector():
    params = ModelParams(1.0, 0.5)
    tr = Truncation(40)
    h = build_hamiltonian(params, tr)
    sp = eig_sym_dense(h, k=6)
    vecs = sp.eigenvectors.copy()
    noise = np.random.default_rng(1).standard_normal(vecs.shape[0])
    noise -= vecs @ (vecs.T @ noise)
    noise /= np.linalg.norm(noise)
    bad = vecs[:, 0] + 1e-6 * noise
    vecs[:, 0] = bad / np.linalg.norm(bad)
    tainted = type(sp)(
        eigenvalues=sp.eigenvalues,
        eigenvectors=vecs,
        residual_norms=sp.residual_norms,
        near_degenerate=sp.near_degenerate,
        meta=sp.meta,
    )
    rep = residual_report(h, tainted)
    assert not rep.passed
    assert 0 in rep.failing_levels
    assert 1e-8 <= rep.max_residual <= 1e-3


def test_residual_report_tridiagonal_input():
    params = ModelParams(1.0, 0.8)
    tr = Truncation(50)
    diag, off = sector_hamiltonian(params, tr, -1)
    sp = eig_sym_tridiag(diag, off, k=4)
    rep = residual_report((diag, off), sp)
    assert rep.passed


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
    # the solver returns one eigenvector tilted by 1e-6 out of its
    # eigenspace (still unit-norm and orthogonal to the others): the
    # residual check must refuse it, and residual_report must agree
    params = ModelParams(1.0, 0.5)
    tr = Truncation(40)
    if solver == "eigh":
        operator = build_hamiltonian(params, tr)
        solve = lambda: eig_sym_dense(operator, k=6)
    else:
        operator = sector_hamiltonian(params, tr, 1)
        solve = lambda: eig_sym_tridiag(*operator, k=6)
    original = getattr(scipy.linalg, solver)
    returned = []

    def tilted(*args, **kwargs):
        w, v = original(*args, **kwargs)
        noise = np.random.default_rng(1).standard_normal(v.shape[0])
        noise -= v @ (v.T @ noise)
        bad = v[:, 0] + 1e-6 * noise / np.linalg.norm(noise)
        v = v.copy()
        v[:, 0] = bad / np.linalg.norm(bad)
        returned.append((w, v))
        return w, v

    monkeypatch.setattr(scipy.linalg, solver, tilted)
    with pytest.raises(SolverError, match=r"levels \[0\]"):
        solve()
    (w, v), = returned
    spectrum = Spectrum(
        eigenvalues=w,
        eigenvectors=v,
        residual_norms=np.zeros(len(w)),
        near_degenerate=np.zeros(len(w) - 1, dtype=bool),
        meta=SolveMeta(dim=v.shape[0], scale=1.0),
    )
    rep = residual_report(operator, spectrum)
    assert not rep.passed
    assert rep.failing_levels == (0,)
    assert rep.max_residual > rep.residual_tol


def test_residual_report_fails_nan_vectors():
    # NaN must fail every comparison of the contract, not slip past it
    h = build_hamiltonian(ModelParams(1.0, 0.5), Truncation(20))
    sp = eig_sym_dense(h, k=3)
    sp.eigenvectors[:, 1] = np.nan
    rep = residual_report(h, sp)
    assert not rep.passed
    assert 1 in rep.failing_levels
