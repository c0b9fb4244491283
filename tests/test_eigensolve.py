"""Solver wrapper contracts: ordering, residuals, determinism, tie-breaking."""

import re
import warnings

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
from rabi_lab.model import (
    BANDWIDTH,
    ModelParams,
    Truncation,
    build_hamiltonian,
    sector_hamiltonian,
)
from rabi_lab.sweeps import solve_point

from oracles import jacobi_eigh, random_band


def _solve(matrix, bandwidth, k):
    """eig_sym_dense on a copy, so the caller's matrix survives the in-place solve."""
    return eig_sym_dense(matrix.copy(order="F"), bandwidth, k)


def _diagonal(values):
    return np.diag(np.asarray(values, dtype=float))


def test_dense_matches_jacobi_oracle():
    rng = np.random.default_rng(42)
    for bandwidth in (0, 1, 3, 5, 11):
        m = random_band(rng, 12, bandwidth)
        w_oracle, _ = jacobi_eigh(m)
        sp = _solve(m, bandwidth, 12)
        assert np.abs(sp.eigenvalues - w_oracle).max() <= 1e-12


def test_dense_and_tridiag_paths_agree():
    params = ModelParams(1.0, 0.8)
    tr = Truncation(40)
    diag, off = sector_hamiltonian(params, tr, 1)
    tri = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
    sp_d = _solve(tri, 1, tr.n_trunc)
    sp_t = eig_sym_tridiag(diag, off, tr.n_trunc)
    scale = max(1.0, np.abs(diag).max(), np.abs(off).max())
    assert np.abs(sp_d.eigenvalues - sp_t.eigenvalues).max() <= 1e-11 * scale


def test_tridiag_split_by_a_zero_solves_each_block_apart():
    # two blocks joined by an exact zero, as the sector merge joins the
    # parity sectors: the lowest k of the union, each vector on one block
    rng = np.random.default_rng(7)
    diag, off = rng.normal(size=12), rng.normal(size=11)
    off[6] = 0.0
    sp = eig_sym_tridiag(diag, off, 6)
    full = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
    union = np.sort(np.r_[np.linalg.eigvalsh(full[:7, :7]), np.linalg.eigvalsh(full[7:, 7:])])
    assert np.abs(sp.eigenvalues - union[:6]).max() <= 1e-12
    on_first = [not sp.eigenvectors[7:, i].any() for i in range(6)]
    on_second = [not sp.eigenvectors[:7, i].any() for i in range(6)]
    assert all(a != b for a, b in zip(on_first, on_second))
    assert any(on_first) and any(on_second)


def test_contract_properties_random_instance():
    rng = np.random.default_rng(3)
    m = random_band(rng, 30, 3, scale=5.0)
    scale = max(1.0, np.abs(m).max())
    sp = _solve(m, 3, 10)
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
    m = random_band(rng, 25, 2)
    full = _solve(m, 2, 25)
    head = _solve(m, 2, 6)
    assert np.abs(full.eigenvalues[:6] - head.eigenvalues).max() <= 1e-12


def test_large_finite_entries_pass_the_contract():
    # residuals are normed in units of scale: at entries near 1e200 their
    # squares would overflow to inf and fail a healthy solve; and LAPACK's
    # tridiagonal bisection fails from about 1e154 on an unscaled band
    rng = np.random.default_rng(5)
    for scale in (1e154, 1e200, 1e300):
        dense, tri = random_band(rng, 30, 3, scale=scale), random_band(rng, 30, 1, scale=scale)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            solved = [
                (dense, _solve(dense, 3, 8)),
                (tri, eig_sym_tridiag(np.diag(tri), np.diag(tri, -1), 8)),
            ]
        for m, sp in solved:
            assert sp.meta.scale == np.abs(m).max()
            assert sp.residual_norms.max() <= RESIDUAL_RTOL * sp.meta.scale


def test_entry_beyond_the_bandwidth_fails_the_contract():
    # LAPACK solves the whole matrix, the residual sees only the band, so
    # an entry the stated bandwidth leaves out cannot pass unnoticed
    rng = np.random.default_rng(11)
    m = random_band(rng, 20, 3)
    m[15, 2] = m[2, 15] = 1.0
    with pytest.raises(SolverError, match=r"^dense-evr: contract violated at levels \["):
        _solve(m, 3, 20)
    h = build_hamiltonian(ModelParams(2.0, 1.0), Truncation(20))
    with pytest.raises(SolverError, match=r"^dense-evr: contract violated at levels \["):
        eig_sym_dense(h, BANDWIDTH - 1, 6)


def test_input_validation():
    # every check runs on the band before LAPACK touches the matrix
    for k in (0, 5):
        matrix = np.eye(4, order="F")
        with pytest.raises(ValueError, match=rf"^k must be in \[1, 4\], got {k}$"):
            eig_sym_dense(matrix, 1, k)
        assert np.array_equal(matrix, np.eye(4))
    for bandwidth, message in (
        (-1, r"must be in \[0, 3\], got -1"),
        (4, r"must be in \[0, 3\], got 4"),
        (2.0, "must be an integer, got 2.0"),
        (True, "must be an integer, got True"),
    ):
        matrix = np.eye(4, order="F")
        with pytest.raises(ValueError, match=f"^bandwidth {message}$"):
            eig_sym_dense(matrix, bandwidth, 2)
        assert np.array_equal(matrix, np.eye(4))
    inside = _diagonal([1.0, 2.0, 3.0])
    inside[2, 1] = inside[1, 2] = np.inf
    with pytest.raises(ValueError, match="^band entries must be finite$"):
        eig_sym_dense(inside, 1, 1)
    with pytest.raises(ValueError):
        eig_sym_tridiag(np.ones(4), np.ones(4), 2)
    with pytest.raises(ValueError, match="^band entries must be finite$"):
        eig_sym_tridiag(np.array([1.0, np.nan]), np.array([0.2]), 1)
    # a float level count is refused, not floored or passed on to LAPACK
    with pytest.raises(ValueError, match="^k must be an integer, got 2.7$"):
        _solve(_diagonal(np.arange(6.0)), 0, 2.7)
    with pytest.raises(ValueError, match="^k must be an integer, got 2.5$"):
        eig_sym_tridiag(np.arange(6.0), np.ones(5), 2.5)
    # nor is a bool, though Python counts it as an int
    with pytest.raises(ValueError, match="^k must be an integer, got True$"):
        _solve(_diagonal(np.ones(3)), 0, True)
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
    # diag(3, 1, 1, 2, 1): the three-fold tie at 1 sorts by basis index
    sp = _solve(_diagonal([3.0, 1.0, 1.0, 2.0, 1.0]), 0, 5)
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
    sp = _solve(_diagonal([0.0, 1e-9, 1.0]), 0, 3)
    assert list(sp.near_degenerate) == [False, False]
    sp_big = _solve(_diagonal([0.0, 1e-9, 1e7]), 0, 3)
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
