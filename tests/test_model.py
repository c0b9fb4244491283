"""Hamiltonian and parity assembly checks against independent constructions."""

import math

import numpy as np
import pytest

from rabi_lab.model import (
    BANDWIDTH,
    ModelParams,
    Truncation,
    build_hamiltonian,
    critical_coupling,
    parity_diagonal,
    sector_hamiltonian,
    shifted_energy,
)
from rabi_lab.eigensolve import eig_sym_tridiag
from rabi_lab.sweeps import solve_point

from oracles import jacobi_eigh, spin_rotation, spin_z_hamiltonian


def test_params_validation():
    with pytest.raises(ValueError):
        ModelParams(delta=-1.0, g=0.5)
    with pytest.raises(ValueError):
        ModelParams(delta=1.0, g=-0.5)
    with pytest.raises(ValueError):
        ModelParams(delta=float("nan"), g=0.5)
    with pytest.raises(ValueError):
        ModelParams(delta=1.0, g=float("inf"))
    p = ModelParams(delta=0.0, g=0.0)
    assert p.delta == 0.0 and p.g == 0.0


def test_truncation_validation():
    for bad in (0, 1, -3):
        with pytest.raises(ValueError):
            Truncation(bad)
    with pytest.raises(ValueError):
        Truncation(2.5)
    with pytest.raises(ValueError, match="^n_trunc must be an integer, got True$"):
        Truncation(True)
    assert Truncation(2).dim == 4
    assert Truncation(1000).dim == 2000


def test_critical_coupling_closed_form():
    # sqrt(1 + sqrt(1 + delta^2/16)) evaluated independently
    assert critical_coupling(0.0) == math.sqrt(2.0)
    assert abs(critical_coupling(1.0) - math.sqrt(1.0 + math.sqrt(17.0) / 4.0)) < 1e-15
    assert abs(critical_coupling(50.0) - math.sqrt(1.0 + math.sqrt(157.25))) < 1e-15


def test_critical_coupling_monotone_in_delta():
    deltas = np.linspace(0.0, 80.0, 200)
    vals = np.array([critical_coupling(d) for d in deltas])
    assert np.all(np.diff(vals) > 0.0)
    assert np.all(vals >= math.sqrt(2.0))


def test_shifted_energy_scalar_and_array():
    p = ModelParams(delta=0.0, g=2.0)
    assert shifted_energy(-4.0, p) == 0.0
    arr = shifted_energy(np.array([-4.0, -3.0]), p)
    assert np.array_equal(arr, np.array([0.0, 1.0]))


def test_parity_diagonal_from_basis_labels():
    # flattened index 2n + (s == -1), photon number major and spin minor,
    # carries parity s * (-1)**n; the closed form must give those bits
    for n_trunc in range(2, 65):
        want = np.empty(2 * n_trunc)
        for n in range(n_trunc):
            for s in (1, -1):
                want[2 * n + (s == -1)] = s * (-1) ** n
        got = parity_diagonal(Truncation(n_trunc))
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def test_parity_pattern_small():
    pd = parity_diagonal(Truncation(2))
    assert list(pd) == [1.0, -1.0, -1.0, 1.0]
    pd = parity_diagonal(Truncation(3))
    assert list(pd) == [1.0, -1.0, -1.0, 1.0, 1.0, -1.0]


def test_parity_matrix_is_diagonal_involution():
    pd = parity_diagonal(Truncation(20))
    assert pd.shape == (40,)
    assert set(np.unique(pd)) == {-1.0, 1.0}
    assert np.array_equal(pd * pd, np.ones(40))


def test_hamiltonian_bitwise_symmetric():
    rng = np.random.default_rng(7)
    for _ in range(20):
        delta = float(rng.uniform(0.0, 50.0))
        g = float(rng.uniform(0.0, 6.0))
        n = int(rng.integers(2, 60))
        h = build_hamiltonian(ModelParams(delta, g), Truncation(n))
        assert np.array_equal(h, h.T)


def test_commutator_with_parity_vanishes_exactly():
    # coupling only links same-parity basis states, so H P - P H has no
    # rounding to accumulate: the difference is exactly zero
    rng = np.random.default_rng(11)
    for _ in range(25):
        delta = float(rng.uniform(0.0, 50.0))
        n = int(rng.integers(2, 50))
        g = float(rng.uniform(0.0, 6.0 * critical_coupling(delta)))
        tr = Truncation(n)
        h = build_hamiltonian(ModelParams(delta, g), tr)
        p = parity_diagonal(tr)
        # H P - P H with P = diag(p)
        assert np.abs(h * p[None, :] - p[:, None] * h).max() == 0.0


def test_hamiltonian_entries_explicit():
    # the interleaved-index formula, written out: diagonal n +- delta/2, and
    # the coupling g sqrt(m + 1) joining (m, +1)-(m+1, -1) at (2m, 2m+3) and
    # (m, -1)-(m+1, +1) at (2m+1, 2m+2); the sector assembly must match it bitwise
    for n_trunc in (2, 3, 9, 40):
        for delta in (0.0, 2.5, 50.0):
            for g in (0.0, 1.7):
                want = np.zeros((2 * n_trunc, 2 * n_trunc))
                n = np.arange(n_trunc)
                want[2 * n, 2 * n] = n + 0.5 * delta
                want[2 * n + 1, 2 * n + 1] = n - 0.5 * delta
                m = np.arange(n_trunc - 1)
                c = g * np.sqrt(m + 1.0)
                want[2 * m, 2 * m + 3] = want[2 * m + 3, 2 * m] = c
                want[2 * m + 1, 2 * m + 2] = want[2 * m + 2, 2 * m + 1] = c
                h = build_hamiltonian(ModelParams(delta, g), Truncation(n_trunc))
                assert np.array_equal(h, want)
                assert h.tobytes() == want.tobytes()


def test_hamiltonian_matches_spin_z_kron_assembly():
    # same operator built in the spin-z product basis, then rotated into
    # the spin-x layout, must match entrywise up to rotation roundoff
    for delta, g, n in ((1.0, 0.3, 8), (5.0, 1.7, 12), (0.0, 0.9, 6)):
        h = build_hamiltonian(ModelParams(delta, g), Truncation(n))
        hz = spin_z_hamiltonian(delta, g, n)
        u = spin_rotation(n)
        rotated = u.T @ hz @ u
        scale = max(1.0, np.abs(h).max())
        assert np.abs(rotated - h).max() <= 1e-14 * scale


def test_spectrum_matches_jacobi_on_spin_z_assembly():
    # full independence: different basis, different eigensolver
    delta, g, n = 1.0, 0.3, 8
    spectrum = solve_point(ModelParams(delta, g), Truncation(n), 2 * n)
    wz, _ = jacobi_eigh(spin_z_hamiltonian(delta, g, n))
    assert np.abs(spectrum.eigenvalues - wz).max() <= 1e-12


def test_coupling_zero_spectrum_closed_form():
    delta, n = 3.7, 20
    spectrum = solve_point(ModelParams(delta, 0.0), Truncation(n), 2 * n)
    expected = np.sort(
        np.concatenate(
            [np.arange(n) + delta / 2.0, np.arange(n) - delta / 2.0]
        )
    )
    assert np.abs(spectrum.eigenvalues - expected).max() <= 1e-12


def test_zero_splitting_ground_energy():
    # delta = 0 decouples the spin: every level sits at n - g^2 exactly,
    # doubly degenerate; truncation must be generous for large g
    g = 1.5
    tr = Truncation(200)
    for sector in (1, -1):
        diag, off = sector_hamiltonian(ModelParams(0.0, g), tr, sector)
        sp = eig_sym_tridiag(diag, off, k=1)
        assert abs(sp.eigenvalues[0] + g * g) <= 1e-8


def test_sector_entries_explicit():
    delta, g, n = 2.0, 0.7, 5
    for sector in (1, -1):
        diag, off = sector_hamiltonian(ModelParams(delta, g), Truncation(n), sector)
        want_diag = np.array(
            [m + sector * ((-1.0) ** m) * delta / 2.0 for m in range(n)]
        )
        want_off = np.array([g * math.sqrt(m + 1.0) for m in range(n - 1)])
        assert np.array_equal(diag, want_diag)
        assert np.abs(off - want_off).max() <= 1e-16
    with pytest.raises(ValueError):
        sector_hamiltonian(ModelParams(delta, g), Truncation(n), 0)


def test_hamiltonian_is_zero_beyond_its_bandwidth():
    # eig_sym_dense checks and verifies a solve on the band alone, so every
    # entry beyond it, in either triangle, must be exactly zero; the
    # coupling fills the outermost band diagonal, so the band is no wider
    for delta, g, n in ((0.0, 0.0, 2), (1.0, 0.5, 3), (50.0, 4.0, 40), (1e3, 1e2, 101)):
        h = build_hamiltonian(ModelParams(delta, g), Truncation(n))
        rows, cols = np.indices(h.shape)
        assert not h[np.abs(rows - cols) > BANDWIDTH].any()
        assert np.diagonal(h, -BANDWIDTH).any() == (g > 0)


def test_sector_union_matches_full_spectrum():
    params = ModelParams(1.3, 0.7)
    tr = Truncation(30)
    full = solve_point(params, tr, tr.dim).eigenvalues
    parts = []
    for sector in (1, -1):
        diag, off = sector_hamiltonian(params, tr, sector)
        parts.append(eig_sym_tridiag(diag, off, tr.n_trunc).eigenvalues)
    union = np.sort(np.concatenate(parts))
    assert np.abs(full - union).max() <= 1e-10


def test_normal_phase_parity_purity():
    # below half the critical coupling every low state keeps a sharp parity
    params = ModelParams(1.0, 0.45 * critical_coupling(1.0))
    tr = Truncation(60)
    sp = solve_point(params, tr, 6)
    pd = parity_diagonal(tr)
    for i in range(6):
        v = sp.eigenvectors[:, i]
        assert 1.0 - abs(float(v @ (pd * v))) <= 1e-9
