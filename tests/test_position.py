"""Oscillator-function table, grids, wavefunction synthesis, mirror defect."""

import math

import numpy as np
import pytest

from rabi_lab.model import ModelParams, Truncation, critical_coupling
from rabi_lab.parity import parity_expectation
from rabi_lab.position import (
    ALIASING_N,
    ALIASING_STEP,
    PositionGrid,
    hermite_basis,
    position_wavefunction,
    symmetry_defect,
)
from rabi_lab.sweeps import solve_point

from oracles import gram_matrix


def test_grid_symmetric_and_uniform():
    grid = PositionGrid(10.0, 0.02)
    xi = grid.xi
    assert xi[0] == -xi[-1]
    assert 0.0 in xi
    steps = np.diff(xi)
    assert np.abs(steps - grid.step).max() <= 1e-12
    # mirror exactness matters for the defect quadrature
    assert np.array_equal(xi, -xi[::-1])


def test_grid_validation():
    with pytest.raises(ValueError):
        PositionGrid(0.0, 0.02)
    with pytest.raises(ValueError):
        PositionGrid(10.0, 0.0)
    with pytest.raises(ValueError):
        PositionGrid(10.0, -0.1)
    # a window too wide to count, then one of 2e13 points (146 TiB, more
    # than a process can map): refused as input errors, no memory touched
    for xi_max, step, message in (
        (1e300, 1e-10, r"^grid of xi_max 1e\+300 and step 1e-10 has too many points to count$"),
        (1e6, 1e-7, r"^grid of xi_max 1000000\.0 and step 1e-07 has too many points to allocate$"),
    ):
        with pytest.raises(ValueError, match=message):
            PositionGrid(xi_max, step)


def test_default_grid_scales_with_coupling():
    assert PositionGrid.default_for(0.0).xi_max == 10.0
    wide = PositionGrid.default_for(5.0)
    assert wide.xi_max >= 4.0 * 5.0 + 8.0 - 1e-12


def test_ground_oscillator_function_values():
    grid = PositionGrid(8.0, 0.05)
    table = hermite_basis(grid, 3)
    i0 = int(np.flatnonzero(grid.xi == 0.0)[0])
    # pi^(-1/4) at the origin for the ground function, zero for the first
    assert abs(table[0, i0] - math.pi ** -0.25) <= 1e-15
    assert table[1, i0] == 0.0
    # parity alternates: even rows symmetric, odd rows antisymmetric
    assert np.abs(table[0] - table[0][::-1]).max() <= 1e-15
    assert np.abs(table[1] + table[1][::-1]).max() <= 1e-15
    assert np.abs(table[2] - table[2][::-1]).max() <= 1e-15


def test_gram_matrix_orthonormal():
    grid = PositionGrid(18.0, 0.02)
    table = hermite_basis(grid, 51)
    gram = gram_matrix(table, grid.step)
    assert np.abs(gram - np.eye(51)).max() <= 1e-8


def test_recurrence_stable_to_high_order():
    # normalized three-term recurrence must stay bounded out to n=1000
    grid = PositionGrid(40.0, 0.05)
    table = hermite_basis(grid, 1000)
    assert np.all(np.isfinite(table))
    assert np.abs(table).max() <= 1.1


def test_aliasing_guard():
    coarse = PositionGrid(20.0, 0.12)
    with pytest.raises(ValueError):
        hermite_basis(coarse, ALIASING_N + 50)
    # same step is fine for low orders
    table = hermite_basis(coarse, 50)
    assert np.all(np.isfinite(table))
    assert ALIASING_STEP == 0.1


def test_hermite_basis_count_validation():
    grid = PositionGrid(10.0, 0.05)
    for bad in (2.5, 3.0, True, "3"):
        with pytest.raises(ValueError, match=f"^n_max must be an integer, got {bad!r}$"):
            hermite_basis(grid, bad)
    with pytest.raises(ValueError, match="^n_max must be >= 1, got 0$"):
        hermite_basis(grid, 0)


def test_wavefunction_of_uncoupled_ground_state():
    params = ModelParams(1.0, 0.0)
    tr = Truncation(30)
    sp = solve_point(params, tr, 1)
    grid = PositionGrid(10.0, 0.02)
    (wf,) = position_wavefunction(sp.eigenvectors, grid, tr)
    # ground state at g=0 is |n=0, s=-1>: all weight in the minus component
    assert np.abs(wf.psi_plus).max() <= 1e-14
    peak = np.abs(wf.psi_minus).max()
    assert abs(peak - math.pi ** -0.25) <= 1e-12
    assert abs(wf.quadrature_norm() - 1.0) <= 1e-6
    assert symmetry_defect(wf) <= 1e-10


def test_wavefunction_rejects_clipped_grid():
    params = ModelParams(1.0, 3.0 * critical_coupling(1.0))
    tr = Truncation(300)
    sp = solve_point(params, tr, 1)
    with pytest.raises(ValueError):
        position_wavefunction(sp.eigenvectors, PositionGrid(3.0, 0.02), tr)


def test_wavefunction_length_mismatch():
    tr = Truncation(10)
    with pytest.raises(ValueError):
        position_wavefunction(np.zeros((7, 1)), PositionGrid(5.0, 0.1), tr)
    # a block, not a single vector
    with pytest.raises(ValueError):
        position_wavefunction(np.zeros(tr.dim), PositionGrid(5.0, 0.1), tr)


def test_defect_zero_for_pure_and_one_for_equal_mixture():
    tr = Truncation(12)
    grid = PositionGrid(10.0, 0.02)
    states = np.zeros((tr.dim, 2))
    # basis index 2n + (s == -1): (0, +1) is 0 and (0, -1) is 1
    states[0, 0] = 1.0
    states[0, 1] = 1.0 / math.sqrt(2.0)
    states[1, 1] = 1.0 / math.sqrt(2.0)
    pure, mixed = position_wavefunction(states, grid, tr)
    assert symmetry_defect(pure) <= 1e-10
    assert abs(symmetry_defect(mixed) - 1.0) <= 1e-6


def test_defect_matches_parity_purity():
    params = ModelParams(5.0, 1.1 * critical_coupling(5.0))
    tr = Truncation(120)
    sp = solve_point(params, tr, 2)
    grid = PositionGrid.default_for(params.g)
    for lv, wf in enumerate(position_wavefunction(sp.eigenvectors, grid, tr)):
        v = sp.eigenvectors[:, lv]
        defect = symmetry_defect(wf)
        purity_gap = 1.0 - abs(parity_expectation(v, tr))
        assert abs(defect - purity_gap) <= 1e-4
        assert abs(wf.quadrature_norm() - 1.0) <= 1e-6
