"""Per-state parity measures, pair diagnostics, and onset location."""

import math

import numpy as np
import pytest

from rabi_lab.eigensolve import eig_sym_dense
from rabi_lab.model import (
    ModelParams,
    Truncation,
    build_hamiltonian,
    critical_coupling,
    parity_diagonal,
)
from rabi_lab.parity import (
    fock_populations,
    pair_report,
    parity_expectation,
    subspace_parity_trace,
)
from rabi_lab.sweeps import coupling_sweep, grid_values, phase_boundary_scan


def _basis_state(n, s, trunc):
    v = np.zeros(trunc.dim)
    v[2 * n + (s == -1)] = 1.0
    return v


def test_parity_expectation_on_basis_states():
    tr = Truncation(6)
    # parity of |n, s> is s * (-1)^n
    assert parity_expectation(_basis_state(0, 1, tr), tr) == 1.0
    assert parity_expectation(_basis_state(0, -1, tr), tr) == -1.0
    assert parity_expectation(_basis_state(1, -1, tr), tr) == 1.0
    assert parity_expectation(_basis_state(3, 1, tr), tr) == -1.0


def test_parity_expectation_rejects_unnormalized():
    tr = Truncation(4)
    with pytest.raises(ValueError):
        parity_expectation(2.0 * _basis_state(0, 1, tr), tr)
    with pytest.raises(ValueError):
        parity_expectation(np.zeros(tr.dim), tr)


def test_parity_expectation_bounded_random_states():
    tr = Truncation(25)
    rng = np.random.default_rng(17)
    for _ in range(50):
        v = rng.standard_normal(tr.dim)
        v /= np.linalg.norm(v)
        p = parity_expectation(v, tr)
        assert -1.0 <= p <= 1.0


def test_equal_mixture_has_zero_parity():
    tr = Truncation(5)
    v = (_basis_state(0, 1, tr) + _basis_state(0, -1, tr)) / math.sqrt(2.0)
    assert abs(parity_expectation(v, tr)) <= 1e-15


def test_sector_weights_and_consistency():
    tr = Truncation(30)
    even = parity_diagonal(tr) > 0
    rng = np.random.default_rng(23)
    for _ in range(20):
        v = rng.standard_normal(tr.dim)
        v /= np.linalg.norm(v)
        w_plus, w_minus = float((v[even] ** 2).sum()), float((v[~even] ** 2).sum())
        assert w_plus >= 0.0 and w_minus >= 0.0
        assert abs(w_plus + w_minus - 1.0) <= 1e-12
        assert abs((w_plus - w_minus) - parity_expectation(v, tr)) <= 1e-12


def test_fock_populations_basis_and_random():
    tr = Truncation(8)
    fp = fock_populations(_basis_state(3, 1, tr), tr)
    assert fp.populations[3] == 1.0
    assert fp.p_odd == 1.0 and fp.p_even == 0.0
    rng = np.random.default_rng(29)
    v = rng.standard_normal(tr.dim)
    v /= np.linalg.norm(v)
    fp = fock_populations(v, tr)
    assert abs(fp.populations.sum() - 1.0) <= 1e-12
    assert abs(fp.p_even + fp.p_odd - 1.0) <= 1e-12
    # marginal over spin, by hand
    want = v[0::2] ** 2 + v[1::2] ** 2
    assert np.abs(fp.populations - want).max() <= 1e-15


def test_parity_reconstructed_from_sector_resolved_populations():
    # <P> must equal the even/odd population difference taken with the
    # sector sign: (even_+ - odd_+) - (even_- - odd_-)
    tr = Truncation(40)
    rng = np.random.default_rng(31)
    signs = (-1.0) ** np.arange(tr.n_trunc)
    for _ in range(10):
        v = rng.standard_normal(tr.dim)
        v /= np.linalg.norm(v)
        up = v[0::2] ** 2
        dn = v[1::2] ** 2
        recon = float(signs @ up - signs @ dn)
        assert abs(recon - parity_expectation(v, tr)) <= 1e-12


def test_subspace_trace_invariant_under_rotation():
    tr = Truncation(6)
    v_even = _basis_state(0, 1, tr)
    v_odd = _basis_state(0, -1, tr)
    pair = np.column_stack([v_even, v_odd])
    for theta in (0.0, 0.3, 0.25 * math.pi, 1.2):
        c, s = math.cos(theta), math.sin(theta)
        rot = np.array([[c, -s], [s, c]])
        mixed = pair @ rot
        assert abs(subspace_parity_trace(mixed, tr)) <= 1e-14
        p0 = parity_expectation(mixed[:, 0], tr)
        p1 = parity_expectation(mixed[:, 1], tr)
        assert abs(p0 + p1) <= 1e-14
        assert abs(p0 - math.cos(2.0 * theta)) <= 1e-14


def test_pair_report_regular_regime():
    params = ModelParams(1.0, 0.5 * critical_coupling(1.0))
    tr = Truncation(60)
    sp = eig_sym_dense(build_hamiltonian(params, tr), k=8)
    pairs = pair_report(sp, params, tr)
    assert [p.pair_index for p in pairs] == [0, 1, 2, 3]
    for p in pairs:
        assert p.regular
        assert not p.degenerate
        assert abs(p.parity_sum) <= 1e-12
        assert p.parity[0] * p.parity[1] < 0.0
        assert abs((p.energies[1] - p.energies[0]) - p.gap_shifted) <= 1e-12
        assert p.energies[0] <= p.energies[1]
        shift = params.g * params.g
        assert abs(p.energies_shifted[0] - (p.energies[0] + shift)) <= 1e-12
        for side in (0, 1):
            assert abs(p.p_even[side] + p.p_odd[side] - 1.0) <= 1e-12


def test_pair_report_flags_degenerate_doublets():
    params = ModelParams(0.0, 1.0)
    tr = Truncation(80)
    sp = eig_sym_dense(build_hamiltonian(params, tr), k=4)
    pairs = pair_report(sp, params, tr)
    assert all(p.degenerate for p in pairs)


def test_pair_report_validation():
    params = ModelParams(1.0, 0.5)
    tr = Truncation(20)
    sp = eig_sym_dense(build_hamiltonian(params, tr), k=4)
    with pytest.raises(ValueError):
        pair_report(sp, params, tr, eps_par=0.0)
    with pytest.raises(ValueError):
        pair_report(sp, params, tr, eps_par=1.0)
    single = eig_sym_dense(build_hamiltonian(params, tr), k=1)
    with pytest.raises(ValueError):
        pair_report(single, params, tr)


def test_onset_none_in_regular_window():
    res = phase_boundary_scan(
        [5.0], (0,), ratio_grid=grid_values(0.2, 0.8, 0.2), trunc=Truncation(40)
    )
    assert dict(zip(res.columns, res.rows[0]))["found"] == 0


def test_onset_grid_validation():
    with pytest.raises(ValueError):
        phase_boundary_scan([1.0], (0,), ratio_grid=[], trunc=Truncation(20))
    with pytest.raises(ValueError, match="strictly increasing"):
        phase_boundary_scan([1.0], (0,), ratio_grid=[0.5, 0.4], trunc=Truncation(20))
    with pytest.raises(ValueError):
        phase_boundary_scan([1.0], (-1,), ratio_grid=[0.1, 0.2], trunc=Truncation(20))


def test_min_pair_parity_curves_regular_window():
    ratios = grid_values(0.1, 0.5, 0.2)
    res = coupling_sweep(2.0, ratio_grid=ratios, n_levels=4, trunc=Truncation(40))
    recs = [dict(zip(res.columns, row)) for row in res.rows]
    curves = {}
    for rec in recs:
        curves.setdefault(rec["pair_index"], {}).setdefault(rec["g_over_gc"], []).append(
            abs(rec["parity"])
        )
    assert set(curves) == {0, 1}
    for per_point in curves.values():
        assert len(per_point) == len(ratios)
        assert all(len(pair) == 2 and min(pair) > 0.999 for pair in per_point.values())
