"""Per-state parity measures, pair diagnostics, and onset location."""

import dataclasses
import math

import numpy as np
import pytest

from rabi_lab.model import (
    ModelParams,
    Truncation,
    critical_coupling,
    parity_diagonal,
    sector_rows,
)
from rabi_lab import _blas
from rabi_lab.parity import pair_report, parity_expectation
from rabi_lab.sweeps import coupling_sweep, grid_values, phase_boundary_scan, solve_point

from oracles import parity_trace, permuted_solve, shifted_solve


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


def test_pair_report_populations_of_fock_states():
    # at g=0 every eigenvector is a Fock state |n, s>; delta=0.3 keeps the
    # levels n -+ 0.15 apart, so levels 2n and 2n+1 hold photon number n
    params = ModelParams(0.3, 0.0)
    tr = Truncation(8)
    pairs = pair_report(solve_point(params, tr, tr.dim), params, tr)
    assert [pair.pair_index for pair in pairs] == list(range(tr.n_trunc))
    for n, pair in enumerate(pairs):
        even = n % 2 == 0
        assert pair.p_even == (float(even), float(even))
        assert pair.p_odd == (float(not even), float(not even))
        assert pair.parity == (-((-1.0) ** n), (-1.0) ** n)  # s = -1 lies lower
        assert pair.parity_sum == 0.0


def _per_vector_levels(spectrum, trunc):
    """<P>, p_even, p_odd of each reported level, from a contiguous copy of its column."""
    levels = []
    for level in range(2 * (spectrum.k // 2)):
        c = np.array(spectrum.eigenvectors[:, level])
        parity = max(-1.0, min(1.0, float(np.dot(parity_diagonal(trunc), c * c))))
        pops = c[0::2] ** 2 + c[1::2] ** 2
        levels.append((parity, float(pops[0::2].sum()), float(pops[1::2].sum())))
    return levels


@pytest.mark.parametrize(
    "delta, ratio, n_trunc, k",
    [(1.0, 0.5, 40, 8), (5.0, 2.0, 200, 5), (50.0, 1.45, 1000, 8)],
    ids=["regular", "odd_level_count", "mixed_doublet"],
)
def test_pair_report_matches_per_vector_formulas_bitwise(delta, ratio, n_trunc, k):
    # the one-pass report gives the bits of the per-column formulas; the
    # parity and wavefunction_summary tables take <P> from pair_report and
    # from parity_expectation, so those two must agree exactly as well
    params = ModelParams(delta, ratio * critical_coupling(delta))
    tr = Truncation(n_trunc)
    spectrum = solve_point(params, tr, k)
    pairs = pair_report(spectrum, params, tr)
    assert len(pairs) == k // 2
    got = [
        (pair.parity[side], pair.p_even[side], pair.p_odd[side])
        for pair in pairs
        for side in (0, 1)
    ]
    assert [[x.hex() for x in level] for level in got] == [
        [x.hex() for x in level] for level in _per_vector_levels(spectrum, tr)
    ]
    for level, (parity, _, _) in enumerate(got):
        assert parity.hex() == parity_expectation(spectrum.eigenvectors[:, level], tr).hex()
    # the pair sum adds the members' unclamped <P>, and that is the trace of P
    # over the pair span up to rounding
    raw = [
        float(np.dot(parity_diagonal(tr), c * c))
        for c in (np.array(spectrum.eigenvectors[:, level]) for level in range(2 * len(pairs)))
    ]
    for k, pair in enumerate(pairs):
        lo, hi = 2 * k, 2 * k + 1
        assert pair.parity_sum.hex() == (raw[lo] + raw[hi]).hex()
        trace = parity_trace(spectrum.eigenvectors[:, lo : hi + 1], tr.n_trunc)
        assert abs(pair.parity_sum - trace) <= 1e-14


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
    params = ModelParams(5.0, 2.0 * critical_coupling(5.0))
    tr40 = Truncation(40)
    spectrum = solve_point(params, tr40, 2)
    for theta in (0.0, 0.3, 0.25 * math.pi, 1.2):
        c, s = math.cos(theta), math.sin(theta)
        rot = np.array([[c, -s], [s, c]])
        mixed = pair @ rot
        assert abs(parity_trace(mixed, tr.n_trunc)) <= 1e-14
        p0 = parity_expectation(mixed[:, 0], tr)
        p1 = parity_expectation(mixed[:, 1], tr)
        assert abs(p0 + p1) <= 1e-14
        assert abs(p0 - math.cos(2.0 * theta)) <= 1e-14
        # a solved doublet rotated inside its span keeps a zero pair sum
        rotated = spectrum.eigenvectors @ rot
        (report,) = pair_report(dataclasses.replace(spectrum, eigenvectors=rotated), params, tr40)
        assert abs(report.parity_sum) <= 1e-14


def test_pair_report_regular_regime():
    params = ModelParams(1.0, 0.5 * critical_coupling(1.0))
    tr = Truncation(60)
    sp = solve_point(params, tr, 8)
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
    sp = solve_point(params, tr, 4)
    pairs = pair_report(sp, params, tr)
    assert all(p.degenerate for p in pairs)


def test_pair_report_validation():
    params = ModelParams(1.0, 0.5)
    tr = Truncation(20)
    sp = solve_point(params, tr, 4)
    with pytest.raises(ValueError):
        pair_report(sp, params, tr, eps_par=0.0)
    with pytest.raises(ValueError):
        pair_report(sp, params, tr, eps_par=1.0)
    single = solve_point(params, tr, 1)
    with pytest.raises(ValueError, match="need at least two levels"):
        pair_report(single, params, tr)
    with pytest.raises(ValueError, match="state length 40 does not match dimension 42"):
        pair_report(sp, params, Truncation(21))
    vectors = sp.eigenvectors.copy()
    vectors[:, 3] *= 1.0 + 1e-9
    with pytest.raises(ValueError, match="state norm"):
        pair_report(dataclasses.replace(sp, eigenvectors=vectors), params, tr)


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


def _shifted_onsets(shift):
    """Grid index of each of pairs 0-3's onsets under H + shift * I: delta=50,
    N=200, 8 levels, on the sweep's own grid from g/g_c = 0.99 until all four."""
    trunc = Truncation(200)
    grid = grid_values(0, 2.5, 0.01) * critical_coupling(50.0)
    onsets = {}
    for i in range(99, len(grid)):
        params = ModelParams(50.0, grid[i])
        report = pair_report(shifted_solve(params, trunc, 8, shift), params, trunc)
        assert max(abs(pair.parity_sum) for pair in report) <= 1e-8
        for pair in report:
            if not pair.regular:
                onsets.setdefault(pair.pair_index, i)
        if len(onsets) == 4:
            return onsets
    raise AssertionError(f"pairs {sorted(set(range(4)) - onsets.keys())} stay regular")


@pytest.mark.parametrize("threads", [1, 2])
def test_constant_shift_moves_every_onset_down(threads):
    # H + s*I keeps H's eigenvectors and gaps, so a doublet that mixed for
    # a physical reason would mix at the same coupling; the shift raises
    # only the scale (224 to 1e6) that the solve, contract-checked at every
    # point, resolves the gap against, and each onset comes 8-16 steps
    # earlier at both thread counts: a margin, not a pinned count
    before = _blas._set_openblas_threads({})
    _blas._set_openblas_threads({path: threads for path in before})
    try:
        plain, shifted = _shifted_onsets(0.0), _shifted_onsets(1e6)
    finally:
        _blas._set_openblas_threads(before)
    assert all(shifted[pair] < plain[pair] for pair in range(4)), (plain, shifted)


def test_sector_blocked_basis_order_removes_every_onset():
    # listing the basis sector by sector is a symmetric permutation of the
    # same matrix, solved by the same evr in the same dtype on the same
    # threads; yet no pair turns irregular.  Householder reduction keeps the
    # two blocks of the blocked order apart, so evr sees a split tridiagonal,
    # while in the interleaved order its reflectors span both sectors and
    # rounding mixes each doublet at eps * scale: past the crossing the basis
    # order, not the model, decides per-state parity.  Every solve passes
    # the contract, or it raises SolverError
    trunc = Truncation(200)
    blocked = np.concatenate((sector_rows(trunc, 1), sector_rows(trunc, -1)))
    eps = np.finfo(float).eps
    onsets = {"interleaved": {}, "blocked": {}}
    for g in grid_values(0, 2.5, 0.01)[99:181] * critical_coupling(50.0):  # g/g_c 0.99-1.80
        params = ModelParams(50.0, g)
        spectra = {"interleaved": solve_point(params, trunc, 8)}
        spectra["blocked"] = permuted_solve(params, trunc, 8, blocked)
        # two backward-stable solves of one matrix differ by rounding alone:
        # 1.79 eps * scale at most over this window with OpenBLAS 0.3.31, so
        # 4 leaves room for another build while a bound at the contract's
        # residual tolerance (1e-11 * scale) would hide a real disagreement
        shift = spectra["blocked"].eigenvalues - spectra["interleaved"].eigenvalues
        assert np.abs(shift).max() <= 4 * eps * spectra["interleaved"].meta.scale
        for order, spectrum in spectra.items():
            report = pair_report(spectrum, params, trunc, 0.1)
            assert max(abs(pair.parity_sum) for pair in report) <= 1e-8
            for pair in report:
                if not pair.regular:
                    onsets[order].setdefault(pair.pair_index, g)
    assert sorted(onsets["interleaved"]) == [0, 1, 2, 3]
    assert onsets["blocked"] == {}
