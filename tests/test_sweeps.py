"""Grids, sentinel logic, sweep tables, worker-schedule independence."""

import os
import re
import sys
import threading
import time

import numpy as np
import pytest
import scipy.linalg

from rabi_lab import _blas, eigensolve, model, sweeps
from rabi_lab.io import render_table
from rabi_lab.eigensolve import DEGENERACY_RTOL, SolverError, eig_sym_tridiag
from rabi_lab.model import (
    ModelParams,
    Truncation,
    build_hamiltonian,
    critical_coupling,
    parity_diagonal,
    sector_hamiltonian,
)
from rabi_lab.sweeps import (
    CONVERGENCE_COLUMNS,
    PARITY_COLUMNS,
    PHASE_COLUMNS,
    SENTINEL_THRESHOLD,
    convergence_sweep,
    coupling_sweep,
    grid_values,
    merged_sector_levels,
    phase_boundary_scan,
    resolve_workers,
    solve_point,
    tail_population,
    tail_start_index,
)


def test_grid_values_inclusive_endpoints():
    g = grid_values(0.0, 2.0, 0.01)
    assert len(g) == 201
    assert g[0] == 0.0
    assert abs(g[-1] - 2.0) <= 1e-9
    g = grid_values(0.0, 6.0, 0.05)
    assert len(g) == 121
    g = grid_values(1.0, 1.0, 0.1)
    assert np.array_equal(g, np.array([1.0]))


def test_grid_values_validation(monkeypatch):
    with pytest.raises(ValueError):
        grid_values(1.0, 0.0, 0.1)
    with pytest.raises(ValueError):
        grid_values(0.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        grid_values(0.0, 1.0, -0.1)
    with pytest.raises(ValueError, match="too many points to count"):
        grid_values(0.0, 1e308, 1e-300)
    # numpy's own size limit, and an allocation refused without touching memory
    with pytest.raises(
        ValueError, match=r"^grid 0\.0:1e\+300:1\.0 has too many points to allocate$"
    ):
        grid_values(0.0, 1e300, 1.0)

    def refuse(count):
        raise MemoryError(f"Unable to allocate {8 * count} bytes")

    monkeypatch.setattr(sweeps.np, "arange", refuse)
    with pytest.raises(ValueError, match=r"^grid 0\.0:1\.0:0\.5 has too many points to allocate$"):
        grid_values(0.0, 1.0, 0.5)


def test_tail_start_index():
    # ceil(0.9 * n) reaches n itself below 10; the last index always counts
    for n in range(2, 10):
        assert tail_start_index(n) == n - 1
    assert tail_start_index(10) == 9
    assert tail_start_index(15) == 14
    assert tail_start_index(999) == 900
    assert tail_start_index(1000) == 900
    assert tail_start_index(2000) == 1800


def _max_tail(params, tr):
    return tail_population(solve_point(params, tr, 8).eigenvectors, tr)


def test_sentinel_passes_when_truncation_generous():
    tr = Truncation(10)
    assert tail_start_index(tr.n_trunc) == 9
    assert _max_tail(ModelParams(1.0, 0.0), tr) == 0.0 < SENTINEL_THRESHOLD


def test_sentinel_fails_when_truncation_starved():
    params = ModelParams(1.0, 6.0 * critical_coupling(1.0))
    assert _max_tail(params, Truncation(50)) > SENTINEL_THRESHOLD
    assert _max_tail(params, Truncation(1000)) < SENTINEL_THRESHOLD


def test_solve_point_matches_sector_merge():
    params = ModelParams(1.0, 1.5 * critical_coupling(1.0))
    tr = Truncation(120)
    sp = solve_point(params, tr, 8)
    merged, _ = merged_sector_levels(params, tr, 8)
    assert np.abs(sp.eigenvalues - merged).max() <= 1e-10


def test_solve_point_in_place_matches_supplied_matrix_bitwise():
    # solve_point hands its Hamiltonian over and checks it on its own
    # band; raw evr on an untouched array of the same matrix, put in
    # the tie order (energy, then first component above 1e-12), must give
    # the same bytes, here where evr mixes the doublets of a delta=50 window
    tr = Truncation(200)
    gc = critical_coupling(50.0)
    for ratio in grid_values(1.40, 1.60, 0.02):
        params = ModelParams(50.0, ratio * gc)
        h = build_hamiltonian(params, tr)
        w, v = scipy.linalg.eigh(h, subset_by_index=(0, 7), driver="evr")
        order = np.lexsort((np.argmax(np.abs(v) > 1e-12, axis=0), w))
        w, v = w[order], v[:, order]
        scale = max(1.0, np.abs(h).max())
        sp = solve_point(params, tr, 8)
        assert sp.eigenvalues.tobytes() == w.tobytes()
        assert sp.eigenvectors.tobytes() == v.tobytes()
        assert np.array_equal(sp.near_degenerate, np.diff(w) < DEGENERACY_RTOL * scale)
        assert (sp.meta.dim, sp.meta.scale) == (tr.dim, scale)
        residuals = np.linalg.norm(h @ v - v * w, axis=0)
        assert np.abs(sp.residual_norms - residuals).max() <= 1e-12 * scale


def test_solve_point_hands_its_matrix_over(monkeypatch):
    # the built array is the one LAPACK overwrites: no copy is made of it
    built = []

    def recording(params, trunc):
        built.append(build_hamiltonian(params, trunc))
        return built[-1]

    monkeypatch.setattr(sweeps, "build_hamiltonian", recording)
    params, tr = ModelParams(2.0, 1.0), Truncation(40)
    solve_point(params, tr, 4)
    assert not np.array_equal(built[0], build_hamiltonian(params, tr))


def test_solve_point_builds_each_sector_once(monkeypatch):
    # the operator has one source: build_hamiltonian writes each sector
    # tridiagonal once, and solve_point reads neither it nor the sector rows
    calls = []
    original = model.sector_hamiltonian

    def recording(params, trunc, sector):
        calls.append((sector, sys._getframe(1).f_code.co_name))
        return original(params, trunc, sector)

    monkeypatch.setattr(model, "sector_hamiltonian", recording)
    monkeypatch.setattr(sweeps, "sector_hamiltonian", recording)
    monkeypatch.setattr(sweeps, "sector_rows", lambda *a: pytest.fail("sector_rows read"))
    solve_point(ModelParams(2.0, 1.0), Truncation(40), 4)
    assert calls == [(1, "build_hamiltonian"), (-1, "build_hamiltonian")]


def test_overflowing_coupling_is_refused_before_any_solve(monkeypatch):
    # a sweep refuses the lowest overflowing grid point at the cutoff it
    # solves at (the reference for the convergence sweep) before its first
    # point, even when the points below it solve fine
    calls = []
    for owner, name in ((scipy.linalg, "eigh"), (eigensolve, "stebz_stein")):
        monkeypatch.setattr(owner, name, lambda *a, **k: calls.append(1))
    params, tr = ModelParams(1.0, 1e308), Truncation(10)
    message = r"^g=1e\+308 overflows g \* sqrt\(n\) at n_trunc=10$"
    for solve in (solve_point, merged_sector_levels):
        with pytest.raises(ValueError, match=message):
            solve(params, tr, 2)
    grid = [0.5, 1e308, 1.5e308]
    with pytest.raises(ValueError, match=message):
        coupling_sweep(1.0, g_grid=grid, n_levels=2, trunc=tr, workers=2)
    with pytest.raises(ValueError, match=message):
        convergence_sweep(
            1.0, g_grid=grid, trunc_list=[Truncation(4)], ref_trunc=tr, n_levels=2, workers=2
        )
    ratio, g_c = 1e308, critical_coupling(0.0)
    with pytest.raises(ValueError, match=rf"^g={re.escape(repr(ratio * g_c))} overflows .*=10$"):
        phase_boundary_scan([0.0], (0,), ratio_grid=[0.5, ratio], trunc=tr, workers=2)
    # a ratio whose g itself overflows is not finite, and raises no RuntimeWarning
    with pytest.raises(ValueError, match="^ratio_grid values must be finite and >= 0$"):
        coupling_sweep(1.0, ratio_grid=[0.5, 1.5e308], n_levels=2, trunc=tr)
    assert calls == []


def _merged_levels_by_loop(params, tr, n_levels):
    # per-vector reference for merged_sector_levels: raw stebz/stein on the
    # joined tridiagonal (sector +1, a zero, sector -1), scaled by the same
    # power of two as eig_sym_tridiag, for one level more than kept; each
    # vector mapped into the full interleaved basis one at a time, keyed by
    # its first full-basis index above 1e-12, and (energy, key) tuples sorted
    (d_even, e_even), (d_odd, e_odd) = (sector_hamiltonian(params, tr, s) for s in (1, -1))
    diag, off = np.concatenate((d_even, d_odd)), np.concatenate((e_even, [0.0], e_odd))
    p = 2.0 ** -np.frexp(max(1.0, np.abs(diag).max(), np.abs(off).max()))[1]
    k = min(n_levels + 1, tr.dim)
    w, v = scipy.linalg.eigh_tridiagonal(diag * p, off * p, select="i", select_range=(0, k - 1))
    parity = parity_diagonal(tr)
    rows = np.concatenate((np.flatnonzero(parity == 1), np.flatnonzero(parity == -1)))
    entries = []
    for energy, vec in zip(w / p, v.T):
        full = np.zeros(tr.dim)
        full[rows] = vec
        key = int(np.flatnonzero(np.abs(full) > 1e-12)[0])
        entries.append((float(energy), key, full))
    entries.sort(key=lambda item: item[:2])
    kept = entries[:n_levels]
    vectors = np.stack([item[2] for item in kept], axis=1)
    return np.array([item[0] for item in kept]), tail_population(vectors, tr)


@pytest.mark.parametrize(
    "delta,g,n_trunc,n_levels",
    [
        (2.0, 0.0, 10, 17),
        (0.0, 0.0, 12, 11),
        (1.0, 0.8, 40, 8),
        (5.0, 3.0, 50, 3),
        (50.0, 7.0, 200, 8),
    ],
)
def test_merge_matches_per_vector_reference(delta, g, n_trunc, n_levels):
    params, tr = ModelParams(delta, g), Truncation(n_trunc)
    energies, tail = merged_sector_levels(params, tr, n_levels)
    ref_energies, ref_tail = _merged_levels_by_loop(params, tr, n_levels)
    assert np.array_equal(energies, ref_energies)
    assert tail == ref_tail


def _levels_by_sector(params, tr, n_levels):
    # two separate sector solves, placed on the full basis and merged
    energies, vectors = [], []
    for sector in (1, -1):
        spec = eig_sym_tridiag(*sector_hamiltonian(params, tr, sector), min(n_levels, tr.n_trunc))
        full = np.zeros((tr.dim, spec.k))
        full[parity_diagonal(tr) == sector] = spec.eigenvectors
        energies.append(spec.eigenvalues)
        vectors.append(full)
    energies, vectors = np.concatenate(energies), np.hstack(vectors)
    kept = np.lexsort((np.argmax(np.abs(vectors) > 1e-12, axis=0), energies))[:n_levels]
    return energies[kept], tail_population(vectors[:, kept], tr)


@pytest.mark.parametrize("n_trunc", [200, 40])
@pytest.mark.parametrize("delta,ratio_stop", [(1.0, 6.0), (50.0, 2.5)])
def test_merge_agrees_with_per_sector_solves(delta, ratio_stop, n_trunc):
    # one solve of the joined tridiagonal against one solve per sector: the
    # energies agree to rounding in units of the larger sector scale (at most
    # 1.28 eps * scale measured at N=200, 2.03 at N=40), the sentinel
    # verdicts exactly (all pass at N=200; at N=40, 88 and 32 points fail)
    tr, gc, eps = Truncation(n_trunc), critical_coupling(delta), np.finfo(float).eps
    for ratio in grid_values(0.0, ratio_stop, 0.05):
        params = ModelParams(delta, ratio * gc)
        energies, tail = merged_sector_levels(params, tr, 8)
        ref_energies, ref_tail = _levels_by_sector(params, tr, 8)
        bands = [a for s in (1, -1) for a in sector_hamiltonian(params, tr, s)]
        scale = max(1.0, *(np.abs(a).max() for a in bands))
        assert np.abs(energies - ref_energies).max() <= 4 * eps * scale
        assert (tail < SENTINEL_THRESHOLD) == (ref_tail < SENTINEL_THRESHOLD)


@pytest.mark.parametrize("n_levels,k", [(8, 9), (19, 20), (20, 20)])
def test_merge_solves_once_for_one_level_more(monkeypatch, n_levels, k):
    # one merged call: each sector tridiagonal built once, one tridiagonal
    # solve of both for min(n_levels + 1, dim) levels, n_levels kept
    built, solved = [], []
    original = model.sector_hamiltonian

    def building(params, trunc, sector):
        built.append(sector)
        return original(params, trunc, sector)

    def solving(diag, offdiag, levels):
        solved.append((len(diag), levels))
        return eig_sym_tridiag(diag, offdiag, levels)

    monkeypatch.setattr(model, "sector_hamiltonian", building)
    monkeypatch.setattr(sweeps, "sector_hamiltonian", building)
    monkeypatch.setattr(sweeps, "eig_sym_tridiag", solving)
    tr = Truncation(10)
    energies, _ = merged_sector_levels(ModelParams(2.0, 1.0), tr, n_levels)
    assert (built, solved) == ([1, -1], [(tr.dim, k)])
    assert len(energies) == n_levels


def test_every_sweep_judges_its_sentinel_with_tail_population(monkeypatch):
    # the dense and the sector paths share one sentinel: every solve of every
    # sweep goes through sweeps.tail_population, the convergence reference
    # first, and a reference that is also a candidate is solved once; a
    # one-point convergence sweep runs on one thread at any scipy-OpenBLAS
    # count, so the order is exact at both counts
    seen = []
    tail = sweeps.tail_population

    def recording(vectors, trunc):
        seen.append(trunc.n_trunc)
        return tail(vectors, trunc)

    monkeypatch.setattr(sweeps, "tail_population", recording)
    lapack = _blas._package_openblas(scipy)
    before = _blas._set_openblas_threads({})
    try:
        for count in (1, 2) if lapack else (1,):
            _blas._set_openblas_threads({lapack: count})
            seen.clear()
            coupling_sweep(2.0, ratio_grid=[0.5], n_levels=2, trunc=Truncation(10), workers=1)
            phase_boundary_scan([2.0], (0,), ratio_grid=[0.1, 0.3], trunc=Truncation(12),
                                workers=1)
            for sizes in ((14, 16), (14, 18)):
                res = convergence_sweep(
                    2.0, ratio_grid=[0.5], trunc_list=[Truncation(n) for n in sizes],
                    ref_trunc=Truncation(18), n_levels=4, workers=1,
                )
                assert res.meta["workers"] == 1
            assert seen == [10, 12, 12, 18, 14, 16, 18, 14]
            assert [row[5] for row in res.rows[4:]] == [0.0] * 4
    finally:
        _blas._set_openblas_threads(before)


def test_merge_orders_cross_sector_ties_by_full_basis_index():
    # at g=0 the levels are n -+ delta/2: energy 8 is shared by sector +1
    # at n=9 (full-basis index 18, all of it in the tail) and sector -1 at
    # n=7 (index 15, no tail); the lower index is kept first, which a plain
    # stable sort on energy alone (sector +1 listed first) would get wrong
    params, tr = ModelParams(2.0, 0.0), Truncation(10)
    assert merged_sector_levels(params, tr, 17)[1] == 0.0
    assert merged_sector_levels(params, tr, 18)[1] == 1.0


def test_coupling_sweep_table_shape_and_content():
    gc = critical_coupling(1.0)
    res = coupling_sweep(
        1.0, ratio_grid=[0.5, 1.0], n_levels=4, trunc=Truncation(60)
    )
    assert res.columns == PARITY_COLUMNS
    assert len(res.rows) == 2 * 4
    for i, row in enumerate(res.rows):
        rec = dict(zip(res.columns, row))
        assert rec["level"] == i % 4
        assert rec["pair_index"] == (i % 4) // 2
        assert rec["sentinel"] == 1
        assert abs(rec["p_even"] + rec["p_odd"] - 1.0) <= 1e-12
        assert -1.0 <= rec["parity"] <= 1.0
    ratios = sorted({dict(zip(res.columns, r))["g_over_gc"] for r in res.rows})
    assert abs(ratios[0] - 0.5) <= 1e-15 and abs(ratios[1] - 1.0) <= 1e-15
    gs = sorted({dict(zip(res.columns, r))["g"] for r in res.rows})
    assert abs(gs[0] - 0.5 * gc) <= 1e-15
    assert res.meta["sentinel_failures"] == []


def test_coupling_sweep_grid_argument_exclusivity():
    sizes = dict(n_levels=2, trunc=Truncation(20))
    with pytest.raises(ValueError):
        coupling_sweep(1.0, **sizes)
    with pytest.raises(ValueError):
        coupling_sweep(1.0, g_grid=[0.1], ratio_grid=[0.1], **sizes)
    with pytest.raises(ValueError):
        coupling_sweep(1.0, ratio_grid=[0.5], n_levels=3, trunc=Truncation(20))
    convergence_sizes = dict(trunc_list=(Truncation(20),), ref_trunc=Truncation(40), n_levels=2)
    for sweep, kwargs in ((coupling_sweep, sizes), (convergence_sweep, convergence_sizes)):
        with pytest.raises(ValueError, match="strictly increasing"):
            sweep(1.0, ratio_grid=[0.5, 0.5], **kwargs)
        with pytest.raises(ValueError, match="strictly increasing"):
            sweep(1.0, g_grid=[0.4, 0.2], **kwargs)


def _bytes(result) -> bytes:
    """A sweep's table as the CSV bytes a job writes."""
    return render_table(result.columns, zip(*result.rows))


@pytest.mark.parametrize(
    "sweep, items, failing",
    [
        (
            lambda workers: coupling_sweep(
                1.0, ratio_grid=[0.0, 0.4, 0.8], n_levels=4, trunc=Truncation(50), workers=workers
            ),
            3,
            False,
        ),
        (
            # N=24 fails the sentinel at g/g_c = 3, so a failure record crosses the pool
            lambda workers: convergence_sweep(
                1.0, ratio_grid=[0.3, 3.0], trunc_list=(Truncation(24), Truncation(40)),
                ref_trunc=Truncation(80), n_levels=2, workers=workers,
            ),
            2,
            True,
        ),
        (
            lambda workers: phase_boundary_scan(
                [1.0, 2.0], (0, 1), ratio_grid=[0.5, 1.5, 3.0], trunc=Truncation(20),
                workers=workers,
            ),
            2,
            True,
        ),
    ],
    ids=["coupling", "convergence", "phase"],
)
def test_sweep_worker_count_does_not_change_bytes(sweep, items, failing):
    # a convergence sweep runs on no fewer threads than scipy's OpenBLAS has,
    # and a request for more threads than items runs, and records, one per
    # item; a dense sweep runs, and records, one thread at any request
    seq, *others = sweep(1), sweep(2), sweep(4), sweep(8)
    if seq.meta["kind"] == "convergence_sweep":
        expected = [min(max(w, _blas.lapack_threads()), items) for w in (1, 2, 4, 8)]
    else:
        expected = [1, 1, 1, 1]
    assert [res.meta["workers"] for res in (seq, *others)] == expected
    for res in others:
        assert repr(seq.rows) == repr(res.rows)  # a nan cell never compares equal, its repr does
        assert _bytes(seq) == _bytes(res)
        assert seq.meta["sentinel_failures"] == res.meta["sentinel_failures"]
    assert bool(seq.meta["sentinel_failures"]) == failing


def test_calling_process_shares_a_mixed_window_without_changing_bytes(monkeypatch):
    # g/g_c 1.40-1.60 at delta=50 holds irregular doublets, so a schedule
    # that changed any solve would show in the parity columns; the points
    # run in this process, so a module-global wrapper sees all 21
    kwargs = dict(ratio_grid=grid_values(1.40, 1.60, 0.01), n_levels=8, trunc=Truncation(200))
    seq = coupling_sweep(50.0, workers=1, **kwargs)
    solve = sweeps.solve_point
    for workers in (2, 8):
        here = []

        def counted(params, *args):
            here.append(params.g)
            return solve(params, *args)

        monkeypatch.setattr(sweeps, "solve_point", counted)
        par = coupling_sweep(50.0, workers=workers, **kwargs)
        assert par.meta["workers"] == 1
        assert sorted(here) == [row[0] for row in seq.rows[::8]]
        assert _bytes(seq) == _bytes(par)
    assert any(abs(row[5]) < 1 - 0.1 for row in seq.rows)  # the window is mixed


@pytest.mark.parametrize(
    "sweep",
    [
        lambda workers: coupling_sweep(
            1.0, ratio_grid=[0.0, 0.4, 0.8], n_levels=4, trunc=Truncation(50), workers=workers
        ),
        lambda workers: phase_boundary_scan(
            [1.0, 2.0], (0, 1), ratio_grid=[0.5, 1.5, 3.0], trunc=Truncation(20), workers=workers
        ),
    ],
    ids=["coupling", "phase"],
)
def test_dense_sweeps_solve_on_the_calling_thread(monkeypatch, sweep):
    # dense solves hold the GIL, so a dense sweep checks workers and then
    # solves every point here, one at a time, with the bytes of one worker
    seq = sweep(1)
    solve, caller = sweeps.solve_point, threading.get_ident()
    for workers in (0, 2, 8):
        threads = []

        def recorded(*args):
            threads.append(threading.get_ident())
            return solve(*args)

        monkeypatch.setattr(sweeps, "solve_point", recorded)
        res = sweep(workers)
        assert threads and set(threads) == {caller}
        assert res.meta["workers"] == 1
        assert _bytes(seq) == _bytes(res)
        assert seq.meta["sentinel_failures"] == res.meta["sentinel_failures"]


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_sweep_raises_the_lowest_failing_grid_index(monkeypatch, workers):
    # points 1 and 2 fail mid-sweep; on more than one thread (any workers
    # where scipy's OpenBLAS has two) point 2 fails first on another
    # thread, as point 1 waits before it fails, and index 1 must still be
    # the one reported
    solve = sweeps.merged_sector_levels

    def failing_past_first_point(params, *args):
        if params.g == 1.0:
            time.sleep(0.2)
        if params.g > 0.5:
            raise SolverError("residual check failed")
        return solve(params, *args)

    monkeypatch.setattr(sweeps, "merged_sector_levels", failing_past_first_point)
    with pytest.raises(SolverError, match=r"^grid index 1 \(delta=1\.0, g=1\.0\): residual"):
        convergence_sweep(
            1.0, g_grid=[0.5, 1.0, 1.5], trunc_list=(Truncation(10),), ref_trunc=Truncation(10),
            n_levels=2, workers=workers,
        )


@pytest.mark.parametrize(
    "sweep, solver, g",
    [
        (
            lambda: coupling_sweep(
                2.0, g_grid=[0.0, 0.5], n_levels=2, trunc=Truncation(20), workers=1
            ),
            "solve_point",
            0.5,
        ),
        (
            lambda: convergence_sweep(
                2.0, g_grid=[0.0, 0.5], trunc_list=(Truncation(10),), ref_trunc=Truncation(20),
                n_levels=2, workers=1,
            ),
            "merged_sector_levels",
            0.5,
        ),
        (
            lambda: phase_boundary_scan(
                [2.0], (0,), ratio_grid=[0.0, 0.5], trunc=Truncation(20), workers=1
            ),
            "solve_point",
            0.5 * critical_coupling(2.0),
        ),
    ],
    ids=["coupling", "convergence", "phase"],
)
def test_solver_failure_names_its_grid_point(monkeypatch, sweep, solver, g):
    # the second grid point (index 1) is the first with g > 0
    solve = getattr(sweeps, solver)

    def failing_past_zero_coupling(params, *args):
        if params.g > 0:
            raise SolverError("residual check failed")
        return solve(params, *args)

    monkeypatch.setattr(sweeps, solver, failing_past_zero_coupling)
    with pytest.raises(SolverError) as excinfo:
        sweep()
    assert str(excinfo.value) == f"grid index 1 (delta=2.0, g={g!r}): residual check failed"


def test_coupling_sweep_marks_sentinel_failures():
    res = coupling_sweep(
        1.0, ratio_grid=[0.2, 6.0], n_levels=2, trunc=Truncation(50)
    )
    recs = [dict(zip(res.columns, r)) for r in res.rows]
    assert all(r["sentinel"] == 1 for r in recs if r["g_over_gc"] <= 0.3)
    assert all(r["sentinel"] == 0 for r in recs if r["g_over_gc"] >= 5.0)
    assert res.meta["sentinel_failures"] == [1]


def test_convergence_sweep_exact_at_zero_coupling():
    res = convergence_sweep(
        1.0,
        ratio_grid=[0.0, 0.3],
        trunc_list=(Truncation(20), Truncation(40)),
        ref_trunc=Truncation(80),
        n_levels=4,
    )
    assert res.columns == CONVERGENCE_COLUMNS
    assert len(res.rows) == 2 * 2 * 4
    recs = [dict(zip(res.columns, r)) for r in res.rows]
    for rec in recs:
        if rec["g"] == 0.0:
            # truncation cannot move uncoupled levels
            assert rec["abs_diff_vs_ref"] <= 1e-14


def test_convergence_sweep_diff_shrinks_with_truncation():
    res = convergence_sweep(
        1.0,
        ratio_grid=[3.0],
        trunc_list=(Truncation(24), Truncation(30), Truncation(40)),
        ref_trunc=Truncation(400),
        n_levels=2,
    )
    recs = [dict(zip(res.columns, r)) for r in res.rows]
    level0 = {r["n_trunc"]: r["abs_diff_vs_ref"] for r in recs if r["level"] == 0}
    assert level0[24] > level0[30] > level0[40]
    # starved truncations at this coupling must be reported, not hidden
    flagged = {r["n_trunc"] for r in recs if r["sentinel"] == 0}
    assert 24 in flagged
    assert res.meta["sentinel_failures"]


def test_convergence_sweep_requires_dominant_reference():
    with pytest.raises(ValueError):
        convergence_sweep(
            1.0, ratio_grid=[0.5], trunc_list=(Truncation(100),), ref_trunc=Truncation(80),
            n_levels=2,
        )


def test_phase_scan_flags_degenerate_first_point():
    res = phase_boundary_scan(
        [0.0], pair_indices=(0,), ratio_grid=[0.0, 0.1, 0.2], trunc=Truncation(30)
    )
    assert res.columns == PHASE_COLUMNS
    assert len(res.rows) == 1
    rec = dict(zip(res.columns, res.rows[0]))
    assert rec["delta"] == 0.0
    assert rec["degenerate"] == 1
    assert rec["pair_index"] == 0


def test_phase_scan_reports_not_found_in_regular_window():
    ratios = [0.1, 0.3, 0.5]
    res = phase_boundary_scan(
        [2.0], pair_indices=(0, 1), ratio_grid=ratios, trunc=Truncation(40)
    )
    recs = [dict(zip(res.columns, row)) for row in res.rows]
    assert [rec["pair_index"] for rec in recs] == [0, 1]
    for rec in recs:
        assert rec["found"] == 0
        assert np.isnan(rec["onset_g"])
        assert np.isnan(rec["onset_g_over_gc"])
        assert rec["degenerate"] == 0
        assert abs(rec["g_c"] - critical_coupling(2.0)) <= 1e-15
    assert res.meta["sentinel_failures"] == []
    # not merely above 1 - eps_par: both pairs stay parity-pure at every point
    sweep = coupling_sweep(2.0, ratio_grid=ratios, n_levels=4, trunc=Truncation(40))
    assert len(sweep.rows) == 4 * len(ratios)
    assert all(abs(dict(zip(sweep.columns, r))["parity"]) > 0.999 for r in sweep.rows)


def test_phase_scan_rejects_pair_beyond_truncation():
    # pair 30 needs 62 levels; N=10 holds 20, so nothing is solved
    with pytest.raises(ValueError, match="pair 30"):
        phase_boundary_scan([2.0], (0, 30), ratio_grid=[0.1, 0.2], trunc=Truncation(10))


def test_phase_scan_solves_each_point_once(monkeypatch):
    calls = []
    eigh = scipy.linalg.eigh

    def counting_eigh(*args, **kwargs):
        calls.append(1)
        return eigh(*args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "eigh", counting_eigh)
    phase_boundary_scan(
        [2.0], (0, 1), ratio_grid=[0.1, 0.3, 0.5], trunc=Truncation(40), workers=1
    )
    assert len(calls) == 3


def test_phase_scan_records_the_level_count_it_solves(monkeypatch):
    # an onset depends on how many levels each solve asks for, so the
    # manifest meta must carry that count: 2 * max(pair) + 2
    requested = []
    dense = sweeps.eig_sym_dense

    def recording(matrix, bandwidth, k):
        requested.append(k)
        return dense(matrix, bandwidth, k)

    monkeypatch.setattr(sweeps, "eig_sym_dense", recording)
    res = phase_boundary_scan(
        [2.0], (2, 0), ratio_grid=[0.1, 0.3], trunc=Truncation(40), workers=1
    )
    assert res.meta["n_levels"] == 6
    assert requested == [6, 6]


@pytest.mark.parametrize(
    "sweep, message",
    [
        (
            lambda: phase_boundary_scan(
                [2.0], (0,), ratio_grid=[0.1, 0.3], trunc=Truncation(10), eps_par=2.0, workers=1
            ),
            "eps_par must be in",
        ),
        (
            lambda: phase_boundary_scan(
                [2.0], (0,), ratio_grid=[0.1, 0.3], trunc=Truncation(10), eps_par="0.1", workers=1
            ),
            "eps_par must be a number, got '0.1'$",
        ),
        (
            lambda: phase_boundary_scan(
                [2.0], (0,), ratio_grid=[0.1, 0.3], trunc=Truncation(10), eps_par=None, workers=1
            ),
            "eps_par must be a number, got None$",
        ),
        (
            lambda: coupling_sweep(
                None, ratio_grid=[0.5], n_levels=2, trunc=Truncation(10), workers=1
            ),
            "delta must be a number, got None$",
        ),
        (
            lambda: convergence_sweep(
                None, ratio_grid=[0.5], trunc_list=[Truncation(10)], ref_trunc=Truncation(20),
                n_levels=2, workers=1,
            ),
            "delta must be a number, got None$",
        ),
        (
            lambda: convergence_sweep(
                1.0, ratio_grid=[0.5], trunc_list=[Truncation(10)], ref_trunc=Truncation(20),
                n_levels=30, workers=1,
            ),
            "n_levels must be in",
        ),
        (
            lambda: phase_boundary_scan(
                [1.0], [0.7], ratio_grid=[0.1, 0.2], trunc=Truncation(10), workers=1
            ),
            "pair_indices must be an integer, got 0.7",
        ),
        (
            lambda: convergence_sweep(
                1.0, ratio_grid=[0.5], trunc_list=[Truncation(10)], ref_trunc=Truncation(20),
                n_levels=2.7, workers=1,
            ),
            "n_levels must be an integer, got 2.7",
        ),
        (
            lambda: coupling_sweep(
                2.0, ratio_grid=[0.5], n_levels=4.0, trunc=Truncation(10), workers=1
            ),
            "n_levels must be an integer, got 4.0",
        ),
        (
            lambda: coupling_sweep(
                1.0, ratio_grid=[0.1], n_levels=True, trunc=Truncation(10), workers=1
            ),
            "n_levels must be an integer, got True$",
        ),
        (
            lambda: solve_point(ModelParams(1.0, 0.5), Truncation(10), 2.7),
            "n_levels must be an integer, got 2.7",
        ),
        (
            lambda: merged_sector_levels(ModelParams(1.0, 0.5), Truncation(10), 2.7),
            "n_levels must be an integer, got 2.7",
        ),
        (
            lambda: coupling_sweep(
                2.0, ratio_grid=[0.5, 1.0], n_levels=2, trunc=Truncation(10), workers=2.7
            ),
            "workers must be an integer, got 2.7",
        ),
        (
            lambda: phase_boundary_scan(
                [1.0], (0,), ratio_grid=[0.1, 0.2], trunc=Truncation(10), workers=-1
            ),
            "workers must be >= 0, got -1$",
        ),
        (
            lambda: phase_boundary_scan(
                [1.0], (0,), ratio_grid=[0.1, 0.2], trunc=Truncation(10), workers=2.7
            ),
            "workers must be an integer, got 2.7$",
        ),
        (
            lambda: phase_boundary_scan(
                [1.0], [], ratio_grid=[0.1, 0.2], trunc=Truncation(10), workers=1
            ),
            "pair_indices must not be empty$",
        ),
        (
            lambda: coupling_sweep(2.0, ratio_grid=[0.5], n_levels=2, trunc=200, workers=1),
            "trunc must be a Truncation, got 200$",
        ),
        (
            lambda: convergence_sweep(
                1.0, ratio_grid=[0.5], trunc_list=[200], ref_trunc=Truncation(400), n_levels=2,
                workers=1,
            ),
            "trunc_list must be a Truncation, got 200$",
        ),
        (
            lambda: convergence_sweep(
                1.0, ratio_grid=[0.5], trunc_list=[Truncation(200)], ref_trunc=400, n_levels=2,
                workers=1,
            ),
            "ref_trunc must be a Truncation, got 400$",
        ),
        (
            lambda: phase_boundary_scan(
                [1.0], (0,), ratio_grid=[0.1, 0.2], trunc=200, workers=1
            ),
            "trunc must be a Truncation, got 200$",
        ),
        (
            lambda: convergence_sweep(
                1.0, ratio_grid=[0.5], trunc_list=Truncation(20), ref_trunc=Truncation(40),
                n_levels=2, workers=1,
            ),
            r"trunc_list must be a 1-d sequence, got Truncation\(n_trunc=20\)$",
        ),
        (
            lambda: phase_boundary_scan(
                [1.0], 0, ratio_grid=[0.1, 0.2], trunc=Truncation(10), workers=1
            ),
            "pair_indices must be a 1-d sequence, got 0$",
        ),
        (
            lambda: phase_boundary_scan(
                1.0, (0,), ratio_grid=[0.1, 0.2], trunc=Truncation(10), workers=1
            ),
            "delta_grid must be a 1-d sequence, got 1.0$",
        ),
        (
            lambda: phase_boundary_scan(
                ["x"], (0,), ratio_grid=[0.1, 0.2], trunc=Truncation(10), workers=1
            ),
            "delta_grid: could not convert string to float: 'x'$",
        ),
        (
            lambda: phase_boundary_scan(
                [1.0], (0,), ratio_grid=(r for r in (0.1, 0.2)), trunc=Truncation(10), workers=1
            ),
            "ratio_grid: .*'generator'$",
        ),
        (
            lambda: coupling_sweep(
                1.0, ratio_grid=(r for r in (0.1, 0.2)), n_levels=2, trunc=Truncation(10),
                workers=1,
            ),
            "ratio_grid: .*'generator'$",
        ),
    ],
    ids=[
        "phase_eps_par",
        "string_phase_eps_par",
        "none_phase_eps_par",
        "none_coupling_delta",
        "none_convergence_delta",
        "levels_beyond_candidate",
        "non_integer_pair_index",
        "non_integer_convergence_levels",
        "integral_float_coupling_levels",
        "bool_coupling_levels",
        "non_integer_point_levels",
        "non_integer_sector_levels",
        "non_integer_workers",
        "negative_phase_workers",
        "non_integer_phase_workers",
        "no_pairs",
        "int_coupling_trunc",
        "int_candidate_trunc",
        "int_reference_trunc",
        "int_phase_trunc",
        "scalar_candidate_truncs",
        "scalar_pair_indices",
        "scalar_delta_grid",
        "string_in_delta_grid",
        "generator_phase_ratio_grid",
        "generator_coupling_ratio_grid",
    ],
)
def test_bad_sweep_arguments_solve_nothing(monkeypatch, sweep, message):
    calls = []
    for owner, name in ((scipy.linalg, "eigh"), (eigensolve, "stebz_stein")):

        def counting(*args, _solver=getattr(owner, name), **kwargs):
            calls.append(1)
            return _solver(*args, **kwargs)

        monkeypatch.setattr(owner, name, counting)
    with pytest.raises(ValueError, match=f"^{message}"):
        sweep()
    assert calls == []


def test_resolve_workers(monkeypatch):
    # the environment plays no part, whatever it holds
    monkeypatch.setenv("RABI_LAB_THREADS", "1")
    assert resolve_workers(4) == 4
    assert resolve_workers(None) == 1
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    assert resolve_workers(0) == cpus
    for bad, message in ((-1, "workers must be >= 0"), (2.7, "workers must be an integer"),
                         (2.0, "workers must be an integer"),
                         (True, "workers must be an integer, got True$")):
        with pytest.raises(ValueError, match=message):
            resolve_workers(bad)


def test_zero_workers_count_the_cpus_this_process_may_run_on(monkeypatch):
    # under `taskset -c 0` on two CPUs, os.cpu_count() is 2 but the affinity
    # set holds one CPU; without an affinity call every CPU counts
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert resolve_workers(0) == 1
    monkeypatch.delattr(os, "sched_getaffinity")
    assert resolve_workers(0) == 2
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert resolve_workers(0) == 1
