"""One setter holds numpy's own OpenBLAS at one thread for a CLI job and
restores every count after it; a sweep's points run on the caller's threads
at the caller's counts, so a sweep's bytes do not depend on its workers, nor
a convergence sweep's on the threads scipy's OpenBLAS count adds to them."""

import json
import threading
from pathlib import Path

import numpy as np
import pytest
import scipy

import rabi_lab.cli as cli
from rabi_lab import _blas, sweeps
from rabi_lab.io import render_table
from rabi_lab.model import Truncation

# delta ~ 5, g/g_c = 1.5, N = 300, 8 levels: numpy's two-thread gemv in
# position_wavefunction splits its sums, so some psi cells move in their last bit
WAVEFUNCTION = "wavefunction --delta 5 --g-over-gc 1.5 --n-trunc 300 --levels 8"
SPECTRUM = "spectrum --delta 1 --g 0.5 --n-trunc 20 --levels 4"


def _counts() -> dict:
    """{path: threads} of every mapped OpenBLAS; the setter with nothing to set."""
    return _blas._set_openblas_threads({})


@pytest.fixture
def blas():
    """Every mapped OpenBLAS's thread count, restored afterwards."""
    before = _counts()
    yield before
    _blas._set_openblas_threads(before)


@pytest.fixture
def numpy_blas(blas):
    """Path of numpy's own OpenBLAS; skip without a separate one."""
    own = _blas._package_openblas(np)
    if own is None:
        pytest.skip("no OpenBLAS file of numpy's own is mapped apart from scipy's")
    return own


def _tables(out: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(out.iterdir()) if p.name != "manifest.json"}


def test_wavefunction_bytes_do_not_depend_on_numpy_threads(tmp_path, numpy_blas):
    runs = []
    for threads in (1, 2):
        _blas._set_openblas_threads({numpy_blas: threads})
        out = tmp_path / f"threads{threads}"
        assert cli.main([*WAVEFUNCTION.split(), "--out", str(out)]) == 0
        runs.append(_tables(out))
    assert len(runs[0]) == 9
    assert runs[0] == runs[1]


@pytest.mark.parametrize(
    "argv, code",
    [
        (SPECTRUM, 0),
        ("spectrum --delta -1 --g 0.5 --n-trunc 20 --levels 4", 2),
        ("spectrum --delta 1 --g-over-gc 6 --n-trunc 50 --levels 4", 4),
    ],
    ids=["ok", "config-error", "sentinel"],
)
def test_job_restores_numpy_threads(tmp_path, numpy_blas, argv, code):
    _blas._set_openblas_threads({numpy_blas: 2})
    assert cli.main([*argv.split(), "--out", str(tmp_path / "o")]) == code
    assert _counts()[numpy_blas] == 2


def test_job_pins_numpy_and_leaves_scipy_alone(tmp_path, monkeypatch, numpy_blas):
    _blas._set_openblas_threads({numpy_blas: 2})
    others = {path: n for path, n in _counts().items() if path != numpy_blas}
    if not others:
        pytest.skip("no OpenBLAS apart from numpy's is mapped")
    seen = []

    def solve_point(*args):
        seen.append(_counts())
        return sweeps.solve_point(*args)

    monkeypatch.setattr(cli, "solve_point", solve_point)
    assert cli.main([*WAVEFUNCTION.split(), "--out", str(tmp_path / "o")]) == 0
    assert seen == [{numpy_blas: 1, **others}]
    environment = json.loads((tmp_path / "o" / "manifest.json").read_text())["environment"]
    assert [lib["pinned"] for lib in environment["openblas"]].count(True) == 1
    for lib in environment["openblas"]:
        assert lib["threads"] == 1 if lib["pinned"] else lib["threads"] in others.values()
        assert lib["config"].startswith("OpenBLAS")


def _report_threads(item):
    return [(threading.get_ident(), _counts())], None


def _point_counts(caller: dict) -> list:
    """The counts each point of a 4-point sweep at 2 workers reads; the caller's stay as set."""
    _blas._set_openblas_threads(caller)
    caller = _counts()
    result = sweeps._sweep(("thread", "threads"), _report_threads, list(range(4)), 2, {})
    assert _counts() == caller
    assert threading.get_ident() not in {thread for thread, _ in result.rows}
    return [threads for _, threads in result.rows]


def test_sweep_threads_read_a_library_callers_thread_counts(numpy_blas):
    # a library caller with numpy at 2 and every other OpenBLAS at 1, not
    # the environment's count: every point reads exactly those counts
    caller = {numpy_blas: 2, **{path: 1 for path in _counts() if path != numpy_blas}}
    assert _point_counts(caller) == [caller] * 4


def test_sweep_threads_read_a_cli_jobs_thread_counts(numpy_blas):
    # the numpy pin of a CLI job, every other OpenBLAS left at its count
    caller = {**_counts(), numpy_blas: 1}
    assert _point_counts(caller) == [caller] * 4


def test_sweep_bytes_do_not_depend_on_workers_after_a_runtime_lapack_setting(blas):
    # scipy's OpenBLAS set in-process, as threadpoolctl would: a point that
    # ran at the environment's count instead wrote different rows at g/g_c
    # 1.40 and 1.41
    own = _blas._package_openblas(np)
    others = {path: 1 for path in blas if path != own}
    if not others:
        pytest.skip("no OpenBLAS apart from numpy's is mapped")
    _blas._set_openblas_threads(others)
    tables = []
    for workers in (1, 2, 8):
        result = sweeps.coupling_sweep(
            50, ratio_grid=sweeps.grid_values(1.40, 1.60, 0.01), n_levels=8,
            trunc=Truncation(200), workers=workers,
        )
        tables.append(render_table(result.columns, result.rows))
    assert tables[0] == tables[1] == tables[2]


def test_job_runs_unpinned_without_a_numpy_openblas(tmp_path, monkeypatch):
    monkeypatch.setattr(_blas, "_mapped_openblas", lambda: {})
    out = tmp_path / "o"
    assert cli.main([*SPECTRUM.split(), "--out", str(out)]) == 0
    environment = json.loads((out / "manifest.json").read_text())["environment"]
    assert environment["openblas"] == []
    assert environment["pin"].startswith("nothing pinned")
    assert {"numpy", "scipy"} <= environment.keys()


# every truncation passes on the first grid; N=24 fails the sentinel at g/g_c = 3
CONVERGENCE_GRIDS = {
    "passing": dict(ratio_grid=[0.0, 0.3, 0.6, 0.9], trunc_list=(Truncation(30), Truncation(40)),
                    ref_trunc=Truncation(80), n_levels=4),
    "sentinel": dict(ratio_grid=[0.3, 3.0], trunc_list=(Truncation(24), Truncation(40)),
                     ref_trunc=Truncation(40), n_levels=2),
}


@pytest.mark.parametrize("grid", CONVERGENCE_GRIDS.values(), ids=CONVERGENCE_GRIDS)
def test_convergence_bytes_do_not_depend_on_lapack_threads(blas, monkeypatch, grid):
    # a convergence sweep runs its points on at least scipy's OpenBLAS count
    # of threads: at count 2 and one worker, the first two solves (the
    # references of points 0 and 1) must meet at a barrier, so they run side
    # by side on two pool threads; at count 1 and one worker every solve runs
    # on the calling thread
    lapack = _blas._package_openblas(scipy)
    if lapack is None:
        pytest.skip("no OpenBLAS file of scipy's own is mapped")
    solve, threads, solved, barrier = sweeps.merged_sector_levels, [], [], []

    def recording(params, trunc, n_levels):
        threads.append(threading.get_ident())
        solved.append((params.g, trunc.n_trunc))
        if barrier and len(threads) <= 2:
            barrier[0].wait()
        return solve(params, trunc, n_levels)

    monkeypatch.setattr(sweeps, "merged_sector_levels", recording)
    runs = {}
    for count in (1, 2, 4):
        _blas._set_openblas_threads({lapack: count})
        for workers in (1, 2, 8):
            threads.clear()
            solved.clear()
            barrier[:] = [threading.Barrier(2, timeout=10)] if (count, workers) == (2, 1) else []
            result = sweeps.convergence_sweep(1.0, **grid, workers=workers)
            if (count, workers) == (1, 1):
                assert set(threads) == {threading.get_ident()}
            if (count, workers) == (2, 1):
                assert len(set(threads)) == 2 and threading.get_ident() not in threads
                (g0, n0), (g1, n1) = solved[:2]
                assert g0 != g1 and n0 == n1 == grid["ref_trunc"].n_trunc
            assert result.meta["workers"] == min(max(workers, count), len(grid["ratio_grid"]))
            runs[count, workers] = (render_table(result.columns, result.rows),
                                    result.meta["sentinel_failures"])
    assert all(run == runs[1, 1] for run in runs.values())
    assert bool(runs[1, 1][1]) == (grid is CONVERGENCE_GRIDS["sentinel"])
