"""One setter holds numpy's own OpenBLAS at one thread for a CLI job and
restores every count after it; sweep pool children copy the caller's count
for every other mapped OpenBLAS and hold numpy's at one thread, so a sweep's
bytes do not depend on its workers."""

import json
import os
from pathlib import Path

import pytest

import rabi_lab.cli as cli
from rabi_lab import sweeps
from rabi_lab.io import render_table
from rabi_lab.model import Truncation

# delta ~ 5, g/g_c = 1.5, N = 300, 8 levels: numpy's two-thread gemv in
# position_wavefunction splits its sums, so some psi cells move in their last bit
WAVEFUNCTION = "wavefunction --delta 5 --g-over-gc 1.5 --n-trunc 300 --levels 8"
SPECTRUM = "spectrum --delta 1 --g 0.5 --n-trunc 20 --levels 4"


def _counts() -> dict:
    """{path: threads} of every mapped OpenBLAS; the setter with nothing to set."""
    return sweeps._set_openblas_threads({})


@pytest.fixture
def blas():
    """Every mapped OpenBLAS's thread count, restored afterwards."""
    before = _counts()
    yield before
    sweeps._set_openblas_threads(before)


@pytest.fixture
def numpy_blas(blas):
    """Path of numpy's own OpenBLAS; skip without a separate one."""
    own = sweeps._numpy_openblas()
    if own is None:
        pytest.skip("no OpenBLAS file of numpy's own is mapped apart from scipy's")
    return own


def _tables(out: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(out.iterdir()) if p.name != "manifest.json"}


def test_wavefunction_bytes_do_not_depend_on_numpy_threads(tmp_path, numpy_blas):
    runs = []
    for threads in (1, 2):
        sweeps._set_openblas_threads({numpy_blas: threads})
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
    sweeps._set_openblas_threads({numpy_blas: 2})
    assert cli.main([*argv.split(), "--out", str(tmp_path / "o")]) == code
    assert _counts()[numpy_blas] == 2


def test_job_pins_numpy_and_leaves_scipy_alone(tmp_path, monkeypatch, numpy_blas):
    sweeps._set_openblas_threads({numpy_blas: 2})
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
    return [(os.getpid(), _counts())], None


def _children_counts(caller: dict) -> list:
    sweeps._set_openblas_threads(caller)
    caller = _counts()
    result = sweeps._sweep(("pid", "threads"), _report_threads, list(range(4)), 2, {})
    assert _counts() == caller
    return [threads for pid, threads in result.rows if pid != os.getpid()]


def test_pool_children_hold_numpy_at_one_thread(numpy_blas):
    # a library caller with numpy at 2 and every other OpenBLAS at 1, not
    # the environment's count: children copy the others and hold numpy at 1
    others = {path: 1 for path in _counts() if path != numpy_blas}
    children = _children_counts({numpy_blas: 2, **others})
    assert children and all(threads == {numpy_blas: 1, **others} for threads in children)


def test_pool_children_copy_a_cli_jobs_thread_counts(numpy_blas):
    # the numpy pin of a CLI job, every other OpenBLAS left at its count
    caller = {**_counts(), numpy_blas: 1}
    children = _children_counts(caller)
    assert children and all(threads == caller for threads in children)


def test_sweep_bytes_do_not_depend_on_workers_after_a_runtime_lapack_setting(blas):
    # scipy's OpenBLAS set in-process, as threadpoolctl would: a child that
    # took the environment's count instead wrote different rows at g/g_c
    # 1.40 and 1.41 than the calling process
    own = sweeps._numpy_openblas()
    others = {path: 1 for path in blas if path != own}
    if not others:
        pytest.skip("no OpenBLAS apart from numpy's is mapped")
    sweeps._set_openblas_threads(others)
    tables = []
    for workers in (1, 2):
        result = sweeps.coupling_sweep(
            50, ratio_grid=sweeps.grid_values(1.40, 1.60, 0.01), n_levels=8,
            trunc=Truncation(200), workers=workers,
        )
        tables.append(render_table(result.columns, result.rows))
    assert tables[0] == tables[1]


def test_job_runs_unpinned_without_a_numpy_openblas(tmp_path, monkeypatch):
    monkeypatch.setattr(sweeps, "_mapped_openblas", lambda: {})
    out = tmp_path / "o"
    assert cli.main([*SPECTRUM.split(), "--out", str(out)]) == 0
    environment = json.loads((out / "manifest.json").read_text())["environment"]
    assert environment["openblas"] == []
    assert environment["pin"].startswith("nothing pinned")
    assert {"numpy", "scipy"} <= environment.keys()
