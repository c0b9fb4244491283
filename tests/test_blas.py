"""numpy's own OpenBLAS is held at one thread for a CLI job and in sweep pool
children, restored after the job, and scipy's OpenBLAS is never set."""

import json
import os
from pathlib import Path

import pytest

import rabi_lab.cli as cli
from rabi_lab import sweeps

# delta ~ 5, g/g_c = 1.5, N = 300, 8 levels: numpy's two-thread gemv in
# position_wavefunction splits its sums, so some psi cells move in their last bit
WAVEFUNCTION = "wavefunction --delta 5 --g-over-gc 1.5 --n-trunc 300 --levels 8"
SPECTRUM = "spectrum --delta 1 --g 0.5 --n-trunc 20 --levels 4"


def _numpy_threads() -> int:
    return sweeps._openblas_call(sweeps._numpy_openblas(), "get_num_threads")


def _other_threads() -> dict:
    own = sweeps._numpy_openblas()
    return {
        path: sweeps._openblas_call(lib, "get_num_threads")
        for path, lib in sweeps._mapped_openblas()
        if lib is not own
    }


@pytest.fixture
def numpy_blas():
    """Skip without a separate numpy OpenBLAS; restore its thread count afterwards."""
    if sweeps._numpy_openblas() is None:
        pytest.skip("no OpenBLAS file of numpy's own is mapped apart from scipy's")
    before = _numpy_threads()
    yield
    sweeps._set_numpy_threads(before)


def _tables(out: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(out.iterdir()) if p.name != "manifest.json"}


def test_wavefunction_bytes_do_not_depend_on_numpy_threads(tmp_path, numpy_blas):
    runs = []
    for threads in (1, 2):
        sweeps._set_numpy_threads(threads)
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
    sweeps._set_numpy_threads(2)
    assert cli.main([*argv.split(), "--out", str(tmp_path / "o")]) == code
    assert _numpy_threads() == 2


def test_job_pins_numpy_and_leaves_scipy_alone(tmp_path, monkeypatch, numpy_blas):
    others = _other_threads()
    if not others:
        pytest.skip("no OpenBLAS apart from numpy's is mapped")
    seen = []

    def solve_point(*args):
        seen.append((_numpy_threads(), _other_threads()))
        return sweeps.solve_point(*args)

    sweeps._set_numpy_threads(2)
    monkeypatch.setattr(cli, "solve_point", solve_point)
    assert cli.main([*WAVEFUNCTION.split(), "--out", str(tmp_path / "o")]) == 0
    assert seen == [(1, others)]
    environment = json.loads((tmp_path / "o" / "manifest.json").read_text())["environment"]
    assert [lib["pinned"] for lib in environment["openblas"]].count(True) == 1
    for lib in environment["openblas"]:
        assert lib["threads"] == 1 if lib["pinned"] else lib["threads"] in others.values()
        assert lib["config"].startswith("OpenBLAS")


def _report_threads(item):
    return [(os.getpid(), _numpy_threads())], None


def test_pool_children_hold_numpy_at_one_thread(numpy_blas):
    sweeps._set_numpy_threads(2)
    result = sweeps._sweep(("pid", "threads"), _report_threads, list(range(4)), 2, {})
    children = {threads for pid, threads in result.rows if pid != os.getpid()}
    assert children == {1}
    assert _numpy_threads() == 2


def test_job_runs_unpinned_without_a_numpy_openblas(tmp_path, monkeypatch):
    monkeypatch.setattr(sweeps, "_mapped_openblas", lambda: ())
    out = tmp_path / "o"
    assert cli.main([*SPECTRUM.split(), "--out", str(out)]) == 0
    environment = json.loads((out / "manifest.json").read_text())["environment"]
    assert environment["openblas"] == []
    assert environment["pin"].startswith("nothing pinned")
    assert {"numpy", "scipy"} <= environment.keys()
