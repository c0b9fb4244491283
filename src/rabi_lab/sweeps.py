"""Grid sweeps over coupling, truncation and level splitting.

Every sweep binds its shared inputs once with ``functools.partial`` and maps
that point function over one item per grid point, ``(index, g)``, or per
delta for the phase scan, ``(delta, g_c, grid)``.  Every sweep checks
``workers`` (0 means the CPUs this process may run on, default 1), and meta
``workers`` records the threads that ran.  The dense sweeps solve in grid
order on the calling thread, as ``scipy.linalg.eigh`` holds the GIL; the
convergence sweep's tridiagonal solves release it, so ``_sweep``'s pool,
this package's one, runs its points on ``workers`` threads but no fewer than
scipy's OpenBLAS has (1 when it cannot be read), at most one per point.
Every solve runs in this process at its OpenBLAS thread counts, and rows
merge back in grid order, identical for any thread count.  Bound inputs are
data only: a point looks the solve, sentinel and parity functions up as
module globals when it runs, so a wrapper installed on this module (the
benchmark tracer, ``perfbench/tracing.py``) sees every call.

Each point is guarded by a truncation sentinel: the summed photon
population of every retained state from photon index ceil(0.9 * n_trunc)
(at most n_trunc - 1) must stay below SENTINEL_THRESHOLD.  Failing points
are kept in the output with their sentinel column cleared, never dropped,
and the indices are listed in the result metadata so callers can escalate.

Every sweep checks all of its arguments before the first solve, so a bad
argument raises ValueError without any work done.  A parameter that a
command-line option feeds has no default of its own: it is required,
defaults to None, or shares the CLI's default object (``eps_par``, which
only ``phase_boundary_scan`` takes).

Dense points run through ``_dense_point`` (solve, sentinel, pair report);
``phase_boundary_scan`` walks each delta's grid with it to find each pair's
onset, the first coupling at which a member has |<P>| < 1 - eps_par.  The
convergence sweep's ``merged_sector_levels`` solves both sectors in one
tridiagonal call, merged by the dense path's tie order and ``tail_population``.
A solver failure is re-raised naming the grid index, delta and g of its point.
"""

from __future__ import annotations

import math
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial
from typing import Optional, Sequence

import numpy as np

from ._blas import lapack_threads
from .eigensolve import SolverError, Spectrum, _tie_order, eig_sym_dense, eig_sym_tridiag
from .model import (
    BANDWIDTH,
    ModelParams,
    Truncation,
    _integer,
    build_hamiltonian,
    critical_coupling,
    sector_hamiltonian,
    sector_rows,
)
from .parity import DEFAULT_EPS_PAR, PairParity, check_eps_par, pair_report

__all__ = [
    "PARITY_COLUMNS",
    "CONVERGENCE_COLUMNS",
    "PHASE_COLUMNS",
    "SENTINEL_THRESHOLD",
    "SweepResult",
    "convergence_sweep",
    "coupling_sweep",
    "grid_values",
    "phase_boundary_scan",
    "resolve_workers",
    "solve_point",
    "tail_population",
]

SENTINEL_THRESHOLD = 1e-12

PARITY_COLUMNS = (
    "g",
    "g_over_gc",
    "level",
    "energy",
    "energy_shifted",
    "parity",
    "pair_index",
    "pair_gap_shifted",
    "pair_parity_sum",
    "p_even",
    "p_odd",
    "sentinel",
)

CONVERGENCE_COLUMNS = (
    "g",
    "g_over_gc",
    "n_trunc",
    "level",
    "energy",
    "abs_diff_vs_ref",
    "sentinel",
)

PHASE_COLUMNS = (
    "delta",
    "g_c",
    "pair_index",
    "onset_g",
    "onset_g_over_gc",
    "grid_step",
    "found",
    "degenerate",
)


@dataclass
class SweepResult:
    """Tabular sweep output: column names, rows in grid order, metadata."""

    columns: tuple[str, ...]
    rows: list[tuple]
    meta: dict


def grid_values(start: float, stop: float, step: float) -> np.ndarray:
    """Inclusive uniform grid start, start+step, ... up to stop.

    The end point is included within a small relative guard so ranges like
    0:2:0.01 land on the intended 201 points despite binary rounding.
    """
    start, stop, step = float(start), float(stop), float(step)
    if not all(map(math.isfinite, (start, stop, step))):
        raise ValueError("grid bounds and step must be finite")
    if step <= 0:
        raise ValueError(f"grid step must be > 0, got {step}")
    if stop < start:
        raise ValueError(f"grid stop {stop} is below start {start}")
    if not math.isfinite((stop - start) / step):
        raise ValueError(f"grid {start}:{stop}:{step} has too many points to count")
    count = int(math.floor((stop - start) / step + 1e-9)) + 1
    try:
        return start + step * np.arange(count)
    except (MemoryError, ValueError):  # numpy refuses a size it cannot allocate or address
        raise ValueError(f"grid {start}:{stop}:{step} has too many points to allocate") from None


def tail_start_index(n_trunc: int) -> int:
    """First photon index counted as tail: ceil(0.9 * n_trunc), at most n_trunc - 1."""
    return min((9 * n_trunc + 9) // 10, n_trunc - 1)


def tail_population(vectors: np.ndarray, trunc: Truncation) -> float:
    """Largest tail photon population over a (dim, k) block's columns, in any memory layout."""
    v = np.asarray(vectors, dtype=float)
    if v.ndim != 2 or v.shape[0] != trunc.dim:
        raise ValueError(f"vectors must be a ({trunc.dim}, k) block, got shape {v.shape}")
    v2 = np.asfortranarray(v[2 * tail_start_index(trunc.n_trunc):]) ** 2
    return float((v2[0::2] + v2[1::2]).sum(axis=0).max())


def solve_point(params: ModelParams, trunc: Truncation, n_levels: int) -> Spectrum:
    """Dense full-operator solve for the lowest n_levels, in place on the built Hamiltonian."""
    n_levels = _integer("n_levels", n_levels)
    if not 1 <= n_levels <= trunc.dim:
        raise ValueError(f"n_levels must be in [1, {trunc.dim}], got {n_levels}")
    return eig_sym_dense(build_hamiltonian(params, trunc), BANDWIDTH, n_levels)


def resolve_workers(workers: Optional[int] = None) -> int:
    """Thread count from the request alone: None gives 1, 0 the CPUs this process may run on."""
    if workers is None:
        return 1
    workers = _integer("workers", workers)
    if workers < 0:
        raise ValueError(f"workers must be >= 0, got {workers}")
    if workers:
        return workers
    if hasattr(os, "sched_getaffinity"):  # Linux; elsewhere every CPU counts
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _sweep(columns: tuple, point, items: list, threads: int, meta: dict) -> SweepResult:
    """Map the point over the items on ``threads`` threads and join the results in grid order.

    This is the package's one thread pool, at most one thread per item.
    ``Executor.map`` yields in item order, so a failure raises at the
    lowest failing index, and the items not yet started are cancelled.
    """
    t0 = time.perf_counter()
    workers = min(threads, len(items))
    if workers <= 1:  # on this thread, where an interrupt stops the sweep at once
        results = [point(item) for item in items]
    else:
        with ThreadPoolExecutor(workers) as pool:
            results = list(pool.map(point, items))
    meta.update(
        workers=workers,
        sentinel_failures=[bad for _, bad in results if bad is not None],
        wall_time_s=time.perf_counter() - t0,
    )
    return SweepResult(
        columns=columns, rows=[row for rows, _ in results for row in rows], meta=meta
    )


def _truncation(name: str, value) -> Truncation:
    """A cutoff as given; anything but a ``Truncation``, such as 200, raises ValueError naming it."""
    if not isinstance(value, Truncation):
        raise ValueError(f"{name} must be a Truncation, got {value!r}")
    return value


def _vector(name: str, value, dtype=float) -> np.ndarray:
    """A non-empty 1-d sequence as an array; a scalar or iterator raises ValueError naming it."""
    try:
        array = np.asarray(value, dtype=dtype)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"{name}: {exc}") from None
    if array.ndim != 1:
        raise ValueError(f"{name} must be a 1-d sequence, got {value!r}")
    if array.size == 0:
        raise ValueError(f"{name} must not be empty")
    return array


def _solve_at(index: int, delta: float, g: float, solve, *args):
    """solve(*args) at one grid point, a SolverError re-raised naming the point."""
    try:
        return solve(*args)
    except SolverError as exc:
        raise SolverError(f"grid index {index} (delta={delta!r}, g={g!r}): {exc}") from exc


def _coupling_axis(
    delta: float,
    g_grid: Optional[Sequence[float]],
    ratio_grid: Optional[Sequence[float]],
    trunc: Truncation,
) -> tuple[np.ndarray, dict]:
    """Absolute coupling grid from exactly one of the two axes (named in errors), plus meta.

    Its lowest g that overflows ``sector_hamiltonian`` at ``trunc`` raises that ValueError.
    """
    if (g_grid is None) == (ratio_grid is None):
        raise ValueError("provide exactly one of g_grid or ratio_grid")
    gc = critical_coupling(delta)
    if ratio_grid is not None:
        with np.errstate(over="ignore"):  # a ratio whose g overflows is refused as not finite
            name, grid = "ratio_grid", _vector("ratio_grid", ratio_grid) * gc
    else:
        name, grid = "g_grid", _vector("g_grid", g_grid)
    if not np.isfinite(grid).all() or (grid < 0).any():
        raise ValueError(f"{name} values must be finite and >= 0")
    if (np.diff(grid) <= 0).any():
        raise ValueError(f"{name} must be strictly increasing")
    root = math.sqrt(trunc.n_trunc - 1)
    if not math.isfinite(float(grid[-1]) * root):  # Python floats overflow without a warning
        g = next(g for g in grid.tolist() if not math.isfinite(g * root))
        raise ValueError(f"g={g!r} overflows g * sqrt(n) at n_trunc={trunc.n_trunc}")
    meta = {
        "delta": float(delta),
        "g_c": gc,
        "grid_points": len(grid),
        "g_first": float(grid[0]),
        "g_last": float(grid[-1]),
    }
    return grid, meta


def _dense_point(
    index: int, delta: float, g: float, trunc: Truncation, n_levels: int, **report
) -> tuple[list[PairParity], bool]:
    """Solve, tail sentinel and ``pair_report(**report)`` of one point: (pairs, sentinel passed)."""
    params = ModelParams(delta, g)
    spectrum = _solve_at(index, delta, g, solve_point, params, trunc, n_levels)
    ok = tail_population(spectrum.eigenvectors, trunc) < SENTINEL_THRESHOLD
    return pair_report(spectrum, params, trunc, **report), ok


def _coupling_point(
    delta: float, g_c: float, trunc: Truncation, n_levels: int, item: tuple
) -> tuple[list[tuple], Optional[int]]:
    index, g = item
    pairs, ok = _dense_point(index, delta, g, trunc, n_levels)
    rows = [
        (
            g,
            g / g_c,
            2 * pair.pair_index + side,
            pair.energies[side],
            pair.energies_shifted[side],
            pair.parity[side],
            pair.pair_index,
            pair.gap_shifted,
            pair.parity_sum,
            pair.p_even[side],
            pair.p_odd[side],
            int(ok),
        )
        for pair in pairs
        for side in (0, 1)
    ]
    return rows, None if ok else index


def coupling_sweep(
    delta: float,
    g_grid: Optional[Sequence[float]] = None,
    *,
    ratio_grid: Optional[Sequence[float]] = None,
    n_levels: int,
    trunc: Truncation,
    workers: Optional[int] = None,
) -> SweepResult:
    """Parity diagnostics for the lowest levels along a coupling grid.

    Exactly one of ``g_grid`` (absolute) or ``ratio_grid`` (units of g_c)
    selects the axis.  Emits two rows per pair and point in the pinned
    parity table layout.  ``workers`` is checked; points solve on this thread.
    """
    trunc = _truncation("trunc", trunc)
    grid, meta = _coupling_axis(delta, g_grid, ratio_grid, trunc)
    n_levels = _integer("n_levels", n_levels)
    if n_levels % 2 or not 2 <= n_levels <= trunc.dim:
        raise ValueError(f"n_levels must be even and in [2, {trunc.dim}], got {n_levels}")
    resolve_workers(workers)
    point = partial(_coupling_point, float(delta), meta["g_c"], trunc, n_levels)
    meta.update(kind="coupling_sweep", n_trunc=trunc.n_trunc, n_levels=n_levels)
    return _sweep(PARITY_COLUMNS, point, list(enumerate(grid.tolist())), 1, meta)


def merged_sector_levels(
    params: ModelParams, trunc: Truncation, n_levels: int
) -> tuple[np.ndarray, float]:
    """Lowest n_levels of the union of both parity sectors, from one tridiagonal solve.

    Returns (energies ascending, max tail population over the kept
    states).  The sector tridiagonals are joined by a zero off-diagonal,
    so LAPACK solves each block apart, for one level more than kept: a
    tie at the cut falls to the package's tie rule.  Each eigenvector
    sits on its sector's ``sector_rows`` of one full-basis block, so the
    dense path's tie order and ``tail_population`` apply unchanged.
    """
    n_levels = _integer("n_levels", n_levels)
    if not 1 <= n_levels <= trunc.dim:
        raise ValueError(f"n_levels must be in [1, {trunc.dim}], got {n_levels}")
    (d_even, e_even), (d_odd, e_odd) = (sector_hamiltonian(params, trunc, s) for s in (1, -1))
    diag, offdiag = np.concatenate((d_even, d_odd)), np.concatenate((e_even, [0.0], e_odd))
    spec = eig_sym_tridiag(diag, offdiag, min(n_levels + 1, trunc.dim))
    block = np.zeros((trunc.dim, spec.k), order="F")  # column-major for column reductions
    block[np.concatenate((sector_rows(trunc, 1), sector_rows(trunc, -1)))] = spec.eigenvectors
    kept = _tie_order(spec.eigenvalues, block)[:n_levels]
    return spec.eigenvalues[kept], tail_population(block[:, kept], trunc)


def _convergence_point(
    delta: float, g_c: float, truncs: list, ref: Truncation, n_levels: int, item: tuple
) -> tuple[list[tuple], Optional[dict]]:
    index, g = item
    params = ModelParams(delta, g)
    energies, ok = {}, {}
    for tr in dict.fromkeys((ref, *truncs)):  # reference first; a repeated N solves once
        energies[tr], tail = _solve_at(index, delta, g, merged_sector_levels, params, tr, n_levels)
        ok[tr] = tail < SENTINEL_THRESHOLD
    rows = [
        (
            g,
            g / g_c,
            trunc.n_trunc,
            level,
            energies[trunc][level],
            abs(energies[trunc][level] - energies[ref][level]),
            int(ok[trunc]),
        )
        for trunc in truncs
        for level in range(n_levels)
    ]
    bad = sorted(trunc.n_trunc for trunc in ok if not ok[trunc])
    return rows, {"grid_index": index, "n_trunc": bad} if bad else None


def convergence_sweep(
    delta: float,
    g_grid: Optional[Sequence[float]] = None,
    *,
    ratio_grid: Optional[Sequence[float]] = None,
    trunc_list: Sequence[Truncation],
    ref_trunc: Truncation,
    n_levels: int,
    workers: Optional[int] = None,
) -> SweepResult:
    """Truncation-convergence table |E_i(N) - E_i(N_ref)| along a coupling grid.

    All energies come from the merged parity-sector path, so the study
    isolates the Fock cutoff and every truncation goes through the same
    solver.  The reference must not be smaller than any candidate.  Each
    point solves its truncations in turn, reference first, and the points
    run on ``workers`` threads but no fewer than scipy's OpenBLAS has: the
    tridiagonal solves are single-threaded and release the GIL.
    """
    ref_trunc = _truncation("ref_trunc", ref_trunc)
    truncs = [_truncation("trunc_list", tr) for tr in _vector("trunc_list", trunc_list, object)]
    grid, meta = _coupling_axis(delta, g_grid, ratio_grid, ref_trunc)
    sizes = [trunc.n_trunc for trunc in truncs]
    ref = ref_trunc.n_trunc
    if ref < max(sizes):
        raise ValueError(f"ref_trunc {ref} is below the largest of trunc_list, {max(sizes)}")
    n_levels = _integer("n_levels", n_levels)
    if not 1 <= n_levels <= 2 * min(sizes):
        raise ValueError(f"n_levels must be in [1, {2 * min(sizes)}], got {n_levels}")
    workers = max(resolve_workers(workers), lapack_threads())
    point = partial(_convergence_point, float(delta), meta["g_c"], truncs, ref_trunc, n_levels)
    meta.update(kind="convergence_sweep", trunc_list=sizes, ref_trunc=ref, n_levels=n_levels)
    return _sweep(CONVERGENCE_COLUMNS, point, list(enumerate(grid.tolist())), workers, meta)


def _phase_point(
    pairs: list, eps_par: float, trunc: Truncation, n_levels: int, item: tuple
) -> tuple[list[tuple], Optional[dict]]:
    delta, g_c, grid = item
    onsets: dict[int, float] = {}
    failing = []
    for i, g in enumerate(grid):
        report, ok = _dense_point(i, delta, g, trunc, n_levels, eps_par=eps_par)
        if not ok:
            failing.append(i)
        if i == 0:
            first = report
        for pair in pairs:
            if not report[pair].regular:
                onsets.setdefault(pair, g)
        if len(onsets) == len(pairs):
            break
    step = grid[1] - grid[0]
    rows = []
    for pair in pairs:
        g = onsets.get(pair, math.nan)
        degenerate = int(first[pair].degenerate)
        rows.append((delta, g_c, pair, g, g / g_c, step, int(pair in onsets), degenerate))
    return rows, {"delta": delta, "grid_index": failing} if failing else None


def phase_boundary_scan(
    delta_grid: Sequence[float],
    pair_indices: Sequence[int],
    *,
    ratio_grid: Sequence[float],
    eps_par: float = DEFAULT_EPS_PAR,
    trunc: Truncation,
    workers: Optional[int] = None,
) -> SweepResult:
    """Irregularity onset per (delta, pair) over a shared g/g_c grid.

    Each delta in turn walks the grid upward on this thread (``workers`` is
    only checked) until every requested pair has turned irregular.  Rows where
    the pair is already degenerate at the smallest coupling of the grid carry
    a degenerate flag: their per-state parities are solver-arbitrary from the
    start and the onset column is no physical boundary there.  Visited points
    that fail the sentinel are listed per delta in the metadata, beside
    ``n_levels`` (2 * max(pair) + 2), the level count an onset depends on.
    """
    trunc = _truncation("trunc", trunc)
    deltas = _vector("delta_grid", delta_grid).tolist()
    try:
        for d in deltas:
            critical_coupling(d)
    except ValueError as exc:
        raise ValueError(f"delta_grid: {exc}") from None
    pairs = _vector("pair_indices", pair_indices, object)
    pairs = sorted({_integer("pair_indices", p) for p in pairs})
    if pairs[0] < 0:
        raise ValueError(f"pair_indices must be non-negative, got {pair_indices!r}")
    n_levels = 2 * pairs[-1] + 2
    if n_levels > trunc.dim:
        raise ValueError(
            f"pair {pairs[-1]} does not fit in {trunc.dim} levels of n_trunc={trunc.n_trunc}"
        )
    ratios = _vector("ratio_grid", ratio_grid)
    if ratios.size < 2:
        raise ValueError("ratio_grid must contain at least two points")
    eps_par = check_eps_par(eps_par)
    resolve_workers(workers)
    axes = [_coupling_axis(d, None, ratios, trunc) for d in deltas]
    items = [(axis["delta"], axis["g_c"], grid.tolist()) for grid, axis in axes]
    meta = {
        "kind": "phase_boundary_scan",
        "deltas": deltas,
        "pairs": pairs,
        "ratio_first": float(ratios[0]),
        "ratio_last": float(ratios[-1]),
        "grid_points": len(ratios),
        "eps_par": eps_par,
        "n_trunc": trunc.n_trunc,
        "n_levels": n_levels,
    }
    point = partial(_phase_point, pairs, eps_par, trunc, n_levels)
    return _sweep(PHASE_COLUMNS, point, items, 1, meta)
