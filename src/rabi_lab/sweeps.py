"""Grid sweeps over coupling, truncation and level splitting.

Every sweep binds its shared inputs once with ``functools.partial`` and
maps that point function over one item per grid point, ``(index, g)``, or
per delta for the phase scan, ``(delta, g_c, grid)``.  The ``workers``
argument sets the point threads (0 means the CPUs this process may run
on, default 1), at most one per item, and meta ``workers`` records it.
A convergence point also solves its truncations side by side on
``max(1, L // workers)`` threads, where L is the thread count of scipy's
OpenBLAS (1 when it cannot be read), and meta ``solve_threads`` records
that budget.  This module is the only one that starts threads.  The
threads are this process's, so every solve runs LAPACK at this process's
OpenBLAS thread counts, and results merge back in grid and truncation
order, identical for any thread count.  Tridiagonal solves release the
GIL and run side by side; dense solves (``scipy.linalg.eigh``) hold it
and run one at a time.  Bound inputs are data, plus the convergence
point's map over its solve threads: a point looks the solve, sentinel
and parity functions up as module globals when it runs, so a wrapper
installed on this module (the benchmark tracer, ``perfbench/tracing.py``)
sees every call.

Each point is guarded by a truncation sentinel: the summed photon
population of every retained state from photon index ceil(0.9 * n_trunc)
(at most n_trunc - 1) must stay below SENTINEL_THRESHOLD.  Failing points
are kept in the output with their sentinel column cleared, never dropped,
and the indices are listed in the result metadata so callers can escalate.

Every sweep checks all of its arguments before the first solve, so a bad
argument raises ValueError without any work done.  A parameter that a
command-line option feeds has no default of its own: it is required,
defaults to None, or shares the CLI's default object (``eps_par``).

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
from contextlib import nullcontext
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


def _sweep(columns: tuple, point, items: list, workers: Optional[int], meta: dict) -> SweepResult:
    """Map the point over the items on ``workers`` point threads, results joined in grid order.

    ``workers`` sets only the point threads; a convergence point's solve
    threads come from ``convergence_sweep``.  ``Executor.map`` yields in
    item order, so a failure raises at the lowest failing index, and the
    items not yet started are cancelled.
    """
    t0 = time.perf_counter()
    workers = min(resolve_workers(workers), len(items))
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
            name, grid = "ratio_grid", np.asarray(ratio_grid, dtype=float) * gc
    else:
        name, grid = "g_grid", np.asarray(g_grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0:
        raise ValueError(f"{name} must be a non-empty 1-d sequence")
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
    index: int, delta: float, g: float, trunc: Truncation, n_levels: int, eps_par: float
) -> tuple[list[PairParity], bool]:
    """Dense solve, tail sentinel and pair report of one point: (pair report, sentinel passed)."""
    params = ModelParams(delta, g)
    spectrum = _solve_at(index, delta, g, solve_point, params, trunc, n_levels)
    ok = tail_population(spectrum.eigenvectors, trunc) < SENTINEL_THRESHOLD
    return pair_report(spectrum, params, trunc, eps_par), ok


def _coupling_point(
    delta: float, g_c: float, trunc: Truncation, n_levels: int, eps_par: float, item: tuple
) -> tuple[list[tuple], Optional[int]]:
    index, g = item
    pairs, ok = _dense_point(index, delta, g, trunc, n_levels, eps_par)
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
    eps_par: float = DEFAULT_EPS_PAR,
    workers: Optional[int] = None,
) -> SweepResult:
    """Parity diagnostics for the lowest levels along a coupling grid.

    Exactly one of ``g_grid`` (absolute) or ``ratio_grid`` (units of g_c)
    selects the axis.  Emits two rows per pair and point in the pinned
    parity table layout.
    """
    grid, meta = _coupling_axis(delta, g_grid, ratio_grid, trunc)
    n_levels = _integer("n_levels", n_levels)
    if n_levels % 2 or not 2 <= n_levels <= trunc.dim:
        raise ValueError(f"n_levels must be even and in [2, {trunc.dim}], got {n_levels}")
    eps_par = check_eps_par(eps_par)
    point = partial(_coupling_point, float(delta), meta["g_c"], trunc, n_levels, eps_par)
    meta.update(kind="coupling_sweep", n_trunc=trunc.n_trunc, n_levels=n_levels, eps_par=eps_par)
    return _sweep(PARITY_COLUMNS, point, list(enumerate(grid.tolist())), workers, meta)


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
    delta: float, g_c: float, truncs: list, ref: Truncation, n_levels: int, solve_map,
    item: tuple,
) -> tuple[list[tuple], Optional[dict]]:
    index, g = item
    params = ModelParams(delta, g)
    order = list(dict.fromkeys((ref, *truncs)))  # reference first; a repeated N solves once
    solved = solve_map(
        lambda tr: _solve_at(index, delta, g, merged_sector_levels, params, tr, n_levels), order
    )  # yields in order, so the first failing truncation raises
    energies, ok = {}, {}
    for tr, (levels, tail) in zip(order, solved):
        energies[tr], ok[tr] = levels, tail < SENTINEL_THRESHOLD
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
    point maps its truncations, reference first, over one pool of
    ``solve_threads`` threads shared by the whole sweep, or solves them
    in turn on its own thread when the budget is 1.
    """
    grid, meta = _coupling_axis(delta, g_grid, ratio_grid, ref_trunc)
    truncs = list(trunc_list)
    sizes = [trunc.n_trunc for trunc in truncs]
    if not sizes:
        raise ValueError("trunc_list must not be empty")
    ref = ref_trunc.n_trunc
    if ref < max(sizes):
        raise ValueError(f"ref_trunc {ref} is below the largest of trunc_list, {max(sizes)}")
    n_levels = _integer("n_levels", n_levels)
    if not 1 <= n_levels <= 2 * min(sizes):
        raise ValueError(f"n_levels must be in [1, {2 * min(sizes)}], got {n_levels}")
    workers = min(resolve_workers(workers), len(grid))
    solve_threads = max(1, lapack_threads() // workers)
    meta.update(kind="convergence_sweep", trunc_list=sizes, ref_trunc=ref, n_levels=n_levels,
                solve_threads=solve_threads)
    with ThreadPoolExecutor(solve_threads) if solve_threads > 1 else nullcontext() as pool:
        point = partial(_convergence_point, float(delta), meta["g_c"], truncs, ref_trunc,
                        n_levels, pool.map if pool else map)
        return _sweep(CONVERGENCE_COLUMNS, point, list(enumerate(grid.tolist())), workers, meta)


def _phase_point(
    pairs: list, eps_par: float, trunc: Truncation, n_levels: int, item: tuple
) -> tuple[list[tuple], Optional[dict]]:
    delta, g_c, grid = item
    onsets: dict[int, float] = {}
    failing = []
    for i, g in enumerate(grid):
        report, ok = _dense_point(i, delta, g, trunc, n_levels, eps_par)
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

    Each delta walks the grid upward and stops once every requested pair
    has turned irregular.  Rows where the pair is already degenerate at
    the smallest coupling of the grid carry a degenerate flag: their
    per-state parities are solver-arbitrary from the start and the onset
    column is not a boundary in any physical sense there.  Visited points
    that fail the sentinel are listed per delta in the metadata, beside
    ``n_levels`` (2 * max(pair) + 2), the level count an onset depends on.
    """
    deltas = [float(d) for d in delta_grid]
    if not deltas:
        raise ValueError("delta_grid must not be empty")
    try:
        for d in deltas:
            critical_coupling(d)
    except ValueError as exc:
        raise ValueError(f"delta_grid: {exc}") from None
    pairs = sorted(set(_integer("pair_indices", p) for p in pair_indices))
    if not pairs:
        raise ValueError("pair_indices must not be empty")
    if pairs[0] < 0:
        raise ValueError(f"pair_indices must be non-negative, got {pair_indices!r}")
    n_levels = 2 * pairs[-1] + 2
    if n_levels > trunc.dim:
        raise ValueError(
            f"pair {pairs[-1]} does not fit in {trunc.dim} levels of n_trunc={trunc.n_trunc}"
        )
    ratios = np.asarray(ratio_grid, dtype=float)
    if ratios.ndim != 1 or ratios.size < 2:
        raise ValueError("ratio_grid must contain at least two points")
    eps_par = check_eps_par(eps_par)
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
    return _sweep(PHASE_COLUMNS, point, items, workers, meta)
