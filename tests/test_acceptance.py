"""End-to-end acceptance checks, one printed verdict per criterion.

The heavyweight shared fixture is a single strong-splitting sweep
(delta=50, N=1000, ratio 0 to 2.5 in steps of 0.01, 8 levels) reused by
the pair-sum, purity, onset, and wavefunction checks.  Expect a few
minutes of wall time for this module on one core.
"""

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from rabi_lab.eigensolve import RESIDUAL_RTOL, eig_sym_tridiag
from rabi_lab.io import render_table
from rabi_lab.model import (
    ModelParams,
    Truncation,
    build_hamiltonian,
    critical_coupling,
    parity_diagonal,
    sector_hamiltonian,
    shifted_energy,
)
from rabi_lab.parity import pair_report, parity_expectation
from rabi_lab.position import PositionGrid, position_wavefunction, symmetry_defect
from rabi_lab.sweeps import (
    convergence_sweep,
    coupling_sweep,
    grid_values,
    phase_boundary_scan,
    solve_point,
)

GOLDEN_PATH = Path(__file__).parent / "golden" / "onset_delta50.json"

DELTA_STRONG = 50.0
STRONG_TRUNC = Truncation(1000)
STRONG_LEVELS = 8
RATIOS = grid_values(0.0, 2.5, 0.01)


def _verdict(label: str, ok: bool, detail: str) -> None:
    print(f"[acceptance] {label}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{label}: {detail}"


@pytest.fixture(scope="module")
def strong_sweep():
    t0 = time.perf_counter()
    result = coupling_sweep(
        DELTA_STRONG,
        ratio_grid=RATIOS,
        n_levels=STRONG_LEVELS,
        trunc=STRONG_TRUNC,
    )
    wall = time.perf_counter() - t0
    recs = [dict(zip(result.columns, row)) for row in result.rows]
    return {"result": result, "recs": recs, "wall_s": wall}


@pytest.fixture(scope="module")
def golden_onsets():
    return json.loads(GOLDEN_PATH.read_text())


def test_parity_commutator_randomized():
    rng = np.random.default_rng(20260819)
    worst = 0.0
    for _ in range(100):
        delta = float(rng.uniform(0.0, 50.0))
        n = int(rng.integers(16, 201))
        g = float(rng.uniform(0.0, 6.0 * critical_coupling(delta)))
        tr = Truncation(n)
        h = build_hamiltonian(ModelParams(delta, g), tr)
        p = parity_diagonal(tr)
        bound = 1e-13 * max(1.0, float(np.abs(h).max()))
        # H P - P H with P = diag(p)
        defect = float(np.abs(h * p[None, :] - p[:, None] * h).max())
        worst = max(worst, defect / bound)
        if defect > bound:
            break
    _verdict(
        "commutator-exactness",
        worst <= 1.0,
        f"worst |HP-PH| over bound = {worst:.3e} across 100 draws",
    )


def test_closed_form_limits():
    delta, n = 1.0, 50
    sp = solve_point(ModelParams(delta, 0.0), Truncation(n), 2 * n)
    expected = np.sort(
        np.concatenate([np.arange(n) + delta / 2.0, np.arange(n) - delta / 2.0])
    )
    free_err = float(np.abs(sp.eigenvalues - expected).max())

    params = ModelParams(0.0, 2.0)
    sp0 = solve_point(params, Truncation(400), 8)
    ground_err = abs(sp0.eigenvalues[0] + 4.0)
    gaps = np.abs(np.diff(sp0.eigenvalues))[0::2]
    shifted = shifted_energy(sp0.eigenvalues, params)
    level_err = float(np.abs(shifted[0::2] - np.arange(4)).max())
    ok = free_err <= 1e-12 and ground_err <= 1e-8 and gaps.max() <= 1e-10 and level_err <= 1e-8
    _verdict(
        "closed-form-limits",
        ok,
        f"free spectrum err {free_err:.2e}; displaced ground err {ground_err:.2e}; "
        f"doublet gaps max {gaps.max():.2e}",
    )


def test_sector_full_equivalence():
    delta = 1.0
    tr = Truncation(200)
    worst = 0.0
    for ratio in (0.5, 1.0, 2.0, 4.0):
        params = ModelParams(delta, ratio * critical_coupling(delta))
        full = solve_point(params, tr, tr.dim).eigenvalues
        parts = []
        for sector in (1, -1):
            d, e = sector_hamiltonian(params, tr, sector)
            parts.append(eig_sym_tridiag(d, e, tr.n_trunc).eigenvalues)
        union = np.sort(np.concatenate(parts))
        worst = max(worst, float(np.abs(full - union).max()))
    _verdict(
        "sector-full-equivalence",
        worst <= 1e-10,
        f"max per-eigenvalue deviation {worst:.3e} over 4 couplings",
    )


def test_pair_sum_nullity(strong_sweep):
    recs = [r for r in strong_sweep["recs"] if r["g_over_gc"] <= 2.0 + 1e-12]
    worst = max(abs(r["pair_parity_sum"]) for r in recs)
    npoints = len({r["g"] for r in recs})
    ok = worst <= 1e-8 and npoints == 201 and strong_sweep["wall_s"] < 600.0
    _verdict(
        "pair-sum-nullity",
        ok,
        f"max |pair parity sum| {worst:.3e} over {npoints} points, "
        f"sweep wall {strong_sweep['wall_s']:.0f}s",
    )


def test_regular_regime_purity(strong_sweep):
    recs = [
        r
        for r in strong_sweep["recs"]
        if r["g_over_gc"] <= 1.2 + 1e-12 and r["level"] in (0, 1)
    ]
    worst = max(1.0 - abs(r["parity"]) for r in recs)
    _verdict(
        "regular-regime-purity",
        worst <= 1e-6,
        f"max 1-|<P>| {worst:.3e} for the ground pair up to 1.2 g_c",
    )


def _onsets_from_rows(recs, eps_par=0.1):
    """First grid ratio per pair where min |<P>| drops below 1 - eps_par."""
    by_ratio: dict[float, dict[int, float]] = {}
    for r in recs:
        by_ratio.setdefault(r["g_over_gc"], {})[r["level"]] = abs(r["parity"])
    onsets: dict[int, float] = {}
    for ratio in sorted(by_ratio):
        levels = by_ratio[ratio]
        for pair in range(4):
            if pair in onsets:
                continue
            if min(levels[2 * pair], levels[2 * pair + 1]) < 1.0 - eps_par:
                onsets[pair] = ratio
    return onsets


def test_irregular_onset(strong_sweep, golden_onsets):
    onsets = _onsets_from_rows(strong_sweep["recs"])
    ok = 0 in onsets and 1 in onsets
    detail = f"sweep onsets {onsets}"
    step = 0.01
    if ok:
        ok = 1.4 < onsets[0] <= 2.5 and onsets[1] >= onsets[0]

        # the dedicated scanner, restarted just below the sweep-located
        # onset on the identical coupling doubles, must find the same
        # boundary; allow a few grid steps because it retains fewer
        # levels per solve and doublet mixing depths are solver-sensitive
        start = max(0, int(round(onsets[0] / step)) - 5)
        scan = phase_boundary_scan(
            [DELTA_STRONG], (0,), ratio_grid=RATIOS[start:], trunc=STRONG_TRUNC
        )
        located = dict(zip(scan.columns, scan.rows[0]))
        ok = ok and located["found"] == 1
        if located["found"]:
            ok = ok and abs(located["onset_g_over_gc"] - onsets[0]) <= 3.0 * step + 1e-12
            detail += f"; scanner onset {located['onset_g_over_gc']:.4f}"

        for pair in (0, 1):
            recorded = golden_onsets["onsets"][str(pair)]["ratio"]
            drift = abs(onsets.get(pair, math.inf) - recorded)
            ok = ok and drift <= 3.0 * step + 1e-12
            detail += f"; pair{pair} drift from golden {drift:.3f}"
    _verdict("irregular-onset", ok, detail)


def test_near_degeneracy_scale():
    params = ModelParams(1.0, 6.0 * critical_coupling(1.0))
    tr = Truncation(1000)
    sp = solve_point(params, tr, 2)
    gap = float(np.diff(shifted_energy(sp.eigenvalues, params))[0])
    residual = float(sp.residual_norms.max())
    tol = RESIDUAL_RTOL * sp.meta.scale
    ok = abs(gap) <= 1e-10 and residual <= tol
    _verdict(
        "near-degeneracy-scale",
        ok,
        f"shifted pair-0 gap {gap:.3e}, max residual {residual:.3e} (tol {tol:.3e})",
    )


def test_truncation_convergence():
    result = convergence_sweep(
        1.0,
        ratio_grid=grid_values(0.0, 6.0, 0.05),
        trunc_list=(Truncation(200), Truncation(400), Truncation(1000)),
        ref_trunc=Truncation(2000),
        n_levels=2,
    )
    recs = [dict(zip(result.columns, row)) for row in result.rows]
    ground = [r for r in recs if r["level"] == 0]
    by_g: dict[float, dict[int, float]] = {}
    for r in ground:
        by_g.setdefault(r["g"], {})[r["n_trunc"]] = r["abs_diff_vs_ref"]
    worst_final = max(d[1000] for d in by_g.values())
    # monotone within the 1e-12 agreement floor: once successive
    # truncations land on the reference to solver precision the raw
    # ordering of sub-floor differences is noise, not physics
    floor = 1e-12
    monotone = all(
        d[200] + floor >= d[400] and d[400] + floor >= d[1000]
        for d in by_g.values()
    )
    ok = worst_final <= 1e-12 and monotone and len(by_g) == 121
    _verdict(
        "truncation-convergence",
        ok,
        f"max |E0(1000)-E0(2000)| = {worst_final:.3e} over {len(by_g)} points; "
        f"monotone within {floor:.0e} floor: {monotone}",
    )


def test_wavefunction_parity_correspondence(strong_sweep):
    gc = critical_coupling(DELTA_STRONG)
    checks = []
    ok = True

    for ratio in (0.5, 1.2):
        params = ModelParams(DELTA_STRONG, ratio * gc)
        sp = solve_point(params, STRONG_TRUNC, STRONG_LEVELS)
        grid = PositionGrid.default_for(params.g)
        for lv, wf in enumerate(position_wavefunction(sp.eigenvectors[:, :2], grid, STRONG_TRUNC)):
            v = sp.eigenvectors[:, lv]
            gap = abs(symmetry_defect(wf) - (1.0 - abs(parity_expectation(v, STRONG_TRUNC))))
            ok = ok and gap <= 1e-4
            checks.append(f"r={ratio} lv={lv} defect gap {gap:.1e}")
        ground = pair_report(sp, params, STRONG_TRUNC)[0]
        ok = ok and ground.p_even[0] > ground.p_odd[0]
        checks.append(f"r={ratio} ground p_even-p_odd {ground.p_even[0] - ground.p_odd[0]:+.3f}")

    # irregular regime located from the sweep itself: the point past the
    # pair-0 onset where the doublet is most strongly mixed, re-solved on
    # the sweep's own path, so its pair-0 parities are the sweep's bit for bit
    onset0 = _onsets_from_rows(strong_sweep["recs"])[0]
    swept: dict[float, tuple] = {}
    for r in strong_sweep["recs"]:
        if r["level"] in (0, 1) and r["g_over_gc"] >= onset0:
            swept[r["g"]] = (*swept.get(r["g"], ()), r["parity"])
    g_star = min(swept, key=lambda g: max(map(abs, swept[g])))
    star = g_star / gc
    params = ModelParams(DELTA_STRONG, g_star)
    sp = solve_point(params, STRONG_TRUNC, STRONG_LEVELS)
    doublet = pair_report(sp, params, STRONG_TRUNC)[0]
    same = doublet.parity == swept[g_star]
    ok = ok and same
    checks.append(f"r={star:.2f} re-solve reproduces the sweep's pair-0 parity: {same}")
    for lv in (0, 1):
        spread = abs(doublet.p_even[lv] - doublet.p_odd[lv])
        ok = ok and spread < 0.2
        checks.append(f"r={star:.2f} lv={lv} |p_even-p_odd| {spread:.3f}")

    _verdict("wavefunction-parity-correspondence", ok, "; ".join(checks))


def test_worker_schedule_independence():
    # the convergence sweep is the one whose points run on the thread pool:
    # on max(workers, scipy's OpenBLAS threads) threads, finishing in any order
    kwargs = dict(
        ratio_grid=grid_values(0.0, 1.5, 0.1),
        trunc_list=(Truncation(100), Truncation(200)),
        ref_trunc=Truncation(300),
        n_levels=STRONG_LEVELS,
    )
    seq = convergence_sweep(DELTA_STRONG, workers=1, **kwargs)
    par = convergence_sweep(DELTA_STRONG, workers=2, **kwargs)
    seq_bytes = render_table(seq.columns, zip(*seq.rows))
    par_bytes = render_table(par.columns, zip(*par.rows))
    ok = seq_bytes == par_bytes and seq.meta["sentinel_failures"] == par.meta["sentinel_failures"]
    _verdict(
        "worker-schedule-independence",
        ok,
        f"{len(seq.rows)} rows, {len(seq_bytes)} bytes, workers 1 vs 2 "
        f"(ran on {seq.meta['workers']} vs {par.meta['workers']} threads) identical: {ok}",
    )
