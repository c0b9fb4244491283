"""Output checks for one CLI job.

They hold the paper's invariants, not bytes: the table sha256 depends on
the BLAS thread count in the mixed regime, so it is recorded for
information and never compared.  Tolerances are the acceptance suite's
(tests/test_acceptance.py); the CSV headers are pinned here on purpose,
so a schema change shows as a failed check.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from rabi_lab.model import ModelParams, Truncation, critical_coupling
from rabi_lab.position import PositionGrid
from rabi_lab.sweeps import merged_sector_levels

from workloads import Inputs

PARITY_HEADER = (
    "g,g_over_gc,level,energy,energy_shifted,parity,pair_index,"
    "pair_gap_shifted,pair_parity_sum,p_even,p_odd,sentinel"
)
CONVERGE_HEADER = "g,g_over_gc,n_trunc,level,energy,abs_diff_vs_ref,sentinel"
WAVEFUNCTION_HEADER = "xi,psi_plus,psi_minus"
SUMMARY_HEADER = "level,energy,energy_shifted,parity,symmetry_defect,quadrature_norm"

PAIR_SUM_BOUND = 1e-8  # pair-sum-nullity
ENERGY_TOL = 1e-10  # sector-full-equivalence
DEFECT_TOL = 1e-4  # wavefunction-parity-correspondence
# not an acceptance bound: trapezoid error on the default 0.02 grid is ~1e-15
QUADRATURE_NORM_TOL = 1e-6


class CheckFailed(Exception):
    """One violated output invariant."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _read_table(path: Path, header: str, n_rows: int) -> list:
    lines = path.read_text().splitlines()
    _require(bool(lines) and lines[0] == header, f"{path.name}: header {lines[:1]}")
    _require(len(lines) - 1 == n_rows, f"{path.name}: {len(lines) - 1} rows, expected {n_rows}")
    return [[float(cell) for cell in line.split(",")] for line in lines[1:]]


def _check_energies(table_energies, params: ModelParams, n_trunc: int, label: str) -> None:
    reference, _ = merged_sector_levels(params, Truncation(n_trunc), len(table_energies))
    worst = max(abs(a - b) for a, b in zip(table_energies, reference))
    _require(worst <= ENERGY_TOL, f"{label}: energy differs from sector solve by {worst:.3e}")


def _check_parity(inputs: Inputs, out_dir: Path, sample: int) -> None:
    rows = _read_table(out_dir / "parity.csv", PARITY_HEADER, inputs.points * inputs.levels)
    worst = max(abs(row[8]) for row in rows)
    _require(worst <= PAIR_SUM_BOUND, f"parity.csv: |pair_parity_sum| {worst:.3e}")
    _require(all(row[11] == 1.0 for row in rows), "parity.csv: sentinel column cleared")
    point = rows[(sample % inputs.points) * inputs.levels :][: inputs.levels]
    g = point[0][0]
    _check_energies(
        [row[3] for row in point], ModelParams(inputs.delta, g), inputs.n_trunc, f"g={g!r}"
    )


def _check_converge(inputs: Inputs, out_dir: Path, sample: int) -> None:
    per_point = len(inputs.truncs) * inputs.levels
    rows = _read_table(out_dir / "converge.csv", CONVERGE_HEADER, inputs.points * per_point)
    _require(all(row[6] == 1.0 for row in rows), "converge.csv: sentinel column cleared")
    point = rows[(sample % inputs.points) * per_point :][:per_point]
    g = point[0][0]
    for i, n in enumerate(inputs.truncs):
        block = point[i * inputs.levels : (i + 1) * inputs.levels]
        _require(all(row[2] == n for row in block), f"g={g!r}: n_trunc column out of order")
        _check_energies(
            [row[4] for row in block], ModelParams(inputs.delta, g), n, f"g={g!r} N={n}"
        )


def _check_wavefunction(inputs: Inputs, out_dir: Path, manifest: dict) -> None:
    params = ModelParams(inputs.delta, inputs.ratio_start * critical_coupling(inputs.delta))
    npoints = PositionGrid.default_for(params.g).npoints
    _require(manifest["grid"]["npoints"] == npoints, f"manifest grid {manifest['grid']}")
    for level in range(inputs.levels):
        _read_table(out_dir / f"wavefunction_level{level}.csv", WAVEFUNCTION_HEADER, npoints)
    rows = _read_table(out_dir / "wavefunction_summary.csv", SUMMARY_HEADER, inputs.levels)
    for level, _, _, parity, defect, norm in rows:
        gap = abs(defect - (1.0 - abs(parity)))
        _require(gap <= DEFECT_TOL, f"level {level:g}: symmetry_defect off 1-|P| by {gap:.3e}")
        _require(
            abs(norm - 1.0) <= QUADRATURE_NORM_TOL, f"level {level:g}: quadrature_norm {norm!r}"
        )
    _check_energies([row[1] for row in rows], params, inputs.n_trunc, "summary")


def expected_files(inputs: Inputs) -> set:
    if inputs.command == "wavefunction":
        names = {f"wavefunction_level{level}.csv" for level in range(inputs.levels)}
        return names | {"wavefunction_summary.csv"}
    return {f"{inputs.command}.csv"}


def check_job(inputs: Inputs, out_dir: Path, exit_code, sample: int) -> tuple[list, dict]:
    """Problems found in one job's output (empty when it passed), plus facts
    worth recording: table digests and the effective worker count.

    ``sample`` picks which grid point gets its energies re-solved.
    """
    try:
        _require(exit_code == 0, f"exit code {exit_code}, expected 0")
        manifest = json.loads((out_dir / "manifest.json").read_text())
        _require(manifest["sentinel"]["all_passed"] is True, "manifest: sentinel failed")
        digests = {}
        for entry in manifest["files"]:
            data = (out_dir / entry["name"]).read_bytes()
            digests[entry["name"]] = hashlib.sha256(data).hexdigest()
            _require(
                digests[entry["name"]] == entry["sha256"] and len(data) == entry["bytes"],
                f"{entry['name']}: bytes do not match the manifest digest",
            )
        _require(set(digests) == expected_files(inputs), f"manifest files {sorted(digests)}")
        if inputs.command == "parity":
            _check_parity(inputs, out_dir, sample)
        elif inputs.command == "converge":
            _check_converge(inputs, out_dir, sample)
        else:
            _check_wavefunction(inputs, out_dir, manifest)
    except (CheckFailed, OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"{type(exc).__name__}: {exc}"], {}
    info = {
        "digests": digests,
        "workers": manifest.get("sweep", {}).get("workers", 1),
        "sentinel_failures": len(manifest["sentinel"]["failures"]),
    }
    return [], info
