"""Command-line front end.

Each subcommand makes one library call: spectrum (single point), parity
(coupling sweep), wavefunction (real-space export, ``_wavefunction_job``),
converge (truncation study), phase-diagram (onset boundaries).  Options
may come from flags or from a flat key=value config file; flags win and
the manifest records where every effective value came from.

The CLI checks only what the library cannot see: required options, one
coupling source (a built-in default coupling yields to a given one),
scalar couplings for single-point commands, and the table format.  Every
physics and grid argument is checked by the library before its first
solve, and its ValueError maps to exit 2 like a configuration error.

Two tables declare the surface.  ``_OPTIONS`` gives each option its
parser, the library parameter it feeds with the conversion of its parsed
value (a range or a scalar becomes grid values, each cutoff a
``Truncation``), its built-in default, and its help.  ``_COMMANDS`` gives
each command the function it calls, its options, and only the defaults
that differ from ``_OPTIONS`` (wavefunction's levels, the g_over_gc grids
of converge and phase-diagram).  So each default is written once, and
the library takes every parameter an option feeds without a default of
its own.  ``run_job`` builds every command's one call from the two
tables and writes the tables the call returns in one loop, then the
manifest.  ``parse_config`` decides one name per value, which every
exit-2 message uses: a value from the config file is named by its key as
written (``n-trunc: expected an integer``), any other by its flag
(``--ref 20 is below the largest of --truncs, 40``).

Exit codes: 0 success, 2 configuration or I/O error (nothing is written
unless the error comes from writing), 3 solver failure, 4 sentinel
failure (results are still written, flagged).
"""

from __future__ import annotations

import argparse
import re
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Optional, Sequence

import numpy as np

from . import __version__
from ._blas import _blas_environment, _package_openblas, _set_openblas_threads
from .eigensolve import DEGENERACY_RTOL, NORM_TOL, ORTHO_TOL, RESIDUAL_RTOL, SolverError
from .io import write_manifest, write_table
from .model import ModelParams, Truncation, shifted_energy
from .parity import DEFAULT_EPS_PAR, parity_expectation
from .position import DEFAULT_STEP, PositionGrid, position_wavefunction, symmetry_defect
from .sweeps import (
    SENTINEL_THRESHOLD,
    SweepResult,
    _coupling_axis,
    convergence_sweep,
    coupling_sweep,
    grid_values,
    phase_boundary_scan,
    solve_point,
    tail_population,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_SENTINEL = 4


class ConfigError(ValueError):
    """Bad or conflicting run configuration."""


@dataclass(frozen=True)
class GridSpec:
    """Inclusive uniform range parsed from start:stop:step."""

    start: float
    stop: float
    step: float

    def values(self):
        return grid_values(self.start, self.stop, self.step)

    def canonical(self) -> str:
        return ":".join(repr(float(x)) for x in (self.start, self.stop, self.step))


@dataclass
class ResolvedConfig:
    command: str
    values: dict
    provenance: dict
    names: dict  # how messages name each value: its flag, or its key as the file wrote it

    def canonical_config(self) -> dict:
        out = {}
        for key, value in self.values.items():
            if value is None:
                continue
            if isinstance(value, GridSpec):
                out[key] = value.canonical()
            elif isinstance(value, list):
                out[key] = ",".join(str(v) for v in value)
            else:
                # str of a float is its repr, the shortest exact round-trip form
                out[key] = str(value)
        return out


def _parse_float(text: str, key: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ConfigError(f"{key}: expected a number, got {text!r}") from None


def _parse_int(text: str, key: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ConfigError(f"{key}: expected an integer, got {text!r}") from None


def _parse_int_list(text: str, key: str) -> list:
    items = [part.strip() for part in text.split(",") if part.strip()]
    if not items:
        raise ConfigError(f"{key}: expected a comma-separated integer list, got {text!r}")
    return [_parse_int(part, key) for part in items]


def _parse_scalar_or_range(text: str, key: str):
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ConfigError(f"{key}: ranges use start:stop:step, got {text!r}")
        return GridSpec(*(_parse_float(p, key) for p in parts))
    return _parse_float(text, key)


def _parse_str(text: str, key: str) -> str:
    return text


def _grid(value):
    """Values of a range, or a scalar as a one-point grid: the one place a range is expanded."""
    return value.values() if isinstance(value, GridSpec) else [float(value)]


# key -> (parser(text, name), (library parameter it feeds, conversion of
# its parsed value) or None, built-in default, help text)
_OPTIONS = {
    "delta": (_parse_float, ("delta", float), None, "level splitting (dimensionless, >= 0)"),
    "g": (_parse_scalar_or_range, ("g_grid", _grid), None,
          "coupling, absolute units; scalar or start:stop:step"),
    "g_over_gc": (_parse_scalar_or_range, ("ratio_grid", _grid), None,
                  "coupling in units of g_c; scalar or start:stop:step"),
    "n_trunc": (_parse_int, ("trunc", Truncation), 1000,
                "Fock-space cutoff (photon numbers 0 .. n_trunc-1)"),
    "levels": (_parse_int, ("n_levels", int), 8, "number of lowest levels to report"),
    "eps_par": (_parse_float, ("eps_par", float), DEFAULT_EPS_PAR,
                "phase-diagram onset: the first coupling where a member has |<P>| < 1 - EPS_PAR"),
    "truncs": (_parse_int_list, ("trunc_list", lambda ns: [Truncation(n) for n in ns]),
               [200, 400, 1000], "comma-separated candidate truncations"),
    "ref": (_parse_int, ("ref_trunc", Truncation), 2000,
            "reference truncation for convergence differences"),
    "delta_grid": (_parse_scalar_or_range, ("delta_grid", _grid), None,
                   "delta range start:stop:step"),
    "pairs": (_parse_int_list, ("pair_indices", list), [0, 1], "comma-separated pair indices"),
    "xi_max": (_parse_float, ("xi_max", float), None,
               "half-width of the position grid (default: fits the coupling)"),
    "xi_step": (_parse_float, ("step", float), DEFAULT_STEP, "position grid step"),
    "workers": (_parse_int, ("workers", int), None,
                "threads for grid points (0 = the CPUs this process may run on); "
                "converge runs on at least scipy's OpenBLAS thread count"),
    "out": (_parse_str, None, None, "output directory for tables and manifest"),
    "format": (_parse_str, None, "csv", "table format: csv or json"),
}

# command -> (name of the cli global it calls, looked up per call so that
# a wrapper installed on this module is the one called; its options in
# --help order; {option: default} where it differs from the _OPTIONS one)
_COMMANDS = {
    "spectrum": ("coupling_sweep", "delta g g_over_gc n_trunc levels out format", {}),
    "parity": ("coupling_sweep", "delta g g_over_gc n_trunc levels out format workers", {}),
    "wavefunction": ("_wavefunction_job",
                     "delta g g_over_gc n_trunc levels xi_max xi_step out format", {"levels": 2}),
    "converge": ("convergence_sweep", "delta g g_over_gc truncs ref levels out format workers",
                 {"g_over_gc": GridSpec(0.0, 6.0, 0.05)}),
    "phase-diagram": ("phase_boundary_scan",
                      "delta_grid pairs g_over_gc n_trunc eps_par out format workers",
                      {"g_over_gc": GridSpec(0.0, 2.5, 0.01)}),
}


def _defaults(command: str) -> dict:
    """The command's options in --help order, each with its built-in default."""
    _, keys, overrides = _COMMANDS[command]
    return {key: overrides.get(key, _OPTIONS[key][2]) for key in keys.split()}


_SUMMARY_COLUMNS = (
    "level", "energy", "energy_shifted", "parity", "symmetry_defect", "quadrature_norm"
)


def _flag(key: str) -> str:
    return f"--{key.replace('_', '-')}"


def _in_option_terms(message: str, cfg: ResolvedConfig) -> str:
    """A library error message with the parameters the options feed named as the options.

    One pass, so a flag it inserts (--g-over-gc) is never rewritten again.
    """
    names = {_OPTIONS[k][1][0]: name for k, name in cfg.names.items() if _OPTIONS[k][1]}
    return re.sub(rf"\b({'|'.join(names)})\b", lambda m: names[m[1]], message)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rabi-lab",
        description="Exact diagonalization and parity diagnostics for the quantum Rabi model",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", metavar="command")
    for command in _COMMANDS:
        p = sub.add_parser(command, help=f"{command} job")
        p.add_argument("--config", default=None, help="flat key=value config file")
        for key in _defaults(command):
            p.add_argument(_flag(key), dest=key, default=None, help=_OPTIONS[key][3])
    return parser


def _read_config_file(path: str) -> dict:
    """{option key: (the key as written, value text)} of a flat key = value file."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = re.split(r"(?:^|\s)#", raw, maxsplit=1)[0].strip()
        if not line:
            continue
        written, sep, value = (part.strip() for part in line.partition("="))
        if not (sep and written and value):
            raise ConfigError(f"{path}:{lineno}: expected key = value, got {raw!r}")
        key = written.replace("-", "_")
        if key in values:
            raise ConfigError(f"{path}:{lineno}: duplicate key {written}")
        values[key] = written, value
    return values


def parse_config(argv: Optional[list] = None) -> ResolvedConfig:
    """Parse argv plus optional config file into one resolved configuration.

    Precedence: command-line flag, then config file, then built-in
    default.  A coupling given both as g and as g_over_gc by flag or file
    is rejected; a default g_over_gc yields to a given g.
    """
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_usage(sys.stderr)
        raise ConfigError("missing command")
    cfg = ResolvedConfig(args.command, {}, {}, {})
    defaults = _defaults(cfg.command)
    file_values = _read_config_file(args.config) if args.config else {}
    for key, (written, _) in file_values.items():
        if key not in defaults:
            raise ConfigError(f"config file key {written!r} is not valid for {cfg.command}")
    for key, default in defaults.items():
        flag_text = getattr(args, key)
        if flag_text is not None:
            source, name, text = "flag", _flag(key), flag_text
        elif key in file_values:
            source, (name, text) = "file", file_values[key]
        else:
            source, name, text = "default", _flag(key), None
        cfg.values[key] = default if text is None else _OPTIONS[key][0](text, name)
        cfg.provenance[key], cfg.names[key] = source, name
    _validate(cfg)
    return cfg


def _require(values: dict, key: str) -> None:
    if values.get(key) in (None, ""):
        raise ConfigError(f"missing required option {_flag(key)}")


def _validate(cfg: ResolvedConfig) -> None:
    """Command-line rules only; the library checks every physics and grid value."""
    command, values, provenance, names = cfg.command, cfg.values, cfg.provenance, cfg.names
    if command == "phase-diagram":
        _require(values, "delta_grid")
    else:
        _require(values, "delta")
        if values["g"] is not None and provenance["g_over_gc"] == "default":
            values["g_over_gc"] = None
        g, ratio = values["g"], values["g_over_gc"]
        if g is not None and ratio is not None:
            raise ConfigError(
                f"coupling given twice: {names['g']} (from {provenance['g']}) and "
                f"{names['g_over_gc']} (from {provenance['g_over_gc']}); set exactly one"
            )
        if g is None and ratio is None:
            raise ConfigError("set a coupling with --g or --g-over-gc")
        chosen = g if g is not None else ratio
        if command in ("spectrum", "wavefunction") and isinstance(chosen, GridSpec):
            raise ConfigError(f"{command} takes a scalar coupling, not a range")
    if values["format"] not in ("csv", "json"):
        raise ConfigError(f"{names['format']} must be csv or json, got {values['format']!r}")
    _require(values, "out")


def _finish(cfg: ResolvedConfig, extra: dict, failures: list, tables: Iterable, t0: float) -> int:
    out_dir = Path(cfg.values["out"])  # made by its first write
    fmt = cfg.values["format"]
    files = [
        write_table(out_dir / f"{name}.{fmt}", columns, rows, fmt)
        for name, columns, rows in tables
    ]
    manifest = {
        "tool": {"name": "rabi-lab", "version": __version__},
        "created_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "command": cfg.command,
        "config": cfg.canonical_config(),
        "config_provenance": dict(cfg.provenance),
        "solver_tolerances": {
            "residual_rtol": RESIDUAL_RTOL,
            "norm_tol": NORM_TOL,
            "ortho_tol": ORTHO_TOL,
            "degeneracy_rtol": DEGENERACY_RTOL,
            "sentinel_threshold": SENTINEL_THRESHOLD,
        },
        "wall_time_s": time.perf_counter() - t0,
        "environment": _blas_environment(),
        **extra,
        "files": files,
        "sentinel": {"all_passed": not failures, "failures": failures},
    }
    write_manifest(out_dir, manifest)
    if failures:
        print(
            "sentinel failure: retained states leak past 0.9 * n_trunc; "
            "raise n_trunc (details in manifest.json)",
            file=sys.stderr,
        )
        return EXIT_SENTINEL
    return EXIT_OK


def _wavefunction_job(
    delta: float,
    g_grid: Optional[Sequence[float]] = None,
    *,
    ratio_grid: Optional[Sequence[float]] = None,
    trunc: Truncation,
    n_levels: int,
    step: float,
    xi_max: Optional[float] = None,
) -> tuple:
    """Position-space table of each lowest level at one coupling, then their summary.

    Returns (manifest entries, sentinel failures, tables made one level at
    a time as they are written); no tables after a failed sentinel.
    """
    (g,), _ = _coupling_axis(delta, g_grid, ratio_grid, trunc)
    params = ModelParams(delta, float(g))
    grid = PositionGrid.default_for(g, step) if xi_max is None else PositionGrid(xi_max, step)
    spectrum = solve_point(params, trunc, n_levels)
    if tail_population(spectrum.eigenvectors, trunc) >= SENTINEL_THRESHOLD:
        return {}, [0], ()
    wfs = position_wavefunction(spectrum.eigenvectors, grid, trunc)

    def tables():
        xi = grid.xi.tolist()
        summary = []
        for level, wf in enumerate(wfs):
            rows = list(zip(xi, wf.psi_plus.tolist(), wf.psi_minus.tolist()))
            yield f"wavefunction_level{level}", ("xi", "psi_plus", "psi_minus"), rows
            energy = float(spectrum.eigenvalues[level])
            parity = parity_expectation(spectrum.eigenvectors[:, level], trunc)
            defect, norm = symmetry_defect(wf), wf.quadrature_norm()
            summary.append((level, energy, shifted_energy(energy, params), parity, defect, norm))
        yield "wavefunction_summary", _SUMMARY_COLUMNS, summary

    grid_meta = {"xi_max": grid.xi_max, "step": grid.step, "npoints": grid.npoints}
    return {"grid": grid_meta}, [], tables()


def run_job(cfg: ResolvedConfig) -> int:
    """Execute one resolved job; returns the process exit code.

    The job's one call is built from the two tables.  A sweep result is
    one table named after the command, its meta the manifest's ``sweep``.
    """
    t0 = time.perf_counter()
    kwargs = {}
    for key, value in cfg.values.items():
        binding = _OPTIONS[key][1]
        if binding and value is not None:
            parameter, convert = binding
            try:
                kwargs[parameter] = convert(value)
            except ValueError as exc:
                raise ValueError(f"{parameter}: {exc}") from None
    result = globals()[_COMMANDS[cfg.command][0]](**kwargs)
    if isinstance(result, SweepResult):
        table = (cfg.command.replace("-", "_"), result.columns, result.rows)
        result = {"sweep": result.meta}, result.meta["sentinel_failures"], [table]
    return _finish(cfg, *result, t0)


def main(argv: Optional[list] = None) -> int:
    try:
        cfg = parse_config(argv)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SystemExit as exc:
        return int(exc.code or 0)
    before = _set_openblas_threads({_package_openblas(np): 1})  # restored on every return path
    try:
        return run_job(cfg)
    except SolverError as exc:  # a sweep's names the grid point that failed
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except ValueError as exc:
        print(f"config error: {_in_option_terms(str(exc), cfg)}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    finally:
        _set_openblas_threads(before)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
