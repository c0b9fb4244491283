"""Command-line surface: precedence, validation, exit codes, reproducibility."""

import hashlib
import inspect
import json
from pathlib import Path

import numpy as np
import pytest

import rabi_lab.cli as cli
from rabi_lab import position
from rabi_lab.cli import ConfigError, GridSpec, main, parse_config
from rabi_lab.eigensolve import SolverError
from rabi_lab.io import render_table
from rabi_lab.model import ModelParams, Truncation, critical_coupling
from rabi_lab.position import PositionGrid
from rabi_lab.sweeps import PARITY_COLUMNS, solve_point


def _read_csv(path):
    lines = Path(path).read_text(encoding="ascii").split("\n")
    assert lines[-1] == ""
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:-1]]
    return header, rows


def test_flag_beats_file_beats_default(tmp_path):
    cfgfile = tmp_path / "job.cfg"
    cfgfile.write_text("delta = 50\ng_over_gc = 1.0\nlevels = 4\n")
    cfg = parse_config(
        [
            "spectrum",
            "--config",
            str(cfgfile),
            "--delta",
            "1",
            "--out",
            str(tmp_path / "o"),
        ]
    )
    assert cfg.values["delta"] == 1.0
    assert cfg.values["g_over_gc"] == 1.0
    assert cfg.values["levels"] == 4
    assert cfg.values["n_trunc"] == 1000
    assert cfg.provenance["delta"] == "flag"
    assert cfg.provenance["g_over_gc"] == "file"
    assert cfg.provenance["levels"] == "file"
    assert cfg.provenance["n_trunc"] == "default"


def test_conflicting_coupling_names_both_sources(tmp_path):
    cfgfile = tmp_path / "job.cfg"
    cfgfile.write_text("g = 1.0\n")
    with pytest.raises(ConfigError) as err:
        parse_config(
            [
                "spectrum",
                "--config",
                str(cfgfile),
                "--delta",
                "1",
                "--g-over-gc",
                "2",
                "--out",
                str(tmp_path / "o"),
            ]
        )
    msg = str(err.value)
    assert "file" in msg and "flag" in msg
    assert "exactly one" in msg


def test_unknown_config_key_rejected(tmp_path):
    cfgfile = tmp_path / "job.cfg"
    cfgfile.write_text("delta = 1\nnonsense = 3\n")
    with pytest.raises(ConfigError) as err:
        parse_config(
            ["spectrum", "--config", str(cfgfile), "--g", "1", "--out", str(tmp_path / "o")]
        )
    assert "nonsense" in str(err.value)


def test_config_file_syntax(tmp_path):
    good = tmp_path / "good.cfg"
    good.write_text("# comment\n\ndelta = 1\ng = 0.5   # trailing comment\n")
    cfg = parse_config(["spectrum", "--config", str(good), "--out", str(tmp_path / "o")])
    assert cfg.values["g"] == 0.5
    # a '#' starts a comment only at the start of a line or after whitespace
    hashed = tmp_path / "hashed.cfg"
    hashed.write_text(f"delta = 1\ng = 0.5\nout = {tmp_path / 'run#3'}\n")
    out = parse_config(["spectrum", "--config", str(hashed)]).values["out"]
    assert out == str(tmp_path / "run#3")
    bad = tmp_path / "bad.cfg"
    bad.write_text("delta 1\n")
    with pytest.raises(ConfigError):
        parse_config(["spectrum", "--config", str(bad), "--out", str(tmp_path / "o")])
    dup = tmp_path / "dup.cfg"
    dup.write_text("delta = 1\ndelta = 2\n")
    with pytest.raises(ConfigError):
        parse_config(["spectrum", "--config", str(dup), "--out", str(tmp_path / "o")])
    missing = tmp_path / "nothere.cfg"
    with pytest.raises(ConfigError):
        parse_config(["spectrum", "--config", str(missing), "--out", str(tmp_path / "o")])


def test_range_tokens_parse():
    cfg = parse_config(
        ["parity", "--delta", "1", "--g-over-gc", "0:2:0.5", "--out", "x"]
    )
    spec = cfg.values["g_over_gc"]
    assert isinstance(spec, GridSpec)
    assert (spec.start, spec.stop, spec.step) == (0.0, 2.0, 0.5)
    with pytest.raises(ConfigError):
        parse_config(["parity", "--delta", "1", "--g-over-gc", "0:2", "--out", "x"])


def test_scalar_only_commands_reject_ranges():
    for command in ("spectrum", "wavefunction"):
        with pytest.raises(ConfigError):
            parse_config(
                [command, "--delta", "1", "--g-over-gc", "0:2:0.5", "--out", "x"]
            )


def test_missing_required_options():
    with pytest.raises(ConfigError):
        parse_config(["spectrum", "--delta", "1", "--g", "1"])  # no out
    with pytest.raises(ConfigError):
        parse_config(["spectrum", "--delta", "1", "--out", "x"])  # no coupling
    with pytest.raises(ConfigError):
        parse_config(["spectrum", "--g", "1", "--out", "x"])  # no delta
    with pytest.raises(ConfigError, match="missing required option --out"):
        parse_config(["spectrum", "--delta", "0", "--g", "1", "--out", ""])  # empty out


def test_odd_level_count_rejected(tmp_path, capsys):
    out = tmp_path / "odd"
    argv = ["parity", "--delta", "1", "--g", "1", "--levels", "3", "--out", str(out)]
    assert main(argv) == 2
    assert not out.exists()
    assert "--levels must be even" in capsys.readouterr().err


def test_exit_code_config_error(tmp_path, capsys):
    assert main([]) == 2
    assert main(["spectrum", "--delta", "1", "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err


def test_exit_code_success_and_outputs(tmp_path):
    out = tmp_path / "run"
    rc = main(
        [
            "spectrum",
            "--delta",
            "1",
            "--g-over-gc",
            "0.8",
            "--n-trunc",
            "60",
            "--levels",
            "4",
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    header, rows = _read_csv(out / "spectrum.csv")
    assert header == list(PARITY_COLUMNS)
    assert len(rows) == 4
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["sentinel"]["all_passed"] is True
    assert manifest["config_provenance"]["n_trunc"] == "flag"
    assert "solver_tolerances" in manifest
    for entry in manifest["files"]:
        digest = hashlib.sha256((out / entry["name"]).read_bytes()).hexdigest()
        assert digest == entry["sha256"]


def test_exit_code_sentinel_failure(tmp_path, capsys):
    out = tmp_path / "starved"
    rc = main(
        [
            "spectrum",
            "--delta",
            "1",
            "--g-over-gc",
            "6",
            "--n-trunc",
            "50",
            "--levels",
            "4",
            "--out",
            str(out),
        ]
    )
    assert rc == 4
    assert "sentinel" in capsys.readouterr().err
    header, rows = _read_csv(out / "spectrum.csv")
    sentinel_col = header.index("sentinel")
    assert all(r[sentinel_col] == "0" for r in rows)
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["sentinel"]["all_passed"] is False


@pytest.mark.parametrize(
    "argv",
    [
        "parity --delta 1 --g-over-gc 3 --n-trunc 9 --levels 4",
        "converge --delta 1 --g-over-gc 3 --truncs 5 --ref 9 --levels 2",
    ],
    ids=["parity", "converge"],
)
def test_sentinel_counts_last_photon_below_ten(tmp_path, argv):
    # ceil(0.9 * N) is N itself for N <= 9; the tail must still hold the
    # last photon index, or a starved solve passes the sentinel
    out = tmp_path / "starved"
    assert main([*argv.split(), "--out", str(out)]) == 4
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["sentinel"]["all_passed"] is False


def test_wavefunction_sentinel_blocks_exports(tmp_path):
    out = tmp_path / "wf_starved"
    rc = main(
        [
            "wavefunction",
            "--delta",
            "1",
            "--g-over-gc",
            "6",
            "--n-trunc",
            "50",
            "--out",
            str(out),
        ]
    )
    assert rc == 4
    # no partial wavefunction tables may survive a failed sentinel
    assert sorted(p.name for p in out.iterdir()) == ["manifest.json"]


def test_exit_code_solver_failure(tmp_path, monkeypatch):
    def boom(*args, **kwargs):
        raise SolverError("synthetic failure")

    monkeypatch.setattr(cli, "coupling_sweep", boom)
    rc = main(
        [
            "spectrum",
            "--delta",
            "1",
            "--g",
            "0.5",
            "--n-trunc",
            "40",
            "--levels",
            "2",
            "--out",
            str(tmp_path / "x"),
        ]
    )
    assert rc == 3


def test_exit_code_io_error(tmp_path):
    blocker = tmp_path / "blocker"
    blocker.write_text("not a directory")
    rc = main(
        [
            "spectrum",
            "--delta",
            "1",
            "--g",
            "0.5",
            "--n-trunc",
            "40",
            "--levels",
            "2",
            "--out",
            str(blocker / "sub"),
        ]
    )
    assert rc == 2


def test_csv_tokens_round_trip_exactly(tmp_path):
    out = tmp_path / "rt"
    main(
        [
            "spectrum",
            "--delta",
            "1",
            "--g-over-gc",
            "1.3",
            "--n-trunc",
            "60",
            "--levels",
            "4",
            "--out",
            str(out),
        ]
    )
    header, rows = _read_csv(out / "spectrum.csv")
    for row in rows:
        for token in row:
            value = float(token) if ("." in token or "e" in token) else int(token)
            assert render_table(("x",), [(value,)]) == f"x\n{token}\n".encode("ascii")


def _replay(out1, out2):
    """Rerun the job recorded in out1's manifest config, writing to out2."""
    manifest = json.loads((out1 / "manifest.json").read_text())
    replay = [manifest["command"]]
    for key, token in manifest["config"].items():
        if key != "out":
            replay += [f"--{key.replace('_', '-')}", str(token)]
    assert main(replay + ["--out", str(out2)]) == 0
    return manifest


@pytest.mark.parametrize(
    "job",
    [
        "spectrum --delta 2 --g-over-gc 1.2 --n-trunc 50 --levels 4",
        "parity --delta 2 --g-over-gc 0:1:0.25 --n-trunc 50 --levels 4",
        "wavefunction --delta 1 --g-over-gc 1.5 --n-trunc 60 --levels 4 --xi-step 0.05",
        "converge --delta 1 --g-over-gc 0:0.5:0.25 --truncs 20,40 --ref 80 --levels 2",
        "phase-diagram --delta-grid 1:2:1 --pairs 0,1 --g-over-gc 0.5:1.5:0.5 --n-trunc 40",
    ],
    ids=lambda job: job.split()[0],
)
def test_manifest_config_reruns_identically(tmp_path, job):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main([*job.split(), "--out", str(out1)]) == 0
    manifest = _replay(out1, out2)
    names = [entry["name"] for entry in manifest["files"]]
    assert names and sorted(p.name for p in out2.iterdir()) == sorted([*names, "manifest.json"])
    for name in names:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


def test_json_format_matches_csv_values(tmp_path):
    argv_common = [
        "spectrum",
        "--delta",
        "1",
        "--g",
        "0.7",
        "--n-trunc",
        "50",
        "--levels",
        "2",
    ]
    out_c = tmp_path / "c"
    out_j = tmp_path / "j"
    assert main(argv_common + ["--out", str(out_c)]) == 0
    assert main(argv_common + ["--format", "json", "--out", str(out_j)]) == 0
    header, rows = _read_csv(out_c / "spectrum.csv")
    payload = json.loads((out_j / "spectrum.json").read_text())
    assert payload["columns"] == header
    for csv_row, json_row in zip(rows, payload["rows"]):
        for token, value in zip(csv_row, json_row):
            if isinstance(value, float):
                assert float(token) == value
            else:
                assert str(value) == token


def test_wavefunction_outputs(tmp_path):
    out = tmp_path / "wf"
    rc = main(
        [
            "wavefunction",
            "--delta",
            "1",
            "--g-over-gc",
            "1.5",
            "--n-trunc",
            "200",
            "--levels",
            "2",
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    names = sorted(p.name for p in out.iterdir())
    assert names == [
        "manifest.json",
        "wavefunction_level0.csv",
        "wavefunction_level1.csv",
        "wavefunction_summary.csv",
    ]
    header, rows = _read_csv(out / "wavefunction_level0.csv")
    assert header == ["xi", "psi_plus", "psi_minus"]
    xi = np.array([float(r[0]) for r in rows])
    assert xi[0] == -xi[-1]
    header, rows = _read_csv(out / "wavefunction_summary.csv")
    assert header == [
        "level",
        "energy",
        "energy_shifted",
        "parity",
        "symmetry_defect",
        "quadrature_norm",
    ]
    assert len(rows) == 2
    for row in rows:
        assert abs(float(row[5]) - 1.0) <= 1e-6


def test_wavefunction_builds_one_hermite_table(tmp_path, monkeypatch):
    # one table serves every level, and each level's file is the per-state
    # contraction v[0::2] @ table, v[1::2] @ table rendered cell by cell
    calls = []
    original = position.hermite_basis

    def counted(grid, n_max):
        calls.append(n_max)
        return original(grid, n_max)

    monkeypatch.setattr(position, "hermite_basis", counted)
    out = tmp_path / "wf"
    argv = ["wavefunction", "--delta", "1", "--g-over-gc", "1.5", "--n-trunc", "80"]
    assert main([*argv, "--levels", "8", "--out", str(out)]) == 0
    assert calls == [80]
    params = ModelParams(1.0, 1.5 * critical_coupling(1.0))
    grid = PositionGrid.default_for(params.g)
    table = original(grid, 80)
    vectors = solve_point(params, Truncation(80), 8).eigenvectors
    for level in range(8):
        v = vectors[:, level]
        columns = (grid.xi, v[0::2] @ table, v[1::2] @ table)
        lines = ["xi,psi_plus,psi_minus"]
        lines += [
            ",".join(format(float(c[i]), ".17g") for c in columns) for i in range(grid.npoints)
        ]
        expected = "\n".join(lines) + "\n"
        assert (out / f"wavefunction_level{level}.csv").read_text(encoding="ascii") == expected


def test_converge_command(tmp_path):
    out = tmp_path / "cv"
    rc = main(
        [
            "converge",
            "--delta",
            "1",
            "--g-over-gc",
            "0:0.5:0.25",
            "--truncs",
            "20,40",
            "--ref",
            "80",
            "--levels",
            "2",
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    header, rows = _read_csv(out / "converge.csv")
    assert header == [
        "g",
        "g_over_gc",
        "n_trunc",
        "level",
        "energy",
        "abs_diff_vs_ref",
        "sentinel",
    ]
    assert len(rows) == 3 * 2 * 2


def test_converge_accepts_g_over_default_ratio(tmp_path, capsys):
    # converge has a default g_over_gc range; a given g replaces it
    argv = ["converge", "--delta", "1", "--g", "0:0.5:0.25", "--truncs", "20,40", "--ref", "80"]
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(argv + ["--levels", "2", "--out", str(out1)]) == 0
    manifest = _replay(out1, out2)
    assert manifest["config"]["g"] == "0.0:0.5:0.25"
    assert "g_over_gc" not in manifest["config"]
    assert (out1 / "converge.csv").read_bytes() == (out2 / "converge.csv").read_bytes()
    out3 = tmp_path / "both"
    assert main(argv + ["--g-over-gc", "0.5", "--out", str(out3)]) == 2
    assert "--g (from flag) and --g-over-gc (from flag)" in capsys.readouterr().err
    assert not out3.exists()


def test_phase_diagram_command(tmp_path):
    out = tmp_path / "pd"
    rc = main(
        [
            "phase-diagram",
            "--delta-grid",
            "2",
            "--pairs",
            "0",
            "--g-over-gc",
            "0.1:0.5:0.2",
            "--n-trunc",
            "40",
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    header, rows = _read_csv(out / "phase_diagram.csv")
    assert header == [
        "delta",
        "g_c",
        "pair_index",
        "onset_g",
        "onset_g_over_gc",
        "grid_step",
        "found",
        "degenerate",
    ]
    assert len(rows) == 1
    assert rows[0][header.index("found")] == "0"


def test_phase_diagram_sentinel_failure(tmp_path):
    # N=60 cannot hold the delta=50 states past ~1.25 g_c; a scan that
    # reads "no onset" there must say its answer is unconverged
    out = tmp_path / "pd_starved"
    rc = main(
        [
            "phase-diagram",
            "--delta-grid",
            "50:50:1",
            "--g-over-gc",
            "0:2.5:0.05",
            "--n-trunc",
            "60",
            "--out",
            str(out),
        ]
    )
    assert rc == 4
    header, rows = _read_csv(out / "phase_diagram.csv")
    assert header[-2:] == ["found", "degenerate"] and len(rows) == 2
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["sentinel"]["all_passed"] is False
    (failure,) = manifest["sentinel"]["failures"]
    assert failure["delta"] == 50.0
    assert failure["grid_index"][-1] == 50


@pytest.mark.parametrize(
    "argv, named",
    [
        (["phase-diagram", "--delta-grid", "2", "--g-over-gc", "1:1:0.1"], "--g-over-gc"),
        (["phase-diagram", "--delta-grid", "2", "--pairs", "30", "--n-trunc", "10"], "pair 30"),
        (["parity", "--delta", "1", "--g", "-0.1"], "--g values must be finite and >= 0"),
        (
            ["spectrum", "--delta", "1", "--g", "0.1", "--n-trunc", "10", "--levels", "40"],
            "--levels must be even",
        ),
        (["phase-diagram", "--delta-grid", "-1"], "--delta-grid: delta must be finite"),
        (["phase-diagram", "--delta-grid", "2", "--g-over-gc", "0.5"], "error: --g-over-gc must"),
        (
            ["parity", "--delta", "1", "--g", "0.5", "--n-trunc", "10", "--eps-par", "2"],
            "--eps-par must be in",
        ),
        (
            ["converge", "--delta", "1", "--g-over-gc", "0.5", "--truncs", "1,10", "--ref", "20"],
            "--truncs",
        ),
        (
            ["converge", "--delta", "1", "--truncs", "10", "--ref", "20", "--levels", "0"],
            "--levels must be in",
        ),
        (
            ["parity", "--delta", "1", "--g", "0.5", "--n-trunc", "10", "--workers", "-1"],
            "--workers must be >= 0",
        ),
        (
            ["wavefunction", "--delta", "1", "--g", "0.5", "--n-trunc", "10", "--xi-step", "-1"],
            "--xi-step must satisfy 0 < --xi-step <= --xi-max",
        ),
        (
            ["converge", "--delta", "1", "--g-over-gc", "0.5", "--truncs", "40", "--ref", "20"],
            "--ref 20 is below the largest of --truncs, 40",
        ),
        (
            ["wavefunction", "--delta", "1", "--g-over-gc", "-1"],
            "--g-over-gc values must be finite and >= 0",
        ),
        (["parity", "--delta", "1", "--g", "0.5", "--n-trunc", "1"], "--n-trunc: n_trunc must"),
        (["parity", "--delta", "1", "--g", "0.5", "--n-trunc", "abc"], "--n-trunc: expected an"),
        (["parity", "--delta", "1", "--g", "0:1:-1"], "--g: grid step must be > 0"),
        (
            ["phase-diagram", "--delta-grid", "0:1e308:1e-300"],
            "--delta-grid: grid 0.0:1e+308:1e-300 has too many points to count",
        ),
        # numpy's size limit; then grids of 1e17 points, 800 PB, more than a
        # process can map on current 64-bit hardware: refused, no memory touched
        (
            ["parity", "--delta", "1", "--g-over-gc", "0:1e300:1"],
            "--g-over-gc: grid 0.0:1e+300:1.0 has too many points to allocate",
        ),
        (
            ["parity", "--delta", "1", "--g", "0:1:1e-17"],
            "--g: grid 0.0:1.0:1e-17 has too many points to allocate",
        ),
        (
            ["phase-diagram", "--delta-grid", "0:1:1e-17"],
            "--delta-grid: grid 0.0:1.0:1e-17 has too many points to allocate",
        ),
        (
            ["wavefunction", "--delta", "1", "--g", "0.5", "--n-trunc", "10",
             "--xi-max", "1e300", "--xi-step", "1e-10"],
            "grid of --xi-max 1e+300 and --xi-step 1e-10 has too many points to count",
        ),
        (
            ["wavefunction", "--delta", "1", "--g", "0.5", "--n-trunc", "10",
             "--xi-max", "1e6", "--xi-step", "1e-7"],
            "grid of --xi-max 1000000.0 and --xi-step 1e-07 has too many points to allocate",
        ),
        (["parity", "--delta", "1", "--g", "0.5", "--format", "xml"], "--format must be csv"),
        (
            ["parity", "--delta", "1", "--g", "1e308", "--n-trunc", "10", "--levels", "2"],
            "g=1e+308 overflows g * sqrt(n) at n_trunc=10",
        ),
    ],
    ids=[
        "one_point_grid",
        "pair_beyond_truncation",
        "negative_coupling",
        "levels_beyond_truncation",
        "negative_delta_grid",
        "scalar_ratio",
        "eps_par_out_of_range",
        "candidate_truncation_below_two",
        "zero_levels",
        "negative_workers",
        "negative_xi_step",
        "ref_below_largest_candidate",
        "negative_wavefunction_ratio",
        "truncation_below_two",
        "non_integer_truncation",
        "negative_grid_step",
        "uncountable_delta_grid",
        "unaddressable_ratio_grid",
        "unallocatable_coupling_grid",
        "unallocatable_delta_grid",
        "uncountable_position_grid",
        "unallocatable_position_grid",
        "unknown_format",
        "overflowing_coupling",
    ],
)
def test_phase_diagram_rejects_unscannable_input_before_writing(tmp_path, capsys, argv, named):
    # every rejected job exits 2 before writing anything, even its --out;
    # a named option is the one the user set, not the library parameter it feeds
    out = tmp_path / "never"
    assert main([*argv, "--out", str(out)]) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert "config error" in err
    if named is not None:
        assert named in err


@pytest.mark.parametrize(
    "text, argv, named, unnamed",
    [
        (
            "levels = 0\n",
            ["wavefunction", "--delta", "1", "--g", "0.5", "--n-trunc", "10"],
            "levels must be in",
            "--levels",
        ),
        ("n-trunc = abc\n", ["parity", "--delta", "1", "--g", "0.5"], "n-trunc: expected an", None),
        ("n-truncs = 5\n", ["parity", "--delta", "1", "--g", "0.5"], "'n-truncs'", None),
        (
            "n_trunc = 40\nn-trunc = 50\n",
            ["parity", "--delta", "1", "--g", "0.5"],
            "duplicate key n-trunc",
            None,
        ),
        (
            None,
            ["converge", "--delta", "1", "--g", "0.5", "--truncs", "4000"],
            "--ref 2000 is below the largest of --truncs, 4000",
            None,
        ),
    ],
    ids=["library_check", "parse_error", "unknown_key", "duplicate_key", "default_value"],
)
def test_messages_name_file_values_by_key_as_written(tmp_path, capsys, text, argv, named, unnamed):
    # a value from the config file is named by its key as the file wrote it,
    # a value from a flag or a default by its flag
    if text is not None:
        cfgfile = tmp_path / "job.cfg"
        cfgfile.write_text(text)
        argv = [*argv, "--config", str(cfgfile)]
    out = tmp_path / "never"
    assert main([*argv, "--out", str(out)]) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert named in err
    assert unnamed is None or unnamed not in err


def test_command_defaults_only_override():
    # a command row writes a default only where it differs from the option's,
    # so no default is written twice
    for command, (_, keys, overrides) in cli._COMMANDS.items():
        for key, default in overrides.items():
            assert key in keys.split(), (command, key)
            assert default != cli._OPTIONS[key][2], (command, key)


@pytest.mark.parametrize("command", list(cli._COMMANDS))
def test_every_table_option_feeds_its_sweep(command):
    # the option table is the only route from an option to the job's call,
    # and the two tables the only place the default of what it feeds is
    # written: a library default of its own could drift from the CLI's
    job, defaults = cli._COMMANDS[command][0], cli._defaults(command)
    parameters = inspect.signature(getattr(cli, job)).parameters
    for key, default in defaults.items():
        binding = cli._OPTIONS[key][1]
        if binding is None:  # out, format
            continue
        assert binding[0] in parameters, key
        own = parameters[binding[0]].default
        # small ints are cached objects, so identity cannot vouch for one
        shared = own is default and not isinstance(own, int)
        assert own is inspect.Parameter.empty or own is None or shared, key


def test_version_flag():
    assert main(["--version"]) == 0
