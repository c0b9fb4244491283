"""Serialization details the reproducibility guarantees depend on."""

import hashlib
import json
import math
import os
import stat

import numpy as np
import pytest

from rabi_lab.io import (
    atomic_write_bytes,
    render_table,
    write_manifest,
    write_table,
)


def _reference_cell(value) -> str:
    """The per-cell rule every CSV token is pinned to."""
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    if isinstance(value, str):
        return value
    raise AssertionError(f"no reference for {type(value).__name__}")


def _reference_json(value):
    """The per-cell JSON value: an int, a float (NaN as null) or a string."""
    if isinstance(value, (float, np.floating)):
        return None if math.isnan(value) else float(value)
    return value if isinstance(value, str) else int(value)


def _token(value) -> str:
    header, token, end = render_table(("x",), [(value,)]).decode("ascii").split("\n")
    assert (header, end) == ("x", "")
    return token


CELLS = [
    True,
    np.False_,
    7,
    2**70,
    np.int64(-3),
    0.1,
    np.float64(0.25),
    np.float32(0.1),
    "plain",
    math.nan,
    math.inf,
    -math.inf,
    -0.0,
    5e-324,
    np.float32(-np.inf),
]


def test_render_csv_cell_types():
    # every cell type in every column position, so rows mix types
    width = 8
    rows = [tuple(CELLS[(i + j) % len(CELLS)] for j in range(width)) for i in range(len(CELLS))]
    # the phase table's shape: a NaN onset float next to its int flags
    gc = math.sqrt(50.0) / 2.0
    rows += [
        (50.0, gc, 0, 1.43 * gc, 1.43, 0.01, 1, 0),
        (50.0, gc, 3, math.nan, math.nan, 0.01, 0, 1),
    ]
    columns = tuple(f"c{j}" for j in range(width))
    expected = "\n".join([",".join(columns)] + [",".join(map(_reference_cell, r)) for r in rows])
    assert render_table(columns, rows) == (expected + "\n").encode("ascii")
    payload = {"columns": list(columns), "rows": [list(map(_reference_json, r)) for r in rows]}
    expected = json.dumps(payload, indent=1, sort_keys=True) + "\n"
    assert render_table(columns, rows, fmt="json") == expected.encode("ascii")
    # the same rule rejects the same cells in both formats
    for bad in (object(), None, 1j):
        for fmt in ("csv", "json"):
            with pytest.raises(TypeError):
                render_table(("a", "b"), [(1, 0.5), (2, bad)], fmt)


def test_render_reads_rows_once():
    # a one-shot iterable is read once: the width check does not consume it
    columns, rows = ("a", "b", "c"), [(i, 0.5 * i, "s") for i in range(3)]
    for fmt in ("csv", "json"):
        assert render_table(columns, iter(rows), fmt) == render_table(columns, rows, fmt)
    assert render_table(("a",), ((i,) for i in range(3))) == b"a\n0\n1\n2\n"


def test_render_runs_of_row_types():
    # runs A, A, B, A, A: each run renders in one step, and a run ends where the types change
    rows = [(1, 0.5, "x"), (3, math.nan, "z"), (2.5, 7, "y"), [4, -0.0, "w"], (5, 2.5, "v")]
    columns = ("i", "f", "s")
    expected = "\n".join([",".join(columns)] + [",".join(map(_reference_cell, r)) for r in rows])
    assert render_table(columns, rows) == (expected + "\n").encode("ascii")
    payload = {"columns": list(columns), "rows": [list(map(_reference_json, r)) for r in rows]}
    expected = json.dumps(payload, indent=1, sort_keys=True) + "\n"
    assert render_table(columns, rows, fmt="json") == expected.encode("ascii")


def test_render_csv_floats_round_trip():
    values = [0.1, 1.0 / 3.0, 2.0, -0.0, 1e-300, 6.02e23, math.pi, 1e-17, 5e-324]
    for v in values:
        token = _token(v)
        assert float(token) == v
        assert math.copysign(1.0, float(token)) == math.copysign(1.0, v)
        # idempotent: re-rendering the parsed value changes nothing
        assert _token(float(token)) == token
    assert _token(np.float64(0.25)) == "0.25"
    assert [_token(v) for v in (math.nan, math.inf, -math.inf)] == ["nan", "inf", "-inf"]


def test_render_csv_layout():
    data = render_table(("a", "b"), [(1, 0.5), (2, -1.0)])
    assert data == b"a,b\n1,0.5\n2,-1\n"
    with pytest.raises(ValueError):
        render_table(("a", "b"), [(1,)])
    with pytest.raises(ValueError):
        render_table(("a",), [(1,)], fmt="xml")


def test_render_json_nan_becomes_null():
    data = render_table(("x",), [(float("nan"),), (1.5,)], fmt="json")
    payload = json.loads(data)
    assert payload["rows"][0][0] is None
    assert payload["rows"][1][0] == 1.5


def test_atomic_write_leaves_no_temp_files(tmp_path):
    target = tmp_path / "sub" / "file.bin"
    atomic_write_bytes(target, b"payload")
    assert target.read_bytes() == b"payload"
    assert [p.name for p in target.parent.iterdir()] == ["file.bin"]
    # overwrite in place
    atomic_write_bytes(target, b"second")
    assert target.read_bytes() == b"second"


def test_write_table_entry_matches_file(tmp_path):
    path = tmp_path / "t.csv"
    entry = write_table(path, ("u", "v"), [(1, 2.0)])
    assert entry["name"] == "t.csv"
    assert entry["bytes"] == path.stat().st_size
    assert entry["sha256"] == hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)], ids=["022", "077"])
def test_artifacts_take_the_mode_of_a_plain_open(tmp_path, umask, mode):
    old = os.umask(umask)
    try:
        write_table(tmp_path / "t.csv", ("u",), [(1,)])
        write_manifest(tmp_path, {"a": 1})
        with open(tmp_path / "plain", "wb"):
            pass
    finally:
        os.umask(old)
    modes = {p.name: stat.S_IMODE(p.stat().st_mode) for p in tmp_path.iterdir()}
    assert modes == {"t.csv": mode, "manifest.json": mode, "plain": mode}


def test_write_manifest_round_trip(tmp_path):
    path = write_manifest(tmp_path, {"b": 2, "a": 1})
    assert path.name == "manifest.json"
    loaded = json.loads(path.read_text())
    assert loaded == {"a": 1, "b": 2}
