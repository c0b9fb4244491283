"""Serialization details the reproducibility guarantees depend on."""

import hashlib
import json
import math
import os
import stat

import numpy as np
import pytest

from rabi_lab.io import (
    ColumnMemo,
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


def _reference_table(columns, rows, fmt="csv") -> bytes:
    """A table rendered row by row and cell by cell: the bytes every rendering must equal."""
    if fmt == "csv":
        lines = [",".join(columns), *(",".join(map(_reference_cell, row)) for row in rows)]
        return ("\n".join(lines) + "\n").encode("ascii")
    payload = {"columns": list(columns), "rows": [list(map(_reference_json, r)) for r in rows]}
    return (json.dumps(payload, indent=1, sort_keys=True) + "\n").encode("ascii")


def _token(value) -> str:
    header, token, end = render_table(("x",), [[value]]).decode("ascii").split("\n")
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
    # every cell type in every column position, so every column mixes types
    width = 8
    rows = [tuple(CELLS[(i + j) % len(CELLS)] for j in range(width)) for i in range(len(CELLS))]
    # the phase table's shape: a NaN onset float next to its int flags
    gc = math.sqrt(50.0) / 2.0
    rows += [
        (50.0, gc, 0, 1.43 * gc, 1.43, 0.01, 1, 0),
        (50.0, gc, 3, math.nan, math.nan, 0.01, 0, 1),
    ]
    columns = tuple(f"c{j}" for j in range(width))
    for fmt in ("csv", "json"):
        assert render_table(columns, zip(*rows), fmt) == _reference_table(columns, rows, fmt)
        # the phase rows alone: every column of one cell type
        assert render_table(columns, zip(*rows[-2:]), fmt) == _reference_table(
            columns, rows[-2:], fmt
        )
    # the same rule rejects the same cells in both formats, in a column of
    # one type and in a mixed one
    for bad in (object(), None, 1j):
        for fmt in ("csv", "json"):
            for column in ([bad, bad], [2, bad]):
                with pytest.raises(TypeError):
                    render_table(("a", "b"), [(1, 0.5), column], fmt)


def test_render_reads_the_columns_once():
    # the outer iterable is read once; a column is any sized sequence of cells
    data = [(0, 1, 2), [0.0, 0.5, 1.0], ("s", "s", "s")]
    rows = list(zip(*data))
    for fmt in ("csv", "json"):
        expected = _reference_table(("a", "b", "c"), rows, fmt)
        assert render_table(("a", "b", "c"), iter(data), fmt) == expected
        assert render_table(("a", "b", "c"), (list(c) for c in data), fmt) == expected
        arrays = [np.arange(3), np.array(data[1]), data[2]]
        assert render_table(("a", "b", "c"), arrays, fmt) == expected
    assert render_table(("a",), [range(3)]) == b"a\n0\n1\n2\n"


def test_render_mixed_type_columns():
    # rows whose cell types change from row to row: each column mixes types,
    # its cells are converted one by one, and the bytes are the per-cell rule's
    rows = [(1, 0.5, "x"), (3, math.nan, "z"), (2.5, 7, "y"), [4, -0.0, "w"], (5, 2.5, "v")]
    columns = ("i", "f", "s")
    for fmt in ("csv", "json"):
        assert render_table(columns, zip(*rows), fmt) == _reference_table(columns, rows, fmt)


def test_render_empty_table():
    # no rows: the header line alone, or an empty row list
    assert render_table(("a", "b"), [[], ()]) == b"a,b\n"
    assert render_table(("a", "b"), [[], ()], "json") == _reference_table(("a", "b"), [], "json")
    assert json.loads(render_table(("a",), [[]], "json")) == {"columns": ["a"], "rows": []}


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
    data = render_table(("a", "b"), [(1, 2), (0.5, -1.0)])
    assert data == b"a,b\n1,0.5\n2,-1\n"
    with pytest.raises(ValueError, match="1 columns of cells, expected 2"):
        render_table(("a", "b"), [(1,)])
    with pytest.raises(ValueError, match="column b has 1 cells, expected 2"):
        render_table(("a", "b"), [(1, 2), (0.5,)])
    with pytest.raises(ValueError):
        render_table(("a",), [(1,)], fmt="xml")


def test_render_json_nan_becomes_null():
    data = render_table(("x",), [[float("nan"), 1.5]], fmt="json")
    payload = json.loads(data)
    assert payload["rows"][0][0] is None
    assert payload["rows"][1][0] == 1.5


def _level_tables(xi, count, seed=0):
    """A job's level tables: one xi list shared by all, fresh psi columns per table."""
    rng = np.random.default_rng(seed)
    return [(xi, rng.normal(size=len(xi)).tolist(), rng.normal(size=len(xi)).tolist())
            for _ in range(count)]


def test_memo_serves_a_repeated_column_with_the_same_bytes():
    xi = np.linspace(-4.0, 4.0, 41).tolist()
    columns = ("xi", "psi_plus", "psi_minus")
    tables = _level_tables(xi, 4)
    tables.append(([-0.0, 1.5], [2, 3], ["a", "b"]))  # a table that repeats nothing
    tables.append((xi, tables[0][1], tables[0][2]))  # a table after one without xi
    memo = ColumnMemo()
    for data in tables:
        expected = _reference_table(columns, zip(*data))
        assert render_table(columns, data) == expected
        assert render_table(columns, data, memo=memo) == expected
    # JSON takes nothing from the memo and keeps its bytes too
    memo = ColumnMemo()
    for data in tables[:3]:
        assert render_table(columns, data, "json", memo=memo) == render_table(columns, data, "json")


def test_memo_never_serves_another_object_or_changed_cells():
    # held texts serve only the same object with the same cell objects:
    # never an equal-valued copy, nor -0.0 where the held column had 0.0
    col = [0.0, 0.5]
    memo = ColumnMemo()
    for data in _level_tables(col, 2):
        render_table(("x", "p", "m"), data, memo=memo)
    assert [id(col)] == list(memo._texts)
    signed = [-0.0, 0.5]  # equal in value to col, another object
    assert render_table(("x",), [signed], memo=memo) == b"x\n-0\n0.5\n"
    assert list(memo._texts) == []
    copy = list(col)
    for data in _level_tables(copy, 3):
        assert render_table(("x", "p", "m"), data, memo=memo).startswith(b"x,p,m\n0,")
    assert list(memo._texts) == [id(copy)]
    copy[0] = -0.0  # the same object with a changed cell
    data = _level_tables(copy, 1)[0]
    assert render_table(("x", "p", "m"), data, memo=memo) == _reference_table(
        ("x", "p", "m"), zip(*data)
    )
    assert render_table(("x", "p", "m"), data, memo=memo).startswith(b"x,p,m\n-0,")


def test_memo_holds_texts_only_for_repeated_float_columns():
    xi, levels = list(range(5)), [0.5 * i for i in range(5)]
    memo = ColumnMemo()
    first = _level_tables(levels, 1)[0]
    render_table(("x", "p", "m"), first, memo=memo)
    assert memo._texts == {}  # the first use of a column makes no text
    render_table(("x", "p", "m"), _level_tables(levels, 1, seed=1)[0], memo=memo)
    assert list(memo._texts) == [id(levels)]
    render_table(("x", "p", "m"), _level_tables(levels, 1, seed=2)[0], memo=memo)
    assert list(memo._texts) == [id(levels)]
    for _ in range(2):  # a repeated int column is never held as text
        render_table(("n", "p"), [xi, levels], memo=memo)
    assert list(memo._texts) == [id(levels)]
    render_table(("n",), [xi], memo=memo)
    assert memo._texts == {}  # held only while each next table repeats it


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
    entry = write_table(path, ("u", "v"), [[1], [2.0]])
    assert entry["name"] == "t.csv"
    assert entry["bytes"] == path.stat().st_size
    assert entry["sha256"] == hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)], ids=["022", "077"])
def test_artifacts_take_the_mode_of_a_plain_open(tmp_path, umask, mode):
    old = os.umask(umask)
    try:
        write_table(tmp_path / "t.csv", ("u",), [[1]])
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
