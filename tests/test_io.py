"""Serialization details the reproducibility guarantees depend on."""

import hashlib
import json
import math

import numpy as np
import pytest

from rabi_lab.io import (
    atomic_write_bytes,
    format_number,
    render_table,
    write_manifest,
    write_table,
)


def test_format_number_types():
    assert format_number(True) == "1"
    assert format_number(False) == "0"
    assert format_number(7) == "7"
    assert format_number(np.int64(-3)) == "-3"
    assert format_number("plain") == "plain"
    with pytest.raises(TypeError):
        format_number(object())


def test_format_number_floats_round_trip():
    values = [0.1, 1.0 / 3.0, 2.0, -0.0, 1e-300, 6.02e23, math.pi, 1e-17]
    for v in values:
        token = format_number(v)
        assert float(token) == v
        # idempotent: re-rendering the parsed value changes nothing
        assert format_number(float(token)) == token
    assert format_number(np.float64(0.25)) == "0.25"


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


def test_write_manifest_round_trip(tmp_path):
    path = write_manifest(tmp_path, {"b": 2, "a": 1})
    assert path.name == "manifest.json"
    loaded = json.loads(path.read_text())
    assert loaded == {"a": 1, "b": 2}
