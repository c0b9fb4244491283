"""Artifact serialization: tables, digests, manifests.

All writes are atomic (temp file in the target directory, fsync, rename)
so a failed job never leaves partial or truncated artifacts behind.
Floats are rendered with 17 significant digits, which round-trips every
double exactly; byte-for-byte table equality is therefore a meaningful
reproducibility check and is used as one.

One cell-type rule, ``_cell_spec``, serves both formats: ``%d`` for bool
and integer cells, ``%.17g`` for floats (the same text as
``format(float(x), ".17g")``, nan, inf and -0 included) and ``%s`` for
strings; any other cell raises TypeError.  Rows are read once, from any
iterable, and each run of consecutive rows with one tuple of cell types is
rendered in one step: by one CSV template repeated over the run's cells, or
by one JSON converter per column (ints, floats with NaN as null, strings).
"""

from __future__ import annotations

import hashlib
import json
import os
from itertools import chain, groupby
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "atomic_write_bytes",
    "render_table",
    "write_manifest",
    "write_table",
]

MANIFEST_NAME = "manifest.json"


def _cell_spec(cls: type) -> str:
    """The one cell-type rule: a %-conversion per cell type."""
    if issubclass(cls, (bool, np.bool_, int, np.integer)):
        return "%d"
    if issubclass(cls, (float, np.floating)):
        return "%.17g"
    if issubclass(cls, str):
        return "%s"
    raise TypeError(f"unsupported cell type {cls.__name__}")


# per-cell JSON values by _cell_spec; JSON has no NaN literal, so NaN becomes null
_JSON_CELL = {"%d": int, "%.17g": lambda f: None if f != f else float(f), "%s": lambda s: s}


def render_table(columns: Sequence[str], rows: Iterable[Sequence], fmt: str = "csv") -> bytes:
    """Serialize a table to CSV or JSON bytes with deterministic layout."""
    rows = list(rows)
    for i, row in enumerate(rows):
        if len(row) != len(columns):
            raise ValueError(f"row {i} has {len(row)} cells, expected {len(columns)}")
    if fmt not in ("csv", "json"):
        raise ValueError(f"unknown table format {fmt!r}; use csv or json")
    runs = [(kinds, list(run)) for kinds, run in groupby(rows, lambda row: tuple(map(type, row)))]
    if fmt == "csv":
        text = [",".join(columns) + "\n"]
        for kinds, run in runs:
            template = ",".join(map(_cell_spec, kinds)) + "\n"
            text.append(template * len(run) % tuple(chain.from_iterable(run)))
        return "".join(text).encode("ascii")
    cells = []
    for kinds, run in runs:
        convert = [_JSON_CELL[_cell_spec(kind)] for kind in kinds]
        cells += [[f(cell) for f, cell in zip(convert, row)] for row in run]
    payload = {"columns": list(columns), "rows": cells}
    return (json.dumps(payload, indent=1, sort_keys=True) + "\n").encode("ascii")


def atomic_write_bytes(path: Path, data: bytes) -> None:
    """Write-all-or-nothing via a same-directory temp file and rename."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp_name = path.with_name(f"{path.name}.{os.urandom(8).hex()}.tmp")
    handle = open(tmp_name, "xb")  # the mode a plain open() gives: 0o666 less the umask
    try:
        with handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def write_table(
    path: Path, columns: Sequence[str], rows: Iterable[Sequence], fmt: str = "csv"
) -> dict:
    """Atomically write one table; returns its manifest entry."""
    data = render_table(columns, rows, fmt)
    atomic_write_bytes(path, data)
    return {
        "name": Path(path).name,
        "sha256": hashlib.sha256(data).hexdigest(),
        "bytes": len(data),
    }


def write_manifest(out_dir: Path, manifest: dict) -> Path:
    """Write the single manifest for an artifact directory."""
    target = Path(out_dir) / MANIFEST_NAME
    data = (json.dumps(manifest, indent=2, sort_keys=True) + "\n").encode("ascii")
    atomic_write_bytes(target, data)
    return target
