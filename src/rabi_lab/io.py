"""Artifact serialization: tables, digests, manifests.

All writes are atomic (temp file in the target directory, fsync, rename)
so a failed job never leaves partial or truncated artifacts behind.
Floats are rendered with 17 significant digits, which round-trips every
double exactly; byte-for-byte table equality is therefore a meaningful
reproducibility check and is used as one.

One cell-type rule, ``_cell_spec``, serves both formats: ``%d`` for bool
and integer cells, ``%.17g`` for floats (the same text as
``format(float(x), ".17g")``, nan, inf and -0 included) and ``%s`` for
strings; any other cell raises TypeError.  A table is given by column, one
sequence of cells per column.  A column whose cells share one conversion
is rendered by it in one step: into the table's one CSV ``%``-template, or
by one JSON converter (ints, floats with NaN as null, strings); a column of
mixed cell types is converted cell by cell.  A ``ColumnMemo`` carried
across one job's tables keeps the text of each float column that a table
repeats, as the same object, from the table before it, so a column shared
by every table (the wavefunction export's ``xi``) is not formatted again
for each of them.
"""

from __future__ import annotations

import hashlib
import json
import os
from operator import is_
from pathlib import Path
from typing import Iterable, Optional, Sequence

import numpy as np

__all__ = [
    "ColumnMemo",
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


def _column_spec(column: Sequence) -> Optional[str]:
    """The one conversion of a column's cells, or None when they need more than one."""
    specs = {_cell_spec(kind) for kind in set(map(type, column))}
    return specs.pop() if len(specs) == 1 else None


class ColumnMemo:
    """The texts of the float columns one job's tables repeat, for ``render_table``.

    A float column is repeated when it is the same object as a column of
    the table rendered before it.  Its texts are made on that second use
    and served to each next table that repeats it, for as long as it holds
    the cell objects it held when they were made.  Other columns are held
    by reference, for one table, and never as text.
    """

    def __init__(self):
        self._previous: tuple = ()  # the columns of the table rendered last
        self._texts: dict = {}  # id(column) -> (its cells when made, their texts)

    def repeated(self, data: list, floats: list) -> dict:
        """{index in data: texts} of the float columns this table repeats; it becomes the last."""
        texts = {}
        for j in floats:
            column = data[j]
            held = self._texts.get(id(column))
            if held is not None and len(held[0]) == len(column) and all(map(is_, held[0], column)):
                texts[id(column)] = held
            elif any(column is previous for previous in self._previous):
                cells = tuple(column)
                texts[id(column)] = cells, list(map("%.17g".__mod__, cells))
        self._previous, self._texts = tuple(data), texts
        return {j: texts[id(data[j])][1] for j in floats if id(data[j]) in texts}


def render_table(
    columns: Sequence[str],
    data: Iterable[Sequence],
    fmt: str = "csv",
    *,
    memo: Optional[ColumnMemo] = None,
) -> bytes:
    """Serialize a table, one sequence of cells per column, to CSV or JSON bytes.

    The layout is deterministic and ``memo`` changes no byte: a CSV table
    takes the texts of its repeated float columns from it.
    """
    data = list(data)
    if len(data) != len(columns):
        raise ValueError(f"{len(data)} columns of cells, expected {len(columns)}")
    nrows = len(data[0]) if data else 0
    for name, column in zip(columns, data):
        if len(column) != nrows:
            raise ValueError(f"column {name} has {len(column)} cells, expected {nrows}")
    if fmt not in ("csv", "json"):
        raise ValueError(f"unknown table format {fmt!r}; use csv or json")
    specs = [_column_spec(column) for column in data]
    if fmt == "json":
        cells = [
            list(map(_JSON_CELL[spec], column)) if spec
            else [_JSON_CELL[_cell_spec(type(cell))](cell) for cell in column]
            for spec, column in zip(specs, data)
        ]
        payload = {"columns": list(columns), "rows": list(zip(*cells))}
        return (json.dumps(payload, indent=1, sort_keys=True) + "\n").encode("ascii")
    floats = [j for j, spec in enumerate(specs) if spec == "%.17g"]
    texts = memo.repeated(data, floats) if memo is not None else {}
    width = len(data)
    cells = [None] * (nrows * width)
    for j, column in enumerate(data):
        if j in texts:
            specs[j], column = "%s", texts[j]
        elif specs[j] is None:
            specs[j], column = "%s", [_cell_spec(type(cell)) % cell for cell in column]
        cells[j::width] = column
    template = ",".join(specs) + "\n"
    return (",".join(columns) + "\n" + template * nrows % tuple(cells)).encode("ascii")


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
    path: Path,
    columns: Sequence[str],
    data: Iterable[Sequence],
    fmt: str = "csv",
    *,
    memo: Optional[ColumnMemo] = None,
) -> dict:
    """Atomically write one table, given by column; returns its manifest entry."""
    rendered = render_table(columns, data, fmt, memo=memo)
    atomic_write_bytes(path, rendered)
    return {
        "name": Path(path).name,
        "sha256": hashlib.sha256(rendered).hexdigest(),
        "bytes": len(rendered),
    }


def write_manifest(out_dir: Path, manifest: dict) -> Path:
    """Write the single manifest for an artifact directory."""
    target = Path(out_dir) / MANIFEST_NAME
    data = (json.dumps(manifest, indent=2, sort_keys=True) + "\n").encode("ascii")
    atomic_write_bytes(target, data)
    return target
