"""CSV interchange: signal tables in and out, coefficient tables in.

All floats are written with 17 significant digits, which round-trips
IEEE doubles exactly.  The signal writer emits ``csv.writer``'s default
dialect (comma-separated, CRLF-terminated, no cell quoted: numeric cells
never need it) with one ``%``-format per row, built and written a bounded
chunk of rows at a time.
"""

from __future__ import annotations

import csv
from itertools import islice

import numpy as np

_CHUNK_ROWS = 4096  # rows formatted per write call


def format_float(x) -> str:
    return f"{float(x):.17g}"


def _cells(index, *columns):
    """Row tuples ``(index[i], column[i], ...)``; the columns are arrays turned
    into Python scalars ``_CHUNK_ROWS`` rows at a time, ``index`` cells are
    its own elements.  Stops at the shortest, like ``zip``."""
    for start in range(0, len(index), _CHUNK_ROWS):
        stop = start + _CHUNK_ROWS
        yield from zip(index[start:stop], *(col[start:stop].tolist() for col in columns))


def _write_rows(path, header, rows):
    """Write the header and the CRLF-terminated ``rows``, ``_CHUNK_ROWS`` per
    write: whole-file strings would cost a fresh page per 4 KB of output."""
    rows = iter(rows)
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        while chunk := "".join(islice(rows, _CHUNK_ROWS)):
            fh.write(chunk)


def write_signal_csv(path, values, truth=None, estimate=None, index=None):
    """Write columns index,value[,truth][,estimate]."""
    values = np.asarray(values, dtype=float).ravel()
    idx = range(1, values.size + 1) if index is None else np.asarray(index)
    if index is not None and idx.size != values.size:
        raise ValueError(f"index has {idx.size} entries for {values.size} values")
    header = ["index", "value"]
    columns = [values]
    if truth is not None:
        header.append("truth")
        columns.append(np.asarray(truth, dtype=float).ravel())
    if estimate is not None:
        header.append("estimate")
        columns.append(np.asarray(estimate, dtype=float).ravel())
    for col in columns:
        if col.size != values.size:
            raise ValueError("all columns must have equal length")
    row = "%s" + ",%.17g" * len(columns) + "\r\n"
    _write_rows(path, header, (row % cells for cells in _cells(idx, *columns)))


def _short_row(path, width):
    """ValueError naming the first data line of ``path`` with fewer than
    ``width`` cells; read again only once a row has turned out short."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        for row in reader:
            if row and len(row) < width:
                break
    return ValueError(f"{path}:{reader.line_num}: row has {len(row)} of the header's {width} cells")


def read_signal_csv(path):
    """Read a signal CSV; returns (values, truth or None, estimate or None).

    A row with fewer cells than a column it needs raises ValueError naming
    the line."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ValueError(f"{path}: empty file, expected a header")
        cols = {name: i for i, name in enumerate(header)}
        if "value" not in cols:
            raise ValueError(f"{path}: missing 'value' column")
        rows = [row for row in reader if row]
    def column(name):
        if name not in cols:
            return None
        return np.array([float(row[cols[name]]) for row in rows])
    try:
        return column("value"), column("truth"), column("estimate")
    except IndexError:
        raise _short_row(path, len(header)) from None


def read_coefficients_csv(path):
    """Read a coefficient CSV; returns (levels, deltas) as {j: array} dicts.

    A row with fewer than the four cells raises ValueError naming the line."""
    levels: dict[int, list] = {}
    deltas: dict[int, list] = {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ValueError(f"{path}: empty file, expected a header")
        if header[:4] != ["j", "k", "value", "delta"]:
            raise ValueError(f"{path}: expected header j,k,value,delta")
        try:
            for row in reader:
                if not row:
                    continue
                j = int(row[0])
                levels.setdefault(j, []).append(float(row[2]))
                deltas.setdefault(j, []).append(int(row[3]))
        except IndexError:
            raise ValueError(f"{path}:{reader.line_num}: row has {len(row)} of the header's 4 cells") from None
    return (
        {j: np.array(v) for j, v in sorted(levels.items())},
        {j: np.array(v, dtype=int) for j, v in sorted(deltas.items())},
    )
