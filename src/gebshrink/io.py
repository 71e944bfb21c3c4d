"""CSV interchange: signal tables in and out, coefficient tables in.

All floats are written with 17 significant digits, which round-trips
IEEE doubles exactly.  The signal writer emits ``csv.writer``'s default
dialect (comma-separated, CRLF-terminated, no cell quoted: numeric cells
never need it) with one ``%``-format per row, built and written a bounded
chunk of rows at a time.

The readers take the header with ``csv``.  The signal reader then parses
the body in one ``np.loadtxt`` call, numpy's C text reader, over just the
value, truth and estimate columns; other columns, ``index`` included, are
never parsed.  A number cell is what ``float`` accepts once surrounding
whitespace is stripped, restricted to ASCII and without digit-group
underscores: ``repr`` and ``%g`` forms, integers, ``inf``, ``nan``, all
optionally quoted ``"..."``.  Lines end in LF or CRLF; blank lines are
skipped and ``#`` is an ordinary character (so ``#1`` is not a number).
The coefficient reader parses its ``value`` cells by the same rule, and
its ``j`` and ``delta`` cells by the same rule for integers.  A short row
or a cell that is not a number raises ValueError naming the path, the
line and the column.
"""

from __future__ import annotations

import csv
import warnings
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


_KINDS = {float: "a number", int: "an integer"}


def _number(cell, path, line, name, kind=float):
    """The ``name`` cell on ``line`` as ``kind``, float or int, by the module's
    number rule (numpy's text reader's: ``kind`` less non-ASCII text and
    underscores); ValueError naming the path, the line and the column otherwise."""
    text = cell.strip()
    if text.isascii() and "_" not in text:
        try:
            return kind(text)
        except ValueError:
            pass
    raise ValueError(f"{path}:{line}: {name} cell {cell!r} is not {_KINDS[kind]}")


def _bad_row(path, width, used):
    """ValueError naming the first data line of ``path`` that lacks a
    ``used`` column (``{name: index}``) or holds one that is not a number;
    read again only once the body has failed to parse."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        for row in reader:
            if not row:
                continue
            if len(row) <= max(used.values()):
                return ValueError(f"{path}:{reader.line_num}: row has {len(row)} of the header's {width} cells")
            for name, i in used.items():
                try:
                    _number(row[i], path, reader.line_num, name)
                except ValueError as err:
                    return err
    return None


def read_signal_csv(path):
    """Read a signal CSV; returns (values, truth or None, estimate or None).

    A row with fewer cells than a column it needs, or a needed cell that is
    not a number, raises ValueError naming the line."""
    with open(path, newline="") as fh:
        header = next(csv.reader(fh), None)
        if header is None:
            raise ValueError(f"{path}: empty file, expected a header")
        cols = {name: i for i, name in enumerate(header)}
        if "value" not in cols:
            raise ValueError(f"{path}: missing 'value' column")
        used = {name: cols[name] for name in ("value", "truth", "estimate") if name in cols}
        try:
            with warnings.catch_warnings():
                # a header-only file is zero rows; the length check downstream reports it
                warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                table = np.loadtxt(
                    fh, delimiter=",", quotechar='"', comments=None, ndmin=2, usecols=list(used.values())
                )
        except ValueError as err:
            raise _bad_row(path, len(header), used) or ValueError(f"{path}: {err}") from None
    columns = dict(zip(used, np.ascontiguousarray(table.T)))
    return columns["value"], columns.get("truth"), columns.get("estimate")


def read_coefficients_csv(path):
    """Read a coefficient CSV; returns (levels, deltas) as {j: array} dicts.

    A row with fewer than the four cells, a ``j`` or ``delta`` cell that is
    not an integer, or a ``value`` cell that is not a number, raises
    ValueError naming the line."""
    levels: dict[int, list] = {}
    deltas: dict[int, list] = {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ValueError(f"{path}: empty file, expected a header")
        if header[:4] != ["j", "k", "value", "delta"]:
            raise ValueError(f"{path}: expected header j,k,value,delta")
        for row in reader:
            if not row:
                continue
            if len(row) < 4:
                raise ValueError(f"{path}:{reader.line_num}: row has {len(row)} of the header's 4 cells")
            line = reader.line_num
            j = _number(row[0], path, line, "j", int)
            levels.setdefault(j, []).append(_number(row[2], path, line, "value"))
            deltas.setdefault(j, []).append(_number(row[3], path, line, "delta", int))
    return (
        {j: np.array(v) for j, v in sorted(levels.items())},
        {j: np.array(v, dtype=int) for j, v in sorted(deltas.items())},
    )
