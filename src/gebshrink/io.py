"""CSV interchange: signal tables in and out, coefficient tables in.

All floats are written with 17 significant digits, which round-trips
IEEE doubles exactly.  The signal writer writes the columns
``index,value[,truth][,estimate]``, the index 1..N; so ``denoise``, which
reads an input's value and truth and writes them back with its estimate,
renumbers the index and copies no other input column (an input
``estimate`` included).  It emits the bytes of ``csv.writer``'s default
dialect with ``format_float`` cells (comma-separated, CRLF-terminated, no
cell quoted: numeric cells never need it), but computes the ``%.17g`` text
with numpy, ``_CHUNK_ROWS`` rows at a time, with no Python call per float;
the index is one more float column (``%.17g`` of k is ``str(k)`` below 10^17):

- ``np.frexp`` splits |x| into a 53-bit integer and a power of two.  The
  decimal exponent E is floor(e log10 2) of the binary one, as in Ryu
  (Adams, PLDI 2018), corrected by one comparison with a table of the
  least doubles >= 10^k.
- The 17 digits D = round(|x| 10^(16 - E)), an int64 in [10^16, 10^17),
  come from a table of 10^s to 106 bits (a 53-bit head in 26-bit halves
  and a 53-bit tail) and Dekker's exact two-product.  The product's
  relative error is about 2^-100, under 1e-13 on D.
- A cell whose rounding fraction lies within 1e-9 of 1/2 may be an exact
  tie, which ``%g`` rounds half to even: it goes to ``format_float``, as
  do inf and nan.
- Digits come from a table of 4-digit groups and are laid out as ``%g``
  lays them out: fixed notation for -4 <= E < 17, ``d.ddde+XX`` otherwise,
  trailing zeros stripped.  A chunk is one matrix of 8-byte words, six per
  float cell, whose unused bytes hold 0xFF, a byte UTF-8 never holds; that
  keep mask is applied by one ``bytes.translate``.  A chunk of the index
  and three float columns peaks at about 2.6 MB of numpy and Python memory.

The tables are built from Python integers at the first write (2-3 ms).

One number rule reads every number from outside the program: CSV cells,
and (through ``parse_number``) the CLI's flags, config and spec values,
``--truth`` and ``--atoms`` fields and ``GEB_SHRINK_THREADS``.  A number
is what ``float`` accepts once surrounding whitespace is stripped,
restricted to ASCII and without digit-group underscores: ``repr`` and
``%g`` forms, integers, ``inf``, ``nan``; an integer is what ``int``
accepts under the same restriction (not ``2.5``, ``1e3`` or ``0x10``).

The readers take the header with ``csv``, then parse the body in one
``np.loadtxt`` call, numpy's C text reader, over just the columns they use,
by the number rule (cells optionally quoted ``"..."``); other columns,
``index`` included, are never parsed.  Lines end in LF or CRLF; blank lines
are skipped and ``#`` is an ordinary character (so ``#1`` is not a number).
The signal reader's value, truth and estimate cells are numbers; the
coefficient reader's ``value`` cells are numbers and its ``j`` and ``delta``
cells integers that fit int64, and a stable sort on ``j`` groups the values:
levels ascending, file order within a level.  A short row or a bad cell
raises ValueError naming the path, the line and the column.
"""

from __future__ import annotations

import csv
import functools
import math
import warnings
from typing import NamedTuple

import numpy as np

_CHUNK_ROWS = 2048  # rows formatted per write call


def format_float(x) -> str:
    return f"{float(x):.17g}"


# ------------------------------------------------------------ the %.17g kernel

_E_MIN, _E_MAX = -324, 308  # decimal exponents of the finite nonzero doubles
_ROWS = _E_MAX - _E_MIN + 1  # rows of the per-exponent tables
_SPLIT = 134217729.0  # 2^27 + 1, Veltkamp's splitter for 53-bit products
_TIE_MARGIN = 1e-9  # rounding fractions this close to 1/2 are formatted per cell
_DROP = 0xFF  # marks a byte to delete: UTF-8 text never holds it
_WORD = np.dtype("<u8")  # eight bytes of text, the first in the low byte
_SLOT_WORDS = 6  # words per float cell, see _format_floats
_CRLF = np.frombuffer(b"\r\n".ljust(8, b"\xff"), dtype=_WORD)


def _words(texts):
    """Byte strings of at most 8 bytes each, padded with _DROP, as words."""
    return np.frombuffer(b"".join(t.ljust(8, b"\xff") for t in texts), dtype=_WORD)


class _Tables(NamedTuple):
    """Constants of the ``%.17g`` kernel.  The per-exponent tables have a row
    for each decimal exponent E, at E - _E_MIN; q below is the number of
    digits before the point less one (E in fixed notation at E >= 0, else 0)."""

    ceil: np.ndarray  # smallest double >= 10^E, and inf past the last row
    high: np.ndarray  # 10^(16 - E) = (high + low + tail) 2^(shift + 53):
    low: np.ndarray  # high + low is its 53-bit head, split in two halves
    tail: np.ndarray  # of 26 bits, tail the rest rounded to 53 bits
    shift: np.ndarray
    unit: np.ndarray  # 10^(16 - q): D // unit is the part before the point
    scale: np.ndarray  # 10^q: left-aligns the 16 - q digits after it
    prefix: np.ndarray  # [negative * _ROWS + row]: "," sign "0.000" 17th digit
    head_mask: np.ndarray  # [word, row]: drops the first 15 - q of 16 digits
    point: np.ndarray  # "." in byte 0, dropped where E < 0 has "0." before it
    exponent: np.ndarray  # "e+XX" or "e+XXX" in bytes 1-5, else dropped
    quads: np.ndarray  # [g]: "0000".."9999" in bytes 0-3 of a word
    length: np.ndarray  # [k, g]: digits through group k = g's last nonzero one
    tail_mask: np.ndarray  # [word, n]: drops fraction digits n..15


@functools.cache
def _tables() -> _Tables:
    """Build the kernel's tables from Python integers (2-3 ms, at the
    first write)."""
    exps = range(_E_MIN, _E_MAX + 1)
    pow10 = [1]
    for _ in range(16 - _E_MIN):
        pow10.append(10 * pow10[-1])
    heads, tail, shift, ceil, prefix = [], [], [], [], []
    for e in exps:
        # 10^(16 - e) = (h + rest / den) 2^t, h its 53-bit head rounded to nearest
        if e <= 16:
            num = pow10[16 - e]
            t = max(num.bit_length() - 53, 0)
            den = 1 << t
            h = (num + den // 2) >> t
            rest = num - h * den
        else:
            den = pow10[e - 16]
            t = -52 - den.bit_length()
            h = ((1 << (1 - t)) + den) // (2 * den)
            rest = (1 << -t) - h * den
        heads.append(float(h))
        tail.append(rest / den)
        shift.append(t - 53)
        # the least double >= 10^e, from the correctly rounded nearest one
        num, den = (pow10[e], 1) if e >= 0 else (1, pow10[-e])
        f = num / den
        f_num, f_den = f.as_integer_ratio()
        ceil.append(f if f_num * den >= num * f_den else math.nextafter(f, math.inf))
        lead = b"0.000"[: 1 - e] if -4 <= e < 0 else b""
        prefix.append(b"," + lead.ljust(5, b"\xff") + (b"0" if e == 16 else b"\xff"))
    ceil.append(math.inf)
    heads = np.array(heads)
    split = heads * _SPLIT
    high = split - (split - heads)
    e = np.arange(_E_MIN, _E_MAX + 1)
    fixed = (e >= -4) & (e < 17)
    q = np.where(fixed & (e > 0), e, 0)

    def drop(flags):  # rows of 16 byte flags as two rows of words
        return np.where(flags, _DROP, 0).astype(np.uint8).view(_WORD).T.copy()

    g = np.arange(10000)
    quads = (g[:, None] // np.array([1000, 100, 10, 1]) % 10 + 48).astype(np.uint8).view("<u4")
    strip = 4 - sum(g % 10**k == 0 for k in range(1, 5))
    return _Tables(
        np.array(ceil),
        high,
        heads - high,
        np.array(tail),
        np.array(shift, dtype=np.int32),
        10 ** (16 - q),
        10**q,
        np.concatenate([_words(sign + text[1:] for text in prefix) for sign in (b",\xff", b",-")]),
        drop(np.arange(16) < 15 - q[:, None]),
        np.where(fixed & (e < 0), _DROP, ord(".")).astype(_WORD),
        _words(b"\x00" + (b"" if f else b"e%+03d" % k) for k, f in zip(exps, fixed)),
        quads.ravel().astype(_WORD),
        np.where(strip > 0, 4 * np.arange(4)[:, None] + strip, 0).astype(np.int8),
        drop(np.arange(16) >= np.arange(17)[:, None]),
    )


def _digits(x):
    """The 17 significant digits D of each double in ``x`` (0 for 0, inf and
    nan), the table row of its decimal exponent E (E = 0 for those), and the
    mask of the values left to ``format_float``: inf, nan and those whose
    rounding fraction lies within _TIE_MARGIN of 1/2, where an exact tie may be.

    D = round(|x| 10^(16 - E)) from |x| = mant 2^(e - 53) and the 106-bit
    10^(16 - E) of the tables: Dekker's two-product gives mant (high + low)
    exactly, so the product's relative error is about 2^-100, under 1e-13 on
    D, far inside the margin.
    """
    tab = _tables()
    live = np.isfinite(x) & (x != 0)
    a = np.where(live, np.abs(x), 1.0)
    m, e = np.frexp(a)
    # floor((e - 1) log10 2) by Ryu's 78913 / 2^18 (exact at every binary
    # exponent of a double) is E or E - 1; a comparison with 10^(E + 1) decides
    key = ((e.astype(np.intp) - 1) * 78913 >> 18) - _E_MIN
    key += a >= tab.ceil[key + 1]
    mant = np.ldexp(m, 53)
    high, low = tab.high[key], tab.low[key]
    p = mant * (high + low)
    split = mant * _SPLIT
    mant_high = split - (split - mant)
    mant_low = mant - mant_high
    err = ((mant_high * high - p) + mant_high * low + mant_low * high) + mant_low * low
    scale = e + tab.shift[key]
    rest = np.ldexp(err + mant * tab.tail[key], scale)
    whole = np.floor(rest)
    frac = rest - whole
    # 2^53 < ldexp(p, scale) < 2^57 is a whole number; D rounds half up
    digits = np.ldexp(p, scale).astype(np.int64) + whole.astype(np.int64) + (frac > 0.5)
    carry = digits == 10**17
    digits[carry] = 10**16
    key += carry
    digits[~live] = 0
    key[~live] = -_E_MIN
    return digits, key, ~np.isfinite(x) | (live & (np.abs(frac - 0.5) < _TIE_MARGIN))


def _format_floats(x):
    """The ``%.17g`` cells of the doubles ``x``, each led by its separator, as
    ``_SLOT_WORDS`` words per value with the bytes to delete marked
    ``_DROP``, and the mask of the values left to ``format_float`` (see
    ``_digits``).

    A cell's words hold ``,-0.000d`` (the sign, the lead of 1e-4 <= |x| < 1,
    and the 17th digit before the point, which only 1e16 <= |x| < 1e17 has),
    the other 16 digits before the point, right-aligned, then ``.``, 16
    digits after it and ``e+XXX``, shifted one byte to fill three words.
    Leading zeros before the point and trailing ones after it are dropped,
    and so is the point when no digit follows it.
    """
    tab = _tables()
    digits, key, slow = _digits(x)
    unit = tab.unit[key]
    integer = digits // unit
    fraction = (digits - integer * unit) * tab.scale[key]
    top, integer = np.divmod(integer, 10**16)
    halves = (*np.divmod(integer, 10**8), *np.divmod(fraction, 10**8))
    groups = [group for half in halves for group in np.divmod(half, 10**4)]
    words = [tab.quads[upper] | tab.quads[lower] << 32 for upper, lower in zip(groups[::2], groups[1::2])]
    # the number of fraction digits through the last nonzero one
    length = np.maximum(
        np.maximum(tab.length[0][groups[4]], tab.length[1][groups[5]]),
        np.maximum(tab.length[2][groups[6]], tab.length[3][groups[7]]),
    ).astype(np.intp)
    first = words[2] | tab.tail_mask[0][length]
    second = words[3] | tab.tail_mask[1][length]
    out = np.empty((x.size, _SLOT_WORDS), dtype=_WORD)
    out[:, 0] = tab.prefix[np.signbit(x) * _ROWS + key] | top.astype(_WORD) << 56
    out[:, 1] = words[0] | tab.head_mask[0][key]
    out[:, 2] = words[1] | tab.head_mask[1][key]
    out[:, 3] = np.where(length > 0, tab.point[key], _DROP) | first << 8
    out[:, 4] = first >> 56 | second << 8
    out[:, 5] = second >> 56 | tab.exponent[key]
    return out, slow


def _write_rows(path, header, columns):
    """Write the header and one CRLF-terminated row per value, ``_CHUNK_ROWS``
    rows at a time.  The index 1..N is one more float column, first, whose
    cells lose their leading separator; a chunk is laid out as one word
    matrix, its unused bytes marked ``_DROP``, which one ``bytes.translate``
    deletes."""
    size = columns[0].size
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\r\n").encode())
        for start in range(0, size, _CHUNK_ROWS):
            stop = min(start + _CHUNK_ROWS, size)
            index = np.arange(start + 1, stop + 1, dtype=float)
            x = np.stack([index, *(col[start:stop] for col in columns)], axis=1).ravel()
            cells, slow = _format_floats(x)
            for i in np.flatnonzero(slow):
                text = ("," + format_float(x[i])).encode().ljust(8 * _SLOT_WORDS, b"\xff")
                cells[i] = np.frombuffer(text, dtype=_WORD)
            cells[:: len(columns) + 1, 0] |= _DROP
            rows = [cells.reshape(stop - start, -1), np.tile(_CRLF, (stop - start, 1))]
            fh.write(np.hstack(rows).tobytes().translate(None, b"\xff"))


def write_signal_csv(path, values, truth=None, estimate=None):
    """Write columns index,value[,truth][,estimate], the index 1..N."""
    values = np.asarray(values, dtype=float).ravel()
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
    _write_rows(path, header, columns)


_KINDS = {float: "a number", int: "an integer"}
_DTYPES = {float: np.float64, int: np.int64}


def parse_number(key, text, kind=float):
    """``text`` as ``kind``, float or int, by the module's number rule
    (numpy's text reader's: ``kind`` less non-ASCII text and underscores);
    ValueError naming ``key`` otherwise."""
    stripped = text.strip()
    if stripped.isascii() and "_" not in stripped:
        try:
            return kind(stripped)
        except ValueError:
            pass
    raise ValueError(f"{key}: expected {_KINDS[kind]}, got {text!r}")


def _bad_row(path, width, used, kinds):
    """ValueError naming the first data line of ``path`` that lacks a
    ``used`` column (``{name: index}``) or holds one that is not its kind in
    ``kinds`` (an int must fit int64); read again once the body fails."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        for row in reader:
            if not row:
                continue
            if len(row) <= max(used.values()):
                return ValueError(f"{path}:{reader.line_num}: row has {len(row)} of the header's {width} cells")
            for name, i in used.items():
                kind = kinds[name]
                try:
                    _DTYPES[kind](parse_number(name, row[i], kind))
                except (ValueError, OverflowError):
                    return ValueError(f"{path}:{reader.line_num}: {name} cell {row[i]!r} is not {_KINDS[kind]}")
    return None


def _read_table(path, columns, kinds):
    """The columns that ``columns(path, header)`` picks (``{name: index}``)
    as ``{name: array}``, each parsed as its kind in ``kinds`` in one
    ``np.loadtxt`` call with a structured dtype."""
    with open(path, newline="") as fh:
        header = next(csv.reader(fh), None)
        if header is None:
            raise ValueError(f"{path}: empty file, expected a header")
        used = columns(path, header)
        dtype = [(name, _DTYPES[kinds[name]]) for name in used]
        try:
            with warnings.catch_warnings():
                # a header-only file is zero rows; the callers' checks report it
                warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                # older numpy parses an int cell such as 1.0 through a float, with
                # this warning; as an error it fails the parse, as newer numpy does
                warnings.filterwarnings("error", "loadtxt\\(\\): Parsing an integer via a float", DeprecationWarning)
                table = np.loadtxt(
                    fh, dtype, delimiter=",", quotechar='"', comments=None, ndmin=1, usecols=list(used.values())
                )
        except ValueError as err:
            raise _bad_row(path, len(header), used, kinds) or ValueError(f"{path}: {err}") from None
    return {name: np.ascontiguousarray(table[name]) for name in used}


_SIGNAL_KINDS = dict.fromkeys(("value", "truth", "estimate"), float)


def _signal_columns(path, header):
    cols = {name: i for i, name in enumerate(header)}
    if "value" not in cols:
        raise ValueError(f"{path}: missing 'value' column")
    return {name: cols[name] for name in _SIGNAL_KINDS if name in cols}


def _coefficient_columns(path, header):
    if header[:4] != ["j", "k", "value", "delta"]:
        raise ValueError(f"{path}: expected header j,k,value,delta")
    return {"j": 0, "value": 2, "delta": 3}


def read_signal_csv(path):
    """Read a signal CSV; returns (values, truth or None, estimate or None).
    A short row, or a value, truth or estimate cell that is not a number,
    raises ValueError naming the line."""
    columns = _read_table(path, _signal_columns, _SIGNAL_KINDS)
    return columns["value"], columns.get("truth"), columns.get("estimate")


def read_coefficients_csv(path):
    """Read a coefficient CSV; returns its values as a {j: array} dict,
    levels ascending, file order within a level.  A short row, or a bad
    ``j``, ``value`` or ``delta`` cell, raises ValueError naming the line."""
    table = _read_table(path, _coefficient_columns, {"j": int, "value": float, "delta": int})
    order = np.argsort(table["j"], kind="stable")
    levels, starts = np.unique(table["j"][order], return_index=True)
    return dict(zip(levels.tolist(), np.split(table["value"][order], starts[1:])))
