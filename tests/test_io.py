"""CSV round trips at full double precision."""

import csv
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from gebshrink import io as gio
from gebshrink.io import (
    format_float,
    read_coefficients_csv,
    read_signal_csv,
    write_signal_csv,
)


def test_format_float_round_trips_doubles():
    rng = np.random.default_rng(1)
    for x in rng.standard_normal(200) * 10.0 ** rng.integers(-12, 12, 200):
        assert float(format_float(x)) == x
    assert format_float(0.0) == "0"


def test_signal_csv_round_trip(tmp_path):
    rng = np.random.default_rng(2)
    values = rng.standard_normal(64)
    truth = rng.standard_normal(64)
    estimate = rng.standard_normal(64)
    path = tmp_path / "sig.csv"
    write_signal_csv(path, values, truth=truth, estimate=estimate)
    v, t, e = read_signal_csv(path)
    assert np.array_equal(v, values)
    assert np.array_equal(t, truth)
    assert np.array_equal(e, estimate)


def test_signal_csv_optional_columns_absent(tmp_path):
    path = tmp_path / "bare.csv"
    write_signal_csv(path, np.arange(4.0))
    v, t, e = read_signal_csv(path)
    assert np.array_equal(v, np.arange(4.0))
    assert t is None and e is None


def test_signal_csv_length_mismatch(tmp_path):
    with pytest.raises(ValueError):
        write_signal_csv(tmp_path / "x.csv", np.zeros(4), truth=np.zeros(3))


def test_signal_csv_missing_value_column(tmp_path):
    path = tmp_path / "wrong.csv"
    path.write_text("index,foo\n1,2\n")
    with pytest.raises(ValueError):
        read_signal_csv(path)


def test_coefficients_csv_round_trip(tmp_path):
    path = tmp_path / "coef.csv"
    path.write_text(
        "j,k,value,delta\n"
        "-1,1,0.34558419453963012,1\n"
        "0,1,0.82161401933493062,0\n"
        "1,1,0.33043707618338714,1\n"
        "1,2,-1.303157231604361,0\n"
    )
    levels = read_coefficients_csv(path)
    assert list(levels) == [-1, 0, 1]
    assert levels[-1].tolist() == [0.34558419453963012]
    assert levels[0].tolist() == [0.82161401933493062]
    assert levels[1].tolist() == [0.33043707618338714, -1.303157231604361]


def test_coefficients_csv_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n")
    with pytest.raises(ValueError):
        read_coefficients_csv(path)


# the signal writer's former form, one csv.writer row of cells per line, is
# the byte reference for the formatted writer


def _csv_writer_bytes(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    return path.read_bytes()


EDGE_VALUES = np.array([-0.0, 5e-324, 1e308, np.inf, np.nan, -np.inf, 0.1, -1.5e-300])


def _edge_columns(count):
    rng = np.random.default_rng(5)
    first = np.concatenate([EDGE_VALUES, rng.standard_normal(40) * 1e3])
    rest = [rng.standard_normal(first.size) * 10.0 ** rng.integers(-300, 300, first.size)]
    rest.append(first[::-1].copy())
    return [first, *rest[: count - 1]]


def _float_rows(columns):
    return [[i, *map(format_float, cells)] for i, cells in enumerate(zip(*columns), start=1)]


@pytest.mark.parametrize("float_columns", [2, 3])
def test_signal_writer_bytes_match_csv_writer(tmp_path, float_columns):
    columns = _edge_columns(float_columns)
    names = ["value", "truth", "estimate"][:float_columns]
    write_signal_csv(tmp_path / "sig.csv", columns[0], **dict(zip(names[1:], columns[1:])))
    want = _csv_writer_bytes(tmp_path / "sig-ref.csv", ["index", *names], _float_rows(columns))
    assert (tmp_path / "sig.csv").read_bytes() == want


@pytest.mark.parametrize("chunk", [1, 3, 7])
def test_writer_bytes_match_csv_writer_across_chunks(tmp_path, monkeypatch, chunk):
    # the index runs on across chunk boundaries
    monkeypatch.setattr(gio, "_CHUNK_ROWS", chunk)
    values, truth, estimate = _edge_columns(3)
    write_signal_csv(tmp_path / "sig.csv", values, truth=truth, estimate=estimate)
    want = _csv_writer_bytes(
        tmp_path / "sig-ref.csv",
        ["index", "value", "truth", "estimate"],
        _float_rows([values, truth, estimate]),
    )
    assert (tmp_path / "sig.csv").read_bytes() == want

    write_signal_csv(tmp_path / "empty.csv", np.array([]))
    assert (tmp_path / "empty.csv").read_bytes() == b"index,value\r\n"


def test_signal_writer_memory_is_bounded_by_the_chunk(tmp_path):
    rng = np.random.default_rng(16)
    columns = rng.standard_normal((3, 2**16))
    tracemalloc.start()
    try:
        write_signal_csv(tmp_path / "big.csv", columns[0], truth=columns[1], estimate=columns[2])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # a whole-file string of these rows takes about 20 MB
    assert peak < 4 * 2**20
    assert len((tmp_path / "big.csv").read_bytes().splitlines()) == 2**16 + 1


# ------------------------------------------------------ the %.17g kernel


def _assert_writer_matches_reference(tmp_path, columns):
    """The writer's file equals the csv.writer + format_float one, byte for
    byte, and writing it raised no warning."""
    names = ["value", "truth", "estimate"][: len(columns)]
    path = tmp_path / "kernel.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        write_signal_csv(path, columns[0], **dict(zip(names[1:], columns[1:])))
    want = _csv_writer_bytes(tmp_path / "kernel-ref.csv", ["index", *names], _float_rows(columns))
    assert path.read_bytes() == want


_SIGN = 1 << 63
# +-0, the smallest and largest subnormals, the smallest normal, the
# largest finite double, inf, a quiet and a signalling nan
_SPECIAL_BITS = [
    0, 1, (1 << 52) - 1, 1 << 52, 0x7FEFFFFFFFFFFFFF, 0x7FF0000000000000, 0x7FF8000000000000, 0x7FF0000000000001,
]


@st.composite
def _exact_ties(draw):
    """n + k / 2^j with 18 - j digits in n and k odd: 18 significant digits
    ending in 5, a tie at the 17th, and exact in a double for 3 <= j <= 10."""
    j = draw(st.integers(3, 10))
    n = draw(st.integers(10 ** (17 - j), 10 ** (18 - j) - 1))
    k = 2 * draw(st.integers(0, 2 ** (j - 1) - 1)) + 1
    return draw(st.sampled_from([1.0, -1.0])) * (n + k / 2**j)


_BITS = st.one_of(
    st.integers(0, 2**64 - 1),
    st.sampled_from(_SPECIAL_BITS + [b | _SIGN for b in _SPECIAL_BITS]),
    st.one_of(st.floats(), _exact_ties()).map(lambda x: int(np.float64(x).view(np.uint64))),
)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(width=st.integers(1, 3), data=st.data())
def test_writer_matches_format_float_on_raw_bit_patterns(tmp_path, width, data):
    rows = data.draw(st.lists(st.lists(_BITS, min_size=width, max_size=width), min_size=1, max_size=40))
    columns = list(np.array(rows, dtype=np.uint64).view(np.float64).T)
    _assert_writer_matches_reference(tmp_path, columns)


@pytest.mark.parametrize(
    "value, text",
    [
        # exact ties at the 17th digit round half to even
        (123456789012345.125, "123456789012345.12"),
        (123456789012345.375, "123456789012345.38"),
        # either side of the switches between exponent and fixed notation
        (9.9999999999999999e16, "1e+17"),
        (1e-5, "1.0000000000000001e-05"),
        (1e-4, "0.0001"),
        (1e16, "10000000000000000"),
        (1e22, "1e+22"),
        (123456789012345678.0, "1.2345678901234568e+17"),
    ],
)
def test_writer_cell_text_at_ties_and_notation_switches(tmp_path, value, text):
    assert format_float(value) == text
    write_signal_csv(tmp_path / "one.csv", [value, -value, value / 3])
    body = f"1,{text}\r\n2,-{text}\r\n3,{format_float(value / 3)}\r\n"
    assert (tmp_path / "one.csv").read_bytes() == ("index,value\r\n" + body).encode()


def test_writer_at_every_binary_and_decimal_exponent(tmp_path):
    # every power of two and of ten and the doubles either side of it: the
    # decimal exponent estimated from the binary one is off by one at some
    edges = np.array([2.0**k for k in range(-1074, 1024)] + [float(f"1e{k}") for k in range(-323, 309)])
    values = np.concatenate([edges, np.nextafter(edges, 0), np.nextafter(edges, np.inf)])
    _assert_writer_matches_reference(tmp_path, [values, -values[::-1]])


def test_writer_index_across_decimal_widths(tmp_path):
    # the index cells 9|10, 99|100, ..., 99999|100000 change width, over
    # 49 chunks of the default size
    values = np.random.default_rng(6).standard_normal(100_001)
    _assert_writer_matches_reference(tmp_path, [values])


def test_signal_reader_skips_quoted_index_cells(tmp_path):
    # index cells holding a comma, a quote, CR or LF are quoted, quotes doubled
    index = ["a,b", 'say "hi"', "two\nlines", "cr\rcell", "crlf\r\n", '"', ",", "plain", 'x""y']
    values = np.linspace(-1.0, 1.0, len(index)) / 3.0
    path = tmp_path / "quoted.csv"
    _csv_writer_bytes(path, ["index", "value"], [[i, format_float(v)] for i, v in zip(index, values)])
    assert b'"say ""hi"""' in path.read_bytes()
    back, truth, estimate = read_signal_csv(path)
    assert back.tobytes() == values.tobytes()
    assert truth is None and estimate is None


@pytest.mark.parametrize(
    "text, line, message",
    [
        ("index,value\n1,0.5\n2\n", 3, "row has 1 of the header's"),
        ("index,value,truth\n1,0.5,0.4\n\n2,0.1\n3,0.2,0.3\n", 4, "row has 2 of the header's"),
        ("index,value,truth\n1,0.5,0.4\n\n2,0.1,1_0\n3,0.2,x\n", 4, "truth cell '1_0' is not a number"),
    ],
    ids=["value-missing", "truth-missing-after-blank-line", "truth-not-a-number-after-blank-line"],
)
def test_short_signal_row_names_the_line(tmp_path, text, line, message):
    path = tmp_path / "short.csv"
    path.write_text(text)
    with pytest.raises(ValueError, match=rf"short\.csv:{line}: {message}"):
        read_signal_csv(path)


def test_short_coefficient_row_names_the_line(tmp_path):
    path = tmp_path / "short.csv"
    for row, message in [
        ("1,1,0.25", "row has 3 of the header's 4 cells"),
        ("1,1,1_0,1", "value cell '1_0' is not a number"),
        ("1,1,#,1", "value cell '#' is not a number"),
        ("x,1,0.25,1", "j cell 'x' is not an integer"),
        ("0.0,1,0.25,1", r"j cell '0\.0' is not an integer"),
        ("1,1,0.25,x", "delta cell 'x' is not an integer"),
        ("1,1,0.25,0.0", r"delta cell '0\.0' is not an integer"),
    ]:
        path.write_text(f"j,k,value,delta\n0,1,0.5,1\n{row}\n")
        with pytest.raises(ValueError, match=rf"short\.csv:3: {message}"):
            read_coefficients_csv(path)


def test_one_data_row_keeps_its_shape(tmp_path):
    path = tmp_path / "one.csv"
    path.write_text("index,value,truth\n1,0.5,0.25\n")
    values, truth, estimate = read_signal_csv(path)
    assert values.shape == truth.shape == (1,)
    assert values.tolist() == [0.5] and truth.tolist() == [0.25] and estimate is None


# ------------------------------------------------------ the number grammar

# a double written in each form a signal CSV may hold it in
_DOUBLES = st.floats(allow_nan=False, allow_infinity=False)
_CELL_TEXT = st.one_of(
    _DOUBLES.map(repr),
    _DOUBLES.map(lambda x: "%.17g" % x),
    _DOUBLES.map(lambda x: "%.6e" % x),
    _DOUBLES.map(lambda x: "%g" % x),
    st.integers(-(2**70), 2**70).map(str),
    st.sampled_from(["inf", "-inf", "nan", "-nan", "+inf", "Infinity", "NaN", "0", "-0", "-0.0", "1e999", "-1e-400"]),
)


@st.composite
def _cells(draw):
    """(csv text of the cell, the text float() sees)."""
    text = draw(_CELL_TEXT)
    pad = draw(st.sampled_from(["", " ", "  ", "\t"]))
    text = pad + text + draw(st.sampled_from(["", " ", "\t"]))
    return (f'"{text}"' if draw(st.booleans()) else text), text


def _bits(values):
    return np.asarray(values, dtype=np.float64).view(np.int64).tolist()


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    columns=st.sampled_from([("value",), ("value", "truth"), ("value", "estimate", "truth")]),
    rows=st.lists(st.lists(_cells(), min_size=3, max_size=3), min_size=1, max_size=20),
    newline=st.sampled_from(["\n", "\r\n"]),
    blanks=st.sets(st.integers(0, 20)),
)
def test_signal_reader_parses_each_cell_as_float_does(tmp_path, columns, rows, newline, blanks):
    lines = [",".join(("index",) + columns)]
    for i, row in enumerate(rows):
        if i in blanks:
            lines.append("")
        lines.append(",".join([str(i + 1)] + [cell for cell, _ in row[: len(columns)]]))
    path = tmp_path / "cells.csv"
    path.write_bytes((newline.join(lines) + newline).encode())
    got = dict(zip(("value", "truth", "estimate"), read_signal_csv(path)))
    for k, name in enumerate(columns):
        assert _bits(got[name]) == _bits([float(row[k][1]) for row in rows])
    for name in set(got) - set(columns):
        assert got[name] is None


@pytest.mark.parametrize(
    "cell, want",
    [
        # '#' starts no comment; digit-group underscores and non-ASCII
        # digits, which float() takes, are outside the grammar
        ("#1", None),
        ("1#2", None),
        ("1_0", None),
        ("\u0661", None),
        ("0x10", None),
        ("", None),
        ("in f", None),
        (' "1"', None),
        ("\xa00.5 ", 0.5),
        (" 2 ", 2.0),
        ('"-3"', -3.0),
        ("1e999", math.inf),
        ("-nan", -math.nan),
    ],
)
def test_both_readers_share_one_number_grammar(tmp_path, cell, want):
    signal, coefficients = tmp_path / "signal.csv", tmp_path / "coef.csv"
    signal.write_text(f"index,value\n1,{cell}\n", encoding="utf-8")
    coefficients.write_text(f"j,k,value,delta\n-1,1,{cell},1\n", encoding="utf-8")
    if want is None:
        for read, path in ((read_signal_csv, signal), (read_coefficients_csv, coefficients)):
            with pytest.raises(ValueError, match=r"\.csv:2: value cell .* is not a number"):
                read(path)
    else:
        assert _bits(read_signal_csv(signal)[0]) == _bits(read_coefficients_csv(coefficients)[-1]) == _bits([want])


# ------------------------------------------------ the coefficient table


@pytest.mark.parametrize("name", ["j", "delta"])
@pytest.mark.parametrize("cell", [str(2**63), str(-(2**63) - 1), f'" {2**70}"'])
def test_an_integer_cell_beyond_int64_names_the_cell(tmp_path, name, cell):
    # int() takes it, but the table holds int64 levels and deltas
    path = tmp_path / "big.csv"
    row = {"j": "0", "k": "1", "value": "0.5", "delta": "1", name: cell}
    path.write_text(f"j,k,value,delta\n0,1,0.25,0\n{','.join(row.values())}\n")
    shown = repr(cell.strip('"'))
    with pytest.raises(ValueError, match=rf"^{re.escape(f'{path}:3: {name} cell {shown} is not an integer')}$"):
        read_coefficients_csv(path)


def test_integer_cells_at_the_int64_limits_are_read(tmp_path):
    path = tmp_path / "limits.csv"
    path.write_text(f"j,k,value,delta\n{2**63 - 1},1,0.5,{-(2**63)}\n{-(2**63)},1,0.25,{2**63 - 1}\n")
    assert {j: v.tolist() for j, v in read_coefficients_csv(path).items()} == {-(2**63): [0.25], 2**63 - 1: [0.5]}


def _per_row_coefficients(path):
    """The coefficient reader as a loop over ``csv`` rows, each cell read by
    ``parse_number``: levels ascending, file order within a level."""
    levels = {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        for row in reader:
            if row:
                j = gio.parse_number("j", row[0], int)
                levels.setdefault(j, []).append(gio.parse_number("value", row[2]))
                gio.parse_number("delta", row[3], int)
    return {j: np.array(values) for j, values in sorted(levels.items())}


def _quoted(draw, text):
    pad = draw(st.sampled_from(["", " ", "\t"]))
    text = pad + text + draw(st.sampled_from(["", " "]))
    return f'"{text}"' if draw(st.booleans()) else text


_INT64 = st.one_of(st.integers(-1, 6), st.integers(-(2**63), 2**63 - 1))
# cells outside the number rule, or outside int64 where an integer is due
_BAD_CELLS = {
    "j": ["x", "0.0", "1e3", "1_0", "", "0x10", str(2**63), str(-(2**63) - 1)],
    "value": ["x", "1_0", "#1", "", "in f", "١"],
    "delta": ["1.0", "y", str(2**64), " ", "+-1"],
}
_COLUMN = {"j": 0, "value": 2, "delta": 3}


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    levels=st.lists(_INT64, min_size=1, max_size=20),
    extra=st.integers(0, 2),
    newline=st.sampled_from(["\n", "\r\n"]),
    blanks=st.sets(st.integers(0, 20)),
    bad=st.one_of(st.none(), st.tuples(st.integers(0, 19), st.sampled_from(sorted(_BAD_CELLS)))),
    data=st.data(),
)
def test_coefficient_reader_matches_a_per_row_reader(tmp_path, levels, extra, newline, blanks, bad, data):
    lines = [",".join(["j", "k", "value", "delta"] + [f"x{c}" for c in range(extra)])]
    bad_line = None
    for r, j in enumerate(levels):
        if r in blanks:
            lines.append("")
        cells = [
            _quoted(data.draw, str(j)),
            data.draw(st.sampled_from(["1", "", '"a,b"', '"say ""hi"""'])),
            data.draw(_cells())[0],
            _quoted(data.draw, str(data.draw(_INT64))),
            *(data.draw(st.sampled_from(["7", '"p,q"', ""])) for _ in range(extra)),
        ]
        if bad is not None and bad[0] == r:
            name = bad[1]
            bad_cell = data.draw(st.sampled_from(_BAD_CELLS[name]))
            cells[_COLUMN[name]] = bad_cell
            bad_line = len(lines) + 1
        lines.append(",".join(cells))
    path = tmp_path / "coef.csv"
    path.write_bytes((newline.join(lines) + newline).encode())
    if bad_line is None:
        got, want = read_coefficients_csv(path), _per_row_coefficients(path)
        assert list(got) == list(want)
        assert all(_bits(got[j]) == _bits(want[j]) for j in want)
        return
    kind = "a number" if name == "value" else "an integer"
    message = f"{path}:{bad_line}: {name} cell {bad_cell!r} is not {kind}"
    with pytest.raises(ValueError) as err:
        read_coefficients_csv(path)
    assert str(err.value) == message
