"""CSV round trips at full double precision."""

import csv
import tracemalloc

import numpy as np
import pytest

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


@pytest.mark.parametrize("index", [[1, 2], [1, 2, 3, 4, 5]], ids=["short", "long"])
def test_signal_csv_index_length_mismatch(tmp_path, index):
    # a short index used to drop rows silently
    path = tmp_path / "s.csv"
    with pytest.raises(ValueError, match="index has"):
        write_signal_csv(path, np.arange(4.0), index=index)
    assert not path.exists()


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
    levels, deltas = read_coefficients_csv(path)
    assert sorted(levels) == [-1, 0, 1]
    assert levels[-1].tolist() == [0.34558419453963012]
    assert levels[0].tolist() == [0.82161401933493062]
    assert levels[1].tolist() == [0.33043707618338714, -1.303157231604361]
    assert {j: d.tolist() for j, d in deltas.items()} == {-1: [1], 0: [0], 1: [1, 0]}


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


def _float_rows(index, columns):
    return [[i, *map(format_float, cells)] for i, *cells in zip(index, *columns)]


@pytest.mark.parametrize("float_columns", [2, 3])
def test_signal_writer_bytes_match_csv_writer(tmp_path, float_columns):
    columns = _edge_columns(float_columns)
    names = ["value", "truth", "estimate"][:float_columns]
    extra = dict(zip(names[1:], columns[1:]))
    header = ["index", *names]
    counting = np.arange(1, columns[0].size + 1)
    float_index = np.linspace(0.0, 3.0, columns[0].size)
    for label, index in (("default", None), ("float", float_index)):
        path = tmp_path / f"{label}.csv"
        write_signal_csv(path, columns[0], index=index, **extra)
        want = _csv_writer_bytes(
            tmp_path / f"{label}-ref.csv",
            header,
            _float_rows(counting if index is None else index, columns),
        )
        assert path.read_bytes() == want
    assert (tmp_path / "float.csv").read_text().splitlines()[1].startswith("0.0,")


@pytest.mark.parametrize("chunk", [1, 3, 7])
def test_writer_bytes_match_csv_writer_across_chunks(tmp_path, monkeypatch, chunk):
    monkeypatch.setattr(gio, "_CHUNK_ROWS", chunk)
    values, truth, estimate = _edge_columns(3)
    float_index = np.linspace(0.0, 3.0, values.size)
    write_signal_csv(tmp_path / "sig.csv", values, truth=truth, estimate=estimate, index=float_index)
    want = _csv_writer_bytes(
        tmp_path / "sig-ref.csv",
        ["index", "value", "truth", "estimate"],
        _float_rows(float_index, [values, truth, estimate]),
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


@pytest.mark.parametrize(
    "text, line, cells",
    [
        ("index,value\n1,0.5\n2\n", 3, 1),
        ("index,value,truth\n1,0.5,0.4\n\n2,0.1\n3,0.2,0.3\n", 4, 2),
    ],
    ids=["value-missing", "truth-missing-after-blank-line"],
)
def test_short_signal_row_names_the_line(tmp_path, text, line, cells):
    path = tmp_path / "short.csv"
    path.write_text(text)
    with pytest.raises(ValueError, match=rf"short\.csv:{line}: row has {cells} of the header's"):
        read_signal_csv(path)


def test_short_coefficient_row_names_the_line(tmp_path):
    path = tmp_path / "short.csv"
    path.write_text("j,k,value,delta\n0,1,0.5,1\n1,1,0.25\n")
    with pytest.raises(ValueError, match=r"short\.csv:3: row has 3 of the header's 4 cells"):
        read_coefficients_csv(path)
