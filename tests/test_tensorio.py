"""Binary tensor container and CSV helpers."""

import csv
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jrcsim import tensorio
from jrcsim.tensorio import (MAGIC, _array_lines, _distinct, format_float,
                             read_csv_rows, read_tensor, write_table_csv,
                             write_tensor)


def test_tensor_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    arr = rng.normal(size=(3, 4, 2)) + 1j * rng.normal(size=(3, 4, 2))
    path = tmp_path / "cube.jrct"
    write_tensor(path, arr)
    back = read_tensor(path)
    assert back.shape == (3, 4, 2)
    assert back.dtype == np.complex128
    assert np.array_equal(back, arr)


def test_tensor_non_contiguous_input_is_written_in_c_order(tmp_path):
    arr = np.arange(12.0).reshape(3, 4) * (1 - 2j)
    write_tensor(tmp_path / "view.jrct", arr.T[::2])
    write_tensor(tmp_path / "copy.jrct", arr.T[::2].copy())
    assert (tmp_path / "view.jrct").read_bytes() \
        == (tmp_path / "copy.jrct").read_bytes()
    assert np.array_equal(read_tensor(tmp_path / "view.jrct"), arr.T[::2])


def test_tensor_one_dimensional(tmp_path):
    path = tmp_path / "vec.jrct"
    write_tensor(path, np.array([1.0, 2.0 + 3.0j]))
    assert np.array_equal(read_tensor(path), [1.0, 2.0 + 3.0j])


@pytest.mark.parametrize("make", [
    lambda rng: rng.normal(size=(5, 7)),
    lambda rng: rng.integers(-9, 9, size=(4, 6)),
    lambda rng: rng.integers(0, 2 ** 64, size=(3, 5), dtype=np.uint64),
    lambda rng: rng.random((6, 4)) < 0.5,
    lambda rng: rng.normal(size=(9, 8))[::2, 1::3],
    lambda rng: rng.normal(size=(3, tensorio._TENSOR_BLOCK // 2 + 1)),
], ids=["float", "int", "uint64", "bool", "view", "blocks"])
def test_tensor_real_input_writes_its_complex_cast(tmp_path, make):
    arr = make(np.random.default_rng(5))
    write_tensor(tmp_path / "real.jrct", arr)
    write_tensor(tmp_path / "cast.jrct", arr.astype(np.complex128))
    assert (tmp_path / "real.jrct").read_bytes() \
        == (tmp_path / "cast.jrct").read_bytes()
    assert np.array_equal(read_tensor(tmp_path / "real.jrct"), arr)


@pytest.mark.parametrize("array", [np.array([["a", "b"]]),
                                   np.array([1.0, "x"], dtype=object)],
                         ids=["str", "object"])
def test_tensor_rejects_non_numeric_before_creating_the_file(tmp_path,
                                                             array):
    path = tmp_path / "bad.jrct"
    with pytest.raises(TypeError, match="numbers"):
        write_tensor(path, array)
    assert not path.exists()


def test_tensor_huge_header_is_truncated_without_allocating(tmp_path):
    path = tmp_path / "huge.jrct"
    path.write_bytes(MAGIC + np.array([1, 1], dtype="<u4").tobytes()
                     + np.array([2 ** 40], dtype="<u8").tobytes()
                     + bytes(64))
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="tensor file truncated"):
            read_tensor(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_tensor_rejects_scalar(tmp_path):
    with pytest.raises(ValueError):
        write_tensor(tmp_path / "s.jrct", np.complex128(1.0))


def test_tensor_bad_magic(tmp_path):
    path = tmp_path / "bad.jrct"
    path.write_bytes(b"NOPE" + bytes(32))
    with pytest.raises(ValueError, match="magic"):
        read_tensor(path)


def test_tensor_bad_version(tmp_path):
    path = tmp_path / "v9.jrct"
    good = tmp_path / "good.jrct"
    write_tensor(good, np.ones(2, dtype=complex))
    blob = bytearray(good.read_bytes())
    blob[4:8] = np.array(9, dtype="<u4").tobytes()
    path.write_bytes(bytes(blob))
    with pytest.raises(ValueError, match="version"):
        read_tensor(path)


def test_tensor_truncated(tmp_path):
    good = tmp_path / "good.jrct"
    write_tensor(good, np.ones((4, 4), dtype=complex))
    blob = good.read_bytes()
    cut = tmp_path / "cut.jrct"
    cut.write_bytes(blob[:-16])
    with pytest.raises(ValueError, match="truncated"):
        read_tensor(cut)


@pytest.mark.parametrize("blob", [
    MAGIC,  # nothing after the magic
    MAGIC + b"\x01\x00",  # cut inside the version
    MAGIC + np.array(1, dtype="<u4").tobytes(),  # cut after the version
    MAGIC + np.array([1, 2], dtype="<u4").tobytes()
    + np.array(4, dtype="<u8").tobytes() + b"\x02\x00",  # inside the sizes
], ids=["magic", "in-version", "version", "in-sizes"])
def test_tensor_short_header_is_truncated(tmp_path, blob):
    path = tmp_path / "short.jrct"
    path.write_bytes(blob)
    with pytest.raises(ValueError, match="tensor file truncated"):
        read_tensor(path)


def test_format_float_round_trips():
    for x in (0.0, 1.0, -2.5, 1e-300, 3.141592653589793, 2.0 / 3.0,
              6.02e23, float(np.float32(0.1))):
        assert float(format_float(x)) == x
    assert format_float(np.float64(0.5)) == "0.5"


def test_write_table_csv_mixed_types(tmp_path):
    path = tmp_path / "table.csv"
    write_table_csv(path, ["name", "count", "value"],
                    [["alpha", 3, 0.1], ["beta", np.int64(7), np.float64(0.25)]])
    header, rows = read_csv_rows(path)
    assert header == ["name", "count", "value"]
    assert rows == [["alpha", "3", "0.1"], ["beta", "7", "0.25"]]


def test_write_table_csv_array_matches_per_cell_repr(tmp_path):
    rng = np.random.default_rng(4)
    table = rng.normal(size=(50, 6)) * 10.0 ** rng.integers(-30, 30, (50, 6))
    table[0, :3] = [np.nan, np.inf, -0.0]
    path = tmp_path / "array.csv"
    write_table_csv(path, ["a", "b", "c", "d", "e", "f"], table)
    expected = "a,b,c,d,e,f\r\n" + "".join(
        ",".join(format_float(x) for x in row) + "\r\n" for row in table)
    assert path.read_bytes().decode() == expected
    rows_path = tmp_path / "rows.csv"
    write_table_csv(rows_path, ["a", "b", "c", "d", "e", "f"], list(table))
    assert rows_path.read_bytes() == path.read_bytes()


def csv_writer_bytes(path, header, table) -> bytes:
    """What the csv module writes for the header and the array's rows."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(table.tolist())
    return path.read_bytes()


@pytest.mark.parametrize("table", [
    np.arange(-6, 6).reshape(4, 3),
    np.zeros((0, 3)),
    np.zeros((4, 0)),
    np.array([[5e-324, 1e16, 1e-5, -0.0], [-5e-324, -1e16, 1e-4, 0.0]]),
], ids=["int", "no-rows", "no-columns", "edge-floats"])
def test_write_table_csv_array_matches_csv_writer(tmp_path, table):
    header = [f"c{j}" for j in range(table.shape[1])]
    path = tmp_path / "array.csv"
    write_table_csv(path, header, table)
    assert path.read_bytes() == csv_writer_bytes(tmp_path / "csv.csv",
                                                 header, table)


FLOAT_POOL = [0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, -5e-324,
              2.2250738585072014e-308 / 3, 1e16, -1e16, 1e-5, 1e-4, 0.1,
              -2.2250738585072014e-308, 1.7976931348623157e308, 1.0, 2.0 / 3]
INT_POOL = [0, 1, -1, 7, 10 ** 16, np.iinfo(np.int64).min,
            np.iinfo(np.int64).max]


@st.composite
def duplicate_heavy_tables(draw):
    """A small table whose cells repeat a few values from an edge-case pool,
    float or int; zero rows and zero columns included."""
    pool = FLOAT_POOL if draw(st.booleans()) else INT_POOL
    values = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=4))
    n_rows = draw(st.integers(0, 12))
    n_cols = draw(st.integers(0, 5))
    cells = draw(st.lists(st.sampled_from(values), min_size=n_rows * n_cols,
                          max_size=n_rows * n_cols))
    dtype = float if pool is FLOAT_POOL else np.int64
    return np.array(cells, dtype=dtype).reshape(n_rows, n_cols)


@settings(max_examples=80, deadline=None)
@given(duplicate_heavy_tables())
def test_write_table_csv_formats_repeated_values_exactly(tmp_path_factory,
                                                         table):
    tmp_path = tmp_path_factory.mktemp("dedup")
    header = [f"c{j}" for j in range(table.shape[1])]
    path = tmp_path / "array.csv"
    write_table_csv(path, header, table)
    written = path.read_bytes()
    assert written == csv_writer_bytes(tmp_path / "csv.csv", header, table)
    if table.dtype.kind == "f":
        expected = ",".join(header) + "\r\n" + "".join(
            ",".join(format_float(x) for x in row) + "\r\n" for row in table)
        assert written.decode() == expected


def unique_array_lines(table) -> bytes:
    """The np.unique form of _array_lines: the reference for its rank pass."""
    distinct, index = np.unique(table.view(f"u{table.itemsize}").ravel(),
                                return_inverse=True)
    text = [repr(v).encode() for v in distinct.view(table.dtype).tolist()]
    return b"".join(b",".join(text[i] for i in row) + b"\r\n"
                    for row in index.reshape(table.shape).tolist())


NAN_PAYLOADS = np.array([0x7FF8000000000000, 0x7FF8000000000001,
                         0xFFF8000000000000, 0x7FF0000000000002],
                        dtype=np.uint64).view(np.float64)


def random_table(rng, kind, shape):
    """A table of the given dtype kind whose cells repeat edge values."""
    n = int(np.prod(shape))
    if kind == "f":
        pool = np.concatenate([NAN_PAYLOADS, [0.0, -0.0, np.inf, -np.inf,
                                              5e-324, 1e16, 0.1],
                               rng.normal(size=8) * 1e5])
        cells = np.where(rng.random(n) < 0.5, rng.choice(pool, n),
                         rng.normal(size=n))
    elif kind == "i":
        pool = np.array([0, -1, 1, np.iinfo(np.int64).min,
                         np.iinfo(np.int64).max], dtype=np.int64)
        cells = np.where(rng.random(n) < 0.5, rng.choice(pool, n),
                         rng.integers(-50, 50, n))
    elif kind == "u":
        pool = np.array([0, 1, 2 ** 63, 2 ** 64 - 1], dtype=np.uint64)
        cells = np.where(rng.random(n) < 0.5, rng.choice(pool, n),
                         rng.integers(0, 50, n, dtype=np.uint64))
    else:
        cells = rng.random(n) < 0.5
    return cells.reshape(shape)


@pytest.mark.parametrize("kind", ["f", "i", "u", "b"])
@pytest.mark.parametrize("shape", [(1, 40), (40, 1), (17, 9), (1, 1)])
def test_array_lines_matches_unique_oracle(kind, shape):
    rng = np.random.default_rng([ord(kind), *shape])
    for table in (random_table(rng, kind, shape),
                  random_table(rng, kind, (2 * shape[0] + 1,
                                           3 * shape[1]))[1::2, ::3]):
        assert table.shape == shape
        assert b"".join(_array_lines(table)) == unique_array_lines(table)
        values, index = _distinct(table)
        distinct, inverse = np.unique(
            table.view(f"u{table.itemsize}").ravel(), return_inverse=True)
        assert values.tobytes() == distinct.tobytes()
        assert np.array_equal(index.ravel(), inverse)
        assert index.dtype == np.int32


def test_write_table_csv_rejects_complex_array(tmp_path):
    path = tmp_path / "complex.csv"
    with pytest.raises(TypeError, match="real numbers"):
        write_table_csv(path, ["a"], np.ones((2, 1), dtype=complex))
    assert not path.exists()


def test_read_csv_rows_empty_file(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(ValueError):
        read_csv_rows(path)
