"""Tensor files (.npy) and CSV helpers."""

import csv
import io
import json
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jrcsim import tensorio
from jrcsim.tensorio import (_array_lines, _distinct, format_float,
                             read_csv_rows, read_tensor, write_table_csv,
                             write_tensor)


def npy_header(descr, shape, fortran_order=False) -> bytes:
    """The magic and version 1.0 header of a .npy file, without data."""
    fh = io.BytesIO()
    np.lib.format.write_array_header_1_0(fh, {
        "descr": descr, "fortran_order": fortran_order, "shape": shape})
    return fh.getvalue()


def test_tensor_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    arr = rng.normal(size=(3, 4, 2)) + 1j * rng.normal(size=(3, 4, 2))
    path = tmp_path / "cube.jrct"
    write_tensor(path, arr)
    back = read_tensor(path)
    assert back.shape == (3, 4, 2)
    assert back.dtype == np.complex128
    assert np.array_equal(back, arr)
    assert np.array_equal(np.load(path), arr)


def test_tensor_non_contiguous_input_is_written_in_c_order(tmp_path):
    arr = np.arange(12.0).reshape(3, 4) * (1 - 2j)
    for view in (arr.T, arr.T[::2]):
        write_tensor(tmp_path / "view.jrct", view)
        write_tensor(tmp_path / "copy.jrct", view.copy())
        assert (tmp_path / "view.jrct").read_bytes() \
            == (tmp_path / "copy.jrct").read_bytes()
        assert np.array_equal(read_tensor(tmp_path / "view.jrct"), view)


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
], ids=["float", "int", "uint64", "bool", "view"])
def test_tensor_real_input_round_trips_in_its_own_dtype(tmp_path, make):
    arr = make(np.random.default_rng(5))
    path = tmp_path / "real.jrct"
    write_tensor(path, arr)
    assert path.stat().st_size == len(npy_header(
        np.lib.format.dtype_to_descr(arr.dtype), arr.shape)) + arr.nbytes
    stored = np.load(path)
    assert stored.dtype == arr.dtype and np.array_equal(stored, arr)
    back = read_tensor(path)
    assert back.dtype == np.complex128 and np.array_equal(back, arr)


def test_tensor_reads_a_fortran_order_file(tmp_path):
    arr = np.arange(24.0).reshape(2, 3, 4) * (1 + 1j)
    path = tmp_path / "fortran.npy"
    np.save(path, np.asfortranarray(arr))
    assert np.array_equal(read_tensor(path), arr)


@pytest.mark.parametrize("version", [(1, 0), (2, 0)])
def test_tensor_reads_both_header_versions(tmp_path, version):
    arr = np.arange(6.0).reshape(2, 3)
    path = tmp_path / "v.npy"
    with open(path, "wb") as fh:
        np.lib.format.write_array(fh, arr, version=version)
    assert np.array_equal(read_tensor(path), arr)


@pytest.mark.parametrize("array", [np.array([["a", "b"]]),
                                   np.array([1.0, "x"], dtype=object)],
                         ids=["str", "object"])
def test_tensor_rejects_non_numeric_before_creating_the_file(tmp_path,
                                                             array):
    path = tmp_path / "bad.jrct"
    with pytest.raises(TypeError, match="numbers"):
        write_tensor(path, array)
    assert not path.exists()


@pytest.mark.parametrize("array", [
    np.array([["a", "b"]]), np.array([1.0, "x"], dtype=object),
    np.zeros(2, dtype=[("re", "<f8"), ("n", "<i4")]),
], ids=["str", "object", "structured"])
def test_tensor_file_of_non_numbers_is_rejected(tmp_path, array):
    path = tmp_path / "bad.npy"
    np.save(path, array, allow_pickle=True)
    with pytest.raises(ValueError, match="numbers"):
        read_tensor(path)


@pytest.mark.parametrize("shape", [(), (-2, -2)], ids=["scalar", "negative"])
def test_tensor_file_of_implausible_shape_is_rejected(tmp_path, shape):
    path = tmp_path / "bad.npy"
    path.write_bytes(npy_header("<f8", shape) + bytes(32))
    with pytest.raises(ValueError, match="shape"):
        read_tensor(path)


def test_tensor_huge_header_is_truncated_without_allocating(tmp_path):
    path = tmp_path / "huge.jrct"
    path.write_bytes(npy_header("<c16", (2 ** 40,)) + bytes(64))
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
    # A .jrct container of earlier versions: magic, version 1, one
    # dimension of two, then complex128.
    path = tmp_path / "bad.jrct"
    path.write_bytes(b"JRCT" + np.array([1, 1], dtype="<u4").tobytes()
                     + np.array([2], dtype="<u8").tobytes() + bytes(32))
    with pytest.raises(ValueError, match="magic"):
        read_tensor(path)


def test_tensor_bad_version(tmp_path):
    path = tmp_path / "v9.jrct"
    good = tmp_path / "good.jrct"
    write_tensor(good, np.ones(2, dtype=complex))
    blob = bytearray(good.read_bytes())
    blob[6] = 9
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


def test_tensor_with_bytes_after_its_data_is_rejected(tmp_path):
    good = tmp_path / "good.jrct"
    write_tensor(good, np.arange(4.0))
    long = tmp_path / "long.jrct"
    long.write_bytes(good.read_bytes() + bytes(9))
    with pytest.raises(ValueError, match="bytes after its data"):
        read_tensor(long)


HEADER = npy_header("<f8", (4, 2))


@pytest.mark.parametrize("blob", [
    HEADER[:6],  # nothing after the magic
    HEADER[:7],  # cut inside the version
    HEADER[:8],  # cut after the version
    HEADER[:HEADER.index(b"(4") + 2],  # inside the sizes
], ids=["magic", "in-version", "version", "in-sizes"])
def test_tensor_short_header_is_truncated(tmp_path, blob):
    path = tmp_path / "short.jrct"
    path.write_bytes(blob)
    with pytest.raises(ValueError, match="EOF"):
        read_tensor(path)


def test_format_float_round_trips():
    for x in (0.0, 1.0, -2.5, 1e-300, 3.141592653589793, 2.0 / 3.0,
              6.02e23, float(np.float32(0.1))):
        assert float(format_float(x)) == x
    assert format_float(np.float64(0.5)) == "0.5"


def test_write_table_csv_array_matches_per_cell_repr(tmp_path):
    rng = np.random.default_rng(4)
    table = rng.normal(size=(50, 6)) * 10.0 ** rng.integers(-30, 30, (50, 6))
    table[0, :3] = [np.nan, np.inf, -0.0]
    path = tmp_path / "array.csv"
    write_table_csv(path, ["a", "b", "c", "d", "e", "f"], [table])
    expected = "a,b,c,d,e,f\r\n" + "".join(
        ",".join(format_float(x) for x in row) + "\r\n" for row in table)
    assert path.read_bytes().decode() == expected
    columns_path = tmp_path / "columns.csv"
    write_table_csv(columns_path, ["a", "b", "c", "d", "e", "f"],
                    [table[:, :2], table[:, 2], table[:, 3:]])
    assert columns_path.read_bytes() == path.read_bytes()


def csv_writer_bytes(path, header, blocks) -> bytes:
    """What the csv module writes for the header and the rows of the blocks
    placed side by side, each cell as a Python scalar."""
    n_rows = len(blocks[0]) if blocks else 0
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([cell for block in blocks
                          for cell in np.atleast_1d(block[r]).tolist()]
                         for r in range(n_rows))
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
    write_table_csv(path, header, [table])
    assert path.read_bytes() == csv_writer_bytes(tmp_path / "csv.csv",
                                                 header, [table])


FLOAT_POOL = [0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, -5e-324,
              2.2250738585072014e-308 / 3, 1e16, -1e16, 1e-5, 1e-4, 0.1,
              -2.2250738585072014e-308, 1.7976931348623157e308, 1.0, 2.0 / 3]
FLOAT32_POOL = [np.float32(v) for v in (0.1, -1e-5, 1e16, 3.4028235e38,
                                        1.4e-45, -1.17549435e-38, 2 / 3)]
FLOAT16_POOL = [np.float16(v) for v in (0.1, -1e-4, 65504.0, 6e-8, 1 / 3)]
INT_POOL = [0, 1, -1, 7, 10 ** 16, np.iinfo(np.int64).min,
            np.iinfo(np.int64).max]
POOLS = {"f": (FLOAT_POOL, float),
         "f4": (FLOAT_POOL[:8] + FLOAT32_POOL, np.float32),
         "f2": (FLOAT_POOL[:8] + FLOAT16_POOL, np.float16),
         "i": (INT_POOL, np.int64), "b": ([False, True], bool)}


@st.composite
def column_blocks(draw):
    """Up to four column blocks of one length, each 1-d or 2-d and bool,
    int or float, whose cells repeat a few values from an edge-case pool;
    zero rows, zero-width blocks and no block at all included."""
    n_rows = draw(st.integers(0, 12))
    blocks = []
    for _ in range(draw(st.integers(0, 4))):
        pool, dtype = POOLS[draw(st.sampled_from(sorted(POOLS)))]
        values = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=4))
        shape = draw(st.sampled_from([(n_rows,), (n_rows, 0), (n_rows, 1),
                                      (n_rows, 3)]))
        size = int(np.prod(shape))
        cells = draw(st.lists(st.sampled_from(values), min_size=size,
                              max_size=size))
        blocks.append(np.array(cells, dtype=dtype).reshape(shape))
    return blocks


@settings(max_examples=120, deadline=None)
@given(column_blocks(), st.booleans())
def test_write_table_csv_formats_repeated_values_exactly(tmp_path_factory,
                                                         blocks, fast):
    # ``fast`` sends every float block, however few its values, through
    # the fast path (and its repr fallback).
    tmp_path = tmp_path_factory.mktemp("blocks")
    width = sum(1 if b.ndim == 1 else b.shape[1] for b in blocks)
    header = [f"c{j}" for j in range(width)]
    path = tmp_path / "table.csv"
    with mock.patch.object(tensorio, "_FAST_MIN",
                           0 if fast else tensorio._FAST_MIN):
        write_table_csv(path, header, blocks)
    assert path.read_bytes() == csv_writer_bytes(tmp_path / "csv.csv",
                                                 header, blocks)


@pytest.mark.parametrize("seed", range(3))
def test_write_table_csv_matches_csv_writer_over_row_chunks(tmp_path, seed):
    # Random floats with NaN and -0.0 among them, ints and bools, over
    # three row chunks, the last one short.
    rng = np.random.default_rng(seed)
    n_rows = 2 * tensorio._ROW_CHUNK + int(rng.integers(1, 200))
    floats = rng.normal(size=(n_rows, 4)) \
        * 10.0 ** rng.integers(-20, 20, (n_rows, 4))
    floats[rng.random(floats.shape) < 0.05] = np.nan
    floats[rng.random(floats.shape) < 0.05] = -0.0
    blocks = [rng.integers(-10 ** 6, 10 ** 6, n_rows), floats,
              rng.random(n_rows) < 0.5, floats[:, 0].astype(np.float32)]
    header = [f"c{j}" for j in range(7)]
    write_table_csv(tmp_path / "table.csv", header, blocks)
    assert (tmp_path / "table.csv").read_bytes() == csv_writer_bytes(
        tmp_path / "csv.csv", header, blocks)


def test_write_table_csv_without_rows_writes_its_header(tmp_path):
    path = tmp_path / "empty.csv"
    write_table_csv(path, ["a", "b", "c"],
                    [np.zeros(0, dtype=np.int64), np.zeros((0, 2))])
    assert path.read_bytes() == b"a,b,c\r\n"


@pytest.mark.parametrize("header, columns", [
    (["a", "b"], [np.zeros(3)]),
    (["a"], [np.zeros(3), np.zeros((3, 1))]),
    (["a", "b"], [np.zeros(3), np.zeros(4)]),
    (["a", "b", "c"], [np.zeros((3, 2)), np.zeros(2)]),
    (["a"], [np.float64(1.0)]),
    (["a"], [np.zeros((3, 1, 1))]),
], ids=["too-few-columns", "too-many-columns", "unequal-columns",
        "unequal-blocks", "scalar", "3-d"])
def test_write_table_csv_rejects_a_misshapen_table(tmp_path, header,
                                                    columns):
    path = tmp_path / "bad.csv"
    with pytest.raises(ValueError, match="table"):
        write_table_csv(path, header, columns)
    assert not path.exists()


def unique_array_lines(blocks) -> bytes:
    """The np.unique form of _array_lines, block by block: the reference
    for its rank pass."""
    cells = []
    for block in blocks:
        distinct, index = np.unique(block.view(f"u{block.itemsize}").ravel(),
                                    return_inverse=True)
        text = [repr(v).encode() for v in distinct.view(block.dtype).tolist()]
        cells.append([[text[i] for i in row]
                      for row in index.reshape(block.shape).tolist()])
    return b"".join(b",".join(cell for rows in cells for cell in rows[r])
                    + b"\r\n" for r in range(len(blocks[0]) if blocks else 0))


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
        for blocks in ([table], [random_table(rng, "i", (shape[0], 2)),
                                 table, random_table(rng, "f", shape)]):
            assert b"".join(_array_lines(blocks)) == \
                unique_array_lines(blocks)
        values, index = _distinct(table)
        distinct, inverse = np.unique(
            table.view(f"u{table.itemsize}").ravel(), return_inverse=True)
        assert values.tobytes() == distinct.tobytes()
        assert np.array_equal(index.ravel(), inverse)
        assert index.dtype == np.int32


def test_write_table_csv_rejects_complex_array(tmp_path):
    path = tmp_path / "complex.csv"
    with pytest.raises(TypeError, match="real numbers"):
        write_table_csv(path, ["a", "b"],
                        [np.zeros(2), np.ones(2, dtype=complex)])
    assert not path.exists()


@pytest.mark.parametrize("column", [np.array(["a", "b"]), [1.0, "b"]],
                         ids=["str", "mixed"])
def test_write_table_csv_rejects_str_cells(tmp_path, column):
    path = tmp_path / "str.csv"
    with pytest.raises(TypeError, match="real numbers"):
        write_table_csv(path, ["a", "b"], [np.zeros(2), column])
    assert not path.exists()


def test_read_csv_rows_empty_file(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(ValueError):
        read_csv_rows(path)


def repr_lines(values) -> bytes:
    return "".join(repr(v) + "\r\n" for v in values.tolist()).encode()


def edge_floats(rng):
    """Edge cases of repr: signed zeros, subnormals, infinities, NaN
    payloads of both signs, every 2**k (M = 2**52 when normal) and 10**k
    with their neighbours up to 8 ulps away, the layout boundaries, and
    ties: odd quarters in [2**50, 2**51), whose 17th digit is a 2.5 step
    from either neighbour."""
    powers = np.concatenate([np.ldexp(1.0, np.arange(-1074, 1024)),
                             10.0 ** np.arange(-323, 309),
                             [1e16, 1e15, 1e-4, 1e-5, 9.5, 0.5]])
    down = up = powers
    near = [powers]
    for _ in range(8):
        down, up = np.nextafter(down, 0), np.nextafter(up, np.inf)
        near += [down, up]
    subnormal = rng.integers(1, 2 ** 52, 4000, dtype=np.uint64)
    special = np.array([0, 0x7FF0000000000000, 0x7FF8000000000000,
                        0x7FF0000000000001, 0x7FFFFFFFFFFFFFFF],
                       dtype=np.uint64)
    bits = np.concatenate([subnormal, special]).view(np.float64)
    ties = np.ldexp(2.0 * rng.integers(2 ** 51, 2 ** 52, 4000) + 1, -2)
    positive = np.concatenate(near + [bits, ties])
    return np.concatenate([positive, -positive])


def test_fast_path_equals_repr_on_a_million_floats():
    rng = np.random.default_rng(2024)
    bits = rng.integers(0, 2 ** 64, 700_000, dtype=np.uint64)
    decades = rng.random(200_000) * 10.0 ** rng.integers(-300, 301, 200_000)
    values = np.concatenate([bits.view(np.float64), decades,
                             rng.random(100_000), edge_floats(rng)])
    assert values.size >= 10 ** 6
    assert b"".join(_array_lines([values[:, None]])) == repr_lines(values)


@pytest.mark.parametrize("dtype, n_bits", [(np.float16, 16),
                                           (np.float32, 32)])
def test_fast_path_formats_cast_floats_as_repr(dtype, n_bits):
    # Every float16; float32 bit patterns drawn over every exponent.
    rng = np.random.default_rng(n_bits)
    bits = (np.arange(2 ** 16) if n_bits == 16
            else rng.integers(0, 2 ** 32, 200_000))
    values = bits.astype(f"u{n_bits // 8}").view(dtype)
    assert b"".join(_array_lines([values[:, None]])) == repr_lines(values)


def test_fast_path_certifies_the_af_export_surface():
    # The 4096-sample full-window surface of perfbench's af_export: the
    # gain would quietly fall back to repr if most values went uncertified.
    from jrcsim import config, perf, runner
    root = Path(__file__).resolve().parents[1]
    case = json.loads((root / "perfbench" / "workloads.json").read_text())[
        "af_export"]["cases"][0]
    samples, rate = runner.scenario_waveform_samples(
        config.parse_config(dict(case["scenario"], seed=7)))
    surface = perf.ambiguity_function(samples, *perf.default_af_grids(
        samples.size, rate, max_lag=None, n_doppler=65), rate)
    distinct, _ = _distinct(surface.magnitude)
    _, certified = tensorio._shortest_repr(distinct)
    assert certified.mean() >= 0.99
