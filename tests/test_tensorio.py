"""Binary tensor container and CSV helpers."""

import numpy as np
import pytest

from jrcsim.tensorio import (format_float, read_csv_rows, read_tensor,
                             write_table_csv, write_tensor)


def test_tensor_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    arr = rng.normal(size=(3, 4, 2)) + 1j * rng.normal(size=(3, 4, 2))
    path = tmp_path / "cube.jrct"
    write_tensor(path, arr)
    back = read_tensor(path)
    assert back.shape == (3, 4, 2)
    assert back.dtype == np.complex128
    assert np.array_equal(back, arr)


def test_tensor_one_dimensional(tmp_path):
    path = tmp_path / "vec.jrct"
    write_tensor(path, np.array([1.0, 2.0 + 3.0j]))
    assert np.array_equal(read_tensor(path), [1.0, 2.0 + 3.0j])


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


def test_read_csv_rows_empty_file(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(ValueError):
        read_csv_rows(path)
