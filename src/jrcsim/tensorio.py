"""Binary tensor file format and CSV tables.

Layout of a ``.jrct`` file, all little-endian:

    bytes 0..3    magic b"JRCT"
    bytes 4..7    format version, uint32 (currently 1)
    bytes 8..11   number of dimensions, uint32
    next 8*ndim   dimension sizes, uint64 each
    rest          complex128 samples in C order, each stored as
                  interleaved real/imag float64

A real (bool, int or float) array is stored with zero imaginary parts and
reads back as complex128.

Tables go to CSV with every float in its shortest round-trip form.
"""

from __future__ import annotations

import csv
import math
import os

import numpy as np

MAGIC = b"JRCT"
FORMAT_VERSION = 1
# Cells converted to complex128 per write in write_tensor (1 MiB).
_TENSOR_BLOCK = 1 << 16


def write_tensor(path, array) -> None:
    """Write a numeric tensor to the documented binary layout.

    Real (bool, int or float) input is stored as complex128 with zero
    imaginary parts, converted a fixed-size block at a time, so no complex
    copy of the whole array is made.
    """
    arr = np.asarray(array)
    if arr.dtype.kind not in "biufc":
        raise TypeError(f"tensor must hold numbers, not {arr.dtype}")
    if arr.ndim < 1:
        raise ValueError("tensor must have at least one dimension")
    flat = arr.reshape(-1)
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(np.array(FORMAT_VERSION, dtype="<u4").tobytes())
        fh.write(np.array(arr.ndim, dtype="<u4").tobytes())
        fh.write(np.asarray(arr.shape, dtype="<u8").tobytes())
        for start in range(0, flat.size, _TENSOR_BLOCK):
            fh.write(flat[start:start + _TENSOR_BLOCK].astype("<c16"))


def read_tensor(path) -> np.ndarray:
    """Read a tensor previously written by :func:`write_tensor`.

    Each fixed header read is checked to be whole, and the header's
    element count against the file size, before the one complex128 array
    is allocated and read into.
    """
    with open(path, "rb") as fh:
        head = fh.read(12)  # magic, version, ndim
        if head[:4] != MAGIC:
            raise ValueError(f"not a tensor file (bad magic {head[:4]!r})")
        if len(head) < 12:
            raise ValueError("tensor file truncated")
        version, ndim = map(int, np.frombuffer(head, dtype="<u4", offset=4))
        if version != FORMAT_VERSION:
            raise ValueError(f"unsupported tensor format version {version}")
        if not 1 <= ndim <= 32:
            raise ValueError(f"implausible dimension count {ndim}")
        sizes = fh.read(8 * ndim)
        if len(sizes) < 8 * ndim:
            raise ValueError("tensor file truncated")
        shape = tuple(map(int, np.frombuffer(sizes, dtype="<u8")))
        if 16 * math.prod(shape) > os.fstat(fh.fileno()).st_size - fh.tell():
            raise ValueError("tensor file truncated")
        data = np.empty(shape, dtype="<c16")
        fh.readinto(data)
        return data.astype(np.complex128, copy=False)


def format_float(x) -> str:
    """Shortest round-trip decimal form, stable across runs."""
    return repr(float(x))


def write_table_csv(path, header, rows) -> None:
    """Write a table of numeric rows; floats use shortest round-trip form.

    ``rows`` is a 2-d array of real numbers (bool, int or float) or rows of
    str, int and float cells (numpy scalars included).  The csv module
    writes a Python float as its ``repr``, so numpy values are turned into
    Python ones first.  An array's cells are all numbers, which never need
    quoting, so its rows are joined directly (see :func:`_array_lines`).
    """
    lines = _array_lines(rows) if isinstance(rows, np.ndarray) else None
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        if lines is None:
            writer.writerows([cell.item() if isinstance(cell, np.generic)
                              else cell for cell in row] for row in rows)
        else:
            fh.flush()
            fh.buffer.writelines(lines)


# Longest repr of a float, int64, uint64 or bool: -2.2250738585072014e-308.
_CELL_BYTES = 24
_FORMAT_CHUNK = 4096
_ROW_CHUNK = 256


def _array_lines(table):
    """CSV lines (bytes) of a 2-d real array, each cell its Python repr.

    Each distinct value, told apart by its bit pattern so that -0.0, NaN
    and ints stay exact, is formatted once, a chunk at a time, into a
    fixed-width byte table.  The returned generator joins the rows from
    that table a block at a time, so no Python string per cell is kept
    alive.
    """
    if table.ndim != 2 or table.dtype.kind not in "biuf":
        raise TypeError("array rows must be a 2-d array of real numbers")
    values, index = _distinct(table)
    text = np.empty(values.size, dtype=f"S{_CELL_BYTES}")
    for start in range(0, values.size, _FORMAT_CHUNK):
        text[start:start + _FORMAT_CHUNK] = list(map(
            repr, values[start:start + _FORMAT_CHUNK].tolist()))
    return (b"\r\n".join(map(b",".join,
                             text[index[start:start + _ROW_CHUNK]].tolist()))
            + b"\r\n" for start in range(0, index.shape[0], _ROW_CHUNK))


def _distinct(table):
    """(distinct values, index) of a real array, told apart by bit pattern.

    ``values[index]`` rebuilds ``table``, as ``np.unique`` of the bit
    patterns with ``return_inverse`` would, in one rank pass with fewer
    temporaries: argsort the keys, mark where each run of equal sorted
    keys starts, and scatter the running count of run starts back through
    the sort order.  Each temporary is freed once used, so at most about
    17 bytes per cell are alive besides the keys of a non-contiguous
    table; the index is int32 below 2**31 cells.
    """
    keys = table.view(f"u{table.itemsize}").ravel()
    order = np.argsort(keys)
    keys = keys[order]
    starts = np.empty(keys.size, dtype=bool)
    starts[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=starts[1:])
    values = keys[starts].view(table.dtype)
    del keys
    index_dtype = np.int32 if starts.size < 2 ** 31 else np.intp
    ranks = np.cumsum(starts, dtype=index_dtype)
    del starts
    ranks -= 1
    index = np.empty(ranks.size, dtype=index_dtype)
    index[order] = ranks
    return values, index.reshape(table.shape)


def read_csv_rows(path):
    """Read a CSV table back as (header, rows-of-strings)."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path} is empty") from None
        return header, [row for row in reader if row]
