"""Binary tensor file format and CSV tables.

Layout of a ``.jrct`` file, all little-endian:

    bytes 0..3    magic b"JRCT"
    bytes 4..7    format version, uint32 (currently 1)
    bytes 8..11   number of dimensions, uint32
    next 8*ndim   dimension sizes, uint64 each
    rest          complex128 samples in C order, each stored as
                  interleaved real/imag float64

Tables go to CSV with every float in its shortest round-trip form.
"""

from __future__ import annotations

import csv

import numpy as np

MAGIC = b"JRCT"
FORMAT_VERSION = 1


def write_tensor(path, array) -> None:
    """Write a complex tensor to the documented binary layout."""
    arr = np.asarray(array, dtype=np.complex128)
    if arr.ndim < 1:
        raise ValueError("tensor must have at least one dimension")
    arr = np.ascontiguousarray(arr)
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(np.array(FORMAT_VERSION, dtype="<u4").tobytes())
        fh.write(np.array(arr.ndim, dtype="<u4").tobytes())
        fh.write(np.asarray(arr.shape, dtype="<u8").tobytes())
        fh.write(arr.astype("<c16").tobytes())


def read_tensor(path) -> np.ndarray:
    """Read a tensor previously written by :func:`write_tensor`."""
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != MAGIC:
            raise ValueError(f"not a tensor file (bad magic {magic!r})")
        version = int(np.frombuffer(fh.read(4), dtype="<u4")[0])
        if version != FORMAT_VERSION:
            raise ValueError(f"unsupported tensor format version {version}")
        ndim = int(np.frombuffer(fh.read(4), dtype="<u4")[0])
        if not 1 <= ndim <= 32:
            raise ValueError(f"implausible dimension count {ndim}")
        shape = tuple(int(d) for d in np.frombuffer(fh.read(8 * ndim), dtype="<u8"))
        count = int(np.prod(shape))
        data = np.frombuffer(fh.read(16 * count), dtype="<c16")
        if data.size != count:
            raise ValueError("tensor file truncated")
        return data.reshape(shape).astype(np.complex128)


def format_float(x) -> str:
    """Shortest round-trip decimal form, stable across runs."""
    return repr(float(x))


def write_table_csv(path, header, rows) -> None:
    """Write a table of numeric rows; floats use shortest round-trip form."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([
                cell if isinstance(cell, str)
                else (str(cell) if isinstance(cell, (int, np.integer)) else format_float(cell))
                for cell in row
            ])


def read_csv_rows(path):
    """Read a CSV table back as (header, rows-of-strings)."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path} is empty") from None
        return header, [row for row in reader if row]
