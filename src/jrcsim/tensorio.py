"""Tensor files and CSV tables.

A tensor file is a NumPy ``.npy`` file (format 1.0 or 2.0) holding the
array in its own numeric dtype; ``np.load`` reads it, and
:func:`read_tensor` returns it as complex128.  The ``.jrct`` container
of earlier versions is no longer readable.

Tables go to CSV with every float in its shortest round-trip form: the
bytes of ``repr(float(x))``.  A block of at least ``_FAST_MIN`` distinct
float16, float32 or float64 values is formatted in numpy (see
``_shortest_repr``), and ``repr`` formats each value that path does not
certify: zero, subnormals, inf, NaN, |x| outside [1e-280, 1e280], and the
values (under 1 % of an AF surface's) with a shorter form than 15 digits
or a digit decision within 1e-9 of a boundary.  ``repr`` also formats ints,
bools and smaller blocks, and is the tests' oracle for the fast path.
"""

from __future__ import annotations

import csv
import functools
import math
import os

import numpy as np

_NPY_HEADERS = {(1, 0): np.lib.format.read_array_header_1_0,
                (2, 0): np.lib.format.read_array_header_2_0}


def write_tensor(path, array) -> None:
    """Write a numeric tensor of at least one dimension as a ``.npy`` file
    in its own dtype and C order; a C-contiguous array is not copied."""
    arr = np.asarray(array)
    if arr.dtype.kind not in "biufc":
        raise TypeError(f"tensor must hold numbers, not {arr.dtype}")
    if arr.ndim < 1:
        raise ValueError("tensor must have at least one dimension")
    with open(path, "wb") as fh:
        np.lib.format.write_array(fh, np.ascontiguousarray(arr),
                                  allow_pickle=False)


def read_tensor(path) -> np.ndarray:
    """Read a ``.npy`` tensor file as complex128.

    The magic, the header version, a numeric dtype, a shape of at least
    one dimension, and the data's size against the bytes left in the
    file are all checked before the array is allocated, so a short, long
    or malformed file raises ``ValueError``.
    """
    with open(path, "rb") as fh:
        version = np.lib.format.read_magic(fh)
        if version not in _NPY_HEADERS:
            raise ValueError(f"unsupported .npy format version {version}")
        shape, fortran_order, dtype = _NPY_HEADERS[version](fh)
        if dtype.kind not in "biufc":
            raise ValueError(f"tensor must hold numbers, not {dtype}")
        if not shape or min(shape) < 0:
            raise ValueError(f"implausible tensor shape {shape}")
        size = math.prod(shape) * dtype.itemsize
        stored = os.fstat(fh.fileno()).st_size - fh.tell()
        if size > stored:
            raise ValueError("tensor file truncated")
        if size < stored:
            raise ValueError("tensor file has bytes after its data")
        data = np.empty(shape[::-1] if fortran_order else shape, dtype=dtype)
        fh.readinto(data)
        return (data.T if fortran_order else data).astype(np.complex128,
                                                          copy=False)


def format_float(x) -> str:
    """Shortest round-trip decimal form, stable across runs."""
    return repr(float(x))


def write_table_csv(path, header, columns) -> None:
    """Write a table of real columns; floats use shortest round-trip form.

    ``columns`` are real (bool, int or float) arrays placed side by side,
    each one column (1-d) or a block of columns (2-d).  Every cell is its
    Python ``repr``, as the csv module writes it; numbers never need
    quoting, so only the header goes through the csv module and the rows
    are joined directly (see :func:`_array_lines`).
    """
    blocks = [b[:, None] if b.ndim == 1 else b
              for b in map(np.asarray, columns)]
    if any(b.dtype.kind not in "biuf" for b in blocks):
        raise TypeError("table columns must be arrays of real numbers")
    if any(b.ndim != 2 for b in blocks) or len({len(b) for b in blocks}) > 1 \
            or sum(b.shape[1] for b in blocks) != len(header):
        raise ValueError(f"table columns must be 1-d or 2-d arrays of one "
                         f"length with {len(header)} columns in all")
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(header)
        fh.flush()
        fh.buffer.writelines(_array_lines(blocks))


# Longest repr of a float, int64, uint64 or bool: -2.2250738585072014e-308.
_CELL_BYTES = 24
_FORMAT_CHUNK = 8192
_ROW_CHUNK = 256
# Below this many distinct floats a block's repr is cheaper than the fast
# path's fixed cost of about 0.2 ms.
_FAST_MIN = 256


def _array_lines(blocks):
    """CSV lines (bytes) of 2-d real blocks side by side, each cell its repr.

    Each block's distinct values, told apart by their bit pattern so that
    -0.0, NaN and ints stay exact, are formatted once, a chunk at a time,
    into a fixed-width byte table (see :func:`_format_cells`).  The
    returned generator builds the bytes of a block of rows at a time in
    arrays: each cell's NUL-padded table entry, then its separator (","
    or, after the last column, the line end), with the NULs dropped.  No
    Python object per cell is made.
    """
    tables = []
    for block in blocks:
        values, index = _distinct(block)
        text = np.empty(values.size, dtype=f"S{_CELL_BYTES}")
        for start in range(0, values.size, _FORMAT_CHUNK):
            text[start:start + _FORMAT_CHUNK] = _format_cells(
                values[start:start + _FORMAT_CHUNK], values.size)
        tables.append((text, index))
    return _joined_rows(tables, len(blocks[0]) if blocks else 0)


def _joined_rows(tables, n_rows: int):
    """The CSV bytes of ``_array_lines``' (text, index) tables, a chunk of
    rows at a time.  A table without columns still ends each row: its
    line end sits after one all-NUL cell."""
    n_cols = max(1, sum(index.shape[1] for _, index in tables))
    for start in range(0, n_rows, _ROW_CHUNK):
        rows = min(_ROW_CHUNK, n_rows - start)
        line = np.zeros((rows, n_cols, _CELL_BYTES + 2), dtype=np.uint8)
        line[:, :-1, _CELL_BYTES] = ord(",")
        line[:, -1, _CELL_BYTES:] = np.frombuffer(b"\r\n", np.uint8)
        col = 0
        for text, index in tables:
            width = index.shape[1]
            line[:, col:col + width, :_CELL_BYTES] = text[
                index[start:start + rows]].view(np.uint8).reshape(
                    rows, width, _CELL_BYTES)
            col += width
        yield line[line != 0].tobytes()


def _format_cells(values, n_distinct):
    """repr of each value: the fast path for float16/32/64 blocks with at
    least ``_FAST_MIN`` distinct values, ``repr`` for what it leaves."""
    if values.dtype.kind != "f" or values.itemsize > 8 \
            or n_distinct < _FAST_MIN:
        return list(map(repr, values.tolist()))
    with np.errstate(invalid="ignore"):  # a signalling NaN goes to repr
        cast = values.astype(np.float64)
    text, certified = _shortest_repr(cast)
    rest = np.flatnonzero(~certified)
    text[rest] = list(map(repr, values[rest].tolist()))
    return text


# ASCII of 0000..9999, one four-byte word each (built from uint8 arrays of
# 40 kB, so that importing leaves no large freed temporaries behind).
_QUADS = np.ascontiguousarray((np.indices((10,) * 4, np.uint8) + 48)
                              .reshape(4, -1).T).view(np.uint32).ravel()
# A value's source row of 28 bytes: digits 1-16 (four quads), digit 0, the
# exponent's sign, "-", ".", the exponent (one quad), "0", "e", NUL.
_BLANK = np.frombuffer(bytes(18) + b"-." + bytes(4) + b"0e\0\0", np.uint8)
_FIRST, _SIGN, _MINUS, _DOT, _EXP, _ZERO, _E, _NUL = \
    16, 17, 18, 19, 20, 24, 25, 26


def _shortest_repr(x):
    """(text, certified): ``repr`` of each float64 where certified.

    Shortest round-trip digits as in Loitsch's Grisu3, with ``repr`` as the
    exact fallback.  A value with 1e-280 <= |x| <= 1e280 is scaled to
    y = |x| 10**s in [1e16, 1e17) in double-double (Dekker's product,
    error about 1e-14).  Its round-trip interval is y +- y / (2M) for x's
    significand M, halved below when M = 2**52.  The digits end at the
    largest power of ten, 1, 10 or 100, with a multiple in the interval,
    and are the multiple closest to y.  A value is not certified where a
    multiple of 1000 fits, or where an interval end, or twice y (a tie
    between two multiples), lies within 1e-9 of an integer in y-units; nor
    is zero, a subnormal, inf, NaN or one out of range.  The digits are
    laid out by repr's rules: fixed notation for decimal exponents -4 to
    15, otherwise e-05 / e+16.
    """
    a = np.abs(x)
    ok = (a >= 1e-280) & (a <= 1e280)
    a[~ok] = 1.0
    s = 16 - np.floor(np.log10(a)).astype(np.int64)
    low = int(s.min())
    p_hi, p_lo = (column[s - low] for column in np.array(
        [_pow10(t) for t in range(low, int(s.max()) + 1)]).T)
    a_hi, a_lo = _split(a)
    q_hi, q_lo = _split(p_hi)
    p = a * p_hi
    t = ((a_hi * q_hi - p) + a_hi * q_lo + a_lo * q_hi) + a_lo * q_lo \
        + a * p_lo
    y = p + t
    t -= y - p
    floor = np.floor(t)
    n = y.astype(np.int64) + floor.astype(np.int64)
    ok &= (n >= 10 ** 16) & (n < 10 ** 17)
    block = n % 1000
    n -= block
    frac = block + (t - floor)  # y = n + frac, 0 <= frac < 1000
    bits = a.view(np.uint64) & np.uint64(2 ** 52 - 1)
    half = y / (2.0 * (bits | np.uint64(2 ** 52)).astype(np.float64))
    top = frac + half
    bottom = frac - np.where(bits == 0, half / 2, half)
    ok &= ~(_near_integer(top) | _near_integer(bottom)
            | _near_integer(2 * frac))
    level = sum(np.floor(top / q) * q > bottom for q in (10.0, 100.0, 1e3))
    ok &= level < 3
    level[~ok] = 0
    q = 10.0 ** level
    # Rows left to repr get placeholder digits, so every index stays valid.
    digits = np.where(ok, n + (q * np.clip(
        np.rint(frac / q), np.ceil(bottom / q), np.floor(top / q))
    ).astype(np.int64), 10 ** 16)
    e = 16 - s
    src = np.empty((x.size, _BLANK.size), dtype=np.uint8)
    src[:] = _BLANK
    words = src.view(np.uint32)
    head, tail = np.divmod(digits, 10 ** 8)
    src[:, _FIRST] = head // 10 ** 8 + 48
    for k, quad in enumerate((head // 10 ** 4 % 10 ** 4, head % 10 ** 4,
                              tail // 10 ** 4, tail % 10 ** 4)):
        words[:, k] = _QUADS[quad]
    words[:, _EXP // 4] = _QUADS[np.abs(e)]
    src[:, _SIGN] = np.where(e < 0, ord("-"), ord("+"))
    form = np.where((e >= -4) & (e <= 15), e + 4, 20 + (np.abs(e) >= 100))
    flat = _layouts()[66 * np.signbit(x) + 22 * (2 - level) + form]
    flat += np.arange(0, src.size, _BLANK.size)[:, None]
    return src.ravel()[flat].view(f"S{_CELL_BYTES}").ravel(), ok


@functools.cache
def _pow10(s):
    """10**s as a double-double (hi, lo), hi correctly rounded."""
    num, den = (10 ** s, 1) if s >= 0 else (1, 10 ** -s)
    hi = num / den
    hi_num, hi_den = hi.as_integer_ratio()
    return hi, (num * hi_den - hi_num * den) / (den * hi_den)


def _split(v):
    """Dekker's split of float64 v into two 26-bit halves."""
    c = v * 134217729.0
    hi = c - (c - v)
    return hi, v - hi


def _near_integer(v):
    return np.abs(v - np.rint(v)) < 1e-9


@functools.cache
def _layouts():
    """Source-row index of each cell byte, one row per layout: 66 per sign,
    22 per digit count 15, 16, 17, and one per fixed exponent -4..15 and
    per scientific exponent width 2, 3."""
    def layout(neg, nd, e):
        digits = [_FIRST, *range(nd - 1)]
        if e > 15:  # scientific, e 16 for a 2-digit exponent, 17 for 3
            body = [_FIRST, _DOT, *digits[1:], _E, _SIGN,
                    *range(_EXP + 18 - e, _EXP + 4)]
        elif e >= 0:
            body = [*digits[:e + 1], *[_ZERO] * (e + 1 - nd), _DOT,
                    *(digits[e + 1:] or [_ZERO])]
        else:
            body = [_ZERO, _DOT, *[_ZERO] * (-e - 1), *digits]
        return [_MINUS] * neg + body + [_NUL] * (_CELL_BYTES - neg - len(body))
    return np.array([layout(neg, nd, e) for neg in (0, 1)
                     for nd in (15, 16, 17) for e in range(-4, 18)],
                    dtype=np.intp)


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
