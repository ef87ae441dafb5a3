"""Complex-baseband building blocks shared by both waveform families.

Phase-coded chip sequences, complementary (Golay) pair construction,
differential PSK symbol streams, aperiodic autocorrelation, and the
receive array's geometry and manifold (its steering and beam scan).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Above this length the autocorrelation switches to an FFT product; below it
# numpy's direct correlate is faster and exact for integer chips anyway.
_FFT_AUTOCORR_MIN = 1024

# Feedback tap exponents of primitive polynomials for Fibonacci LFSRs.
# Each entry generates a maximal-length sequence of period 2**order - 1.
_MSEQ_TAPS = {
    2: (2, 1),
    3: (3, 2),
    4: (4, 3),
    5: (5, 3),
    6: (6, 5),
    7: (7, 6),
    8: (8, 6, 5, 4),
    9: (9, 5),
    10: (10, 7),
    11: (11, 9),
    12: (12, 6, 4, 1),
    13: (13, 4, 3, 1),
    14: (14, 5, 3, 1),
    15: (15, 14),
    16: (16, 15, 13, 4),
}


@dataclass(frozen=True)
class CodeSequence:
    """A phase-coded fast-time chip sequence.

    ``phases`` holds one phase per chip in radians; binary codes use
    {0, pi}.  The chip itself is a unit rectangle, so the complex chip
    value is simply exp(j*phase).  A code carries no timing: PMCW's
    chip period is ``PmcwConfig.chip_time``.
    """

    phases: np.ndarray

    def __post_init__(self):
        phases = np.atleast_1d(np.asarray(self.phases, dtype=float))
        if phases.ndim != 1 or phases.size < 1:
            raise ValueError("a code needs at least one chip")
        if not np.all(np.isfinite(phases)):
            raise ValueError("code phases must be finite")
        object.__setattr__(self, "phases", phases)

    @property
    def length(self) -> int:
        return int(self.phases.size)

    def chips(self) -> np.ndarray:
        """Unit-modulus complex chip values."""
        return np.exp(1j * self.phases)

    @classmethod
    def from_signs(cls, signs) -> "CodeSequence":
        """Build a binary code from +/-1 chip signs."""
        signs = np.asarray(signs)
        if signs.size == 0:
            raise ValueError("a code needs at least one chip")
        if not np.all(np.abs(signs) == 1):
            raise ValueError("signs must be +1 or -1")
        phases = np.where(signs > 0, 0.0, np.pi)
        return cls(phases)

    @classmethod
    def random_binary(cls, length: int, seed) -> "CodeSequence":
        """Seeded pseudorandom +/-1 code of arbitrary length."""
        if length < 1:
            raise ValueError("length must be >= 1")
        rng = np.random.default_rng(seed)
        signs = 1 - 2 * rng.integers(0, 2, size=length)
        return cls.from_signs(signs)

    @classmethod
    def mseq(cls, order: int) -> "CodeSequence":
        """Maximal-length LFSR code of length 2**order - 1."""
        if order not in _MSEQ_TAPS:
            raise ValueError(
                f"no primitive polynomial on file for order {order}; "
                f"supported orders: {sorted(_MSEQ_TAPS)}"
            )
        taps = _MSEQ_TAPS[order]
        n = (1 << order) - 1
        # Fibonacci register: state[j] holds s_{i+order-1-j}, so the
        # recurrence s_{i+order} = XOR_t s_{i+t} reads taps at order-1-t
        # (t = order lands on s_i = state[-1] via negative indexing).
        state = [1] * order
        bits = np.empty(n, dtype=np.int64)
        for i in range(n):
            bits[i] = state[-1]
            fb = 0
            for t in taps:
                fb ^= state[order - 1 - t]
            state = [fb] + state[:-1]
        return cls.from_signs(1 - 2 * bits)


@dataclass(frozen=True)
class GolayPair:
    """A complementary pair of +/-1 sequences of equal power-of-two length."""

    ga: np.ndarray
    gb: np.ndarray

    def __post_init__(self):
        ga = np.asarray(self.ga, dtype=np.int64)
        gb = np.asarray(self.gb, dtype=np.int64)
        if ga.shape != gb.shape or ga.ndim != 1 or ga.size < 1:
            raise ValueError("pair members must be 1-d and of equal length")
        if not (np.all(np.abs(ga) == 1) and np.all(np.abs(gb) == 1)):
            raise ValueError("pair entries must be +1 or -1")
        object.__setattr__(self, "ga", ga)
        object.__setattr__(self, "gb", gb)

    @property
    def length(self) -> int:
        return int(self.ga.size)


def golay_pair(log2_length: int) -> GolayPair:
    """Recursive complementary pair of length 2**log2_length.

    Each doubling step maps (Ga, Gb) -> ([Ga|Gb], [Ga|-Gb]) starting from
    the seed pair ([+1], [+1]).
    """
    m = int(log2_length)
    if m != log2_length or not 1 <= m <= 16:
        raise ValueError("log2_length must be an integer in [1, 16]")
    ga = np.array([1], dtype=np.int64)
    gb = np.array([1], dtype=np.int64)
    for _ in range(m):
        ga, gb = np.concatenate([ga, gb]), np.concatenate([ga, -gb])
    return GolayPair(ga, gb)


def aperiodic_autocorr(seq) -> np.ndarray:
    """Aperiodic (linear) autocorrelation at all lags -(N-1)..(N-1).

    Output index N-1+k holds sum_n x[n+k] * conj(x[n]).  Integer inputs give
    exact integer output: long sequences go through an FFT product whose
    result is rounded back (the true values are integers bounded by N, far
    above the FFT rounding error).
    """
    x = np.asarray(seq)
    if x.ndim != 1 or x.size == 0:
        raise ValueError("autocorrelation needs a non-empty 1-d sequence")
    n = x.size
    if n < _FFT_AUTOCORR_MIN:
        return np.correlate(x, x, mode="full")
    nfft = 1 << (2 * n - 1).bit_length()
    spec = np.fft.fft(x.astype(complex), nfft)
    r = np.fft.ifft(spec * np.conj(spec))
    full = np.concatenate([r[nfft - n + 1:], r[:n]])
    if np.issubdtype(x.dtype, np.integer):
        return np.rint(full.real).astype(np.int64)
    if np.isrealobj(x):
        return full.real
    return full


def _integer(name: str, value, minimum: int = 1) -> int:
    """``value`` as an int >= minimum; integral floats are accepted."""
    try:
        as_int = int(value)
    except (TypeError, ValueError, OverflowError):
        as_int = None
    if as_int is None or as_int != value:
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if as_int < minimum:
        raise ValueError(f"{name} must be >= {minimum}")
    return as_int


def _radar_count(mu_percent: float, n: int) -> int:
    """Radar share of n slots: round(mu*n/100), half-way points up."""
    return min(int(np.floor(mu_percent * n / 100.0 + 0.5)), n)


def _column(value):
    """A unit-response parameter as the response broadcasts it: a scalar
    as it is, an array with a trailing axis, so that each entry gives one
    response along the array's leading axes."""
    return value if np.ndim(value) == 0 else np.asarray(value)[..., None]


# ---------------------------------------------------------------------------
# Differential PSK
# ---------------------------------------------------------------------------

# Gray maps from bit-group value (MSB first) to constellation step index.
_GRAY = {
    2: np.array([0, 1]),
    4: np.array([0, 1, 3, 2]),
}
_GRAY_INV = {
    order: np.argsort(table) for order, table in _GRAY.items()
}


def dpsk_encode(bits, order: int = 2) -> np.ndarray:
    """Differentially encode bits into unit-modulus complex symbols.

    ``bits`` is a 1-d vector or a 2-d block with one stream per row.  Each
    row of b bits becomes 1 + b/log2(order) symbols along the last axis:
    the first is the phase-0 reference, and each later one advances the
    phase by a Gray-coded multiple of 2*pi/order.
    """
    if order not in _GRAY:
        raise ValueError("order must be 2 or 4")
    bits = np.asarray(bits, dtype=np.int64)
    if bits.ndim not in (1, 2):
        raise ValueError("bits must be a 1-d vector or a 2-d block of rows")
    if np.any((bits != 0) & (bits != 1)):
        raise ValueError("bits must be 0/1")
    k = int(np.log2(order))
    if bits.shape[-1] % k:
        raise ValueError(f"bit count must be a multiple of {k} for order {order}")
    groups = bits.reshape(bits.shape[:-1] + (bits.shape[-1] // k, k))
    values = np.zeros(groups.shape[:-1], dtype=np.int64)
    for j in range(k):
        values = (values << 1) | groups[..., j]
    steps = _GRAY[order][values]
    cum = np.zeros(steps.shape[:-1] + (steps.shape[-1] + 1,), dtype=np.int64)
    np.cumsum(steps, axis=-1, out=cum[..., 1:])
    return np.exp(2j * np.pi * cum / order)


def dpsk_decode(symbols, order: int = 2) -> np.ndarray:
    """Recover bits from differential symbol streams (nearest decision).

    ``symbols`` is a 1-d stream or a 2-d block with one stream per row;
    each stream must include its leading reference, so N symbols decode to
    (N-1)*log2(order) bits along the same axis.  A constant phase rotation
    of a stream does not change its bits.
    """
    if order not in _GRAY:
        raise ValueError("order must be 2 or 4")
    symbols = np.asarray(symbols, dtype=complex)
    if symbols.ndim not in (1, 2) or symbols.shape[-1] < 1:
        raise ValueError("symbols must be a 1-d vector or a 2-d block of "
                         "non-empty rows")
    diffs = symbols[..., 1:] * np.conj(symbols[..., :-1])
    ang = np.angle(diffs)
    steps = np.rint(ang * order / (2 * np.pi)).astype(np.int64) % order
    values = _GRAY_INV[order][steps]
    k = int(np.log2(order))
    bits = np.zeros(values.shape + (k,), dtype=np.int64)
    for j in range(k):
        bits[..., k - 1 - j] = (values >> j) & 1
    return bits.reshape(values.shape[:-1] + (values.shape[-1] * k,))


# ---------------------------------------------------------------------------
# Array geometry
# ---------------------------------------------------------------------------


class AngleAliasWarning(UserWarning):
    """A scatterer's angle lies outside the beam grid's unambiguous range."""


def _wrap_bin(idx: np.ndarray, n: int) -> np.ndarray:
    """Signed aliases of FFT bin indices (fftfreq convention)."""
    return idx - n * (idx >= (n + 1) // 2)


def _parabolic_offsets(prev, mid, nxt) -> np.ndarray:
    """Sub-bin offsets of parabola fits through three power samples each.

    An offset is 0 where its fit degenerates (flat or non-concave), and
    is clamped to half a bin either side.
    """
    denom = prev - 2.0 * mid + nxt
    with np.errstate(divide="ignore", invalid="ignore"):
        offset = np.clip(0.5 * (prev - nxt) / denom, -0.5, 0.5)
    return np.where((denom < 0) & np.isfinite(denom), offset, 0.0)


@dataclass(frozen=True)
class _Manifold:
    """The receive ULA's steering: from any angle theta, element p's phasor
    exp(sign * 2 pi j * spacing * sin(theta) * p), each waveform binding
    its sign.  A sounding's NaN spacing gives NaN angles."""

    n_rx: int
    spacing: float
    sign: float

    def steering(self, angle_rad) -> np.ndarray:
        """Steering vectors (..., n_rx), broadcast like ``_column``."""
        return np.exp(self.sign * 2j * np.pi * self.spacing
                      * np.sin(_column(angle_rad)) * np.arange(self.n_rx))

    def aliases(self, angle_rad: float) -> bool:
        """Whether the beam grid reads the angle as another one: on two or
        more elements, spacing * sin(angle) outside [-1/2, 1/2)."""
        return self.n_rx > 1 and not \
            -0.5 <= self.spacing * math.sin(angle_rad) < 0.5

    def scan(self, snapshots, angle_pad: int, interpolate: bool) -> tuple:
        """(signed beam, angle, steering at the angle) of each snapshot row:
        the strongest beam of an ``angle_pad``-fold zero-padded beamspace
        FFT matching the sign, with ``interpolate`` a parabolic offset."""
        na = self.n_rx * angle_pad
        if self.sign < 0:
            spectrum = np.fft.ifft(snapshots, n=na, axis=1) * na
        else:
            spectrum = np.fft.fft(snapshots, n=na, axis=1)
        mags = np.abs(spectrum) ** 2
        beam = mags.argmax(axis=1)
        offset = 0.0
        if interpolate and na >= 3:
            k = np.arange(beam.size)
            offset = _parabolic_offsets(mags[k, (beam - 1) % na],
                                        mags[k, beam],
                                        mags[k, (beam + 1) % na])
        beam = _wrap_bin(beam, na)
        angle = np.arcsin(np.clip((beam + offset) / (na * self.spacing),
                                  -1.0, 1.0))
        return beam, angle, self.steering(angle)


@dataclass(frozen=True)
class ArrayGeometry:
    """A uniform linear receive array and one transmit element.

    ``spacing_over_lambda`` is the receive element pitch in carrier
    wavelengths; the default half-wavelength pitch keeps the beamspace free
    of grating lobes.  ``n_tx`` must be 1: the transmit array is not
    modelled.  Element counts must be integers; integral floats are stored
    as ints.
    """

    n_tx: int = 1
    n_rx: int = 1
    spacing_over_lambda: float = 0.5

    def __post_init__(self):
        for name in ("n_tx", "n_rx"):
            object.__setattr__(self, name, _integer(name, getattr(self, name)))
        if self.n_tx != 1:
            raise ValueError(f"n_tx must be 1, got {self.n_tx}: the transmit "
                             "array is not modelled")
        if not 0 < self.spacing_over_lambda < np.inf:
            raise ValueError("spacing_over_lambda must be positive and finite")

    def manifold(self, sign: float) -> _Manifold:
        """The receive manifold with steering exponent sign ``sign``."""
        return _Manifold(self.n_rx, self.spacing_over_lambda, sign)
