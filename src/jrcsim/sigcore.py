"""Complex-baseband building blocks shared by both waveform families.

Phase-coded chip sequences, complementary (Golay) pair construction,
differential PSK symbol streams, aperiodic autocorrelation, cyclic shifts
and uniform-linear-array steering vectors.
"""

from __future__ import annotations

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
    {0, pi}.  The chip itself is a unit rectangle of ``chip_duration``
    seconds, so the complex chip value is simply exp(j*phase).
    """

    phases: np.ndarray
    chip_duration: float = 1.0

    def __post_init__(self):
        phases = np.atleast_1d(np.asarray(self.phases, dtype=float))
        if phases.ndim != 1 or phases.size < 1:
            raise ValueError("a code needs at least one chip")
        if not np.all(np.isfinite(phases)):
            raise ValueError("code phases must be finite")
        if self.chip_duration <= 0:
            raise ValueError("chip_duration must be positive")
        object.__setattr__(self, "phases", phases)

    @property
    def length(self) -> int:
        return int(self.phases.size)

    def chips(self) -> np.ndarray:
        """Unit-modulus complex chip values."""
        return np.exp(1j * self.phases)

    @classmethod
    def from_signs(cls, signs, chip_duration: float = 1.0) -> "CodeSequence":
        """Build a binary code from +/-1 chip signs."""
        signs = np.asarray(signs)
        if signs.size == 0:
            raise ValueError("a code needs at least one chip")
        if not np.all(np.abs(signs) == 1):
            raise ValueError("signs must be +1 or -1")
        phases = np.where(signs > 0, 0.0, np.pi)
        return cls(phases, chip_duration)

    @classmethod
    def random_binary(cls, length: int, seed, chip_duration: float = 1.0) -> "CodeSequence":
        """Seeded pseudorandom +/-1 code of arbitrary length."""
        if length < 1:
            raise ValueError("length must be >= 1")
        rng = np.random.default_rng(seed)
        signs = 1 - 2 * rng.integers(0, 2, size=length)
        return cls.from_signs(signs, chip_duration)

    @classmethod
    def mseq(cls, order: int, chip_duration: float = 1.0) -> "CodeSequence":
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
        return cls.from_signs(1 - 2 * bits, chip_duration)


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


@dataclass(frozen=True)
class DpskStream:
    """A differentially encoded symbol stream.

    ``symbols[0]`` is the known reference with phase 0; each later symbol
    advances the phase by a Gray-coded multiple of 2*pi/order.
    """

    bits: np.ndarray
    order: int
    symbols: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "bits", np.asarray(self.bits, dtype=np.int64))
        object.__setattr__(self, "symbols", np.asarray(self.symbols, dtype=complex))


def dpsk_encode(bits, order: int = 2) -> DpskStream:
    """Differentially encode a bit vector into unit-modulus symbols.

    Returns a stream of 1 + len(bits)/log2(order) symbols whose index-0
    entry is the phase-0 reference.
    """
    if order not in _GRAY:
        raise ValueError("order must be 2 or 4")
    bits = np.asarray(bits, dtype=np.int64)
    if bits.ndim != 1:
        raise ValueError("bits must be a 1-d vector")
    if np.any((bits != 0) & (bits != 1)):
        raise ValueError("bits must be 0/1")
    k = int(np.log2(order))
    if bits.size % k:
        raise ValueError(f"bit count must be a multiple of {k} for order {order}")
    groups = bits.reshape(-1, k)
    values = np.zeros(groups.shape[0], dtype=np.int64)
    for j in range(k):
        values = (values << 1) | groups[:, j]
    steps = _GRAY[order][values]
    cum = np.concatenate([[0], np.cumsum(steps)])
    symbols = np.exp(2j * np.pi * cum / order)
    return DpskStream(bits=bits, order=order, symbols=symbols)


def dpsk_decode(symbols, order: int = 2) -> np.ndarray:
    """Recover bits from a differential symbol stream (nearest decision).

    ``symbols`` must include the leading reference, so N symbols decode to
    (N-1)*log2(order) bits.  A constant phase rotation of the whole stream
    does not change the result.
    """
    if order not in _GRAY:
        raise ValueError("order must be 2 or 4")
    symbols = np.asarray(symbols, dtype=complex)
    if symbols.ndim != 1 or symbols.size < 1:
        raise ValueError("symbols must be a non-empty 1-d vector")
    if symbols.size == 1:
        return np.zeros(0, dtype=np.int64)
    diffs = symbols[1:] * np.conj(symbols[:-1])
    ang = np.angle(diffs)
    steps = np.rint(ang * order / (2 * np.pi)).astype(np.int64) % order
    values = _GRAY_INV[order][steps]
    k = int(np.log2(order))
    bits = np.zeros((values.size, k), dtype=np.int64)
    for j in range(k):
        bits[:, k - 1 - j] = (values >> j) & 1
    return bits.reshape(-1)


# ---------------------------------------------------------------------------
# Cyclic shifts and array steering
# ---------------------------------------------------------------------------


def cyclic_shift(seq, k: int) -> np.ndarray:
    """Delay a block by k chips with wrap-around.

    Equivalent to applying the block permutation matrix P_k (identity for
    k = 0): out[l] = seq[(l - k) mod L].
    """
    x = np.asarray(seq)
    if x.ndim != 1 or x.size == 0:
        raise ValueError("cyclic_shift needs a non-empty 1-d sequence")
    k = int(k)
    if not 0 <= k < x.size:
        raise ValueError(f"shift {k} out of range [0, {x.size})")
    return np.roll(x, k)


@dataclass(frozen=True)
class ArrayGeometry:
    """Uniform linear arrays at both ends of the link.

    ``spacing_over_lambda`` is the element pitch in carrier wavelengths;
    the default half-wavelength pitch keeps the beamspace free of grating
    lobes.
    """

    n_tx: int = 1
    n_rx: int = 1
    spacing_over_lambda: float = 0.5

    def __post_init__(self):
        if self.n_tx < 1 or self.n_rx < 1:
            raise ValueError("n_tx and n_rx must be >= 1")
        if self.spacing_over_lambda <= 0:
            raise ValueError("spacing_over_lambda must be positive")


def steering_vector(geometry: ArrayGeometry, angle_rad: float, n_elements: int,
                    convention: str = "tx") -> np.ndarray:
    """ULA steering vector for a plane wave at the given angle.

    The transmit side uses exp(+j*k*d*sin(angle)*(p-1)) per element, the
    receive side the conjugate sign.  |angle| may not exceed pi/2.
    """
    if n_elements < 1:
        raise ValueError("n_elements must be >= 1")
    if abs(angle_rad) > np.pi / 2 + 1e-12:
        raise ValueError("angle must lie in [-pi/2, pi/2]")
    if convention == "tx":
        sign = 1.0
    elif convention == "rx":
        sign = -1.0
    else:
        raise ValueError("convention must be 'tx' or 'rx'")
    phase = sign * 2 * np.pi * geometry.spacing_over_lambda * np.sin(angle_rad)
    return np.exp(1j * phase * np.arange(n_elements))
