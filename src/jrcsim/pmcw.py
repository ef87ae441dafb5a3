"""Phase-modulated continuous-wave transmit/receive modeling.

A CPI holds M frames of the same L-chip phase code; each frame is scaled by
one slow-time DPSK symbol a_m.  A leading block of frames is reserved for
radar-only operation (known symbols), the remainder carries data;
:func:`pmcw_schedule` gives the split as a boolean mask over the frames.
The receive data cube, a ``channel.ReceiveCube`` of the config's
``cube_shape`` (M, L, N_r), stacks the per-antenna M x L frame matrices;
each scatterer contributes

    d_q * Diag(a) [ (b_q ⊙ P_{k_q} s)^T ⊗ e_q ] * c_q^(p-1)

with e_q, b_q the slow/fast-time Doppler phasors (negative-exponent
baseband convention), P_k the cyclic delay of the code by k = tau_q / t_c
chips, applied as the spectral phase ramp exp(-2 pi j f k / L) on the
code's DFT (k need not be an integer), and c_q the receive steering
phasor of ``PmcwConfig.manifold``.  The unit response (all but d_q *
Diag(a)) is written once, in :func:`_pmcw_response`; bound to a config
and code spectrum, it is what ``channel._synthesize`` evaluates on every
frame, and what the decoder's amplitude fit and the runner's CRLB proxy
evaluate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache, partial

import numpy as np

from .channel import SPEED_OF_LIGHT, ReceiveCube, Scene, _carrier_link, \
    _synthesize
from .sigcore import ArrayGeometry, CodeSequence, _column, _integer, \
    _radar_count, dpsk_encode


@dataclass(frozen=True)
class PmcwConfig:
    """Dimensions and timing of one PMCW CPI; integral floats given as
    dimensions are stored as ints."""

    code_length: int
    n_frames: int
    chip_time: float
    carrier_hz: float
    mu_percent: float = 50.0
    geometry: ArrayGeometry = field(default_factory=ArrayGeometry)

    def __post_init__(self):
        for name in ("code_length", "n_frames"):
            object.__setattr__(self, name, _integer(name, getattr(self, name)))
        for name in ("chip_time", "carrier_hz"):
            if not 0 < getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be positive and finite")
        if not 0 <= self.mu_percent <= 100:
            raise ValueError("mu_percent must lie in [0, 100]")

    @property
    def block_time(self) -> float:
        """Frame duration t_b = L * t_c."""
        return self.code_length * self.chip_time

    @property
    def wavelength(self) -> float:
        return SPEED_OF_LIGHT / self.carrier_hz

    @property
    def cube_shape(self) -> tuple:
        """Receive cube layout: (M frames, L chips, N_r elements)."""
        return (self.n_frames, self.code_length, self.geometry.n_rx)

    @property
    def manifold(self):
        return self.geometry.manifold(-1.0)


def pmcw_schedule(config: PmcwConfig) -> np.ndarray:
    """Radar-frame mask of the time-division multiplex.

    The first round(mu*M/100) frames are radar-only, so their slow-time
    block is contiguous.  With none (an all-False mask) delay/Doppler
    cannot be separated from the unknown data symbols.
    """
    mask = np.zeros(config.n_frames, dtype=bool)
    mask[:_radar_count(config.mu_percent, config.n_frames)] = True
    return mask


def payload_capacity_bits(schedule: np.ndarray, order: int = 2) -> int:
    """Number of payload bits one CPI of radar-frame mask ``schedule``
    can carry.

    Data rides on the differential transitions of the comm frames; with no
    radar frame the first comm frame is burned as the phase reference.
    """
    schedule = np.asarray(schedule, dtype=bool)
    n_comm = int(np.count_nonzero(~schedule))
    n_data = n_comm if schedule.any() else max(n_comm - 1, 0)
    return n_data * int(np.log2(order))


def _frame_symbols(schedule: np.ndarray, bits: np.ndarray,
                   order: int) -> np.ndarray:
    """Slow-time symbols of a stack of CPIs, one row of payload bits each."""
    a = np.ones((len(bits), schedule.size), dtype=complex)
    chain = dpsk_encode(bits, order)
    a[:, ~schedule] = chain[:, 1:] if schedule.any() else chain
    return a


def pmcw_frame_symbols(schedule: np.ndarray, payload_bits,
                       order: int = 2) -> np.ndarray:
    """Slow-time symbol vector a for one CPI.

    Radar-only frames carry the known symbol 1; the communication frames
    carry a DPSK chain whose reference is the last radar frame (or, when
    there is none, the first comm frame).
    """
    schedule = np.asarray(schedule, dtype=bool)
    bits = np.asarray(payload_bits, dtype=np.int64)
    expected = payload_capacity_bits(schedule, order)
    if bits.size != expected:
        raise ValueError(f"expected {expected} payload bits, got {bits.size}")
    return _frame_symbols(schedule, bits.reshape(1, -1), order)[0]


def pmcw_transmit(config: PmcwConfig, code: CodeSequence,
                  symbols) -> np.ndarray:
    """Baseband transmit samples of the one transmit element, shape
    (1, M, L): sample (0, m, l) = a_m * exp(j zeta_l).
    """
    symbols = np.asarray(symbols, dtype=complex)
    if code.length != config.code_length:
        raise ValueError("code length does not match the configuration")
    if symbols.size != config.n_frames:
        raise ValueError("need one slow-time symbol per frame")
    return (symbols[:, None] * code.chips()[None, :])[None]


def pmcw_receive_cube(scene: Scene, config: PmcwConfig, code: CodeSequence,
                      symbols, rng: np.random.Generator | None = None, *,
                      cpi_index: int = 0) -> ReceiveCube:
    """Synthesize the noisy receive cube for one CPI (matrix-model path);
    ``data[m, l, p]`` is frame m, chip l, receive element p.

    Every scatterer adds Diag(a) [(b ⊙ P_k s)^T ⊗ e] scaled by its composite
    gain and the receive steering powers, P_k the spectral phase ramp of
    its delay; a delay beyond the code is taken modulo the code, as the
    cyclic model has it.  Noise is per-sample circular complex Gaussian of
    the scene's variance.
    """
    symbols = np.asarray(symbols, dtype=complex)
    if symbols.size != config.n_frames:
        raise ValueError("need one slow-time symbol per frame")
    if code.length != config.code_length:
        raise ValueError("code length does not match the configuration")

    data = _synthesize(scene, config.cube_shape,
                       [_carrier_link(config, sc) for sc in scene.scatterers],
                       symbols.reshape(1, -1), partial(_pmcw_response, config,
                               np.fft.fft(code.chips())), [cpi_index], [rng],
                       [scene.noise_variance])
    return ReceiveCube(data=data[0], config=config)


@cache
def _dft_bins(length: int) -> np.ndarray:
    """The signed DFT bin indices ``fftfreq(length, d=1/length)``, built
    once per length; read-only, as every caller shares it."""
    bins = np.fft.fftfreq(length, d=1.0 / length)
    bins.flags.writeable = False
    return bins


def _pmcw_response(config: PmcwConfig, code_spec: np.ndarray,
                   delay_s, doppler_hz, angle_rad,
                   frames: np.ndarray) -> np.ndarray:
    """Unit response [(b ⊙ P_k s)^T ⊗ e] c of one scatterer on the integer
    ``frames``, shape (frames, L, N_r), from the code's DFT ``code_spec``.
    P_k delays the code cyclically by k = delay_s / t_c chips, any real k,
    as a phase ramp on its spectrum.  Equal shaped parameter arrays give
    one response per entry, along their leading axes, each equal to the
    scalar call's."""
    l_count = config.code_length
    delay_s, doppler_hz = _column(delay_s), _column(doppler_hz)
    code_row = np.fft.ifft(code_spec * np.exp(
        -2j * np.pi * _dft_bins(l_count) * (delay_s / config.chip_time)
        / l_count))
    slow = np.exp(-2j * np.pi * doppler_hz * frames * config.block_time)
    fast = np.exp(-2j * np.pi * doppler_hz * np.arange(l_count)
                  * config.chip_time)
    block = slow[..., :, None] * (fast * code_row)[..., None, :]
    return block[..., None] \
        * config.manifold.steering(angle_rad)[..., None, None, :]
