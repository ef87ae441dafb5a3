"""Phase-modulated continuous-wave transmit/receive modeling.

A CPI holds M frames of the same L-chip phase code; each frame is scaled by
one slow-time DPSK symbol a_m.  A leading block of frames is reserved for
radar-only operation (known symbols), the remainder carries data.  The
receive data cube stacks the per-antenna M x L frame matrices; each
scatterer contributes

    d_q * Diag(a) [ (b_q ⊙ P_{k_q} s)^T ⊗ e_q ] * c_q^(p-1)

with e_q, b_q the slow/fast-time Doppler phasors (negative-exponent
baseband convention), P_k the cyclic delay of the code by k = tau_q / t_c
chips, applied as the spectral phase ramp exp(-2 pi j f k / L) on the
code's DFT (k need not be an integer), and c_q the receive steering
phasor.  The unit response (all but d_q * Diag(a)) is written once, in
:func:`_pmcw_response`; the synthesizer, the decoder's amplitude fit and
the runner's CRLB proxy all evaluate it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .channel import SPEED_OF_LIGHT, Scene, _synthesize
from .sigcore import ArrayGeometry, CodeSequence, dpsk_encode, steering_vector


@dataclass(frozen=True)
class PmcwConfig:
    """Dimensions and timing of one PMCW CPI."""

    code_length: int
    n_frames: int
    chip_time: float
    carrier_hz: float
    mu_percent: float = 50.0
    geometry: ArrayGeometry = field(default_factory=ArrayGeometry)

    def __post_init__(self):
        if self.code_length < 1:
            raise ValueError("code_length must be >= 1")
        if self.n_frames < 1:
            raise ValueError("n_frames must be >= 1")
        if self.chip_time <= 0:
            raise ValueError("chip_time must be positive")
        if self.carrier_hz <= 0:
            raise ValueError("carrier_hz must be positive")
        if not 0 <= self.mu_percent <= 100:
            raise ValueError("mu_percent must lie in [0, 100]")

    @property
    def block_time(self) -> float:
        """Frame duration t_b = L * t_c."""
        return self.code_length * self.chip_time

    @property
    def wavelength(self) -> float:
        return SPEED_OF_LIGHT / self.carrier_hz


@dataclass(frozen=True)
class FrameSchedule:
    """Radar/communication split of the M frames in one CPI.

    The radar-only frames come first so their slow-time block is contiguous.
    ``identifiable`` is False when no frame is radar-only, in which case
    delay/Doppler cannot be separated from the unknown data symbols.
    """

    is_radar: np.ndarray

    def __post_init__(self):
        mask = np.asarray(self.is_radar, dtype=bool)
        if mask.ndim != 1 or mask.size < 1:
            raise ValueError("schedule needs at least one frame")
        object.__setattr__(self, "is_radar", mask)

    @property
    def n_frames(self) -> int:
        return int(self.is_radar.size)

    @property
    def n_radar(self) -> int:
        return int(np.count_nonzero(self.is_radar))

    @property
    def n_comm(self) -> int:
        return self.n_frames - self.n_radar

    @property
    def identifiable(self) -> bool:
        return self.n_radar > 0


def pmcw_schedule(config: PmcwConfig) -> FrameSchedule:
    """Time-division multiplex: the first round(mu*M/100) frames are radar-only."""
    m = config.n_frames
    n_radar = int(np.floor(config.mu_percent * m / 100.0 + 0.5))
    n_radar = min(n_radar, m)
    mask = np.zeros(m, dtype=bool)
    mask[:n_radar] = True
    return FrameSchedule(mask)


def payload_capacity_bits(schedule: FrameSchedule, order: int = 2) -> int:
    """Number of payload bits one CPI can carry.

    Data rides on the differential transitions of the comm frames; with no
    radar frame the first comm frame is burned as the phase reference.
    """
    k = int(np.log2(order))
    n_data = schedule.n_comm if schedule.n_radar else max(schedule.n_comm - 1, 0)
    return n_data * k


def _frame_symbols(schedule: FrameSchedule, bits: np.ndarray,
                   order: int) -> np.ndarray:
    """Slow-time symbols of a stack of CPIs, one row of payload bits each."""
    a = np.ones((len(bits), schedule.n_frames), dtype=complex)
    if schedule.n_comm == 0:
        return a
    chain = dpsk_encode(bits, order)
    if schedule.n_radar:
        a[:, schedule.n_radar:] = chain[:, 1:]
    else:
        a[:] = chain
    return a


def pmcw_frame_symbols(schedule: FrameSchedule, payload_bits, order: int = 2) -> np.ndarray:
    """Slow-time symbol vector a for one CPI.

    Radar-only frames carry the known symbol 1; the communication frames
    carry a DPSK chain whose reference is the last radar frame (or, when
    there is none, the first comm frame).
    """
    bits = np.asarray(payload_bits, dtype=np.int64)
    expected = payload_capacity_bits(schedule, order)
    if bits.size != expected:
        raise ValueError(f"expected {expected} payload bits, got {bits.size}")
    return _frame_symbols(schedule, bits.reshape(1, -1), order)[0]


def pmcw_transmit(config: PmcwConfig, code: CodeSequence, symbols,
                  beam_angle_rad: float = 0.0) -> np.ndarray:
    """Per-antenna baseband transmit samples, shape (N_t, M, L).

    Sample (i, m, l) = a_m * exp(j zeta_l) * exp(+j k d sin(beta) i).
    """
    symbols = np.asarray(symbols, dtype=complex)
    if code.length != config.code_length:
        raise ValueError("code length does not match the configuration")
    if symbols.size != config.n_frames:
        raise ValueError("need one slow-time symbol per frame")
    chips = code.chips()
    steer = steering_vector(config.geometry, beam_angle_rad,
                            config.geometry.n_tx, "tx")
    return steer[:, None, None] * symbols[None, :, None] * chips[None, None, :]


@dataclass(frozen=True)
class PmcwCube:
    """Receive data cube: per-antenna slow/fast-time matrices.

    ``data[m, l, p]`` is frame m, chip l, receive element p; the schedule
    says which frames are radar-only.
    """

    data: np.ndarray
    schedule: FrameSchedule
    config: PmcwConfig

    def __post_init__(self):
        d = np.asarray(self.data, dtype=complex)
        expected = (self.config.n_frames, self.config.code_length,
                    self.config.geometry.n_rx)
        if d.shape != expected:
            raise ValueError(f"cube shape {d.shape} != expected {expected}")
        object.__setattr__(self, "data", d)


def pmcw_receive_cube(scene: Scene, config: PmcwConfig, code: CodeSequence,
                      symbols, rng: np.random.Generator | None = None, *,
                      cpi_index: int = 0) -> PmcwCube:
    """Synthesize the noisy receive cube for one CPI (matrix-model path).

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
    if scene.noise_variance > 0 and rng is None:
        raise ValueError("a Generator is required when noise_variance > 0")

    data = _pmcw_synthesize(scene, config, np.fft.fft(code.chips()),
                            symbols.reshape(1, -1), [cpi_index], [rng])
    return PmcwCube(data=data[0], schedule=pmcw_schedule(config),
                    config=config)


def _pmcw_response(config: PmcwConfig, code_spec: np.ndarray,
                   delay_s: float, doppler_hz: float, angle_rad: float,
                   frames: np.ndarray) -> np.ndarray:
    """Unit response [(b ⊙ P_k s)^T ⊗ e] c of one scatterer on the integer
    ``frames``, shape (frames, L, N_r), from the code's DFT ``code_spec``.
    P_k delays the code cyclically by k = delay_s / t_c chips, any real k,
    as a phase ramp on its spectrum.  Unlike ``steering_vector`` it takes
    any angle, as the CRLB proxy's angle step may cross +-pi/2."""
    l_count = config.code_length
    freqs = np.fft.fftfreq(l_count, d=1.0 / l_count)
    code_row = np.fft.ifft(code_spec * np.exp(
        -2j * np.pi * freqs * (delay_s / config.chip_time) / l_count))
    slow = np.exp(-2j * np.pi * doppler_hz * frames * config.block_time)
    fast = np.exp(-2j * np.pi * doppler_hz * np.arange(l_count)
                  * config.chip_time)
    steer = np.exp(-2j * np.pi * config.geometry.spacing_over_lambda
                   * np.sin(angle_rad) * np.arange(config.geometry.n_rx))
    block = slow[:, None] * (fast * code_row)[None, :]
    return block[:, :, None] * steer[None, None, :]


def _pmcw_synthesize(scene: Scene, config: PmcwConfig, code_spec: np.ndarray,
                     symbols: np.ndarray, cpi_indices, rngs) -> np.ndarray:
    """Receive data of a stack of CPIs, shape (CPIs, M, L, N_r), for the
    code of DFT ``code_spec``; see ``channel._synthesize``."""
    return _synthesize(
        scene, config.carrier_hz, config.geometry.n_tx,
        symbols.shape + (config.code_length, config.geometry.n_rx),
        symbols[:, :, None, None],
        partial(_pmcw_response, config, code_spec,
                frames=np.arange(config.n_frames)), cpi_indices, rngs)
