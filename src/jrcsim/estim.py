"""Receive-side parameter estimation, symbol decoding and refinement.

Both waveforms follow the same recipe on their data cubes: decorrelate the
known modulation, take FFT periodograms over the coupled axes (fast-time
code correlation + slow-time Doppler FFT for the continuous-wave cube,
subcarrier IFFT + slow-time FFT for the multicarrier cube), pick the
largest local maxima, then read the angle off a beamspace FFT across the
array.  Super-resolution is out of scope; zero padding plus the documented
bin conventions stand in for it.

Symbol decoding projects each data-bearing slot onto the reconstructed
multi-target response (amplitudes re-fitted by least squares on the known
slots) and differentially decodes the projections.  Refinement re-runs
detection over every slot with the decoded symbols treated as known, on a
finer zero-padded grid.

True super-resolution recovery is out of scope.  The stand-in is the
zero-padded periodogram with optional three-point parabolic peak
interpolation (``EstimatorConfig.interpolate``); estimates are grid values
or the interpolated offsets thereof, nothing sharper.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .ofdma import OfdmaCube, SymbolGrid, pilot_comb_spacing
from .pmcw import PmcwCube
from .sigcore import CodeSequence, GolayPair, dpsk_decode, dpsk_encode


class NonIdentifiableError(ValueError):
    """The multiplex leaves no known slots to estimate from."""


class DecodingError(ValueError):
    """Symbol decoding has nothing to demodulate against."""


@dataclass(frozen=True)
class EstimatorConfig:
    """Grid and detection knobs shared by the estimators.

    Padding factors multiply the FFT lengths of the respective axes;
    ``threshold_db`` is relative to the strongest map cell.
    """

    range_pad: int = 1
    doppler_pad: int = 1
    angle_pad: int = 1
    threshold_db: float = -13.0
    max_targets: int = 1
    interpolate: bool = False

    def __post_init__(self):
        for name in ("range_pad", "doppler_pad", "angle_pad"):
            v = getattr(self, name)
            if int(v) != v or v < 1:
                raise ValueError(f"{name} must be an integer >= 1")
        if self.threshold_db >= 0:
            raise ValueError("threshold_db must be negative (relative to peak)")
        if self.max_targets < 1:
            raise ValueError("max_targets must be >= 1")

    def refined(self, factor: int = 8) -> "EstimatorConfig":
        """A copy with every padding factor scaled up for refinement."""
        if factor < 1:
            raise ValueError("factor must be >= 1")
        return replace(self, range_pad=self.range_pad * factor,
                       doppler_pad=self.doppler_pad * factor,
                       angle_pad=self.angle_pad * factor)


@dataclass(frozen=True)
class TargetEstimate:
    """One detected scatterer with its grid bins kept for bin-level checks."""

    delay_s: float
    doppler_hz: float
    angle_rad: float
    amplitude: complex
    delay_bin: int
    doppler_bin: int
    angle_bin: int
    power: float


@dataclass(frozen=True)
class DetectionResult:
    """Detection map plus the per-target parameter estimates.

    ``power`` is the noncoherently integrated map over (doppler/delay) bins
    for the continuous-wave path and (delay-window/doppler) bins for the
    multicarrier path; the axis vectors carry physical units.
    """

    power: np.ndarray
    delays_s: np.ndarray
    dopplers_hz: np.ndarray
    targets: tuple


def _wrap_bin(idx: int, n: int) -> int:
    """Map an FFT bin index to its signed alias (fftfreq convention)."""
    return idx - n if idx >= (n + 1) // 2 else idx


def _parabolic_offset(prev: float, mid: float, nxt: float) -> float:
    """Sub-bin offset of a parabola fit through three power samples.

    Falls back to 0 when the fit degenerates (flat or non-concave), and is
    clamped to half a bin either side.
    """
    denom = prev - 2.0 * mid + nxt
    if denom >= 0 or not np.isfinite(denom):
        return 0.0
    return float(np.clip(0.5 * (prev - nxt) / denom, -0.5, 0.5))


def _axis_offset(power: np.ndarray, cell, axis: int, wrap: bool) -> float:
    """Parabolic offset along one axis of a 2-d power map at a peak cell."""
    n = power.shape[axis]
    idx = cell[axis]
    if not wrap and (idx == 0 or idx == n - 1):
        return 0.0
    lo = list(cell)
    hi = list(cell)
    lo[axis] = (idx - 1) % n
    hi[axis] = (idx + 1) % n
    return _parabolic_offset(power[tuple(lo)], power[cell], power[tuple(hi)])


def _local_peaks(power: np.ndarray, max_peaks: int, threshold_db: float, wrap):
    """Indices of the strongest local maxima above the relative threshold.

    A cell qualifies when it is >= all existing neighbors (8-connected,
    wrapping per axis as told).  Ties break toward the lowest bin index.
    """
    peak = float(power.max(initial=0.0))
    if peak <= 0:
        return []
    threshold = peak * 10.0 ** (threshold_db / 10.0)
    ok = power >= threshold
    for dr in (-1, 0, 1):
        for dc in (-1, 0, 1):
            if dr == 0 and dc == 0:
                continue
            shifted = np.roll(power, (dr, dc), axis=(0, 1))
            if not wrap[0] and dr == 1:
                shifted[0, :] = -np.inf
            if not wrap[0] and dr == -1:
                shifted[-1, :] = -np.inf
            if not wrap[1] and dc == 1:
                shifted[:, 0] = -np.inf
            if not wrap[1] and dc == -1:
                shifted[:, -1] = -np.inf
            ok &= power >= shifted
    cells = np.argwhere(ok)
    if cells.size == 0:
        return []
    order = sorted(range(len(cells)),
                   key=lambda i: (-power[cells[i][0], cells[i][1]],
                                  cells[i][0], cells[i][1]))
    return [tuple(cells[i]) for i in order[:max_peaks]]


def profile_peaks(profile, max_peaks: int = 1, threshold_db: float = -13.0):
    """Largest local maxima of a 1-d magnitude profile (no wrap)."""
    p = np.abs(np.asarray(profile, dtype=float)) if np.iscomplexobj(profile) \
        else np.asarray(profile, dtype=float)
    peaks = _local_peaks(p[None, :] ** 2 if p.ndim == 1 else p,
                         max_peaks, threshold_db, wrap=(False, False))
    return [c for (_, c) in peaks]


def _angle_from_snapshot(snapshot: np.ndarray, spacing_over_lambda: float,
                         angle_pad: int, phase_sign: float,
                         interpolate: bool = False):
    """Beamspace FFT over the array snapshot; returns (angle_rad, bin).

    ``phase_sign`` is the sign of the snapshot's steering exponent so the
    matched FFT kernel can be chosen (+1 multicarrier, -1 continuous wave).
    """
    n_rx = snapshot.size
    na = n_rx * angle_pad
    if phase_sign < 0:
        spectrum = np.fft.ifft(snapshot, n=na) * na
    else:
        spectrum = np.fft.fft(snapshot, n=na)
    mags = np.abs(spectrum) ** 2
    u = int(np.argmax(mags))
    u_signed = _wrap_bin(u, na)
    offset = 0.0
    if interpolate and na >= 3:
        offset = _parabolic_offset(mags[(u - 1) % na], mags[u],
                                   mags[(u + 1) % na])
    sin_psi = (u_signed + offset) / (na * spacing_over_lambda)
    sin_psi = float(np.clip(sin_psi, -1.0, 1.0))
    return float(np.arcsin(sin_psi)), u_signed


def _doppler_axis(nd: int, period: float) -> np.ndarray:
    """Doppler of each of the nd slow-time FFT bins (fftfreq order)."""
    return np.array([_wrap_bin(i, nd) / (nd * period) for i in range(nd)])


def _peak_targets(power: np.ndarray, beams: np.ndarray, config,
                  est: EstimatorConfig, *, delay_axis: int, wrap,
                  phase_sign: float, n_known: int, delay_of,
                  period: float) -> tuple:
    """Peak -> angle -> sub-bin offset -> amplitude on one detection map.

    ``beams`` is ``power`` before the sum over receive elements;
    ``delay_of`` maps a fractional delay bin to seconds, ``period`` is the
    slow-time sample spacing, ``n_known`` the count of known slots.
    """
    doppler_axis = 1 - delay_axis
    nd = power.shape[doppler_axis]
    spacing = config.geometry.spacing_over_lambda
    targets = []
    for cell in _local_peaks(power, est.max_targets, est.threshold_db, wrap):
        snapshot = beams[cell]
        angle, abin = _angle_from_snapshot(snapshot, spacing, est.angle_pad,
                                           phase_sign=phase_sign,
                                           interpolate=est.interpolate)
        kappa_signed = _wrap_bin(cell[doppler_axis], nd)
        d_off = k_off = 0.0
        if est.interpolate:
            d_off = _axis_offset(power, cell, axis=delay_axis,
                                 wrap=wrap[delay_axis])
            k_off = _axis_offset(power, cell, axis=doppler_axis, wrap=True)
        steer = np.exp(phase_sign * 2j * np.pi * spacing * np.sin(angle)
                       * np.arange(snapshot.size))
        amplitude = snapshot @ np.conj(steer) / (snapshot.size * n_known)
        targets.append(TargetEstimate(
            delay_s=delay_of(cell[delay_axis] + d_off),
            doppler_hz=(kappa_signed + k_off) / (nd * period),
            angle_rad=angle, amplitude=complex(amplitude),
            delay_bin=int(cell[delay_axis]), doppler_bin=kappa_signed,
            angle_bin=abin, power=float(power[cell])))
    return tuple(targets)


# ---------------------------------------------------------------------------
# Continuous-wave (code-domain) estimation
# ---------------------------------------------------------------------------


def _pmcw_detect(frames: np.ndarray, symbols: np.ndarray, code: CodeSequence,
                 config, est: EstimatorConfig) -> DetectionResult:
    """Range/Doppler/angle detection over a contiguous block of frames."""
    m_count = frames.shape[0]
    l_count = config.code_length
    t_b, t_c = config.block_time, config.chip_time

    y = frames * np.conj(symbols)[:, None, None]
    code_spec = np.fft.fft(code.chips())
    corr = np.fft.ifft(np.fft.fft(y, axis=1) * np.conj(code_spec)[None, :, None],
                       axis=1)
    nd = m_count * est.doppler_pad
    dopp = np.fft.ifft(corr, n=nd, axis=0) * nd
    power = np.sum(np.abs(dopp) ** 2, axis=2)

    targets = _peak_targets(power, dopp, config, est, delay_axis=1,
                            wrap=(True, True), phase_sign=-1.0,
                            n_known=l_count * m_count,
                            delay_of=lambda b: b * t_c, period=t_b)
    return DetectionResult(power=power,
                           delays_s=np.arange(l_count) * t_c,
                           dopplers_hz=_doppler_axis(nd, t_b),
                           targets=targets)


def pmcw_range_doppler(cube: PmcwCube, code: CodeSequence,
                       est: EstimatorConfig | None = None) -> DetectionResult:
    """Detect targets from the radar-only frames of a CPI.

    The radar frames form the leading contiguous block of the schedule;
    with none present the delay/Doppler map is not identifiable from
    unknown data symbols and this raises.
    """
    est = est or EstimatorConfig()
    sched = cube.schedule
    if not sched.identifiable:
        raise NonIdentifiableError(
            "no radar-only frames: delay/Doppler cannot be separated from "
            "unknown data symbols at mu = 0")
    idx = np.flatnonzero(sched.is_radar)
    return _pmcw_detect(cube.data[idx], np.ones(idx.size, dtype=complex),
                        code, cube.config, est)


def pmcw_refine(cube: PmcwCube, code: CodeSequence, symbols,
                est: EstimatorConfig) -> DetectionResult:
    """Re-estimate over all frames with every symbol treated as known."""
    symbols = np.asarray(symbols, dtype=complex)
    if symbols.size != cube.config.n_frames:
        raise ValueError("need one symbol per frame")
    return _pmcw_detect(cube.data, symbols, code, cube.config, est)


def _pmcw_basis(config, code: CodeSequence, target: TargetEstimate,
                m_indices: np.ndarray):
    """Noiseless unit-amplitude response of one target on given frames."""
    t_b, t_c = config.block_time, config.chip_time
    l_count = config.code_length
    n_rx = config.geometry.n_rx
    chips = np.roll(code.chips(), target.delay_bin)
    phase_t = m_indices[:, None] * t_b + np.arange(l_count)[None, :] * t_c
    dop = np.exp(-2j * np.pi * target.doppler_hz * phase_t)
    steer = np.exp(-2j * np.pi * config.geometry.spacing_over_lambda
                   * np.sin(target.angle_rad) * np.arange(n_rx))
    return (dop * chips[None, :])[:, :, None] * steer[None, None, :]


def pmcw_estimate_amplitudes(cube: PmcwCube, code: CodeSequence, targets,
                             symbols, m_indices) -> np.ndarray:
    """Least-squares complex amplitudes of the detected targets.

    Fits d in y = sum_q d_q * a_m * basis_q over the chosen frames, where
    the symbols on those frames are known (or decoded) values.
    """
    m_indices = np.asarray(m_indices, dtype=int)
    symbols = np.asarray(symbols, dtype=complex)
    if symbols.size != m_indices.size:
        raise ValueError("need one symbol per selected frame")
    if not targets:
        raise ValueError("no targets to fit")
    cols = []
    for tgt in targets:
        basis = _pmcw_basis(cube.config, code, tgt, m_indices)
        cols.append((symbols[:, None, None] * basis).ravel())
    a_mat = np.stack(cols, axis=1)
    y = cube.data[m_indices].ravel()
    d_hat, *_ = np.linalg.lstsq(a_mat, y, rcond=None)
    return d_hat


def pmcw_decode(cube: PmcwCube, code: CodeSequence, targets, order: int = 2):
    """Demodulate the data frames against the reconstructed target response.

    Returns (bits, symbol_estimates, full_symbol_vector) where the full
    vector holds the known radar symbols (all 1) followed by the re-encoded
    hard decisions, ready to hand to :func:`pmcw_refine`.
    """
    sched = cube.schedule
    if not targets:
        raise DecodingError("no detected targets to demodulate against")
    if sched.n_radar == 0:
        raise DecodingError("no radar-only frames to anchor amplitudes and "
                            "the differential reference")
    radar_idx = np.flatnonzero(sched.is_radar)
    comm_idx = np.flatnonzero(~sched.is_radar)
    radar_symbols = np.ones(radar_idx.size, dtype=complex)

    full = np.ones(sched.n_frames, dtype=complex)
    if comm_idx.size == 0:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=complex), full

    d_hat = pmcw_estimate_amplitudes(cube, code, targets, radar_symbols,
                                     radar_idx)
    response = np.zeros((comm_idx.size, cube.config.code_length,
                         cube.config.geometry.n_rx), dtype=complex)
    for d_q, tgt in zip(d_hat, targets):
        response += d_q * _pmcw_basis(cube.config, code, tgt, comm_idx)
    energy = np.sum(np.abs(response) ** 2, axis=(1, 2))
    if np.any(energy == 0):
        raise DecodingError("reconstructed response has zero energy")
    proj = np.sum(cube.data[comm_idx] * np.conj(response), axis=(1, 2)) / energy

    chain = np.concatenate([[radar_symbols[-1]], proj])
    bits = dpsk_decode(chain, order)
    full[comm_idx] = radar_symbols[-1] * dpsk_encode(bits, order).symbols[1:]
    return bits, proj, full


# ---------------------------------------------------------------------------
# Multicarrier (subcarrier-domain) estimation
# ---------------------------------------------------------------------------


def _ofdma_detect(data: np.ndarray, known_symbols: np.ndarray,
                  known_mask: np.ndarray, config,
                  est: EstimatorConfig) -> DetectionResult:
    """Range/Doppler/angle detection from the rows flagged as known."""
    n_c, n_s = config.n_subcarriers, config.n_symbols
    df = config.subcarrier_spacing_hz
    t_sym = config.symbol_duration

    rows = np.flatnonzero(known_mask)
    x = np.zeros_like(data)
    x[rows] = data[rows] * np.conj(known_symbols[rows])[:, :, None]

    nr = n_c * est.range_pad
    prof = np.fft.ifft(x, n=nr, axis=0) * nr
    comb = pilot_comb_spacing(known_mask)
    window = max(nr // comb, 1)
    prof = prof[:window]
    nd = n_s * est.doppler_pad
    v = np.fft.fft(prof, n=nd, axis=1)
    power = np.sum(np.abs(v) ** 2, axis=2)

    targets = _peak_targets(power, v, config, est, delay_axis=0,
                            wrap=(False, True), phase_sign=+1.0,
                            n_known=rows.size * n_s,
                            delay_of=lambda b: b / (nr * df), period=t_sym)
    return DetectionResult(power=power,
                           delays_s=np.arange(window) / (nr * df),
                           dopplers_hz=_doppler_axis(nd, t_sym),
                           targets=targets)


def ofdma_range_doppler_angle(cube: OfdmaCube, grid: SymbolGrid,
                              est: EstimatorConfig | None = None
                              ) -> DetectionResult:
    """Detect targets from the radar-pilot subcarriers of a CPI.

    Range search is limited to the pilot comb's unambiguous window
    N_c/spacing bins; with no pilot rows the range/symbol coupling makes
    the problem non-identifiable.
    """
    est = est or EstimatorConfig()
    if not grid.radar_rows.any():
        raise NonIdentifiableError(
            "no radar-pilot subcarriers: range cannot be separated from "
            "unknown data symbols at mu = 0")
    return _ofdma_detect(cube.data, grid.symbols, grid.radar_rows,
                         cube.config, est)


def ofdma_refine(cube: OfdmaCube, symbols: np.ndarray,
                 est: EstimatorConfig) -> DetectionResult:
    """Re-estimate over the full grid with all symbols treated as known."""
    symbols = np.asarray(symbols, dtype=complex)
    if symbols.shape != (cube.config.n_subcarriers, cube.config.n_symbols):
        raise ValueError("need the full N_c x N_s symbol matrix")
    mask = np.ones(cube.config.n_subcarriers, dtype=bool)
    return _ofdma_detect(cube.data, symbols, mask, cube.config, est)


def _ofdma_basis(config, target: TargetEstimate, rows: np.ndarray):
    """Noiseless unit-amplitude, unit-symbol response on given subcarriers."""
    n_s = config.n_symbols
    n_rx = config.geometry.n_rx
    df = config.subcarrier_spacing_hz
    phase_n = np.exp(-2j * np.pi * rows * df * target.delay_s)
    phase_m = np.exp(2j * np.pi * np.arange(n_s) * config.symbol_duration
                     * target.doppler_hz)
    steer = np.exp(2j * np.pi * config.geometry.spacing_over_lambda
                   * np.sin(target.angle_rad) * np.arange(n_rx))
    return (phase_n[:, None] * phase_m[None, :])[:, :, None] * steer[None, None, :]


def ofdma_estimate_amplitudes(cube: OfdmaCube, grid: SymbolGrid, targets,
                              rows=None) -> np.ndarray:
    """Least-squares target amplitudes from rows with known symbols."""
    if not targets:
        raise ValueError("no targets to fit")
    if rows is None:
        rows = np.flatnonzero(grid.radar_rows)
    rows = np.asarray(rows, dtype=int)
    cols = []
    for tgt in targets:
        basis = _ofdma_basis(cube.config, tgt, rows)
        cols.append((grid.symbols[rows][:, :, None] * basis).ravel())
    a_mat = np.stack(cols, axis=1)
    y = cube.data[rows].ravel()
    d_hat, *_ = np.linalg.lstsq(a_mat, y, rcond=None)
    return d_hat


def ofdma_decode(cube: OfdmaCube, grid: SymbolGrid, targets):
    """Demodulate the data subcarriers against the reconstructed response.

    Returns (bits, symbol_estimates, full_symbol_matrix); the matrix holds
    pilot rows as transmitted plus the re-encoded hard decisions, ready for
    :func:`ofdma_refine`.
    """
    if not targets:
        raise DecodingError("no detected targets to demodulate against")
    if grid.n_radar == 0:
        raise DecodingError("no pilot rows to anchor the target amplitudes")
    comm_rows = np.flatnonzero(~grid.radar_rows)
    full = grid.symbols.copy()
    if comm_rows.size == 0:
        return (np.zeros(0, dtype=np.int64),
                np.zeros((0, grid.n_symbols), dtype=complex), full)

    d_hat = ofdma_estimate_amplitudes(cube, grid, targets)
    response = np.zeros((comm_rows.size, grid.n_symbols,
                         cube.config.geometry.n_rx), dtype=complex)
    for d_q, tgt in zip(d_hat, targets):
        response += d_q * _ofdma_basis(cube.config, tgt, comm_rows)
    energy = np.sum(np.abs(response) ** 2, axis=2)
    if np.any(energy == 0):
        raise DecodingError("reconstructed response has zero energy")
    proj = np.sum(cube.data[comm_rows] * np.conj(response), axis=2) / energy

    bits_all = []
    for i, n in enumerate(comm_rows):
        row_bits = dpsk_decode(proj[i], grid.order)
        bits_all.append(row_bits)
        full[n] = dpsk_encode(row_bits, grid.order).symbols
    bits = np.concatenate(bits_all) if bits_all else np.zeros(0, dtype=np.int64)
    return bits, proj, full


# ---------------------------------------------------------------------------
# Complementary-pair channel sounding
# ---------------------------------------------------------------------------


def golay_cef_waveform(pair: GolayPair, guard: int) -> np.ndarray:
    """Channel-estimation field: the two pair members with guard gaps.

    The guard must cover the longest path delay so each correlator segment
    sees only its own member's echoes.
    """
    if guard < 1:
        raise ValueError("guard must be >= 1 sample")
    z = np.zeros(guard)
    return np.concatenate([pair.ga.astype(float), z, pair.gb.astype(float), z])


def golay_range_estimate(received, pair: GolayPair, guard: int) -> np.ndarray:
    """Delay profile from the two correlator branches, scaled by 2N.

    For received = channel (x) cef with all path delays < guard, entry d of
    the output equals 2N * h[d] exactly: the pair's complementary
    autocorrelations cancel every sidelobe.
    """
    rx = np.asarray(received)
    n = pair.length
    seg = n + guard
    if rx.ndim != 1 or rx.size < 2 * seg:
        raise ValueError(f"received must hold at least {2 * seg} samples")
    seg_a = rx[:seg]
    seg_b = rx[seg:2 * seg]
    corr_a = np.correlate(seg_a, pair.ga.astype(seg_a.dtype), mode="valid")
    corr_b = np.correlate(seg_b, pair.gb.astype(seg_b.dtype), mode="valid")
    return corr_a + corr_b
