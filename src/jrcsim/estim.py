"""Receive-side parameter estimation, symbol decoding and refinement.

Both waveforms follow the same recipe on their data cubes: decorrelate the
known modulation, take FFT periodograms over the coupled axes (fast-time
code correlation + slow-time Doppler FFT for the continuous-wave cube,
subcarrier IFFT + slow-time FFT for the multicarrier cube), pick the
largest local maxima, then read the angle off a beamspace FFT across the
array.  Super-resolution is out of scope; zero padding plus the documented
bin conventions stand in for it.

The estimators run on stacks of CPIs with a leading axis (the trials of
a sweep point); the public single-CPI functions are stacks of one.  Peak
picking stays per CPI: each map's threshold is relative to its own
strongest cell.

Symbol decoding projects each data-bearing slot onto the reconstructed
multi-target response (amplitudes re-fitted by least squares on the known
slots) and differentially decodes the projections.  A target's response
is the waveform's own receive model, ``pmcw._pmcw_response`` or
``ofdma._ofdma_response``, evaluated at its estimates.

Refinement re-runs detection over every slot with the decoded symbols
treated as known.  It forms the unpadded (pad-1) map of all slots, and
evaluates the finer zero-padded grid only in a window around each seed
cell of that map above the threshold (a local peak, or on a padded axis
a rising flank, beside which a fine peak between two unpadded bins may
lie): +-1 unpadded bin plus a one-cell guard ring, so (2 * pad + 3)
cells per padded axis, computed with small explicit DFT matrices (a
chirp-z style zoom).  A refinement costs the pad-1 map plus
O(peaks * window cells * slots), instead of an FFT over, and a peak scan
of, the whole padded plane; a fine-grid peak outside every window is not
found.

True super-resolution recovery is out of scope.  The stand-in is the
zero-padded periodogram with optional three-point parabolic peak
interpolation (``EstimatorConfig.interpolate``); estimates are grid values
or the interpolated offsets thereof, nothing sharper.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial
from typing import Callable

import numpy as np

from .ofdma import OfdmaCube, SymbolGrid, _ofdma_response, \
    pilot_comb_spacing
from .pmcw import PmcwCube, _pmcw_response
from .sigcore import CodeSequence, GolayPair, dpsk_decode, dpsk_encode


class NonIdentifiableError(ValueError):
    """The multiplex leaves no known slots to estimate from."""


class DecodingError(ValueError):
    """Symbol decoding has nothing to demodulate against."""


def _integer(name: str, value, minimum: int = 1) -> int:
    """``value`` as an int >= minimum; integral floats are accepted."""
    try:
        as_int = int(value)
    except (TypeError, ValueError, OverflowError):
        as_int = None
    if as_int is None or as_int != value or as_int < minimum:
        raise ValueError(f"{name} must be an integer >= {minimum}")
    return as_int


@dataclass(frozen=True)
class EstimatorConfig:
    """Grid and detection knobs shared by the estimators.

    Padding factors multiply the FFT lengths of the respective axes;
    ``threshold_db`` is relative to the strongest map cell.  Pads and
    ``max_targets`` must be integers; integral floats are stored as ints.
    """

    range_pad: int = 1
    doppler_pad: int = 1
    angle_pad: int = 1
    threshold_db: float = -13.0
    max_targets: int = 1
    interpolate: bool = False

    def __post_init__(self):
        for name in ("range_pad", "doppler_pad", "angle_pad", "max_targets"):
            object.__setattr__(self, name,
                               _integer(name, getattr(self, name)))
        if self.threshold_db >= 0:
            raise ValueError("threshold_db must be negative (relative to peak)")

    def refined(self, factor: int = 8) -> "EstimatorConfig":
        """A copy with every padding factor scaled up for refinement."""
        factor = _integer("factor", factor)
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
    multicarrier path; the axis vectors carry physical units.  A refined
    result carries the unpadded (pad-1) map its windows were seeded on.
    """

    power: np.ndarray
    delays_s: np.ndarray
    dopplers_hz: np.ndarray
    targets: tuple


@dataclass(frozen=True)
class _MapLayout:
    """Axis conventions of one delay/Doppler map.

    ``delay_of`` maps a fractional delay bin to seconds, ``period`` is the
    slow-time sample spacing, ``n_known`` the count of known slots.
    """

    shape: tuple
    delay_axis: int
    wrap: tuple
    phase_sign: float
    n_known: int
    delay_of: Callable[[float], float]
    period: float
    spacing: float


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


def _axis_offset(power: np.ndarray, pos, axis: int) -> float:
    """Parabolic offset along one axis at an inner cell of a guarded block."""
    lo = list(pos)
    hi = list(pos)
    lo[axis] -= 1
    hi[axis] += 1
    return _parabolic_offset(power[tuple(lo)], power[pos], power[tuple(hi)])


# Windows are stacked guarded blocks: whole maps, or windows of them, each
# with a one-cell guard ring.  The maps come as a stack too, one per CPI
# (trial), and block w belongs to map ``owner[w]``.  ``bins`` pairs a
# (blocks, rows) and a (blocks, cols) array of the true map bin of each
# block row and column, -1 outside a non-wrapping axis, where the block's
# power is -inf.


def _bins(raw: np.ndarray, n: int, wrap: bool) -> np.ndarray:
    """True bins of raw axis indices: modulo n, or -1 outside [0, n)."""
    return raw % n if wrap else np.where((raw >= 0) & (raw < n), raw, -1)


def _gather(values: np.ndarray, bins, owner: np.ndarray) -> np.ndarray:
    """Stacked maps' values at every block cell (-1 bins read a wrong one)."""
    return values[owner[:, None, None], bins[0][:, :, None],
                  bins[1][:, None, :]]


def _guard(power: np.ndarray, bins) -> np.ndarray:
    """Block power with -inf wherever a bin is -1."""
    inside = (bins[0][:, :, None] >= 0) & (bins[1][:, None, :] >= 0)
    return np.where(inside, power, -np.inf)


def _whole_map(power: np.ndarray, wrap) -> tuple:
    """(bins, power, owner) of a stack of whole maps plus guard rings."""
    bins = tuple(np.repeat(_bins(np.arange(-1, n + 1), n, w)[None],
                           len(power), axis=0)
                 for n, w in zip(power.shape[1:], wrap))
    owner = np.arange(len(power))
    return bins, _guard(_gather(power, bins, owner), bins), owner


def _threshold(peak: np.ndarray, threshold_db: float) -> np.ndarray:
    """Per-map power thresholds; NaN (nothing qualifies) where the map's
    strongest cell is not positive."""
    return np.where(peak > 0, peak * 10.0 ** (threshold_db / 10.0), np.nan)


def _peak_cells(bins, power: np.ndarray, owner: np.ndarray, n_maps: int,
                max_peaks: int, threshold_db: float) -> list:
    """The strongest local maxima of stacked guarded power blocks, per map.

    A cell inside a guard ring qualifies when it is >= all 8 neighbours
    and reaches the threshold relative to the strongest cell of any block
    of its map.  A cell that several blocks of a map share counts once;
    ties break toward the lowest true bin.  Returns, for each of the
    ``n_maps`` maps, a list of (block, row, col) block positions.
    """
    peak = np.zeros(n_maps)
    np.maximum.at(peak, owner, power.max(axis=(1, 2), initial=0.0))
    inner = power[:, 1:-1, 1:-1]
    around = np.maximum(np.maximum(power[:, :-2], power[:, 1:-1]),
                        power[:, 2:])
    around = np.maximum(np.maximum(around[:, :, :-2], around[:, :, 1:-1]),
                        around[:, :, 2:])
    w, r, c = np.nonzero((inner >= around) & (
        inner >= _threshold(peak, threshold_db)[owner, None, None]))
    r, c = r + 1, c + 1
    row, col, own = bins[0][w, r], bins[1][w, c], owner[w]
    order = np.lexsort((col, row, -power[w, r, c], own)).tolist()
    w, r, c, row, col, own = (a.tolist() for a in (w, r, c, row, col, own))
    cells = [[] for _ in range(n_maps)]
    seen = set()
    for k in order:
        picked = cells[own[k]]
        if len(picked) == max_peaks or (own[k], row[k], col[k]) in seen:
            continue
        seen.add((own[k], row[k], col[k]))
        picked.append((w[k], r[k], c[k]))
    return cells


def profile_peaks(profile, max_peaks: int = 1, threshold_db: float = -13.0):
    """Largest local maxima of a 1-d magnitude profile (no wrap)."""
    p = np.abs(np.asarray(profile, dtype=float)) if np.iscomplexobj(profile) \
        else np.asarray(profile, dtype=float)
    bins, power, owner = _whole_map(
        (p[None, :] ** 2 if p.ndim == 1 else p)[None], (False, False))
    return [int(bins[1][0, c]) for _, _, c in
            _peak_cells(bins, power, owner, 1, max_peaks, threshold_db)[0]]


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


def _dft(n_in: int, n_out: int, sign: float) -> np.ndarray:
    """The (n_out, n_in) n_out-point DFT matrix over n_in inputs; a stack
    of refinement windows takes its rows by fine bin."""
    roots = np.exp(sign * 2j * np.pi * np.arange(n_out) / n_out)
    return roots[np.arange(n_out)[:, None] * np.arange(n_in) % n_out]


def _cell_target(windows, block_cell, est: EstimatorConfig,
                 lay: _MapLayout) -> TargetEstimate:
    """Peak -> angle -> sub-bin offset -> amplitude at one block cell."""
    bins, power, beams, _ = windows
    w, r, c = block_cell
    da, ka = lay.delay_axis, 1 - lay.delay_axis
    nd = lay.shape[ka]
    cell = (int(bins[0][w, r]), int(bins[1][w, c]))
    snapshot = beams[w, r, c]
    angle, abin = _angle_from_snapshot(snapshot, lay.spacing,
                                       est.angle_pad,
                                       phase_sign=lay.phase_sign,
                                       interpolate=est.interpolate)
    kappa_signed = _wrap_bin(cell[ka], nd)
    d_off = k_off = 0.0
    if est.interpolate:
        if lay.wrap[da] or 0 < cell[da] < lay.shape[da] - 1:
            d_off = _axis_offset(power[w], (r, c), da)
        k_off = _axis_offset(power[w], (r, c), ka)
    steer = np.exp(lay.phase_sign * 2j * np.pi * lay.spacing
                   * np.sin(angle) * np.arange(snapshot.size))
    amplitude = snapshot @ np.conj(steer) / (snapshot.size * lay.n_known)
    return TargetEstimate(
        delay_s=lay.delay_of(cell[da] + d_off),
        doppler_hz=(kappa_signed + k_off) / (nd * lay.period),
        angle_rad=angle, amplitude=complex(amplitude),
        delay_bin=cell[da], doppler_bin=kappa_signed,
        angle_bin=abin, power=float(power[w, r, c]))


def _window_targets(windows, n_maps: int, est: EstimatorConfig,
                    lay: _MapLayout) -> list:
    """Per map, the targets at the strongest peaks of its blocks;
    ``windows`` is (bins, power, beams, owner)."""
    bins, power, _, owner = windows
    return [tuple(_cell_target(windows, cell, est, lay) for cell in cells)
            for cells in _peak_cells(bins, power, owner, n_maps,
                                     est.max_targets, est.threshold_db)]


def _map_targets(beams: np.ndarray, est: EstimatorConfig,
                 lay: _MapLayout) -> tuple:
    """(power maps, targets per map) of a stack of whole maps of
    per-element beams."""
    power = np.sum(np.abs(beams) ** 2, axis=3)
    bins, guarded, owner = _whole_map(power, lay.wrap)
    return power, _window_targets(
        (bins, guarded, _gather(beams, bins, owner), owner), len(power),
        est, lay)


def _seed_cells(seed_power: np.ndarray, pads, wrap,
                threshold_db: float) -> np.ndarray:
    """(map, row, col) of every pad-1 cell a fine-grid peak may lie next to.

    ``seed_power`` is a stack of maps.  A cell qualifies when it reaches
    the threshold (relative to its map's strongest cell) and, on each
    axis, is >= its neighbours on both sides of an unpadded axis but on
    one side only of a padded one, diagonals on the compared sides
    included.  A fine peak halfway between two pad-1 bins shows there as
    a rising flank toward a stronger neighbour (another target's
    sidelobe, say) rather than a local maximum, and the higher of its two
    bins still qualifies.  With every pad 1 the seeds are the map's local
    maxima.  Cells come map by map, each in row-major order.
    """
    peak = seed_power.max(axis=(1, 2), initial=0.0)
    _, g, _ = _whole_map(seed_power, wrap)
    n0, n1 = seed_power.shape[1:]
    inner = g[:, 1:-1, 1:-1]
    above = inner >= _threshold(peak, threshold_db)[:, None, None]
    sides = [[(-1, 0, 1)] if p == 1 else [(-1, 0), (0, 1)] for p in pads]
    ok = np.zeros(inner.shape, dtype=bool)
    for rows in sides[0]:
        for cols in sides[1]:
            good = above.copy()
            for dr in rows:
                for dc in cols:
                    if dr or dc:
                        good &= inner >= g[:, 1 + dr:n0 + 1 + dr,
                                           1 + dc:n1 + 1 + dc]
            ok |= good
    return np.argwhere(ok)


def _refine_windows(seed_power: np.ndarray, beams_at, pads,
                    est: EstimatorConfig, lay: _MapLayout) -> tuple:
    """Fine-grid windows around every seed cell of a stack of pad-1 maps.

    Seeds are ``_seed_cells``.  Seed bin s maps to fine bin s * pad; its
    window spans +-pad fine bins (+-1 seed bin) plus the guard ring.
    ``beams_at(owner, rows, cols)`` evaluates the fine per-element map of
    map ``owner[w]`` at window w's true fine bins (a -1 bin may read
    anything).  Returns (bins, power, beams, owner).
    """
    seeds = _seed_cells(seed_power, pads, lay.wrap, est.threshold_db)
    owner = seeds[:, 0]
    wbins = tuple(_bins(seeds[:, [a + 1]] * p + np.arange(-p - 1, p + 2),
                        n, w)
                  for a, (p, n, w) in enumerate(zip(pads, lay.shape,
                                                    lay.wrap)))
    beams = beams_at(owner, *wbins)
    power = np.abs(beams)
    power **= 2
    return wbins, _guard(power.sum(axis=-1), wbins), beams, owner


def _refined(refinement, est: EstimatorConfig) -> tuple:
    """(pad-1 power maps, targets per CPI) of a stack's refinements, from
    its (pad-1 power maps, fine-grid windows, layout)."""
    power, windows, lay = refinement
    return power, _window_targets(windows, len(power), est, lay)


def _fit(data: np.ndarray, basis, targets, slots: np.ndarray,
         symbols: np.ndarray) -> np.ndarray:
    """Least-squares amplitudes of ``targets`` in one CPI's data over the
    known ``slots``.

    Fits d in y = sum_q d_q * symbols * basis(target_q, slots), where
    ``basis`` gives a target's unit-amplitude response on the slots and
    ``symbols`` (broadcast against it) are the symbols they carry.
    """
    a_mat = np.stack([(symbols * basis(tgt, slots)).ravel()
                      for tgt in targets], axis=1)
    d_hat, *_ = np.linalg.lstsq(a_mat, data[slots].ravel(), rcond=None)
    return d_hat


def _project(data: np.ndarray, basis, targets, known: np.ndarray,
             known_symbols: np.ndarray, slots: np.ndarray, axes) -> np.ndarray:
    """Symbol estimates on the data ``slots`` of a stack of CPIs.

    Per CPI, the amplitudes of its ``targets`` entry are fitted on the
    ``known`` slots, which carry that CPI's ``known_symbols``, and the
    response they give is rebuilt on the data slots.  Each data sample is
    projected onto it, summed over ``axes``.
    """
    received = data[:, slots]
    response = np.zeros_like(received)
    for k, found in enumerate(targets):
        d_hat = _fit(data[k], basis, found, known, known_symbols[k])
        for d_q, tgt in zip(d_hat, found):
            response[k] += d_q * basis(tgt, slots)
    energy = np.sum(np.abs(response) ** 2, axis=axes)
    if np.any(energy == 0):
        raise DecodingError("reconstructed response has zero energy")
    return np.sum(received * np.conj(response), axis=axes) / energy


# ---------------------------------------------------------------------------
# Continuous-wave (code-domain) estimation
# ---------------------------------------------------------------------------


def _pmcw_correlate(frames: np.ndarray, symbols: np.ndarray,
                    code_spec: np.ndarray) -> np.ndarray:
    """Fast-time code correlation of each frame with its symbol removed.

    ``frames`` is a (CPIs, frames, L, N_r) stack, ``symbols`` the
    (CPIs, frames) symbols on them and ``code_spec`` the code's DFT.
    """
    y = frames * np.conj(symbols)[:, :, None, None]
    np.fft.fft(y, axis=2, out=y)
    y *= np.conj(code_spec)[:, None]
    return np.fft.ifft(y, axis=2, out=y)


def _pmcw_layout(config, m_count: int, doppler_pad: int) -> _MapLayout:
    """(Doppler, delay) map layout; the delay axis is the unpadded lag."""
    l_count, t_c = config.code_length, config.chip_time
    return _MapLayout(shape=(m_count * doppler_pad, l_count), delay_axis=1,
                      wrap=(True, True), phase_sign=-1.0,
                      n_known=l_count * m_count, delay_of=lambda b: b * t_c,
                      period=config.block_time,
                      spacing=config.geometry.spacing_over_lambda)


def _pmcw_result(power, config, targets) -> DetectionResult:
    return DetectionResult(
        power=power, delays_s=np.arange(config.code_length) * config.chip_time,
        dopplers_hz=_doppler_axis(power.shape[0], config.block_time),
        targets=targets)


def _pmcw_detect(data: np.ndarray, code_spec: np.ndarray, config,
                 schedule, est: EstimatorConfig) -> tuple:
    """(power maps, targets per CPI) of a (CPIs, M, L, N_r) data stack,
    from its radar-only frames."""
    if not schedule.identifiable:
        raise NonIdentifiableError(
            "no radar-only frames: delay/Doppler cannot be separated from "
            "unknown data symbols at mu = 0")
    idx = np.flatnonzero(schedule.is_radar)
    nd = idx.size * est.doppler_pad
    dopp = np.fft.ifft(_pmcw_correlate(
        data[:, idx], np.ones((len(data), idx.size), dtype=complex),
        code_spec), n=nd, axis=1)
    dopp *= nd
    return _map_targets(dopp, est,
                        _pmcw_layout(config, idx.size, est.doppler_pad))


def pmcw_range_doppler(cube: PmcwCube, code: CodeSequence,
                       est: EstimatorConfig | None = None) -> DetectionResult:
    """Detect targets from the radar-only frames of a CPI.

    The radar frames form the leading contiguous block of the schedule;
    with none present the delay/Doppler map is not identifiable from
    unknown data symbols and this raises.
    """
    power, targets = _pmcw_detect(cube.data[None], np.fft.fft(code.chips()),
                                  cube.config, cube.schedule,
                                  est or EstimatorConfig())
    return _pmcw_result(power[0], cube.config, targets[0])


def _pmcw_windows(data: np.ndarray, code_spec: np.ndarray, config,
                  symbols: np.ndarray, est: EstimatorConfig):
    """(pad-1 power maps, fine-grid windows, layout) of the PMCW
    refinements of a (CPIs, M, L, N_r) data stack with (CPIs, M) symbols."""
    m_count = config.n_frames
    corr = _pmcw_correlate(data, symbols, code_spec)
    seed_power = np.abs(np.fft.ifft(corr, axis=1) * m_count)
    seed_power **= 2
    seed_power = seed_power.sum(axis=3)
    lay = _pmcw_layout(config, m_count, est.doppler_pad)

    def beams_at(owner, dopplers, lags):
        picked = corr[owner[:, None, None], np.arange(m_count)[:, None],
                      lags[:, None, :]]
        n, _, n_lags, n_rx = picked.shape
        zoom = np.matmul(_dft(m_count, lay.shape[0], +1.0)[dopplers],
                         picked.reshape(n, m_count, n_lags * n_rx))
        return zoom.reshape(n, dopplers.shape[1], n_lags, n_rx)

    return seed_power, _refine_windows(seed_power, beams_at,
                                       (est.doppler_pad, 1), est, lay), lay


def pmcw_refine(cube: PmcwCube, code: CodeSequence, symbols,
                est: EstimatorConfig) -> DetectionResult:
    """Re-estimate over all frames with every symbol treated as known.

    The Doppler grid is ``est.doppler_pad`` times finer than the frame
    count, evaluated only around the pad-1 map's peaks; the lag axis is
    the unpadded code correlation.
    """
    symbols = np.asarray(symbols, dtype=complex)
    if symbols.size != cube.config.n_frames:
        raise ValueError("need one symbol per frame")
    power, targets = _refined(_pmcw_windows(
        cube.data[None], np.fft.fft(code.chips()), cube.config,
        symbols.reshape(1, -1), est), est)
    return _pmcw_result(power[0], cube.config, targets[0])


def _pmcw_basis(config, chips: np.ndarray, target: TargetEstimate,
                m_indices: np.ndarray):
    """Noiseless unit-amplitude response of one target on given frames."""
    return _pmcw_response(config, np.roll(chips, target.delay_bin),
                          target.doppler_hz, target.angle_rad, m_indices)


def _pmcw_demodulate(data: np.ndarray, chips: np.ndarray, config, schedule,
                     targets, order: int) -> tuple:
    """(bits, symbol estimates, full symbol vectors) of a (CPIs, M, L, N_r)
    data stack, each row demodulated against its own ``targets`` entry.

    The amplitude fit is one least-squares solve per CPI; projection and
    DPSK decoding run on the whole stack.
    """
    if not all(targets):
        raise DecodingError("no detected targets to demodulate against")
    if schedule.n_radar == 0:
        raise DecodingError("no radar-only frames to anchor amplitudes and "
                            "the differential reference")
    radar_idx = np.flatnonzero(schedule.is_radar)
    comm_idx = np.flatnonzero(~schedule.is_radar)
    n_cpi = len(data)

    full = np.ones((n_cpi, schedule.n_frames), dtype=complex)
    if comm_idx.size == 0:
        return (np.zeros((n_cpi, 0), dtype=np.int64),
                np.zeros((n_cpi, 0), dtype=complex), full)

    # Radar frames carry the symbol 1; the last one is the DPSK reference.
    proj = _project(data, partial(_pmcw_basis, config, chips), targets,
                    radar_idx, np.ones((n_cpi, radar_idx.size, 1, 1),
                                       dtype=complex), comm_idx, (2, 3))
    bits = dpsk_decode(np.concatenate(
        [np.ones((n_cpi, 1), dtype=complex), proj], axis=1), order)
    full[:, comm_idx] = dpsk_encode(bits, order)[:, 1:]
    return bits, proj, full


def pmcw_decode(cube: PmcwCube, code: CodeSequence, targets, order: int = 2):
    """Demodulate the data frames against the reconstructed target response.

    Returns (bits, symbol_estimates, full_symbol_vector) where the full
    vector holds the known radar symbols (all 1) followed by the re-encoded
    hard decisions, ready to hand to :func:`pmcw_refine`.
    """
    bits, proj, full = _pmcw_demodulate(cube.data[None], code.chips(),
                                        cube.config, cube.schedule,
                                        [targets], order)
    return bits[0], proj[0], full[0]


# ---------------------------------------------------------------------------
# Multicarrier (subcarrier-domain) estimation
# ---------------------------------------------------------------------------


def _ofdma_layout(config, n_rows: int, nr: int, shape) -> _MapLayout:
    """(delay, Doppler) map layout over an nr-point delay FFT.

    The delay axis wraps when the map spans the whole nr-point IFFT
    period, as it does at pilot comb 1 and in refinement.
    """
    df = config.subcarrier_spacing_hz
    return _MapLayout(shape=shape, delay_axis=0, wrap=(shape[0] == nr, True),
                      phase_sign=+1.0, n_known=n_rows * config.n_symbols,
                      delay_of=lambda b: b / (nr * df),
                      period=config.symbol_duration,
                      spacing=config.geometry.spacing_over_lambda)


def _ofdma_map(x: np.ndarray, nr: int, window: int, nd: int) -> np.ndarray:
    """Per-element delay/Doppler maps of a (CPIs, N_c, N_s, N_r) stack:
    subcarrier IFFT, then slow-time FFT."""
    prof = np.fft.ifft(x, n=nr, axis=1) * nr
    return np.fft.fft(prof[:, :window], n=nd, axis=2)


def _ofdma_result(power, config, nr: int, targets) -> DetectionResult:
    return DetectionResult(
        power=power,
        delays_s=np.arange(power.shape[0]) / (nr * config.subcarrier_spacing_hz),
        dopplers_hz=_doppler_axis(power.shape[1], config.symbol_duration),
        targets=targets)


def _ofdma_detect(data: np.ndarray, symbols: np.ndarray, radar_rows, config,
                  est: EstimatorConfig) -> tuple:
    """(power maps, targets per CPI) of a (CPIs, N_c, N_s, N_r) data stack
    with (CPIs, N_c, N_s) symbol grids, from the pilot rows."""
    if not radar_rows.any():
        raise NonIdentifiableError(
            "no radar-pilot subcarriers: range cannot be separated from "
            "unknown data symbols at mu = 0")
    rows = np.flatnonzero(radar_rows)
    x = np.zeros_like(data)
    x[:, rows] = data[:, rows] * np.conj(symbols[:, rows])[..., None]
    nr = config.n_subcarriers * est.range_pad
    window = max(nr // pilot_comb_spacing(radar_rows), 1)
    v = _ofdma_map(x, nr, window, config.n_symbols * est.doppler_pad)
    return _map_targets(v, est,
                        _ofdma_layout(config, rows.size, nr, v.shape[1:3]))


def ofdma_range_doppler_angle(cube: OfdmaCube, grid: SymbolGrid,
                              est: EstimatorConfig | None = None
                              ) -> DetectionResult:
    """Detect targets from the radar-pilot subcarriers of a CPI.

    Range search is limited to the pilot comb's unambiguous window
    N_c/spacing bins; with no pilot rows the range/symbol coupling makes
    the problem non-identifiable.
    """
    est = est or EstimatorConfig()
    power, targets = _ofdma_detect(cube.data[None], grid.symbols[None],
                                   grid.radar_rows, cube.config, est)
    return _ofdma_result(power[0], cube.config,
                         cube.config.n_subcarriers * est.range_pad,
                         targets[0])


def _ofdma_windows(data: np.ndarray, symbols: np.ndarray, config,
                   est: EstimatorConfig):
    """(pad-1 power maps, fine-grid windows, layout) of the OFDMA
    refinements of a (CPIs, N_c, N_s, N_r) stack with its symbol grids."""
    n_c, n_s = config.n_subcarriers, config.n_symbols
    x = data * np.conj(symbols)[..., None]
    seed_power = np.sum(np.abs(_ofdma_map(x, n_c, n_c, n_s)) ** 2, axis=3)
    nr, nd = n_c * est.range_pad, n_s * est.doppler_pad
    lay = _ofdma_layout(config, n_c, nr, (nr, nd))

    def beams_at(owner, delays, dopplers):
        # CPI by CPI (owner is sorted), so that only one CPI's delay zoom
        # is held at a time: one product over all its windows.
        delay_dft, doppler_dft = _dft(n_c, nr, +1.0), _dft(n_s, nd, -1.0)
        ends = np.searchsorted(owner, np.arange(len(x) + 1))
        beams = np.empty((owner.size, delays.shape[1], dopplers.shape[1],
                          x.shape[3]), dtype=complex)
        for cpi, lo, hi in zip(x, ends[:-1], ends[1:]):
            prof = np.tensordot(delay_dft[delays[lo:hi]], cpi, axes=1)
            np.matmul(doppler_dft[dopplers[lo:hi]][:, None], prof,
                      out=beams[lo:hi])
        return beams

    return seed_power, _refine_windows(
        seed_power, beams_at, (est.range_pad, est.doppler_pad), est, lay), lay


def ofdma_refine(cube: OfdmaCube, symbols: np.ndarray,
                 est: EstimatorConfig) -> DetectionResult:
    """Re-estimate over the full grid with all symbols treated as known.

    The delay and Doppler grids are ``est.range_pad`` and
    ``est.doppler_pad`` times finer, evaluated only around the pad-1 map's
    peaks.
    """
    symbols = np.asarray(symbols, dtype=complex)
    if symbols.shape != (cube.config.n_subcarriers, cube.config.n_symbols):
        raise ValueError("need the full N_c x N_s symbol matrix")
    power, targets = _refined(_ofdma_windows(cube.data[None], symbols[None],
                                             cube.config, est), est)
    return _ofdma_result(power[0], cube.config, cube.config.n_subcarriers,
                         targets[0])


def _ofdma_basis(config, target: TargetEstimate, rows: np.ndarray):
    """Noiseless unit-amplitude, unit-symbol response on given subcarriers."""
    return _ofdma_response(config, target.delay_s, target.doppler_hz,
                           target.angle_rad, rows)


def ofdma_estimate_amplitudes(cube: OfdmaCube, grid: SymbolGrid, targets,
                              rows=None) -> np.ndarray:
    """Least-squares target amplitudes from rows with known symbols."""
    if not targets:
        raise ValueError("no targets to fit")
    rows = np.flatnonzero(grid.radar_rows) if rows is None \
        else np.asarray(rows, dtype=int)
    return _fit(cube.data, partial(_ofdma_basis, cube.config), targets, rows,
                grid.symbols[rows][:, :, None])


def _ofdma_demodulate(data: np.ndarray, symbols: np.ndarray, radar_rows,
                      config, targets, order: int) -> tuple:
    """(bits, symbol estimates, full symbol grids) of a (CPIs, N_c, N_s,
    N_r) data stack, each row demodulated against its own ``targets``.

    The amplitude fit is one least-squares solve per CPI; projection and
    DPSK decoding run on the whole stack.
    """
    if not all(targets):
        raise DecodingError("no detected targets to demodulate against")
    if not radar_rows.any():
        raise DecodingError("no pilot rows to anchor the target amplitudes")
    comm_rows = np.flatnonzero(~radar_rows)
    n_cpi, n_s = len(data), config.n_symbols
    full = symbols.copy()
    if comm_rows.size == 0:
        return (np.zeros((n_cpi, 0), dtype=np.int64),
                np.zeros((n_cpi, 0, n_s), dtype=complex), full)

    pilot_rows = np.flatnonzero(radar_rows)
    proj = _project(data, partial(_ofdma_basis, config), targets, pilot_rows,
                    symbols[:, pilot_rows, :, None], comm_rows, 3)
    bits = dpsk_decode(proj.reshape(-1, n_s), order)
    full[:, comm_rows] = dpsk_encode(bits, order).reshape(
        n_cpi, comm_rows.size, n_s)
    return bits.reshape(n_cpi, -1), proj, full


def ofdma_decode(cube: OfdmaCube, grid: SymbolGrid, targets):
    """Demodulate the data subcarriers against the reconstructed response.

    Returns (bits, symbol_estimates, full_symbol_matrix); the matrix holds
    pilot rows as transmitted plus the re-encoded hard decisions, ready for
    :func:`ofdma_refine`.
    """
    bits, proj, full = _ofdma_demodulate(cube.data[None], grid.symbols[None],
                                         grid.radar_rows, cube.config,
                                         [targets], grid.order)
    return bits[0], proj[0], full[0]


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
