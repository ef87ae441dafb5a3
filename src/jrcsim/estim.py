"""Receive-side parameter estimation, symbol decoding and refinement.

Both waveforms follow the same recipe on their data cubes: remove the
known modulation, take a 2-D DFT to a delay/Doppler map, pick the
largest local maxima, then read the angle off a beamspace FFT across the
array.  One map pipeline, ``_detect`` then ``_windows``, serves both,
and a waveform supplies only a demodulation ``demod(data, symbols)``
and a layout ``layout(known, est)``: the PMCW code correlation, whose
lag axis is already in the map domain (DFT sign 0), and a slow-time
IDFT (sign +1); or the OFDMA symbol de-rotation, a subcarrier IDFT
(+1) and a symbol DFT (-1).  Detection maps slots 0 to the last known
(radar) slot, the comm slots among them zeroed: for PMCW's leading
radar block these are the radar frames alone, for an OFDMA pilot comb
the zero-filled pilot grid.

The estimators run on stacks of CPIs with a leading axis (the trials of
a sweep point); the public single-CPI functions are stacks of one.  Peak
picking stays per CPI: each map's threshold is relative to its own
strongest cell.  The targets at the picked cells of a whole stack are
then read in one array pass (``_window_targets``).

Symbol decoding is one demodulator for both waveforms, ``_demodulate``:
it projects each data-bearing slot onto the reconstructed multi-target
response (amplitudes re-fitted by least squares on the known slots) and
differentially decodes the projections.  A target's response is the
waveform's own bound receive model, ``pmcw._pmcw_response`` or
``ofdma._ofdma_response``, evaluated at its estimates, for all targets
of a stack in one call.  The DPSK layout is the only per-waveform step:
PMCW runs one chain across the comm frames, referenced to the last radar
frame's symbol 1 (``_pmcw_dpsk``); OFDMA runs one chain per comm row
along its symbols (``_ofdma_dpsk``).

Refinement re-runs detection over every slot with the decoded symbols
treated as known.  It reuses detection's demodulation of the radar
slots, which ``_detect`` returns, and demodulates only the comm slots,
with the decoded symbols (``_demodulated``), so each slot of a stack is
demodulated once.  It forms the unpadded (pad-1) map of all slots, the
layout at unit pads, and evaluates the finer zero-padded grid only in a
window around each seed cell of that map above the threshold (a local
peak, or on a padded axis a rising flank, beside which a fine peak
between two unpadded bins may lie): +-1 unpadded bin plus a one-cell
guard ring, so (2 * pad + 3) cells per padded axis.  A signed axis is
zoomed with small explicit DFT matrices (a chirp-z style zoom); a
sign-0 axis is read at the window's bins.  A refinement costs the pad-1
map plus O(peaks * window cells * slots), instead of an FFT over, and a
peak scan of, the whole padded plane; a fine-grid peak outside every
window is not found.

True super-resolution recovery is out of scope.  The stand-in is the
zero-padded periodogram with optional three-point parabolic peak
interpolation (``EstimatorConfig.interpolate``); estimates are grid values
or the interpolated offsets thereof, nothing sharper.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial
from itertools import starmap
from typing import Callable

import numpy as np

from .channel import ReceiveCube
from .ofdma import SymbolGrid, _ofdma_response, pilot_comb_spacing
from .pmcw import _pmcw_response, pmcw_schedule
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
    ``range_pad`` pads only the OFDMA delay axis, as PMCW's delay axis is
    the unpadded code lag, coarse and refined alike.  ``threshold_db`` is
    relative to the strongest map cell and must be negative (-inf keeps
    every local maximum; NaN is rejected).  Pads and ``max_targets`` must
    be integers; integral floats are stored as ints.
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
        if not self.threshold_db < 0:
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

    ``power`` is the waveform layout's map summed noncoherently over the
    array: (Doppler, lag) bins for PMCW, (delay window, Doppler) bins for
    OFDMA; the axis vectors carry physical units.  A refined result
    carries the unpadded (pad-1) map its windows were seeded on.
    """

    power: np.ndarray
    delays_s: np.ndarray
    dopplers_hz: np.ndarray
    targets: tuple


@dataclass(frozen=True)
class _MapLayout:
    """Axis conventions of one delay/Doppler map.

    Map axis a is axis a + 1 of a demodulated (CPIs, slots, samples, N_r)
    stack.  ``signs[a]`` is its DFT sign (+1 an inverse DFT times its
    length, -1 a forward DFT, 0 an axis already in the map domain),
    ``lengths[a]`` the padded DFT length, and ``shape`` the part kept.
    ``delay_of`` maps a fractional delay bin to seconds, ``period`` is
    the slow-time sample spacing, ``n_known`` the count of known samples.
    """

    shape: tuple
    signs: tuple
    lengths: tuple
    delay_axis: int
    wrap: tuple
    phase_sign: float
    n_known: int
    delay_of: Callable[[float], float]
    period: float
    spacing: float


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
    """Largest local maxima of a 1-d profile's magnitude (no wrap)."""
    p = np.asarray(np.abs(profile), dtype=float)
    if p.ndim != 1:
        raise ValueError(f"profile must be 1-d, got {p.ndim}-d")
    bins, power, owner = _whole_map(p[None, None, :] ** 2, (False, False))
    return [int(bins[1][0, c]) for _, _, c in
            _peak_cells(bins, power, owner, 1, max_peaks, threshold_db)[0]]


def _dft(n_in: int, n_out: int, sign: float) -> np.ndarray:
    """The (n_out, n_in) n_out-point DFT matrix over n_in inputs; a stack
    of refinement windows takes its rows by fine bin."""
    roots = np.exp(sign * 2j * np.pi * np.arange(n_out) / n_out)
    return roots[np.arange(n_out)[:, None] * np.arange(n_in) % n_out]


def _window_targets(windows, n_maps: int, est: EstimatorConfig,
                    lay: _MapLayout) -> list:
    """Per map, the targets at the strongest peaks of its blocks;
    ``windows`` is (bins, power, beams, owner).

    Every picked cell of the stack is read in one pass.  Its snapshot
    across the array goes through one beamspace FFT, ``angle_pad`` times
    zero-padded, whose kernel matches the sign of the layout's steering
    exponent (+1 multicarrier, -1 continuous wave); the strongest beam
    gives the angle.  With ``interpolate`` a parabolic offset refines the
    beam and both map bins; at the edge of a non-wrapping axis the guard
    ring's -inf leaves the bin as it is.  The amplitude is the snapshot
    matched to the steering at the angle, per array element and known
    sample.  The targets hold Python scalars.
    """
    bins, power, beams, owner = windows
    cells = _peak_cells(bins, power, owner, n_maps, est.max_targets,
                        est.threshold_db)
    w, r, c = np.array([cell for picked in cells for cell in picked],
                       dtype=np.intp).reshape(-1, 3).T
    if w.size == 0:
        return [() for _ in cells]
    snapshots = beams[w, r, c]
    n_rx = snapshots.shape[1]
    na = n_rx * est.angle_pad
    if lay.phase_sign < 0:
        spectrum = np.fft.ifft(snapshots, n=na, axis=1) * na
    else:
        spectrum = np.fft.fft(snapshots, n=na, axis=1)
    mags = np.abs(spectrum) ** 2
    beam = mags.argmax(axis=1)
    beam_off = row_off = col_off = 0.0
    if est.interpolate:
        if na >= 3:
            k = np.arange(w.size)
            beam_off = _parabolic_offsets(mags[k, (beam - 1) % na],
                                          mags[k, beam],
                                          mags[k, (beam + 1) % na])
        row_off = _parabolic_offsets(power[w, r - 1, c], power[w, r, c],
                                     power[w, r + 1, c])
        col_off = _parabolic_offsets(power[w, r, c - 1], power[w, r, c],
                                     power[w, r, c + 1])
    beam = _wrap_bin(beam, na)
    angle = np.arcsin(np.clip((beam + beam_off) / (na * lay.spacing),
                              -1.0, 1.0))
    steer = np.exp(lay.phase_sign * 2j * np.pi * lay.spacing
                   * np.sin(angle)[:, None] * np.arange(n_rx))
    amplitude = np.matmul(snapshots[:, None, :],
                          np.conj(steer)[:, :, None])[:, 0, 0] \
        / (n_rx * lay.n_known)
    axes = ((bins[0][w, r], row_off), (bins[1][w, c], col_off))
    da, ka = lay.delay_axis, 1 - lay.delay_axis
    (delay, delay_off), (doppler, doppler_off) = axes[da], axes[ka]
    nd = lay.shape[ka]
    doppler = _wrap_bin(doppler, nd)
    targets = starmap(TargetEstimate, zip(
        lay.delay_of(delay + delay_off).tolist(),
        ((doppler + doppler_off) / (nd * lay.period)).tolist(),
        angle.tolist(), amplitude.tolist(), delay.tolist(),
        doppler.tolist(), beam.tolist(), power[w, r, c].tolist()))
    return [tuple(next(targets) for _ in picked) for picked in cells]


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


def _map(x: np.ndarray, lay: _MapLayout) -> np.ndarray:
    """Per-element maps of a demodulated (CPIs, slots, samples, N_r) stack:
    each signed axis transformed at its length, then cut to the shape."""
    for axis, (sign, n, keep) in enumerate(zip(lay.signs, lay.lengths,
                                               lay.shape), start=1):
        if sign > 0:
            x = np.fft.ifft(x, n=n, axis=axis)
            x *= n
        elif sign < 0:
            x = np.fft.fft(x, n=n, axis=axis)
        x = x[:, :keep] if axis == 1 else x[:, :, :keep]
    return x


def _power(beams: np.ndarray) -> np.ndarray:
    """Power summed noncoherently over the array elements (the last axis)."""
    power = np.abs(beams)
    power **= 2
    return power.sum(axis=-1)


def _result(stack, lay: _MapLayout) -> DetectionResult:
    """The result of a stack of one CPI's (power maps, targets), with the
    physical axes of ``lay`` (Doppler bins in fftfreq order)."""
    (power,), (targets,) = stack
    da, nd = lay.delay_axis, power.shape[1 - lay.delay_axis]
    return DetectionResult(
        power=power, delays_s=lay.delay_of(np.arange(power.shape[da])),
        dopplers_hz=_wrap_bin(np.arange(nd), nd) / (nd * lay.period),
        targets=targets)


def _detect(data: np.ndarray, symbols: np.ndarray, known, demod, layout,
            est: EstimatorConfig) -> tuple:
    """(power maps, targets per CPI, demodulated known slots) of a stack
    of CPIs from its ``known`` slots, demodulated by ``demod`` and mapped
    at their slot indices: the unknown slots before the last known one
    are zeros, like the padding."""
    if not known.any():
        raise NonIdentifiableError(
            "no radar slots: delay and Doppler cannot be separated from "
            "unknown data symbols at mu = 0")
    rows, lay = np.flatnonzero(known), layout(known, est)
    x = demod(data[:, rows], symbols[:, rows])
    padded = x
    if rows.size < lay.lengths[0]:
        padded = np.zeros((len(x), lay.lengths[0]) + x.shape[2:],
                          dtype=complex)
        padded[:, rows] = x
    beams = _map(padded, lay)
    power = _power(beams)
    bins, guarded, owner = _whole_map(power, lay.wrap)
    return power, _window_targets(
        (bins, guarded, _gather(beams, bins, owner), owner), len(power),
        est, lay), x


def _demodulated(data: np.ndarray, symbols: np.ndarray, known,
                 known_x: np.ndarray, demod) -> np.ndarray:
    """A stack of CPIs demodulated on every slot: on the ``known`` slots
    ``known_x``, as ``_detect`` demodulated them, and on the others
    ``demod`` of the data with its ``symbols``."""
    if known.all():
        return known_x
    comm = ~known
    x = np.empty(data.shape, dtype=complex)
    x[:, known] = known_x
    x[:, comm] = demod(data[:, comm], symbols[:, comm])
    return x


def _zoom(x: np.ndarray, owner: np.ndarray, bins,
          lay: _MapLayout) -> np.ndarray:
    """Fine per-element map of demodulated CPI ``owner[w]`` at window w's
    true bins (a -1 bin may read anything).

    Signed axes are zoomed with ``_dft`` rows.  A sign-0 second axis is
    gathered at the window bins, which leaves one block per window and
    one product over them all; otherwise the zoom runs CPI by CPI
    (``owner`` is sorted), holding one CPI's first-axis zoom at a time.
    """
    dfts = [_dft(n_in, n, sign) if sign else None for n_in, n, sign
            in zip(x.shape[1:3], lay.lengths, lay.signs)]
    if dfts[1] is None:
        picked = x[owner[:, None, None], np.arange(x.shape[1])[:, None],
                   bins[1][:, None, :]]
        n, m_count, n_lags, n_rx = picked.shape
        zoom = np.matmul(dfts[0][bins[0]],
                         picked.reshape(n, m_count, n_lags * n_rx))
        return zoom.reshape(n, bins[0].shape[1], n_lags, n_rx)
    ends = np.searchsorted(owner, np.arange(len(x) + 1))
    beams = np.empty((owner.size, bins[0].shape[1], bins[1].shape[1],
                      x.shape[3]), dtype=complex)
    for cpi, lo, hi in zip(x, ends[:-1], ends[1:]):
        prof = np.tensordot(dfts[0][bins[0][lo:hi]], cpi, axes=1)
        np.matmul(dfts[1][bins[1][lo:hi]][:, None], prof, out=beams[lo:hi])
    return beams


# A layout reads only the pads of an EstimatorConfig; the default has all 1.
_UNIT_PADS = EstimatorConfig()


def _windows(x: np.ndarray, layout, est: EstimatorConfig) -> tuple:
    """(pad-1 power maps, fine-grid windows, layout) of the refinements of
    a stack of CPIs demodulated on every slot, all of them known.

    The seed maps are ``layout`` at unit pads; a fine axis's pad is its
    length over theirs.  Seeds are ``_seed_cells``: seed bin s maps to
    fine bin s * pad, and its window, +-pad fine bins (+-1 seed bin) plus
    the guard ring, is evaluated by ``_zoom``.  The windows are (bins,
    power, beams, owner).
    """
    known = np.ones(x.shape[1], dtype=bool)
    unit, lay = layout(known, _UNIT_PADS), layout(known, est)
    seed_power = _power(_map(x, unit))
    pads = [f // u for f, u in zip(lay.shape, unit.shape)]
    seeds = _seed_cells(seed_power, pads, lay.wrap, est.threshold_db)
    owner = seeds[:, 0]
    bins = tuple(_bins(seeds[:, [a + 1]] * p + np.arange(-p - 1, p + 2), n, w)
                 for a, (p, n, w) in enumerate(zip(pads, lay.shape,
                                                   lay.wrap)))
    beams = _zoom(x, owner, bins, lay)
    return seed_power, (bins, _guard(_power(beams), bins), beams, owner), lay


def _refined(refinement, est: EstimatorConfig) -> tuple:
    """(pad-1 power maps, targets per CPI) of a stack's refinements, from
    its (pad-1 power maps, fine-grid windows, layout)."""
    power, windows, lay = refinement
    return power, _window_targets(windows, len(power), est, lay)


def _fit(data: np.ndarray, bases, slots: np.ndarray,
         symbols: np.ndarray) -> np.ndarray:
    """Least-squares amplitudes in one CPI's data over the known ``slots``.

    Fits d in y = sum_q d_q * symbols * bases[q], where ``bases[q]`` is
    target q's unit response on the slots and ``symbols`` (broadcast
    against it) are the symbols they carry.
    """
    a_mat = np.stack([(symbols * basis).ravel() for basis in bases], axis=1)
    d_hat, *_ = np.linalg.lstsq(a_mat, data[slots].ravel(), rcond=None)
    return d_hat


def _demodulate(data: np.ndarray, symbols: np.ndarray, radar, response,
                targets, order: int, dpsk) -> tuple:
    """(bits, symbol estimates, full symbols) of a stack of CPIs, each
    demodulated against its own ``targets`` entry.

    ``symbols`` covers the leading cube axes of ``data``, (CPIs, slots)
    or (CPIs, slots, samples); only its ``radar`` slots are read.  The
    unit response ``response(delay_s, doppler_hz, angle_rad, slots)`` of
    every target of the stack is evaluated at its estimates in one call,
    the parameters stacked along a leading axis, over the radar and the
    data slots.  Per CPI, its targets' amplitudes are fitted by least
    squares on the radar slots and the response they give is rebuilt on
    the data slots; each data sample is projected onto it, summed over
    the remaining axes.  ``dpsk(projections, order)`` decodes the stack's
    projections into (bits, re-encoded data-slot symbols), which replace
    the data slots of the full symbols.
    """
    if not all(targets):
        raise DecodingError("no detected targets to demodulate against")
    if not radar.any():
        raise DecodingError("no radar slots to anchor the target amplitudes")
    known, comm = np.flatnonzero(radar), np.flatnonzero(~radar)
    full = symbols.copy()
    if comm.size == 0:
        return np.zeros((len(data), 0), dtype=np.int64), full[:, comm], full

    axes = tuple(range(symbols.ndim, data.ndim))
    known_symbols = np.expand_dims(symbols[:, known], axes)
    received = data[:, comm]
    rebuilt = np.zeros_like(received)
    bases = response(*np.array([(t.delay_s, t.doppler_hz, t.angle_rad)
                                for cpi in targets for t in cpi]).T,
                     np.concatenate([known, comm]))
    start = 0
    for k, cpi in enumerate(targets):
        own = bases[start:start + len(cpi)]
        start += len(cpi)
        d_hat = _fit(data[k], own[:, :known.size], known, known_symbols[k])
        for d_q, basis in zip(d_hat, own[:, known.size:]):
            rebuilt[k] += d_q * basis
    energy = np.sum(np.abs(rebuilt) ** 2, axis=axes)
    if np.any(energy == 0):
        raise DecodingError("reconstructed response has zero energy")
    proj = np.sum(received * np.conj(rebuilt), axis=axes) / energy
    bits, full[:, comm] = dpsk(proj, order)
    return bits, proj, full


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


def _pmcw_layout(config, known, est: EstimatorConfig) -> _MapLayout:
    """(Doppler, lag) map layout over the ``known`` frames, a leading block:
    an inverse slow-time DFT padded ``doppler_pad`` times, and the code
    correlation's unpadded lag axis."""
    m_count = int(np.count_nonzero(known))
    l_count, t_c = config.code_length, config.chip_time
    shape = (m_count * est.doppler_pad, l_count)
    return _MapLayout(shape=shape, signs=(1, 0), lengths=shape, delay_axis=1,
                      wrap=(True, True), phase_sign=-1.0,
                      n_known=l_count * m_count, delay_of=lambda b: b * t_c,
                      period=config.block_time,
                      spacing=config.geometry.spacing_over_lambda)


def pmcw_range_doppler(cube: ReceiveCube, code: CodeSequence,
                       est: EstimatorConfig | None = None) -> DetectionResult:
    """Detect targets from the radar-only frames of a CPI.

    The radar frames form the leading contiguous block of the schedule;
    with none present the delay/Doppler map is not identifiable from
    unknown data symbols and this raises.
    """
    est, radar = est or EstimatorConfig(), pmcw_schedule(cube.config)
    layout = partial(_pmcw_layout, cube.config)
    return _result(_detect(
        cube.data[None], np.ones((1, radar.size), dtype=complex), radar,
        partial(_pmcw_correlate, code_spec=np.fft.fft(code.chips())), layout,
        est)[:2], layout(radar, est))


def pmcw_refine(cube: ReceiveCube, code: CodeSequence, symbols,
                est: EstimatorConfig) -> DetectionResult:
    """Re-estimate over all frames with every symbol treated as known.

    The Doppler grid is ``est.doppler_pad`` times finer than the frame
    count, evaluated only around the pad-1 map's peaks; the lag axis is
    the unpadded code correlation.
    """
    symbols = np.asarray(symbols, dtype=complex)
    if symbols.size != cube.config.n_frames:
        raise ValueError("need one symbol per frame")
    layout = partial(_pmcw_layout, cube.config)
    x = _pmcw_correlate(cube.data[None], symbols.reshape(1, -1),
                        np.fft.fft(code.chips()))
    return _result(_refined(_windows(x, layout, est), est),
                   layout(np.ones(symbols.size, dtype=bool), _UNIT_PADS))


def _pmcw_dpsk(proj: np.ndarray, order: int) -> tuple:
    """One DPSK chain across the comm frames of each CPI, referenced to
    the last radar frame's symbol 1."""
    bits = dpsk_decode(np.concatenate(
        [np.ones((len(proj), 1), dtype=complex), proj], axis=1), order)
    return bits, dpsk_encode(bits, order)[:, 1:]


def pmcw_decode(cube: ReceiveCube, code: CodeSequence, targets,
                order: int = 2):
    """Demodulate the data frames against the reconstructed target response.

    Returns (bits, symbol_estimates, full_symbol_vector) where the full
    vector holds the known radar symbols (all 1) followed by the re-encoded
    hard decisions, ready to hand to :func:`pmcw_refine`.
    """
    config = cube.config
    bits, proj, full = _demodulate(
        cube.data[None], np.ones((1, config.n_frames), dtype=complex),
        pmcw_schedule(config),
        partial(_pmcw_response, config, np.fft.fft(code.chips())), [targets],
        order, _pmcw_dpsk)
    return bits[0], proj[0], full[0]


# ---------------------------------------------------------------------------
# Multicarrier (subcarrier-domain) estimation
# ---------------------------------------------------------------------------


def _ofdma_derotate(data: np.ndarray, symbols: np.ndarray) -> np.ndarray:
    """A (CPIs, rows, N_s, N_r) stack with its unit-modulus symbols
    divided out."""
    return data * np.conj(symbols)[..., None]


def _ofdma_layout(config, known, est: EstimatorConfig) -> _MapLayout:
    """(delay, Doppler) map layout over the ``known`` rows: a subcarrier
    IDFT padded ``range_pad`` times, cut to the pilot comb's unambiguous
    window (the whole wrapping period at comb 1 and in refinement), then
    a symbol DFT padded ``doppler_pad`` times."""
    df = config.subcarrier_spacing_hz
    nr = config.n_subcarriers * est.range_pad
    nd = config.n_symbols * est.doppler_pad
    window = max(nr // pilot_comb_spacing(known), 1)
    return _MapLayout(shape=(window, nd), signs=(1, -1), lengths=(nr, nd),
                      delay_axis=0, wrap=(window == nr, True), phase_sign=+1.0,
                      n_known=int(np.count_nonzero(known)) * config.n_symbols,
                      delay_of=lambda b: b / (nr * df),
                      period=config.symbol_duration,
                      spacing=config.geometry.spacing_over_lambda)


def ofdma_range_doppler_angle(cube: ReceiveCube, grid: SymbolGrid,
                              est: EstimatorConfig | None = None
                              ) -> DetectionResult:
    """Detect targets from the radar-pilot subcarriers of a CPI.

    Range search is limited to the pilot comb's unambiguous window
    N_c/spacing bins; with no pilot rows the range/symbol coupling makes
    the problem non-identifiable.
    """
    est = est or EstimatorConfig()
    layout = partial(_ofdma_layout, cube.config)
    return _result(_detect(cube.data[None], grid.symbols[None],
                           grid.radar_rows, _ofdma_derotate, layout, est)[:2],
                   layout(grid.radar_rows, est))


def ofdma_refine(cube: ReceiveCube, symbols: np.ndarray,
                 est: EstimatorConfig) -> DetectionResult:
    """Re-estimate over the full grid with all symbols treated as known.

    The delay and Doppler grids are ``est.range_pad`` and
    ``est.doppler_pad`` times finer, evaluated only around the pad-1 map's
    peaks.
    """
    symbols = np.asarray(symbols, dtype=complex)
    if symbols.shape != (cube.config.n_subcarriers, cube.config.n_symbols):
        raise ValueError("need the full N_c x N_s symbol matrix")
    layout = partial(_ofdma_layout, cube.config)
    x = _ofdma_derotate(cube.data[None], symbols[None])
    return _result(_refined(_windows(x, layout, est), est),
                   layout(np.ones(len(symbols), dtype=bool), _UNIT_PADS))


def ofdma_estimate_amplitudes(cube: ReceiveCube, grid: SymbolGrid, targets,
                              rows=None) -> np.ndarray:
    """Least-squares target amplitudes from rows with known symbols."""
    if not targets:
        raise ValueError("no targets to fit")
    rows = np.flatnonzero(grid.radar_rows) if rows is None \
        else np.asarray(rows, dtype=int)
    return _fit(cube.data, [_ofdma_response(cube.config, t.delay_s,
                                            t.doppler_hz, t.angle_rad, rows)
                            for t in targets],
                rows, grid.symbols[rows][:, :, None])


def _ofdma_dpsk(proj: np.ndarray, order: int) -> tuple:
    """One DPSK chain per comm row of each CPI, along its symbols."""
    bits = dpsk_decode(proj.reshape(-1, proj.shape[2]), order)
    return (bits.reshape(len(proj), -1),
            dpsk_encode(bits, order).reshape(proj.shape))


def ofdma_decode(cube: ReceiveCube, grid: SymbolGrid, targets):
    """Demodulate the data subcarriers against the reconstructed response.

    Returns (bits, symbol_estimates, full_symbol_matrix); the matrix holds
    pilot rows as transmitted plus the re-encoded hard decisions, ready for
    :func:`ofdma_refine`.
    """
    bits, proj, full = _demodulate(
        cube.data[None], grid.symbols[None], grid.radar_rows,
        partial(_ofdma_response, cube.config), [targets], grid.order,
        _ofdma_dpsk)
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
