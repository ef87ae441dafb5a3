"""Receive-side parameter estimation, symbol decoding and refinement.

Every waveform follows the same recipe on its data cubes: remove the
known modulation, take a 2-D DFT to a delay/Doppler map, pick the
largest local maxima, then scan the array manifold's beams for the
angle.  One map pipeline, ``_detect`` then ``_refined``, serves all, and
a waveform supplies only a demodulation ``demod(data, symbols)`` and a
layout ``layout(known, est)``: the PMCW code correlation, whose lag axis
is already in the map domain (DFT sign 0), and a slow-time IDFT (sign
+1), which a Golay sounding shares with its CEF as the code; or the
OFDMA symbol de-rotation, a subcarrier IDFT (+1) and a symbol DFT (-1).
Detection maps slots 0 to the last known (radar) slot, the comm slots
among them zeroed: for PMCW's leading radar block these are the radar
frames alone, for an OFDMA pilot comb the zero-filled pilot grid.

The estimators run on stacks of CPIs with a leading axis (the trials of
a sweep point); the public single-CPI functions are stacks of one.  Peak
picking stays per CPI: each map's threshold is relative to its own
strongest cell.  One rule, ``_local_maxima``, says which cells qualify,
for detection picks, refinement picks and refinement seeds alike: a cell
that reaches its map's threshold and is >= its neighbours, on both sides
of each axis or, on a flank axis, on one side.  The targets at the
picked cells of a whole stack are then read in one array pass
(``_window_targets``).

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

Refinement, one function ``_refined``, re-runs detection over every
slot with the decoded symbols treated as known.  It reuses detection's
demodulation of the radar slots, which ``_detect`` returns, and
demodulates only the comm slots, with the decoded symbols
(``_demodulated``), so each slot of a stack is demodulated once.  It
forms the unpadded (pad-1) map of all slots, the layout at unit pads,
and evaluates the finer zero-padded grid only in a window around each
seed cell of that map: a local maximum with every padded axis a flank
axis, as a fine peak between two unpadded bins may show there as a
rising flank toward a stronger neighbour.  A window spans +-1 unpadded
bin plus a one-cell guard ring, so (2 * pad + 3) cells per padded axis,
and its bins are computed once per stack.  A signed axis is zoomed with
small explicit DFT matrices (a chirp-z style zoom); a sign-0 axis is
read at the window's bins.  A refinement costs the pad-1 map plus
O(peaks * window cells * slots), instead of an FFT over, and a peak scan
of, the whole padded plane; a fine-grid peak outside every window is not
found.

Where the second axis has sign 0 (PMCW, Golay), most seeds of a random
code sit on its sidelobe lags, and their windows are skipped by an exact
bound.  Every ``_dft`` entry has modulus 1, so no cell of lag l exceeds
A[l] = sum_r (sum_m |x[m, l, r]|)^2.  Each map zooms its ``max_targets``
(K) strongest seeds first; P is the K-th strongest distinct local
maximum their windows hold.  A window whose largest A[l] over its five
lag columns (guard ring included) is below P, less a rounding margin,
is skipped: none of its cells can set the map's threshold reference or
be picked, as K stronger local maxima outrank it.  The windows kept
stay in seed order, so a cell that several share resolves to the same
block.  The windows are then zoomed in slices of whole maps, each of at
most ``_SLICE_CELLS`` window samples; a map's threshold and picks read
only its own windows, so slicing is exact, and it holds refinement's
memory to one slice whatever the stack's length.

True super-resolution recovery is out of scope.  The stand-in is the
zero-padded periodogram with optional three-point parabolic peak
interpolation (``EstimatorConfig.interpolate``); estimates are grid values
or the interpolated offsets thereof, nothing sharper.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cache, partial, reduce
from itertools import islice, starmap
from typing import Callable

import numpy as np

from .channel import ReceiveCube
from .ofdma import SymbolGrid, _ofdma_response, pilot_comb_spacing
from .pmcw import _pmcw_response, pmcw_schedule
from .sigcore import CodeSequence, GolayPair, _integer, _Manifold, \
    _parabolic_offsets, _wrap_bin, dpsk_decode, dpsk_encode


class NonIdentifiableError(ValueError):
    """The multiplex leaves no known slots to estimate from."""


class DecodingError(ValueError):
    """Symbol decoding has nothing to demodulate against."""


@dataclass(frozen=True)
class EstimatorConfig:
    """Grid and detection knobs shared by the estimators.

    Padding factors multiply the FFT lengths of the respective axes;
    ``range_pad`` pads only the OFDMA delay axis, as PMCW's and Golay's
    delay axes are the unpadded code lag, coarse and refined alike; an
    axis over one input is not padded, as its map is flat along it.
    ``threshold_db`` is relative to the strongest map cell and must be
    negative (-inf keeps every local maximum; NaN is rejected).  Pads and
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
    the slow-time sample spacing, ``n_known`` the count of known samples,
    and ``manifold`` the waveform's receive array, whose scan gives the
    angle (``sigcore._Manifold``).
    """

    shape: tuple
    signs: tuple
    lengths: tuple
    delay_axis: int
    wrap: tuple
    manifold: _Manifold
    n_known: int
    delay_of: Callable[[float], float]
    period: float


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


def _side_maxima(x: np.ndarray, axis: int, flank: bool) -> tuple:
    """Maxima along ``axis`` of each inner cell of x with its neighbours:
    on both sides, or, on a flank axis, on the lower and on the upper side
    apart."""
    lower, mid, upper = (x[(slice(None),) * axis
                           + (slice(s, x.shape[axis] - 2 + s),)]
                         for s in range(3))
    down = np.maximum(lower, mid)
    return (down, np.maximum(mid, upper)) if flank \
        else (np.maximum(down, upper),)


def _local_maxima(power: np.ndarray, owner: np.ndarray, n_maps: int,
                  threshold_db: float, flank=(False, False)) -> np.ndarray:
    """Mask of the qualifying inner cells of stacked guarded power blocks.

    A cell qualifies when it reaches the threshold relative to the
    strongest cell of any block of its map and is >= the max of its
    neighbours: on both sides of each axis, or, on a ``flank`` axis, on
    the lower side or on the upper side, diagonals on the compared sides
    included.  Detection and refinement picks take no flank axis, so a
    pick is >= all 8 neighbours; refinement seeds flank each padded axis.
    """
    peak = np.zeros(n_maps)
    np.maximum.at(peak, owner, power.max(axis=(1, 2), initial=0.0))
    inner = power[:, 1:-1, 1:-1]
    ok = reduce(np.logical_or, (inner >= around
                                for rows in _side_maxima(power, 1, flank[0])
                                for around in _side_maxima(rows, 2,
                                                           flank[1])))
    return ok & (inner >= _threshold(peak, threshold_db)[owner, None, None])


def _peak_cells(bins, power: np.ndarray, owner: np.ndarray, n_maps: int,
                max_peaks: int, threshold_db: float) -> tuple:
    """The strongest local maxima of stacked guarded power blocks, per map.

    A cell qualifies by ``_local_maxima``, with no flank axis.  A cell
    that several blocks of a map share counts once, from the first of
    them in sort order; ties break toward the lowest true bin.  Returns
    the (block, row, col) block positions of the picks, map by map and
    each map's strongest first, and the number of picks of each of the
    ``n_maps`` maps.
    """
    w, r, c = np.nonzero(_local_maxima(power, owner, n_maps, threshold_db))
    r, c = r + 1, c + 1
    row, col, own = bins[0][w, r], bins[1][w, c], owner[w]
    order = np.lexsort((col, row, -power[w, r, c], own))
    # One key per (map, row, col) cell; np.unique gives each one's first
    # place in sort order.  Qualifying cells have true bins, none -1.
    key = (own * (row.max(initial=0) + 1) + row) * (col.max(initial=0) + 1) \
        + col
    order = order[np.sort(np.unique(key[order], return_index=True)[1])]
    own = own[order]
    order = order[np.arange(order.size) - np.searchsorted(own, own)
                  < max_peaks]
    return (w[order], r[order], c[order]), \
        np.bincount(owner[w[order]], minlength=n_maps)


@cache
def _dft(n_in: int, n_out: int, sign: float) -> np.ndarray:
    """The (n_out, n_in) n_out-point DFT matrix over n_in inputs; a stack
    of refinement windows takes its rows by fine bin.  Built once per
    (n_in, n_out, sign); read-only, as every caller shares it."""
    roots = np.exp(sign * 2j * np.pi * np.arange(n_out) / n_out)
    table = roots[np.arange(n_out)[:, None] * np.arange(n_in) % n_out]
    table.flags.writeable = False
    return table


def _window_targets(windows, n_maps: int, est: EstimatorConfig,
                    lay: _MapLayout) -> list:
    """Per map, the targets at the strongest peaks of its blocks;
    ``windows`` is (bins, power, beams, owner).  ``beams`` holds each
    block's values, or, for whole maps, is the unguarded map stack
    itself, read at each pick's map and true bins.

    Every picked cell of the stack is read in one pass, its snapshot
    across the array by the layout's manifold scan.  With ``interpolate``
    a parabolic offset refines both map bins; at the edge of a
    non-wrapping axis the guard ring's -inf leaves the bin as it is.  The
    amplitude is the snapshot matched to the steering at the angle, per
    array element and known sample.  The targets hold Python scalars.
    """
    bins, power, beams, owner = windows
    (w, r, c), counts = _peak_cells(bins, power, owner, n_maps,
                                    est.max_targets, est.threshold_db)
    if w.size == 0:
        return [() for _ in range(n_maps)]
    if beams.shape[1] == power.shape[1]:
        snapshots = beams[w, r, c]
    else:  # whole maps, two rows and columns short of their blocks
        snapshots = beams[owner[w], bins[0][w, r], bins[1][w, c]]
    beam, angle, steer = lay.manifold.scan(snapshots, est.angle_pad,
                                           est.interpolate)
    row_off = col_off = 0.0
    if est.interpolate:
        row_off = _parabolic_offsets(power[w, r - 1, c], power[w, r, c],
                                     power[w, r + 1, c])
        col_off = _parabolic_offsets(power[w, r, c - 1], power[w, r, c],
                                     power[w, r, c + 1])
    amplitude = np.matmul(snapshots[:, None, :],
                          np.conj(steer)[:, :, None])[:, 0, 0] \
        / (snapshots.shape[1] * lay.n_known)
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
    return [tuple(islice(targets, n)) for n in counts.tolist()]


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
    return power, _window_targets((bins, guarded, beams, owner), len(power),
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

# A window is skipped only when its bound times 1 + this margin is below
# the pick it must miss, which covers the rounding of the bound and of the
# zoom (a few ulps per frame summed).
_BOUND_MARGIN = 1e-9

# Window samples (cells times array elements) that one slice of a
# refinement zooms, 1 MiB of beams: 45 windows of 19 x 19 cells on 4
# elements, the 8-fold OFDMA default, or 172 of PMCW's 19 x 5.
_SLICE_CELLS = 1 << 16


def _window_bins(seeds: np.ndarray, pads, lay: _MapLayout) -> tuple:
    """True (rows, cols) bins of the window of each (map, row, col) seed:
    seed bin s maps to fine bin s * pad, and the window spans +-pad fine
    bins (+-1 seed bin) plus the guard ring."""
    return tuple(_bins(seeds[:, [a + 1]] * p + np.arange(-p - 1, p + 2), n, w)
                 for a, (p, n, w) in enumerate(zip(pads, lay.shape,
                                                   lay.wrap)))


def _windows(x: np.ndarray, bins, owner: np.ndarray,
             lay: _MapLayout) -> tuple:
    """Fine-grid windows (bins, power, beams, owner) of a stack of CPIs at
    the window ``bins`` of CPIs ``owner``, evaluated by ``_zoom``."""
    beams = _zoom(x, owner, bins, lay)
    return bins, _guard(_power(beams), bins), beams, owner


def _lag_bounds(x: np.ndarray) -> np.ndarray:
    """A[l] = sum_r (sum_m |x[m, l, r]|)^2 per CPI and lag of a stack: no
    cell of the lag's slow-time zoom exceeds it, as every ``_dft`` entry
    has modulus 1."""
    bound = np.abs(x).sum(axis=1)
    bound **= 2
    return bound.sum(axis=-1)


def _pickable(x: np.ndarray, seed_power: np.ndarray, seeds: np.ndarray,
              bins, lay: _MapLayout, est: EstimatorConfig) -> np.ndarray:
    """Mask of the seeds whose windows (``bins``) may hold a pick, on a
    layout whose second axis has DFT sign 0.

    Each map's ``max_targets`` (K) strongest seeds are kept and zoomed;
    P is the K-th strongest distinct local maximum their windows hold (0
    if they hold fewer).  Another seed is dropped when the largest
    ``_lag_bounds`` over its window's lag columns (a -1 bin reads some
    lag, which only loosens it) is below P by more than the rounding
    margin.  No cell of its window can then be picked, as K stronger
    local maxima outrank it, or set the map's threshold reference.
    """
    owner, k = seeds[:, 0], est.max_targets
    order = np.lexsort((-seed_power[tuple(seeds.T)], owner))
    strongest = np.zeros(owner.size, dtype=bool)
    strongest[order[np.arange(order.size)
                    - np.searchsorted(owner[order], owner[order]) < k]] = True
    head = tuple(b[strongest] for b in bins)
    _, power, _, own = _windows(x, head, owner[strongest], lay)
    (w, r, c), counts = _peak_cells(head, power, own, len(x), k, -np.inf)
    kth = np.zeros(len(x))
    kth[counts == k] = power[w, r, c][np.cumsum(counts)[counts == k] - 1]
    bound = _lag_bounds(x)[owner[:, None], bins[1]].max(axis=1)
    return strongest | ~(bound * (1 + _BOUND_MARGIN) < kth[owner])


def _refined(x: np.ndarray, layout, est: EstimatorConfig) -> tuple:
    """(pad-1 power maps, targets per CPI) of the refinements of a stack
    of CPIs demodulated on every slot, all of them known.

    The seed maps are ``layout`` at unit pads, the fine one ``layout`` at
    ``est``'s pads, and a fine axis's pad is its length over the seed
    map's.  The seeds are the ``_local_maxima`` of the seed maps, each
    padded axis a flank axis, map by map in row-major order; on a sign-0
    second axis only those ``_pickable`` stay.  Their windows are zoomed
    in slices of whole maps with at most ``_SLICE_CELLS`` window samples
    (cells times array elements); a map with more runs alone.  Each map's
    threshold and picks read only its own windows, so slicing changes no
    target, and the windows never hold more memory than one slice.
    """
    known = np.ones(x.shape[1], dtype=bool)
    unit, lay = layout(known, _UNIT_PADS), layout(known, est)
    seed_power = _power(_map(x, unit))
    pads = [f // u for f, u in zip(lay.shape, unit.shape)]
    seeds = np.argwhere(_local_maxima(*_whole_map(seed_power, lay.wrap)[1:],
                                      len(x), est.threshold_db,
                                      [p > 1 for p in pads]))
    bins = _window_bins(seeds, pads, lay)
    if not lay.signs[1]:
        keep = _pickable(x, seed_power, seeds, bins, lay, est)
        seeds, bins = seeds[keep], tuple(b[keep] for b in bins)
    limit = max(1, _SLICE_CELLS // (math.prod(2 * p + 3 for p in pads)
                                    * x.shape[-1]))
    starts = np.searchsorted(seeds[:, 0], np.arange(len(x) + 1))
    targets, lo = [], 0
    while lo < len(x):
        hi = lo + max(1, int(np.searchsorted(starts[lo + 1:] - starts[lo],
                                             limit, side="right")))
        part = slice(starts[lo], starts[hi])
        targets += _window_targets(
            _windows(x[lo:hi], tuple(b[part] for b in bins),
                     seeds[part, 0] - lo, lay), hi - lo, est, lay)
        lo = hi
    return seed_power, targets


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
    pad = est.doppler_pad if m_count > 1 else 1  # see EstimatorConfig
    shape = (m_count * pad, l_count)
    return _MapLayout(shape=shape, signs=(1, 0), lengths=shape, delay_axis=1,
                      wrap=(True, True), manifold=config.manifold,
                      n_known=l_count * m_count, delay_of=lambda b: b * t_c,
                      period=config.block_time)


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
    return _result(_refined(x, layout, est),
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
    df, n_rows = config.subcarrier_spacing_hz, int(np.count_nonzero(known))
    nr = config.n_subcarriers * (est.range_pad if n_rows > 1 else 1)
    nd = config.n_symbols * (est.doppler_pad if config.n_symbols > 1 else 1)
    window = max(nr // pilot_comb_spacing(known), 1)
    return _MapLayout(shape=(window, nd), signs=(1, -1), lengths=(nr, nd),
                      delay_axis=0, wrap=(window == nr, True),
                      n_known=n_rows * config.n_symbols,
                      delay_of=lambda b: b / (nr * df),
                      period=config.symbol_duration, manifold=config.manifold)


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
    return _result(_refined(x, layout, est),
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


def _golay_layout(config, known, est: EstimatorConfig) -> _MapLayout:
    """(Doppler, lag) layout of a sounding: one Doppler bin, unpadded, and
    the non-wrapping lags 0 to ``guard_samples``; its NaN period and
    manifold spacing make its Doppler, angle and amplitude estimates NaN."""
    shape, t_s = (1, config.guard_samples + 1), config.sample_time_s
    return _MapLayout(shape=shape, signs=(1, 0), lengths=shape, delay_axis=1,
                      wrap=(True, False), manifold=_Manifold(1, np.nan, -1.0),
                      n_known=2 ** (config.log2_length + 1), period=np.nan,
                      delay_of=lambda b: b * t_s)


def _golay_response(cef: np.ndarray, sample_time: float, delay_s,
                    doppler_hz, angle_rad, slots: np.ndarray) -> np.ndarray:
    """Unit response (slots, samples, 1) of one scatterer to the sounding
    ``cef``: it delayed by the whole sample nearest ``delay_s``, zeros
    shifted in (a sounding models no Doppler or angle)."""
    row = np.concatenate([np.zeros(round(delay_s / sample_time)), cef])
    return np.broadcast_to(row[:cef.size, None], (len(slots), cef.size, 1))
