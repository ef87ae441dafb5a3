"""Performance criteria: ambiguity surfaces, error metrics, JRC trade-off.

The ambiguity function here is the narrowband complex AF of the sampled
baseband waveform, energy-normalized so the matched-filter origin reads
exactly 1.  Delay grids must land on sample lags; Doppler grids are free.

The communications side of the trade-off follows the distortion-MMSE view:
a system at spectral efficiency r satisfies (1/N) Tr log2(MMSE) = -r, and
transmitting data only a fraction delta of the time degrades the effective
distortion to MMSE**delta.  The scalar objective blends that with a radar
CRLB term, log-scaled for proportional fairness.

The CRLB itself is a numeric observed-information proxy: inverse Fisher
information of a single-target Gaussian model, parameters ordered
(delay, Doppler, angle) unless the caller supplies their own matrix.
Callers with a closed-form bound for their geometry can pass it in
directly; the objective only needs the matrix.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .tensorio import format_float, write_table_csv, write_tensor


def _check_grids(delays_s, dopplers_hz) -> None:
    for grid, name in ((delays_s, "delay"), (dopplers_hz, "Doppler")):
        if grid.size > 1 and not np.all(np.diff(grid) > 0):
            raise ValueError(f"{name} grid must be strictly increasing")
        if not np.all(np.isfinite(grid)):
            raise ValueError(f"{name} grid entries must be finite")


def _check_rate(sample_rate_hz) -> None:
    if not 0 < sample_rate_hz < np.inf:
        raise ValueError("sample_rate_hz must be positive and finite, got "
                         f"{sample_rate_hz!r}")


@dataclass(frozen=True)
class AfSurface:
    """Sampled |chi(tau, nu)| magnitude, normalized to 1 at the origin."""

    delays_s: np.ndarray
    dopplers_hz: np.ndarray
    magnitude: np.ndarray

    def __post_init__(self):
        d = np.asarray(self.delays_s, dtype=float)
        f = np.asarray(self.dopplers_hz, dtype=float)
        m = np.asarray(self.magnitude, dtype=float)
        if m.shape != (d.size, f.size):
            raise ValueError("magnitude must be (n_delays, n_dopplers)")
        _check_grids(d, f)
        object.__setattr__(self, "delays_s", d)
        object.__setattr__(self, "dopplers_hz", f)
        object.__setattr__(self, "magnitude", m)

    def zero_doppler_cut(self):
        """(delays, magnitude) column at the Doppler grid point nearest 0."""
        j = int(np.argmin(np.abs(self.dopplers_hz)))
        return self.delays_s, self.magnitude[:, j]

    def zero_delay_cut(self):
        """(dopplers, magnitude) row at the delay grid point nearest 0."""
        i = int(np.argmin(np.abs(self.delays_s)))
        return self.dopplers_hz, self.magnitude[i, :]


def default_af_grids(n_samples: int, sample_rate_hz: float,
                     max_lag: int | None = None, n_doppler: int = 65):
    """Convenience grids: all sample lags and a centered Doppler comb.

    ``max_lag`` (default n_samples - 1) must lie in [0, n_samples): every
    lag beyond reads 0 by definition.  ``sample_rate_hz`` must be positive
    and finite.

    The Doppler comb spans the unambiguous +-sample_rate/(2 n_samples)
    band of a waveform of this length, so mainlobe structure is resolved.
    ``n_doppler`` must be odd, so that one comb point sits at zero Doppler
    and the zero-Doppler cut is taken there.  The comb is exactly
    antisymmetric, with endpoints exactly +-span/2, so every nonzero point
    has its negation on the grid and :func:`ambiguity_function` computes
    each such pair from one row.
    """
    if max_lag is None:
        max_lag = n_samples - 1
    if not 0 <= max_lag < n_samples:
        raise ValueError(f"max_lag must lie in [0, {n_samples}) for a "
                         f"{n_samples}-sample waveform, got {max_lag}")
    if n_doppler < 1 or n_doppler % 2 == 0:
        raise ValueError(f"n_doppler must be odd and >= 1, got {n_doppler}")
    _check_rate(sample_rate_hz)
    delays = np.arange(-max_lag, max_lag + 1) / sample_rate_hz
    span = sample_rate_hz / n_samples
    if n_doppler == 1:
        return delays, np.zeros(1)
    half = n_doppler // 2
    return delays, span / 2 * (np.arange(-half, half + 1) / half)


def _af_workers(n_rows: int) -> int:
    """Threads for the AF's Doppler rows: the CPUs this process may run
    on, at most one per row."""
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return max(1, min(cpus, n_rows))


def ambiguity_function(waveform, delays_s, dopplers_hz,
                       sample_rate_hz: float = 1.0) -> AfSurface:
    """Narrowband ambiguity magnitude on the given delay/Doppler grid.

    chi(tau, nu) = sum_n x[n + tau*fs] conj(x[n]) exp(j 2 pi nu n / fs),
    normalized by the waveform energy.  Delay grid entries must sit on
    integer sample lags (within 1e-6 of one); lags with |lag| >= n read 0.

    Each Doppler row is the cross-correlation of x with
    z = x exp(-j 2 pi nu n / fs), evaluated by overlap-save FFT blocks
    sized from the lag span L = max |lag| (below n) rather than from n:
    the FFT length M is a power of two >= max(4L, 64) and each block
    carries B = min(M - 2L, n) samples of z against a length B + 2L
    segment of x.  The segment spectra are shared by every row, and each
    row sums its block products before one inverse FFT.  That inverse FFT
    holds every lag in [-L, L], and the AF is centrosymmetric,
    |chi(-tau, -nu)| = |chi(tau, nu)|, so a -nu column whose +nu is also
    on the grid is the +nu row read at mirrored lags.  The cost is
    O(N_|nu| * n * (M / B) * log M), N_|nu| the number of distinct |nu| on
    the Doppler grid, and the result agrees with the direct sum to float
    rounding.  Both grids must be finite and strictly increasing, and
    ``sample_rate_hz`` positive and finite, which is checked before any
    FFT, and a waveform holding NaN or inf is rejected.

    The rows still to compute run on a thread pool that is created and
    joined inside the call: one worker per CPU this process may run on,
    at most one per row, each taking an interleaved share of the rows.
    The calling thread allocates one set of row buffers per worker, and
    a worker writes only into its own buffers and its own columns, so
    the surface is bit-identical to computing the rows one by one.
    """
    x = np.asarray(waveform, dtype=complex).ravel()
    n = x.size
    energy = float(np.sum(np.abs(x) ** 2))
    if n == 0 or energy == 0 or not np.isfinite(energy):
        raise ValueError("waveform must be non-empty and finite with "
                         "positive energy")
    delays_s = np.asarray(delays_s, dtype=float)
    dopplers_hz = np.asarray(dopplers_hz, dtype=float)
    _check_rate(sample_rate_hz)
    _check_grids(delays_s, dopplers_hz)
    lags_f = delays_s * sample_rate_hz
    lags = np.rint(lags_f).astype(int)
    if np.max(np.abs(lags_f - lags), initial=0.0) > 1e-6:
        raise ValueError("delay grid must align with integer sample lags")

    mags = np.zeros((lags.size, dopplers_hz.size))
    inside = np.flatnonzero(np.abs(lags) < n)
    if inside.size and dopplers_hz.size:
        span = int(np.max(np.abs(lags[inside])))
        fft_len = 64
        while fft_len < 4 * span:
            fft_len *= 2
        block = min(fft_len - 2 * span, n)
        n_blocks = -(-n // block)
        # x padded so block b's segment x[b*B - L : b*B + B + L] is a view.
        x_pad = np.zeros(n_blocks * block + 2 * span, dtype=complex)
        x_pad[span:span + n] = x
        segments = np.lib.stride_tricks.sliding_window_view(
            x_pad, block + 2 * span)[::block]
        seg_spectra = np.fft.fft(segments, fft_len, axis=1)
        np.conj(seg_spectra, out=seg_spectra)
        x_blocks = x_pad[span:span + n_blocks * block].reshape(n_blocks,
                                                                block)
        # exp(-j 2 pi nu (b B + i) / fs) as a block-start by in-block outer
        # product: n_blocks + B exponentials per row instead of n.
        step = -2.0 * np.pi / sample_rate_hz
        starts = step * block * np.arange(n_blocks)
        offsets = step * np.arange(block)
        picks = span + lags[inside]
        # mirror[j] is the index of -nu_j wherever paired[j] holds.
        mirror = np.minimum(np.searchsorted(dopplers_hz, -dopplers_hz),
                            dopplers_hz.size - 1)
        paired = (dopplers_hz > 0) & (dopplers_hz[mirror] == -dopplers_hz)
        filled = np.zeros(dopplers_hz.size, dtype=bool)
        filled[mirror[paired]] = True
        mirrored = 2 * span - picks

        def fill(share, bufs):
            # Only writes into bufs and into the columns of share (and
            # their mirrors), so workers with disjoint shares never race.
            e_starts, e_offsets, prod, z_spectra, cross, row, picked, col = bufs
            for j in share:
                nu = dopplers_hz[j]
                np.multiply(1j * nu, starts, out=e_starts)
                np.multiply(1j * nu, offsets, out=e_offsets)
                np.multiply.outer(np.exp(e_starts, out=e_starts),
                                  np.exp(e_offsets, out=e_offsets), out=prod)
                np.multiply(x_blocks, prod, out=prod)
                np.fft.fft(prod, fft_len, axis=1, out=z_spectra)
                np.einsum("bm,bm->m", seg_spectra, z_spectra, out=cross)
                # ifft(conj(sum_b conj(X_b) Z_b))
                #     = ifft(sum_b X_b conj(Z_b)).
                np.fft.ifft(np.conj(cross, out=cross), out=row)
                mags[inside, j] = np.abs(np.take(row, picks, out=picked),
                                         out=col)
                if paired[j]:
                    mags[inside, mirror[j]] = np.abs(
                        np.take(row, mirrored, out=picked), out=col)

        rows = np.flatnonzero(~filled)
        workers = _af_workers(rows.size)
        # Allocated here, not in the workers: what a worker thread frees
        # stays resident in its own malloc arena.
        buffers = [(np.empty(n_blocks, dtype=complex),
                    np.empty(block, dtype=complex),
                    np.empty((n_blocks, block), dtype=complex),
                    np.empty((n_blocks, fft_len), dtype=complex),
                    np.empty(fft_len, dtype=complex),
                    np.empty(fft_len, dtype=complex),
                    np.empty(picks.size, dtype=complex),
                    np.empty(picks.size)) for _ in range(workers)]
        with ThreadPoolExecutor(workers) as pool:
            for done in [pool.submit(fill, rows[k::workers], bufs)
                         for k, bufs in enumerate(buffers)]:
                done.result()
    mags /= energy
    return AfSurface(delays_s=delays_s, dopplers_hz=dopplers_hz,
                     magnitude=mags)


def peak_sidelobe_ratio(cut) -> float:
    """Largest sidelobe of a 1-d magnitude cut relative to its peak, in dB.

    The mainlobe extends from the unique global peak down to the first
    local minimum on each side; the ratio is against the largest value
    outside that span (amplitude dB, so Barker-13 gives about -22.3).
    Returns -inf when nothing lies outside the mainlobe.
    """
    c = np.abs(np.asarray(cut, dtype=float).ravel())
    if c.size < 3:
        raise ValueError("cut too short to carry sidelobes")
    peak = c.max()
    peak_locs = np.flatnonzero(c == peak)
    if peak <= 0 or peak_locs.size != 1:
        raise ValueError("cut must have a unique global peak")
    i0 = int(peak_locs[0])
    left = i0
    while left > 0 and c[left - 1] <= c[left]:
        left -= 1
    right = i0
    while right < c.size - 1 and c[right + 1] <= c[right]:
        right += 1
    outside = np.concatenate([c[:left], c[right + 1:]])
    if outside.size == 0:
        return -np.inf
    side = float(outside.max())
    if side == 0:
        return -np.inf
    return float(20.0 * np.log10(side / peak))


def ber(bits, decoded) -> float:
    """Fraction of mismatched bits."""
    a = np.asarray(bits).ravel()
    b = np.asarray(decoded).ravel()
    if a.size == 0 or a.size != b.size:
        raise ValueError("bit arrays must be equal-length, non-empty")
    return float(np.mean(a != b))


# ---------------------------------------------------------------------------
# Distortion-MMSE trade-off
# ---------------------------------------------------------------------------


def _as_mmse_array(mmse):
    m = np.asarray(mmse, dtype=float)
    if m.ndim > 2:
        raise ValueError("MMSE must be a scalar, vector of per-carrier "
                         "values, or a square matrix")
    if m.ndim == 2:
        if m.shape[0] != m.shape[1]:
            raise ValueError("MMSE matrix must be square")
        vals = np.linalg.eigvalsh((m + m.T) / 2)
    else:
        vals = m.ravel()
    if np.any(vals <= 0):
        raise ValueError("MMSE values must be positive")
    return m, vals


def trace_log2(mmse) -> float:
    """Tr log2 of a positive scalar, diagonal vector, or symmetric matrix."""
    _, vals = _as_mmse_array(mmse)
    return float(np.sum(np.log2(vals)))


def mmse_from_rate(rate: float, n: int = 1) -> np.ndarray:
    """Flat per-carrier MMSE vector realizing spectral efficiency ``rate``."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if rate < 0:
        raise ValueError("rate must be >= 0")
    return np.full(n, 2.0 ** (-rate))


def dmse_eff(mmse, delta: float):
    """Effective distortion MMSE**delta for duty fraction delta.

    Raising the MMSE to the delta power is exactly what makes
    (1/N) Tr log2 of the result equal -delta*r when the input satisfies
    the rate identity.
    """
    if not 0 < delta <= 1:
        raise ValueError("delta must be in (0, 1]")
    m, _ = _as_mmse_array(mmse)
    if m.ndim == 2:
        w, v = np.linalg.eigh((m + m.T) / 2)
        return (v * w ** delta) @ v.T
    out = m ** delta
    return float(out) if np.isscalar(mmse) or out.ndim == 0 else out


@dataclass(frozen=True)
class TradeoffSpec:
    """Inputs of the weighted communications/radar scalar objective."""

    rate: float
    delta: float
    code_length: int
    mmse: object
    crlb: object
    n_targets: int
    weight: float

    def __post_init__(self):
        if not 0 < self.delta <= 1:
            raise ValueError("delta must be in (0, 1]")
        if self.code_length < 1:
            raise ValueError("code_length must be >= 1")
        if not 0 <= self.weight <= 1:
            raise ValueError("weight must be in [0, 1]")
        if self.n_targets < 0:
            raise ValueError("n_targets must be >= 0")


def jrc_objective(spec: TradeoffSpec) -> float:
    """w * (1/N) Tr log2 DMSE_eff + (1-w) * (1/Q) Tr log2 CRLB.

    Lower is better on both terms; the blend is affine in the weight.
    """
    comm = trace_log2(dmse_eff(spec.mmse, spec.delta)) / spec.code_length
    if spec.weight == 1.0:
        return float(comm)
    if spec.n_targets < 1:
        raise ValueError("radar term active (weight < 1) requires >= 1 "
                         "detected target")
    radar = trace_log2(spec.crlb) / spec.n_targets
    return float(spec.weight * comm + (1.0 - spec.weight) * radar)


def crlb_proxy(model_fn, theta, noise_variance: float,
               steps, cache=None) -> np.ndarray:
    """Numeric inverse-Fisher-information proxy for a Gaussian model.

    ``model_fn(theta)`` returns the noiseless complex response (any shape);
    the FIM of y = mu(theta) + CN(0, sigma^2 I) is (2/sigma^2) Re{J^H J}
    with J the Jacobian, here built from central differences of ``steps``,
    one positive step per parameter.  This is a stand-in labeled as such,
    not a derived bound; parameter ordering is whatever ``theta`` uses
    (delay, Doppler, angle in this package's callers).  A parameter whose
    Jacobian column is zero (the model does not depend on it) has no Fisher
    information: it is left out of the inversion, and its row and column of
    the returned matrix are an infinite variance and zero covariances.
    sigma^2 enters only the inversion: calls sharing one ``cache`` dict,
    equal but for ``noise_variance``, compute Re{J^H J} once and agree
    bitwise.
    """
    if noise_variance <= 0:
        raise ValueError("noise_variance must be positive")
    cache = {} if cache is None else cache
    if not cache:
        theta = np.asarray(theta, dtype=float)
        steps = np.asarray(steps, dtype=float)
        if steps.shape != theta.shape or np.any(steps <= 0):
            raise ValueError("steps must be positive, one per parameter")
        cols = []
        for i in range(theta.size):
            hi = theta.copy()
            lo = theta.copy()
            hi[i] += steps[i]
            lo[i] -= steps[i]
            diff = (np.asarray(model_fn(hi), dtype=complex)
                    - np.asarray(model_fn(lo), dtype=complex))
            cols.append(diff.ravel() / (2.0 * steps[i]))
        jac = np.stack(cols, axis=1)
        known = np.any(jac, axis=0)
        if not np.any(known):
            raise ValueError("the model depends on no parameter")
        jac = jac[:, known]
        cache["gram"], cache["known"] = np.real(jac.conj().T @ jac), known
    known = cache["known"]
    bound = np.diag(np.where(known, 0.0, np.inf))
    bound[np.ix_(known, known)] = np.linalg.inv(
        2.0 / noise_variance * cache["gram"])
    return bound


# ---------------------------------------------------------------------------
# Export helpers
# ---------------------------------------------------------------------------


def write_af_csv(path, surface: AfSurface) -> None:
    """Grid CSV: first column delay_s, remaining columns one per Doppler."""
    header = ["delay_s"] + [f"doppler_{format_float(f)}"
                            for f in surface.dopplers_hz]
    write_table_csv(path, header, [surface.delays_s, surface.magnitude])


def write_af_tensor(path, surface: AfSurface) -> None:
    """Magnitude grid as a ``.npy`` tensor file of float64, not copied."""
    write_tensor(path, surface.magnitude)


def write_cut_csv(path, axis_values, values, axis_name: str) -> None:
    """Two-column CSV for a 1-d cut: ``axis_name`` and ``magnitude``."""
    axis_values = np.asarray(axis_values, dtype=float).ravel()
    values = np.asarray(values, dtype=float).ravel()
    if axis_values.size != values.size:
        raise ValueError("axis and values must be equal length")
    write_table_csv(path, [axis_name, "magnitude"], [axis_values, values])
