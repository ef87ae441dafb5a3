"""Ambiguity surfaces, error metrics, and the rate/distortion trade-off.

The ambiguity function is checked against a direct double-sum oracle; the
distortion identity is exercised as a property over random rate/duty/size
triples.
"""

import os
import sys
import threading
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from jrcsim import perf
from jrcsim.perf import (AfSurface, TradeoffSpec, ambiguity_function, ber,
                         crlb_proxy, default_af_grids, dmse_eff, jrc_objective,
                         mmse_from_rate, peak_sidelobe_ratio, trace_log2,
                         write_af_csv, write_af_tensor, write_cut_csv)
from jrcsim.sigcore import aperiodic_autocorr
from jrcsim.tensorio import read_csv_rows, read_tensor

BARKER_13 = np.array([1, 1, 1, 1, 1, -1, -1, 1, 1, -1, 1, -1, 1], dtype=float)


def af_oracle(x, lags, dopplers, fs):
    """Direct double-sum ambiguity magnitude, normalized by energy."""
    x = np.asarray(x, dtype=complex)
    n = x.size
    energy = np.sum(np.abs(x) ** 2)
    out = np.zeros((len(lags), len(dopplers)))
    for i, d in enumerate(lags):
        for j, nu in enumerate(dopplers):
            acc = 0.0 + 0.0j
            for k in range(n):
                if 0 <= k + d < n:
                    acc += x[k + d] * np.conj(x[k]) * np.exp(
                        2j * np.pi * nu * k / fs)
            out[i, j] = abs(acc)
    return out / energy


# ---------------------------------------------------------------------------
# Ambiguity function
# ---------------------------------------------------------------------------


def test_af_matches_double_sum_oracle():
    rng = np.random.default_rng(3)
    x = rng.normal(size=18) + 1j * rng.normal(size=18)
    fs = 2e9
    lags = np.arange(-17, 18)
    delays = lags / fs
    dopplers = np.linspace(-fs / 18, fs / 18, 9)
    surface = ambiguity_function(x, delays, dopplers, fs)
    expected = af_oracle(x, lags, dopplers, fs)
    assert np.max(np.abs(surface.magnitude - expected)) < 1e-10


def test_af_origin_is_one():
    rng = np.random.default_rng(4)
    x = rng.normal(size=64) + 1j * rng.normal(size=64)
    surface = ambiguity_function(x, [0.0], [0.0])
    assert abs(surface.magnitude[0, 0] - 1.0) < 1e-12


def test_af_zero_doppler_cut_is_normalized_autocorr():
    rng = np.random.default_rng(5)
    x = (1 - 2 * rng.integers(0, 2, size=32)).astype(float)
    delays, dopplers = default_af_grids(32, 1.0, n_doppler=3)
    surface = ambiguity_function(x, delays, dopplers, 1.0)
    _, cut = surface.zero_doppler_cut()
    expected = np.abs(aperiodic_autocorr(x)) / 32
    assert np.allclose(cut, expected, atol=1e-12)


def test_af_rectangular_pulse_triangle():
    n = 16
    x = np.ones(n)
    delays = np.arange(-(n - 1), n) / 1.0
    surface = ambiguity_function(x, delays, [0.0], 1.0)
    lags = np.arange(-(n - 1), n)
    assert np.allclose(surface.magnitude[:, 0], (n - np.abs(lags)) / n,
                       atol=1e-12)


def test_af_symmetry_under_joint_negation():
    # Each -nu column is the +nu row's inverse FFT read at mirrored lags,
    # so off zero Doppler the symmetry is exact; the zero-Doppler column
    # is its own mirror, computed once, and symmetric to rounding.
    rng = np.random.default_rng(6)
    x = rng.normal(size=20) + 1j * rng.normal(size=20)
    delays, dopplers = default_af_grids(20, 1.0, n_doppler=11)
    mag = ambiguity_function(x, delays, dopplers, 1.0).magnitude
    mirrored = mag[::-1, ::-1]
    off = dopplers != 0
    assert np.array_equal(mag[:, off], mirrored[:, off])
    assert np.allclose(mag[:, ~off], mirrored[:, ~off], atol=1e-10)


def test_af_single_tone_doppler_null():
    n = 25
    x = np.exp(2j * np.pi * 0.12 * np.arange(n))
    surface = ambiguity_function(x, [0.0], [0.0, 1.0 / n, 2.0 / n], 1.0)
    assert surface.magnitude[0, 0] == pytest.approx(1.0, abs=1e-12)
    assert surface.magnitude[0, 1] == pytest.approx(0.0, abs=1e-12)
    assert surface.magnitude[0, 2] == pytest.approx(0.0, abs=1e-12)


def test_af_lag_beyond_waveform_is_zero():
    x = np.ones(4)
    surface = ambiguity_function(x, [-6.0, 6.0], [0.0], 1.0)
    assert np.all(surface.magnitude == 0.0)


def test_af_rejects_off_sample_delays():
    with pytest.raises(ValueError):
        ambiguity_function(np.ones(8), [0.4], [0.0], 1.0)


def test_af_rejects_empty_or_silent_waveform():
    with pytest.raises(ValueError):
        ambiguity_function([], [0.0], [0.0])
    with pytest.raises(ValueError):
        ambiguity_function(np.zeros(8), [0.0], [0.0])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf,
                                 complex(0.0, np.nan)],
                         ids=["nan", "inf", "-inf", "nan-imag"])
def test_af_rejects_non_finite_samples(bad):
    x = np.ones(8, dtype=complex)
    x[3] = bad
    with pytest.raises(ValueError, match="positive energy"):
        ambiguity_function(x, [0.0, 1.0], [-0.1, 0.0, 0.1], 1.0)


_INCREASING = "grid must be strictly increasing"
_FINITE = "grid entries must be finite"
_RATE = "sample_rate_hz must be positive and finite"


@pytest.mark.parametrize("delays, dopplers, rate, message", [
    ([1.0, 0.0], [0.0], 1.0, f"delay {_INCREASING}"),
    ([0.0, 0.0], [0.0], 1.0, f"delay {_INCREASING}"),
    ([0.0], [0.5, -0.5], 1.0, f"Doppler {_INCREASING}"),
    ([0.0], [-0.5, 0.5, 0.5], 1.0, f"Doppler {_INCREASING}"),
    ([0.0], [0.0, np.nan], 1.0, f"Doppler {_INCREASING}"),
    ([np.nan], [0.0], 1.0, f"delay {_FINITE}"),
    ([0.0, np.inf], [0.0], 1.0, f"delay {_FINITE}"),
    ([0.0], [np.nan], 1.0, f"Doppler {_FINITE}"),
    ([-np.inf, 0.0], [0.0], 1.0, f"delay {_FINITE}"),
    ([0.0], [0.0], 0.0, _RATE),
    ([0.0], [0.0], -1.0, _RATE),
    ([0.0], [0.0], np.nan, _RATE),
    ([0.0], [0.0], np.inf, _RATE),
], ids=["delay-decreasing", "delay-repeated", "doppler-decreasing",
        "doppler-repeated", "doppler-nan", "delay-one-nan", "delay-inf",
        "doppler-one-nan", "delay-minus-inf", "rate-zero", "rate-negative",
        "rate-nan", "rate-inf"])
def test_af_rejects_bad_grid_before_any_fft(monkeypatch, delays, dopplers,
                                            rate, message):
    def no_fft(*args, **kwargs):
        raise AssertionError("FFT work started before the grid check")

    monkeypatch.setattr(np.fft, "fft", no_fft)
    monkeypatch.setattr(np.fft, "ifft", no_fft)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no cast warning on the way
        with pytest.raises(ValueError, match=message):
            ambiguity_function(np.ones(8), delays, dopplers, rate)


def test_af_surface_validation():
    with pytest.raises(ValueError):
        AfSurface(delays_s=np.arange(3.0), dopplers_hz=np.arange(2.0),
                  magnitude=np.zeros((2, 3)))
    with pytest.raises(ValueError):
        AfSurface(delays_s=np.array([0.0, 0.0]), dopplers_hz=np.array([0.0]),
                  magnitude=np.zeros((2, 1)))


def test_af_cuts_pick_grid_point_nearest_zero():
    mag = np.arange(12.0).reshape(4, 3)
    surface = AfSurface(delays_s=np.array([-3.0, -1.0, 2.0, 5.0]),
                        dopplers_hz=np.array([-2.0, 0.5, 3.0]),
                        magnitude=mag)
    dopplers, row = surface.zero_delay_cut()
    assert np.array_equal(row, mag[1])
    delays, col = surface.zero_doppler_cut()
    assert np.array_equal(col, mag[:, 1])


def af_per_lag_sum(x, lags, dopplers, fs):
    """Direct sum, vectorised over Doppler: one n x N_nu kernel per lag."""
    x = np.asarray(x, dtype=complex)
    n = x.size
    kernel = np.exp(2j * np.pi * np.outer(np.arange(n) / fs, dopplers))
    out = np.zeros((len(lags), len(dopplers)))
    for i, d in enumerate(lags):
        if abs(d) >= n:
            continue
        if d >= 0:
            out[i] = np.abs((x[d:] * np.conj(x[:n - d])) @ kernel[:n - d])
        else:
            out[i] = np.abs((x[:n + d] * np.conj(x[-d:])) @ kernel[-d:])
    return out / np.sum(np.abs(x) ** 2)


@st.composite
def af_cases(draw):
    """Waveform, sorted lags and increasing Dopplers for the oracle check.

    Small lag spans with n above the 64-point FFT's block make the
    transform sum several overlap-save blocks; lags at or beyond n must
    read zero.
    """
    n = draw(st.integers(1, 150))
    parts = st.floats(-1, 1, allow_subnormal=False)
    x = (np.array(draw(st.lists(parts, min_size=n, max_size=n)))
         + 1j * np.array(draw(st.lists(parts, min_size=n, max_size=n))))
    span = draw(st.one_of(st.integers(0, min(n - 1, 12)),
                          st.integers(0, n - 1)))
    inside = draw(st.lists(st.integers(-span, span), max_size=6))
    beyond = draw(st.lists(st.integers(n, n + 4).flatmap(
        lambda v: st.sampled_from([-v, v])), max_size=2))
    lags = sorted(set(inside + beyond))
    fs = draw(st.sampled_from([1.0, 2e9]))
    fractions = sorted(set(draw(st.lists(st.floats(-1, 1), min_size=1,
                                         max_size=4))))
    return x, np.array(lags, dtype=int), np.array(fractions) * fs, fs


@settings(max_examples=60, deadline=None)
@given(af_cases())
def test_af_matches_oracle_on_random_grids(case):
    x, lags, dopplers, fs = case
    assume(np.sum(np.abs(x) ** 2) > 1e-3)
    assume(np.all(np.diff(dopplers) > 0))
    surface = ambiguity_function(x, lags / fs, dopplers, fs)
    expected = af_oracle(x, lags, dopplers, fs)
    assert surface.magnitude.shape == expected.shape
    assert np.max(np.abs(surface.magnitude - expected), initial=0.0) < 1e-12


@st.composite
def mirrored_af_cases(draw):
    """An af_cases draw whose Doppler grid mixes +-nu pairs, unpaired
    values of either sign and, sometimes, nu = 0."""
    x, lags, _, fs = draw(af_cases())
    magnitudes = draw(st.lists(st.floats(1e-3, 1), min_size=1, max_size=4,
                               unique=True))
    signs = draw(st.lists(st.sampled_from([(1,), (-1,), (1, -1)]),
                          min_size=len(magnitudes),
                          max_size=len(magnitudes)))
    grid = {s * m for m, pair in zip(magnitudes, signs) for s in pair}
    if draw(st.booleans()):
        grid.add(0.0)
    return x, lags, np.array(sorted(grid)) * fs, fs


@settings(max_examples=60, deadline=None)
@given(mirrored_af_cases())
def test_af_mirrored_doppler_rows_match_oracle(case):
    x, lags, dopplers, fs = case
    assume(np.sum(np.abs(x) ** 2) > 1e-3)
    assume(np.all(np.diff(dopplers) > 0))
    surface = ambiguity_function(x, lags / fs, dopplers, fs)
    expected = af_oracle(x, lags, dopplers, fs)
    assert np.max(np.abs(surface.magnitude - expected), initial=0.0) < 1e-12


def test_af_long_waveform_short_lags_matches_direct_sum():
    # 4096 samples with lags within +-8: the FFT sums 86 blocks of 48.
    rng = np.random.default_rng(8)
    x = rng.normal(size=4096) + 1j * rng.normal(size=4096)
    fs = 1e9
    delays, dopplers = default_af_grids(x.size, fs, max_lag=8, n_doppler=3)
    surface = ambiguity_function(x, delays, dopplers, fs)
    lags = np.rint(delays * fs).astype(int)
    expected = af_per_lag_sum(x, lags, dopplers, fs)
    assert np.max(np.abs(surface.magnitude - expected)) < 1e-12


def af_at_each_worker_count(x, delays, dopplers, fs):
    """Surfaces with the row pool pinned to 1, 2 and 3 workers, the
    threads switching every microsecond."""
    surfaces = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for workers in (1, 2, 3):
            with mock.patch.object(perf, "_af_workers",
                                   lambda rows, w=workers: min(w, rows)):
                surfaces.append(ambiguity_function(x, delays, dopplers,
                                                   fs).magnitude)
    finally:
        sys.setswitchinterval(interval)
    return surfaces


@settings(max_examples=40, deadline=None)
@given(st.one_of(af_cases(), mirrored_af_cases()))
def test_af_row_pool_matches_inline_rows(case):
    x, lags, dopplers, fs = case
    assume(np.sum(np.abs(x) ** 2) > 1e-3)
    assume(np.all(np.diff(dopplers) > 0))
    inline, *pooled = af_at_each_worker_count(x, lags / fs, dopplers, fs)
    for surface in pooled:
        assert np.array_equal(surface, inline)


@pytest.mark.parametrize("max_lag, dopplers", [
    (8, None),
    (8, [-0.2e6, 0.0, 0.1e6, 0.3e6]),
    (255, [-0.3e6, -0.1e6]),
    (255, [0.2e6]),
    (4095, [-0.1e6, 0.1e6]),
], ids=["blocks-paired", "blocks-unpaired", "negative-only", "single-row",
        "full-window-pair"])
def test_af_row_pool_matches_inline_rows_on_long_waveforms(max_lag,
                                                           dopplers):
    rng = np.random.default_rng(9)
    x = rng.normal(size=4096) + 1j * rng.normal(size=4096)
    fs = 1e9
    delays, comb = default_af_grids(x.size, fs, max_lag=max_lag,
                                    n_doppler=9)
    dopplers = comb if dopplers is None else np.array(dopplers)
    inline, *pooled = af_at_each_worker_count(x, delays, dopplers, fs)
    for surface in pooled:
        assert np.array_equal(surface, inline)


def test_af_row_pool_is_joined_on_return_and_on_error(monkeypatch):
    monkeypatch.setattr(perf, "_af_workers", lambda rows: min(2, rows))
    x = np.exp(1j * np.arange(64) ** 2 / 7.0)
    delays, dopplers = default_af_grids(x.size, 1.0, n_doppler=9)
    before = threading.active_count()
    ambiguity_function(x, delays, dopplers, 1.0)
    assert threading.active_count() == before

    def failing_row(*args, **kwargs):
        raise RuntimeError("row failed")

    monkeypatch.setattr(perf.np, "einsum", failing_row)
    with pytest.raises(RuntimeError, match="row failed"):
        ambiguity_function(x, delays, dopplers, 1.0)
    assert threading.active_count() == before


def test_af_workers_follow_the_usable_cpus():
    cpus = (len(os.sched_getaffinity(0))
            if hasattr(os, "sched_getaffinity") else os.cpu_count())
    assert perf._af_workers(1) == 1
    assert perf._af_workers(1000) == cpus
    with mock.patch.object(os, "sched_getaffinity", lambda pid: {0, 3},
                           create=True):
        assert perf._af_workers(33) == 2
        assert perf._af_workers(1) == 1


# Traced peak of the 65536-sample --max-lag 255 surface (65 Dopplers, 33
# rows) at 2 workers, as a multiple of the waveform's bytes, recorded with
# Python 3.11 and numpy 2.4 on x86-64: 9.90 (6.72 at 1 worker, 12.97 at 3;
# each worker holds 3.2).  Rows that each allocated their own product and
# spectra, as the serial loop did, read 9.45 at 1 worker alone.
def test_af_row_pool_memory_peak_is_bounded(monkeypatch):
    monkeypatch.setattr(perf, "_af_workers", lambda rows: min(2, rows))
    rng = np.random.default_rng(7)
    x = rng.normal(size=65536) + 1j * rng.normal(size=65536)
    delays, dopplers = default_af_grids(x.size, 1e9, max_lag=255,
                                        n_doppler=65)
    tracemalloc.start()
    try:
        ambiguity_function(x, delays, dopplers, 1e9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 10.5 * x.nbytes


def test_default_af_grids():
    delays, dopplers = default_af_grids(32, 4e9)
    assert delays.size == 63
    assert delays[0] == -31 / 4e9 and delays[-1] == 31 / 4e9
    assert dopplers.size == 65
    assert dopplers[0] == pytest.approx(-4e9 / 64)
    assert dopplers[-1] == pytest.approx(4e9 / 64)
    short, _ = default_af_grids(32, 4e9, max_lag=5)
    assert short.size == 11
    _, single = default_af_grids(32, 4e9, n_doppler=1)
    assert single.tolist() == [0.0]
    assert default_af_grids(32, 4e9, max_lag=31)[0].size == 63
    for max_lag in (-1, 32):
        with pytest.raises(ValueError, match="max_lag"):
            default_af_grids(32, 4e9, max_lag=max_lag)
    for n_doppler in (0, 2, 64):
        with pytest.raises(ValueError, match="n_doppler"):
            default_af_grids(32, 4e9, n_doppler=n_doppler)
    for rate in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="sample_rate_hz must be "
                                             "positive and finite"):
            default_af_grids(16, rate)


@pytest.mark.parametrize("n, rate, n_doppler", [
    (4096, 15999999999.999998, 65),  # 256 x 62.5 MHz as floats give it
    (20, 1.0, 11),
    (18, 2e9, 9),
    (32, 4e9, 65),
    (7, 1.0, 101),
    (248, 1 / 1e-9, 3),
    (65536, 3e11, 257),
])
def test_default_af_doppler_comb_is_exactly_antisymmetric(n, rate,
                                                          n_doppler):
    _, dopplers = default_af_grids(n, rate, n_doppler=n_doppler)
    span = rate / n
    assert dopplers.size == n_doppler
    assert np.array_equal(dopplers, -dopplers[::-1])
    assert dopplers[0] == -span / 2 and dopplers[-1] == span / 2
    assert dopplers[n_doppler // 2] == 0.0
    assert np.all(np.diff(dopplers) > 0)
    # np.linspace rounds -span/2 + i*step to a few ulps of span/2, so the
    # two combs agree to that.
    old = np.linspace(-span / 2, span / 2, n_doppler)
    assert np.max(np.abs(dopplers - old)) <= 4 * np.spacing(span / 2)


# ---------------------------------------------------------------------------
# Peak sidelobe ratio
# ---------------------------------------------------------------------------


def test_psl_barker_13():
    delays, _ = default_af_grids(13, 1.0)
    surface = ambiguity_function(BARKER_13, delays, [0.0], 1.0)
    _, cut = surface.zero_doppler_cut()
    assert peak_sidelobe_ratio(cut) == pytest.approx(-22.3, abs=0.1)


def test_psl_triangle_has_no_sidelobes():
    cut = np.array([0.0, 0.25, 0.5, 0.75, 1.0, 0.75, 0.5, 0.25, 0.0])
    assert peak_sidelobe_ratio(cut) == -np.inf


def test_psl_hand_built_cut():
    cut = np.array([0.1, 0.2, 1.0, 0.5, 0.4, 0.45])
    assert peak_sidelobe_ratio(cut) == pytest.approx(20 * np.log10(0.45),
                                                     abs=1e-12)


def test_psl_monotone_ramp_is_all_mainlobe():
    assert peak_sidelobe_ratio(np.linspace(0.1, 1.0, 10)) == -np.inf


def test_psl_validation():
    with pytest.raises(ValueError):
        peak_sidelobe_ratio([1.0, 0.5])
    with pytest.raises(ValueError):
        peak_sidelobe_ratio([1.0, 1.0, 1.0])
    with pytest.raises(ValueError):
        peak_sidelobe_ratio(np.zeros(5))


# ---------------------------------------------------------------------------
# Error metrics
# ---------------------------------------------------------------------------


def test_ber_hand_values():
    assert ber([0, 1, 1, 0], [0, 1, 0, 0]) == 0.25
    assert ber([1, 1], [1, 1]) == 0.0


def test_metric_validation():
    with pytest.raises(ValueError):
        ber([0], [0, 1])


# ---------------------------------------------------------------------------
# Distortion-MMSE identity and trade-off objective
# ---------------------------------------------------------------------------


def test_trace_log2_forms():
    assert trace_log2(8.0) == pytest.approx(3.0)
    assert trace_log2([2.0, 4.0]) == pytest.approx(3.0)
    assert trace_log2(np.diag([2.0, 4.0, 8.0])) == pytest.approx(6.0)


def test_trace_log2_general_symmetric_matrix():
    rng = np.random.default_rng(7)
    q, _ = np.linalg.qr(rng.normal(size=(5, 5)))
    w = rng.uniform(0.1, 2.0, size=5)
    a = (q * w) @ q.T
    assert trace_log2(a) == pytest.approx(np.sum(np.log2(w)), abs=1e-10)


def test_trace_log2_validation():
    with pytest.raises(ValueError):
        trace_log2(-1.0)
    with pytest.raises(ValueError):
        trace_log2(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        trace_log2(np.zeros((2, 2, 2)))


def test_mmse_from_rate():
    m = mmse_from_rate(2.0, 4)
    assert np.allclose(m, 0.25)
    assert trace_log2(m) / 4 + 2.0 == 0.0
    with pytest.raises(ValueError):
        mmse_from_rate(-1.0)
    with pytest.raises(ValueError):
        mmse_from_rate(1.0, 0)


def test_dmse_eff_scalar_vector_matrix():
    assert dmse_eff(0.25, 0.5) == pytest.approx(0.5)
    assert np.allclose(dmse_eff(np.array([0.25, 0.0625]), 0.5), [0.5, 0.25])
    out = dmse_eff(np.diag([0.25, 0.0625]), 0.5)
    assert np.allclose(out, np.diag([0.5, 0.25]), atol=1e-12)
    with pytest.raises(ValueError):
        dmse_eff(0.25, 0.0)
    with pytest.raises(ValueError):
        dmse_eff(0.25, 1.5)


def test_dmse_eff_matrix_powers_eigenvalues():
    rng = np.random.default_rng(8)
    q, _ = np.linalg.qr(rng.normal(size=(4, 4)))
    w = rng.uniform(0.05, 1.0, size=4)
    a = (q * w) @ q.T
    out = dmse_eff(a, 0.3)
    got = np.sort(np.linalg.eigvalsh(out))
    assert np.allclose(got, np.sort(w ** 0.3), atol=1e-12)


@settings(max_examples=200, deadline=None)
@given(rate=st.floats(0.0, 12.0), delta=st.floats(0.01, 1.0),
       n=st.integers(1, 64))
def test_distortion_identity_property(rate, delta, n):
    mmse = mmse_from_rate(rate, n)
    eff = dmse_eff(mmse, delta)
    residual = abs(trace_log2(eff) / n + delta * rate)
    assert residual <= 1e-12


def test_rate_identity_matrix_form():
    rng = np.random.default_rng(9)
    rates = rng.uniform(0.0, 8.0, size=6)
    q, _ = np.linalg.qr(rng.normal(size=(6, 6)))
    a = (q * 2.0 ** (-rates)) @ q.T
    assert abs(trace_log2(a) / 6 + float(np.mean(rates))) < 1e-9


def test_tradeoff_spec_validation():
    good = dict(rate=4.0, delta=0.5, code_length=16,
                mmse=mmse_from_rate(4.0, 16), crlb=np.diag([1.0]),
                n_targets=1, weight=0.5)
    TradeoffSpec(**good)
    for bad in (dict(delta=0.0), dict(weight=1.5), dict(code_length=0),
                dict(n_targets=-1)):
        with pytest.raises(ValueError):
            TradeoffSpec(**{**good, **bad})


def test_jrc_objective_pure_comm_equals_negative_effective_rate():
    spec = TradeoffSpec(rate=5.0, delta=0.4, code_length=32,
                        mmse=mmse_from_rate(5.0, 32), crlb=np.diag([1.0]),
                        n_targets=0, weight=1.0)
    assert jrc_objective(spec) == pytest.approx(-2.0, abs=1e-12)


def test_jrc_objective_affine_in_weight():
    crlb = np.diag([1e-18, 1e4, 1e-2])
    base = dict(rate=4.0, delta=0.5, code_length=16,
                mmse=mmse_from_rate(4.0, 16), crlb=crlb, n_targets=3)
    at = {w: jrc_objective(TradeoffSpec(weight=w, **base))
          for w in (0.0, 0.25, 0.5, 0.75, 1.0)}
    for w in (0.25, 0.5, 0.75):
        blended = w * at[1.0] + (1 - w) * at[0.0]
        assert abs(at[w] - blended) <= 1e-12


def test_jrc_objective_radar_term_requires_targets():
    spec = TradeoffSpec(rate=4.0, delta=0.5, code_length=16,
                        mmse=mmse_from_rate(4.0, 16), crlb=np.diag([1.0]),
                        n_targets=0, weight=0.5)
    with pytest.raises(ValueError):
        jrc_objective(spec)


# ---------------------------------------------------------------------------
# Observed-information proxy
# ---------------------------------------------------------------------------


def test_crlb_proxy_tone_frequency():
    n = 64
    amp = 1.3
    sigma2 = 0.5
    t = np.arange(n)

    def model(theta):
        return amp * np.exp(2j * np.pi * theta[0] * t)

    bound = crlb_proxy(model, [0.1], sigma2, steps=[1e-7])
    expected = sigma2 / (2 * amp ** 2 * (2 * np.pi) ** 2 * np.sum(t ** 2))
    assert bound[0, 0] == pytest.approx(expected, rel=1e-4)


def test_crlb_proxy_joint_amplitude_frequency():
    n = 32
    sigma2 = 0.25
    t = np.arange(n)

    def model(theta):
        return theta[0] * np.exp(2j * np.pi * theta[1] * t)

    bound = crlb_proxy(model, [0.8, 0.07], sigma2, steps=[1e-6, 1e-8])
    fim = np.diag([2 * n / sigma2,
                   2 * 0.8 ** 2 * (2 * np.pi) ** 2 * np.sum(t ** 2) / sigma2])
    expected = np.linalg.inv(fim)
    assert bound[0, 0] == pytest.approx(expected[0, 0], rel=1e-3)
    assert bound[1, 1] == pytest.approx(expected[1, 1], rel=1e-3)
    assert abs(bound[0, 1]) < 1e-6 * np.sqrt(bound[0, 0] * bound[1, 1])


def test_crlb_proxy_skips_a_parameter_the_model_ignores():
    # The model does not read theta[1]: its column is zero and would make
    # the Fisher matrix singular.  Its variance is unbounded, and the bound
    # on the other two is that of the call without it.
    t = np.arange(16)

    def model(theta):
        return theta[0] * np.exp(2j * np.pi * theta[2] * t)

    bound = crlb_proxy(model, [0.8, 3.0, 0.07], 0.25,
                       steps=[1e-6, 1e-3, 1e-8])
    without = crlb_proxy(lambda th: model([th[0], 0.0, th[1]]), [0.8, 0.07],
                         0.25, steps=[1e-6, 1e-8])
    assert bound.shape == (3, 3)
    assert np.array_equal(bound[np.ix_([0, 2], [0, 2])], without)
    assert bound[1, 1] == np.inf
    assert not np.any(bound[1, [0, 2]]) and not np.any(bound[[0, 2], 1])


def crlb_one_step(model_fn, theta, noise_variance, steps):
    """The proxy in one pass, sigma^2 applied with the Gram it inverts."""
    theta = np.asarray(theta, dtype=float)
    cols = []
    for i, step in enumerate(steps):
        hi, lo = theta.copy(), theta.copy()
        hi[i] += step
        lo[i] -= step
        cols.append((np.asarray(model_fn(hi), dtype=complex)
                     - np.asarray(model_fn(lo), dtype=complex)).ravel()
                    / (2.0 * step))
    jac = np.stack(cols, axis=1)
    known = np.any(jac, axis=0)
    jac = jac[:, known]
    bound = np.diag(np.where(known, 0.0, np.inf))
    bound[np.ix_(known, known)] = np.linalg.inv(
        2.0 / noise_variance * np.real(jac.conj().T @ jac))
    return bound


@pytest.mark.parametrize("ignored", [False, True],
                         ids=["all-parameters", "one-ignored"])
def test_crlb_proxy_is_one_gram_inverted_per_noise_variance(ignored):
    # One Gram serves every sigma^2: calls sharing a cache evaluate the
    # model for the first sigma^2 only and are bitwise the one-pass proxy,
    # an ignored parameter's variance infinite.
    t = np.arange(24)
    calls = []

    def model(theta):
        calls.append(theta)
        delay = 0.0 if ignored else theta[1]
        return theta[0] * np.exp(2j * np.pi * (theta[2] * t - delay * t ** 2))

    theta, steps, cache = [0.8, 3e-3, 0.07], [1e-6, 1e-6, 1e-8], {}
    for sigma2 in (1e-4, 0.25, 3.0, 7e5):
        want = crlb_one_step(model, theta, sigma2, steps)
        assert crlb_proxy(model, theta, sigma2, steps).tobytes() == \
            want.tobytes()
        del calls[:]
        assert crlb_proxy(model, theta, sigma2, steps, cache).tobytes() == \
            want.tobytes()
        assert len(calls) == (6 if sigma2 == 1e-4 else 0)
        assert bool(want[1, 1] == np.inf) is ignored


def test_crlb_proxy_validation():
    def model(theta):
        return np.exp(2j * np.pi * theta[0] * np.arange(8))

    with pytest.raises(ValueError):
        crlb_proxy(model, [0.1], 0.0, steps=[1e-6])
    with pytest.raises(ValueError):
        crlb_proxy(model, [0.1], 1.0, steps=[1e-6, 1e-6])
    with pytest.raises(ValueError):
        crlb_proxy(model, [0.1], 1.0, steps=[-1e-6])
    with pytest.raises(ValueError, match="depends on no parameter"):
        crlb_proxy(lambda theta: np.ones(8, dtype=complex), [0.1], 1.0,
                   steps=[1e-6])


# ---------------------------------------------------------------------------
# Export helpers
# ---------------------------------------------------------------------------


def test_write_af_csv_round_trip(tmp_path):
    surface = AfSurface(delays_s=np.array([-1.0, 0.0, 1.0]),
                        dopplers_hz=np.array([-0.5, 0.5]),
                        magnitude=np.array([[0.1, 0.2], [1.0, 0.9],
                                            [0.3, 0.4]]))
    path = tmp_path / "af.csv"
    write_af_csv(path, surface)
    header, rows = read_csv_rows(path)
    assert header == ["delay_s", "doppler_-0.5", "doppler_0.5"]
    assert len(rows) == 3
    got = np.array([[float(c) for c in row] for row in rows])
    assert np.array_equal(got[:, 0], surface.delays_s)
    assert np.array_equal(got[:, 1:], surface.magnitude)


def test_write_af_tensor_round_trip(tmp_path):
    surface = AfSurface(delays_s=np.array([0.0, 1.0]),
                        dopplers_hz=np.array([0.0]),
                        magnitude=np.array([[1.0], [0.25]]))
    path = tmp_path / "af.jrct"
    write_af_tensor(path, surface)
    back = read_tensor(path)
    assert np.array_equal(back, surface.magnitude.astype(complex))
    assert np.load(path).dtype == np.float64


# Traced peaks, as multiples of the surface's bytes, of the 8191 x 65
# export below (266,208 distinct values), recorded with Python 3.11 and
# numpy 2.4 on x86-64: write_af_csv 3.69, write_af_tensor 0.0013 (the
# .npy header; the float64 surface is written without a copy).  Ranking
# the cells with np.unique(..., return_inverse=True) and writing through
# a whole-surface complex128 copy read 6.74 and 2.00, above each bound.
@pytest.mark.parametrize("write, name, bound", [
    (write_af_csv, "af.csv", 4.5),
    (write_af_tensor, "af.jrct", 0.5),
], ids=["csv", "tensor"])
def test_af_export_memory_peak_is_bounded(tmp_path, write, name, bound):
    n, n_doppler = 8191, 65
    draws = np.random.default_rng(16).random((n, n_doppler))
    magnitude = (draws + draws[::-1, ::-1]) / 2
    magnitude[n // 2, n_doppler // 2] = 1.0
    surface = AfSurface(delays_s=np.arange(-(n // 2), n // 2 + 1) * 1e-9,
                        dopplers_hz=np.linspace(-1e6, 1e6, n_doppler),
                        magnitude=magnitude)
    assert np.array_equal(magnitude, magnitude[::-1, ::-1])
    tracemalloc.start()
    try:
        write(tmp_path / name, surface)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound * magnitude.nbytes


def test_write_cut_csv(tmp_path):
    path = tmp_path / "cut.csv"
    write_cut_csv(path, [0.0, 1.0, 2.0], [1.0, 0.5, 0.25], "delay_s")
    header, rows = read_csv_rows(path)
    assert header == ["delay_s", "magnitude"]
    assert [float(r[1]) for r in rows] == [1.0, 0.5, 0.25]
    with pytest.raises(ValueError):
        write_cut_csv(path, [0.0, 1.0], [1.0], "delay_s")
