"""Estimator tests: range/Doppler/angle detection, decoding, refinement,
complementary-pair sounding.

On-grid cases must come out bin-exact; the Golay profiles are checked
against hand-built convolution channels with integer arithmetic.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from jrcsim import estim
from jrcsim.channel import Scatterer, Scene
from jrcsim.estim import (DecodingError, EstimatorConfig, NonIdentifiableError,
                          golay_cef_waveform, golay_range_estimate,
                          ofdma_decode, ofdma_estimate_amplitudes,
                          ofdma_range_doppler_angle, ofdma_refine, pmcw_decode,
                          pmcw_estimate_amplitudes, pmcw_range_doppler,
                          pmcw_refine, profile_peaks)
from jrcsim.ofdma import (OfdmaConfig, build_symbol_grid, grid_capacity_bits,
                          ofdma_receive_cube)
from jrcsim.pmcw import (PmcwConfig, payload_capacity_bits, pmcw_frame_symbols,
                         pmcw_receive_cube, pmcw_schedule)
from jrcsim.sigcore import ArrayGeometry, CodeSequence, golay_pair

CHIP = 1e-9


def pmcw_config(**kwargs):
    defaults = dict(code_length=32, n_frames=8, chip_time=CHIP,
                    carrier_hz=60e9, mu_percent=100,
                    geometry=ArrayGeometry(n_tx=1, n_rx=4))
    defaults.update(kwargs)
    return PmcwConfig(**defaults)


def pmcw_cube_for(scatterers, *, mu=100, m=8, noise=0.0, rng=None, seed=0,
                  bits=None, order=2, code=None):
    if code is None:
        code = CodeSequence.random_binary(32, seed=seed, chip_duration=CHIP)
    config = pmcw_config(mu_percent=mu, n_frames=m,
                         code_length=code.length)
    sched = pmcw_schedule(config)
    if bits is None:
        bits = np.zeros(payload_capacity_bits(sched, order), dtype=int)
    symbols = pmcw_frame_symbols(sched, bits, order)
    scene = Scene(scatterers=tuple(scatterers), noise_variance=noise)
    cube = pmcw_receive_cube(scene, config, code, symbols, rng=rng)
    return cube, code, symbols, bits


def ofdma_config(**kwargs):
    defaults = dict(n_subcarriers=32, n_symbols=8,
                    subcarrier_spacing_hz=62.5e6, carrier_hz=60e9,
                    cp_samples=8, mu_percent=50, pilot_seed=1,
                    geometry=ArrayGeometry(n_tx=1, n_rx=4))
    defaults.update(kwargs)
    return OfdmaConfig(**defaults)


def ofdma_cube_for(scatterers, *, config=None, noise=0.0, rng=None,
                   bits=None):
    config = config or ofdma_config()
    if bits is None:
        bits = np.zeros(grid_capacity_bits(config), dtype=int)
    grid = build_symbol_grid(config, bits)
    scene = Scene(scatterers=tuple(scatterers), noise_variance=noise)
    cube = ofdma_receive_cube(scene, config, grid, rng=rng)
    return cube, grid, bits


# ---------------------------------------------------------------------------
# EstimatorConfig and generic peak picking
# ---------------------------------------------------------------------------


def test_estimator_config_validation():
    with pytest.raises(ValueError):
        EstimatorConfig(range_pad=0)
    with pytest.raises(ValueError):
        EstimatorConfig(threshold_db=0.0)
    with pytest.raises(ValueError):
        EstimatorConfig(max_targets=0)


def test_estimator_config_refined():
    est = EstimatorConfig(range_pad=2, doppler_pad=1, angle_pad=1)
    fine = est.refined(4)
    assert (fine.range_pad, fine.doppler_pad, fine.angle_pad) == (8, 4, 4)
    assert fine.threshold_db == est.threshold_db
    with pytest.raises(ValueError):
        est.refined(0)


def test_estimator_config_integral_fields():
    est = EstimatorConfig(range_pad=2.0, doppler_pad=np.int64(3),
                          angle_pad=1.0, max_targets=2.0)
    for name, want in (("range_pad", 2), ("doppler_pad", 3),
                       ("angle_pad", 1), ("max_targets", 2)):
        assert getattr(est, name) == want
        assert type(getattr(est, name)) is int
    fine = est.refined(8)
    assert (fine.range_pad, fine.doppler_pad) == (16, 24)
    assert type(fine.range_pad) is int
    assert type(est.refined(2.0).range_pad) is int


@pytest.mark.parametrize("field", ["range_pad", "doppler_pad", "angle_pad",
                                   "max_targets"])
@pytest.mark.parametrize("value", [1.5, 0.0, -1, float("nan"), float("inf"),
                                   "2", None])
def test_estimator_config_rejects_non_integers(field, value):
    with pytest.raises(ValueError, match=field):
        EstimatorConfig(**{field: value})


@pytest.mark.parametrize("factor", [1.5, 0, float("nan"), "8"])
def test_estimator_config_refined_rejects_non_integer_factor(factor):
    with pytest.raises(ValueError, match="factor"):
        EstimatorConfig().refined(factor)


def test_profile_peaks_orders_and_thresholds():
    profile = np.array([0.0, 4.0, 0.0, 9.0, 0.0, 1.0, 0.0])
    assert profile_peaks(profile, max_peaks=3, threshold_db=-40.0) == [3, 1, 5]
    # 4^2/9^2 is -7 dB, 1/81 is -19 dB: the default -13 dB keeps two peaks.
    assert profile_peaks(profile, max_peaks=3) == [3, 1]


def test_profile_peaks_tie_breaks_low_index():
    profile = np.array([0.0, 2.0, 0.0, 2.0, 0.0])
    assert profile_peaks(profile, max_peaks=2) == [1, 3]


def test_profile_peaks_all_zero():
    assert profile_peaks(np.zeros(8)) == []


def test_profile_peaks_plateau_counts_once_per_cell():
    # Non-strict comparison admits both plateau cells; order is by index.
    profile = np.array([0.0, 3.0, 3.0, 0.0])
    assert profile_peaks(profile, max_peaks=4) == [1, 2]


# ---------------------------------------------------------------------------
# Continuous-wave (code-domain) estimation
# ---------------------------------------------------------------------------


def test_pmcw_on_grid_exact_bins():
    config = pmcw_config()
    f_true = 2 / (8 * config.block_time)
    target = Scatterer(delay_s=5 * CHIP, doppler_hz=f_true,
                       angle_rad=np.arcsin(0.5), amplitude=1.0)
    cube, code, symbols, _ = pmcw_cube_for([target])
    result = pmcw_range_doppler(cube, code)
    assert len(result.targets) == 1
    t = result.targets[0]
    assert t.delay_bin == 5
    assert t.doppler_bin == 2
    assert t.angle_bin == 1
    assert t.delay_s == pytest.approx(5 * CHIP)
    assert t.doppler_hz == pytest.approx(f_true)
    assert t.angle_rad == pytest.approx(np.arcsin(0.5), abs=1e-12)


def test_pmcw_result_axes():
    cube, code, _, _ = pmcw_cube_for(
        [Scatterer(delay_s=0.0, amplitude=1.0)])
    result = pmcw_range_doppler(cube, code)
    assert result.power.shape == (8, 32)
    assert np.allclose(result.delays_s, np.arange(32) * CHIP)
    t_b = 32 * CHIP
    assert result.dopplers_hz[0] == 0.0
    assert result.dopplers_hz[4] == pytest.approx(-4 / (8 * t_b))


def test_pmcw_negative_doppler_wraps():
    config = pmcw_config()
    f_true = -2 / (8 * config.block_time)
    cube, code, _, _ = pmcw_cube_for(
        [Scatterer(delay_s=3 * CHIP, doppler_hz=f_true, amplitude=1.0)])
    t = pmcw_range_doppler(cube, code).targets[0]
    assert t.doppler_bin == -2
    assert t.doppler_hz == pytest.approx(f_true)


def test_pmcw_delay_near_block_edge():
    cube, code, _, _ = pmcw_cube_for(
        [Scatterer(delay_s=31 * CHIP, amplitude=1.0)])
    t = pmcw_range_doppler(cube, code).targets[0]
    assert t.delay_bin == 31


def test_pmcw_two_targets_sorted_by_power():
    config = pmcw_config()
    f1 = 1 / (8 * config.block_time)
    targets = [Scatterer(delay_s=4 * CHIP, doppler_hz=0.0, amplitude=0.5),
               Scatterer(delay_s=20 * CHIP, doppler_hz=f1, amplitude=1.0)]
    cube, code, _, _ = pmcw_cube_for(targets)
    est = EstimatorConfig(max_targets=2, threshold_db=-30.0)
    found = pmcw_range_doppler(cube, code, est).targets
    assert len(found) == 2
    assert found[0].delay_bin == 20 and found[0].doppler_bin == 1
    assert found[1].delay_bin == 4 and found[1].doppler_bin == 0
    assert found[0].power > found[1].power


def test_pmcw_threshold_suppresses_weak_target():
    # An m-sequence keeps the periodic sidelobes at exactly -1/L, so the
    # weak echo at -20 dB sits between the two thresholds.
    code = CodeSequence.mseq(5, chip_duration=CHIP)
    targets = [Scatterer(delay_s=4 * CHIP, amplitude=1.0),
               Scatterer(delay_s=20 * CHIP, amplitude=0.1)]
    cube, _, _, _ = pmcw_cube_for(targets, code=code)
    strict = pmcw_range_doppler(cube, code,
                                EstimatorConfig(max_targets=4,
                                                threshold_db=-13.0))
    loose = pmcw_range_doppler(cube, code,
                               EstimatorConfig(max_targets=2,
                                               threshold_db=-40.0))
    assert len(strict.targets) == 1
    assert strict.targets[0].delay_bin == 4
    assert [t.delay_bin for t in loose.targets] == [4, 20]


def test_pmcw_constant_phase_invariance():
    from dataclasses import replace
    config = pmcw_config()
    f_true = 3 / (8 * config.block_time)
    cube, code, _, _ = pmcw_cube_for(
        [Scatterer(delay_s=7 * CHIP, doppler_hz=f_true, amplitude=1.0)])
    base = pmcw_range_doppler(cube, code).targets[0]
    rotated = replace(cube, data=cube.data * np.exp(1j * 0.87))
    rot = pmcw_range_doppler(rotated, code).targets[0]
    assert (rot.delay_bin, rot.doppler_bin, rot.angle_bin) == \
        (base.delay_bin, base.doppler_bin, base.angle_bin)
    assert rot.doppler_hz == base.doppler_hz


def test_pmcw_non_identifiable_at_mu_zero():
    cube, code, _, _ = pmcw_cube_for(
        [Scatterer(delay_s=5 * CHIP, amplitude=1.0)], mu=0)
    with pytest.raises(NonIdentifiableError):
        pmcw_range_doppler(cube, code)


def test_pmcw_detection_uses_only_radar_frames():
    # Random data symbols on the comm frames must not disturb detection.
    rng = np.random.default_rng(5)
    config = pmcw_config(mu_percent=50)
    bits = rng.integers(0, 2, size=4)
    cube, code, symbols, _ = pmcw_cube_for(
        [Scatterer(delay_s=9 * CHIP, amplitude=1.0)], mu=50,
        bits=bits)
    t = pmcw_range_doppler(cube, code).targets[0]
    assert t.delay_bin == 9 and t.doppler_bin == 0


def test_pmcw_amplitude_recovery_least_squares():
    config = pmcw_config()
    f_true = 2 / (8 * config.block_time)
    d_true = 0.8 - 0.6j
    cube, code, symbols, _ = pmcw_cube_for(
        [Scatterer(delay_s=5 * CHIP, doppler_hz=f_true,
                   angle_rad=np.arcsin(0.5), amplitude=d_true)])
    targets = pmcw_range_doppler(cube, code).targets
    d_hat = pmcw_estimate_amplitudes(cube, code, targets, symbols,
                                     np.arange(8))
    assert d_hat[0] == pytest.approx(d_true, abs=1e-10)


def test_pmcw_detection_amplitude_static_target():
    d_true = 0.5 + 0.3j
    cube, code, _, _ = pmcw_cube_for(
        [Scatterer(delay_s=5 * CHIP, doppler_hz=0.0, amplitude=d_true)])
    t = pmcw_range_doppler(cube, code).targets[0]
    assert t.amplitude == pytest.approx(d_true, abs=1e-10)


def test_pmcw_decode_round_trip():
    rng = np.random.default_rng(8)
    bits = rng.integers(0, 2, size=4)
    config = pmcw_config(mu_percent=50)
    f_true = 1 / (4 * config.block_time)  # on the radar-block grid
    cube, code, symbols, _ = pmcw_cube_for(
        [Scatterer(delay_s=5 * CHIP, doppler_hz=f_true, amplitude=1.0)],
        mu=50, bits=bits)
    targets = pmcw_range_doppler(cube, code).targets
    decoded, proj, full = pmcw_decode(cube, code, targets)
    assert np.array_equal(decoded, bits)
    assert np.allclose(full, symbols, atol=1e-9)
    assert np.allclose(np.abs(proj), 1.0, atol=1e-6)


def test_pmcw_decode_needs_targets_and_radar_frames():
    cube, code, _, _ = pmcw_cube_for(
        [Scatterer(delay_s=5 * CHIP, amplitude=1.0)], mu=50)
    with pytest.raises(DecodingError):
        pmcw_decode(cube, code, ())
    cube0, code0, _, _ = pmcw_cube_for(
        [Scatterer(delay_s=5 * CHIP, amplitude=1.0)], mu=0)
    fake = pmcw_range_doppler(cube, code).targets
    with pytest.raises(DecodingError):
        pmcw_decode(cube0, code0, fake)


def test_pmcw_decode_all_radar_returns_empty_bits():
    cube, code, symbols, _ = pmcw_cube_for(
        [Scatterer(delay_s=5 * CHIP, amplitude=1.0)], mu=100)
    targets = pmcw_range_doppler(cube, code).targets
    bits, proj, full = pmcw_decode(cube, code, targets)
    assert bits.size == 0 and proj.size == 0
    assert np.allclose(full, 1.0)


def test_pmcw_refine_recovers_after_decode():
    rng = np.random.default_rng(9)
    bits = rng.integers(0, 2, size=4)
    config = pmcw_config(mu_percent=50)
    f_true = 1 / (4 * config.block_time)
    cube, code, symbols, _ = pmcw_cube_for(
        [Scatterer(delay_s=12 * CHIP, doppler_hz=f_true, amplitude=1.0)],
        mu=50, bits=bits)
    est = EstimatorConfig()
    targets = pmcw_range_doppler(cube, code, est).targets
    _, _, full = pmcw_decode(cube, code, targets)
    refined = pmcw_refine(cube, code, full, est).targets[0]
    assert refined.delay_bin == 12
    assert refined.doppler_hz == pytest.approx(f_true)


def test_pmcw_interpolation_tightens_off_grid_doppler():
    config = pmcw_config()
    bin_hz = 1 / (8 * config.block_time)
    f_true = 2.3 * bin_hz
    cube, code, _, _ = pmcw_cube_for(
        [Scatterer(delay_s=5 * CHIP, doppler_hz=f_true, amplitude=1.0)])
    coarse = pmcw_range_doppler(
        cube, code, EstimatorConfig(interpolate=False)).targets[0]
    interp = pmcw_range_doppler(
        cube, code, EstimatorConfig(interpolate=True)).targets[0]
    assert abs(interp.doppler_hz - f_true) < abs(coarse.doppler_hz - f_true)
    assert abs(interp.doppler_hz - f_true) < 0.5 * bin_hz


# ---------------------------------------------------------------------------
# Multicarrier (subcarrier-domain) estimation
# ---------------------------------------------------------------------------


def test_ofdma_on_grid_exact_bins():
    config = ofdma_config()
    t_s = config.sample_time
    f_true = 3 / (8 * config.symbol_duration)
    target = Scatterer(delay_s=5 * t_s, doppler_hz=f_true,
                       angle_rad=np.arcsin(0.5), amplitude=1.0)
    cube, grid, _ = ofdma_cube_for([target])
    result = ofdma_range_doppler_angle(cube, grid)
    assert len(result.targets) == 1
    t = result.targets[0]
    assert t.delay_bin == 5
    assert t.doppler_bin == 3
    assert t.angle_bin == 1
    assert t.delay_s == pytest.approx(5 * t_s)
    assert t.doppler_hz == pytest.approx(f_true)
    assert t.angle_rad == pytest.approx(np.arcsin(0.5), abs=1e-12)


def test_ofdma_result_axes_limited_to_comb_window():
    # mu=50 pilots sit every other row: the unambiguous window is 16 bins.
    cube, grid, _ = ofdma_cube_for(
        [Scatterer(delay_s=0.0, amplitude=1.0)])
    result = ofdma_range_doppler_angle(cube, grid)
    assert result.power.shape == (16, 8)
    t_s = cube.config.sample_time
    assert np.allclose(result.delays_s, np.arange(16) * t_s)


def test_ofdma_delay_beyond_window_aliases():
    config = ofdma_config(cp_samples=24)
    t_s = config.sample_time
    cube, grid, _ = ofdma_cube_for(
        [Scatterer(delay_s=19 * t_s, amplitude=1.0)], config=config)
    t = ofdma_range_doppler_angle(cube, grid).targets[0]
    assert t.delay_bin == 3  # 19 mod 16


def test_ofdma_negative_doppler_wraps():
    config = ofdma_config()
    f_true = -2 / (8 * config.symbol_duration)
    cube, grid, _ = ofdma_cube_for(
        [Scatterer(delay_s=2 * config.sample_time, doppler_hz=f_true,
                   amplitude=1.0)])
    t = ofdma_range_doppler_angle(cube, grid).targets[0]
    assert t.doppler_bin == -2
    assert t.doppler_hz == pytest.approx(f_true)


def test_ofdma_negative_angle():
    config = ofdma_config()
    cube, grid, _ = ofdma_cube_for(
        [Scatterer(delay_s=2 * config.sample_time,
                   angle_rad=np.arcsin(-0.5), amplitude=1.0)])
    t = ofdma_range_doppler_angle(cube, grid).targets[0]
    assert t.angle_bin == -1
    assert t.angle_rad == pytest.approx(np.arcsin(-0.5), abs=1e-12)


def test_ofdma_two_targets():
    config = ofdma_config(cp_samples=24)
    t_s = config.sample_time
    f1 = 2 / (8 * config.symbol_duration)
    cube, grid, _ = ofdma_cube_for(
        [Scatterer(delay_s=3 * t_s, doppler_hz=0.0, amplitude=1.0),
         Scatterer(delay_s=11 * t_s, doppler_hz=f1, amplitude=0.5)],
        config=config)
    est = EstimatorConfig(max_targets=2, threshold_db=-30.0)
    found = ofdma_range_doppler_angle(cube, grid, est).targets
    assert len(found) == 2
    assert (found[0].delay_bin, found[0].doppler_bin) == (3, 0)
    assert (found[1].delay_bin, found[1].doppler_bin) == (11, 2)


def test_ofdma_non_identifiable_without_pilots():
    config = ofdma_config(mu_percent=0)
    cube, grid, _ = ofdma_cube_for(
        [Scatterer(delay_s=2 * config.sample_time, amplitude=1.0)],
        config=config)
    with pytest.raises(NonIdentifiableError):
        ofdma_range_doppler_angle(cube, grid)


def test_ofdma_constant_phase_invariance():
    from dataclasses import replace
    config = ofdma_config()
    f_true = 2 / (8 * config.symbol_duration)
    cube, grid, _ = ofdma_cube_for(
        [Scatterer(delay_s=4 * config.sample_time, doppler_hz=f_true,
                   amplitude=1.0)])
    base = ofdma_range_doppler_angle(cube, grid).targets[0]
    rotated = replace(cube, data=cube.data * np.exp(1j * 1.91))
    rot = ofdma_range_doppler_angle(rotated, grid).targets[0]
    assert (rot.delay_bin, rot.doppler_bin, rot.angle_bin) == \
        (base.delay_bin, base.doppler_bin, base.angle_bin)
    assert rot.doppler_hz == base.doppler_hz


def test_ofdma_amplitude_recovery():
    config = ofdma_config()
    d_true = -0.7 + 0.2j
    f_true = 1 / (8 * config.symbol_duration)
    cube, grid, _ = ofdma_cube_for(
        [Scatterer(delay_s=6 * config.sample_time, doppler_hz=f_true,
                   angle_rad=np.arcsin(0.5), amplitude=d_true)])
    targets = ofdma_range_doppler_angle(cube, grid).targets
    assert targets[0].amplitude == pytest.approx(d_true, abs=1e-10)
    d_hat = ofdma_estimate_amplitudes(cube, grid, targets)
    assert d_hat[0] == pytest.approx(d_true, abs=1e-10)


def test_ofdma_decode_round_trip():
    config = ofdma_config()
    rng = np.random.default_rng(14)
    bits = rng.integers(0, 2, size=grid_capacity_bits(config))
    f_true = 2 / (8 * config.symbol_duration)
    cube, grid, _ = ofdma_cube_for(
        [Scatterer(delay_s=4 * config.sample_time, doppler_hz=f_true,
                   amplitude=1.0)], config=config, bits=bits)
    targets = ofdma_range_doppler_angle(cube, grid).targets
    decoded, proj, full = ofdma_decode(cube, grid, targets)
    assert np.array_equal(decoded, bits)
    assert np.allclose(full, grid.symbols, atol=1e-9)


def test_ofdma_decode_error_paths():
    cube, grid, _ = ofdma_cube_for(
        [Scatterer(delay_s=2e-10, amplitude=1.0)])
    with pytest.raises(DecodingError):
        ofdma_decode(cube, grid, ())
    config0 = ofdma_config(mu_percent=0)
    cube0, grid0, _ = ofdma_cube_for(
        [Scatterer(delay_s=2e-10, amplitude=1.0)], config=config0)
    fake = ofdma_range_doppler_angle(cube, grid).targets
    with pytest.raises(DecodingError):
        ofdma_decode(cube0, grid0, fake)


def test_ofdma_refine_with_true_symbols():
    config = ofdma_config()
    rng = np.random.default_rng(15)
    bits = rng.integers(0, 2, size=grid_capacity_bits(config))
    f_true = 3 / (8 * config.symbol_duration)
    cube, grid, _ = ofdma_cube_for(
        [Scatterer(delay_s=7 * config.sample_time, doppler_hz=f_true,
                   amplitude=1.0)], config=config, bits=bits)
    est = EstimatorConfig()
    result = ofdma_refine(cube, grid.symbols, est)
    # Every row is known, so the delay window spans all 32 subcarrier bins.
    assert result.power.shape == (32, 8)
    refined = result.targets[0]
    assert refined.delay_bin == 7
    assert refined.doppler_bin == 3
    with pytest.raises(ValueError):
        ofdma_refine(cube, grid.symbols[:4], est)


def test_ofdma_interpolation_tightens_off_grid_delay():
    config = ofdma_config()
    t_s = config.sample_time
    true_delay = 5.7 * t_s
    cube, grid, _ = ofdma_cube_for(
        [Scatterer(delay_s=true_delay, amplitude=1.0)], config=config)
    coarse = ofdma_range_doppler_angle(
        cube, grid, EstimatorConfig(interpolate=False)).targets[0]
    interp = ofdma_range_doppler_angle(
        cube, grid, EstimatorConfig(interpolate=True)).targets[0]
    assert abs(interp.delay_s - true_delay) < abs(coarse.delay_s - true_delay)

# ---------------------------------------------------------------------------
# Windowed refinement against the full padded grid
# ---------------------------------------------------------------------------
#
# The oracle is the refinement as it was before the windowed search: the
# whole zero-padded map by FFT, an 8-roll local-maximum scan over all of
# it, and the top cells' bins.  The windowed search must reproduce its
# cells, and its picks inside the windows.


def oracle_pmcw_beams(cube, code, symbols, doppler_pad):
    """(Doppler, lag, element) map over all frames, Doppler padded."""
    y = cube.data * np.conj(symbols)[:, None, None]
    code_spec = np.fft.fft(code.chips())
    corr = np.fft.ifft(np.fft.fft(y, axis=1)
                       * np.conj(code_spec)[None, :, None], axis=1)
    nd = cube.config.n_frames * doppler_pad
    return np.fft.ifft(corr, n=nd, axis=0) * nd


def oracle_ofdma_beams(cube, symbols, range_pad, doppler_pad):
    """(delay, Doppler, element) map over all subcarriers, both padded."""
    x = cube.data * np.conj(symbols)[:, :, None]
    nr = cube.config.n_subcarriers * range_pad
    prof = np.fft.ifft(x, n=nr, axis=0) * nr
    return np.fft.fft(prof, n=cube.config.n_symbols * doppler_pad, axis=1)


def pmcw_windows(cube, code, symbols, est):
    """(pad-1 power, windows, layout) of one cube's PMCW refinement, run
    as a stack of one."""
    power, windows, lay = estim._pmcw_windows(
        cube.data[None], np.fft.fft(code.chips()), cube.config,
        np.asarray(symbols)[None], est)
    return power[0], windows, lay


def ofdma_windows(cube, symbols, est):
    """(pad-1 power, windows, layout) of one cube's OFDMA refinement, run
    as a stack of one."""
    power, windows, lay = estim._ofdma_windows(
        cube.data[None], np.asarray(symbols)[None], cube.config, est)
    return power[0], windows, lay


def oracle_local_max(power, wrap, rows=(-1, 0, 1), cols=(-1, 0, 1)):
    """Cells >= all 8 neighbours, by rolling the whole map.

    ``rows`` and ``cols`` restrict the roll offsets (neighbour sides)
    compared.
    """
    ok = np.ones(power.shape, dtype=bool)
    for dr in rows:
        for dc in cols:
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
    return ok


def oracle_peaks(power, max_peaks, threshold_db, wrap, allowed=None,
                 reference=None):
    """Strongest local maxima above the threshold, ties to the lowest bin.

    ``allowed`` restricts the candidates (not the neighbour test);
    ``reference`` is the power the threshold is relative to.
    """
    peak = float(power.max()) if reference is None else reference
    ok = oracle_local_max(power, wrap) & (
        power >= peak * 10.0 ** (threshold_db / 10.0))
    if allowed is not None:
        ok &= allowed
    cells = sorted(map(tuple, np.argwhere(ok)),
                   key=lambda c: (-power[c], c[0], c[1]))
    return cells[:max_peaks]


def oracle_seeds(power, pads, threshold_db, wrap):
    """Cells above the threshold that are >= their neighbours on both
    sides of each unpadded axis, and on one side of each padded axis."""
    sides = [[(-1, 0, 1)] if p == 1 else [(-1, 0), (0, 1)] for p in pads]
    ok = np.zeros(power.shape, dtype=bool)
    for rows in sides[0]:
        for cols in sides[1]:
            ok |= oracle_local_max(power, wrap, rows, cols)
    ok &= power >= power.max() * 10.0 ** (threshold_db / 10.0)
    return [tuple(c) for c in np.argwhere(ok)]


def oracle_window_mask(seeds, pads, shape, wrap, guard):
    """Cells within +-(pad + guard) fine bins of some seed's fine bin."""
    mask = np.zeros(shape, dtype=bool)
    for seed in seeds:
        axes = []
        for s, p, n, w in zip(seed, pads, shape, wrap):
            raw = s * p + np.arange(-p - guard, p + guard + 1)
            axes.append(raw % n if w else raw[(raw >= 0) & (raw < n)])
        mask[np.ix_(*axes)] = True
    return mask


def oracle_bins(beams, cells, est, lay):
    """(delay_bin, doppler_bin, angle_bin) of full-grid peak cells."""
    ka = 1 - lay.delay_axis
    out = []
    for cell in cells:
        _, abin = estim._angle_from_snapshot(
            beams[cell], lay.spacing, est.angle_pad, lay.phase_sign,
            est.interpolate)
        out.append((int(cell[lay.delay_axis]),
                    estim._wrap_bin(int(cell[ka]), beams.shape[ka]), abin))
    return out


def oracle_refine_bins(beams, est, lay):
    """The full-grid refinement's target bins."""
    power = np.sum(np.abs(beams) ** 2, axis=2)
    return oracle_bins(beams, oracle_peaks(power, est.max_targets,
                                           est.threshold_db, lay.wrap),
                       est, lay)


def refine_bins(targets):
    return [(t.delay_bin, t.doppler_bin, t.angle_bin) for t in targets]


def check_against_oracle(beams, windows, lay, est, pads, strict):
    """Compare one windowed refinement with the full-grid oracle.

    Checks the window geometry and every window cell, then the refined
    bins against the oracle restricted to the windows and, when
    ``strict``, against the unrestricted oracle on its first ``strict``
    targets.
    """
    power = np.sum(np.abs(beams) ** 2, axis=2)
    seed_map = power[::pads[0], ::pads[1]]
    seeds = oracle_seeds(seed_map, pads, est.threshold_db, lay.wrap)
    stacked_bins, stacked_power, stacked_beams, owner = windows
    assert len(stacked_power) == len(seeds)
    assert np.all(owner == 0)
    scale = power.max()
    for i, seed in enumerate(seeds):
        bins = (stacked_bins[0][i], stacked_bins[1][i])
        for axis in (0, 1):
            p, n = pads[axis], power.shape[axis]
            raw = seed[axis] * p + np.arange(-p - 1, p + 2)
            want = raw % n if lay.wrap[axis] else np.where(
                (raw >= 0) & (raw < n), raw, -1)
            assert np.array_equal(bins[axis], want)
        valid = np.outer(bins[0] >= 0, bins[1] >= 0)
        assert np.all(stacked_power[i][~valid] == -np.inf)
        np.testing.assert_allclose(
            stacked_power[i][valid], power[np.ix_(*bins)][valid],
            rtol=1e-12, atol=1e-12 * scale)
        np.testing.assert_allclose(
            stacked_beams[i][valid], beams[np.ix_(*bins)][valid],
            rtol=1e-12, atol=1e-12 * np.sqrt(scale))

    targets = estim._window_targets(windows, 1, est, lay)[0]
    if seeds:
        in_windows = oracle_window_mask(seeds, pads, power.shape, lay.wrap, 0)
        guarded = oracle_window_mask(seeds, pads, power.shape, lay.wrap, 1)
        restricted = oracle_peaks(power, est.max_targets, est.threshold_db,
                                  lay.wrap, allowed=in_windows,
                                  reference=float(power[guarded].max()))
    else:
        restricted = []
    assert refine_bins(targets) == oracle_bins(beams, restricted, est, lay)
    if strict:
        assert refine_bins(targets)[:strict] == \
            oracle_refine_bins(beams, est, lay)[:strict]
    return targets


def cyclic_gap(a, b, n):
    d = abs(a - b)
    return min(d, n - d)


def oracle_scene(rng, n_scatterers, snr_db, *, delay, doppler):
    """Scatterers of falling strength with random delay/Doppler/angle."""
    amps = [0.8 ** q * np.exp(2j * np.pi * rng.uniform())
            for q in range(n_scatterers)]
    scatterers = [Scatterer(delay_s=delay(rng), doppler_hz=doppler(rng),
                            angle_rad=rng.uniform(-0.9, 0.9), amplitude=a)
                  for a in amps]
    noise = sum(abs(a) ** 2 for a in amps) / 10.0 ** (snr_db / 10.0)
    return scatterers, noise


def strict_count(unpadded, snr_db, shape):
    """How many leading targets must match the unrestricted oracle.

    One for a single scatterer at SNR >= 0 dB.  All of them for scatterers
    at least 3 unpadded bins apart on some axis, cyclically: both axes of
    a refinement map wrap.
    """
    if len(unpadded) == 1:
        return 1 if snr_db >= 0 else 0
    for i, a in enumerate(unpadded):
        for b in unpadded[i + 1:]:
            gaps = [cyclic_gap(x, y, n) for x, y, n in zip(a, b, shape)]
            if max(gaps) < 3:
                return 0
    return len(unpadded)


refine_cases = dict(
    seed=st.integers(0, 2 ** 32 - 1),
    range_pad=st.integers(1, 8), doppler_pad=st.integers(1, 8),
    angle_pad=st.integers(1, 4), interpolate=st.booleans(),
    max_targets=st.integers(1, 3), n_scatterers=st.integers(1, 3),
    snr_db=st.floats(-5.0, 30.0))


@settings(max_examples=80, deadline=None)
@given(**refine_cases)
# The strong target sits near the Doppler Nyquist bin, and its range
# sidelobes lift that row above the weak target, which falls halfway
# between two pad-1 Doppler bins: its fine peak is only next to a flank.
@example(seed=219, range_pad=1, doppler_pad=2, angle_pad=1,
         interpolate=False, max_targets=1, n_scatterers=2, snr_db=0.0)
def test_pmcw_windowed_refine_matches_full_grid(
        seed, range_pad, doppler_pad, angle_pad, interpolate, max_targets,
        n_scatterers, snr_db):
    rng = np.random.default_rng(seed)
    t_b = 32 * CHIP
    scatterers, noise = oracle_scene(
        rng, n_scatterers, snr_db,
        delay=lambda r: int(r.integers(0, 32)) * CHIP,
        doppler=lambda r: r.uniform(-0.5, 0.5) / t_b)
    bits = rng.integers(0, 2, size=4)
    cube, code, symbols, _ = pmcw_cube_for(
        scatterers, mu=50, noise=noise, rng=rng, seed=seed % 1000, bits=bits)
    est = EstimatorConfig(range_pad=range_pad, doppler_pad=doppler_pad,
                          angle_pad=angle_pad, interpolate=interpolate,
                          max_targets=max_targets)
    power, windows, lay = pmcw_windows(cube, code, symbols, est)
    beams = oracle_pmcw_beams(cube, code, symbols, doppler_pad)
    np.testing.assert_allclose(power, np.sum(np.abs(beams[::doppler_pad])
                                             ** 2, axis=2), rtol=1e-12)
    unpadded = [(sc.doppler_hz * 8 * t_b, round(sc.delay_s / CHIP))
                for sc in scatterers]
    targets = check_against_oracle(
        beams, windows, lay, est, (doppler_pad, 1),
        strict_count(unpadded, snr_db, (8, 32)))
    assert refine_bins(pmcw_refine(cube, code, symbols, est).targets) == \
        refine_bins(targets)


@settings(max_examples=80, deadline=None)
@given(**refine_cases)
def test_ofdma_windowed_refine_matches_full_grid(
        seed, range_pad, doppler_pad, angle_pad, interpolate, max_targets,
        n_scatterers, snr_db):
    rng = np.random.default_rng(seed)
    config = ofdma_config()
    t_s, t_sym = config.sample_time, config.symbol_duration
    scatterers, noise = oracle_scene(
        rng, n_scatterers, snr_db,
        delay=lambda r: r.uniform(0.0, 8.0) * t_s,
        doppler=lambda r: r.uniform(-0.5, 0.5) / t_sym)
    bits = rng.integers(0, 2, size=grid_capacity_bits(config))
    cube, grid, _ = ofdma_cube_for(scatterers, config=config, noise=noise,
                                   rng=rng, bits=bits)
    est = EstimatorConfig(range_pad=range_pad, doppler_pad=doppler_pad,
                          angle_pad=angle_pad, interpolate=interpolate,
                          max_targets=max_targets)
    power, windows, lay = ofdma_windows(cube, grid.symbols, est)
    beams = oracle_ofdma_beams(cube, grid.symbols, range_pad, doppler_pad)
    np.testing.assert_allclose(
        power, np.sum(np.abs(beams[::range_pad, ::doppler_pad]) ** 2, axis=2),
        rtol=1e-12)
    unpadded = [(sc.delay_s / t_s, sc.doppler_hz * 8 * t_sym)
                for sc in scatterers]
    targets = check_against_oracle(
        beams, windows, lay, est, (range_pad, doppler_pad),
        strict_count(unpadded, snr_db, (32, 8)))
    assert refine_bins(ofdma_refine(cube, grid.symbols, est).targets) == \
        refine_bins(targets)


REFINE8 = EstimatorConfig().refined(8)


def pmcw_refined_vs_full_grid(scatterers, est=REFINE8):
    """(refined result, full-grid target bins) of a noiseless PMCW cube
    refined with its true frame symbols."""
    cube, code, symbols, _ = pmcw_cube_for(scatterers, mu=50,
                                           bits=np.array([1, 0, 0, 1]))
    result = pmcw_refine(cube, code, symbols, est)
    lay = pmcw_windows(cube, code, symbols, est)[2]
    beams = oracle_pmcw_beams(cube, code, symbols, est.doppler_pad)
    return result, oracle_refine_bins(beams, est, lay)


def ofdma_refined_vs_full_grid(scatterers, est=REFINE8):
    """(refined result, full-grid target bins) of a noiseless OFDMA cube
    refined with its true symbol grid."""
    config = ofdma_config()
    bits = np.random.default_rng(3).integers(0, 2, grid_capacity_bits(config))
    cube, grid, _ = ofdma_cube_for(scatterers, config=config, bits=bits)
    result = ofdma_refine(cube, grid.symbols, est)
    lay = ofdma_windows(cube, grid.symbols, est)[2]
    beams = oracle_ofdma_beams(cube, grid.symbols, est.range_pad,
                               est.doppler_pad)
    return result, oracle_refine_bins(beams, est, lay)


def test_pmcw_refine_pad8_off_grid_nearest_fine_bin():
    t_b = 32 * CHIP
    result, full = pmcw_refined_vs_full_grid(
        [Scatterer(delay_s=5 * CHIP, doppler_hz=2.3 / (8 * t_b),
                   amplitude=1.0)])
    t = result.targets[0]
    assert (t.delay_bin, t.doppler_bin) == (5, 18)  # 2.3 * 8 = 18.4
    assert refine_bins(result.targets) == full
    # The refined result carries the pad-1 map and its axes.
    assert result.power.shape == (8, 32)
    assert result.dopplers_hz[1] == pytest.approx(1 / (8 * t_b))


def test_ofdma_refine_pad8_off_grid_nearest_fine_bin():
    config = ofdma_config()
    result, full = ofdma_refined_vs_full_grid(
        [Scatterer(delay_s=5.7 * config.sample_time,
                   doppler_hz=1.3 / (8 * config.symbol_duration),
                   amplitude=1.0)])
    t = result.targets[0]
    assert (t.delay_bin, t.doppler_bin) == (46, 10)  # 45.6 and 10.4
    assert refine_bins(result.targets) == full
    assert result.power.shape == (32, 8)
    assert result.delays_s[1] == pytest.approx(config.sample_time)


def test_pmcw_refine_pad8_two_targets():
    t_b = 32 * CHIP
    est = replace(REFINE8, max_targets=2)
    result, full = pmcw_refined_vs_full_grid(
        [Scatterer(delay_s=4 * CHIP, doppler_hz=1.4 / (8 * t_b),
                   angle_rad=0.2, amplitude=1.0),
         Scatterer(delay_s=20 * CHIP, doppler_hz=-2.6 / (8 * t_b),
                   angle_rad=-0.4, amplitude=0.7)], est)
    assert [(t.delay_bin, t.doppler_bin) for t in result.targets] == \
        [(4, 11), (20, -21)]
    assert refine_bins(result.targets) == full


def test_ofdma_refine_pad8_two_targets():
    config = ofdma_config()
    t_s, t_sym = config.sample_time, config.symbol_duration
    est = replace(REFINE8, max_targets=2)
    result, full = ofdma_refined_vs_full_grid(
        [Scatterer(delay_s=2.3 * t_s, doppler_hz=1.2 / (8 * t_sym),
                   angle_rad=0.2, amplitude=1.0),
         Scatterer(delay_s=6.6 * t_s, doppler_hz=-2.4 / (8 * t_sym),
                   angle_rad=-0.4, amplitude=0.7)], est)
    assert [(t.delay_bin, t.doppler_bin) for t in result.targets] == \
        [(18, 10), (53, -19)]
    assert refine_bins(result.targets) == full


@pytest.mark.parametrize("interpolate", [False, True])
def test_ofdma_refine_pad8_delay_edge_wraps(interpolate):
    config = ofdma_config()
    est = replace(REFINE8, interpolate=interpolate)
    result, full = ofdma_refined_vs_full_grid(
        [Scatterer(delay_s=0.0, doppler_hz=2 / (8 * config.symbol_duration),
                   amplitude=1.0)], est)
    t = result.targets[0]
    assert (t.delay_bin, t.doppler_bin) == (0, 16)
    assert refine_bins(result.targets) == full
    # The lobe is symmetric across the wrapped edge: no parabolic offset.
    assert t.delay_s == 0.0


@pytest.mark.parametrize("delay_samples, delay_bin", [(0.0, 0), (0.3, 2)])
def test_ofdma_no_phantom_target_at_far_delay_edge(delay_samples, delay_bin):
    # At pilot comb 1 the coarse map spans the whole delay IFFT period, so
    # a lobe straddling zero delay wraps to the last bin.  It must not
    # read as a second target there, coarse or refined.
    config = ofdma_config(mu_percent=100)
    cube, grid, _ = ofdma_cube_for(
        [Scatterer(delay_s=delay_samples * config.sample_time,
                   amplitude=1.0)], config=config)
    est = EstimatorConfig(range_pad=8, max_targets=2)
    coarse = ofdma_range_doppler_angle(cube, grid, est)
    refined = ofdma_refine(cube, grid.symbols, est)
    assert coarse.power.shape == (256, 8)
    for result in (coarse, refined):
        assert [(t.delay_bin, t.doppler_bin) for t in result.targets] == \
            [(delay_bin, 0)]


@pytest.mark.parametrize("waveform", ["pmcw", "ofdma"])
@pytest.mark.parametrize("coarse_bins, fine_bin", [(-0.1, -1), (-3.95, -32)])
def test_refine_pad8_doppler_wrap(waveform, coarse_bins, fine_bin):
    # -0.1 bins: the window round seed bin 0 spans the wrap; -3.95 bins:
    # the peak sits at the Nyquist bin, which reads as -nd/2.
    if waveform == "pmcw":
        t_b = 32 * CHIP
        result, full = pmcw_refined_vs_full_grid(
            [Scatterer(delay_s=7 * CHIP, doppler_hz=coarse_bins / (8 * t_b),
                       amplitude=1.0)])
    else:
        t_sym = ofdma_config().symbol_duration
        result, full = ofdma_refined_vs_full_grid(
            [Scatterer(delay_s=3 * ofdma_config().sample_time,
                       doppler_hz=coarse_bins / (8 * t_sym), amplitude=1.0)])
    assert result.targets[0].doppler_bin == fine_bin
    assert refine_bins(result.targets) == full


# ---------------------------------------------------------------------------
# Complementary-pair channel sounding
# ---------------------------------------------------------------------------


def test_golay_cef_waveform_layout():
    pair = golay_pair(2)
    cef = golay_cef_waveform(pair, guard=3)
    assert cef.size == 2 * (4 + 3)
    assert np.array_equal(cef[:4], pair.ga)
    assert np.count_nonzero(cef[4:7]) == 0
    assert np.array_equal(cef[7:11], pair.gb)
    with pytest.raises(ValueError):
        golay_cef_waveform(pair, guard=0)


def test_golay_single_path_peak_2n():
    pair = golay_pair(8)
    guard = 32
    cef = golay_cef_waveform(pair, guard)
    profile = golay_range_estimate(cef, pair, guard)
    assert profile[0] == 512
    assert np.count_nonzero(profile[1:]) == 0


def test_golay_delayed_path():
    pair = golay_pair(8)
    guard = 32
    cef = golay_cef_waveform(pair, guard)
    h = np.zeros(11)
    h[10] = 1.0
    rx = np.convolve(cef, h)
    profile = golay_range_estimate(rx, pair, guard)
    assert profile[10] == 512
    profile[10] = 0
    assert np.count_nonzero(profile) == 0


def test_golay_two_path_channel_exact():
    pair = golay_pair(8)
    guard = 32
    cef = golay_cef_waveform(pair, guard)
    h = np.zeros(26)
    h[0] = 1.0
    h[25] = 0.5
    rx = np.convolve(cef, h)
    profile = golay_range_estimate(rx, pair, guard)
    assert profile[0] == pytest.approx(512.0)
    assert profile[25] == pytest.approx(256.0)
    mask = np.ones(profile.size, dtype=bool)
    mask[[0, 25]] = False
    assert np.allclose(profile[mask], 0.0, atol=1e-9)


def test_golay_profile_is_scaled_impulse_response():
    # Noiseless multipath: profile == 2N * h for every delay under the guard.
    rng = np.random.default_rng(30)
    pair = golay_pair(6)
    guard = 16
    cef = golay_cef_waveform(pair, guard)
    h = np.zeros(guard + 1)
    taps = rng.choice(guard + 1, size=5, replace=False)
    h[taps] = rng.normal(size=5)
    rx = np.convolve(cef, h)
    profile = golay_range_estimate(rx, pair, guard)
    assert np.allclose(profile, 2 * pair.length * h, atol=1e-9)


def test_golay_short_input_rejected():
    pair = golay_pair(4)
    with pytest.raises(ValueError):
        golay_range_estimate(np.zeros(10), pair, guard=8)
