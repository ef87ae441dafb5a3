"""PMCW waveform tests.

The receive cube is cross-checked against a scalar triple-loop oracle that
evaluates the superposition sum sample by sample at the chip rate, with the
block-circular delay convention written out longhand.
"""

import numpy as np
import pytest

from jrcsim.channel import ReceiveCube, Scatterer, Scene
from jrcsim.config import ConfigError, parse_config
from jrcsim.pmcw import (PmcwConfig, _pmcw_response, payload_capacity_bits,
                         pmcw_frame_symbols, pmcw_receive_cube, pmcw_schedule,
                         pmcw_transmit)
from jrcsim.sigcore import ArrayGeometry, CodeSequence, dpsk_decode


def cube_oracle(scene, config, code, symbols):
    """Noiseless time-domain superposition, one sample at a time."""
    m_count, l_count = config.n_frames, config.code_length
    n_rx = config.geometry.n_rx
    chips = code.chips()
    out = np.zeros((m_count, l_count, n_rx), dtype=complex)
    fading = scene.fading_gains(0)
    for q, sc in enumerate(scene.scatterers):
        k = int(round(sc.delay_s / config.chip_time))
        f = sc.resolve_doppler(config.wavelength)
        d = complex(sc.amplitude) * fading[q]
        phase_step = -2 * np.pi * config.geometry.spacing_over_lambda \
            * np.sin(sc.angle_rad)
        for m in range(m_count):
            for ell in range(l_count):
                t = (m * l_count + ell) * config.chip_time
                echo = (d * symbols[m]
                        * np.exp(-2j * np.pi * f * t)
                        * chips[(ell - k) % l_count])
                for p in range(n_rx):
                    out[m, ell, p] += echo * np.exp(1j * phase_step * p)
    return out


def small_config(**kwargs):
    defaults = dict(code_length=16, n_frames=4, chip_time=1e-9,
                    carrier_hz=60e9, mu_percent=50,
                    geometry=ArrayGeometry(n_tx=1, n_rx=2))
    defaults.update(kwargs)
    return PmcwConfig(**defaults)


# ---------------------------------------------------------------------------
# Config and schedule
# ---------------------------------------------------------------------------


def test_config_derived_quantities():
    config = small_config()
    assert config.block_time == pytest.approx(16e-9)


def test_config_validation():
    with pytest.raises(ValueError):
        small_config(code_length=0)
    with pytest.raises(ValueError):
        small_config(mu_percent=101)
    with pytest.raises(ValueError):
        small_config(chip_time=0.0)


def test_schedule_all_radar():
    mask = pmcw_schedule(small_config(n_frames=10, mu_percent=100))
    assert mask.tolist() == [True] * 10
    assert mask.any()


def test_schedule_half_split():
    mask = pmcw_schedule(small_config(n_frames=10, mu_percent=50))
    assert mask.tolist() == [True] * 5 + [False] * 5
    assert mask.sum() == 5 and (~mask).sum() == 5


def test_schedule_no_radar_flags_non_identifiable():
    mask = pmcw_schedule(small_config(n_frames=10, mu_percent=0))
    assert mask.tolist() == [False] * 10
    assert not mask.any()


def test_schedule_rounding():
    # round(mu*M/100) with round-half-up: 25% of 10 frames -> 3 radar frames.
    mask = pmcw_schedule(small_config(n_frames=10, mu_percent=25))
    assert mask.sum() == 3


# ---------------------------------------------------------------------------
# Payload and slow-time symbols
# ---------------------------------------------------------------------------


def test_payload_capacity():
    sched = pmcw_schedule(small_config(n_frames=10, mu_percent=50))
    assert payload_capacity_bits(sched, order=2) == 5
    assert payload_capacity_bits(sched, order=4) == 10
    no_radar = pmcw_schedule(small_config(n_frames=10, mu_percent=0))
    assert payload_capacity_bits(no_radar, order=2) == 9
    # A 0/1 frame list is read as the mask it spells, not bitwise-inverted.
    assert payload_capacity_bits([1, 1, 0, 0], order=2) == 2


def test_frame_symbols_radar_frames_known():
    config = small_config(n_frames=8, mu_percent=50)
    sched = pmcw_schedule(config)
    bits = np.array([1, 0, 1, 1])
    a = pmcw_frame_symbols(sched, bits, order=2)
    assert np.allclose(a[:4], 1.0)
    assert np.allclose(np.abs(a), 1.0, atol=1e-12)
    assert np.array_equal(pmcw_frame_symbols(sched.astype(int), bits), a)


def test_frame_symbols_round_trip_through_dpsk():
    config = small_config(n_frames=8, mu_percent=50)
    sched = pmcw_schedule(config)
    bits = np.array([1, 0, 1, 1])
    a = pmcw_frame_symbols(sched, bits, order=2)
    # The last radar frame (symbol 1) is the differential reference.
    chain = np.concatenate([[a[3]], a[4:]])
    assert np.array_equal(dpsk_decode(chain, order=2), bits)


def test_frame_symbols_wrong_bit_count():
    sched = pmcw_schedule(small_config(n_frames=8, mu_percent=50))
    with pytest.raises(ValueError):
        pmcw_frame_symbols(sched, [1, 0], order=2)


def test_frame_symbols_all_radar():
    sched = pmcw_schedule(small_config(n_frames=4, mu_percent=100))
    a = pmcw_frame_symbols(sched, np.zeros(0, dtype=int), order=2)
    assert np.allclose(a, 1.0)


# ---------------------------------------------------------------------------
# Transmit
# ---------------------------------------------------------------------------


def test_transmit_single_unit_chip():
    config = PmcwConfig(code_length=1, n_frames=1, chip_time=1e-9,
                        carrier_hz=60e9, geometry=ArrayGeometry(n_tx=1))
    code = CodeSequence(np.array([0.0]))
    tx = pmcw_transmit(config, code, [1.0])
    assert tx.shape == (1, 1, 1)
    assert np.allclose(tx, 1.0, atol=1e-12)


def test_transmit_binary_code_amplitudes():
    config = PmcwConfig(code_length=2, n_frames=1, chip_time=1e-9,
                        carrier_hz=60e9)
    code = CodeSequence(np.array([0.0, np.pi]))
    tx = pmcw_transmit(config, code, [1.0])
    assert np.allclose(tx[0, 0], [1.0, -1.0], atol=1e-12)


def test_transmit_length_checks():
    config = small_config()
    code = CodeSequence.random_binary(8, seed=0)
    with pytest.raises(ValueError):
        pmcw_transmit(config, code, np.ones(4))
    code16 = CodeSequence.random_binary(16, seed=0)
    with pytest.raises(ValueError):
        pmcw_transmit(config, code16, np.ones(3))


# ---------------------------------------------------------------------------
# Code delay
# ---------------------------------------------------------------------------


def test_fractional_delay_matches_dft_sum_oracle():
    # P_k s[l] = (1/L) sum_f S[f] exp(2 pi j f (l - k) / L) over the signed
    # DFT frequencies f, evaluated sample by sample.
    config = small_config(n_frames=2)
    chips = CodeSequence.random_binary(16, seed=7).chips()
    spec = np.fft.fft(chips)
    freqs = [f if f < 8 else f - 16 for f in range(16)]
    for k in (0.0, 2.5, 7.25, 15.9):
        oracle = [sum(spec[f] * np.exp(2j * np.pi * freqs[f] * (ell - k) / 16)
                      for f in range(16)) / 16 for ell in range(16)]
        response = _pmcw_response(config, spec, k * config.chip_time, 0.0,
                                  0.0, np.arange(2))
        for m in range(2):
            for p in range(2):
                np.testing.assert_allclose(response[m, :, p], oracle,
                                           rtol=0, atol=1e-12)


def test_delay_beyond_block_is_ambiguous():
    # A direct call models the delay cyclically, so 16 + 3 chips is 3
    # chips; a scenario file with that delay is rejected when parsed.
    config = small_config()
    code = CodeSequence.random_binary(16, seed=1)
    cubes = [pmcw_receive_cube(
        Scene(scatterers=(Scatterer(delay_s=k * 1e-9, amplitude=1.0),)),
        config, code, np.ones(4)).data for k in (3, 19)]
    np.testing.assert_allclose(cubes[1], cubes[0], rtol=0, atol=1e-12)
    with pytest.raises(ConfigError, match="falls on chip 16, outside the "
                                          "16-chip code"):
        parse_config({"version": 1, "waveform": "pmcw",
                      "pmcw": {"code_length": 16, "n_frames": 4,
                               "chip_time_s": 1e-9, "carrier_hz": 60e9},
                      "code_kind": "random",
                      "scene": {"scatterers": [{"delay_s": 15.6e-9}]}})


def test_delay_validation():
    with pytest.raises(ValueError):
        Scatterer(delay_s=-1e-9)


# ---------------------------------------------------------------------------
# Receive cube
# ---------------------------------------------------------------------------


def test_cube_static_target_collapses_to_code_times_steering():
    config = small_config(n_frames=3)
    code = CodeSequence.random_binary(16, seed=1)
    scene = Scene(scatterers=(Scatterer(delay_s=0.0, doppler_hz=0.0,
                                        angle_rad=0.4, amplitude=1.0),))
    cube = pmcw_receive_cube(scene, config, code,
                             np.ones(3, dtype=complex))
    c = np.exp(-1j * 2 * np.pi * 0.5 * np.sin(0.4))
    for p in range(2):
        expected = code.chips()[None, :] * c**p
        assert np.allclose(cube.data[:, :, p],
                           np.broadcast_to(expected, (3, 16)), atol=1e-12)


def test_cube_empty_scene_is_pure_noise():
    config = small_config()
    code = CodeSequence.random_binary(16, seed=1)
    scene = Scene(noise_variance=2.0)
    rng = np.random.default_rng(0)
    cube = pmcw_receive_cube(scene, config, code, np.ones(4), rng=rng)
    power = np.mean(np.abs(cube.data) ** 2)
    assert abs(power - 2.0) < 0.5


def test_cube_matches_time_domain_oracle():
    rng = np.random.default_rng(17)
    config = PmcwConfig(code_length=16, n_frames=5, chip_time=1e-9,
                        carrier_hz=60e9,
                        geometry=ArrayGeometry(n_tx=1, n_rx=3))
    code = CodeSequence.random_binary(16, seed=3)
    for _ in range(20):
        n_targets = int(rng.integers(1, 4))
        scatterers = tuple(
            Scatterer(delay_s=float(rng.integers(0, 16)) * 1e-9,
                      doppler_hz=float(rng.uniform(-2e7, 2e7)),
                      angle_rad=float(rng.uniform(-1.2, 1.2)),
                      amplitude=complex(*rng.normal(size=2)))
            for _ in range(n_targets))
        scene = Scene(scatterers=scatterers)
        symbols = np.exp(2j * np.pi * rng.integers(0, 2, size=5) / 2)
        cube = pmcw_receive_cube(scene, config, code, symbols)
        oracle = cube_oracle(scene, config, code, symbols)
        assert np.max(np.abs(cube.data - oracle)) <= 1e-10


def test_cube_decorrelated_single_target_is_rank_one():
    # Stripping the known symbols and the delayed code from a noiseless
    # single-target cube must leave an outer product of two phasors.
    config = small_config(n_frames=8, mu_percent=100)
    code = CodeSequence.random_binary(16, seed=4)
    scene = Scene(scatterers=(Scatterer(delay_s=3e-9, doppler_hz=4e6,
                                        amplitude=1.0),))
    cube = pmcw_receive_cube(scene, config, code, np.ones(8))
    shifted = np.roll(code.chips(), 3)
    z = cube.data[:, :, 0] * np.conj(shifted)[None, :]
    s = np.linalg.svd(z, compute_uv=False)
    assert s[1] / s[0] < 1e-10


def test_cube_energy_scales_with_amplitude_squared():
    config = small_config()
    code = CodeSequence.random_binary(16, seed=5)
    def energy(amp):
        scene = Scene(scatterers=(Scatterer(delay_s=2e-9, doppler_hz=1e6,
                                            amplitude=amp),))
        cube = pmcw_receive_cube(scene, config, code, np.ones(4))
        return np.sum(np.abs(cube.data) ** 2)
    assert energy(2.0) == pytest.approx(4 * energy(1.0), rel=1e-12)


def test_cube_same_seed_identical():
    config = small_config()
    code = CodeSequence.random_binary(16, seed=6)
    scene = Scene(scatterers=(Scatterer(delay_s=2e-9, amplitude=1.0),),
                  noise_variance=0.5)
    a = pmcw_receive_cube(scene, config, code, np.ones(4),
                          rng=np.random.default_rng(33))
    b = pmcw_receive_cube(scene, config, code, np.ones(4),
                          rng=np.random.default_rng(33))
    assert np.array_equal(a.data, b.data)


def test_cube_noise_requires_rng():
    config = small_config()
    code = CodeSequence.random_binary(16, seed=8)
    scene = Scene(noise_variance=1.0)
    with pytest.raises(ValueError):
        pmcw_receive_cube(scene, config, code, np.ones(4))


def test_cube_fading_applied_per_cpi():
    config = small_config()
    code = CodeSequence.random_binary(16, seed=9)
    scene = Scene(scatterers=(Scatterer(delay_s=2e-9, amplitude=1.0,
                                        fading="swerling12"),), seed=5)
    a = pmcw_receive_cube(scene, config, code, np.ones(4), cpi_index=0)
    b = pmcw_receive_cube(scene, config, code, np.ones(4), cpi_index=1)
    assert not np.allclose(a.data, b.data)
    again = pmcw_receive_cube(scene, config, code, np.ones(4), cpi_index=0)
    assert np.array_equal(a.data, again.data)


def test_cube_shape_validation():
    config = small_config()
    assert config.cube_shape == (4, 16, 2)
    assert ReceiveCube(data=np.zeros((4, 16, 2)), config=config).data.dtype \
        == complex
    with pytest.raises(ValueError, match="cube shape"):
        ReceiveCube(data=np.zeros((4, 16, 3)), config=config)
