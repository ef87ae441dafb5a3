"""OFDMA waveform tests.

Two independent oracles check the receive cube: the per-entry phase formula
written longhand, and a full time-domain route (synthesize the delayed sum
at the sample rate, then DFT back to subcarriers).
"""

import numpy as np
import pytest

from jrcsim.channel import ReceiveCube, Scatterer, Scene
from jrcsim.ofdma import (IsiWarning, OfdmaConfig, SymbolGrid,
                          build_symbol_grid, grid_capacity_bits,
                          ofdma_pilot_mask, ofdma_receive_cube,
                          ofdma_transmit, pilot_comb_spacing, pilot_symbols)
from jrcsim.sigcore import ArrayGeometry, dpsk_decode


def small_config(**kwargs):
    defaults = dict(n_subcarriers=16, n_symbols=4,
                    subcarrier_spacing_hz=62.5e6, carrier_hz=60e9,
                    cp_samples=8, mu_percent=50, pilot_seed=3,
                    geometry=ArrayGeometry(n_tx=1, n_rx=2))
    defaults.update(kwargs)
    return OfdmaConfig(**defaults)


def entry_oracle(scene, config, grid):
    """Noiseless cube from the per-entry formula, one element at a time."""
    n_c, n_s = config.n_subcarriers, config.n_symbols
    n_rx = config.geometry.n_rx
    df = config.subcarrier_spacing_hz
    t_sym = config.symbol_duration
    out = np.zeros((n_c, n_s, n_rx), dtype=complex)
    fading = scene.fading_gains(0)
    for q, sc in enumerate(scene.scatterers):
        d = complex(sc.amplitude) * fading[q]
        f = sc.resolve_doppler(config.wavelength)
        u = config.geometry.spacing_over_lambda * np.sin(sc.angle_rad)
        for n in range(n_c):
            for m in range(n_s):
                for p in range(n_rx):
                    out[n, m, p] += (d * grid.symbols[n, m]
                                     * np.exp(-2j * np.pi * n * df * sc.delay_s)
                                     * np.exp(2j * np.pi * m * t_sym * f)
                                     * np.exp(2j * np.pi * u * p))
    return out


def time_domain_oracle(scene, config, grid):
    """Synthesize each echoed OFDM symbol at t = l*t_s, then DFT to rows."""
    n_c, n_s = config.n_subcarriers, config.n_symbols
    n_rx = config.geometry.n_rx
    df = config.subcarrier_spacing_hz
    t_s = config.sample_time
    t_sym = config.symbol_duration
    fading = scene.fading_gains(0)
    out = np.zeros((n_c, n_s, n_rx), dtype=complex)
    for m in range(n_s):
        samples = np.zeros((n_c, n_rx), dtype=complex)
        for q, sc in enumerate(scene.scatterers):
            d = complex(sc.amplitude) * fading[q]
            f = sc.resolve_doppler(config.wavelength)
            u = config.geometry.spacing_over_lambda * np.sin(sc.angle_rad)
            for ell in range(n_c):
                t = ell * t_s
                x = sum(grid.symbols[n, m]
                        * np.exp(2j * np.pi * n * df * (t - sc.delay_s))
                        for n in range(n_c))
                echo = d * x * np.exp(2j * np.pi * f * m * t_sym)
                for p in range(n_rx):
                    samples[ell, p] += echo * np.exp(2j * np.pi * u * p)
        out[:, m, :] = np.fft.fft(samples, axis=0) / n_c
    return out


# ---------------------------------------------------------------------------
# Config and pilot comb
# ---------------------------------------------------------------------------


def test_config_derived_quantities():
    config = small_config()
    assert config.symbol_duration * config.subcarrier_spacing_hz == pytest.approx(1.0)
    assert config.sample_time == pytest.approx(1 / (16 * 62.5e6))


def test_config_validation():
    with pytest.raises(ValueError):
        small_config(n_subcarriers=0)
    with pytest.raises(ValueError):
        small_config(cp_samples=-1)
    with pytest.raises(ValueError):
        small_config(mu_percent=-5)
    with pytest.raises(ValueError):
        small_config(pilot_seed=-1)


def test_pilot_mask_even_interleave():
    mask = ofdma_pilot_mask(small_config(n_subcarriers=8, mu_percent=50))
    assert np.array_equal(np.flatnonzero(mask), [0, 2, 4, 6])


def test_pilot_mask_extremes():
    assert np.all(ofdma_pilot_mask(small_config(mu_percent=100)))
    assert not np.any(ofdma_pilot_mask(small_config(mu_percent=0)))


def test_pilot_mask_rounding():
    mask = ofdma_pilot_mask(small_config(n_subcarriers=10, mu_percent=25))
    assert np.count_nonzero(mask) == 3


def test_pilot_mask_deterministic():
    a = ofdma_pilot_mask(small_config(mu_percent=30))
    b = ofdma_pilot_mask(small_config(mu_percent=30))
    assert np.array_equal(a, b)


def test_pilot_comb_spacing():
    assert pilot_comb_spacing(np.array([1, 0, 1, 0], dtype=bool)) == 2
    assert pilot_comb_spacing(np.ones(6, dtype=bool)) == 1
    assert pilot_comb_spacing(np.array([0, 1, 0, 0], dtype=bool)) == 4
    with pytest.raises(ValueError):
        pilot_comb_spacing(np.zeros(4, dtype=bool))


# ---------------------------------------------------------------------------
# Symbol grid
# ---------------------------------------------------------------------------


def test_grid_capacity():
    config = small_config(n_subcarriers=16, n_symbols=4, mu_percent=50)
    # 8 comm rows, 3 transitions each, 2 bits per transition.
    assert grid_capacity_bits(config, order=4) == 48
    assert grid_capacity_bits(config, order=2) == 24
    assert grid_capacity_bits(small_config(n_symbols=1), order=4) == 0


def test_build_grid_shapes_and_pilots():
    config = small_config()
    rng = np.random.default_rng(0)
    bits = rng.integers(0, 2, size=grid_capacity_bits(config))
    grid = build_symbol_grid(config, bits)
    assert grid.symbols.shape == (16, 4)
    assert np.allclose(np.abs(grid.symbols), 1.0, atol=1e-9)
    expected_pilots = pilot_symbols(config, grid.n_radar)
    assert np.allclose(grid.symbols[grid.radar_rows], expected_pilots)


def test_build_grid_data_rows_decode():
    config = small_config()
    rng = np.random.default_rng(1)
    bits = rng.integers(0, 2, size=grid_capacity_bits(config))
    grid = build_symbol_grid(config, bits)
    comm_rows = np.flatnonzero(~grid.radar_rows)
    per_row = (config.n_symbols - 1) * 2
    recovered = np.concatenate([
        dpsk_decode(grid.symbols[n], order=4) for n in comm_rows])
    assert np.array_equal(recovered, bits[:comm_rows.size * per_row])


def test_build_grid_wrong_bit_count():
    config = small_config()
    with pytest.raises(ValueError):
        build_symbol_grid(config, np.zeros(3, dtype=int))


def test_pilot_symbols_seeded_and_offset_qpsk():
    config = small_config(pilot_seed=9)
    a = pilot_symbols(config, 4)
    b = pilot_symbols(config, 4)
    assert np.array_equal(a, b)
    c = pilot_symbols(small_config(pilot_seed=10), 4)
    assert not np.array_equal(a, c)
    # Seeds are not truncated to 32 bits, so s and s + 2^32 differ.
    wide = pilot_symbols(small_config(pilot_seed=9 + 2**32), 4)
    assert not np.array_equal(a, wide)
    # Offset QPSK alphabet: phases at odd multiples of pi/4.
    angles = np.angle(a) / (np.pi / 4)
    assert np.allclose(angles, np.round(angles), atol=1e-9)
    assert np.all(np.abs(np.round(angles)) % 2 == 1)


def test_symbol_grid_validation():
    with pytest.raises(ValueError):
        SymbolGrid(symbols=np.ones((4, 2)) * 2.0,
                   radar_rows=np.zeros(4, dtype=bool))
    with pytest.raises(ValueError):
        SymbolGrid(symbols=np.ones((4, 2), dtype=complex),
                   radar_rows=np.zeros(3, dtype=bool))


# ---------------------------------------------------------------------------
# Transmit
# ---------------------------------------------------------------------------


def test_transmit_idft_and_cp_round_trip():
    config = small_config(cp_samples=4)
    rng = np.random.default_rng(2)
    bits = rng.integers(0, 2, size=grid_capacity_bits(config))
    grid = build_symbol_grid(config, bits)
    tx = ofdma_transmit(config, grid)
    assert tx.shape == (1, 4, 20)
    core = tx[0, :, 4:]
    # CP is a copy of the symbol tail.
    assert np.allclose(tx[0, :, :4], core[:, -4:], atol=1e-12)
    # Forward DFT recovers the grid exactly.
    recovered = np.fft.fft(core, axis=1).T / 16
    assert np.allclose(recovered, grid.symbols, atol=1e-10)


def test_transmit_explicit_sum_single_symbol():
    config = small_config(n_subcarriers=4, n_symbols=1, mu_percent=100,
                          cp_samples=0)
    grid = build_symbol_grid(config, np.zeros(0, dtype=int))
    tx = ofdma_transmit(config, grid)
    for ell in range(4):
        expected = sum(grid.symbols[n, 0] * np.exp(2j * np.pi * n * ell / 4)
                       for n in range(4))
        assert tx[0, 0, ell] == pytest.approx(expected, abs=1e-12)


# ---------------------------------------------------------------------------
# Receive cube vs oracles
# ---------------------------------------------------------------------------


def test_cube_matches_entry_oracle():
    rng = np.random.default_rng(7)
    config = small_config()
    bits = rng.integers(0, 2, size=grid_capacity_bits(config))
    grid = build_symbol_grid(config, bits)
    for _ in range(10):
        n_targets = int(rng.integers(1, 4))
        scene = Scene(scatterers=tuple(
            Scatterer(delay_s=float(rng.uniform(0, 0.8e-9)),
                      doppler_hz=float(rng.uniform(-1e6, 1e6)),
                      angle_rad=float(rng.uniform(-1.2, 1.2)),
                      amplitude=complex(*rng.normal(size=2)))
            for _ in range(n_targets)))
        cube = ofdma_receive_cube(scene, config, grid)
        assert np.max(np.abs(cube.data - entry_oracle(scene, config, grid))) <= 1e-10


def test_cube_matches_time_domain_oracle():
    rng = np.random.default_rng(8)
    config = small_config(n_subcarriers=8, n_symbols=3)
    bits = rng.integers(0, 2, size=grid_capacity_bits(config))
    grid = build_symbol_grid(config, bits)
    scene = Scene(scatterers=(
        Scatterer(delay_s=0.35e-9, doppler_hz=2e5, angle_rad=0.5,
                  amplitude=1.0 - 0.3j),
        Scatterer(delay_s=0.9e-9, doppler_hz=-4e5, angle_rad=-0.2,
                  amplitude=0.4 + 0.1j)))
    cube = ofdma_receive_cube(scene, config, grid)
    oracle = time_domain_oracle(scene, config, grid)
    assert np.max(np.abs(cube.data - oracle)) <= 1e-10


def test_cube_energy_scales_with_amplitude_squared():
    config = small_config()
    grid = build_symbol_grid(config, np.zeros(grid_capacity_bits(config),
                                              dtype=int))
    def energy(amp):
        scene = Scene(scatterers=(Scatterer(delay_s=0.5e-9, amplitude=amp),))
        return np.sum(np.abs(ofdma_receive_cube(scene, config, grid).data) ** 2)
    assert energy(3.0) == pytest.approx(9 * energy(1.0), rel=1e-12)


def test_cube_empty_scene_pure_noise():
    config = small_config()
    grid = build_symbol_grid(config, np.zeros(grid_capacity_bits(config),
                                              dtype=int))
    scene = Scene(noise_variance=1.5)
    cube = ofdma_receive_cube(scene, config, grid,
                              rng=np.random.default_rng(0))
    assert abs(np.mean(np.abs(cube.data) ** 2) - 1.5) < 0.6


def test_cube_same_seed_identical():
    config = small_config()
    grid = build_symbol_grid(config, np.zeros(grid_capacity_bits(config),
                                              dtype=int))
    scene = Scene(scatterers=(Scatterer(delay_s=0.5e-9, amplitude=1.0),),
                  noise_variance=0.3)
    a = ofdma_receive_cube(scene, config, grid, rng=np.random.default_rng(4))
    b = ofdma_receive_cube(scene, config, grid, rng=np.random.default_rng(4))
    assert np.array_equal(a.data, b.data)


def test_cube_noise_requires_rng():
    config = small_config()
    grid = build_symbol_grid(config, np.zeros(grid_capacity_bits(config),
                                              dtype=int))
    with pytest.raises(ValueError):
        ofdma_receive_cube(Scene(noise_variance=1.0), config, grid)


def test_isi_warning_on_long_delay():
    config = small_config(cp_samples=2)
    grid = build_symbol_grid(config, np.zeros(grid_capacity_bits(config),
                                              dtype=int))
    long_delay = 3 * config.sample_time
    scene = Scene(scatterers=(Scatterer(delay_s=long_delay, amplitude=1.0),))
    with pytest.warns(IsiWarning):
        ofdma_receive_cube(scene, config, grid)


def test_no_isi_warning_within_cp():
    import warnings as _warnings
    config = small_config(cp_samples=4)
    grid = build_symbol_grid(config, np.zeros(grid_capacity_bits(config),
                                              dtype=int))
    scene = Scene(scatterers=(Scatterer(delay_s=2 * config.sample_time,
                                        amplitude=1.0),))
    with _warnings.catch_warnings():
        _warnings.simplefilter("error", IsiWarning)
        ofdma_receive_cube(scene, config, grid)


def test_cube_shape_validation():
    config = small_config()
    assert config.cube_shape == (16, 4, 2)
    assert ReceiveCube(data=np.zeros((16, 4, 2)), config=config).data.dtype \
        == complex
    with pytest.raises(ValueError, match="cube shape"):
        ReceiveCube(data=np.zeros((16, 4, 3)), config=config)
