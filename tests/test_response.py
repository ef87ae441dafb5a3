"""Each waveform's receive model is written once, as one response function.

The oracles below write the model out on its own: the CRLB proxy as two
closures with their own phasors, and the decoder's PMCW basis with one
joint fast/slow-time phase.  The CRLB model must equal its oracle bit for
bit, which pins ``tradeoff.csv``; the basis and the synthesized cubes may
differ from theirs in the last bits only.
"""

import numpy as np
import pytest

from jrcsim import estim, runner
from jrcsim.channel import Scatterer, Scene
from jrcsim.config import parse_config
from jrcsim.estim import TargetEstimate
from jrcsim.ofdma import build_symbol_grid, grid_capacity_bits, \
    ofdma_receive_cube
from jrcsim.pmcw import payload_capacity_bits, pmcw_frame_symbols, \
    pmcw_receive_cube, pmcw_schedule


def scenario(waveform, n_rx, spacing):
    geometry = {"n_rx": n_rx, "spacing_over_lambda": spacing}
    if waveform == "pmcw":
        section = {"code_length": 31, "n_frames": 8, "chip_time_s": 1e-9,
                   "carrier_hz": 60e9, "geometry": geometry}
    else:
        section = {"n_subcarriers": 16, "n_symbols": 8,
                   "subcarrier_spacing_hz": 62.5e6, "carrier_hz": 60e9,
                   "cp_samples": 8, "geometry": geometry}
    return parse_config({"version": 1, "waveform": waveform,
                         waveform: section, "code_kind": "random",
                         "scene": {"scatterers": [
                             {"delay_s": 2e-9, "amplitude": [1.0, 0.0]}]}})


def crlb_model_oracle(config, wavecfg):
    """The CRLB proxy's response as two closures with their own phasors."""
    if config.waveform == "pmcw":
        code = runner.build_code(config, wavecfg)
        spectrum = np.fft.fft(code.chips())
        freqs = np.fft.fftfreq(wavecfg.code_length,
                               d=1.0 / wavecfg.code_length)
        l_idx = np.arange(wavecfg.code_length)
        m_idx = np.arange(wavecfg.n_frames)
        p_idx = np.arange(wavecfg.geometry.n_rx)

        def model(theta):
            tau, doppler, angle = theta
            frac = tau / wavecfg.chip_time
            shifted = np.fft.ifft(
                spectrum * np.exp(-2j * np.pi * freqs * frac
                                  / wavecfg.code_length))
            slow = np.exp(-2j * np.pi * doppler * m_idx * wavecfg.block_time)
            fast = np.exp(-2j * np.pi * doppler * l_idx * wavecfg.chip_time)
            steer = np.exp(-2j * np.pi * wavecfg.geometry.spacing_over_lambda
                           * np.sin(angle) * p_idx)
            block = slow[:, None] * (fast * shifted)[None, :]
            return block[:, :, None] * steer[None, None, :]

        return model
    n_idx = np.arange(wavecfg.n_subcarriers)
    m_idx = np.arange(wavecfg.n_symbols)
    p_idx = np.arange(wavecfg.geometry.n_rx)

    def model(theta):
        tau, doppler, angle = theta
        phase_n = np.exp(-2j * np.pi * n_idx
                         * wavecfg.subcarrier_spacing_hz * tau)
        phase_m = np.exp(2j * np.pi * m_idx * wavecfg.symbol_duration
                         * doppler)
        steer = np.exp(2j * np.pi * wavecfg.geometry.spacing_over_lambda
                       * np.sin(angle) * p_idx)
        return (phase_n[:, None] * phase_m[None, :])[:, :, None] \
            * steer[None, None, :]

    return model


def joint_phase_pmcw_basis(config, chips, target, m_indices):
    """The decoder's PMCW basis with one joint fast/slow-time phase."""
    t_b, t_c = config.block_time, config.chip_time
    chips = np.roll(chips, target.delay_bin)
    phase_t = (m_indices[:, None] * t_b
               + np.arange(config.code_length)[None, :] * t_c)
    dop = np.exp(-2j * np.pi * target.doppler_hz * phase_t)
    steer = np.exp(-2j * np.pi * config.geometry.spacing_over_lambda
                   * np.sin(target.angle_rad)
                   * np.arange(config.geometry.n_rx))
    return (dop * chips[None, :])[:, :, None] * steer[None, None, :]


def target_at(delay_s, doppler_hz, angle_rad, delay_bin=0):
    return TargetEstimate(delay_s=delay_s, doppler_hz=doppler_hz,
                          angle_rad=angle_rad, amplitude=0j,
                          delay_bin=delay_bin, doppler_bin=0, angle_bin=0,
                          power=0.0)


def random_theta(rng, wavecfg):
    d_scale, f_scale, _ = runner._matching_scales(wavecfg)
    # Angles may cross +-pi/2 by the proxy's 1e-3 rad step.
    return np.array([rng.uniform(0, 20) * d_scale,
                     rng.uniform(-0.5, 0.5) * f_scale * 8,
                     rng.uniform(-np.pi / 2 - 1e-3, np.pi / 2 + 1e-3)])


@pytest.mark.parametrize("waveform", ["pmcw", "ofdma"])
@pytest.mark.parametrize("n_rx, spacing", [(1, 0.5), (4, 0.5), (3, 0.37)])
def test_crlb_model_is_bitwise_its_oracle(waveform, n_rx, spacing):
    config = scenario(waveform, n_rx, spacing)
    wavecfg = config.waveform_config
    model = runner._crlb_model(config, wavecfg)
    oracle = crlb_model_oracle(config, wavecfg)
    rng = np.random.default_rng([n_rx, 17])
    for _ in range(40):
        theta = random_theta(rng, wavecfg)
        assert np.array_equal(model(theta), oracle(theta))


@pytest.mark.parametrize("waveform", ["pmcw", "ofdma"])
def test_crlb_steps_equal_the_per_waveform_table(waveform):
    # Matching scale / 64 is the step the proxy took from its own table;
    # 64 is a power of two, so the floats are the same.
    wavecfg = scenario(waveform, 4, 0.5).waveform_config
    d_scale, f_scale, _ = runner._matching_scales(wavecfg)
    if waveform == "pmcw":
        table = (wavecfg.chip_time / 64,
                 1.0 / (64 * wavecfg.n_frames * wavecfg.block_time))
    else:
        table = (wavecfg.sample_time / 64,
                 1.0 / (64 * wavecfg.n_symbols * wavecfg.symbol_duration))
    assert (d_scale / 64, f_scale / 64) == table


@pytest.mark.parametrize("n_rx, spacing", [(1, 0.5), (4, 0.5), (3, 0.37)])
def test_pmcw_basis_matches_joint_phase_oracle(n_rx, spacing):
    config = scenario("pmcw", n_rx, spacing)
    wavecfg = config.waveform_config
    chips = runner.build_code(config, wavecfg).chips()
    rng = np.random.default_rng([n_rx, 29])
    frames = np.sort(rng.choice(wavecfg.n_frames, 5, replace=False))
    for _ in range(40):
        target = target_at(0.0, rng.uniform(-40e6, 40e6),
                           rng.uniform(-np.pi / 2, np.pi / 2),
                           delay_bin=int(rng.integers(31)))
        np.testing.assert_allclose(
            estim._pmcw_basis(wavecfg, chips, target, frames),
            joint_phase_pmcw_basis(wavecfg, chips, target, frames),
            rtol=0, atol=1e-13)


@pytest.mark.parametrize("seed", range(4))
def test_pmcw_cube_is_amplitude_symbols_basis(seed):
    rng = np.random.default_rng([seed, 3])
    config = scenario("pmcw", 3, 0.5)
    wavecfg = config.waveform_config
    code = runner.build_code(config, wavecfg)
    sched = pmcw_schedule(wavecfg)
    symbols = pmcw_frame_symbols(
        sched, rng.integers(0, 2, payload_capacity_bits(sched)))
    k = int(rng.integers(31))
    doppler = rng.uniform(-40e6, 40e6)
    angle = rng.uniform(-1.2, 1.2)
    d = complex(rng.standard_normal(), rng.standard_normal())
    scene = Scene(scatterers=(Scatterer(delay_s=k * wavecfg.chip_time,
                                        doppler_hz=doppler, angle_rad=angle,
                                        amplitude=d),))
    cube = pmcw_receive_cube(scene, wavecfg, code, symbols)
    basis = estim._pmcw_basis(wavecfg, code.chips(),
                              target_at(0.0, doppler, angle, delay_bin=k),
                              np.arange(wavecfg.n_frames))
    np.testing.assert_allclose(cube.data,
                               d * symbols[:, None, None] * basis,
                               rtol=0, atol=1e-12)


@pytest.mark.parametrize("seed", range(4))
def test_ofdma_cube_is_amplitude_symbols_basis(seed):
    rng = np.random.default_rng([seed, 5])
    wavecfg = scenario("ofdma", 3, 0.5).waveform_config
    grid = build_symbol_grid(wavecfg,
                             rng.integers(0, 2, grid_capacity_bits(wavecfg)))
    delay = rng.uniform(0, 8) * wavecfg.sample_time
    doppler = rng.uniform(-3e6, 3e6)
    angle = rng.uniform(-1.2, 1.2)
    d = complex(rng.standard_normal(), rng.standard_normal())
    scene = Scene(scatterers=(Scatterer(delay_s=delay, doppler_hz=doppler,
                                        angle_rad=angle, amplitude=d),))
    cube = ofdma_receive_cube(scene, wavecfg, grid)
    basis = estim._ofdma_basis(wavecfg, target_at(delay, doppler, angle),
                               np.arange(wavecfg.n_subcarriers))
    np.testing.assert_allclose(cube.data,
                               d * grid.symbols[:, :, None] * basis,
                               rtol=0, atol=1e-12)
