"""Propagation model tests: radar gain, fading, scene reproducibility.

Numeric oracles are hand-evaluated from the closed forms; distributional
checks run enough draws to pin moments within a few standard errors.
"""

import numpy as np
import pytest

from jrcsim.channel import (SPEED_OF_LIGHT, Scatterer, Scene, complex_awgn,
                            doppler_from_velocity, draw_small_scale,
                            radar_large_scale_gain, scatterer_amplitude)


# ---------------------------------------------------------------------------
# Large-scale gains
# ---------------------------------------------------------------------------


def test_radar_gain_unit_inputs():
    assert radar_large_scale_gain(1.0, 1.0, 1.0) == pytest.approx(1 / (64 * np.pi**3))
    assert radar_large_scale_gain(1.0, 1.0, 1.0) == pytest.approx(5.0393e-4, rel=1e-4)


def test_radar_gain_mmwave_case():
    got = radar_large_scale_gain(5e-3, 1.0, 10.0)
    assert got == pytest.approx((5e-3) ** 2 / (64 * np.pi**3 * 1e4))
    assert got == pytest.approx(1.2598e-12, rel=1e-4)


def test_radar_gain_fourth_power_law():
    ratio = radar_large_scale_gain(5e-3, 1.0, 5.0) / radar_large_scale_gain(5e-3, 1.0, 10.0)
    assert ratio == pytest.approx(16.0, rel=1e-12)


def test_gain_singularities_rejected():
    with pytest.raises(ValueError):
        radar_large_scale_gain(5e-3, 1.0, 0.0)
    with pytest.raises(ValueError):
        radar_large_scale_gain(5e-3, -1.0, 1.0)
    # rho^4 underflows to 0 at 1e-300 m; at 1e-80 m the gain overflows.
    for range_m in (1e-300, 1e-80):
        with pytest.raises(ValueError, match="too small for a finite gain"):
            radar_large_scale_gain(5e-3, 1.0, range_m)


def test_doppler_from_velocity():
    assert doppler_from_velocity(0.0, 5e-3) == 0.0
    assert doppler_from_velocity(30.0, 5e-3) == pytest.approx(12e3)
    assert doppler_from_velocity(-30.0, 5e-3) == pytest.approx(-12e3)
    assert (doppler_from_velocity(20.0, 5e-3)
            == pytest.approx(2 * doppler_from_velocity(10.0, 5e-3)))


# ---------------------------------------------------------------------------
# Small-scale fading
# ---------------------------------------------------------------------------


def test_swerling0_is_deterministic():
    rng = np.random.default_rng(0)
    draws = {draw_small_scale("swerling0", 4.0, rng) for _ in range(10)}
    assert draws == {complex(2.0)}


def test_swerling12_moments():
    rng = np.random.default_rng(1)
    n = 100_000
    draws = np.array([draw_small_scale("swerling12", 1.0, rng) for _ in range(n)])
    power = np.abs(draws) ** 2
    # E|b|^2 = 1, Var(|b|^2) = 1 for exponential power; 3 sigma band.
    assert abs(power.mean() - 1.0) < 3 / np.sqrt(n)
    assert abs(draws.mean()) < 3 / np.sqrt(n)


def test_swerling34_power_distribution():
    rng = np.random.default_rng(2)
    n = 100_000
    draws = np.array([draw_small_scale("swerling34", 1.0, rng) for _ in range(n)])
    power = np.abs(draws) ** 2
    # 4-DoF chi envelope: power ~ Gamma(shape 2, scale 1/2), so the mean is 1
    # and the variance 1/2.
    assert abs(power.mean() - 1.0) < 3 * np.sqrt(0.5 / n)
    assert abs(power.var() - 0.5) < 0.02


def test_rician_limits():
    rng = np.random.default_rng(3)
    assert draw_small_scale("rician", 1.0, rng, rician_k=np.inf) == complex(1.0)
    n = 50_000
    k = 1e6
    draws = np.array([draw_small_scale("rician", 1.0, rng, rician_k=k)
                      for _ in range(n)])
    assert np.all(np.abs(np.abs(draws) - 1.0) < 0.02)


def test_rician_mean_power():
    rng = np.random.default_rng(4)
    n = 100_000
    draws = np.array([draw_small_scale("rician", 1.0, rng, rician_k=10.0)
                      for _ in range(n)])
    power = np.abs(draws) ** 2
    assert abs(power.mean() - 1.0) < 0.02


def test_fading_input_validation():
    rng = np.random.default_rng(5)
    with pytest.raises(ValueError):
        draw_small_scale("swerling12", 0.0, rng)
    with pytest.raises(ValueError):
        draw_small_scale("rician", 1.0, rng, rician_k=-1.0)
    with pytest.raises(ValueError):
        draw_small_scale("nakagami", 1.0, rng)


def test_complex_awgn_variance_and_circularity():
    rng = np.random.default_rng(6)
    noise = complex_awgn(rng, (200, 200), variance=3.0)
    assert abs(np.mean(np.abs(noise) ** 2) - 3.0) < 0.1
    # Circularity: pseudo-variance E[n^2] vanishes.
    assert abs(np.mean(noise**2)) < 0.05


def test_complex_awgn_zero_variance():
    rng = np.random.default_rng(7)
    assert np.count_nonzero(complex_awgn(rng, 16, 0.0)) == 0
    with pytest.raises(ValueError):
        complex_awgn(rng, 4, -1.0)


# ---------------------------------------------------------------------------
# Scatterer and Scene
# ---------------------------------------------------------------------------


def test_scatterer_doppler_resolution_rules():
    explicit = Scatterer(delay_s=1e-7, doppler_hz=5e3, velocity_mps=99.0)
    assert explicit.resolve_doppler(5e-3) == 5e3
    derived = Scatterer(delay_s=1e-7, velocity_mps=30.0)
    assert derived.resolve_doppler(5e-3) == pytest.approx(12e3)


def test_scatterer_range_and_validation():
    with pytest.raises(ValueError):
        Scatterer(delay_s=-1e-9)
    with pytest.raises(ValueError):
        Scatterer(delay_s=0.0, angle_rad=2.0)
    with pytest.raises(ValueError):
        Scatterer(delay_s=0.0, fading="swerling5")


@pytest.mark.parametrize("field, value", [
    *((field, value) for field in ("delay_s", "doppler_hz", "velocity_mps",
                                   "angle_rad", "rcs_m2", "amplitude")
      for value in (np.nan, np.inf, -np.inf)),
    ("amplitude", complex(1.0, np.nan)),
])
def test_scatterer_rejects_non_finite_numbers(field, value):
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        Scatterer(**{"delay_s": 1e-9, field: value})
    # rician_k = inf is pure line of sight, so it stays allowed.
    assert Scatterer(delay_s=1e-9, fading="rician", rician_k=np.inf)


def test_scene_fading_reproducible_and_blockwise():
    scene = Scene(scatterers=(Scatterer(delay_s=1e-9, fading="swerling12"),
                              Scatterer(delay_s=2e-9, fading="rician")),
                  seed=42)
    a = scene.fading_gains(cpi_index=0)
    b = scene.fading_gains(cpi_index=0)
    c = scene.fading_gains(cpi_index=1)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_scene_seed_changes_draws():
    sc = (Scatterer(delay_s=1e-9, fading="swerling12"),)
    a = Scene(scatterers=sc, seed=1).fading_gains()
    b = Scene(scatterers=sc, seed=2).fading_gains()
    assert not np.array_equal(a, b)
    # Seeds are not truncated to 32 bits, so s and s + 2^32 differ.
    wide = Scene(scatterers=sc, seed=1 + 2**32).fading_gains()
    assert not np.array_equal(a, wide)


def test_fixed_gain_scene_seeds_no_generator(monkeypatch):
    # swerling0 and rician with K = inf draw nothing, so no generator is
    # seeded for their CPIs.
    scene = Scene(scatterers=(Scatterer(delay_s=1e-9),
                              Scatterer(delay_s=2e-9, fading="rician",
                                        rician_k=np.inf)), seed=3)

    def no_generator(*args, **kwargs):
        raise AssertionError("default_rng called")

    monkeypatch.setattr(np.random, "default_rng", no_generator)
    assert np.array_equal(scene.fading_gains(cpi_index=4), [1.0, 1.0])
    with pytest.raises(ValueError, match="cpi_index"):
        scene.fading_gains(cpi_index=-1)
    drawing = Scene(scatterers=(Scatterer(delay_s=1e-9, fading="rician"),))
    with pytest.raises(AssertionError, match="default_rng"):
        drawing.fading_gains()


def test_scene_validation():
    with pytest.raises(ValueError):
        Scene(noise_variance=-1.0)
    with pytest.raises(ValueError):
        Scene(seed=-1)
    assert Scene().n_scatterers == 0


def test_scatterer_amplitude_explicit_and_derived():
    sc = Scatterer(delay_s=1e-7, amplitude=0.3 + 0.4j)
    assert scatterer_amplitude(sc, 60e9, fading=2.0) == pytest.approx(0.6 + 0.8j)

    derived = Scatterer(delay_s=1e-7, rcs_m2=1.0)
    lam = SPEED_OF_LIGHT / 60e9
    rho = SPEED_OF_LIGHT * 1e-7 / 2
    mag = np.sqrt(radar_large_scale_gain(lam, 1.0, rho))
    got = scatterer_amplitude(derived, 60e9)
    assert abs(got) == pytest.approx(mag)
    assert np.angle(got) == pytest.approx(
        np.angle(np.exp(-2j * np.pi * 60e9 * 1e-7)))


def test_scatterer_amplitude_zero_delay_needs_explicit():
    with pytest.raises(ValueError):
        scatterer_amplitude(Scatterer(delay_s=0.0), 60e9)
