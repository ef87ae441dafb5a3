"""Propagation models for the bi-static link.

The round-trip radar free-space gain, small-scale fading draws (Swerling
families and Rician), complex noise, the scatterer/scene containers used
by the waveform synthesizers, and :class:`ReceiveCube`, the one receive
data cube of both cube waveforms.  A cube's layout is its config's
``cube_shape``: slots on the first axis (PMCW frames, OFDMA subcarriers),
whose radar/comm split is a boolean mask over that axis, then the
samples of each slot, then the receive elements.  ``_synthesize``
builds the cubes of both: it evaluates a waveform's bound unit response
on every slot and scales it by the slot symbols and scatterer amplitudes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

SPEED_OF_LIGHT = 3.0e8  # m/s, the value used throughout the link budgets

_FADING_MODELS = ("swerling0", "swerling12", "swerling34", "rician")


def radar_large_scale_gain(wavelength: float, rcs_m2: float, range_m: float) -> float:
    """Round-trip radar power gain lambda^2 * sigma / (64 pi^3 rho^4)."""
    if wavelength <= 0:
        raise ValueError("wavelength must be positive")
    if rcs_m2 < 0:
        raise ValueError("radar cross-section must be >= 0")
    if range_m <= 0:
        raise ValueError("range_m must be positive (zero range is singular)")
    return wavelength**2 * rcs_m2 / (64 * np.pi**3 * range_m**4)


def doppler_from_velocity(velocity_mps: float, wavelength: float) -> float:
    """Round-trip Doppler shift 2 v / lambda of a mono-static reflection."""
    if wavelength <= 0:
        raise ValueError("wavelength must be positive")
    return 2.0 * velocity_mps / wavelength


def draw_small_scale(model: str, mean_power: float, rng: np.random.Generator,
                     rician_k: float = 10.0) -> complex:
    """One block-fading amplitude draw with E|beta|^2 = mean_power.

    swerling0   constant amplitude sqrt(mean_power);
    swerling12  circular complex Gaussian (Rayleigh envelope, 2 DoF);
    swerling34  4-DoF chi envelope (gamma-distributed power, shape 2);
    rician      fixed LOS part plus scattered part, ratio K (linear).
    """
    if mean_power <= 0:
        raise ValueError("mean_power must be positive")
    if model == "swerling0":
        return complex(np.sqrt(mean_power))
    if model == "swerling12":
        re, im = rng.standard_normal(2)
        return np.sqrt(mean_power / 2) * (re + 1j * im)
    if model == "swerling34":
        power = rng.gamma(2.0, mean_power / 2.0)
        phase = rng.uniform(0, 2 * np.pi)
        return np.sqrt(power) * np.exp(1j * phase)
    if model == "rician":
        if rician_k < 0:
            raise ValueError("rician_k must be >= 0")
        if np.isinf(rician_k):
            return complex(np.sqrt(mean_power))
        los = np.sqrt(mean_power * rician_k / (rician_k + 1))
        re, im = rng.standard_normal(2)
        scatter = np.sqrt(mean_power / (2 * (rician_k + 1))) * (re + 1j * im)
        return los + scatter
    raise ValueError(f"unknown fading model {model!r}; expected one of {_FADING_MODELS}")


def complex_awgn(rng: np.random.Generator, shape, variance: float) -> np.ndarray:
    """Circular complex Gaussian noise with per-sample variance ``variance``."""
    if variance < 0:
        raise ValueError("variance must be >= 0")
    if variance == 0:
        return np.zeros(shape, dtype=complex)
    noise = np.empty(shape, dtype=complex)
    draws = rng.standard_normal((2,) + noise.shape)
    draws *= np.sqrt(variance / 2)
    noise.real = draws[0]
    noise.imag = draws[1]
    return noise


@dataclass(frozen=True)
class Scatterer:
    """A point reflector seen by the radar receiver.

    ``amplitude`` is the composite complex gain d_q of the reflection; leave
    it None to derive magnitude and static phase from RCS, delay and the
    carrier at synthesis time.  ``doppler_hz`` set to None falls back to the
    mono-static 2 v / lambda rule using ``velocity_mps``.
    """

    delay_s: float
    doppler_hz: float | None = None
    velocity_mps: float = 0.0
    angle_rad: float = 0.0
    departure_rad: float = 0.0
    rcs_m2: float = 1.0
    amplitude: complex | None = None
    fading: str = "swerling0"
    rician_k: float = 10.0

    def __post_init__(self):
        if self.delay_s < 0:
            raise ValueError("delay_s must be >= 0")
        if self.rcs_m2 < 0:
            raise ValueError("rcs_m2 must be >= 0")
        if abs(self.angle_rad) > np.pi / 2 + 1e-12:
            raise ValueError("angle_rad must lie in [-pi/2, pi/2]")
        if abs(self.departure_rad) > np.pi / 2 + 1e-12:
            raise ValueError("departure_rad must lie in [-pi/2, pi/2]")
        if self.fading not in _FADING_MODELS:
            raise ValueError(f"unknown fading model {self.fading!r}")
        if self.rician_k < 0:
            raise ValueError("rician_k must be >= 0")

    def resolve_doppler(self, wavelength: float) -> float:
        if self.doppler_hz is not None:
            return float(self.doppler_hz)
        return doppler_from_velocity(self.velocity_mps, wavelength)

@dataclass(frozen=True)
class Scene:
    """Everything the receiver-side synthesizers need about propagation.

    Fading is block fading: one draw per scatterer per CPI, reproducible
    from ``seed`` and the CPI index alone.
    """

    scatterers: tuple = ()
    noise_variance: float = 0.0
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "scatterers", tuple(self.scatterers))
        if self.noise_variance < 0:
            raise ValueError("noise_variance must be >= 0")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")

    @property
    def n_scatterers(self) -> int:
        return len(self.scatterers)

    def fading_gains(self, cpi_index: int = 0) -> np.ndarray:
        """Per-scatterer small-scale amplitudes for one CPI (deterministic);
        its generator is seeded only if some scatterer draws from it."""
        if not 0 <= cpi_index:
            raise ValueError("cpi_index must be >= 0")
        drawn = [sc for sc in self.scatterers if sc.fading != "swerling0"
                 and not (sc.fading == "rician" and np.isinf(sc.rician_k))]
        rng = (np.random.default_rng([int(self.seed), 0x5CA77E, cpi_index])
               if drawn else None)
        return np.array([
            draw_small_scale(sc.fading, 1.0, rng, rician_k=sc.rician_k)
            for sc in self.scatterers
        ])


def scatterer_amplitude(sc: Scatterer, carrier_hz: float, n_tx: int,
                        fading: complex = 1.0) -> complex:
    """Effective complex gain of a scatterer inside one CPI.

    An explicit ``amplitude`` is used as-is (times fading); otherwise the
    magnitude comes from the round-trip radar gain at the mono-static
    equivalent range c*tau/2 and the static phase from the carrier cycle
    count over the full path.
    """
    if sc.amplitude is not None:
        return complex(sc.amplitude) * fading
    if carrier_hz <= 0:
        raise ValueError("carrier_hz must be positive")
    if sc.delay_s == 0:
        raise ValueError("cannot derive amplitude for zero delay; give one explicitly")
    lam = SPEED_OF_LIGHT / carrier_hz
    rho = SPEED_OF_LIGHT * sc.delay_s / 2
    g = radar_large_scale_gain(lam, sc.rcs_m2, rho)
    eta = -2 * np.pi * carrier_hz * sc.delay_s
    return n_tx * np.sqrt(g) * fading * np.exp(1j * eta)


@dataclass(frozen=True)
class ReceiveCube:
    """One CPI's receive data, ``data`` of shape ``config.cube_shape``."""

    data: np.ndarray
    config: object

    def __post_init__(self):
        d = np.asarray(self.data, dtype=complex)
        expected = self.config.cube_shape
        if d.shape != expected:
            raise ValueError(f"cube shape {d.shape} != expected {expected}")
        object.__setattr__(self, "data", d)


def _synthesize(scene: Scene, config, symbols: np.ndarray, response,
                cpi_indices, rngs) -> np.ndarray:
    """Receive data of a stack of CPIs, shape (CPIs,) + ``config.cube_shape``.

    ``symbols`` covers the leading cube axes, (CPIs, slots) or
    (CPIs, slots, samples).  Each scatterer adds, in CPI k, its composite
    amplitude with the fading of CPI ``cpi_indices[k]``, times the symbols
    ``symbols[k]``, times its unit response ``response(delay_s, doppler_hz,
    angle_rad, slots)``, the waveform's bound response evaluated on every
    slot (the symbols broadcast against it).  Then noise of the scene's
    variance is drawn for CPI k from ``rngs[k]``; none is drawn when it is
    0, and a Generator is required for every CPI when it is not.
    """
    if scene.noise_variance > 0 and any(rng is None for rng in rngs):
        raise ValueError("a Generator is required when noise_variance > 0")
    slots = np.arange(config.cube_shape[0])
    symbols = symbols.reshape(symbols.shape + (1,) * (
        1 + len(config.cube_shape) - symbols.ndim))
    amps = np.array([[scatterer_amplitude(sc, config.carrier_hz,
                                          config.geometry.n_tx, fading)
                      for sc, fading in zip(scene.scatterers,
                                            scene.fading_gains(i))]
                     for i in cpi_indices], dtype=complex)
    data = np.zeros((len(symbols),) + config.cube_shape, dtype=complex)
    for sc, d_q in zip(scene.scatterers, amps.T):
        data += (d_q.reshape((-1,) + (1,) * (symbols.ndim - 1)) * symbols) \
            * response(sc.delay_s, sc.resolve_doppler(config.wavelength),
                       sc.angle_rad, slots)
    if scene.noise_variance > 0:
        for cpi, rng in zip(data, rngs):
            cpi += complex_awgn(rng, cpi.shape, scene.noise_variance)
    return data
