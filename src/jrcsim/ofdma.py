"""OFDMA transmit/receive modeling with subcarrier-level multiplexing.

A fraction of the N_c subcarriers is reserved as radar pilots (known
symbols on every OFDM symbol); the rest carry DPSK data differentially
encoded along slow time.  :func:`ofdma_pilot_mask` gives the split as a
boolean mask over the subcarriers.  The receive data cube, a
``channel.ReceiveCube`` of the config's ``cube_shape`` (N_c, N_s, N_r),
lives in the subcarrier domain: entry (n, m, p) of a scatterer's
contribution is

    d_q * a_{n,m} * exp(-j 2 pi n df tau_q) * exp(+j 2 pi m T f_D)
        * exp(+j 2 pi (d/lambda) sin(psi) p)

sampled at t_s = 1/(N_c df) so the IFFT length equals the fast-time sample
count.  The cyclic prefix is stripped before cube formation; target delays
beyond the CP only draw a warning (:func:`_warn_isi`, which a scenario
config calls too) because the sampled-sum model stays well defined.  The
unit response (all but d_q * a_{n,m}) is written once, in
:func:`_ofdma_response`; bound to a config, it is what
``channel._synthesize`` evaluates on every subcarrier, and what the
decoder's amplitude fit and the runner's CRLB proxy evaluate.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .channel import SPEED_OF_LIGHT, ReceiveCube, Scene, _carrier_link, \
    _synthesize
from .sigcore import ArrayGeometry, _column, _radar_count, dpsk_encode


class IsiWarning(UserWarning):
    """A target delay exceeds the cyclic prefix."""


@dataclass(frozen=True)
class OfdmaConfig:
    """Dimensions and numerology of one OFDMA CPI."""

    n_subcarriers: int
    n_symbols: int
    subcarrier_spacing_hz: float
    carrier_hz: float
    cp_samples: int = 0
    mu_percent: float = 50.0
    pilot_seed: int = 0
    geometry: ArrayGeometry = field(default_factory=ArrayGeometry)

    def __post_init__(self):
        if self.n_subcarriers < 1:
            raise ValueError("n_subcarriers must be >= 1")
        if self.n_symbols < 1:
            raise ValueError("n_symbols must be >= 1")
        for name in ("subcarrier_spacing_hz", "carrier_hz"):
            if not 0 < getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be positive and finite")
        if not 0 <= self.cp_samples <= self.n_subcarriers:
            raise ValueError("cp_samples must lie in [0, n_subcarriers]")
        if not 0 <= self.mu_percent <= 100:
            raise ValueError("mu_percent must lie in [0, 100]")
        if self.pilot_seed < 0:
            raise ValueError("pilot_seed must be >= 0")
        if self.pilot_seed % 1:  # int() would truncate it
            raise ValueError(
                f"pilot_seed must be an integer, got {self.pilot_seed!r}")

    @property
    def symbol_duration(self) -> float:
        """Core symbol length T = 1/df, excluding the CP."""
        return 1.0 / self.subcarrier_spacing_hz

    @property
    def sample_time(self) -> float:
        """Fast-time sampling interval t_s = 1/(N_c df)."""
        return 1.0 / (self.n_subcarriers * self.subcarrier_spacing_hz)

    @property
    def wavelength(self) -> float:
        return SPEED_OF_LIGHT / self.carrier_hz

    @property
    def cube_shape(self) -> tuple:
        """Receive cube layout: (N_c subcarriers, N_s symbols, N_r
        elements)."""
        return (self.n_subcarriers, self.n_symbols, self.geometry.n_rx)


def ofdma_pilot_mask(config: OfdmaConfig) -> np.ndarray:
    """Boolean mask of radar-pilot subcarriers, evenly interleaved.

    round(mu*N_c/100) rows are pilots, spread uniformly starting at row 0 so
    the pilot comb alone supports unaliased range recovery within the comb's
    shortened unambiguous window.
    """
    n = config.n_subcarriers
    n_radar = _radar_count(config.mu_percent, n)
    mask = np.zeros(n, dtype=bool)
    if n_radar:
        idx = (np.arange(n_radar) * n) // n_radar
        mask[idx] = True
    return mask


def pilot_comb_spacing(mask) -> int:
    """Largest step of the pilot comb (1 when every row is a pilot)."""
    idx = np.flatnonzero(np.asarray(mask, dtype=bool))
    if idx.size == 0:
        raise ValueError("mask has no pilot rows")
    if idx.size == 1:
        return int(len(np.asarray(mask)))
    return int(np.max(np.diff(idx)))


@dataclass(frozen=True)
class SymbolGrid:
    """The N_c x N_s modulation grid with its radar-row bookkeeping."""

    symbols: np.ndarray
    radar_rows: np.ndarray
    order: int = 4

    def __post_init__(self):
        sym = np.asarray(self.symbols, dtype=complex)
        mask = np.asarray(self.radar_rows, dtype=bool)
        if sym.ndim != 2:
            raise ValueError("symbols must be an N_c x N_s matrix")
        if mask.shape != (sym.shape[0],):
            raise ValueError("radar_rows must have one flag per subcarrier")
        if np.any(np.abs(np.abs(sym) - 1) > 1e-9):
            raise ValueError("grid symbols must be unit modulus")
        object.__setattr__(self, "symbols", sym)
        object.__setattr__(self, "radar_rows", mask)

    @property
    def n_subcarriers(self) -> int:
        return int(self.symbols.shape[0])

    @property
    def n_symbols(self) -> int:
        return int(self.symbols.shape[1])

    @property
    def n_radar(self) -> int:
        return int(np.count_nonzero(self.radar_rows))


def pilot_symbols(config: OfdmaConfig, n_rows: int) -> np.ndarray:
    """Known pseudorandom QPSK pilots, reproducible from the pilot seed."""
    rng = np.random.default_rng([int(config.pilot_seed), 0x9170])
    phases = rng.integers(0, 4, size=(n_rows, config.n_symbols))
    return np.exp(2j * np.pi * (phases + 0.5) / 4)


def grid_capacity_bits(config: OfdmaConfig, order: int = 4) -> int:
    """Payload bits per CPI: each data row spends its first symbol as reference."""
    k = int(np.log2(order))
    n_comm = int(np.count_nonzero(~ofdma_pilot_mask(config)))
    if config.n_symbols < 2:
        return 0
    return n_comm * (config.n_symbols - 1) * k


def _symbol_grids(config: OfdmaConfig, bits: np.ndarray,
                  order: int) -> np.ndarray:
    """(CPIs, N_c, N_s) modulation grids, one row of payload bits each."""
    mask = ofdma_pilot_mask(config)
    n_c, n_s = config.n_subcarriers, config.n_symbols
    n_radar = int(np.count_nonzero(mask))
    grids = np.ones((len(bits), n_c, n_s), dtype=complex)
    grids[:, mask] = pilot_symbols(config, n_radar)
    k = int(np.log2(order))
    row_bits = bits.reshape(len(bits) * (n_c - n_radar), (n_s - 1) * k)
    grids[:, ~mask] = dpsk_encode(row_bits, order).reshape(
        len(bits), n_c - n_radar, n_s)
    return grids


def build_symbol_grid(config: OfdmaConfig, payload_bits, order: int = 4) -> SymbolGrid:
    """Fill the modulation grid: pilot rows known, data rows DPSK along slow time."""
    bits = np.asarray(payload_bits, dtype=np.int64)
    expected = grid_capacity_bits(config, order)
    if bits.size != expected:
        raise ValueError(f"expected {expected} payload bits, got {bits.size}")
    return SymbolGrid(symbols=_symbol_grids(config, bits.reshape(1, -1),
                                            order)[0],
                      radar_rows=ofdma_pilot_mask(config), order=order)


def ofdma_transmit(config: OfdmaConfig, grid: SymbolGrid) -> np.ndarray:
    """Time-domain transmit samples of the one transmit element, shape
    (1, N_s, N_c + CP).

    Each symbol is the unnormalized inverse DFT of its subcarrier column,
    x_m[l] = sum_n a_{n,m} exp(j 2 pi n l / N_c), with the cyclic prefix
    prepended.
    """
    if grid.n_subcarriers != config.n_subcarriers or grid.n_symbols != config.n_symbols:
        raise ValueError("grid dimensions do not match the configuration")
    n_c = config.n_subcarriers
    core = n_c * np.fft.ifft(grid.symbols, axis=0).T  # (N_s, N_c)
    if config.cp_samples:
        core = np.concatenate([core[:, n_c - config.cp_samples:], core], axis=1)
    return core[None]


def ofdma_receive_cube(scene: Scene, config: OfdmaConfig, grid: SymbolGrid,
                       rng: np.random.Generator | None = None, *,
                       cpi_index: int = 0) -> ReceiveCube:
    """Synthesize the noisy subcarrier-domain receive cube for one CPI."""
    if grid.n_subcarriers != config.n_subcarriers or grid.n_symbols != config.n_symbols:
        raise ValueError("grid dimensions do not match the configuration")

    _warn_isi(config, scene.scatterers)
    data = _synthesize(scene, config.cube_shape,
                       [_carrier_link(config, sc) for sc in scene.scatterers],
                       grid.symbols[None],
                       partial(_ofdma_response, config), [cpi_index], [rng])
    return ReceiveCube(data=data[0], config=config)


def _warn_isi(config: OfdmaConfig, scatterers, stacklevel: int = 3) -> None:
    """Warn IsiWarning for each scatterer delayed beyond the cyclic
    prefix, whose inter-symbol interference the cube model leaves out;
    ``stacklevel`` is ``warnings.warn``'s, counted from this helper."""
    cp_duration = config.cp_samples * config.sample_time
    for q, sc in enumerate(scatterers):
        if sc.delay_s > cp_duration:
            warnings.warn(
                f"scatterer {q} delay {sc.delay_s:.3e} s exceeds the cyclic "
                f"prefix ({cp_duration:.3e} s); inter-symbol interference is "
                "not modeled", IsiWarning, stacklevel=stacklevel)


def _ofdma_response(config: OfdmaConfig, delay_s, doppler_hz, angle_rad,
                    rows: np.ndarray) -> np.ndarray:
    """Unit response of one scatterer on the subcarrier ``rows``, shape
    (rows, N_s, N_r).  Its steering exponent is positive, opposite to the
    PMCW receive phasor; it takes any angle, as the CRLB proxy's angle
    step may cross +-pi/2.  Equal shaped parameter arrays give one
    response per entry, along their leading axes, each equal to the
    scalar call's."""
    delay_s, doppler_hz, angle_rad = (_column(v) for v in (
        delay_s, doppler_hz, angle_rad))
    phase_n = np.exp(-2j * np.pi * rows * config.subcarrier_spacing_hz
                     * delay_s)
    phase_m = np.exp(2j * np.pi * np.arange(config.n_symbols)
                     * config.symbol_duration * doppler_hz)
    steer = np.exp(2j * np.pi * config.geometry.spacing_over_lambda
                   * np.sin(angle_rad) * np.arange(config.geometry.n_rx))
    return (phase_n[..., :, None] * phase_m[..., None, :])[..., None] \
        * steer[..., None, None, :]
