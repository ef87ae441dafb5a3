"""Millimeter-wave joint radar-communications waveform simulations.

The package covers two JRC waveform families end to end: a phase-coded
continuous-wave design that time-multiplexes radar-only and data frames,
and a multicarrier design that frequency-multiplexes radar pilots among
data subcarriers.  Around them sit the propagation scene, receive-cube
synthesis, range/Doppler/angle estimation with symbol decoding and
refinement, ambiguity-function analysis, the distortion-MMSE trade-off,
subcarrier power allocation, and a reproducible Monte-Carlo runner with a
CLI front end.
"""

from .alloc import np_allocate, waterfill
from .channel import Scatterer, Scene
from .config import ConfigError, config_hash, load_config, save_config
from .estim import (EstimatorConfig, ofdma_decode, ofdma_range_doppler_angle,
                    ofdma_refine, pmcw_decode, pmcw_range_doppler,
                    pmcw_refine)
from .ofdma import build_symbol_grid, ofdma_receive_cube
from .perf import ambiguity_function
from .pmcw import (PmcwConfig, payload_capacity_bits, pmcw_frame_symbols,
                   pmcw_receive_cube, pmcw_schedule)
from .runner import run_scenario
from .sigcore import ArrayGeometry, CodeSequence
from .tensorio import read_tensor, write_tensor

__version__ = "0.1.0"

__all__ = [
    "ArrayGeometry", "CodeSequence", "Scatterer", "Scene", "PmcwConfig",
    "EstimatorConfig", "ConfigError",
    "pmcw_schedule", "pmcw_frame_symbols", "payload_capacity_bits",
    "pmcw_receive_cube", "pmcw_range_doppler", "pmcw_decode", "pmcw_refine",
    "build_symbol_grid", "ofdma_receive_cube", "ofdma_range_doppler_angle",
    "ofdma_decode", "ofdma_refine",
    "ambiguity_function", "waterfill", "np_allocate",
    "load_config", "save_config", "config_hash", "run_scenario",
    "read_tensor", "write_tensor",
    "__version__",
]
