"""Monte-Carlo experiment orchestration over (multiplex, SNR) sweep points.

Each trial is fully self-contained and seeded counter-style from
(master seed, point index, trial index), so results do not depend on how
trials are spread over workers or batches.  Inline, the trials of a sweep
point run as one stacked batch, or several when their receive cubes hold
more than ``_BATCH_CELLS`` cells: the trial-invariant plan (code, schedule
or pilots, amplitudes, noise variance, DFT tables) is built once per
batch, and synthesis, the coarse map, decoding and refinement carry a
leading trial axis.  Within the batch each trial's generator is consumed
in the fixed per-trial order: its payload bits are drawn first, then its
noise inside the receive synthesizer.  Peak picking, the amplitude
least-squares fit and the matching to the truth stay per trial.  A batch
in which some trial raises a ValueError is rerun one trial at a time, so
only that trial fails.  The process pool runs every trial as a batch of
one.  Aggregation is single-threaded over the original trial order, and
every float is written via its shortest round-trip form, which makes
reruns byte-identical.

Per-sample SNR convention: the sweep's SNR point fixes the noise variance
as sigma^2 = sum_q |d_q|^2 / snr_linear, where d_q are the scatterers'
nominal composite amplitudes (explicit values, or the link-budget-derived
magnitude with unit fading).  A null SNR point keeps the scene's own
noise_variance verbatim instead.
"""

from __future__ import annotations

import json
import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .alloc import detection_probability
from .channel import complex_awgn, scatterer_amplitude
from .config import ScenarioConfig, config_hash
from .estim import (_ofdma_demodulate, _ofdma_detect, _ofdma_windows,
                    _pmcw_demodulate, _pmcw_detect, _pmcw_windows, _refined,
                    golay_cef_waveform, golay_range_estimate, profile_peaks)
from .ofdma import _ofdma_response, _ofdma_synthesize, _symbol_grids, \
    build_symbol_grid, grid_capacity_bits, ofdma_pilot_mask, ofdma_transmit
from .perf import TradeoffSpec, crlb_proxy, jrc_objective, mmse_from_rate, \
    peak_sidelobe_ratio
from .pmcw import PmcwConfig, _frame_symbols, _pmcw_response, \
    _pmcw_synthesize, payload_capacity_bits, pmcw_frame_symbols, \
    pmcw_schedule, pmcw_transmit
from .sigcore import CodeSequence, aperiodic_autocorr, golay_pair
# perfbench/tracing.py wraps these stage functions in this namespace, so
# they stay bound here although the batch path calls the private helpers.
from .estim import ofdma_decode, ofdma_range_doppler_angle, ofdma_refine, \
    pmcw_decode, pmcw_range_doppler, pmcw_refine  # noqa: F401
from .ofdma import ofdma_receive_cube  # noqa: F401
from .perf import ambiguity_function  # noqa: F401
from .pmcw import pmcw_receive_cube  # noqa: F401
from .tensorio import write_table_csv


@dataclass(frozen=True)
class SweepPoint:
    """One cell of the sweep grid; None fields mean 'leave as configured'."""

    index: int
    mu_percent: float | None
    snr_db: float | None


@dataclass
class TrialOutcome:
    """Raw per-trial bookkeeping, one row per true scatterer when it ran."""

    point: int
    trial: int
    failed: bool = False
    message: str = ""
    true_delays: list = field(default_factory=list)
    true_dopplers: list = field(default_factory=list)
    true_angles: list = field(default_factory=list)
    est_delays: list = field(default_factory=list)
    est_dopplers: list = field(default_factory=list)
    est_angles: list = field(default_factory=list)
    ref_delays: list = field(default_factory=list)
    ref_dopplers: list = field(default_factory=list)
    ref_angles: list = field(default_factory=list)
    n_bits: int = 0
    bit_errors: int = 0


@dataclass
class PointResult:
    """Aggregates of one sweep point, as written to the CSV tables."""

    mu_percent: float
    snr_db: float | None
    n_trials: int
    n_failures: int
    example_failure: str
    rmse_delay_s: float
    rmse_doppler_hz: float
    rmse_angle_rad: float
    refined_rmse_delay_s: float
    refined_rmse_doppler_hz: float
    refined_rmse_angle_rad: float
    n_bits: int
    n_bit_errors: int
    ber: float
    psl_db: float
    p_detect: float


@dataclass
class RunReport:
    """Everything run_scenario produced, minus the bulk trial rows."""

    config_hash: str
    seed: int
    waveform: str
    points: list
    tradeoff: list
    outputs: list
    wall_clock_s: float


# ---------------------------------------------------------------------------
# Scenario plumbing shared by trials and aggregation
# ---------------------------------------------------------------------------


def build_code(config: ScenarioConfig, wavecfg: PmcwConfig) -> CodeSequence:
    """The scenario's fast-time code (shared by every trial)."""
    if config.code_kind == "mseq":
        return CodeSequence.mseq(int(wavecfg.code_length + 1).bit_length() - 1)
    return CodeSequence.random_binary(wavecfg.code_length, config.code_seed)


def _effective_config(config: ScenarioConfig, point: SweepPoint):
    wavecfg = config.waveform_config
    if point.mu_percent is not None:  # golay configs sweep no mu
        wavecfg = replace(wavecfg, mu_percent=point.mu_percent)
    return wavecfg


def _nominal_amplitudes(config: ScenarioConfig, wavecfg) -> np.ndarray:
    """Per-scatterer composite amplitudes with unit fading."""
    if config.waveform == "golay":
        return np.array([sc.amplitude if sc.amplitude is not None else 1.0
                         for sc in config.scene.scatterers], dtype=complex)
    geom = wavecfg.geometry
    return np.array([
        scatterer_amplitude(sc, wavecfg.carrier_hz, geom.n_tx, fading=1.0)
        for sc in config.scene.scatterers], dtype=complex)


def _noise_variance(config: ScenarioConfig, point: SweepPoint,
                    amplitudes: np.ndarray) -> float:
    if point.snr_db is None:
        return config.scene.noise_variance
    signal_power = float(np.sum(np.abs(amplitudes) ** 2))
    if signal_power == 0:
        raise ValueError("SNR sweep needs at least one nonzero scatterer")
    return signal_power / 10.0 ** (point.snr_db / 10.0)


def _true_parameters(config: ScenarioConfig, wavecfg):
    delays = np.array([sc.delay_s for sc in config.scene.scatterers])
    if config.waveform == "golay":
        dopplers = np.full(delays.size, math.nan)
        angles = np.full(delays.size, math.nan)
    else:
        dopplers = np.array([sc.resolve_doppler(wavecfg.wavelength)
                             for sc in config.scene.scatterers])
        angles = np.array([sc.angle_rad for sc in config.scene.scatterers])
    return delays, dopplers, angles


def _nearest(targets, truths, scales):
    """(delays, dopplers, angles) of each truth's nearest target.

    Distance is the scaled delay/Doppler/angle error; a NaN true Doppler
    or angle drops that term.
    """
    d_scale, f_scale, a_scale = scales
    best = [min(targets, key=lambda t: (
        abs(t.delay_s - delay) / d_scale
        + (0.0 if math.isnan(doppler)
           else abs(t.doppler_hz - doppler) / f_scale)
        + (0.0 if math.isnan(angle)
           else abs(t.angle_rad - angle) / a_scale)))
        for delay, doppler, angle in zip(*truths)]
    return ([float(t.delay_s) for t in best],
            [float(t.doppler_hz) for t in best],
            [float(t.angle_rad) for t in best])


def _trial_payloads(config: ScenarioConfig, point: SweepPoint, trials,
                    capacity: int):
    """(generators, payload rows) of the trials; each generator has drawn
    its trial's payload bits and draws its noise next."""
    rngs = [np.random.default_rng([config.seed, point.index, trial])
            for trial in trials]
    payload = np.array([rng.integers(0, 2, capacity) for rng in rngs],
                       dtype=np.int64).reshape(len(rngs), capacity)
    return rngs, payload


def _point_scene(config: ScenarioConfig, wavecfg, point: SweepPoint):
    amps = _nominal_amplitudes(config, wavecfg)
    return replace(config.scene,
                   noise_variance=_noise_variance(config, point, amps))


def _matching_scales(wavecfg) -> tuple:
    """(delay, Doppler, angle) resolution of a PMCW or OFDMA CPI, which
    scales the truth-matching distance and, over 64, the CRLB steps."""
    if isinstance(wavecfg, PmcwConfig):
        delay, cpi = wavecfg.chip_time, wavecfg.n_frames * wavecfg.block_time
    else:
        delay = wavecfg.sample_time
        cpi = wavecfg.n_symbols * wavecfg.symbol_duration
    return delay, 1.0 / cpi, 1.0 / wavecfg.geometry.n_rx


def _record_trials(config, wavecfg, point, trials, coarse, refined, payload,
                   bits_hat) -> list:
    """One outcome per trial: every truth with its nearest coarse and
    refined estimate, and the bit errors of its payload."""
    scales = _matching_scales(wavecfg)
    truths = _true_parameters(config, wavecfg)
    true_lists = [[float(v) for v in axis] for axis in truths]
    errors = np.count_nonzero(bits_hat != payload, axis=1).tolist()
    outcomes = []
    for trial, found, kept, n_errors in zip(trials, coarse, refined, errors):
        outcome = TrialOutcome(point=point.index, trial=trial,
                               n_bits=payload.shape[1], bit_errors=n_errors)
        outcome.true_delays, outcome.true_dopplers, outcome.true_angles = (
            list(axis) for axis in true_lists)
        outcome.est_delays, outcome.est_dopplers, outcome.est_angles = \
            _nearest(found, truths, scales)
        outcome.ref_delays, outcome.ref_dopplers, outcome.ref_angles = \
            _nearest(kept, truths, scales)
        outcomes.append(outcome)
    return outcomes


def _pmcw_trials(config, point, trials) -> list:
    wavecfg = _effective_config(config, point)
    order = config.symbol_order
    sched = pmcw_schedule(wavecfg)
    chips = build_code(config, wavecfg).chips()
    code_spec = np.fft.fft(chips)
    rngs, payload = _trial_payloads(config, point, trials,
                                    payload_capacity_bits(sched, order))
    symbols = _frame_symbols(sched, payload, order)
    data = _pmcw_synthesize(_point_scene(config, wavecfg, point), wavecfg,
                            chips, symbols, trials, rngs)
    _, coarse = _pmcw_detect(data, code_spec, wavecfg, sched,
                             config.estimator)
    bits_hat, _, full_symbols = _pmcw_demodulate(data, chips, wavecfg, sched,
                                                 coarse, order)
    fine = config.estimator.refined(config.refine_factor)
    _, refined = _refined(_pmcw_windows(data, code_spec, wavecfg,
                                        full_symbols, fine), fine)

    return _record_trials(config, wavecfg, point, trials, coarse, refined,
                          payload, bits_hat)


def _ofdma_trials(config, point, trials) -> list:
    wavecfg = _effective_config(config, point)
    order = config.symbol_order
    rngs, payload = _trial_payloads(config, point, trials,
                                    grid_capacity_bits(wavecfg, order))
    grids = _symbol_grids(wavecfg, payload, order)
    radar_rows = ofdma_pilot_mask(wavecfg)
    data = _ofdma_synthesize(_point_scene(config, wavecfg, point), wavecfg,
                             grids, trials, rngs)
    _, coarse = _ofdma_detect(data, grids, radar_rows, wavecfg,
                              config.estimator)
    bits_hat, _, full_symbols = _ofdma_demodulate(data, grids, radar_rows,
                                                  wavecfg, coarse, order)
    fine = config.estimator.refined(config.refine_factor)
    _, refined = _refined(_ofdma_windows(data, full_symbols, wavecfg, fine),
                          fine)

    return _record_trials(config, wavecfg, point, trials, coarse, refined,
                          payload, bits_hat)


def _golay_received(config, wavecfg, amplitudes, noise_variance, rng):
    pair = golay_pair(wavecfg.log2_length)
    cef = golay_cef_waveform(pair, wavecfg.guard_samples)
    rx = np.zeros(cef.size, dtype=complex)
    for sc, amp in zip(config.scene.scatterers, amplitudes):
        shift = int(round(sc.delay_s / wavecfg.sample_time_s))
        if not 0 <= shift < wavecfg.guard_samples:
            raise ValueError("path delay must fall inside the guard window")
        rx[shift:] += amp * cef[:cef.size - shift]
    if noise_variance > 0:
        rx += complex_awgn(rng, rx.shape, noise_variance)
    return pair, rx


def _golay_trials(config, point, trials) -> list:
    """Golay sounding has no CPI stack; its trials run one after another."""
    wavecfg = _effective_config(config, point)
    amps = _nominal_amplitudes(config, wavecfg)
    sigma2 = _noise_variance(config, point, amps)
    delays = np.array([sc.delay_s for sc in config.scene.scatterers])
    outcomes = []
    for trial in trials:
        rng = np.random.default_rng([config.seed, point.index, trial])
        pair, rx = _golay_received(config, wavecfg, amps, sigma2, rng)
        profile = golay_range_estimate(rx, pair, wavecfg.guard_samples)
        bins = profile_peaks(np.abs(profile), config.estimator.max_targets,
                             config.estimator.threshold_db)
        if not bins:
            raise ValueError("no delay profile peak above threshold")

        outcome = TrialOutcome(point=point.index, trial=trial)
        for q in range(delays.size):
            best = min(bins, key=lambda b: abs(b * wavecfg.sample_time_s
                                               - delays[q]))
            outcome.true_delays.append(float(delays[q]))
            outcome.true_dopplers.append(math.nan)
            outcome.true_angles.append(math.nan)
            outcome.est_delays.append(best * wavecfg.sample_time_s)
            outcome.est_dopplers.append(math.nan)
            outcome.est_angles.append(math.nan)
        outcome.ref_delays = list(outcome.est_delays)
        outcome.ref_dopplers = list(outcome.est_dopplers)
        outcome.ref_angles = list(outcome.est_angles)
        outcomes.append(outcome)
    return outcomes


_POINT_FNS = {"pmcw": _pmcw_trials, "ofdma": _ofdma_trials,
              "golay": _golay_trials}

# Receive-cube cells one batch may stack (256 kB of samples).  A batch's
# refinement windows take several times its cubes' memory, so more trials
# run as several batches and peak memory does not grow with the count.
_BATCH_CELLS = 1 << 14


def _batch_size(config: ScenarioConfig) -> int:
    wavecfg = config.waveform_config
    if config.waveform == "pmcw":
        cells = wavecfg.n_frames * wavecfg.code_length
    elif config.waveform == "ofdma":
        cells = wavecfg.n_subcarriers * wavecfg.n_symbols
    else:
        return 1  # Golay trials run one by one inside a batch anyway
    return max(1, _BATCH_CELLS // (cells * wavecfg.geometry.n_rx))


def _run_batch(config: ScenarioConfig, point: SweepPoint, trials) -> list:
    """Outcomes of one stacked batch of trials at one sweep point.

    Only a ValueError (the domain errors, LinAlgError included) fails a
    trial; any other exception is a bug and propagates.  A batch that
    raises one is rerun as batches of one, so that only the trials that
    raise it fail, each with its own message.
    """
    try:
        return _POINT_FNS[config.waveform](config, point, trials)
    except ValueError as exc:
        if len(trials) > 1:
            return [outcome for trial in trials
                    for outcome in _run_batch(config, point, [trial])]
        return [TrialOutcome(point=point.index, trial=trials[0], failed=True,
                             message=f"{type(exc).__name__}: {exc}")]


def _run_point_trials(config: ScenarioConfig, point: SweepPoint,
                      trials) -> list:
    """Outcomes of ``trials`` at one sweep point, in stacked batches."""
    trials = list(trials)
    step = _batch_size(config)
    return [outcome for start in range(0, len(trials), step)
            for outcome in _run_batch(config, point,
                                      trials[start:start + step])]


def _run_single_trial(args) -> TrialOutcome:
    """Pool worker entry point: one (config, point, trial) task, run as a
    batch of one; must stay module-level for process pools."""
    config, point, trial = args
    return _run_batch(config, point, [trial])[0]


# ---------------------------------------------------------------------------
# Point-level extras: waveform PSL and model detection probability
# ---------------------------------------------------------------------------


def _point_waveform_samples(config: ScenarioConfig, wavecfg,
                            point: SweepPoint) -> np.ndarray:
    """Trial-0 transmit samples of this sweep point (payload included)."""
    rng = np.random.default_rng([config.seed, point.index, 0])
    if config.waveform == "pmcw":
        sched = pmcw_schedule(wavecfg)
        payload = rng.integers(
            0, 2, payload_capacity_bits(sched, config.symbol_order))
        symbols = pmcw_frame_symbols(sched, payload.astype(np.int64),
                                     config.symbol_order)
        return pmcw_transmit(wavecfg, build_code(config, wavecfg),
                             symbols)[0].ravel()
    if config.waveform == "ofdma":
        payload = rng.integers(
            0, 2, grid_capacity_bits(wavecfg, config.symbol_order))
        grid = build_symbol_grid(wavecfg, payload.astype(np.int64),
                                 config.symbol_order)
        return ofdma_transmit(wavecfg, grid)[0].ravel()
    pair = golay_pair(wavecfg.log2_length)
    return golay_cef_waveform(pair, wavecfg.guard_samples).astype(complex)


def _point_psl_db(config: ScenarioConfig, wavecfg,
                  point: SweepPoint) -> float:
    """PSL of the point's waveform autocorrelation (the AF's zero-Doppler
    cut up to its energy scale, which the ratio drops)."""
    samples = _point_waveform_samples(config, wavecfg, point)
    try:
        return peak_sidelobe_ratio(np.abs(aperiodic_autocorr(samples)))
    except ValueError:
        return math.nan


def _integration_gain(config: ScenarioConfig, wavecfg) -> float:
    if config.waveform == "pmcw":
        sched = pmcw_schedule(wavecfg)
        return wavecfg.code_length * max(sched.n_radar, 1)
    if config.waveform == "ofdma":
        radar_rows = int(np.count_nonzero(ofdma_pilot_mask(wavecfg)))
        return max(radar_rows, 1) * wavecfg.n_symbols
    return 2.0 * 2 ** wavecfg.log2_length


def _point_p_detect(config: ScenarioConfig, wavecfg, point: SweepPoint,
                    amplitudes: np.ndarray) -> float:
    """Detection probability of the closed-form detector model.

    Uses the coherent integration gain over the radar-only resources on
    top of the per-sample SNR; noiseless points with signal saturate to 1.
    Without a scatterer, without signal power to fix a swept SNR by, or
    with neither signal nor noise, it is NaN.
    """
    signal_power = float(np.sum(np.abs(amplitudes) ** 2))
    if amplitudes.size == 0 or (signal_power == 0
                                and point.snr_db is not None):
        return math.nan
    sigma2 = _noise_variance(config, point, amplitudes)
    if sigma2 == 0:
        return 1.0 if signal_power else math.nan
    return detection_probability(
        signal_power / sigma2 * _integration_gain(config, wavecfg),
        config.false_alarm)


def scenario_waveform_samples(config: ScenarioConfig):
    """(samples, sample_rate_hz) of the scenario's trial-0 waveform.

    This is what the ambiguity-surface export runs on; the payload is the
    seed-derived trial-0 draw so reruns produce identical files.
    """
    point = SweepPoint(index=0, mu_percent=None, snr_db=None)
    wavecfg = config.waveform_config
    samples = _point_waveform_samples(config, wavecfg, point)
    if config.waveform == "pmcw":
        rate = 1.0 / wavecfg.chip_time
    elif config.waveform == "ofdma":
        rate = 1.0 / wavecfg.sample_time
    else:
        rate = 1.0 / wavecfg.sample_time_s
    return samples, rate


# ---------------------------------------------------------------------------
# Trade-off bookkeeping (weight sweep)
# ---------------------------------------------------------------------------


def _comm_fraction(config: ScenarioConfig, wavecfg) -> float:
    """Share of the resources carrying data (golay configs have no
    weights, so never get here)."""
    if config.waveform == "pmcw":
        sched = pmcw_schedule(wavecfg)
        return (sched.n_frames - sched.n_radar) / sched.n_frames
    return float(np.mean(~ofdma_pilot_mask(wavecfg)))


def _crlb_model(config: ScenarioConfig, wavecfg):
    """Continuous-parameter noiseless unit response for the Fisher proxy.

    It is the waveform's receive model (``pmcw._pmcw_response``,
    ``ofdma._ofdma_response``) on every slot; PMCW takes a fractional
    delay as an FFT shift of the code.
    """
    if config.waveform == "ofdma":
        rows = np.arange(wavecfg.n_subcarriers)
        return lambda theta: _ofdma_response(wavecfg, *theta, rows)
    l_count = wavecfg.code_length
    spectrum = np.fft.fft(build_code(config, wavecfg).chips())
    freqs = np.fft.fftfreq(l_count, d=1.0 / l_count)
    frames = np.arange(wavecfg.n_frames)

    def model(theta):
        tau, doppler, angle = theta
        frac = tau / wavecfg.chip_time
        shifted = np.fft.ifft(
            spectrum * np.exp(-2j * np.pi * freqs * frac / l_count))
        return _pmcw_response(wavecfg, shifted, doppler, angle, frames)

    return model


def _tradeoff_rows(config: ScenarioConfig, wavecfg, point: SweepPoint,
                   mu_value: float, amplitudes: np.ndarray) -> list:
    """One (objective) row per sweep weight, where the terms are defined."""
    if not config.weights:
        return []
    delta = _comm_fraction(config, wavecfg)
    # The CRLB term is taken at the first scatterer and needs its signal.
    if delta == 0 or not np.any(amplitudes[:1]):
        return []
    sigma2 = _noise_variance(config, point, amplitudes)
    if sigma2 == 0:
        return []
    rate = math.log2(config.symbol_order)
    n_len = (wavecfg.code_length if config.waveform == "pmcw"
             else wavecfg.n_subcarriers)
    mmse = mmse_from_rate(rate, n_len)

    sc = config.scene.scatterers[0]
    doppler = sc.resolve_doppler(wavecfg.wavelength)
    theta = np.array([sc.delay_s, doppler, sc.angle_rad])
    d_scale, f_scale, _ = _matching_scales(wavecfg)
    steps = np.array([d_scale / 64, f_scale / 64, 1e-3])
    amp0 = abs(amplitudes[0])
    model = _crlb_model(config, wavecfg)
    crlb = crlb_proxy(lambda th: amp0 * model(th), theta, sigma2, steps)

    rows = []
    for w in config.weights:
        objective = jrc_objective(TradeoffSpec(
            rate=rate, delta=delta, code_length=n_len, mmse=mmse, crlb=crlb,
            n_targets=len(config.scene.scatterers), weight=w))
        rows.append([mu_value, _snr_field(point.snr_db), w, delta, rate,
                     objective])
    return rows


# ---------------------------------------------------------------------------
# Aggregation and file output
# ---------------------------------------------------------------------------


def _safe_rmse(est: list, true: list) -> float:
    if not est:
        return math.nan
    e = np.asarray(est)
    t = np.asarray(true)
    keep = ~(np.isnan(e) | np.isnan(t))
    if not keep.any():
        return math.nan
    return float(np.sqrt(np.mean((e[keep] - t[keep]) ** 2)))


def _snr_field(snr_db) -> float:
    return math.nan if snr_db is None else float(snr_db)


def _aggregate_point(config: ScenarioConfig, point: SweepPoint,
                     outcomes: list) -> PointResult:
    wavecfg = _effective_config(config, point)
    mu_value = getattr(wavecfg, "mu_percent", 0.0)
    amps = _nominal_amplitudes(config, wavecfg)

    ok = [o for o in outcomes if not o.failed]
    failures = [o for o in outcomes if o.failed]

    def gather(name):
        return [v for o in ok for v in getattr(o, name)]

    n_bits = sum(o.n_bits for o in ok)
    n_errors = sum(o.bit_errors for o in ok)
    return PointResult(
        mu_percent=float(mu_value),
        snr_db=point.snr_db,
        n_trials=len(outcomes),
        n_failures=len(failures),
        example_failure=failures[0].message if failures else "",
        rmse_delay_s=_safe_rmse(gather("est_delays"), gather("true_delays")),
        rmse_doppler_hz=_safe_rmse(gather("est_dopplers"),
                                   gather("true_dopplers")),
        rmse_angle_rad=_safe_rmse(gather("est_angles"),
                                  gather("true_angles")),
        refined_rmse_delay_s=_safe_rmse(gather("ref_delays"),
                                        gather("true_delays")),
        refined_rmse_doppler_hz=_safe_rmse(gather("ref_dopplers"),
                                           gather("true_dopplers")),
        refined_rmse_angle_rad=_safe_rmse(gather("ref_angles"),
                                          gather("true_angles")),
        n_bits=n_bits,
        n_bit_errors=n_errors,
        ber=(n_errors / n_bits) if n_bits else math.nan,
        psl_db=_point_psl_db(config, wavecfg, point),
        p_detect=_point_p_detect(config, wavecfg, point, amps),
    )


def _write_outputs(out_dir: Path, config: ScenarioConfig, results: list,
                   outcomes_by_point: list, tradeoff_rows: list) -> list:
    out_dir.mkdir(parents=True, exist_ok=True)
    outputs = []

    rmse_path = out_dir / "rmse_vs_snr.csv"
    write_table_csv(rmse_path, [
        "mu_percent", "snr_db", "n_trials", "n_failures",
        "rmse_delay_s", "rmse_doppler_hz", "rmse_angle_rad",
        "refined_rmse_delay_s", "refined_rmse_doppler_hz",
        "refined_rmse_angle_rad"],
        [[r.mu_percent, _snr_field(r.snr_db), r.n_trials, r.n_failures,
          r.rmse_delay_s, r.rmse_doppler_hz, r.rmse_angle_rad,
          r.refined_rmse_delay_s, r.refined_rmse_doppler_hz,
          r.refined_rmse_angle_rad] for r in results])
    outputs.append(rmse_path.name)

    ber_path = out_dir / "ber_vs_snr.csv"
    write_table_csv(ber_path, [
        "mu_percent", "snr_db", "n_trials", "n_bits", "n_bit_errors", "ber"],
        [[r.mu_percent, _snr_field(r.snr_db), r.n_trials, r.n_bits,
          r.n_bit_errors, r.ber] for r in results])
    outputs.append(ber_path.name)

    est_path = out_dir / "estimates.csv"
    rows = []
    for result, outcomes in zip(results, outcomes_by_point):
        for o in outcomes:
            if o.failed:
                continue
            trial_ber = (o.bit_errors / o.n_bits) if o.n_bits else math.nan
            for q in range(len(o.true_delays)):
                rows.append([
                    result.mu_percent, _snr_field(result.snr_db), o.trial, q,
                    o.true_delays[q], o.est_delays[q], o.ref_delays[q],
                    o.true_dopplers[q], o.est_dopplers[q], o.ref_dopplers[q],
                    o.true_angles[q], o.est_angles[q], o.ref_angles[q],
                    trial_ber])
    write_table_csv(est_path, [
        "mu_percent", "snr_db", "trial", "scatterer",
        "true_delay_s", "est_delay_s", "refined_delay_s",
        "true_doppler_hz", "est_doppler_hz", "refined_doppler_hz",
        "true_angle_rad", "est_angle_rad", "refined_angle_rad", "ber"], rows)
    outputs.append(est_path.name)

    if tradeoff_rows:
        tr_path = out_dir / "tradeoff.csv"
        write_table_csv(tr_path, [
            "mu_percent", "snr_db", "weight", "comm_fraction",
            "rate_bits", "objective"], tradeoff_rows)
        outputs.append(tr_path.name)
    return outputs


def _json_safe(value):
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def run_scenario(config: ScenarioConfig, *, out_dir=None,
                 workers: int = 1) -> RunReport:
    """Execute the sweep, write the output tables, return the report.

    Inline, each point's trials run as stacked batches; ``workers`` > 1
    fans them out to a process pool as batches of one.  Outputs are
    identical for any worker count because trials are seeded by index.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    started = time.perf_counter()
    destination = Path(out_dir) if out_dir is not None else Path(config.out_dir)

    mus = config.mu_sweep if config.mu_sweep else (None,)
    points = [SweepPoint(index=i, mu_percent=mu, snr_db=snr)
              for i, (mu, snr) in enumerate(
                  (m, s) for m in mus for s in config.snr_db)]

    if workers > 1:
        # One map over every (point, trial): no barrier between points.
        tasks = [(config, point, t) for point in points
                 for t in range(config.trials)]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunk = max(1, len(tasks) // (4 * workers))
            flat = list(pool.map(_run_single_trial, tasks, chunksize=chunk))
    else:
        flat = [outcome for point in points
                for outcome in _run_point_trials(config, point,
                                                 range(config.trials))]
    outcomes_by_point = [flat[i * config.trials:(i + 1) * config.trials]
                         for i in range(len(points))]

    results = [_aggregate_point(config, point, outcomes)
               for point, outcomes in zip(points, outcomes_by_point)]

    tradeoff_rows = []
    for point, result in zip(points, results):
        wavecfg = _effective_config(config, point)
        amps = _nominal_amplitudes(config, wavecfg)
        tradeoff_rows.extend(
            _tradeoff_rows(config, wavecfg, point, result.mu_percent, amps))

    outputs = _write_outputs(destination, config, results,
                             outcomes_by_point, tradeoff_rows)

    report = RunReport(
        config_hash=config_hash(config),
        seed=config.seed,
        waveform=config.waveform,
        points=results,
        tradeoff=tradeoff_rows,
        outputs=outputs,
        wall_clock_s=time.perf_counter() - started)

    report_path = Path(destination) / "report.json"
    payload = {
        "config_hash": report.config_hash,
        "seed": report.seed,
        "waveform": report.waveform,
        "wall_clock_s": report.wall_clock_s,
        "outputs": report.outputs,
        "points": [
            {k: _json_safe(v) for k, v in vars(r).items()}
            for r in report.points],
        "tradeoff": [[_json_safe(v) for v in row]
                     for row in report.tradeoff],
    }
    with open(report_path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    report.outputs.append(report_path.name)
    return report
