"""Monte-Carlo experiment orchestration over (multiplex, SNR) sweep points.

Each trial is fully self-contained and seeded counter-style from
(master seed, point index, trial index), so results do not depend on how
trials are spread over workers or batches.  Inline, the trials of a sweep
point run as one stacked batch, or several when their receive cubes hold
more than ``_BATCH_CELLS`` cells: the trial-invariant plan (code, radar-slot
mask, amplitudes, noise variance, DFT tables) is built once per
batch, and synthesis, the coarse map, decoding and refinement carry a
leading trial axis.  Within the batch each trial's generator is consumed
in the fixed per-trial order: its payload bits are drawn first, then its
noise inside the receive synthesizer.  Peak picking, the amplitude
least-squares fit and the matching to the truth stay per trial.  A batch
in which some trial raises a ValueError is rerun one trial at a time, so
only that trial fails.  The process pool runs every trial as a batch of
one.

The two cube waveforms differ only in how they multiplex radar and data,
and ``_CUBES`` binds each to a ``_Cube`` for one (config, sweep point):
its radar-slot mask, payload bits per CPI, symbol-stack and transmit
builders, bound unit response, the estimator's demodulation, map layout
and DPSK plug-ins, its matching scales and the trade-off's N.  One trial
body, ``_cube_trials``, runs both from it, a binding per batch; the PSL,
p_D and trade-off code share one binding per point.  Nothing else here
tells PMCW from OFDMA.

Every waveform's trial is recorded by ``_outcome``: it matches each
true (delay, Doppler, angle) to its nearest coarse and refined estimate,
and those matches are the trial's ``estimates.csv`` rows.  Golay sounds
delay alone; its NaN Doppler and angle drop out of the match.
Aggregation is single-threaded over the original trial order, and every
float is written via its shortest round-trip form, which makes reruns
byte-identical.

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
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

from .alloc import detection_probability
from .channel import _synthesize, complex_awgn, scatterer_amplitude
from .config import ScenarioConfig, config_hash
from .estim import (_demodulate, _detect, _ofdma_derotate, _ofdma_dpsk,
                    _ofdma_layout, _pmcw_correlate, _pmcw_dpsk, _pmcw_layout,
                    _refined, _windows, golay_cef_waveform,
                    golay_range_estimate, profile_peaks)
from .ofdma import OfdmaConfig, _ofdma_response, _symbol_grids, \
    build_symbol_grid, grid_capacity_bits, ofdma_pilot_mask, ofdma_transmit
from .perf import TradeoffSpec, crlb_proxy, jrc_objective, mmse_from_rate, \
    peak_sidelobe_ratio
from .pmcw import PmcwConfig, _frame_symbols, _pmcw_response, \
    payload_capacity_bits, pmcw_frame_symbols, pmcw_schedule, pmcw_transmit
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
    """One trial's record: per true scatterer, a row of nine floats (true,
    coarse and refined delay, then Doppler, then angle) as in
    ``estimates.csv``; a failed trial has no rows, only its ``message``."""

    point: int
    trial: int
    failed: bool = False
    message: str = ""
    rows: list = field(default_factory=list)
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


def _true_parameters(config: ScenarioConfig, wavecfg) -> list:
    """(delay, Doppler, angle) of each scatterer; Golay sounding has no
    Doppler or angle, so those are NaN."""
    if config.waveform == "golay":
        return [(float(sc.delay_s), math.nan, math.nan)
                for sc in config.scene.scatterers]
    return [(float(sc.delay_s), float(sc.resolve_doppler(wavecfg.wavelength)),
             float(sc.angle_rad)) for sc in config.scene.scatterers]


def _outcome(point: SweepPoint, trial: int, truths, coarse, refined,
             scales, **counts) -> TrialOutcome:
    """The trial's record: each truth with its nearest coarse and refined
    estimate, all (delay, Doppler, angle) tuples.

    Distance is the sum of the per-axis errors over ``scales``; a NaN
    true Doppler or angle drops that term.
    """
    def nearest(estimates, truth):
        return min(estimates, key=lambda est: sum(
            0.0 if math.isnan(t) else abs(e - t) / s
            for e, t, s in zip(est, truth, scales)))

    rows = [[v for axis in zip(truth, nearest(coarse, truth),
                               nearest(refined, truth)) for v in axis]
            for truth in truths]
    return TrialOutcome(point=point.index, trial=trial, rows=rows, **counts)


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


def _parameters(targets) -> list:
    """(delay, Doppler, angle) of each estimated target, as floats."""
    return [(float(t.delay_s), float(t.doppler_hz), float(t.angle_rad))
            for t in targets]


@dataclass(frozen=True)
class _Cube:
    """A cube waveform bound to one config and sweep point: every fact of
    the waveform that the trials, PSL, p_D and trade-off read.

    ``scales`` is the (delay, Doppler, angle) resolution of one CPI, which
    scales the truth-matching distance and, over 64, the CRLB steps.
    """

    radar: np.ndarray  # radar-slot mask over the cube's first axis
    capacity: int  # payload bits per CPI
    symbols: Callable  # (CPIs, capacity) bits -> their slot symbols
    transmit: Callable  # one CPI's bits -> its per-antenna samples
    response: Callable  # unit response (delay, Doppler, angle, slots)
    demod: Callable  # estim._detect / _windows demodulation
    layout: Callable  # estim map layout (known, est)
    dpsk: Callable  # estim._demodulate DPSK layout
    scales: tuple
    n_len: int  # the trade-off's N: code length or subcarrier count


def _pmcw_cube(config: ScenarioConfig, wavecfg: PmcwConfig) -> _Cube:
    order, sched = config.symbol_order, pmcw_schedule(wavecfg)
    code = build_code(config, wavecfg)
    code_spec = np.fft.fft(code.chips())
    return _Cube(
        radar=sched, capacity=payload_capacity_bits(sched, order),
        symbols=partial(_frame_symbols, sched, order=order),
        transmit=lambda bits: pmcw_transmit(
            wavecfg, code, pmcw_frame_symbols(sched, bits, order)),
        response=partial(_pmcw_response, wavecfg, code_spec),
        demod=partial(_pmcw_correlate, code_spec=code_spec),
        layout=partial(_pmcw_layout, wavecfg), dpsk=_pmcw_dpsk,
        scales=(wavecfg.chip_time,
                1.0 / (wavecfg.n_frames * wavecfg.block_time),
                1.0 / wavecfg.geometry.n_rx),
        n_len=wavecfg.code_length)


def _ofdma_cube(config: ScenarioConfig, wavecfg: OfdmaConfig) -> _Cube:
    order = config.symbol_order
    return _Cube(
        radar=ofdma_pilot_mask(wavecfg),
        capacity=grid_capacity_bits(wavecfg, order),
        symbols=partial(_symbol_grids, wavecfg, order=order),
        transmit=lambda bits: ofdma_transmit(
            wavecfg, build_symbol_grid(wavecfg, bits, order)),
        response=partial(_ofdma_response, wavecfg), demod=_ofdma_derotate,
        layout=partial(_ofdma_layout, wavecfg), dpsk=_ofdma_dpsk,
        scales=(wavecfg.sample_time,
                1.0 / (wavecfg.n_symbols * wavecfg.symbol_duration),
                1.0 / wavecfg.geometry.n_rx),
        n_len=wavecfg.n_subcarriers)


# Each cube waveform's binding; every per-waveform fact is read from it.
_CUBES = {"pmcw": _pmcw_cube, "ofdma": _ofdma_cube}


def _point_cube(config: ScenarioConfig, wavecfg) -> _Cube | None:
    """The point's cube-waveform binding; None for Golay sounding."""
    bind = _CUBES.get(config.waveform)
    return bind(config, wavecfg) if bind else None


def _cube_trials(config, point, trials) -> list:
    """One outcome per trial of a cube waveform: every truth with its
    nearest coarse and refined estimate, and its payload's bit errors."""
    wavecfg = _effective_config(config, point)
    cube = _CUBES[config.waveform](config, wavecfg)
    rngs, payload = _trial_payloads(config, point, trials, cube.capacity)
    symbols = cube.symbols(payload)
    data = _synthesize(_point_scene(config, wavecfg, point), wavecfg,
                       symbols, cube.response, trials, rngs)
    _, coarse = _detect(data, symbols, cube.radar, cube.demod, cube.layout,
                        config.estimator)
    bits_hat, _, full_symbols = _demodulate(
        data, symbols, cube.radar, cube.response, coarse,
        config.symbol_order, cube.dpsk)
    fine = config.estimator.refined(config.refine_factor)
    _, refined = _refined(_windows(data, full_symbols, cube.demod,
                                   cube.layout, fine), fine)

    truths = _true_parameters(config, wavecfg)
    errors = np.count_nonzero(bits_hat != payload, axis=1).tolist()
    return [_outcome(point, trial, truths, _parameters(found),
                     _parameters(kept), cube.scales, n_bits=payload.shape[1],
                     bit_errors=n_errors)
            for trial, found, kept, n_errors in zip(trials, coarse, refined,
                                                     errors)]


def _golay_received(config, wavecfg, amplitudes, noise_variance, rng):
    pair = golay_pair(wavecfg.log2_length)
    cef = golay_cef_waveform(pair, wavecfg.guard_samples)
    rx = np.zeros(cef.size, dtype=complex)
    for sc, amp in zip(config.scene.scatterers, amplitudes):
        shift = int(round(sc.delay_s / wavecfg.sample_time_s))
        rx[shift:] += amp * cef[:cef.size - shift]
    if noise_variance > 0:
        rx += complex_awgn(rng, rx.shape, noise_variance)
    return pair, rx


def _golay_trials(config, point, trials) -> list:
    """Golay sounding has no CPI stack; its trials run one after another.
    Each trial fades its scatterers as a cube waveform's CPI of the same
    index does.  They estimate delay alone, matched unscaled, and refine
    nothing."""
    wavecfg = _effective_config(config, point)
    amps = _nominal_amplitudes(config, wavecfg)
    sigma2 = _noise_variance(config, point, amps)
    truths = _true_parameters(config, wavecfg)
    rngs, _ = _trial_payloads(config, point, trials, capacity=0)
    outcomes = []
    for trial, rng in zip(trials, rngs):
        pair, rx = _golay_received(
            config, wavecfg, amps * config.scene.fading_gains(trial), sigma2,
            rng)
        profile = golay_range_estimate(rx, pair, wavecfg.guard_samples)
        bins = profile_peaks(profile, config.estimator.max_targets,
                             config.estimator.threshold_db)
        if not bins:
            raise ValueError("no delay profile peak above threshold")
        found = [(b * wavecfg.sample_time_s, math.nan, math.nan)
                 for b in bins]
        outcomes.append(_outcome(point, trial, truths, found, found,
                                 (1.0, 1.0, 1.0)))
    return outcomes


_POINT_FNS = {**dict.fromkeys(_CUBES, _cube_trials), "golay": _golay_trials}

# Receive-cube cells one batch may stack (256 kB of samples).  A batch's
# refinement windows take several times its cubes' memory, so more trials
# run as several batches and peak memory does not grow with the count.
_BATCH_CELLS = 1 << 14


def _batch_size(config: ScenarioConfig) -> int:
    if config.waveform == "golay":
        return 1  # Golay trials run one by one inside a batch anyway
    return max(1, _BATCH_CELLS // math.prod(config.waveform_config.cube_shape))


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
                            point: SweepPoint, cube) -> np.ndarray:
    """Trial-0 transmit samples of this sweep point (payload included),
    from its ``_point_cube`` binding."""
    if cube is None:
        pair = golay_pair(wavecfg.log2_length)
        return golay_cef_waveform(pair, wavecfg.guard_samples).astype(complex)
    _, payload = _trial_payloads(config, point, [0], cube.capacity)
    return cube.transmit(payload[0])[0].ravel()


def _point_psl_db(config: ScenarioConfig, wavecfg, point: SweepPoint,
                  cube) -> float:
    """PSL of the point's waveform autocorrelation (the AF's zero-Doppler
    cut up to its energy scale, which the ratio drops)."""
    samples = _point_waveform_samples(config, wavecfg, point, cube)
    try:
        return peak_sidelobe_ratio(np.abs(aperiodic_autocorr(samples)))
    except ValueError:
        return math.nan


def _integration_gain(wavecfg, cube) -> float:
    """Samples coherently integrated over the radar-only resources: the
    radar slots of the ``_point_cube`` binding times the cube's samples
    per slot, or both Golay pair members."""
    if cube is None:
        return 2.0 * 2 ** wavecfg.log2_length
    return int(np.count_nonzero(cube.radar)) * wavecfg.cube_shape[1]


def _point_p_detect(config: ScenarioConfig, wavecfg, point: SweepPoint,
                    amplitudes: np.ndarray, cube) -> float:
    """Detection probability of the closed-form detector model.

    Uses the coherent integration gain over the radar-only resources on
    top of the per-sample SNR; noiseless points with signal saturate to 1.
    Without a scatterer, without radar-only resources (mu = 0), without
    signal power to fix a swept SNR by, or with neither signal nor noise,
    it is NaN.
    """
    signal_power = float(np.sum(np.abs(amplitudes) ** 2))
    gain = _integration_gain(wavecfg, cube)
    if amplitudes.size == 0 or gain == 0 or (signal_power == 0
                                             and point.snr_db is not None):
        return math.nan
    sigma2 = _noise_variance(config, point, amplitudes)
    if sigma2 == 0:
        return 1.0 if signal_power else math.nan
    return detection_probability(signal_power / sigma2 * gain,
                                 config.false_alarm)


def scenario_waveform_samples(config: ScenarioConfig):
    """(samples, sample_rate_hz) of the scenario's trial-0 waveform.

    This is what the ambiguity-surface export runs on; the payload is the
    seed-derived trial-0 draw so reruns produce identical files.
    """
    point = SweepPoint(index=0, mu_percent=None, snr_db=None)
    wavecfg = config.waveform_config
    cube = _point_cube(config, wavecfg)
    samples = _point_waveform_samples(config, wavecfg, point, cube)
    return samples, 1.0 / (wavecfg.sample_time_s if cube is None
                           else cube.scales[0])


# ---------------------------------------------------------------------------
# Trade-off bookkeeping (weight sweep)
# ---------------------------------------------------------------------------


def _tradeoff_rows(config: ScenarioConfig, wavecfg, point: SweepPoint,
                   mu_value: float, amplitudes: np.ndarray, cube) -> list:
    """One (objective) row per sweep weight, where the terms are defined,
    from the point's ``_point_cube`` binding (golay configs have no
    weights, so never get past the first test)."""
    if not config.weights:
        return []
    delta = float(np.mean(~cube.radar))  # share of slots carrying data
    # Without payload (delta 0) or radar slot (delta 1) a term is undefined;
    # the CRLB term is taken at the first scatterer and needs its signal.
    if not 0 < delta < 1 or not np.any(amplitudes[:1]):
        return []
    sigma2 = _noise_variance(config, point, amplitudes)
    if sigma2 == 0:
        return []
    rate = math.log2(config.symbol_order)
    mmse = mmse_from_rate(rate, cube.n_len)

    sc = config.scene.scatterers[0]
    doppler = sc.resolve_doppler(wavecfg.wavelength)
    theta = np.array([sc.delay_s, doppler, sc.angle_rad])
    d_scale, f_scale, _ = cube.scales
    steps = np.array([d_scale / 64, f_scale / 64, 1e-3])
    amp0 = abs(amplitudes[0])
    # The Fisher proxy differentiates the receive model on every slot.
    slots = np.arange(wavecfg.cube_shape[0])
    crlb = crlb_proxy(lambda th: amp0 * cube.response(*th, slots), theta,
                      sigma2, steps)

    rows = []
    for w in config.weights:
        objective = jrc_objective(TradeoffSpec(
            rate=rate, delta=delta, code_length=cube.n_len, mmse=mmse,
            crlb=crlb, n_targets=len(config.scene.scatterers), weight=w))
        rows.append([mu_value, _snr_field(point.snr_db), w, delta, rate,
                     objective])
    return rows


# ---------------------------------------------------------------------------
# Aggregation and file output
# ---------------------------------------------------------------------------


def _snr_field(snr_db) -> float:
    return math.nan if snr_db is None else float(snr_db)


def _aggregate_point(config: ScenarioConfig, point: SweepPoint,
                     outcomes: list, cube) -> PointResult:
    wavecfg = _effective_config(config, point)
    mu_value = getattr(wavecfg, "mu_percent", 0.0)
    amps = _nominal_amplitudes(config, wavecfg)

    ok = [o for o in outcomes if not o.failed]
    failures = [o for o in outcomes if o.failed]
    table = np.array([row for o in ok for row in o.rows],
                     dtype=float).reshape(-1, 9)

    def rmse(column):
        """RMSE of an estimate column against its axis' true column,
        over the rows where both are defined."""
        err = table[:, column] - table[:, column - column % 3]
        err = err[~np.isnan(err)]
        return float(np.sqrt(np.mean(err ** 2))) if err.size else math.nan

    n_bits = sum(o.n_bits for o in ok)
    n_errors = sum(o.bit_errors for o in ok)
    return PointResult(
        mu_percent=float(mu_value),
        snr_db=point.snr_db,
        n_trials=len(outcomes),
        n_failures=len(failures),
        example_failure=failures[0].message if failures else "",
        rmse_delay_s=rmse(1),
        rmse_doppler_hz=rmse(4),
        rmse_angle_rad=rmse(7),
        refined_rmse_delay_s=rmse(2),
        refined_rmse_doppler_hz=rmse(5),
        refined_rmse_angle_rad=rmse(8),
        n_bits=n_bits,
        n_bit_errors=n_errors,
        ber=(n_errors / n_bits) if n_bits else math.nan,
        psl_db=_point_psl_db(config, wavecfg, point, cube),
        p_detect=_point_p_detect(config, wavecfg, point, amps, cube),
    )


# The point tables' columns, each a PointResult field of the same name.
_POINT_TABLES = {
    "rmse_vs_snr.csv": (
        "mu_percent", "snr_db", "n_trials", "n_failures",
        "rmse_delay_s", "rmse_doppler_hz", "rmse_angle_rad",
        "refined_rmse_delay_s", "refined_rmse_doppler_hz",
        "refined_rmse_angle_rad"),
    "ber_vs_snr.csv": (
        "mu_percent", "snr_db", "n_trials", "n_bits", "n_bit_errors", "ber"),
}


def _write_outputs(out_dir: Path, config: ScenarioConfig, results: list,
                   outcomes_by_point: list, tradeoff_rows: list) -> list:
    outputs = []
    for name, columns in _POINT_TABLES.items():
        write_table_csv(out_dir / name, columns, [
            [_snr_field(r.snr_db) if c == "snr_db" else getattr(r, c)
             for c in columns] for r in results])
        outputs.append(name)

    est_path = out_dir / "estimates.csv"
    rows = []
    for result, outcomes in zip(results, outcomes_by_point):
        for o in outcomes:
            if o.failed:
                continue
            trial_ber = (o.bit_errors / o.n_bits) if o.n_bits else math.nan
            rows.extend([result.mu_percent, _snr_field(result.snr_db),
                         o.trial, q, *row, trial_ber]
                        for q, row in enumerate(o.rows))
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
    destination.mkdir(parents=True, exist_ok=True)

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

    results, tradeoff_rows = [], []
    for point, outcomes in zip(points, outcomes_by_point):
        wavecfg = _effective_config(config, point)
        cube = _point_cube(config, wavecfg)  # one binding for both
        results.append(_aggregate_point(config, point, outcomes, cube))
        tradeoff_rows.extend(_tradeoff_rows(
            config, wavecfg, point, results[-1].mu_percent,
            _nominal_amplitudes(config, wavecfg), cube))

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
    payload = dict(
        vars(report),
        points=[{k: _json_safe(v) for k, v in vars(r).items()}
                for r in report.points],
        tradeoff=[[_json_safe(v) for v in row] for row in report.tradeoff])
    with open(report_path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    report.outputs.append(report_path.name)
    return report
