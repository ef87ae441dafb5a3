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
noise inside the receive synthesizer.  Target extraction at the picked
map cells and the decoder's target responses are array passes over the
whole batch, and refinement reuses the radar slots as detection
demodulated them, demodulating only the comm slots.  What stays per
trial is the choice of each map's peaks, the amplitude least-squares fit
and the matching to the truth.  A batch in which some trial raises a
ValueError is rerun one trial at a time, so only that trial fails.  The
process pool runs the same stacked batches: a point's trials split into
pool batches of ``_pool_batch`` trials, which divides the trial count,
and a worker runs each batch once, on its first task, and answers the
batch's other tasks from what it kept.

Each sweep point is bound by ``_bind`` into a ``_Point``: the
waveform config with the point's mu applied, the scatterers' nominal
amplitudes and true (delay, Doppler, angle), the noise variance, and the
cube binding.  The two cube waveforms differ only in how they multiplex
radar and data, and ``_CUBES`` binds each to a ``_Cube``: its radar-slot
mask, payload bits per CPI, symbol-stack and transmit builders, bound
unit response, the estimator's demodulation, map layout and DPSK
plug-ins, its matching scales and the trade-off's N (Golay has none).
One trial body, ``_cube_trials``, runs both cube waveforms; each trial
batch binds its point.  ``run_scenario`` binds every point before the
first trial, so a scatterer whose amplitude cannot be derived is a
ConfigError before any work, and the PSL, p_D and trade-off of a point
read that binding.  Nothing else here tells PMCW from OFDMA.

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
from .config import ConfigError, ScenarioConfig, config_hash
from .estim import (_demodulate, _demodulated, _detect, _ofdma_derotate,
                    _ofdma_dpsk, _ofdma_layout, _pmcw_correlate, _pmcw_dpsk,
                    _pmcw_layout, _refined, _windows, golay_cef_waveform,
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
    demod: Callable  # estim._detect / _demodulated demodulation
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


@dataclass(frozen=True)
class _Point:
    """A sweep point bound to its config by ``_bind``: every fact of the
    point that its trials, PSL, p_D and trade-off read."""

    wave: object  # the waveform config, the point's mu applied
    amplitudes: np.ndarray  # nominal composite amplitudes (unit fading)
    signal_power: float  # sum of their squared magnitudes
    sigma2: float  # the per-sample noise variance; NaN if nothing fixes it
    truths: list  # (delay, Doppler, angle) of each scatterer
    cube: _Cube | None  # the cube-waveform binding; None for Golay

    @property
    def mu_percent(self) -> float:
        return float(getattr(self.wave, "mu_percent", 0.0))

    @property
    def noise_variance(self) -> float:
        """``sigma2``, for the trials: a swept SNR without signal power
        fails them."""
        if math.isnan(self.sigma2):
            raise ValueError("SNR sweep needs at least one nonzero scatterer")
        return self.sigma2


def _bind(config: ScenarioConfig, point: SweepPoint) -> _Point:
    """The point's binding.  An explicit scatterer amplitude is used as-is;
    otherwise a cube waveform derives it from the link budget, and Golay
    takes 1.  A scatterer whose amplitude cannot be derived is a
    ConfigError naming it.  Golay sounds delay alone, so its true Doppler
    and angle are NaN."""
    wave = config.waveform_config
    if point.mu_percent is not None:  # golay configs sweep no mu
        wave = replace(wave, mu_percent=point.mu_percent)
    bind = _CUBES.get(config.waveform)
    cube = bind(config, wave) if bind else None
    amps, truths = [], []
    for q, sc in enumerate(config.scene.scatterers):
        if cube is None:
            amps.append(1.0 if sc.amplitude is None else sc.amplitude)
            truths.append((float(sc.delay_s), math.nan, math.nan))
            continue
        try:
            amps.append(scatterer_amplitude(sc, wave.carrier_hz,
                                            wave.geometry.n_tx))
        except ValueError as exc:
            raise ConfigError([f"$.scene.scatterers[{q}]: {exc}"]) from None
        truths.append((float(sc.delay_s),
                       float(sc.resolve_doppler(wave.wavelength)),
                       float(sc.angle_rad)))
    amps = np.array(amps, dtype=complex)
    power = float(np.sum(np.abs(amps) ** 2))
    if point.snr_db is None:
        sigma2 = config.scene.noise_variance
    else:  # see the module docstring: undefined without signal power
        sigma2 = power / 10.0 ** (point.snr_db / 10.0) if power else math.nan
    return _Point(wave, amps, power, sigma2, truths, cube)


def _cube_trials(config, point, trials) -> list:
    """One outcome per trial of a cube waveform: every truth with its
    nearest coarse and refined estimate, and its payload's bit errors."""
    bound = _bind(config, point)
    cube = bound.cube
    rngs, payload = _trial_payloads(config, point, trials, cube.capacity)
    symbols = cube.symbols(payload)
    data = _synthesize(
        replace(config.scene, noise_variance=bound.noise_variance),
        bound.wave, symbols, cube.response, trials, rngs)
    _, coarse, radar_x = _detect(data, symbols, cube.radar, cube.demod,
                                 cube.layout, config.estimator)
    bits_hat, _, full_symbols = _demodulate(
        data, symbols, cube.radar, cube.response, coarse,
        config.symbol_order, cube.dpsk)
    x = _demodulated(data, full_symbols, cube.radar, radar_x, cube.demod)
    del data, radar_x  # the refinement windows are the batch's peak memory
    fine = config.estimator.refined(config.refine_factor)
    _, refined = _refined(_windows(x, cube.layout, fine), fine)

    errors = np.count_nonzero(bits_hat != payload, axis=1).tolist()
    return [_outcome(point, trial, bound.truths, _parameters(found),
                     _parameters(kept), cube.scales, n_bits=payload.shape[1],
                     bit_errors=n_errors)
            for trial, found, kept, n_errors in zip(trials, coarse, refined,
                                                     errors)]


def _golay_trials(config, point, trials) -> list:
    """Golay sounding has no CPI stack; a batch's trials (one, see
    ``_batch_size``) share one pair and CEF waveform.  Each trial fades
    its scatterers as a cube waveform's CPI of the same index does.  They
    estimate delay alone, matched unscaled, and refine nothing."""
    bound = _bind(config, point)
    wave, sigma2 = bound.wave, bound.noise_variance
    pair = golay_pair(wave.log2_length)
    cef = golay_cef_waveform(pair, wave.guard_samples)
    shifts = [int(round(sc.delay_s / wave.sample_time_s))
              for sc in config.scene.scatterers]
    rngs, _ = _trial_payloads(config, point, trials, capacity=0)
    outcomes = []
    for trial, rng in zip(trials, rngs):
        rx = np.zeros(cef.size, dtype=complex)
        for shift, amp in zip(shifts, bound.amplitudes
                              * config.scene.fading_gains(trial)):
            rx[shift:] += amp * cef[:cef.size - shift]
        if sigma2 > 0:
            rx += complex_awgn(rng, rx.shape, sigma2)
        profile = golay_range_estimate(rx, pair, wave.guard_samples)
        bins = profile_peaks(profile, config.estimator.max_targets,
                             config.estimator.threshold_db)
        if not bins:
            raise ValueError("no delay profile peak above threshold")
        found = [(b * wave.sample_time_s, math.nan, math.nan) for b in bins]
        outcomes.append(_outcome(point, trial, bound.truths, found, found,
                                 (1.0, 1.0, 1.0)))
    return outcomes


_POINT_FNS = {**dict.fromkeys(_CUBES, _cube_trials), "golay": _golay_trials}

# Receive-cube cells one batch may stack (256 kB of samples).  A batch's
# refinement windows take several times its cubes' memory, so more trials
# run as several batches and peak memory does not grow with the count.
_BATCH_CELLS = 1 << 14


def _batch_size(config: ScenarioConfig) -> int:
    if config.waveform not in _CUBES:
        return 1  # Golay stacks nothing; a failing batch would rerun all
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


def _pool_batch(config: ScenarioConfig) -> int:
    """Trials per pool batch: the largest divisor of ``config.trials`` that
    is at most ``_batch_size``, so a point's trials split into whole
    batches and a chunk of whole batches never cuts one."""
    step = min(_batch_size(config), config.trials)
    return max(d for d in range(1, step + 1) if config.trials % d == 0)


# A pool worker's current batch: (config, point, {trial: outcome}).  The
# config is held, so its identity cannot be reused while the slot is.
_SLOT = (None, None, {})


def _run_single_trial(args) -> TrialOutcome:
    """Pool worker entry point: one (config, point, trial) task; must stay
    module-level for process pools.

    The first task of a pool batch runs the whole batch through
    ``_run_batch``; the batch's other tasks take their outcome from the
    worker's slot.  A miss recomputes, so the task order only costs time.
    One outcome per task, not a batch's list, because perfbench's
    ``TracedPool`` reads ``.failed`` and ``.message`` from each result.
    """
    global _SLOT
    config, point, trial = args
    held, at, outcomes = _SLOT
    if held is not config or at != point or trial not in outcomes:
        size = _pool_batch(config)
        start = trial - trial % size
        outcomes = {o.trial: o for o in _run_batch(
            config, point, range(start, start + size))}
        _SLOT = (config, point, outcomes)
    return outcomes.pop(trial)


# ---------------------------------------------------------------------------
# Point-level extras: waveform PSL and model detection probability
# ---------------------------------------------------------------------------


def _point_waveform_samples(config: ScenarioConfig, wave, cube: _Cube | None,
                            point: SweepPoint) -> np.ndarray:
    """Trial-0 transmit samples of this sweep point (payload included)."""
    if cube is None:
        pair = golay_pair(wave.log2_length)
        return golay_cef_waveform(pair, wave.guard_samples).astype(complex)
    _, payload = _trial_payloads(config, point, [0], cube.capacity)
    return cube.transmit(payload[0])[0].ravel()


def _point_psl_db(config: ScenarioConfig, bound: _Point,
                  point: SweepPoint) -> float:
    """PSL of the point's waveform autocorrelation (the AF's zero-Doppler
    cut up to its energy scale, which the ratio drops)."""
    samples = _point_waveform_samples(config, bound.wave, bound.cube, point)
    try:
        return peak_sidelobe_ratio(np.abs(aperiodic_autocorr(samples)))
    except ValueError:
        return math.nan


def _integration_gain(bound: _Point) -> float:
    """Samples coherently integrated over the radar-only resources: the
    cube binding's radar slots times the cube's samples per slot, or both
    Golay pair members."""
    if bound.cube is None:
        return 2.0 * 2 ** bound.wave.log2_length
    return int(np.count_nonzero(bound.cube.radar)) * bound.wave.cube_shape[1]


def _point_p_detect(config: ScenarioConfig, bound: _Point) -> float:
    """Detection probability of the closed-form detector model.

    Uses the coherent integration gain over the radar-only resources on
    top of the per-sample SNR; noiseless points with signal saturate to 1.
    Without a scatterer, without radar-only resources (mu = 0), without
    signal power to fix a swept SNR by, or with neither signal nor noise,
    it is NaN.
    """
    gain = _integration_gain(bound)
    if bound.amplitudes.size == 0 or gain == 0 or math.isnan(bound.sigma2):
        return math.nan
    if bound.sigma2 == 0:
        return 1.0 if bound.signal_power else math.nan
    return detection_probability(bound.signal_power / bound.sigma2 * gain,
                                 config.false_alarm)


def scenario_waveform_samples(config: ScenarioConfig):
    """(samples, sample_rate_hz) of the scenario's trial-0 waveform.

    This is what the ambiguity-surface export runs on; the payload is the
    seed-derived trial-0 draw so reruns produce identical files.  Only the
    waveform side of the point is built: no scatterer amplitude is derived.
    """
    wave, bind = config.waveform_config, _CUBES.get(config.waveform)
    cube = bind(config, wave) if bind else None
    samples = _point_waveform_samples(
        config, wave, cube, SweepPoint(index=0, mu_percent=None, snr_db=None))
    return samples, 1.0 / (wave.sample_time_s if cube is None
                           else cube.scales[0])


# ---------------------------------------------------------------------------
# Trade-off bookkeeping (weight sweep)
# ---------------------------------------------------------------------------


def _tradeoff_rows(config: ScenarioConfig, bound: _Point,
                   point: SweepPoint) -> list:
    """One (objective) row per sweep weight, where the terms are defined
    (golay configs have no weights, so never get past the first test)."""
    if not config.weights:
        return []
    cube = bound.cube
    delta = float(np.mean(~cube.radar))  # share of slots carrying data
    # Without payload (delta 0) or radar slot (delta 1) a term is undefined;
    # the CRLB term is taken at the first scatterer and needs its signal,
    # and noise.
    if not 0 < delta < 1 or not np.any(bound.amplitudes[:1]) \
            or bound.sigma2 == 0:
        return []
    rate = math.log2(config.symbol_order)
    mmse = mmse_from_rate(rate, cube.n_len)

    theta = np.array(bound.truths[0])
    d_scale, f_scale, _ = cube.scales
    steps = np.array([d_scale / 64, f_scale / 64, 1e-3])
    amp0 = abs(bound.amplitudes[0])
    # The Fisher proxy differentiates the receive model on every slot.  A
    # parameter the cube cannot resolve (the angle on one element, the
    # Doppler on one OFDMA symbol) has an unbounded variance; the sensing
    # term sums over the others.
    slots = np.arange(bound.wave.cube_shape[0])
    crlb = crlb_proxy(lambda th: amp0 * cube.response(*th, slots), theta,
                      bound.sigma2, steps)
    resolved = np.isfinite(np.diag(crlb))
    crlb = crlb[np.ix_(resolved, resolved)]

    rows = []
    for w in config.weights:
        objective = jrc_objective(TradeoffSpec(
            rate=rate, delta=delta, code_length=cube.n_len, mmse=mmse,
            crlb=crlb, n_targets=len(config.scene.scatterers), weight=w))
        rows.append([bound.mu_percent, _snr_field(point.snr_db), w, delta,
                     rate, objective])
    return rows


# ---------------------------------------------------------------------------
# Aggregation and file output
# ---------------------------------------------------------------------------


def _snr_field(snr_db) -> float:
    return math.nan if snr_db is None else float(snr_db)


def _aggregate_point(config: ScenarioConfig, point: SweepPoint,
                     outcomes: list, bound: _Point) -> PointResult:
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
        mu_percent=bound.mu_percent,
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
        psl_db=_point_psl_db(config, bound, point),
        p_detect=_point_p_detect(config, bound),
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
    fans them out to a process pool, one task per trial, in chunks of
    whole pool batches that a worker runs stacked too.  Outputs are
    identical for any worker count because trials are seeded by index.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    started = time.perf_counter()
    mus = config.mu_sweep if config.mu_sweep else (None,)
    points = [SweepPoint(index=i, mu_percent=mu, snr_db=snr)
              for i, (mu, snr) in enumerate(
                  (m, s) for m in mus for s in config.snr_db)]
    bounds = [_bind(config, point) for point in points]
    destination = Path(out_dir) if out_dir is not None else Path(config.out_dir)
    destination.mkdir(parents=True, exist_ok=True)

    if workers > 1:
        # One map over every (point, trial): no barrier between points.
        tasks = [(config, point, t) for point in points
                 for t in range(config.trials)]
        # A chunk holds whole pool batches, which share its one config.
        size = _pool_batch(config)
        chunk = size * max(1, len(tasks) // (4 * workers * size))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            flat = list(pool.map(_run_single_trial, tasks, chunksize=chunk))
    else:
        flat = [outcome for point in points
                for outcome in _run_point_trials(config, point,
                                                 range(config.trials))]
    outcomes_by_point = [flat[i * config.trials:(i + 1) * config.trials]
                         for i in range(len(points))]

    results, tradeoff_rows = [], []
    for point, bound, outcomes in zip(points, bounds, outcomes_by_point):
        results.append(_aggregate_point(config, point, outcomes, bound))
        tradeoff_rows.extend(_tradeoff_rows(config, bound, point))

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
