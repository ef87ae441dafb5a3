"""Monte-Carlo experiment orchestration over (multiplex, SNR) sweep points.

Each trial is fully self-contained and seeded counter-style from
(master seed, point index, trial index), so results do not depend on how
trials are spread over workers or batches.  Trials run as stacked
batches, which may span the sweep points of one mu: those points share
one cube, one set of links and one set of truths, bound once, and differ
only in their noise variance and in the point index that seeds each
trial.  Synthesis, the coarse map, decoding and refinement carry a
leading trial axis, and synthesis draws each trial's noise at its own
point's variance.  Refinement zooms its windows a slice of trials at a
time, so a batch's peak memory is its cubes and maps, and the stages
write their demodulations and transforms in place where the input is
theirs or the batch's to spend (``_cube_trials``).  Within the batch
each trial's generator is consumed in the fixed per-trial order: its
payload bits are drawn first, then its noise inside the receive
synthesizer.  Peak picking, target extraction at the picked map cells and
the decoder's target responses are array passes over the whole batch, and
refinement reuses the radar slots as detection demodulated them,
demodulating only the comm slots.  What stays per trial is the amplitude
least-squares fit and the matching to the truth.  A batch in which some
trial raises a ValueError is rerun one trial at a time, so only that
trial fails.  Inline or on a process pool, every trial is one (batch,
sweep point, trial) task of ``_run_single_trial``, which runs the rest
of its batch on a miss and answers the batch's later tasks from a slot.
Batches are windows of ``_batch_size`` tasks of the whole sweep's task
stream, split where the cube changes (at a mu boundary), and a pool
chunk is whole windows: inline and pooled runs cut the same batches, and
no trial runs twice.  A batch is up to ``_BATCH_CELLS`` receive-cube
cells, and at most a quarter of the sweep's tasks while that leaves it
``_BATCH_FLOOR_CELLS``; a chunk is about a quarter of a worker's share
of the tasks, and at least one window.

Each sweep point is bound by ``_bind`` into a ``_Point``: the waveform
config with the point's mu applied, each scatterer's amplitude rule,
nominal amplitude and true (delay, Doppler, angle), the noise variance,
and the waveform binding.  ``_CUBES`` binds each waveform to a ``_Cube``:
its radar-slot mask, payload bits per CPI, symbol-stack and transmit
builders, bound unit response, the estimator's demodulation, map layout
and DPSK plug-ins, scatterer link, matching scales, p_D gain and the
trade-off's N.  One trial body, ``_cube_trials``, runs all three
waveforms (a Golay sounding is one all-radar frame on one element) at
the points ``run_scenario`` binds before the first trial, so a scatterer
whose amplitude cannot be derived is a ConfigError before any work.
Nothing else here tells one waveform from another.

Every waveform's trial is recorded by ``_outcome``: it matches each
true (delay, Doppler, angle) to its nearest coarse and refined estimate,
and those matches are the trial's ``estimates.csv`` rows.  Golay sounds
delay alone; its NaN Doppler and angle drop out of the match.
``run_scenario`` queues every trial, then computes each point's PSL, p_D
and trade-off rows (one cube and one Fisher Gram per waveform config)
while the pool runs them, and aggregates in the original trial order.
The tables go to ``write_table_csv`` as columns, every float in its
shortest round-trip form, which makes reruns byte-identical.

Per-sample SNR convention: the sweep's SNR point fixes the noise variance
as sigma^2 = sum_q |d_q|^2 / snr_linear, where d_q are the scatterers'
nominal composite amplitudes (explicit values, or the link-budget-derived
magnitude with unit fading).  A null SNR point keeps the scene's own
noise_variance verbatim instead.
"""

from __future__ import annotations

import json
import math
import platform
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from functools import partial
from itertools import groupby
from pathlib import Path
from typing import Callable

import numpy as np

from .alloc import detection_probability
from .channel import _carrier_link, _synthesize
from .config import ConfigError, GolayRunConfig, ScenarioConfig, config_hash
from .estim import (_demodulate, _demodulated, _detect, _golay_layout,
                    _golay_response, _ofdma_derotate, _ofdma_dpsk,
                    _ofdma_layout, _pmcw_correlate, _pmcw_dpsk, _pmcw_layout,
                    _refined, golay_cef_waveform)
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


def _trial_payloads(config: ScenarioConfig, keys, capacity: int):
    """(generators, payload rows) of the trials keyed (point index, trial);
    each generator has drawn its trial's payload bits and draws its noise
    next."""
    rngs = [np.random.default_rng([config.seed, *key]) for key in keys]
    payload = np.array([rng.integers(0, 2, capacity) for rng in rngs],
                       dtype=np.int64).reshape(len(rngs), capacity)
    return rngs, payload


def _parameters(targets) -> list:
    """(delay, Doppler, angle) of each estimated target, as floats."""
    return [(float(t.delay_s), float(t.doppler_hz), float(t.angle_rad))
            for t in targets]


@dataclass(frozen=True, eq=False)
class _Cube:
    """A waveform bound to one config and sweep point: every fact of the
    waveform that the trials, PSL, p_D and trade-off read.  It hashes by
    identity: ``_bind`` gives the points of one waveform config one cube.

    ``scales`` is the (delay, Doppler, angle) resolution of one CPI, which
    scales the truth-matching distance and, over 64, the CRLB steps.
    """

    radar: np.ndarray  # radar-slot mask over the cube's first axis
    capacity: int  # payload bits per CPI
    symbols: Callable  # (CPIs, capacity) bits -> their slot symbols
    transmit: Callable  # one CPI's bits -> (1, ...) samples of its one element
    response: Callable  # unit response (delay, Doppler, angle, slots)
    demod: Callable  # estim._detect / _demodulated demodulation
    layout: Callable  # estim map layout (known, est)
    dpsk: Callable  # estim._demodulate DPSK layout
    link: Callable  # scatterer -> (amplitude rule, (delay, Doppler, angle))
    scales: tuple
    gain: float  # samples coherently integrated over the radar slots
    n_len: int  # the trade-off's N: code, subcarrier or pair length


# Module-level builders, so that a bound point pickles into a pool task.
def _pmcw_transmit(wavecfg, code, sched, order, bits) -> np.ndarray:
    return pmcw_transmit(wavecfg, code, pmcw_frame_symbols(sched, bits, order))


def _ofdma_transmit(wavecfg, order, bits) -> np.ndarray:
    return ofdma_transmit(wavecfg, build_symbol_grid(wavecfg, bits, order))


def _golay_transmit(cef, bits) -> np.ndarray:
    return cef[None].astype(complex)


def _golay_link(sc) -> tuple:
    return (partial(np.multiply, complex(
        1.0 if sc.amplitude is None else sc.amplitude)),
        (float(sc.delay_s), math.nan, math.nan))


def _pmcw_cube(config: ScenarioConfig, wavecfg: PmcwConfig) -> _Cube:
    order, sched = config.symbol_order, pmcw_schedule(wavecfg)
    code = build_code(config, wavecfg)
    code_spec = np.fft.fft(code.chips())
    return _Cube(
        radar=sched, capacity=payload_capacity_bits(sched, order),
        symbols=partial(_frame_symbols, sched, order=order),
        transmit=partial(_pmcw_transmit, wavecfg, code, sched, order),
        response=partial(_pmcw_response, wavecfg, code_spec),
        demod=partial(_pmcw_correlate, code_spec=code_spec),
        layout=partial(_pmcw_layout, wavecfg), dpsk=_pmcw_dpsk,
        link=partial(_carrier_link, wavecfg),
        scales=(wavecfg.chip_time,
                1.0 / (wavecfg.n_frames * wavecfg.block_time),
                1.0 / wavecfg.geometry.n_rx),
        gain=int(np.count_nonzero(sched)) * wavecfg.code_length,
        n_len=wavecfg.code_length)


def _ofdma_cube(config: ScenarioConfig, wavecfg: OfdmaConfig) -> _Cube:
    order, pilots = config.symbol_order, ofdma_pilot_mask(wavecfg)
    return _Cube(
        radar=pilots, capacity=grid_capacity_bits(wavecfg, order),
        symbols=partial(_symbol_grids, wavecfg, order=order),
        transmit=partial(_ofdma_transmit, wavecfg, order),
        response=partial(_ofdma_response, wavecfg), demod=_ofdma_derotate,
        layout=partial(_ofdma_layout, wavecfg), dpsk=_ofdma_dpsk,
        link=partial(_carrier_link, wavecfg),
        scales=(wavecfg.sample_time,
                1.0 / (wavecfg.n_symbols * wavecfg.symbol_duration),
                1.0 / wavecfg.geometry.n_rx),
        gain=int(np.count_nonzero(pilots)) * wavecfg.n_symbols,
        n_len=wavecfg.n_subcarriers)


def _golay_cube(config: ScenarioConfig, wavecfg: GolayRunConfig) -> _Cube:
    """A sounding: one all-radar frame, the CEF as its code.  A null
    amplitude means 1 (``np.multiply`` rounds as an array product does);
    true Doppler and angle are NaN.  p_D integrates both pair members."""
    pair, radar = golay_pair(wavecfg.log2_length), np.ones(1, dtype=bool)
    cef = golay_cef_waveform(pair, wavecfg.guard_samples)
    return _Cube(
        radar=radar, capacity=0,
        symbols=partial(_frame_symbols, radar, order=config.symbol_order),
        transmit=partial(_golay_transmit, cef),
        response=partial(_golay_response, cef, wavecfg.sample_time_s),
        demod=partial(_pmcw_correlate, code_spec=np.fft.fft(cef)),
        layout=partial(_golay_layout, wavecfg), dpsk=_pmcw_dpsk,
        link=_golay_link, scales=(wavecfg.sample_time_s, 1.0, 1.0),
        gain=2.0 * pair.length, n_len=pair.length)


# Each waveform's binding; every per-waveform fact is read from it.
_CUBES = {"pmcw": _pmcw_cube, "ofdma": _ofdma_cube, "golay": _golay_cube}


@dataclass(frozen=True)
class _Point:
    """A sweep point bound to its config by ``_bind``: every fact of the
    point that its trials, PSL, p_D and trade-off read."""

    config: ScenarioConfig  # the config the point was bound from
    wave: object  # the waveform config, the point's mu applied
    links: list  # (amplitude rule, (delay, Doppler, angle)) per scatterer
    amplitudes: np.ndarray  # nominal composite amplitudes (unit fading)
    signal_power: float  # sum of their squared magnitudes
    sigma2: float  # the per-sample noise variance; NaN if nothing fixes it
    truths: list  # (delay, Doppler, angle) of each scatterer
    cube: _Cube  # the waveform binding

    @property
    def mu_percent(self) -> float:
        """The waveform's mu; a sounding without multiplex is all radar."""
        return float(getattr(self.wave, "mu_percent", 100.0))

    @property
    def noise_variance(self) -> float:
        """``sigma2``, for the trials: a swept SNR without signal power
        fails them."""
        if math.isnan(self.sigma2):
            raise ValueError("SNR sweep needs at least one nonzero scatterer")
        return self.sigma2


def _bind(config: ScenarioConfig, point: SweepPoint, cubes=None) -> _Point:
    """The point's binding; a scatterer whose nominal amplitude (its rule
    at unit fading) cannot be derived is a ConfigError naming it, and so is
    a swept SNR that leaves no finite, positive noise variance.  Points
    bound with one ``cubes`` dict share their waveform config's cube."""
    wave = config.waveform_config
    if point.mu_percent is not None:  # golay configs sweep no mu
        wave = replace(wave, mu_percent=point.mu_percent)
    cubes = {} if cubes is None else cubes
    if wave not in cubes:
        cubes[wave] = _CUBES[config.waveform](config, wave)
    cube = cubes[wave]
    links = [cube.link(sc) for sc in config.scene.scatterers]
    amps = []
    for q, (rule, _) in enumerate(links):
        try:
            amps.append(rule(1.0))
        except ValueError as exc:
            raise ConfigError([f"$.scene.scatterers[{q}]: {exc}"]) from None
    amps = np.array(amps, dtype=complex)
    power = float(np.sum(np.abs(amps) ** 2))
    if point.snr_db is None:
        sigma2 = config.scene.noise_variance
    elif not power:  # undefined without signal power (module docstring)
        sigma2 = math.nan
    else:
        try:
            sigma2 = power / 10.0 ** (point.snr_db / 10.0)
        except (OverflowError, ZeroDivisionError):
            sigma2 = math.nan
        if not 0 < sigma2 < math.inf:
            raise ConfigError([
                f"$.sweep.snr_db[{point.index % len(config.snr_db)}]: "
                f"{point.snr_db!r} dB at signal power {power!r} leaves no "
                "finite, positive noise variance"])
    return _Point(config, wave, links, amps, power, sigma2,
                  [truth for _, truth in links], cube)


def _cube_trials(batch) -> list:
    """One outcome per (bound point, sweep point, trial) triple of
    ``batch``: every truth with its nearest coarse and refined estimate,
    and its bit errors.  The points share one cube, and so one set of
    links and truths; each trial has its own point's noise variance and
    its own generator.

    The synthesized data is written over once it is not needed as
    received: ``_detect`` demodulates it in place when every slot is
    radar, as decoding then reads none of it; otherwise ``_demodulated``
    writes every slot's demodulation into it after ``_demodulate`` has
    decoded.  Refinement holds only that stack, the data's memory, and
    one slice of windows.
    """
    bound = batch[0][0]
    config, cube = bound.config, bound.cube
    rngs, payload = _trial_payloads(
        config, [(point.index, trial) for _, point, trial in batch],
        cube.capacity)
    symbols = cube.symbols(payload)
    data = _synthesize(config.scene, bound.wave.cube_shape, bound.links,
                       symbols, cube.response,
                       [trial for _, _, trial in batch], rngs,
                       [triple[0].noise_variance for triple in batch])
    _, coarse, radar_x = _detect(data, symbols, cube.radar, cube.demod,
                                 cube.layout, config.estimator, scratch=True)
    # The decoded symbols replace the sent ones, which nothing reads again.
    bits_hat, _, symbols = _demodulate(
        data, symbols, cube.radar, cube.response, coarse,
        config.symbol_order, cube.dpsk)
    errors = np.count_nonzero(bits_hat != payload, axis=1).tolist()
    n_bits = payload.shape[1]
    x = _demodulated(data, symbols, cube.radar, radar_x, cube.demod)
    del rngs, payload, symbols, data, radar_x, bits_hat, _
    _, refined = _refined(x, cube.layout,
                          config.estimator.refined(config.refine_factor))
    return [_outcome(point, trial, bound.truths, _parameters(found),
                     _parameters(kept), cube.scales, n_bits=n_bits,
                     bit_errors=n_errors)
            for (_, point, trial), found, kept, n_errors in zip(
                batch, coarse, refined, errors)]


# Receive-cube cells one batch may stack (1 MiB of samples; 32 trials on
# both benchmark sweeps).  Refinement zooms its windows a slice of maps at
# a time, so they do not grow with the batch.  A sweep of fewer tasks cuts
# batches of a quarter of them, so that a pool still gets four chunks of
# whole batches, down to batches of the floor's cells.
_BATCH_CELLS = 1 << 16
_BATCH_FLOOR_CELLS = 1 << 14


def _batch_size(config: ScenarioConfig) -> int:
    cells = math.prod(config.waveform_config.cube_shape)
    tasks = len(config.mu_sweep or (None,)) * len(config.snr_db) \
        * config.trials
    return max(1, min(_BATCH_CELLS // cells,
                      max(_BATCH_FLOOR_CELLS // cells, -(-tasks // 4))))


def _run_batch(batch) -> list:
    """Outcomes of one stacked batch of (bound point, sweep point, trial)
    triples whose points share one cube.

    Only a ValueError (the domain errors, LinAlgError included) fails a
    trial; any other exception is a bug and propagates.  A batch that
    raises one is rerun as batches of one, so that only the trials that
    raise it fail, each with its own message.
    """
    try:
        return _cube_trials(batch)
    except ValueError as exc:
        if len(batch) > 1:
            return [outcome for triple in batch
                    for outcome in _run_batch([triple])]
        _, point, trial = batch[0]
        return [TrialOutcome(point=point.index, trial=trial, failed=True,
                             message=f"{type(exc).__name__}: {exc}")]


def _trial_tasks(config: ScenarioConfig, points: list, bounds: list) -> list:
    """The sweep's (batch, sweep point, trial) tasks, in stream order.

    The stream is every point's (bound point, sweep point, trial) triples,
    point after point; a batch is a tuple of them: a ``_batch_size``-aligned
    window of the stream, split where the cube changes (at a mu boundary).
    """
    step = _batch_size(config)
    stream = [(bound, point, t) for point, bound in zip(points, bounds)
              for t in range(config.trials)]
    batches = [tuple(group) for start in range(0, len(stream), step)
               for _, group in groupby(stream[start:start + step],
                                       key=lambda task: task[0].cube)]
    return [(batch, point, trial) for batch in batches
            for _, point, trial in batch]


# The process's current batch: (batch, {(point index, trial): outcome}).
# The batch is held, so its identity cannot be reused while the slot is.
_SLOT = (None, {})


def _run_single_trial(args) -> TrialOutcome:
    """One (batch, sweep point, trial) task of ``_trial_tasks``, inline or
    on a pool worker; must stay module-level for process pools.

    A miss runs the task's trial and the rest of its batch through
    ``_run_batch``; the batch's later tasks take their outcome from the
    slot.  ``run_scenario``'s pool chunks are whole windows of the stream,
    so no chunk boundary falls inside a batch and no trial runs twice.  The
    slot is keyed on the batch's identity, which one pool chunk's tasks
    share: a chunk boundary that did split a batch would cost only its
    remainder, and any task order only costs time.  One outcome per task,
    because perfbench's ``TracedPool`` reads ``.failed`` from each.
    """
    global _SLOT
    batch, point, trial = args
    key = (point.index, trial)
    held, outcomes = _SLOT
    if held is not batch or key not in outcomes:
        start = [(p.index, t) for _, p, t in batch].index(key)
        outcomes = {(o.point, o.trial): o for o in _run_batch(batch[start:])}
        _SLOT = (batch, outcomes)
    return outcomes.pop(key)


# ---------------------------------------------------------------------------
# Point-level extras: waveform PSL and model detection probability
# ---------------------------------------------------------------------------


def _point_waveform_samples(config: ScenarioConfig, cube: _Cube,
                            point: SweepPoint) -> np.ndarray:
    """Trial-0 transmit samples of this sweep point (payload included)."""
    _, payload = _trial_payloads(config, [(point.index, 0)], cube.capacity)
    return cube.transmit(payload[0])[0].ravel()


def _point_psl_db(config: ScenarioConfig, bound: _Point,
                  point: SweepPoint) -> float:
    """PSL of the point's waveform autocorrelation (the AF's zero-Doppler
    cut up to its energy scale, which the ratio drops)."""
    samples = _point_waveform_samples(config, bound.cube, point)
    try:
        return peak_sidelobe_ratio(np.abs(aperiodic_autocorr(samples)))
    except ValueError:
        return math.nan


def _point_p_detect(config: ScenarioConfig, bound: _Point) -> float:
    """Detection probability of the closed-form detector model.

    Uses the binding's coherent integration gain over the radar-only
    resources on top of the per-sample SNR; noiseless points with signal
    saturate to 1.  Without a scatterer, without radar-only resources
    (mu = 0), without signal power to fix a swept SNR by, or with neither
    signal nor noise, it is NaN.
    """
    gain = bound.cube.gain
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
    cube = _CUBES[config.waveform](config, config.waveform_config)
    samples = _point_waveform_samples(
        config, cube, SweepPoint(index=0, mu_percent=None, snr_db=None))
    return samples, 1.0 / cube.scales[0]


# ---------------------------------------------------------------------------
# Trade-off bookkeeping (weight sweep)
# ---------------------------------------------------------------------------


def _tradeoff_rows(config: ScenarioConfig, bound: _Point,
                   point: SweepPoint, grams: dict) -> list:
    """One (objective) row per sweep weight, where the terms are defined
    (golay configs have no weights, so never get past the first test).
    ``grams`` holds the run's ``crlb_proxy`` caches, one per (cube, |d_0|,
    first truth): each computes its Fisher Gram once."""
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
                      bound.sigma2, steps,
                      grams.setdefault((cube, amp0, bound.truths[0]), {}))
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


def _aggregate_point(bound: _Point, point: SweepPoint, outcomes: list,
                     psl_db: float, p_detect: float) -> PointResult:
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
        psl_db=psl_db,
        p_detect=p_detect,
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


def _write_outputs(out_dir: Path, results: list, outcomes_by_point: list,
                   tradeoff_rows: list) -> list:
    outputs = []
    for name, columns in _POINT_TABLES.items():
        write_table_csv(out_dir / name, columns, [
            [_snr_field(r.snr_db) if c == "snr_db" else getattr(r, c)
             for r in results] for c in columns])
        outputs.append(name)

    est_path = out_dir / "estimates.csv"
    rows = [(r, o, q) for r, outcomes in zip(results, outcomes_by_point)
            for o in outcomes if not o.failed for q in range(len(o.rows))]
    write_table_csv(est_path, [
        "mu_percent", "snr_db", "trial", "scatterer",
        "true_delay_s", "est_delay_s", "refined_delay_s",
        "true_doppler_hz", "est_doppler_hz", "refined_doppler_hz",
        "true_angle_rad", "est_angle_rad", "refined_angle_rad", "ber"], [
        [r.mu_percent for r, _, _ in rows],
        [_snr_field(r.snr_db) for r, _, _ in rows],
        [o.trial for _, o, _ in rows],
        [q for _, _, q in rows],
        np.array([o.rows[q] for _, o, q in rows], dtype=float).reshape(-1, 9),
        [(o.bit_errors / o.n_bits) if o.n_bits else math.nan
         for _, o, _ in rows]])
    outputs.append(est_path.name)

    if tradeoff_rows:
        tr_path = out_dir / "tradeoff.csv"
        write_table_csv(tr_path, [
            "mu_percent", "snr_db", "weight", "comm_fraction",
            "rate_bits", "objective"], [np.array(tradeoff_rows, dtype=float)])
        outputs.append(tr_path.name)
    return outputs


def _json_safe(value):
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def run_scenario(config: ScenarioConfig, *, out_dir=None,
                 workers: int = 1) -> RunReport:
    """Execute the sweep, write the output tables, return the report.

    Every trial is one task on its bound point, run inline or, at
    ``workers`` > 1, on a process pool of at most one worker per chunk,
    in chunks of whole batches; either way the tasks run as the same
    stacked batches.  Outputs are identical for any worker count because
    trials are seeded by index.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    started = time.perf_counter()
    mus = config.mu_sweep if config.mu_sweep else (None,)
    points = [SweepPoint(index=i, mu_percent=mu, snr_db=snr)
              for i, (mu, snr) in enumerate(
                  (m, s) for m in mus for s in config.snr_db)]
    cubes = {}
    bounds = [_bind(config, point, cubes) for point in points]
    destination = Path(out_dir) if out_dir is not None else Path(config.out_dir)
    destination.mkdir(parents=True, exist_ok=True)

    # One map over every (point, trial): no barrier between points.
    tasks = _trial_tasks(config, points, bounds)
    # Chunks of whole windows, about four per worker where the batches
    # allow; _batch_size leaves a short sweep four windows.
    step = _batch_size(config)
    chunk = step * max(1, len(tasks) // (4 * workers * step))
    # At most one worker per chunk: a forked pool starts every worker at
    # its first submit, and a worker without a chunk would only idle.
    pool_size = max(1, min(workers, -(-len(tasks) // chunk)))
    global _SLOT
    try:
        with (ProcessPoolExecutor(max_workers=pool_size) if workers > 1
              else nullcontext()) as pool:
            # pool.map queues every chunk at once; the builtin map is lazy.
            flat = (pool.map(_run_single_trial, tasks, chunksize=chunk)
                    if pool else map(_run_single_trial, tasks))
            grams = {}
            try:
                extras = [(_point_psl_db(config, bound, point),
                           _point_p_detect(config, bound),
                           _tradeoff_rows(config, bound, point, grams))
                          for point, bound in zip(points, bounds)]
            except BaseException:
                if pool:  # drop the queued chunks before the pool waits
                    pool.shutdown(cancel_futures=True)
                raise
            flat = list(flat)
    finally:  # an inline run's last batch: its points, cubes and config
        _SLOT = (None, {})
    outcomes_by_point = [flat[i * config.trials:(i + 1) * config.trials]
                         for i in range(len(points))]
    results = [_aggregate_point(bound, point, outcomes, psl, p_detect)
               for point, bound, outcomes, (psl, p_detect, _) in zip(
                   points, bounds, outcomes_by_point, extras)]
    tradeoff_rows = [row for *_, rows in extras for row in rows]

    outputs = _write_outputs(destination, results, outcomes_by_point,
                             tradeoff_rows)

    report = RunReport(
        config_hash=config_hash(config),
        seed=config.seed,
        waveform=config.waveform,
        points=results,
        tradeoff=tradeoff_rows,
        outputs=outputs,
        wall_clock_s=time.perf_counter() - started)

    from . import __version__  # the package, initialised by now
    report_path = Path(destination) / "report.json"
    payload = dict(
        vars(report),
        points=[{k: _json_safe(v) for k, v in vars(r).items()}
                for r in report.points],
        tradeoff=[[_json_safe(v) for v in row] for row in report.tradeoff],
        workers=workers,
        versions={"jrcsim": __version__, "numpy": np.__version__,
                  "python": platform.python_version()})
    with open(report_path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    report.outputs.append(report_path.name)
    return report
