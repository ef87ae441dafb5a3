"""Sweep orchestration: determinism, worker independence, output tables."""

import json
import multiprocessing
import pickle
import platform
import tempfile
import time
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import jrcsim
from jrcsim import estim, runner
from jrcsim.channel import Scene, complex_awgn
from jrcsim.config import _WAVEFORMS, ConfigError, config_hash, parse_config
from jrcsim.estim import (DecodingError, golay_cef_waveform,
                          golay_range_estimate, ofdma_decode,
                          ofdma_range_doppler_angle, ofdma_refine,
                          pmcw_decode, pmcw_range_doppler, pmcw_refine)
from jrcsim.ofdma import IsiWarning, build_symbol_grid, grid_capacity_bits, \
    ofdma_receive_cube
from jrcsim.perf import ambiguity_function, peak_sidelobe_ratio
from jrcsim.pmcw import payload_capacity_bits, pmcw_frame_symbols, \
    pmcw_receive_cube, pmcw_schedule
from jrcsim.runner import SweepPoint, TrialOutcome, run_scenario
from jrcsim.sigcore import ArrayGeometry, golay_pair
from jrcsim.tensorio import read_csv_rows
from test_estim import profile_peaks

CSV_NAMES = ("rmse_vs_snr.csv", "ber_vs_snr.csv", "estimates.csv")
PMCW_CUBE_CELLS = 8 * 31 * 2  # pmcw_scenario's receive cube


def pmcw_scenario(**overrides):
    data = {
        "version": 1,
        "waveform": "pmcw",
        "pmcw": {"code_length": 31, "n_frames": 8, "chip_time_s": 1e-9,
                 "carrier_hz": 60e9, "mu_percent": 50,
                 "geometry": {"n_rx": 2}},
        "scene": {"scatterers": [{"delay_s": 5e-9, "amplitude": [1.0, 0.0]}]},
        "trials": 3,
        "seed": 11,
    }
    data.update(overrides)
    return parse_config(data)


def ofdma_scenario(**overrides):
    data = {
        "version": 1,
        "waveform": "ofdma",
        "ofdma": {"n_subcarriers": 16, "n_symbols": 4,
                  "subcarrier_spacing_hz": 62.5e6, "carrier_hz": 60e9,
                  "cp_samples": 8, "mu_percent": 50,
                  "geometry": {"n_rx": 2}},
        "scene": {"scatterers": [{"delay_s": 3e-9, "amplitude": [1.0, 0.0]}]},
        "trials": 3,
        "seed": 21,
    }
    data.update(overrides)
    return parse_config(data)


def golay_scenario(**overrides):
    data = {
        "version": 1,
        "waveform": "golay",
        "golay": {"log2_length": 4, "guard_samples": 16,
                  "sample_time_s": 1e-9},
        "scene": {"scatterers": [{"delay_s": 5e-9, "amplitude": [1.0, 0.0]}]},
        "trials": 3,
        "seed": 31,
    }
    data.update(overrides)
    return parse_config(data)


def read_bytes(out_dir, names=CSV_NAMES):
    return {name: (out_dir / name).read_bytes() for name in names}


# ---------------------------------------------------------------------------
# Noiseless exactness
# ---------------------------------------------------------------------------


def test_pmcw_noiseless_on_grid_is_exact(tmp_path):
    report = run_scenario(pmcw_scenario(), out_dir=tmp_path)
    header, rows = read_csv_rows(tmp_path / "rmse_vs_snr.csv")
    assert len(rows) == 1
    row = dict(zip(header, rows[0]))
    assert row["mu_percent"] == "50.0"
    assert row["snr_db"] == "nan"
    assert row["n_trials"] == "3" and row["n_failures"] == "0"
    for col in ("rmse_delay_s", "rmse_doppler_hz", "rmse_angle_rad",
                "refined_rmse_delay_s", "refined_rmse_doppler_hz",
                "refined_rmse_angle_rad"):
        assert row[col] == "0.0"
    _, ber_rows = read_csv_rows(tmp_path / "ber_vs_snr.csv")
    assert ber_rows[0][-1] == "0.0"
    assert int(dict(zip(header, rows[0]))["n_trials"]) == 3
    assert report.points[0].p_detect == 1.0
    assert report.points[0].ber == 0.0


def test_ofdma_noiseless_on_grid_is_exact(tmp_path):
    run_scenario(ofdma_scenario(), out_dir=tmp_path)
    header, rows = read_csv_rows(tmp_path / "rmse_vs_snr.csv")
    row = dict(zip(header, rows[0]))
    for col in ("rmse_delay_s", "rmse_doppler_hz", "rmse_angle_rad"):
        assert row[col] == "0.0"
    _, ber_rows = read_csv_rows(tmp_path / "ber_vs_snr.csv")
    assert ber_rows[0][-1] == "0.0"


def test_estimates_table_layout(tmp_path):
    run_scenario(pmcw_scenario(), out_dir=tmp_path)
    header, rows = read_csv_rows(tmp_path / "estimates.csv")
    assert header == [
        "mu_percent", "snr_db", "trial", "scatterer",
        "true_delay_s", "est_delay_s", "refined_delay_s",
        "true_doppler_hz", "est_doppler_hz", "refined_doppler_hz",
        "true_angle_rad", "est_angle_rad", "refined_angle_rad", "ber"]
    assert len(rows) == 3  # one scatterer, three trials
    assert [r[2] for r in rows] == ["0", "1", "2"]
    for r in rows:
        assert float(r[4]) == 5e-9
        assert float(r[5]) == 5e-9


# ---------------------------------------------------------------------------
# Determinism
# ---------------------------------------------------------------------------


def test_same_seed_reruns_are_byte_identical(tmp_path):
    config = pmcw_scenario(sweep={"snr_db": [10]}, trials=4)
    run_scenario(config, out_dir=tmp_path / "a")
    run_scenario(config, out_dir=tmp_path / "b")
    assert read_bytes(tmp_path / "a") == read_bytes(tmp_path / "b")


@pytest.mark.parametrize("config, cells", [
    (pmcw_scenario(sweep={"snr_db": [5, 15]}, trials=4), None),
    (ofdma_scenario(sweep={"snr_db": [5, 15]}, trials=4), None),
    (pmcw_scenario(
        scene={"scatterers": [
            {"delay_s": 5e-9, "doppler_hz": 2e6, "angle_rad": 0.2,
             "amplitude": [1.0, 0.0]},
            {"delay_s": 17e-9, "doppler_hz": -9e6, "angle_rad": -0.4,
             "amplitude": [0.0, 0.6]}]},
        estimator={"max_targets": 2, "interpolate": True},
        sweep={"snr_db": [0, 10]}, trials=4), None),
    # Four cubes per batch: 9 trials run as batches of 4, 4 and 1.
    (pmcw_scenario(sweep={"snr_db": [5, 15]}, trials=9), 4 * PMCW_CUBE_CELLS),
    # A prime trial count: the second point's batches straddle the pool's
    # chunks of whole batches.
    (pmcw_scenario(sweep={"snr_db": [5, 15]}, trials=13),
     4 * PMCW_CUBE_CELLS),
    (golay_scenario(sweep={"snr_db": [5, 15]}, trials=4), None),
    # Trade-off rows, computed while the pool runs, from one Fisher Gram
    # per mu (none at mu = 0, which leaves no radar frame).
    (pmcw_scenario(sweep={"mu_percent": [0, 50, 75], "snr_db": [5, 15],
                          "weights": [0, 0.5, 1]}, trials=4), None),
], ids=["pmcw", "ofdma", "pmcw-two-targets-interpolated",
        "pmcw-several-pool-batches", "pmcw-prime-trial-count", "golay",
        "pmcw-tradeoff-over-mu"])
def test_worker_count_does_not_change_outputs(tmp_path, monkeypatch, config,
                                              cells):
    # Inline and pooled, the trials run as stacked batches of
    # ``_batch_size``.  Forked workers inherit a patched ``_BATCH_CELLS``.
    if cells is not None:
        monkeypatch.setattr(runner, "_BATCH_CELLS", cells)
        assert runner._batch_size(config) == 4
    names = CSV_NAMES + (("tradeoff.csv",) if config.weights else ())

    def outputs(out_dir):
        report = json.loads((out_dir / "report.json").read_text())
        return read_bytes(out_dir, names), report["points"], report["tradeoff"]

    run_scenario(config, out_dir=tmp_path / "serial", workers=1)
    for workers in (2, 3):
        run_scenario(config, out_dir=tmp_path / f"pool{workers}",
                     workers=workers)
        assert outputs(tmp_path / "serial") == outputs(
            tmp_path / f"pool{workers}")
    if config.weights:
        _, rows = read_csv_rows(tmp_path / "serial" / "tradeoff.csv")
        assert sorted({row[0] for row in rows}) == ["50.0", "75.0"]


@pytest.mark.parametrize("workers", [2, 3])
def test_one_point_sweep_reaches_every_worker(tmp_path, monkeypatch,
                                              workers):
    # A single point's trials still split into several chunks, each of
    # whole batches.
    chunks = []

    class Recording(runner.ProcessPoolExecutor):
        def map(self, fn, *iterables, chunksize=1, **kwargs):
            chunks.append((len(iterables[0]), chunksize))
            return super().map(fn, *iterables, chunksize=chunksize, **kwargs)

    monkeypatch.setattr(runner, "ProcessPoolExecutor", Recording)
    config = pmcw_scenario(sweep={"snr_db": [10]}, trials=100)
    run_scenario(config, out_dir=tmp_path, workers=workers)
    [(n_tasks, chunk)] = chunks
    assert n_tasks == 100
    assert -(-n_tasks // chunk) >= workers
    assert chunk % runner._batch_size(config) == 0


@pytest.mark.parametrize("trials, workers, pool_size", [(4, 4, 1),
                                                      (100, 2, 2)])
def test_pool_starts_at_most_one_worker_per_chunk(tmp_path, monkeypatch,
                                                  trials, workers,
                                                  pool_size):
    # A forked pool starts all its workers at the first submit, so a
    # one-chunk sweep asks for one; the pool itself stays.
    sizes = []

    class Recording(runner.ProcessPoolExecutor):
        def __init__(self, max_workers=None, **kwargs):
            sizes.append(max_workers)
            super().__init__(max_workers=max_workers, **kwargs)

    monkeypatch.setattr(runner, "ProcessPoolExecutor", Recording)
    config = pmcw_scenario(sweep={"snr_db": [10]}, trials=trials)
    run_scenario(config, out_dir=tmp_path / "pool", workers=workers)
    assert sizes == [pool_size]
    run_scenario(config, out_dir=tmp_path / "inline")
    assert read_bytes(tmp_path / "pool") == read_bytes(tmp_path / "inline")


@pytest.mark.parametrize("workers", [0, -1])
def test_run_scenario_rejects_workers_below_one(tmp_path, workers):
    with pytest.raises(ValueError, match="workers must be >= 1"):
        run_scenario(pmcw_scenario(), out_dir=tmp_path / "out",
                     workers=workers)
    assert not (tmp_path / "out").exists()


def test_pool_regroups_trials_by_point(tmp_path):
    # mu = 0 leaves no radar-only frame, so those points fail every trial;
    # one map over all (point, trial) tasks must hand them back in order.
    config = pmcw_scenario(sweep={"mu_percent": [0, 100],
                                  "snr_db": [-10, 10]}, trials=5)
    run_scenario(config, out_dir=tmp_path / "serial", workers=1)
    run_scenario(config, out_dir=tmp_path / "pool", workers=2)
    assert read_bytes(tmp_path / "serial") == read_bytes(tmp_path / "pool")
    failures = [
        [p["n_failures"] for p in json.loads(
            (tmp_path / name / "report.json").read_text())["points"]]
        for name in ("serial", "pool")]
    assert failures == [[5, 5, 0, 0], [5, 5, 0, 0]]


def test_different_seed_changes_noisy_estimates(tmp_path):
    # Interpolation makes the logged estimates sub-bin, hence noise-sensitive.
    base = dict(sweep={"snr_db": [0]}, trials=4,
                estimator={"interpolate": True})
    run_scenario(pmcw_scenario(**base, seed=1), out_dir=tmp_path / "a")
    run_scenario(pmcw_scenario(**base, seed=2), out_dir=tmp_path / "b")
    a = (tmp_path / "a" / "estimates.csv").read_bytes()
    b = (tmp_path / "b" / "estimates.csv").read_bytes()
    assert a != b


# ---------------------------------------------------------------------------
# Sweep grid and SNR semantics
# ---------------------------------------------------------------------------


def test_sweep_grid_order_mu_major(tmp_path):
    config = pmcw_scenario(sweep={"mu_percent": [50, 100],
                                  "snr_db": [None, 10]}, trials=1)
    run_scenario(config, out_dir=tmp_path)
    header, rows = read_csv_rows(tmp_path / "rmse_vs_snr.csv")
    grid = [(r[0], r[1]) for r in rows]
    assert grid == [("50.0", "nan"), ("50.0", "10.0"),
                    ("100.0", "nan"), ("100.0", "10.0")]


def test_mu_100_pmcw_has_no_bits(tmp_path):
    config = pmcw_scenario(sweep={"mu_percent": [100]}, trials=2)
    run_scenario(config, out_dir=tmp_path)
    header, rows = read_csv_rows(tmp_path / "ber_vs_snr.csv")
    row = dict(zip(header, rows[0]))
    assert row["n_bits"] == "0"
    assert row["ber"] == "nan"
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["points"][0]["ber"] is None


def test_null_snr_uses_scene_noise_verbatim():
    config = pmcw_scenario(scene={
        "scatterers": [{"delay_s": 5e-9, "amplitude": [2.0, 0.0]}],
        "noise_variance": 0.5})
    null_point = SweepPoint(index=0, mu_percent=None, snr_db=None)
    assert runner._bind(config, null_point).noise_variance == 0.5
    swept = SweepPoint(index=0, mu_percent=None, snr_db=10.0)
    assert runner._bind(config, swept).noise_variance == pytest.approx(0.4)


@pytest.mark.parametrize("scatterers", [
    [],
    [{"delay_s": 5e-9, "amplitude": [0.0, 0.0]}],
    [{"delay_s": 5e-9, "rcs_m2": 0.0}],
], ids=["empty", "zero_amplitude", "zero_rcs"])
def test_snr_sweep_with_empty_scene_reports_failures(tmp_path, scatterers):
    # A swept SNR needs signal power: with none, every trial fails, p_D is
    # undefined and no trade-off row is written, but the run completes.
    config = pmcw_scenario(scene={"scatterers": scatterers},
                           sweep={"snr_db": [0, 10],
                                  "weights": [0.25, 0.75]}, trials=2)
    report = run_scenario(config, out_dir=tmp_path)
    for point in report.points:
        assert point.n_failures == 2
        assert "nonzero scatterer" in point.example_failure
        assert np.isnan(point.p_detect)
    assert report.tradeoff == []
    _, rows = read_csv_rows(tmp_path / "rmse_vs_snr.csv")
    assert [row[3] for row in rows] == ["2", "2"]  # n_failures column
    _, est_rows = read_csv_rows(tmp_path / "estimates.csv")
    assert est_rows == []
    assert not (tmp_path / "tradeoff.csv").exists()
    saved = json.loads((tmp_path / "report.json").read_text())
    assert [p["p_detect"] for p in saved["points"]] == [None, None]


def test_p_detect_undefined_without_signal_or_noise(tmp_path):
    # Neither signal nor noise: nothing fixes an SNR, and every trial
    # fails, so p_D is undefined rather than saturated to 1.
    silent = {"scatterers": [{"delay_s": 5e-9, "amplitude": [0.0, 0.0]}],
              "noise_variance": 0.0}
    report = run_scenario(pmcw_scenario(scene=silent, trials=2),
                          out_dir=tmp_path)
    point = report.points[0]
    assert point.n_failures == 2
    assert "no detected targets" in point.example_failure
    saved = json.loads((tmp_path / "report.json").read_text())
    assert saved["points"][0]["p_detect"] is None
    # With noise but no signal the detector fires at its false-alarm rate.
    noisy = pmcw_scenario(scene=dict(silent, noise_variance=0.1))
    null_point = SweepPoint(index=0, mu_percent=None, snr_db=None)
    assert runner._point_p_detect(
        noisy, runner._bind(noisy, null_point)) == pytest.approx(
            noisy.false_alarm)


def test_tradeoff_skips_a_silent_first_scatterer(tmp_path):
    # The CRLB term is taken at the first scatterer; with no signal there
    # its Fisher information is singular, so the point has no trade-off.
    config = pmcw_scenario(
        scene={"scatterers": [{"delay_s": 5e-9, "amplitude": [0.0, 0.0]},
                              {"delay_s": 9e-9, "amplitude": [1.0, 0.0]}],
               "noise_variance": 0.1},
        sweep={"weights": [0.5]}, trials=1)
    report = run_scenario(config, out_dir=tmp_path)
    assert report.tradeoff == []
    assert not (tmp_path / "tradeoff.csv").exists()


# ---------------------------------------------------------------------------
# Golay scenario path
# ---------------------------------------------------------------------------


def test_golay_scenario_noiseless(tmp_path):
    config = parse_config({
        "version": 1,
        "waveform": "golay",
        "golay": {"log2_length": 8, "guard_samples": 64,
                  "sample_time_s": 1e-9},
        "scene": {"scatterers": [
            {"delay_s": 10e-9, "amplitude": [1.0, 0.0]},
            {"delay_s": 25e-9, "amplitude": [0.5, 0.0]}]},
        "estimator": {"max_targets": 2},
        "trials": 2,
    })
    report = run_scenario(config, out_dir=tmp_path)
    header, rows = read_csv_rows(tmp_path / "rmse_vs_snr.csv")
    row = dict(zip(header, rows[0]))
    # bin * sample_time can differ from the parsed decimal by one ulp
    assert float(row["rmse_delay_s"]) < 1e-18
    assert row["rmse_doppler_hz"] == "nan"
    # A sounding is all radar: its rows sit at mu 100, as an all-radar
    # PMCW or OFDMA point's do.
    assert row["mu_percent"] == "100.0"
    _, est_rows = read_csv_rows(tmp_path / "estimates.csv")
    assert len(est_rows) == 4  # two scatterers, two trials
    assert {r[0] for r in est_rows} == {"100.0"}
    assert report.points[0].n_failures == 0


def golay_fading_scenario(fading, snr_db=-10):
    return parse_config({
        "version": 1,
        "waveform": "golay",
        "golay": {"log2_length": 4, "guard_samples": 16,
                  "sample_time_s": 1e-9},
        "scene": {"scatterers": [
            {"delay_s": 5e-9, "amplitude": [1.0, 0.0], "fading": fading},
            {"delay_s": 12e-9, "amplitude": [0.4, 0.7], "fading": fading}]},
        "sweep": {"snr_db": [snr_db]},
        "estimator": {"max_targets": 2},
        "trials": 4,
        "seed": 3,
    })


def test_golay_trials_honour_fading(tmp_path, monkeypatch):
    # Each trial scales the scatterers' nominal amplitudes by the scene's
    # fading gains of its index, as the other waveforms do per CPI:
    # without noise, trial k receives the CEF waveform delayed by 5 and 12
    # samples with those amplitudes.
    seen = []
    synthesize = runner._synthesize

    def spy(*args):  # a copy, as the batch demodulates in its data
        data = synthesize(*args)
        seen.append(data.copy())
        return data

    monkeypatch.setattr(runner, "_synthesize", spy)
    faded = golay_fading_scenario("swerling12", snr_db=None)
    run_scenario(faded, out_dir=tmp_path / "noiseless")
    cef = golay_cef_waveform(golay_pair(4), 16)
    (data,) = seen
    assert data.shape == (4, 1, cef.size, 1)
    for trial, rx in enumerate(data[:, 0, :, 0]):
        gains = np.array([1.0, 0.4 + 0.7j]) * faded.scene.fading_gains(trial)
        expected = np.zeros(cef.size, dtype=complex)
        expected[5:] += gains[0] * cef[:-5]
        expected[12:] += gains[1] * cef[:-12]
        assert np.array_equal(rx, expected)
    run_scenario(golay_fading_scenario("swerling12"),
                 out_dir=tmp_path / "swerling12")
    run_scenario(golay_fading_scenario("swerling0"),
                 out_dir=tmp_path / "swerling0")
    assert (tmp_path / "swerling12" / "estimates.csv").read_bytes() != \
        (tmp_path / "swerling0" / "estimates.csv").read_bytes()


def test_golay_delay_outside_guard_fails_trial():
    # Rejected when the scenario is parsed, before any trial runs.
    with pytest.raises(ConfigError, match="falls on sample 20, outside the "
                                          "8-sample guard window"):
        parse_config({
            "version": 1,
            "waveform": "golay",
            "golay": {"log2_length": 4, "guard_samples": 8,
                      "sample_time_s": 1e-9},
            "scene": {"scatterers": [{"delay_s": 20e-9,
                                      "amplitude": [1.0, 0.0]}]},
            "trials": 1,
        })


def test_every_waveform_has_a_binding():
    # One trial body runs every waveform the parser accepts.
    assert set(runner._CUBES) == set(_WAVEFORMS)


def test_golay_interpolated_noiseless_delays_are_exact(tmp_path):
    # Without noise the sounding's delay profile is 2N times the channel,
    # so a parabola through an on-sample peak and its two zero (or, at an
    # edge, missing) neighbours has no offset; refinement, which has no
    # axis to pad, repeats the coarse estimate.
    config = golay_scenario(
        scene={"scatterers": [{"delay_s": 0.0}, {"delay_s": 7e-9},
                              {"delay_s": 15e-9, "amplitude": [0.0, 0.5]}]},
        estimator={"interpolate": True, "max_targets": 3, "range_pad": 2,
                   "doppler_pad": 2, "angle_pad": 2})
    run_scenario(config, out_dir=tmp_path)
    header, rows = read_csv_rows(tmp_path / "estimates.csv")
    assert len(rows) == 9
    for row in rows:
        row = dict(zip(header, row))
        on_sample = round(float(row["true_delay_s"]) / 1e-9) * 1e-9
        assert float(row["est_delay_s"]) == on_sample
        assert row["refined_delay_s"] == row["est_delay_s"]
        assert row["est_doppler_hz"] == row["est_angle_rad"] == "nan"


def test_pmcw_fractional_chip_delay_runs(tmp_path):
    # A delay of 9.4 chips is synthesized as such; the unpadded coarse map
    # puts it on its nearest chip.
    run_scenario(pmcw_scenario(scene={"scatterers": [
        {"delay_s": 9.4e-9, "amplitude": [1.0, 0.0]}]}), out_dir=tmp_path)
    header, rows = read_csv_rows(tmp_path / "estimates.csv")
    assert len(rows) == 3
    for row in rows:
        row = dict(zip(header, row))
        assert float(row["true_delay_s"]) == 9.4e-9
        assert float(row["est_delay_s"]) == pytest.approx(9e-9, rel=1e-12)
    _, point = read_csv_rows(tmp_path / "rmse_vs_snr.csv")
    assert point[0][3] == "0"  # n_failures


def test_programming_error_in_trial_propagates(tmp_path, monkeypatch):
    # Only ValueError (domain errors) counts as a failed trial; a bug such
    # as a TypeError must stop the run instead of being tallied.
    def broken_trials(*args):
        raise TypeError("broken trial")

    monkeypatch.setattr(runner, "_cube_trials", broken_trials)
    with pytest.raises(TypeError, match="broken trial"):
        run_scenario(pmcw_scenario(trials=1), out_dir=tmp_path)


def test_no_batch_is_held_after_an_inline_run(tmp_path):
    config = pmcw_scenario(trials=3)
    run_scenario(config, out_dir=tmp_path)
    assert runner._SLOT == (None, {})


def test_no_batch_is_held_after_a_trial_raises(tmp_path, monkeypatch):
    # Batches of two: the second batch's bug propagates while the slot
    # still holds the first, with its points, cubes and config.
    monkeypatch.setattr(runner, "_BATCH_CELLS", 2 * PMCW_CUBE_CELLS)
    cube_trials = runner._cube_trials
    held = []

    def second_batch_raises(batch):
        held.append(runner._SLOT[0])
        if len(held) == 2:
            raise TypeError("broken trial")
        return cube_trials(batch)

    monkeypatch.setattr(runner, "_cube_trials", second_batch_raises)
    with pytest.raises(TypeError, match="broken trial"):
        run_scenario(pmcw_scenario(trials=5), out_dir=tmp_path)
    assert len(held[1]) == 2
    assert runner._SLOT == (None, {})


def test_a_bug_in_point_work_propagates_while_the_pool_runs(tmp_path,
                                                           monkeypatch):
    # The parent computes PSL while the workers run trials, one of which
    # fails with a ValueError.  The parent's RuntimeError is a bug: it
    # stops the run, drops the chunks still queued instead of waiting for
    # them, is not tallied as a failed trial, and leaves no worker behind.
    config = pmcw_scenario(sweep={"snr_db": [5, 15]}, trials=60)
    monkeypatch.setattr(runner, "_BATCH_CELLS", 8 * PMCW_CUBE_CELLS)
    assert runner._batch_size(config) == 8  # 15 chunks of 8 trials
    fading_gains = Scene.fading_gains
    calls = tmp_path / "trials"

    def slow_and_flaky(scene, cpi_index=0):
        with open(calls, "a") as fh:  # one call per trial, in any process
            fh.write(".")
        time.sleep(0.02)
        if cpi_index == 2:
            raise ValueError("fading draw failed")
        return fading_gains(scene, cpi_index)

    def broken_psl(config, bound, point):
        raise RuntimeError("broken PSL")

    monkeypatch.setattr(Scene, "fading_gains", slow_and_flaky)
    with monkeypatch.context() as patch:
        patch.setattr(runner, "_point_psl_db", broken_psl)
        started = time.perf_counter()
        with pytest.raises(RuntimeError, match="broken PSL"):
            run_scenario(config, out_dir=tmp_path / "broken", workers=2)
        broken_s = time.perf_counter() - started
    assert multiprocessing.active_children() == []
    broken_calls = calls.stat().st_size if calls.exists() else 0
    calls.unlink(missing_ok=True)
    started = time.perf_counter()
    report = run_scenario(config, out_dir=tmp_path / "flaky", workers=2)
    whole_s = time.perf_counter() - started
    assert [r.n_failures for r in report.points] == [1, 1]
    assert multiprocessing.active_children() == []
    # 120 trials in windows of 8.  Trial 2 of point 0 stops the window
    # [0, 8) at its third trial, and trial 2 of point 1 stops the window
    # [56, 64), which spans both points, at its seventh; each reruns its 8
    # one by one.  The bug leaves only the chunks the pool had handed on
    # to run: at most two running and three queued of the 15.
    assert calls.stat().st_size == 120 + 3 + 7
    assert broken_calls <= 5 * 8 + 3
    assert broken_s < 0.75 * whole_s  # about 0.3 when unloaded


def test_point_work_runs_before_the_first_outcome_is_read(tmp_path,
                                                         monkeypatch):
    # pool.map queues every chunk first; the parent's PSL and trade-off
    # rows overlap the trials, and only then are the outcomes read.
    events = []

    class Recording(runner.ProcessPoolExecutor):
        def map(self, *args, **kwargs):
            outcomes = super().map(*args, **kwargs)

            def read():
                for outcome in outcomes:
                    events.append("outcome")
                    yield outcome
            return read()

    def recorded(name, fn):
        def call(*args):
            events.append(name)
            return fn(*args)
        return call

    monkeypatch.setattr(runner, "ProcessPoolExecutor", Recording)
    for name in ("_point_psl_db", "_tradeoff_rows"):
        monkeypatch.setattr(runner, name,
                            recorded(name, getattr(runner, name)))
    config = pmcw_scenario(sweep={"mu_percent": [50, 75], "snr_db": [5, 15],
                                  "weights": [0.5]}, trials=4)
    report = run_scenario(config, out_dir=tmp_path, workers=2)
    assert len(report.tradeoff) == 4
    first = events.index("outcome")
    assert sorted(events[:first]) == ["_point_psl_db"] * 4 \
        + ["_tradeoff_rows"] * 4
    assert events[first:] == ["outcome"] * 16


@pytest.mark.parametrize("config", [
    pmcw_scenario(),
    ofdma_scenario(),
    parse_config({"version": 1, "waveform": "golay",
                  "golay": {"log2_length": 6, "guard_samples": 16,
                            "sample_time_s": 1e-9},
                  "scene": {"scatterers": [{"delay_s": 2e-9}]}}),
], ids=["pmcw", "ofdma", "golay"])
def test_point_psl_is_autocorrelation_psl(config):
    point = SweepPoint(index=0, mu_percent=None, snr_db=None)
    bound = runner._bind(config, point)
    x = runner._point_waveform_samples(config, bound.cube, point)
    lags = np.arange(-(x.size - 1), x.size, dtype=float)
    cut = ambiguity_function(x, lags, np.zeros(1)).magnitude[:, 0]
    psl = runner._point_psl_db(config, bound, point)
    assert psl == pytest.approx(peak_sidelobe_ratio(cut), abs=1e-9)


# ---------------------------------------------------------------------------
# Stacked trial batches against the per-trial pipeline
# ---------------------------------------------------------------------------


def reference_trial(config, point, trial):
    """One trial through the public single-CPI stages, in the order the
    runner called them before trials were stacked into batches; a Golay
    trial as the runner ran it before it became a cube waveform."""
    rng = np.random.default_rng([config.seed, point.index, trial])
    try:
        bound = runner._bind(config, point)
        wavecfg = bound.wave
        scene = replace(config.scene, noise_variance=bound.noise_variance)
        order = config.symbol_order
        refined_est = config.estimator.refined(config.refine_factor)
        if config.waveform == "golay":
            return reference_golay_trial(config, point, trial, bound, rng)
        if config.waveform == "pmcw":
            sched = pmcw_schedule(wavecfg)
            code = runner.build_code(config, wavecfg)
            payload = rng.integers(
                0, 2, payload_capacity_bits(sched, order)).astype(np.int64)
            symbols = pmcw_frame_symbols(sched, payload, order)
            cube = pmcw_receive_cube(scene, wavecfg, code, symbols, rng=rng,
                                     cpi_index=trial)
            coarse = pmcw_range_doppler(cube, code, config.estimator)
            bits_hat, _, full = pmcw_decode(cube, code, coarse.targets, order)
            refined = pmcw_refine(cube, code, full, refined_est)
            scales = (wavecfg.chip_time,
                      1.0 / (wavecfg.n_frames * wavecfg.block_time),
                      1.0 / max(wavecfg.geometry.n_rx, 1))
        else:
            payload = rng.integers(
                0, 2, grid_capacity_bits(wavecfg, order)).astype(np.int64)
            grid = build_symbol_grid(wavecfg, payload, order)
            cube = ofdma_receive_cube(scene, wavecfg, grid, rng=rng,
                                      cpi_index=trial)
            coarse = ofdma_range_doppler_angle(cube, grid, config.estimator)
            bits_hat, _, full = ofdma_decode(cube, grid, coarse.targets)
            refined = ofdma_refine(cube, full, refined_est)
            scales = (wavecfg.sample_time,
                      1.0 / (wavecfg.n_symbols * wavecfg.symbol_duration),
                      1.0 / max(wavecfg.geometry.n_rx, 1))
        return runner._outcome(
            point, trial, bound.truths,
            runner._parameters(coarse.targets),
            runner._parameters(refined.targets), scales,
            n_bits=int(payload.size),
            bit_errors=int(np.sum(bits_hat != payload)))
    except ValueError as exc:
        return TrialOutcome(point=point.index, trial=trial, failed=True,
                            message=f"{type(exc).__name__}: {exc}")


def reference_golay_trial(config, point, trial, bound, rng):
    """A Golay trial: the CEF shifted by each scatterer's nearest whole
    sample, the two correlator branches, and the peaks of the delay
    profile; with ``interpolate`` each peak's parabolic offset, taken on
    the profile's power with nothing beyond its ends.  Its coarse and
    refined estimates are the same."""
    wave, est = bound.wave, config.estimator
    pair = golay_pair(wave.log2_length)
    cef = golay_cef_waveform(pair, wave.guard_samples)
    rng.integers(0, 2, 0)  # the empty payload draw
    rx = np.zeros(cef.size, dtype=complex)
    for (delay, _, _), amp in zip(bound.truths, bound.amplitudes
                                  * config.scene.fading_gains(trial)):
        shift = int(round(delay / wave.sample_time_s))
        rx[shift:] += amp * cef[:cef.size - shift]
    if bound.noise_variance > 0:
        rx += complex_awgn(rng, rx.shape, bound.noise_variance)
    profile = golay_range_estimate(rx, pair, wave.guard_samples)
    bins = profile_peaks(profile, est.max_targets, est.threshold_db)
    if not bins:
        raise DecodingError("no detected targets to demodulate against")
    power = np.concatenate([[-np.inf], np.abs(profile) ** 2, [-np.inf]])
    found = []
    for b in bins:
        offset = estim._parabolic_offsets(*power[b:b + 3]) \
            if est.interpolate else 0.0
        found.append(((b + offset) * wave.sample_time_s, np.nan, np.nan))
    return runner._outcome(point, trial, bound.truths, found, found,
                           (1.0, 1.0, 1.0))


def exact(outcome):
    """Every field of an outcome, floats by their exact repr."""
    return repr(vars(outcome))


def sweep_tasks(config, points):
    """The (batch, point, trial) tasks of ``points``' trials in map order,
    the points bound as ``run_scenario`` binds them: one cube per mu."""
    cubes = {}
    return runner._trial_tasks(config, points, [
        runner._bind(config, point, cubes) for point in points])


def inline_outcomes(config, points):
    """The outcomes of ``points``' trials as an inline run takes them: one
    ``_run_single_trial`` task each."""
    return [runner._run_single_trial(task)
            for task in sweep_tasks(config, points)]


def delays_apart(outcome):
    """An outcome's estimated delays (in samples of 1 ns), apart from
    every other field by its exact repr."""
    rows = [[v for c, v in enumerate(row) if c not in (1, 2)]
            for row in outcome.rows]
    delays = [row[c] / 1e-9 for row in outcome.rows for c in (1, 2)]
    return repr(dict(vars(outcome), rows=rows)), delays


@settings(max_examples=80, deadline=None)
@given(waveform=st.sampled_from(["pmcw", "ofdma", "golay"]),
       seed=st.integers(0, 2 ** 32 - 1), n_scatterers=st.integers(1, 3),
       max_targets=st.integers(1, 3), interpolate=st.booleans(),
       range_pad=st.integers(1, 2), doppler_pad=st.integers(1, 2),
       angle_pad=st.integers(1, 2), mu=st.sampled_from([0, 50, 100]),
       snr_db=st.floats(-5.0, 20.0),
       fading=st.sampled_from(["swerling0", "swerling12"]))
def test_batch_matches_per_trial_pipeline(
        waveform, seed, n_scatterers, max_targets, interpolate, range_pad,
        doppler_pad, angle_pad, mu, snr_db, fading):
    # Rayleigh fading (swerling12) spreads the trials' peak levels, so a
    # threshold taken across trials instead of per trial would show.
    rng = np.random.default_rng(seed)
    scatterers = []
    for q in range(n_scatterers):
        phase = rng.uniform(0.0, 2 * np.pi)
        if waveform == "pmcw":  # 31 chips of 1 ns, 8 frames
            delay = rng.uniform(0.0, 30.5) * 1e-9
            doppler = rng.uniform(-0.5, 0.5) / 31e-9
        elif waveform == "golay":  # 16 guard samples of 1 ns
            delay = rng.uniform(0.0, 15.5) * 1e-9
            doppler = 0.0
        else:  # 16 subcarriers 62.5 MHz apart, 8-sample cyclic prefix
            delay = rng.uniform(0.0, 8.0) * 1e-9
            doppler = rng.uniform(-0.5, 0.5) * 62.5e6
        scatterers.append({
            "delay_s": delay, "doppler_hz": doppler,
            "angle_rad": rng.uniform(-0.9, 0.9), "fading": fading,
            "amplitude": [0.8 ** q * np.cos(phase), 0.8 ** q * np.sin(phase)]})
    make = {"pmcw": pmcw_scenario, "ofdma": ofdma_scenario,
            "golay": golay_scenario}[waveform]
    sweep, mu = {"snr_db": [snr_db]}, (None if waveform == "golay"
                                       else float(mu))
    if mu is not None:
        sweep["mu_percent"] = [mu]
    config = make(
        scene={"scatterers": scatterers,
               "seed": int(rng.integers(0, 2 ** 31))},
        estimator={"max_targets": max_targets, "interpolate": interpolate,
                   "range_pad": range_pad, "doppler_pad": doppler_pad,
                   "angle_pad": angle_pad},
        sweep=sweep, trials=5, seed=int(rng.integers(0, 2 ** 31)))
    point = SweepPoint(index=1, mu_percent=mu, snr_db=snr_db)
    with mock.patch.object(runner, "_cube_trials",
                           wraps=runner._cube_trials) as trials_fn:
        batch = inline_outcomes(config, [point])
        batches_run = trials_fn.call_count
    reference = [reference_trial(config, point, t)
                 for t in range(config.trials)]
    if waveform == "golay" and interpolate:
        # The batch correlates by FFT, the reference directly: their
        # powers, and so the offsets, differ by rounding.
        for got, want in zip(batch, reference):
            (got_rest, got_delays), (want_rest, want_delays) = (
                delays_apart(got), delays_apart(want))
            assert got_rest == want_rest
            assert got_delays == pytest.approx(want_delays, rel=0,
                                               abs=1e-9)
    else:
        assert [exact(o) for o in batch] == [exact(o) for o in reference]
    # The batch falls back to one trial at a time only when a trial fails
    # on its own; a fallback that repairs a batch error would hide it.
    assert (batches_run > 1) == any(o.failed for o in batch)


@pytest.mark.parametrize("mu", [25, 50, 75, 100])
@pytest.mark.parametrize("make", [pmcw_scenario, ofdma_scenario],
                         ids=["pmcw", "ofdma"])
def test_a_batch_demodulates_every_slot_once(monkeypatch, make, mu):
    # Detection demodulates the radar slots, refinement reuses them and
    # demodulates the comm slots alone; at mu = 100 it demodulates none.
    config = make(sweep={"mu_percent": [mu], "snr_db": [10]}, trials=3)
    point = SweepPoint(index=0, mu_percent=float(mu), snr_db=10.0)
    stage, calls, cubes = [None], [], []

    def staged(name, fn):
        def run(*args, **kwargs):
            stage[0] = name
            return fn(*args, **kwargs)
        return run

    def bind_recording(bind):
        def bound(config, wave):
            cube = bind(config, wave)

            def demod(data, symbols, out=None):
                calls.append((stage[0], data.copy()))
                return cube.demod(data, symbols, out=out)
            return replace(cube, demod=demod)
        return bound

    synthesize = runner._synthesize

    def synthesized(*args):  # a copy, as the batch demodulates in its data
        data = synthesize(*args)
        cubes.append(data.copy())
        return data

    monkeypatch.setattr(runner, "_synthesize", synthesized)
    monkeypatch.setattr(runner, "_detect", staged("detect", runner._detect))
    monkeypatch.setattr(runner, "_demodulated",
                        staged("refine", runner._demodulated))
    for name, bind in list(runner._CUBES.items()):
        monkeypatch.setitem(runner._CUBES, name, bind_recording(bind))
    bound = runner._bind(config, point)
    runner._cube_trials([(bound, point, t) for t in range(config.trials)])
    radar = bound.cube.radar
    (data,) = cubes
    expected = [("detect", data[:, radar])]
    if mu < 100:
        expected.append(("refine", data[:, ~radar]))
    assert [name for name, _ in calls] == [name for name, _ in expected]
    for (_, got), (_, want) in zip(calls, expected):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("make", [pmcw_scenario, ofdma_scenario],
                         ids=["pmcw", "ofdma"])
def test_value_error_fails_only_its_trial(tmp_path, monkeypatch, make,
                                          workers):
    # A ValueError inside a stacked batch reruns the batch one trial at a
    # time: only trial 2 fails, with the message it raised, and the other
    # trials' rows are those of an undisturbed run.
    config = make(sweep={"snr_db": [5, 15]}, trials=4)
    run_scenario(config, out_dir=tmp_path / "clean")
    fading_gains = Scene.fading_gains

    def flaky(scene, cpi_index=0):
        if cpi_index == 2:
            raise ValueError("fading draw failed")
        return fading_gains(scene, cpi_index)

    monkeypatch.setattr(Scene, "fading_gains", flaky)
    report = run_scenario(config, out_dir=tmp_path / "flaky", workers=workers)
    for result in report.points:
        assert result.n_failures == 1
        assert result.example_failure == "ValueError: fading draw failed"
    _, clean = read_csv_rows(tmp_path / "clean" / "estimates.csv")
    _, flaky_rows = read_csv_rows(tmp_path / "flaky" / "estimates.csv")
    assert flaky_rows == [row for row in clean if row[2] != "2"]


@pytest.mark.parametrize("make", [pmcw_scenario, ofdma_scenario,
                                  golay_scenario],
                         ids=["pmcw", "ofdma", "golay"])
def test_a_batch_spanning_points_matches_each_trial_alone(make):
    # Three SNR points of one cube (a Golay sweep has no mu at all) run as
    # one batch: each trial keeps its own noise variance and generator,
    # so its outcome is the per-trial oracle's, bit for bit.  The delay is
    # off the grid and interpolated, so every estimate reads the noise.
    config = make(scene={"scatterers": [{"delay_s": 5.3e-9,
                                         "amplitude": [1.0, 0.0]}]},
                  estimator={"interpolate": True},
                  sweep={"snr_db": [-5, 5, 20]}, trials=3)
    points = [SweepPoint(index=i, mu_percent=None, snr_db=snr)
              for i, snr in enumerate(config.snr_db)]
    with mock.patch.object(runner, "_cube_trials",
                           wraps=runner._cube_trials) as trials_fn:
        batch = inline_outcomes(config, points)
    assert trials_fn.call_count == 1
    assert not any(o.failed for o in batch)
    reference = [reference_trial(config, point, t) for point in points
                 for t in range(config.trials)]
    if config.waveform == "golay":
        # As in test_batch_matches_per_trial_pipeline: the batch
        # correlates by FFT, the reference directly.
        for got, want in zip(batch, reference):
            (got_rest, got_delays), (want_rest, want_delays) = (
                delays_apart(got), delays_apart(want))
            assert got_rest == want_rest
            assert got_delays == pytest.approx(want_delays, rel=0,
                                               abs=1e-9)
    else:
        assert [exact(o) for o in batch] == [exact(o) for o in reference]


@pytest.mark.parametrize("make", [pmcw_scenario, ofdma_scenario],
                         ids=["pmcw", "ofdma"])
def test_a_value_error_in_a_batch_spanning_points_fails_only_its_trials(
        monkeypatch, make):
    # Point 1's trials raise in a batch that spans three points: the batch
    # reruns one trial at a time, each of point 1's trials fails with its
    # own message, and every other trial is that of an undisturbed run.
    config = make(sweep={"snr_db": [0, 10, 20]}, trials=3)
    points = [SweepPoint(index=i, mu_percent=None, snr_db=snr)
              for i, snr in enumerate(config.snr_db)]
    clean = inline_outcomes(config, points)
    trial_payloads = runner._trial_payloads

    def flaky(config, keys, capacity):
        for key in keys:
            if key[0] == 1:
                raise ValueError(f"payload draw failed at {key}")
        return trial_payloads(config, keys, capacity)

    monkeypatch.setattr(runner, "_trial_payloads", flaky)
    outcomes = inline_outcomes(config, points)
    assert [(o.point, o.trial, o.message) for o in outcomes if o.failed] == [
        (1, t, f"ValueError: payload draw failed at {(1, t)}")
        for t in range(3)]
    assert [exact(o) for o in outcomes if o.point != 1] == [
        exact(o) for o in clean if o.point != 1]


def pool_grid_scenario(trials):
    """pool_grid's shape: a 32 x 16 x 4 PMCW cube per mu of two, 26 SNR
    points each."""
    return pmcw_scenario(
        pmcw={"code_length": 32, "n_frames": 16, "chip_time_s": 1e-9,
              "carrier_hz": 60e9, "geometry": {"n_rx": 4}},
        code_kind="random",
        scene={"scatterers": [{"delay_s": 9e-9, "doppler_hz": 5273437.5,
                               "angle_rad": 0.3, "amplitude": [1.0, 0.0]}]},
        sweep={"mu_percent": [50, 100], "snr_db": list(range(-5, 21))},
        trials=trials, seed=7)


@pytest.mark.parametrize("trials, sizes", [
    # Windows of 32 tasks; [96, 128) is split at mu's boundary, task 104.
    (4, [32] * 3 + [8, 24] + [32] * 2 + [16]),
    # One trial a point: four windows of 13, two per mu.
    (1, [13] * 4),
], ids=["four-trials", "one-trial"])
def test_batches_span_the_points_of_one_mu(tmp_path, monkeypatch, trials,
                                           sizes):
    # A batch is a step-aligned window of the pool's task stream, split
    # only where the cube changes: it never mixes two cubes, and no chunk
    # boundary falls inside it.
    maps = []

    class Recording(runner.ProcessPoolExecutor):
        def map(self, fn, tasks, chunksize=1):
            maps.append((tasks, chunksize))
            return super().map(fn, tasks, chunksize=chunksize)

    monkeypatch.setattr(runner, "ProcessPoolExecutor", Recording)
    run_scenario(pool_grid_scenario(trials), out_dir=tmp_path, workers=2)
    [(tasks, chunk)] = maps
    positions = {}
    for position, (batch, point, trial) in enumerate(tasks):
        positions.setdefault(id(batch), (batch, []))[1].append(position)
    assert [len(batch) for batch, _ in positions.values()] == sizes
    for batch, held in positions.values():
        assert len({id(bound.cube) for bound, _, _ in batch}) == 1
        assert len({p // chunk for p in held}) == 1
        assert [(point, trial) for _, point, trial in batch] == [
            tasks[p][1:] for p in held]


def test_large_trial_counts_run_in_several_batches(monkeypatch):
    config = pmcw_scenario(sweep={"snr_db": [10]}, trials=5)
    point = SweepPoint(index=0, mu_percent=None, snr_db=10.0)
    whole = inline_outcomes(config, [point])
    sizes = []
    cube_trials = runner._cube_trials

    def counted(batch):
        sizes.append(len(batch))
        return cube_trials(batch)

    monkeypatch.setattr(runner, "_cube_trials", counted)
    monkeypatch.setattr(runner, "_BATCH_CELLS", 2 * PMCW_CUBE_CELLS)
    split = inline_outcomes(config, [point])
    assert sizes == [2, 2, 1]
    assert [exact(o) for o in split] == [exact(o) for o in whole]


def test_inline_runs_bind_each_point_once(tmp_path, monkeypatch):
    # Two points of five trials in windows of two: [4, 6) spans both
    # points, so five batches run, on the bindings that run_scenario made
    # before the first trial.
    monkeypatch.setattr(runner, "_BATCH_CELLS", 2 * PMCW_CUBE_CELLS)
    config = pmcw_scenario(sweep={"snr_db": [5, 15]}, trials=5)
    with mock.patch.object(runner, "_bind", wraps=runner._bind) as bind, \
            mock.patch.object(runner, "_cube_trials",
                              wraps=runner._cube_trials) as trials_fn:
        run_scenario(config, out_dir=tmp_path)
    assert bind.call_count == 2
    assert trials_fn.call_count == 5


def round_trip(tasks):
    """``tasks`` as a worker receives one chunk: unpickled together, so
    the tasks of one batch share one batch."""
    return pickle.loads(pickle.dumps(tasks))


def test_pool_worker_runs_each_pool_batch_once(monkeypatch):
    monkeypatch.setattr(runner, "_BATCH_CELLS", 4 * PMCW_CUBE_CELLS)
    config = pmcw_scenario(sweep={"snr_db": [5, 15]}, trials=9)
    points = [SweepPoint(index=i, mu_percent=None, snr_db=snr)
              for i, snr in enumerate((5.0, 15.0))]
    tasks = sweep_tasks(config, points)
    step = runner._batch_size(config)
    assert step == 4
    chunk = 2 * step
    # The worker runs each batch, a step-aligned window of the task stream
    # (both points share one cube, so the window [8, 12) spans them), once,
    # on the bound points it received: it never binds.
    windows = {(point.index * config.trials + t) // step
               for _, point, t in tasks}
    assert {point.index for _, point, _ in tasks[8][0]} == {0, 1}
    with mock.patch.object(runner, "_cube_trials",
                           wraps=runner._cube_trials) as trials_fn, \
            mock.patch.object(runner, "_bind", wraps=runner._bind) as bind:
        pooled = [runner._run_single_trial(task)
                  for start in range(0, len(tasks), chunk)
                  for task in round_trip(tasks[start:start + chunk])]
        assert trials_fn.call_count == len(windows) == 5
        assert bind.call_count == 0
    assert [exact(o) for o in pooled] == [
        exact(o) for o in inline_outcomes(config, points)]


def test_a_chunk_boundary_inside_a_batch_costs_its_remainder(monkeypatch):
    # Two chunks split the batch of trials 4..7: the first runs it whole
    # for trials 4 and 5, the second misses the slot (its batch is another
    # object) and runs only trials 6 and 7.  Each trial is computed once
    # per chunk.
    monkeypatch.setattr(runner, "_BATCH_CELLS", 4 * PMCW_CUBE_CELLS)
    config = pmcw_scenario(sweep={"snr_db": [10]}, trials=9)
    point = SweepPoint(index=0, mu_percent=None, snr_db=10.0)
    tasks = sweep_tasks(config, [point])
    runs = []
    cube_trials = runner._cube_trials

    def recorded(batch):
        runs.append([trial for _, _, trial in batch])
        return cube_trials(batch)

    monkeypatch.setattr(runner, "_cube_trials", recorded)
    pooled = [runner._run_single_trial(task)
              for chunk in (tasks[:6], tasks[6:])
              for task in round_trip(chunk)]
    assert runs == [[0, 1, 2, 3], [4, 5, 6, 7], [6, 7], [8]]
    assert [exact(o) for o in pooled] == [
        exact(o) for o in inline_outcomes(config, [point])]


def test_whole_window_chunks_run_each_trial_once(monkeypatch):
    # Chunks of whole windows of the task stream, over three points of 9
    # trials at a batch size of 4: no chunk boundary falls inside a batch,
    # so every (point, trial) reaches the trial body exactly once.
    monkeypatch.setattr(runner, "_BATCH_CELLS", 4 * PMCW_CUBE_CELLS)
    config = pmcw_scenario(sweep={"snr_db": [0, 5, 15]}, trials=9)
    points = [SweepPoint(index=i, mu_percent=None, snr_db=snr)
              for i, snr in enumerate((0.0, 5.0, 15.0))]
    tasks = sweep_tasks(config, points)
    step = runner._batch_size(config)
    assert step == 4
    runs = []
    cube_trials = runner._cube_trials

    def recorded(batch):
        runs.extend((point.index, t) for _, point, t in batch)
        return cube_trials(batch)

    monkeypatch.setattr(runner, "_cube_trials", recorded)
    for chunk in (step, 2 * step):
        runs.clear()
        pooled = [runner._run_single_trial(task)
                  for start in range(0, len(tasks), chunk)
                  for task in round_trip(tasks[start:start + chunk])]
        assert sorted(runs) == [(p.index, t) for p in points
                                for t in range(9)]
        assert [(o.point, o.trial) for o in pooled] == sorted(runs)


def test_pool_worker_slot_survives_any_task_order(monkeypatch):
    # Out of order, or interleaved with another config's task, a task
    # misses the slot and recomputes the rest of its batch: slower, never
    # wrong.
    monkeypatch.setattr(runner, "_BATCH_CELLS", 4 * PMCW_CUBE_CELLS)
    config = pmcw_scenario(sweep={"snr_db": [5, 15]}, trials=9)
    other = ofdma_scenario(sweep={"snr_db": [5]}, trials=9)
    points = [SweepPoint(index=i, mu_percent=None, snr_db=snr)
              for i, snr in enumerate((5.0, 15.0))]
    tasks = sweep_tasks(config, points) + [sweep_tasks(other, points[:1])[4]]
    order = np.random.default_rng(3).permutation(len(tasks))
    shuffled = round_trip([tasks[i] for i in order])
    pooled = {(batch[0][0].config.waveform, point.index, trial):
              runner._run_single_trial((batch, point, trial))
              for batch, point, trial in shuffled}
    expected = {("pmcw", o.point, o.trial): o
                for o in inline_outcomes(config, points)}
    expected["ofdma", 0, 4] = runner._run_batch(
        [(runner._bind(other, points[0]), points[0], 4)])[0]
    assert {k: exact(o) for k, o in pooled.items()} == {
        k: exact(o) for k, o in expected.items()}


@pytest.mark.parametrize("waveform", sorted(runner._CUBES))
def test_bound_points_pickle(waveform):
    # A pool task carries its batch, and the batch its bound points: every
    # binding must pickle and run as the original does, so a lambda put
    # back into one fails here.
    make = {"pmcw": pmcw_scenario, "ofdma": ofdma_scenario,
            "golay": golay_scenario}[waveform]
    config = make(sweep={"snr_db": [10]}, trials=3)
    point = SweepPoint(index=0, mu_percent=None, snr_db=10.0)
    batch = [(runner._bind(config, point), point, t) for t in range(3)]
    copy = pickle.loads(pickle.dumps(batch))
    assert [exact(o) for o in runner._run_batch(copy)] == [
        exact(o) for o in runner._run_batch(batch)]


def test_a_run_binds_one_cube_per_mu(tmp_path, monkeypatch):
    # Points of one waveform config share one cube, so a pool chunk
    # pickles it once, and the trade-off computes one Fisher Gram per mu.
    config = pmcw_scenario(sweep={"mu_percent": [0, 50, 75],
                                  "snr_db": [5, 15, 25],
                                  "weights": [0.5]}, trials=2)
    bounds, grams = [], []
    bind, crlb_proxy = runner._bind, runner.crlb_proxy

    def recorded_bind(*args):
        bounds.append(bind(*args))
        return bounds[-1]

    def recorded_crlb(*args):
        grams.append(not args[-1])  # an empty cache computes the Gram
        return crlb_proxy(*args)

    monkeypatch.setattr(runner, "_bind", recorded_bind)
    monkeypatch.setattr(runner, "crlb_proxy", recorded_crlb)
    run_scenario(config, out_dir=tmp_path)
    cubes = [bound.cube for bound in bounds]
    assert [len({id(c) for c in cubes[i:i + 3]}) for i in (0, 3, 6)] == [
        1, 1, 1]
    assert len({id(c) for c in cubes}) == 3
    # mu = 0 has no trade-off rows; 50 and 75 invert three sigma^2 each.
    assert grams == [True, False, False] * 2
    chunk = round_trip([(bound, SweepPoint(index=i, mu_percent=50,
                                           snr_db=snr), 0)
                        for i, (bound, snr) in enumerate(
                            zip(bounds[3:5], (5.0, 15.0)))])
    assert chunk[0][0] is not chunk[1][0]
    assert chunk[0][0].cube is chunk[1][0].cube
    # Without a shared dict, each binding builds its own cube.
    point = SweepPoint(index=0, mu_percent=50, snr_db=5.0)
    assert bind(config, point).cube is not bind(config, point).cube


# ---------------------------------------------------------------------------
# Trade-off table and report
# ---------------------------------------------------------------------------


def test_tradeoff_rows_affine_in_weight(tmp_path):
    config = pmcw_scenario(sweep={"snr_db": [10], "weights": [0.0, 0.5, 1.0]},
                           trials=1)
    run_scenario(config, out_dir=tmp_path)
    header, rows = read_csv_rows(tmp_path / "tradeoff.csv")
    assert header == ["mu_percent", "snr_db", "weight", "comm_fraction",
                      "rate_bits", "objective"]
    assert len(rows) == 3
    by_weight = {float(r[2]): float(r[5]) for r in rows}
    blended = 0.5 * by_weight[0.0] + 0.5 * by_weight[1.0]
    assert by_weight[0.5] == pytest.approx(blended, abs=1e-12)
    assert all(r[3] == "0.5" for r in rows)  # mu=50: half the frames carry data
    assert all(r[4] == "1.0" for r in rows)  # BPSK payload


@pytest.mark.parametrize("make, shape", [
    (pmcw_scenario, {"geometry": ArrayGeometry(n_rx=1)}),
    (ofdma_scenario, {"geometry": ArrayGeometry(n_rx=1)}),
    (ofdma_scenario, {"n_symbols": 1})],
    ids=["pmcw_one_element", "ofdma_one_element", "ofdma_one_symbol"])
def test_tradeoff_rows_without_angle_or_doppler_information(tmp_path, make,
                                                            shape):
    # One receive element cannot resolve the angle, nor one OFDM symbol the
    # Doppler: the sensing term bounds the parameters that are resolvable.
    config = make(sweep={"snr_db": [10], "weights": [0.0, 1.0]}, trials=1)
    config = replace(config, **{config.waveform: replace(
        config.waveform_config, **shape)})
    report = run_scenario(config, out_dir=tmp_path)
    assert [row[2] for row in report.tradeoff] == [0.0, 1.0]
    assert all(np.isfinite(row[5]) for row in report.tradeoff)
    assert (tmp_path / "tradeoff.csv").exists()


def test_tradeoff_skipped_without_weights_or_comm(tmp_path):
    run_scenario(pmcw_scenario(sweep={"snr_db": [10]}), out_dir=tmp_path)
    assert not (tmp_path / "tradeoff.csv").exists()
    config = pmcw_scenario(sweep={"mu_percent": [100], "snr_db": [10],
                                  "weights": [0.5]})
    run_scenario(config, out_dir=tmp_path / "all_radar")
    assert not (tmp_path / "all_radar" / "tradeoff.csv").exists()


@pytest.mark.parametrize("make,mu,gain,comm", [
    # PMCW: radar frames times the 31 chips of each frame
    (pmcw_scenario, 0, 0, 1.0), (pmcw_scenario, 50, 124, 0.5),
    (pmcw_scenario, 75, 186, 0.25), (pmcw_scenario, 100, 248, 0.0),
    # OFDMA: pilot rows times the 4 symbols of each row
    (ofdma_scenario, 0, 0, 1.0), (ofdma_scenario, 30, 20, 0.6875),
    (ofdma_scenario, 50, 32, 0.5), (ofdma_scenario, 100, 64, 0.0),
    # Golay: both members of the 16-chip pair
    (golay_scenario, None, 32, 0.0)])
def test_integration_gain_and_comm_fraction_count_radar_slots(make, mu, gain,
                                                              comm):
    bound = runner._bind(make(), SweepPoint(index=0, mu_percent=mu,
                                            snr_db=None))
    assert bound.cube.gain == gain
    assert float(np.mean(~bound.cube.radar)) == comm


@pytest.mark.parametrize("mu", [0, 50, 100])
@pytest.mark.parametrize("make, capacity, n_leading", [
    (pmcw_scenario, lambda wave, order: payload_capacity_bits(
        pmcw_schedule(wave), order), 1),
    (ofdma_scenario, grid_capacity_bits, 2)], ids=["pmcw", "ofdma"])
def test_cube_binding_matches_the_waveform_modules(make, capacity, n_leading,
                                                   mu):
    # The binding's mask spans the cube's slots, its capacity is the
    # waveform module's, and its symbol stack covers the cube's leading
    # axes (PMCW frames; OFDMA subcarriers and symbols).
    config = make()
    wavecfg = replace(config.waveform_config, mu_percent=mu)
    cube = runner._CUBES[config.waveform](config, wavecfg)
    assert cube.radar.dtype == bool
    assert cube.radar.size == wavecfg.cube_shape[0]
    assert cube.capacity == capacity(wavecfg, config.symbol_order)
    payload = np.random.default_rng(mu).integers(0, 2, (3, cube.capacity))
    assert cube.symbols(payload).shape == (
        (3,) + wavecfg.cube_shape[:n_leading])


@pytest.mark.parametrize("make", [pmcw_scenario, ofdma_scenario],
                         ids=["pmcw", "ofdma"])
def test_p_detect_undefined_without_radar_slots(tmp_path, make):
    # At mu = 0 no radar slot is left: every trial fails as
    # non-identifiable and the detector model has nothing to integrate.
    report = run_scenario(make(sweep={"mu_percent": [0, 50],
                                      "snr_db": [-10]}, trials=2),
                          out_dir=tmp_path)
    at_zero, at_half = report.points
    assert at_zero.n_failures == 2
    assert at_zero.example_failure == (
        "NonIdentifiableError: no radar slots: delay and Doppler cannot be "
        "separated from unknown data symbols at mu = 0")
    assert np.isnan(at_zero.p_detect)
    assert 0 < at_half.p_detect < 1
    saved = json.loads((tmp_path / "report.json").read_text())
    assert saved["points"][0]["p_detect"] is None
    assert saved["points"][1]["p_detect"] == at_half.p_detect


@pytest.mark.parametrize("make, rows_at_half", [
    (pmcw_scenario, "50.0,-10.0,0.0,0.5,1.0,-42.89974095515734\r\n"
                    "50.0,-10.0,1.0,0.5,1.0,-0.4999999999999999\r\n"),
    (ofdma_scenario, "50.0,-10.0,0.0,0.5,2.0,-33.35772519311988\r\n"
                     "50.0,-10.0,1.0,0.5,2.0,-1.0\r\n")],
    ids=["pmcw", "ofdma"])
def test_no_tradeoff_rows_without_radar_slots(tmp_path, make, rows_at_half):
    # At mu = 0 every trial fails and p_detect is NaN.  The CRLB proxy
    # would still read the receive model on every slot, giving mu = 0 the
    # sensing term of mu = 50 and the best objective at weight 1, so the
    # point writes no trade-off row.  The mu = 50 rows stay as they were.
    config = make(sweep={"mu_percent": [0, 50], "snr_db": [-10],
                         "weights": [0, 1]}, trials=2)
    report = run_scenario(config, out_dir=tmp_path)
    assert [row[0] for row in report.tradeoff] == [50.0, 50.0]
    assert (tmp_path / "tradeoff.csv").read_bytes() == (
        "mu_percent,snr_db,weight,comm_fraction,rate_bits,objective\r\n"
        + rows_at_half).encode()


@st.composite
def tiny_scenarios(draw):
    """A tiny scenario file of any waveform, near the edges the parser
    and the runner each check: prefixes around the symbol length, zero
    delays, absent or zero amplitudes, one element or OFDM symbol, mu 0."""
    waveform = draw(st.sampled_from(["pmcw", "ofdma", "golay"]))
    geometry = {"n_rx": draw(st.sampled_from([1, 2]))}
    if waveform == "pmcw":  # 7 chips of 1 ns
        section = {"code_length": 7, "n_frames": draw(st.sampled_from([2, 4])),
                   "chip_time_s": 1e-9, "carrier_hz": 60e9,
                   "geometry": geometry}
        window = 6e-9
    elif waveform == "ofdma":  # 8 samples of 1 ns
        section = {"n_subcarriers": 8,
                   "n_symbols": draw(st.sampled_from([1, 2, 4])),
                   "subcarrier_spacing_hz": 125e6, "carrier_hz": 60e9,
                   "cp_samples": draw(st.integers(6, 10)),
                   "geometry": geometry}
        window = 8e-9
    else:  # 8 guard samples of 1 ns
        section = {"log2_length": 3, "guard_samples": 8,
                   "sample_time_s": 1e-9}
        window = 7e-9
    scatterers = []
    for _ in range(draw(st.integers(0, 2))):
        scatterer = {"delay_s": draw(st.just(0.0) | st.floats(0.0, window))}
        amplitude = draw(st.sampled_from([None, [0.0, 0.0], [0.6, -0.8]]))
        if amplitude is not None:
            scatterer["amplitude"] = amplitude
        scatterers.append(scatterer)
    sweep = {"snr_db": [draw(st.sampled_from([None, 10.0]))]}
    if waveform != "golay":
        section["mu_percent"] = draw(st.sampled_from([0, 50]))
        sweep["mu_percent"] = draw(st.sampled_from([[], [0], [0, 100]]))
        sweep["weights"] = draw(st.sampled_from([[], [0.0, 0.5]]))
    return {"version": 1, "waveform": waveform, waveform: section,
            "scene": {"scatterers": scatterers, "noise_variance": 0.1},
            "sweep": sweep, "trials": 1,
            "seed": draw(st.integers(0, 2 ** 16))}


@settings(max_examples=60, deadline=None)
@given(tiny_scenarios())
def test_a_scenario_that_parses_also_runs(data):
    # A file is rejected when parsed, or its run completes (trials may
    # fail with a ValueError), or the run stops with a ConfigError before
    # it writes a table.  Its waveform can always be exported.
    try:
        config = parse_config(data)
    except ConfigError:
        return
    samples, rate = runner.scenario_waveform_samples(config)
    assert samples.size > 0 and rate > 0
    with tempfile.TemporaryDirectory() as out:
        try:
            report = run_scenario(config, out_dir=out)
        except ConfigError:
            assert not list(Path(out).iterdir())
            return
        assert all(p.n_trials == 1 for p in report.points)
        assert (Path(out) / "report.json").exists()


def test_isi_warning_on_the_run_path(tmp_path):
    # Samples are 1 ns and the cyclic prefix 8 of them: a scatterer at
    # 12 ns reaches past it, one at 3 ns does not.
    beyond = {"scatterers": [{"delay_s": 12e-9, "amplitude": [1.0, 0.0]}]}
    with pytest.warns(IsiWarning, match="scatterer 0 delay 1.200e-08 s"):
        run_scenario(ofdma_scenario(scene=beyond, trials=1),
                     out_dir=tmp_path / "beyond")
    with warnings.catch_warnings():
        warnings.simplefilter("error", IsiWarning)
        run_scenario(ofdma_scenario(trials=1), out_dir=tmp_path / "within")


def test_batch_size_counts_receive_cube_cells():
    # 65536 cells over 8 x 31 x 2 (PMCW), 16 x 4 x 2 (OFDMA) and
    # 1 x 2 (16 + 16) x 1 (Golay) per cube, once a sweep has more than four
    # batches' worth of tasks; a smaller sweep cuts a quarter of its tasks,
    # but no fewer than 16384 cells.
    assert runner._batch_size(pmcw_scenario(trials=1000)) == 132
    assert runner._batch_size(ofdma_scenario(trials=4000)) == 512
    assert runner._batch_size(golay_scenario(trials=8000)) == 1024
    assert runner._batch_size(pmcw_scenario(
        sweep={"snr_db": [0, 10]}, trials=80)) == 40
    assert runner._batch_size(pmcw_scenario()) == 33
    assert runner._batch_size(ofdma_scenario()) == 128
    assert runner._batch_size(golay_fading_scenario("swerling0")) == 256
    # Both benchmark sweeps: 32 trials of a 32 x 16 x 4 cube per batch.
    sweep = {"mu_percent": [50, 100], "snr_db": [0, 5, 10, 15, 20]}
    assert runner._batch_size(pmcw_scenario(
        pmcw={"code_length": 32, "n_frames": 16, "chip_time_s": 1e-9,
              "carrier_hz": 60e9, "geometry": {"n_rx": 4}},
        code_kind="random", sweep=sweep, trials=40)) == 32
    assert runner._batch_size(ofdma_scenario(
        ofdma={"n_subcarriers": 32, "n_symbols": 16,
               "subcarrier_spacing_hz": 62.5e6, "carrier_hz": 60e9,
               "cp_samples": 16, "geometry": {"n_rx": 4}},
        sweep=sweep, trials=20)) == 32


# The traced peak (tracemalloc, numpy 2.4) of refining 8 trials of the
# stack below in one stack of windows, as every batch refined before
# refinement was sliced and its windows skipped: 16 trials must not need
# more.
EIGHT_TRIAL_REFINE_PEAK = 2_347_424


def test_a_16_trial_refinement_holds_the_8_trial_peak_memory():
    # ofdma_sweep's scene at its mu = 50 %, 0 dB point, refined as
    # _cube_trials refines one batch of 16 trials.
    config = ofdma_scenario(
        ofdma={"n_subcarriers": 32, "n_symbols": 16,
               "subcarrier_spacing_hz": 62.5e6, "carrier_hz": 60e9,
               "cp_samples": 16, "geometry": {"n_rx": 4}},
        scene={"scatterers": [{"delay_s": 2.85e-9, "doppler_hz": 0.0,
                               "angle_rad": -0.2, "amplitude": [1.0, 0.0]}]},
        sweep={"mu_percent": [50], "snr_db": [0]}, trials=16, seed=7)
    point = SweepPoint(index=0, mu_percent=50.0, snr_db=0.0)
    bound = runner._bind(config, point)
    cube, trials = bound.cube, range(16)
    rngs, payload = runner._trial_payloads(
        config, [(point.index, t) for t in trials], cube.capacity)
    symbols = cube.symbols(payload)
    data = runner._synthesize(
        config.scene, bound.wave.cube_shape, bound.links, symbols,
        cube.response, trials, rngs, [bound.noise_variance] * 16)
    _, coarse, radar_x = estim._detect(data, symbols, cube.radar, cube.demod,
                                       cube.layout, config.estimator)
    _, _, full = estim._demodulate(data, symbols, cube.radar, cube.response,
                                   coarse, config.symbol_order, cube.dpsk)
    x = estim._demodulated(data, full, cube.radar, radar_x, cube.demod)
    fine = config.estimator.refined(config.refine_factor)
    estim._refined(x, cube.layout, fine)  # builds the cached DFT tables
    tracemalloc.start()
    try:
        estim._refined(x, cube.layout, fine)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= EIGHT_TRIAL_REFINE_PEAK


A5_SWEEP = {"mu_percent": [50, 100], "snr_db": [0, 5, 10, 15, 20]}
A5_SCENES = {
    "pmcw": lambda: pmcw_scenario(
        pmcw={"code_length": 32, "n_frames": 16, "chip_time_s": 1e-9,
              "carrier_hz": 60e9, "geometry": {"n_rx": 4}},
        code_kind="random",
        scene={"scatterers": [{"delay_s": 9e-9, "doppler_hz": 5273437.5,
                               "angle_rad": 0.3, "amplitude": [1.0, 0.0]}]},
        sweep=A5_SWEEP, trials=32, seed=7),
    "ofdma": lambda: ofdma_scenario(
        ofdma={"n_subcarriers": 32, "n_symbols": 16,
               "subcarrier_spacing_hz": 62.5e6, "carrier_hz": 60e9,
               "cp_samples": 16, "geometry": {"n_rx": 4}},
        scene={"scatterers": [{"delay_s": 2.85e-9, "doppler_hz": 0.0,
                               "angle_rad": -0.2, "amplitude": [1.0, 0.0]}]},
        sweep=A5_SWEEP, trials=32, seed=7),
}


@pytest.mark.parametrize("mu", [50.0, 100.0])
@pytest.mark.parametrize("waveform", sorted(A5_SCENES))
def test_a_batch_peaks_under_three_and_a_half_cubes(waveform, mu):
    # The benchmark sweeps' scenes at 0 dB: the first batch the runner
    # cuts, 32 trials, holds at its traced peak (tracemalloc, numpy 2.4)
    # at most 3.5 times its receive cubes' bytes, as its stages write in
    # place where they can.
    config = A5_SCENES[waveform]()
    point = SweepPoint(index=0, mu_percent=mu, snr_db=0.0)
    bound = runner._bind(config, point)
    batch = runner._trial_tasks(config, [point], [bound])[0][0]
    assert len(batch) == 32
    cube_bytes = len(batch) * np.prod(bound.wave.cube_shape) * 16
    runner._cube_trials(batch)  # builds the cached DFT tables
    tracemalloc.start()
    try:
        runner._cube_trials(batch)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.5 * cube_bytes


@pytest.mark.parametrize("waveform, bound", [("pmcw", 1.3), ("ofdma", 1.8)])
def test_synthesis_peak_does_not_grow_with_scatterers(waveform, bound):
    # Every scatterer, the first included, is added into the zeroed stack
    # one CPI at a time: on a 32-trial batch of a5's scene with three
    # scatterers at mu = 50 %, 0 dB, synthesis holds the stack and a few
    # CPI-sized temporaries (tracemalloc, numpy 2.4), where a batch-sized
    # product per scatterer peaked at 2.30 (PMCW) and 2.54 (OFDMA) stacks.
    config = A5_SCENES[waveform]()
    first = config.scene.scatterers[0]
    config = replace(config, scene=replace(config.scene, scatterers=[
        first, replace(first, delay_s=first.delay_s / 3, angle_rad=-0.1),
        replace(first, delay_s=first.delay_s / 2, amplitude=0.5j)]))
    point = SweepPoint(index=0, mu_percent=50.0, snr_db=0.0)
    bound_point = runner._bind(config, point)
    cube, trials = bound_point.cube, range(32)
    rngs, payload = runner._trial_payloads(
        config, [(point.index, t) for t in trials], cube.capacity)
    symbols = cube.symbols(payload)
    tracemalloc.start()
    try:
        data = runner._synthesize(
            config.scene, bound_point.wave.cube_shape, bound_point.links,
            symbols, cube.response, trials, rngs,
            [bound_point.noise_variance] * 32)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound * data.nbytes


@pytest.mark.parametrize("config, repeats", [
    (golay_fading_scenario("swerling0", snr_db=10), True),
    (golay_scenario(sweep={"snr_db": [0, 20]}, trials=6,
                    estimator={"max_targets": 2, "interpolate": True,
                               "angle_pad": 2, "threshold_db": -30}), True),
    # One all-radar frame: nothing to pad or zoom; the angle pad decides.
    (pmcw_scenario(pmcw={"code_length": 31, "n_frames": 1,
                         "chip_time_s": 1e-9, "carrier_hz": 60e9,
                         "mu_percent": 100, "geometry": {"n_rx": 2}},
                   sweep={"snr_db": [5, 15]}, refine_factor=1, trials=4),
     True),
    (pmcw_scenario(pmcw={"code_length": 31, "n_frames": 1,
                         "chip_time_s": 1e-9, "carrier_hz": 60e9,
                         "mu_percent": 100, "geometry": {"n_rx": 2}},
                   sweep={"snr_db": [5, 15]}, trials=4), False),
    (pmcw_scenario(pmcw={"code_length": 31, "n_frames": 8,
                         "chip_time_s": 1e-9, "carrier_hz": 60e9,
                         "mu_percent": 100, "geometry": {"n_rx": 2}},
                   sweep={"snr_db": [5, 15]}, refine_factor=1, trials=4),
     False),
    (ofdma_scenario(sweep={"snr_db": [5, 15]}, refine_factor=1, trials=4),
     False),
], ids=["golay", "golay-interpolated", "pmcw-one-frame-unpadded",
        "pmcw-one-frame-angle-padded", "pmcw-all-radar", "ofdma"])
def test_every_batch_is_refined(tmp_path, config, repeats):
    # Every waveform refines every batch.  Where every slot is radar, no
    # map axis is padded and the angle search is unchanged, refinement
    # repeats detection, so the refined columns are the coarse ones.
    with mock.patch.object(runner, "_cube_trials",
                           wraps=runner._cube_trials) as batches, \
            mock.patch.object(runner, "_refined",
                              wraps=runner._refined) as refined:
        run_scenario(config, out_dir=tmp_path)
    assert batches.call_count > 0
    assert refined.call_count == batches.call_count
    if repeats:
        header, rows = read_csv_rows(tmp_path / "estimates.csv")
        assert rows
        for axis in ("delay_s", "doppler_hz", "angle_rad"):
            coarse = header.index(f"est_{axis}")
            fine = header.index(f"refined_{axis}")
            assert [r[fine] for r in rows] == [r[coarse] for r in rows]


def test_report_json_contents(tmp_path):
    config = pmcw_scenario()
    report = run_scenario(config, out_dir=tmp_path)
    on_disk = json.loads((tmp_path / "report.json").read_text())
    assert on_disk["config_hash"] == config_hash(config)
    assert on_disk["seed"] == 11
    assert on_disk["waveform"] == "pmcw"
    assert on_disk["wall_clock_s"] >= 0
    assert set(CSV_NAMES) <= set(on_disk["outputs"])
    assert len(on_disk["points"]) == 1
    assert on_disk["points"][0]["snr_db"] is None
    assert report.outputs[-1] == "report.json"


def test_report_json_names_its_workers_and_versions(tmp_path):
    config = pmcw_scenario(trials=2)
    saved = {}
    for workers in (1, 2):
        run_scenario(config, out_dir=tmp_path / str(workers), workers=workers)
        saved[workers] = json.loads(
            (tmp_path / str(workers) / "report.json").read_text())
    assert saved[1].keys() == saved[2].keys()
    assert [saved[w]["workers"] for w in (1, 2)] == [1, 2]
    assert saved[1]["versions"] == {
        "jrcsim": jrcsim.__version__, "numpy": np.__version__,
        "python": platform.python_version()}
    assert saved[1]["points"] == saved[2]["points"]


def test_out_dir_defaults_to_config_value(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    config = pmcw_scenario(out_dir="results_here", trials=1)
    run_scenario(config)
    assert (tmp_path / "results_here" / "rmse_vs_snr.csv").exists()


def test_out_dir_is_created_before_any_trial(tmp_path, monkeypatch):
    blocker = tmp_path / "blocker"
    blocker.write_text("")

    def no_trials(*args):
        raise AssertionError("a trial ran before the output directory "
                             "was created")

    monkeypatch.setattr(runner, "_cube_trials", no_trials)
    with pytest.raises(NotADirectoryError):
        run_scenario(pmcw_scenario(), out_dir=blocker / "out")
