"""Sweep orchestration: determinism, worker independence, output tables."""

import json
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jrcsim import runner
from jrcsim.channel import Scene
from jrcsim.config import config_hash, parse_config
from jrcsim.estim import (ofdma_decode, ofdma_range_doppler_angle,
                          ofdma_refine, pmcw_decode, pmcw_range_doppler,
                          pmcw_refine)
from jrcsim.ofdma import build_symbol_grid, grid_capacity_bits, \
    ofdma_receive_cube
from jrcsim.perf import ambiguity_function, peak_sidelobe_ratio
from jrcsim.pmcw import payload_capacity_bits, pmcw_frame_symbols, \
    pmcw_receive_cube, pmcw_schedule
from jrcsim.runner import (SweepPoint, TrialOutcome, _noise_variance,
                           run_scenario)
from jrcsim.tensorio import read_csv_rows

CSV_NAMES = ("rmse_vs_snr.csv", "ber_vs_snr.csv", "estimates.csv")


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


@pytest.mark.parametrize("config", [
    pmcw_scenario(sweep={"snr_db": [5, 15]}, trials=4),
    ofdma_scenario(sweep={"snr_db": [5, 15]}, trials=4),
    pmcw_scenario(
        scene={"scatterers": [
            {"delay_s": 5e-9, "doppler_hz": 2e6, "angle_rad": 0.2,
             "amplitude": [1.0, 0.0]},
            {"delay_s": 17e-9, "doppler_hz": -9e6, "angle_rad": -0.4,
             "amplitude": [0.0, 0.6]}]},
        estimator={"max_targets": 2, "interpolate": True},
        sweep={"snr_db": [0, 10]}, trials=4),
], ids=["pmcw", "ofdma", "pmcw-two-targets-interpolated"])
def test_worker_count_does_not_change_outputs(tmp_path, config):
    # Inline, each point's trials run as one stacked batch; the pool runs
    # every trial as a batch of one.
    run_scenario(config, out_dir=tmp_path / "serial", workers=1)
    run_scenario(config, out_dir=tmp_path / "pool", workers=2)
    assert read_bytes(tmp_path / "serial") == read_bytes(tmp_path / "pool")


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
    amps = np.array([2.0 + 0.0j])
    assert _noise_variance(config, null_point, amps) == 0.5
    swept = SweepPoint(index=0, mu_percent=None, snr_db=10.0)
    assert _noise_variance(config, swept, amps) == pytest.approx(0.4)


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
        noisy, noisy.waveform_config, null_point,
        np.zeros(1, dtype=complex)) == pytest.approx(noisy.false_alarm)


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
    _, est_rows = read_csv_rows(tmp_path / "estimates.csv")
    assert len(est_rows) == 4  # two scatterers, two trials
    assert report.points[0].n_failures == 0


def test_golay_delay_outside_guard_fails_trial(tmp_path):
    config = parse_config({
        "version": 1,
        "waveform": "golay",
        "golay": {"log2_length": 4, "guard_samples": 8,
                  "sample_time_s": 1e-9},
        "scene": {"scatterers": [{"delay_s": 20e-9,
                                  "amplitude": [1.0, 0.0]}]},
        "trials": 1,
    })
    report = run_scenario(config, out_dir=tmp_path)
    assert report.points[0].n_failures == 1
    assert "guard window" in report.points[0].example_failure


def test_programming_error_in_trial_propagates(tmp_path, monkeypatch):
    # Only ValueError (domain errors) counts as a failed trial; a bug such
    # as a TypeError must stop the run instead of being tallied.
    def broken_trials(*args):
        raise TypeError("broken trial")

    monkeypatch.setitem(runner._POINT_FNS, "pmcw", broken_trials)
    with pytest.raises(TypeError, match="broken trial"):
        run_scenario(pmcw_scenario(trials=1), out_dir=tmp_path)


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
    wavecfg = config.waveform_config
    x = runner._point_waveform_samples(config, wavecfg, point)
    lags = np.arange(-(x.size - 1), x.size, dtype=float)
    cut = ambiguity_function(x, lags, np.zeros(1)).magnitude[:, 0]
    assert runner._point_psl_db(config, wavecfg, point) == pytest.approx(
        peak_sidelobe_ratio(cut), abs=1e-9)


# ---------------------------------------------------------------------------
# Stacked trial batches against the per-trial pipeline
# ---------------------------------------------------------------------------


def reference_trial(config, point, trial):
    """One trial through the public single-CPI stages, in the order the
    runner called them before trials were stacked into batches."""
    rng = np.random.default_rng([config.seed, point.index, trial])
    try:
        wavecfg = runner._effective_config(config, point)
        order = config.symbol_order
        refined_est = config.estimator.refined(config.refine_factor)
        if config.waveform == "pmcw":
            sched = pmcw_schedule(wavecfg)
            code = runner.build_code(config, wavecfg)
            payload = rng.integers(
                0, 2, payload_capacity_bits(sched, order)).astype(np.int64)
            symbols = pmcw_frame_symbols(sched, payload, order)
            amps = runner._nominal_amplitudes(config, wavecfg)
            scene = replace(config.scene, noise_variance=_noise_variance(
                config, point, amps))
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
            amps = runner._nominal_amplitudes(config, wavecfg)
            scene = replace(config.scene, noise_variance=_noise_variance(
                config, point, amps))
            cube = ofdma_receive_cube(scene, wavecfg, grid, rng=rng,
                                      cpi_index=trial)
            coarse = ofdma_range_doppler_angle(cube, grid, config.estimator)
            bits_hat, _, full = ofdma_decode(cube, grid, coarse.targets)
            refined = ofdma_refine(cube, full, refined_est)
            scales = (wavecfg.sample_time,
                      1.0 / (wavecfg.n_symbols * wavecfg.symbol_duration),
                      1.0 / max(wavecfg.geometry.n_rx, 1))
        outcome = TrialOutcome(point=point.index, trial=trial)
        truths = runner._true_parameters(config, wavecfg)
        outcome.true_delays, outcome.true_dopplers, outcome.true_angles = (
            [float(v) for v in axis] for axis in truths)
        outcome.est_delays, outcome.est_dopplers, outcome.est_angles = \
            runner._nearest(coarse.targets, truths, scales)
        outcome.ref_delays, outcome.ref_dopplers, outcome.ref_angles = \
            runner._nearest(refined.targets, truths, scales)
        outcome.n_bits = int(payload.size)
        outcome.bit_errors = int(np.sum(bits_hat != payload))
    except ValueError as exc:
        return TrialOutcome(point=point.index, trial=trial, failed=True,
                            message=f"{type(exc).__name__}: {exc}")
    return outcome


def exact(outcome):
    """Every field of an outcome, floats by their exact repr."""
    return repr(vars(outcome))


@settings(max_examples=60, deadline=None)
@given(waveform=st.sampled_from(["pmcw", "ofdma"]),
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
            delay = int(rng.integers(0, 31)) * 1e-9
            doppler = rng.uniform(-0.5, 0.5) / 31e-9
        else:  # 16 subcarriers 62.5 MHz apart, 8-sample cyclic prefix
            delay = rng.uniform(0.0, 8.0) * 1e-9
            doppler = rng.uniform(-0.5, 0.5) * 62.5e6
        scatterers.append({
            "delay_s": delay, "doppler_hz": doppler,
            "angle_rad": rng.uniform(-0.9, 0.9), "fading": fading,
            "amplitude": [0.8 ** q * np.cos(phase), 0.8 ** q * np.sin(phase)]})
    make = pmcw_scenario if waveform == "pmcw" else ofdma_scenario
    config = make(
        scene={"scatterers": scatterers,
               "seed": int(rng.integers(0, 2 ** 31))},
        estimator={"max_targets": max_targets, "interpolate": interpolate,
                   "range_pad": range_pad, "doppler_pad": doppler_pad,
                   "angle_pad": angle_pad},
        sweep={"mu_percent": [mu], "snr_db": [snr_db]},
        trials=5, seed=int(rng.integers(0, 2 ** 31)))
    point = SweepPoint(index=1, mu_percent=float(mu), snr_db=snr_db)
    batch_fn = runner._POINT_FNS[waveform]
    with mock.patch.dict(runner._POINT_FNS,
                         {waveform: mock.Mock(wraps=batch_fn)}) as fns:
        batch = runner._run_point_trials(config, point, range(config.trials))
        batches_run = fns[waveform].call_count
    assert [exact(o) for o in batch] == [
        exact(reference_trial(config, point, t))
        for t in range(config.trials)]
    # The batch falls back to one trial at a time only when a trial fails
    # on its own; a fallback that repairs a batch error would hide it.
    assert (batches_run > 1) == any(o.failed for o in batch)


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


def test_large_trial_counts_run_in_several_batches(monkeypatch):
    config = pmcw_scenario(sweep={"snr_db": [10]}, trials=5)
    point = SweepPoint(index=0, mu_percent=None, snr_db=10.0)
    whole = runner._run_point_trials(config, point, range(5))
    sizes = []
    pmcw_trials = runner._POINT_FNS["pmcw"]

    def counted(config, point, trials):
        sizes.append(len(trials))
        return pmcw_trials(config, point, trials)

    monkeypatch.setitem(runner._POINT_FNS, "pmcw", counted)
    monkeypatch.setattr(runner, "_BATCH_CELLS", 2 * 8 * 31 * 2)
    split = runner._run_point_trials(config, point, range(5))
    assert sizes == [2, 2, 1]
    assert [exact(o) for o in split] == [exact(o) for o in whole]


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


def test_tradeoff_skipped_without_weights_or_comm(tmp_path):
    run_scenario(pmcw_scenario(sweep={"snr_db": [10]}), out_dir=tmp_path)
    assert not (tmp_path / "tradeoff.csv").exists()
    config = pmcw_scenario(sweep={"mu_percent": [100], "snr_db": [10],
                                  "weights": [0.5]})
    run_scenario(config, out_dir=tmp_path / "all_radar")
    assert not (tmp_path / "all_radar" / "tradeoff.csv").exists()


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


def test_out_dir_defaults_to_config_value(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    config = pmcw_scenario(out_dir="results_here", trials=1)
    run_scenario(config)
    assert (tmp_path / "results_here" / "rmse_vs_snr.csv").exists()
