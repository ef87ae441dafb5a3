"""Sweep orchestration: determinism, worker independence, output tables."""

import json

import numpy as np
import pytest

from jrcsim import runner
from jrcsim.config import config_hash, parse_config
from jrcsim.runner import SweepPoint, _noise_variance, run_scenario
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


def test_worker_count_does_not_change_outputs(tmp_path):
    config = ofdma_scenario(sweep={"snr_db": [5, 15]}, trials=4)
    run_scenario(config, out_dir=tmp_path / "serial", workers=1)
    run_scenario(config, out_dir=tmp_path / "pool", workers=2)
    assert read_bytes(tmp_path / "serial") == read_bytes(tmp_path / "pool")


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


def test_snr_sweep_with_empty_scene_reports_failures(tmp_path):
    config = pmcw_scenario(scene={"scatterers": []},
                           sweep={"snr_db": [10]}, trials=2)
    report = run_scenario(config, out_dir=tmp_path)
    point = report.points[0]
    assert point.n_failures == 2
    assert "nonzero scatterer" in point.example_failure
    assert np.isnan(point.p_detect)
    _, rows = read_csv_rows(tmp_path / "rmse_vs_snr.csv")
    assert rows[0][3] == "2"  # n_failures column
    _, est_rows = read_csv_rows(tmp_path / "estimates.csv")
    assert est_rows == []


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
    def broken_trial(*args):
        raise TypeError("broken trial")

    monkeypatch.setitem(runner._TRIAL_FNS, "pmcw", broken_trial)
    with pytest.raises(TypeError, match="broken trial"):
        run_scenario(pmcw_scenario(trials=1), out_dir=tmp_path)


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
