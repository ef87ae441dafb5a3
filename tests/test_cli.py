"""Command-line interface: subcommands, exit codes, output-dir resolution."""

import dataclasses
import json
import math
import warnings

import numpy as np
import pytest

from jrcsim import runner
from jrcsim.alloc import AllocationProblem, write_allocation_csv
from jrcsim.cli import main
from jrcsim.config import load_config
from jrcsim.ofdma import DelayAliasWarning, IsiWarning
from jrcsim.perf import ambiguity_function, default_af_grids
from jrcsim.tensorio import read_csv_rows, read_tensor


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    monkeypatch.delenv("JRCSIM_OUT_DIR", raising=False)


def write_scenario(path, **overrides):
    data = {
        "version": 1,
        "waveform": "pmcw",
        "pmcw": {"code_length": 31, "n_frames": 8, "chip_time_s": 1e-9,
                 "carrier_hz": 60e9, "mu_percent": 50,
                 "geometry": {"n_rx": 2}},
        "scene": {"scatterers": [{"delay_s": 5e-9, "amplitude": [1.0, 0.0]}]},
        "trials": 2,
        "seed": 3,
    }
    data.update(overrides)
    path.write_text(json.dumps(data))
    return path


def write_problem(path):
    problem = AllocationProblem(
        radar_gains=np.array([0.5, 0.5, 5.0]),
        comm_gains=np.array([1.0, 1.0, 1.0]),
        noise_powers=np.array([1.0, 1.0, 1.0]),
        rate_floors=np.array([1.0, 2.0, 0.0]),
        total_power=1.0)
    write_allocation_csv(path, problem)
    return path


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------


def test_validate_ok(tmp_path, capsys):
    cfg = write_scenario(tmp_path / "s.json")
    assert main(["validate", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert out.startswith(f"valid: {cfg} hash=")
    assert len(out.strip().rsplit("=", 1)[1]) == 16


def test_validate_reports_each_error_on_its_own_line(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({
        "version": 2,
        "waveform": "pmcw",
        "pmcw": {"code_length": 31, "n_frames": 8, "chip_time_s": 1e-9,
                 "carrier_hz": 60e9},
        "bogus": 1,
    }))
    assert main(["validate", str(cfg)]) == 2
    err = capsys.readouterr().err
    lines = err.splitlines()
    assert lines[0] == f"error: invalid config {cfg}:"
    assert "  $.version: expected 1, got 2" in lines
    assert "  $.bogus: unknown field" in lines


def test_validate_rejects_delay_beyond_the_code(tmp_path, capsys):
    cfg = write_scenario(tmp_path / "far.json", scene={"scatterers": [
        {"delay_s": 31e-9, "amplitude": [1.0, 0.0]}]})
    assert main(["validate", str(cfg)]) == 2
    assert "  $: scatterer 0 delay 3.1e-08 s falls on chip 31, outside the " \
        "31-chip code" in capsys.readouterr().err.splitlines()


@pytest.mark.parametrize("overrides, message", [
    ({"pmcw": {"code_length": 31, "n_frames": 8, "chip_time_s": 1e-9,
               "carrier_hz": 60e9, "geometry": {"n_tx": 2}}},
     "  $.pmcw.geometry: n_tx must be 1"),
    ({"scene": {"scatterers": [{"delay_s": 5e-9, "departure_rad": 0.2}]}},
     "  $.scene.scatterers[0].departure_rad: unknown field"),
])
def test_validate_rejects_transmit_array_settings(tmp_path, capsys,
                                                  overrides, message):
    cfg = write_scenario(tmp_path / "mimo.json", **overrides)
    assert main(["validate", str(cfg)]) == 2
    assert any(line.startswith(message)
               for line in capsys.readouterr().err.splitlines())


def test_validate_missing_file(tmp_path, capsys):
    assert main(["validate", str(tmp_path / "absent.json")]) == 2
    assert "no such config file" in capsys.readouterr().err


def test_validate_json_syntax_error(tmp_path, capsys):
    cfg = tmp_path / "syntax.json"
    cfg.write_text("{\n  broken\n}")
    assert main(["validate", str(cfg)]) == 2
    assert "line 2" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["validate", "run", "af"])
def test_unreadable_config_is_an_error_not_a_traceback(tmp_path, capsys,
                                                       command):
    undecodable = tmp_path / "latin1.json"
    undecodable.write_bytes(b'{"version": 1, "waveform": "pm\xe7w"}')
    assert main([command, str(undecodable)]) == 2
    err = capsys.readouterr().err
    assert f"error: invalid config {undecodable}:" in err
    assert "not valid UTF-8" in err
    assert main([command, str(tmp_path)]) == 2
    assert f"error: cannot read config file {tmp_path}" in \
        capsys.readouterr().err


def test_validate_rejects_nan_literal(tmp_path, capsys):
    cfg = write_scenario(tmp_path / "nan.json")
    cfg.write_text(cfg.read_text().replace("1e-09", "NaN"))
    assert main(["validate", str(cfg)]) == 2
    assert "$.pmcw.chip_time_s: expected a finite number" in \
        capsys.readouterr().err


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------


def test_run_writes_outputs(tmp_path, capsys):
    cfg = write_scenario(tmp_path / "s.json")
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out-dir", str(out)]) == 0
    for name in ("rmse_vs_snr.csv", "ber_vs_snr.csv", "estimates.csv",
                 "report.json"):
        assert (out / name).exists()
    stdout = capsys.readouterr().out
    assert stdout.startswith("run ")
    assert "mu=50.0 snr_db=scene trials=2 failures=0" in stdout
    assert "rmse_delay_s=0.0" in stdout
    assert "ber=0.0" in stdout


def test_run_and_af_on_a_golay_sounding(tmp_path, capsys):
    # The third waveform end to end: a 64-sample pair behind 16 guard
    # samples finds its one 2 ns scatterer exactly in every trial, and a
    # sounding has no Doppler or angle to estimate.
    cfg = tmp_path / "g.json"
    cfg.write_text(json.dumps({
        "version": 1, "waveform": "golay",
        "golay": {"log2_length": 6, "guard_samples": 16,
                  "sample_time_s": 1e-9},
        "scene": {"scatterers": [{"delay_s": 2e-9,
                                  "amplitude": [1.0, 0.0]}]},
        "sweep": {"snr_db": [0, 10]}, "trials": 3}))
    run, af = tmp_path / "run", tmp_path / "af"
    assert main(["run", str(cfg), "--out-dir", str(run)]) == 0
    assert main(["af", str(cfg), "--out-dir", str(af)]) == 0
    for name in ("af_surface.csv", "af_surface.jrct", "af_delay_cut.csv",
                 "af_doppler_cut.csv"):
        assert (af / name).exists()
    header, rows = read_csv_rows(run / "estimates.csv")
    assert len(rows) == 6
    column = {name: [float(r[header.index(name)]) for r in rows]
              for name in header}
    for name in ("est_delay_s", "refined_delay_s"):
        assert column[name] == column["true_delay_s"] == [2e-9] * 6
    for axis in ("doppler_hz", "angle_rad"):
        for kind in ("true", "est", "refined"):
            assert all(map(math.isnan, column[f"{kind}_{axis}"]))


def test_run_seed_and_trials_overrides(tmp_path):
    cfg = write_scenario(tmp_path / "s.json")
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out-dir", str(out),
                 "--seed", "99", "--trials", "5"]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["seed"] == 99
    assert report["points"][0]["n_trials"] == 5


def test_run_determinism_across_invocations(tmp_path):
    cfg = write_scenario(tmp_path / "s.json",
                         sweep={"snr_db": [10]}, trials=3)
    assert main(["run", str(cfg), "--out-dir", str(tmp_path / "a")]) == 0
    assert main(["run", str(cfg), "--out-dir", str(tmp_path / "b")]) == 0
    for name in ("rmse_vs_snr.csv", "ber_vs_snr.csv", "estimates.csv"):
        assert (tmp_path / "a" / name).read_bytes() == \
            (tmp_path / "b" / name).read_bytes()


def test_run_invalid_config_exits_2(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"version": 1, "waveform": "pmcw"}))
    assert main(["run", str(cfg)]) == 2
    assert "invalid config" in capsys.readouterr().err


def test_run_underivable_amplitude_exits_2_before_any_table(tmp_path,
                                                             capsys):
    # Without an amplitude, a scatterer at zero delay has no link budget.
    # The file is valid, and jrcsim af needs no amplitude, but jrcsim run
    # binds every sweep point before its first trial and stops there.
    cfg = write_scenario(tmp_path / "s.json",
                         scene={"scatterers": [{"delay_s": 0.0}]})
    assert main(["validate", str(cfg)]) == 0
    assert main(["af", str(cfg), "--out-dir", str(tmp_path / "af")]) == 0
    capsys.readouterr()
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out-dir", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == (
        f"error: invalid config {cfg}:\n"
        "  $.scene.scatterers[0]: cannot derive amplitude for zero delay; "
        "give one explicitly\n")
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("snr_db", [3100, -3200, -3300])
def test_run_snr_without_a_finite_noise_variance_exits_2(tmp_path, capsys,
                                                         snr_db):
    # sigma^2 = 1 / 10^(snr / 10): 10^310 overflows, 10^-330 is 0, and at
    # -3200 dB the quotient is inf.  Each names its sweep entry, and the
    # run stops before its first trial.
    cfg = write_scenario(tmp_path / "s.json",
                         sweep={"snr_db": [10, snr_db]})
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out-dir", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == (
        f"error: invalid config {cfg}:\n"
        f"  $.sweep.snr_db[1]: {float(snr_db)!r} dB at signal power 1.0 "
        "leaves no finite, positive noise variance\n")
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("flags, message", [
    (["--seed", "-1"], "seed must be >= 0"),
    (["--trials", "0"], "trials must be >= 1"),
    (["--workers", "0"], "workers must be >= 1"),
    (["--workers", "-1"], "workers must be >= 1"),
], ids=["seed-negative", "trials-zero", "workers-zero", "workers-negative"])
def test_run_rejects_bad_overrides_before_writing(tmp_path, capsys, flags,
                                                  message):
    cfg = write_scenario(tmp_path / "s.json")
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out-dir", str(out), *flags]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""
    assert not out.exists()


def test_run_workers_flag_matches_serial(tmp_path):
    cfg = write_scenario(tmp_path / "s.json",
                         sweep={"snr_db": [5]}, trials=4)
    assert main(["run", str(cfg), "--out-dir", str(tmp_path / "serial"),
                 "--workers", "1"]) == 0
    assert main(["run", str(cfg), "--out-dir", str(tmp_path / "pool"),
                 "--workers", "2"]) == 0
    assert (tmp_path / "serial" / "estimates.csv").read_bytes() == \
        (tmp_path / "pool" / "estimates.csv").read_bytes()


def test_run_overrides_warn_once(tmp_path):
    # A 9 ns scatterer reaches past the 8 ns cyclic prefix and the 8 ns
    # pilot delay window at mu = 50: --seed and --trials must not
    # validate the config, and so warn, a second time.
    cfg = tmp_path / "s.json"
    cfg.write_text(json.dumps({
        "version": 1, "waveform": "ofdma",
        "ofdma": {"n_subcarriers": 32, "n_symbols": 16,
                  "subcarrier_spacing_hz": 62.5e6, "carrier_hz": 60e9,
                  "cp_samples": 16, "mu_percent": 50},
        "scene": {"scatterers": [{"delay_s": 9e-9,
                                  "amplitude": [1.0, 0.0]}]}}))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["run", str(cfg), "--out-dir", str(tmp_path / "out"),
                     "--seed", "3", "--trials", "2"]) == 0
    assert [w.category for w in caught] == [IsiWarning, DelayAliasWarning]
    assert not any(w.filename == dataclasses.__file__ for w in caught)


# ---------------------------------------------------------------------------
# out-dir precedence: flag, then environment, then config
# ---------------------------------------------------------------------------


def test_out_dir_flag_beats_env_and_config(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = write_scenario(tmp_path / "s.json", out_dir="from_config")
    monkeypatch.setenv("JRCSIM_OUT_DIR", str(tmp_path / "from_env"))
    assert main(["run", str(cfg), "--out-dir",
                 str(tmp_path / "from_flag")]) == 0
    assert (tmp_path / "from_flag" / "rmse_vs_snr.csv").exists()
    assert not (tmp_path / "from_env").exists()
    assert not (tmp_path / "from_config").exists()


def test_out_dir_env_beats_config(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = write_scenario(tmp_path / "s.json", out_dir="from_config")
    monkeypatch.setenv("JRCSIM_OUT_DIR", str(tmp_path / "from_env"))
    assert main(["run", str(cfg)]) == 0
    assert (tmp_path / "from_env" / "rmse_vs_snr.csv").exists()
    assert not (tmp_path / "from_config").exists()


def test_out_dir_config_fallback(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = write_scenario(tmp_path / "s.json", out_dir="from_config")
    assert main(["run", str(cfg)]) == 0
    assert (tmp_path / "from_config" / "rmse_vs_snr.csv").exists()


# ---------------------------------------------------------------------------
# af
# ---------------------------------------------------------------------------


def test_af_exports_surface_and_cuts(tmp_path, capsys):
    cfg = write_scenario(tmp_path / "s.json")
    out = tmp_path / "af"
    assert main(["af", str(cfg), "--out-dir", str(out),
                 "--max-lag", "16", "--n-doppler", "5"]) == 0
    stdout = capsys.readouterr().out
    assert "delay-cut PSL:" in stdout
    surface = read_tensor(out / "af_surface.jrct")
    assert surface.shape == (33, 5)
    header, rows = read_csv_rows(out / "af_delay_cut.csv")
    assert header == ["delay_s", "magnitude"]
    mags = [float(r[1]) for r in rows]
    assert max(mags) == pytest.approx(1.0, abs=1e-12)
    assert len(rows) == 33
    _, dop_rows = read_csv_rows(out / "af_doppler_cut.csv")
    assert len(dop_rows) == 5
    _, grid_rows = read_csv_rows(out / "af_surface.csv")
    assert len(grid_rows) == 33


def test_af_csv_reads_back_as_the_centrosymmetric_tensor(tmp_path, capsys):
    cfg = write_scenario(tmp_path / "s.json")
    out = tmp_path / "af"
    assert main(["af", str(cfg), "--out-dir", str(out),
                 "--max-lag", "40", "--n-doppler", "9"]) == 0
    surface = read_tensor(out / "af_surface.jrct")
    header, rows = read_csv_rows(out / "af_surface.csv")
    table = np.array(rows, dtype=float)
    dopplers = np.array([float(h.removeprefix("doppler_"))
                         for h in header[1:]])
    assert np.array_equal(table[:, 0], -table[::-1, 0])
    assert np.array_equal(dopplers, -dopplers[::-1])
    assert np.array_equal(table[:, 1:], surface.real)
    assert not surface.imag.any()
    off = dopplers != 0
    assert off.sum() == 8
    assert np.array_equal(surface.real[:, off],
                          surface.real[::-1, ::-1][:, off])


def test_af_tensor_is_an_npy_file_of_the_csv_surface(tmp_path, capsys):
    cfg = write_scenario(tmp_path / "s.json")
    out = tmp_path / "af"
    assert main(["af", str(cfg), "--out-dir", str(out),
                 "--max-lag", "12", "--n-doppler", "7"]) == 0
    stored = np.load(out / "af_surface.jrct")
    _, rows = read_csv_rows(out / "af_surface.csv")
    assert stored.dtype == np.float64
    assert np.array_equal(stored, np.array(rows, dtype=float)[:, 1:])
    assert np.array_equal(stored, read_tensor(out / "af_surface.jrct").real)


def repr_csv(header, columns) -> bytes:
    """A CSV table as a per-cell ``repr`` join of its float columns."""
    return "".join(",".join(row) + "\r\n" for row in [header, *zip(
        *[[repr(v) for v in np.asarray(c, float).tolist()]
          for c in columns])]).encode()


def test_af_full_window_writes_each_cell_as_its_repr(tmp_path, capsys):
    cfg = tmp_path / "ofdma.json"
    cfg.write_text(json.dumps({
        "version": 1, "waveform": "ofdma", "seed": 5,
        "ofdma": {"n_subcarriers": 16, "n_symbols": 16,
                  "subcarrier_spacing_hz": 62.5e6, "carrier_hz": 60e9,
                  "cp_samples": 0, "geometry": {"n_rx": 1}},
        "scene": {"scatterers": [{"delay_s": 0.0, "doppler_hz": 0.0}]}}))
    out = tmp_path / "af"
    assert main(["af", str(cfg), "--out-dir", str(out)]) == 0
    samples, rate = runner.scenario_waveform_samples(load_config(cfg))
    surface = ambiguity_function(samples, *default_af_grids(
        samples.size, rate, max_lag=None, n_doppler=65), rate)
    assert surface.magnitude.shape == (511, 65)
    dopplers = surface.dopplers_hz.tolist()
    assert (out / "af_surface.csv").read_bytes() == repr_csv(
        ["delay_s"] + [f"doppler_{f!r}" for f in dopplers],
        [surface.delays_s, *surface.magnitude.T])
    assert (out / "af_delay_cut.csv").read_bytes() == repr_csv(
        ["delay_s", "magnitude"], surface.zero_doppler_cut())
    assert (out / "af_doppler_cut.csv").read_bytes() == repr_csv(
        ["doppler_hz", "magnitude"], surface.zero_delay_cut())


@pytest.mark.parametrize("flags, message", [
    (["--max-lag", "-1"], "max_lag"),
    (["--n-doppler", "0"], "n_doppler"),
    (["--n-doppler", "4"], "n_doppler"),
    # 31 chips x 8 frames: lag 248 is past the waveform's last sample.
    (["--max-lag", "248"], "max_lag must lie in [0, 248)"),
])
def test_af_rejects_bad_grid_before_writing(tmp_path, capsys, flags,
                                            message):
    cfg = write_scenario(tmp_path / "s.json")
    out = tmp_path / "af"
    assert main(["af", str(cfg), "--out-dir", str(out), *flags]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert not out.exists()


def test_af_single_doppler_row_is_zero_doppler(tmp_path, capsys):
    cfg = write_scenario(tmp_path / "s.json")
    out = tmp_path / "af"
    assert main(["af", str(cfg), "--out-dir", str(out),
                 "--n-doppler", "1"]) == 0
    header, _ = read_csv_rows(out / "af_surface.csv")
    assert header == ["delay_s", "doppler_0.0"]
    _, rows = read_csv_rows(out / "af_delay_cut.csv")
    assert max(float(r[1]) for r in rows) == pytest.approx(1.0, abs=1e-12)


def test_af_invalid_config_exits_2(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text("[]")
    assert main(["af", str(cfg)]) == 2
    assert "invalid config" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# alloc
# ---------------------------------------------------------------------------


def test_alloc_np_solves_and_writes(tmp_path, capsys):
    problem_csv = write_problem(tmp_path / "problem.csv")
    out = tmp_path / "alloc_out"
    assert main(["alloc", str(problem_csv), "--total-power", "10",
                 "--out-dir", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "p_detect:" in stdout and "feasible: True" in stdout
    header, rows = read_csv_rows(out / "allocation.csv")
    assert header == ["k", "g_k", "h_k", "n_k", "t_k", "P_k"]
    powers = [float(r[5]) for r in rows]
    assert powers == [1.0, 3.0, 6.0]


def test_alloc_waterfill_method(tmp_path, capsys):
    problem_csv = tmp_path / "two.csv"
    problem = AllocationProblem(
        radar_gains=np.array([1.0, 1.0 / 3.0]),
        comm_gains=np.array([1.0, 1.0]),
        noise_powers=np.array([1.0, 1.0]),
        rate_floors=np.array([0.0, 0.0]),
        total_power=1.0)
    write_allocation_csv(problem_csv, problem)
    out = tmp_path / "wf"
    assert main(["alloc", str(problem_csv), "--total-power", "4",
                 "--method", "waterfill", "--out-dir", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "water level: 4.0" in stdout
    _, rows = read_csv_rows(out / "allocation.csv")
    assert [float(r[5]) for r in rows] == [3.0, 1.0]


def test_alloc_missing_and_malformed_files(tmp_path, capsys):
    assert main(["alloc", str(tmp_path / "none.csv"),
                 "--total-power", "1"]) == 2
    assert "no such problem file" in capsys.readouterr().err
    bad = tmp_path / "bad.csv"
    bad.write_text("a,b\n1,2\n")
    assert main(["alloc", str(bad), "--total-power", "1"]) == 2
    assert "error:" in capsys.readouterr().err
    # Non-finite inputs are errors, not NaN powers or a traceback.
    good = write_problem(tmp_path / "problem.csv")
    text = good.read_text()
    nan_cell = tmp_path / "nan.csv"
    nan_cell.write_text(text.replace("\n1,0.5,", "\n1,nan,", 1))
    inf_cell = tmp_path / "inf.csv"
    inf_cell.write_text(text.replace("\n1,0.5,", "\n1,inf,", 1))
    out = tmp_path / "out"
    for argv in ([str(nan_cell), "--total-power", "20"],
                 [str(good), "--total-power", "nan"],
                 [str(good), "--total-power", "inf"],
                 [str(inf_cell), "--total-power", "20",
                  "--method", "waterfill"]):
        assert main(["alloc", *argv, "--out-dir", str(out)]) == 2
        assert "error:" in capsys.readouterr().err
    assert not out.exists()


def test_alloc_directory_as_problem_file_exits_2(tmp_path, capsys):
    assert main(["alloc", str(tmp_path), "--total-power", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(
        f"error: cannot read problem file {tmp_path}: ")
    assert captured.out == ""


def test_alloc_row_with_five_cells_exits_2(tmp_path, capsys):
    short = tmp_path / "short.csv"
    short.write_text("k,g_k,h_k,n_k,t_k,P_k\n0,1,1,1,0\n")
    out = tmp_path / "out"
    assert main(["alloc", str(short), "--total-power", "1",
                 "--out-dir", str(out)]) == 2
    assert capsys.readouterr().err == (
        "error: allocation CSV row 1 (0,1,1,1,0) has 5 cells, expected 6\n")
    assert not out.exists()


def test_alloc_index_not_numbering_each_row_once_exits_2(tmp_path, capsys):
    # k = 0, 0, 7.5 once came back renumbered 0, 1, 2 in allocation.csv.
    bad = tmp_path / "bad.csv"
    bad.write_text("k,g_k,h_k,n_k,t_k,P_k\n0,1,1,1,0,0\n0,2,1,1,0,0\n"
                   "7.5,3,1,1,0,0\n")
    out = tmp_path / "out"
    assert main(["alloc", str(bad), "--total-power", "1",
                 "--out-dir", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == (
        "error: allocation CSV row 2 (0,2,1,1,0,0) has k = 0, expected each "
        "of 0..2 once\n")
    assert captured.out == ""
    assert not out.exists()


def test_alloc_infeasible_reports_deficit(tmp_path, capsys):
    problem_csv = write_problem(tmp_path / "problem.csv")
    assert main(["alloc", str(problem_csv), "--total-power", "2",
                 "--out-dir", str(tmp_path / "o")]) == 0
    stdout = capsys.readouterr().out
    assert "feasible: False" in stdout
    assert "deficit 2.0" in stdout


# ---------------------------------------------------------------------------
# Output directory that cannot be created
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("command", ["run", "af", "alloc"])
def test_uncreatable_out_dir_is_an_error(tmp_path, capsys, monkeypatch,
                                         command):
    # A regular file in the path: mkdir fails with "Not a directory".
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    out = blocker / "out"
    if command == "alloc":
        argv = [str(write_problem(tmp_path / "problem.csv")),
                "--total-power", "10"]
    else:
        argv = [str(write_scenario(tmp_path / "s.json"))]

    def no_trials(*args):
        raise AssertionError("a trial ran before the output directory "
                             "was created")

    monkeypatch.setattr(runner, "_cube_trials", no_trials)
    assert main([command, *argv, "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == (f"error: cannot create output directory {out}: "
                   "Not a directory\n")
