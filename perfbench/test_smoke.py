"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest -q perfbench/test_smoke.py

Every workload runs once untraced and once traced on shrunken inputs; each
run must print every metric BENCHMARK.json names, with its unit, and its
correctness checks must run, pass, and fail on a corrupted output.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _tiny(name: str, spec: dict) -> dict:
    spec = copy.deepcopy(spec)
    if spec["kind"] == "sweep":
        spec["scenario"]["trials"] = 2
        if name == "pool_grid":
            spec["scenario"]["trials"] = 1
            spec["scenario"]["sweep"]["snr_db"] = [0, 5, 10, 15, 20]
        return spec
    for case, size in zip(spec["cases"], (16, 64)):
        case["scenario"]["ofdma"].update(n_subcarriers=size, n_symbols=4)
    spec["cases"][1]["args"] = ["--n-doppler", "9", "--max-lag", "7"]
    return spec


@pytest.fixture(scope="module")
def mods():
    return run.import_jrcsim()


@pytest.mark.parametrize("name", list(run.load_workloads()))
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_printed_and_checks_pass(name, trace, mods, tmp_path,
                                              capsys):
    spec = _tiny(name, run.load_workloads()[name])
    result = run.run_workload(name, spec, 3, 0.0, trace, mods, 0.0,
                              probes=1, out_dir=tmp_path / name)
    assert len(result["setups_scaled_s"]) == (1 if trace else 2)
    run.report(result, {})
    wanted = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    printed = capsys.readouterr().out
    for metric in wanted:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert f"{metric['name']} " in printed
        assert printed.count(f" {metric['unit']}\n") >= 1
    summary = {"job_median_s", "job_min_s", "setup_wall_s", "reference_s",
               "failure_ratio"} | (
        {"export_s"} if name == "af_export" else
        {"trials_per_s", "refined_rmse_bins", "ber"})
    assert set(result["summary"]) == summary
    assert len(result["checks"]) >= 3
    assert all(c["ok"] for c in result["checks"]), result["checks"]
    assert result["attempted"] >= 1


def _corrupt_column(path: Path, column: str, value: str) -> None:
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    at = header.index(column)
    cells = lines[-1].split(",")
    cells[at] = value
    lines[-1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("name,table,column", [
    ("pmcw_sweep", "rmse_vs_snr.csv", "rmse_doppler_hz"),
    ("af_export", "full_window_4096/af_delay_cut.csv", "magnitude"),
])
def test_checks_fail_on_corrupted_output(name, table, column, mods,
                                         tmp_path):
    spec = _tiny(name, run.load_workloads()[name])
    workload = run.Workload(spec, 3, mods, tmp_path / name)
    workload.prepare()
    workload.job()
    assert all(ok for _, ok, _ in workload.checks())
    _corrupt_column(workload.job_dir / table, column, "1e9")
    assert not all(ok for _, ok, _ in workload.checks())


def test_fails_without_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "pmcw_sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_setup_probe_reports_seconds():
    assert run.probe_setup("pmcw_sweep", 3) > 0
    assert not list((run.OUT_ROOT / "pmcw_sweep").glob("probe-*"))
