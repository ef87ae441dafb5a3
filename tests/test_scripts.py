"""The example scripts run end to end at tiny sizes and write their files."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args, cwd):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name),
                           *args], cwd=cwd, env=env, capture_output=True,
                          text=True, timeout=300)


@pytest.mark.parametrize("name, args, files", [
    ("af_comparison.py", ["--draws", "3"],
     ["psl_per_draw.csv", "delay_cut_code.csv",
      "delay_cut_multicarrier.csv"]),
    ("fig4_trends.py", ["--trials", "2", "--workers", "2"],
     [f"{w}/{f}" for w in ("pmcw", "ofdma")
      for f in ("rmse_vs_snr.csv", "ber_vs_snr.csv", "estimates.csv",
                "report.json")]),
    ("alloc_demo.py", [], ["allocation.csv"]),
], ids=["af_comparison", "fig4_trends", "alloc_demo"])
def test_script_runs_and_writes(tmp_path, name, args, files):
    out = tmp_path / "out"
    done = run_script(name, *args, "--out", str(out), cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    for rel in files:
        assert (out / rel).is_file(), rel
