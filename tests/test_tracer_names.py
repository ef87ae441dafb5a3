"""The benchmark tracer's wrap targets exist in the package.

``perfbench/tracing.py`` replaces named attributes of four jrcsim modules
with timing wrappers; a refactor that renames or drops one of them breaks
``perfbench/run.py --trace 1``.  This loads the tracer by path, without
importing the rest of the benchmark, checks every name it wraps, and
runs it around a pooled sweep to check what its wrappers read.
"""

import importlib.util
from pathlib import Path

import pytest

import jrcsim.cli
import jrcsim.config
import jrcsim.perf
import jrcsim.runner

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("table, module", [
    ("_RUNNER", jrcsim.runner), ("_CLI", jrcsim.cli),
    ("_PERF", jrcsim.perf), ("_CONFIG", jrcsim.config)])
def test_every_wrapped_name_exists(table, module):
    rows = getattr(load_tracing(), table)
    assert rows
    missing = [attr for attr, *_ in rows if not hasattr(module, attr)]
    assert missing == [], f"{module.__name__} lacks {missing}"


def test_runner_keeps_its_pool_class():
    assert hasattr(jrcsim.runner, "ProcessPoolExecutor")


def test_tracer_records_pool_failures_and_point_spans(tmp_path):
    # The pool wrapper reads .failed/.message from every pool.map result
    # and the aggregate spans read the point from a fixed argument; a
    # change to either shape breaks the benchmark's --trace 1 run.
    tracing = load_tracing()
    trials = 2
    config = jrcsim.config.parse_config({
        "version": 1,
        "waveform": "pmcw",
        "pmcw": {"code_length": 31, "n_frames": 8, "chip_time_s": 1e-9,
                 "carrier_hz": 60e9, "geometry": {"n_rx": 2}},
        "scene": {"scatterers": [{"delay_s": 5e-9,
                                  "amplitude": [1.0, 0.0]}]},
        "sweep": {"mu_percent": [0, 50], "snr_db": [10]},
        "trials": trials,
        "seed": 5,
    })
    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer, (jrcsim.runner, jrcsim.cli,
                                         jrcsim.perf, jrcsim.config))
    try:
        report = jrcsim.runner.run_scenario(config, out_dir=tmp_path,
                                            workers=2)
    finally:
        uninstall()
    # mu = 0 leaves PMCW no radar frame, so every trial of point 0 fails.
    assert [r.n_failures for r in report.points] == [trials, 0]
    waits = [s for s in tracer.spans if s["name"] == "runner.pool_wait"]
    assert len(waits) == 1
    assert waits[0]["errors"] == {"NonIdentifiableError": trials}
    assert sorted(s["point"] for s in tracer.spans
                  if s["name"] == "runner.aggregate") == [0, 1]


def test_tracer_records_inline_trials_and_their_failures(tmp_path):
    # Inline runs call ``_run_single_trial`` once per trial too, so the
    # tracer sees each trial and each failed trial's exception type.
    tracing = load_tracing()
    trials = 2
    config = jrcsim.config.parse_config({
        "version": 1,
        "waveform": "pmcw",
        "pmcw": {"code_length": 31, "n_frames": 8, "chip_time_s": 1e-9,
                 "carrier_hz": 60e9, "geometry": {"n_rx": 2}},
        "scene": {"scatterers": [{"delay_s": 5e-9,
                                  "amplitude": [1.0, 0.0]}]},
        "sweep": {"mu_percent": [0, 50], "snr_db": [10]},
        "trials": trials,
        "seed": 5,
    })
    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer, (jrcsim.runner, jrcsim.cli,
                                         jrcsim.perf, jrcsim.config))
    try:
        report = jrcsim.runner.run_scenario(config, out_dir=tmp_path)
    finally:
        uninstall()
    assert [r.n_failures for r in report.points] == [trials, 0]
    spans = [(s["point"], s["trial"]) for s in tracer.spans
             if s["name"] == "runner.trial"]
    assert spans == [(p, t) for p in (0, 1) for t in range(trials)]
    assert tracing.failures_by_type(tracer.spans) == {
        "NonIdentifiableError": trials}
