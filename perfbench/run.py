"""Benchmark of jrcsim: Monte-Carlo sweeps and ambiguity-function export.

Run from the repository root:

    python3 perfbench/run.py --workload pmcw_sweep --seed 1 \
        --seconds 20 --trace 0

Workloads (``perfbench/workloads.json`` holds each one's scenario, the reason
it was chosen and the seed it is measured with):

    pmcw_sweep   acceptance test a5's PMCW sweep, run_scenario inline
    ofdma_sweep  acceptance test a5's OFDMA sweep, run_scenario inline
    pool_grid    52 short PMCW points on a two-process pool
    af_export    two ``jrcsim af`` exports, called in-process
    all          the four above, each in its own child process

A run imports jrcsim from ``./src``, builds the workload's inputs from
``--seed``, sets up (import, config parse, one small warm-up job), then
repeats the workload's job until ``--seconds`` have passed and checks the
outputs: a5's orderings on the sweep tables, the AF export against an
autocorrelation and a direct-sum oracle, byte-identical outputs across the
run's jobs, and no failed trial on the two a5 sweeps.  A failed check makes
the exit code 1.  Output files go to ``.perfbench-out/<workload>/``, with
``result-trace<0|1>.json`` (metrics, checks, environment, fingerprint
status) and, for traced runs, ``spans.jsonl``.

The OpenBLAS/OpenMP thread count is pinned to nproc // processes before
numpy loads, so that pool workers times BLAS threads never exceed nproc.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` (trials, or exports for af_export)
and ``metrics``.  With ``--trace 0`` the metrics are end to end:

    job_scaled_s  median job time, scaled to the reference speed (below).
                  A job is parse_config plus the whole run_scenario sweep,
                  including aggregation and file output, or the two
                  ``jrcsim af`` calls.
    setup_s       median of five set-ups, scaled to the reference speed:
                  this process's own and four in fresh interpreters, spread
                  over the measuring window.  A set-up is the import of
                  jrcsim, the config parse and one small warm-up job.
    peak_rss_mb   peak resident memory of this process (pool workers apart)

Why scaled: on a shared 2-vCPU x86_64 VM the host's speed drifted for
minutes at a time, and every job drifted with it.  Process CPU time rose
as much as wall time, so the slowdown was in the CPU, not in waiting for
it.  Two sets of ten runs of the same code differed by up to 47 % in their
median job time.  So the benchmark times a fixed kernel of its own
(``reference_s``: a pure-Python loop and small numpy FFTs, nothing from
jrcsim) after every job and set-up.  Each wall time is scaled by
``REFERENCE_S`` over the median of the four kernel times nearest to it, two
before and two after.  A change to jrcsim moves the scaled figures as much
as the wall times.  A change of host speed moves the job and the kernel
together, and cancels as far as the two slow down alike.  Raw wall times
are printed too: ``job_min_s``, ``job_median_s`` (and from it
``trials_per_s`` or ``export_s``) and ``setup_wall_s``.

With ``--trace 1`` untraced and traced jobs alternate (on pool_grid also
inline ``workers=1`` jobs) and the metrics are the per-layer figures of
``tracing.layer_metrics`` plus quality figures read from the outputs,
``runner.pool_speedup`` and ``trace.speed_ratio`` (untraced over traced job
time).  A layer the workload does not reach reads 0.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT_ROOT = ROOT / ".perfbench-out"
sys.path.insert(0, str(BENCH))

# The two a5 sweeps must finish every trial.
NO_FAILURES = ("pmcw_sweep", "ofdma_sweep")
SETUP_PROBES = 4
# reference_s() on the 2-vCPU x86_64 VM the bounds were set on, at its
# faster speed; scaled times read as seconds at that speed.
REFERENCE_S = 0.035

END_TO_END_UNITS = {"job_scaled_s": "s", "setup_s": "s",
                    "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    "runner.trial_ms.p50": "ms",
    "runner.trial_ms.p99": "ms",
    "runner.trial_self_ms": "ms",
    "runner.aggregate_ms_per_point": "ms",
    "runner.write_ms": "ms",
    "runner.pool_wait_s": "s",
    "runner.pool_speedup": "ratio",
    "runner.failed_trials": "count",
    "pmcw.receive_cube_ms": "ms",
    "pmcw.frame_symbols_ms": "ms",
    "ofdma.receive_cube_ms": "ms",
    "ofdma.build_symbol_grid_ms": "ms",
    "estim.detect_ms": "ms",
    "estim.decode_ms": "ms",
    "estim.refine_ms": "ms",
    "estim.refine_cells": "count",
    "estim.refine_useful_ratio": "ratio",
    "estim.refined_rmse_bins": "bins",
    "estim.ber": "ratio",
    "perf.af_ms": "ms",
    "perf.af_cells": "count",
    "perf.psl_ms_per_point": "ms",
    "perf.crlb_ms_per_point": "ms",
    "tensorio.csv_write_ms": "ms",
    "tensorio.bytes_written": "B",
    "config.parse_ms": "ms",
    "trace.speed_ratio": "ratio",
}


def load_workloads() -> dict:
    return json.loads((BENCH / "workloads.json").read_text())


def spec_digest(spec: dict) -> str:
    return hashlib.sha256(json.dumps(spec, sort_keys=True).encode()) \
        .hexdigest()[:16]


def pin_blas_threads(processes: int) -> dict:
    """Pin BLAS/OpenMP threads so processes x threads <= nproc."""
    nproc = len(os.sched_getaffinity(0))
    threads = max(1, nproc // processes)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)
    return {"processes": processes, "blas_threads": threads}


def import_jrcsim() -> SimpleNamespace:
    """Import jrcsim from this checkout's sources, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "jrcsim" / "__init__.py").is_file():
        sys.exit(f"perfbench: no jrcsim sources under {src}")
    sys.path.insert(0, str(src))
    import jrcsim
    import jrcsim.cli
    import jrcsim.config
    import jrcsim.perf
    import jrcsim.runner
    import jrcsim.sigcore
    import jrcsim.tensorio
    if Path(jrcsim.__file__).resolve().parent != (src / "jrcsim").resolve():
        sys.exit(f"perfbench: jrcsim imported from {jrcsim.__file__}")
    return SimpleNamespace(runner=jrcsim.runner, cli=jrcsim.cli,
                           perf=jrcsim.perf, config=jrcsim.config,
                           sigcore=jrcsim.sigcore, tensorio=jrcsim.tensorio)


def environment() -> dict:
    import multiprocessing

    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": len(os.sched_getaffinity(0)),
            "machine": platform.machine(),
            "platform": platform.platform(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "start_method": multiprocessing.get_start_method()}


class Workload:
    """One workload's inputs, job, warm-up and output checks."""

    def __init__(self, spec: dict, seed: int, mods, out_dir):
        self.spec = spec
        self.seed = seed
        self.mods = mods
        self.dir = Path(out_dir)
        self.job_dir = self.dir / "job"
        self.workers = spec.get("workers", 1)

    def prepare(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        if self.spec["kind"] == "sweep":
            self.scenario = dict(self.spec["scenario"], seed=self.seed)
            return
        self.cases = []
        for case in self.spec["cases"]:
            path = self.dir / f"{case['name']}.json"
            path.write_text(json.dumps(dict(case["scenario"],
                                            seed=self.seed)))
            self.cases.append((case["name"], path, case["args"]))

    def job(self, workers=None, out_dir=None, trials=None, af_args=()):
        """Run the job once; returns (wall seconds, attempted, failed)."""
        out_dir = self.job_dir if out_dir is None else out_dir
        if self.spec["kind"] == "sweep":
            scenario = self.scenario
            if trials is not None:
                scenario = dict(scenario, trials=trials)
            started = time.perf_counter()
            config = self.mods.config.parse_config(scenario)
            report = self.mods.runner.run_scenario(
                config, out_dir=out_dir, workers=workers or self.workers)
            wall = time.perf_counter() - started
            return (wall, sum(p.n_trials for p in report.points),
                    sum(p.n_failures for p in report.points))
        failed = 0
        started = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            for name, path, args in self.cases:
                failed += self.mods.cli.main(
                    ["af", str(path), "--out-dir", str(out_dir / name),
                     *args, *af_args]) != 0
        return time.perf_counter() - started, len(self.cases), failed

    def warm_up(self) -> None:
        """One small job, so lazy imports and first-call costs are paid."""
        out_dir = self.dir / f"warmup-{os.getpid()}"
        if self.spec["kind"] == "sweep":
            self.job(workers=1, out_dir=out_dir, trials=1)
        else:
            self.job(out_dir=out_dir, af_args=("--max-lag", "8"))
        shutil.rmtree(out_dir)

    def checks(self) -> list:
        import oracles
        if self.spec["kind"] == "sweep":
            return oracles.sweep_checks(self.job_dir, self.scenario)
        found = []
        for name, path, _ in self.cases:
            config = self.mods.config.load_config(path)
            samples, rate = self.mods.runner.scenario_waveform_samples(config)
            found += [(f"{name}: {label}", ok, detail) for label, ok, detail
                      in oracles.af_checks(
                          self.job_dir / name, samples, rate,
                          self.mods.sigcore.aperiodic_autocorr,
                          self.mods.tensorio.read_tensor)]
        return found

    def quality(self) -> dict:
        import oracles
        if self.spec["kind"] != "sweep":
            return {"refined_rmse_bins": 0.0, "ber": 0.0,
                    "refine_useful_ratio": 0.0}
        return oracles.sweep_quality(self.job_dir, self.scenario)


def set_up(spec, seed, mods, out_dir, import_s) -> tuple:
    """Prepare and warm up; returns (workload, seconds incl. import)."""
    started = time.perf_counter()
    workload = Workload(spec, seed, mods, out_dir)
    workload.prepare()
    workload.warm_up()
    return workload, import_s + time.perf_counter() - started


def fresh_set_up(name: str, seed: int) -> float:
    """Import jrcsim and set up ``name`` once; returns the seconds taken.

    Meant for a fresh interpreter (see ``probe_setup``), which inherits the
    BLAS pinning of the process that starts it.
    """
    started = time.perf_counter()
    mods = import_jrcsim()
    probe_dir = OUT_ROOT / name / f"probe-{os.getpid()}"
    try:
        _, setup_s = set_up(load_workloads()[name], seed, mods, probe_dir,
                            time.perf_counter() - started)
    finally:
        shutil.rmtree(probe_dir, ignore_errors=True)
    return setup_s


def probe_setup(name: str, seed: int) -> float:
    """Set-up time of ``name`` in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, "-c",
         f"import run; print(run.fresh_set_up({name!r}, {seed}))"],
        cwd=BENCH, capture_output=True, text=True, timeout=150, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def reference_s() -> float:
    """Wall seconds of a fixed kernel that does not depend on jrcsim.

    It mixes interpreter work and small numpy FFTs, as a trial does, so
    that it slows down with the host as the jobs do.
    """
    import numpy as np
    started = time.perf_counter()
    total = 0
    for i in range(300_000):
        total += i * i % 7
    grid = np.exp(1j * np.arange(4 * 16 * 32).reshape(4, 16, 32) / 7.0)
    for _ in range(450):
        spectrum = np.fft.fft(grid, axis=-1)
        (spectrum.real ** 2 + spectrum.imag ** 2).argmax()
    return time.perf_counter() - started


def scaled(wall: float, at: int, kernel_s: list) -> float:
    """``wall`` at reference speed; ``kernel_s[at]`` was timed right after.

    The speed is the median of the two kernel times before and the two
    after, so that one kernel run caught by a burst of load does not count.
    """
    return wall * REFERENCE_S \
        / statistics.median(kernel_s[max(0, at - 2):at + 2])


def measure(workload, seconds: float, modes: list, probe=None,
            probes: int = 0) -> dict:
    """Cycle the (label, run) modes until ``seconds`` have passed.

    ``probe`` is called ``probes`` times between jobs, spread evenly over
    the window; it returns the seconds it measured (``probed``).  The
    reference kernel runs before the first job and after every job and
    probe (``kernel_s``).  Returns also per-label wall times (``walls``),
    scaled times (``scaled``, with the probes under ``probe``), trial/export
    counts and whether every job left byte-identical output files.
    """
    import oracles
    kernel_s = [reference_s()]
    walls = {label: [] for label, _ in modes}
    timed = {label: [] for label in [*walls, "probe"]}
    attempted = failed = 0
    reference, identical = None, True
    started = time.perf_counter()
    while True:
        for label, run in modes:
            shutil.rmtree(workload.job_dir, ignore_errors=True)
            wall, tried, lost = run()
            walls[label].append(wall)
            timed[label].append((wall, len(kernel_s)))
            kernel_s.append(reference_s())
            attempted += tried
            failed += lost
            digests = oracles.hash_outputs(workload.job_dir)
            if reference is None:
                reference = digests
            identical = identical and digests == reference
        elapsed = time.perf_counter() - started
        done = len(timed["probe"])
        if done < probes and elapsed >= done * seconds / probes:
            timed["probe"].append((probe(), len(kernel_s)))
            kernel_s.append(reference_s())
        if elapsed >= seconds and len(timed["probe"]) == probes:
            break
    return {"walls": walls, "kernel_s": kernel_s,
            "scaled": {label: [scaled(wall, at, kernel_s)
                               for wall, at in pairs]
                       for label, pairs in timed.items()},
            "probed": [wall for wall, _ in timed["probe"]],
            "attempted": attempted, "failed": failed,
            "digests": reference, "identical": identical}


def fingerprint_status(name: str, spec: dict, seed: int, digests: dict,
                       blas_threads: int) -> str:
    """Compare output digests with the recorded ones (information only).

    Digests are only comparable for the same workload spec and BLAS thread
    count, since the thread count changes the AF surfaces' last bits.
    """
    path = BENCH / "fingerprints.json"
    recorded = json.loads(path.read_text())["workloads"].get(name, {}) \
        if path.is_file() else {}
    if recorded.get("spec") != spec_digest(spec) \
            or recorded.get("blas_threads") != blas_threads \
            or str(seed) not in recorded.get("seeds", {}):
        return "unrecorded"
    expected = recorded["seeds"][str(seed)]
    differ = sorted(f for f in set(expected) | set(digests)
                    if expected.get(f) != digests.get(f))
    return "match" if not differ else "mismatch: " + ", ".join(differ)


def run_workload(name, spec, seed, seconds, trace, mods, import_s,
                 probes=SETUP_PROBES, out_dir=None) -> dict:
    """Set up, measure and check one workload; returns its result record."""
    import tracing
    workload, setup_s = set_up(spec, seed, mods, out_dir or OUT_ROOT / name,
                               import_s)

    tracer = tracing.Tracer()
    layers = (mods.runner, mods.cli, mods.perf, mods.config)

    def traced():
        tracer.job += 1
        uninstall = tracing.install(tracer, layers)
        try:
            return workload.job()
        finally:
            uninstall()

    modes = [("job", workload.job)]
    if trace:
        modes.append(("traced", traced))
        if workload.workers > 1:
            modes.append(("inline", lambda: workload.job(workers=1)))
    run = measure(workload, seconds, modes,
                  probe=lambda: probe_setup(name, seed),
                  probes=0 if trace else probes)
    setups = [scaled(setup_s, 0, run["kernel_s"])] + run["scaled"]["probe"]

    found = workload.checks()
    found.append(("outputs byte-identical across the run's jobs",
                  run["identical"], None))
    if name in NO_FAILURES:
        found.append(("no failed trials", run["failed"] == 0,
                      run["failed"]))
    walls = run["walls"]
    quality = workload.quality()
    if trace:
        metrics = tracing.layer_metrics(tracer.spans, len(walls["traced"]))
        metrics.update({
            "estim.refine_useful_ratio": quality["refine_useful_ratio"],
            "estim.refined_rmse_bins": quality["refined_rmse_bins"],
            "estim.ber": quality["ber"],
            "runner.pool_speedup": (
                statistics.median(walls["inline"])
                / statistics.median(walls["job"])
                if "inline" in walls else 0.0),
            "trace.speed_ratio": (statistics.median(walls["job"])
                                  / statistics.median(walls["traced"])),
        })
        units = PER_LAYER_UNITS
        with open(workload.dir / "spans.jsonl", "w") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(span) + "\n")
    else:
        metrics = {
            "job_scaled_s": statistics.median(run["scaled"]["job"]),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END_UNITS
    job_s = statistics.median(walls["job"])
    summary = {"job_median_s": job_s, "job_min_s": min(walls["job"]),
               "setup_wall_s": setup_s,
               "reference_s": statistics.median(run["kernel_s"]),
               "failure_ratio": run["failed"] / run["attempted"]}
    if spec["kind"] == "af":
        summary["export_s"] = job_s
    else:
        per_job = run["attempted"] / sum(map(len, walls.values()))
        summary.update(trials_per_s=per_job / job_s,
                       refined_rmse_bins=quality["refined_rmse_bins"],
                       ber=quality["ber"])
    return {
        "workload": name,
        "seed": seed,
        "jobs": {label: len(v) for label, v in walls.items()},
        "walls_s": walls,
        "scaled_s": run["scaled"],
        "kernel_s": run["kernel_s"],
        "setups_s": [setup_s] + run["probed"],
        "setups_scaled_s": setups,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "failures_by_type": tracing.failures_by_type(tracer.spans),
        "checks": [{"name": n, "ok": bool(ok), "detail": repr(d)}
                   for n, ok, d in found],
        "fingerprints": fingerprint_status(
            name, spec, seed, run["digests"],
            int(os.environ.get("OPENBLAS_NUM_THREADS", 0))),
        "summary": summary,
        "metrics": {k: {"value": metrics[k], "unit": u}
                    for k, u in units.items()},
    }


_SUMMARY_UNITS = {"job_median_s": "s", "job_min_s": "s",
                  "setup_wall_s": "s", "reference_s": "s",
                  "trials_per_s": "1/s",
                  "export_s": "s", "failure_ratio": "ratio",
                  "refined_rmse_bins": "bins", "ber": "ratio"}


def report(result: dict, env: dict) -> None:
    """Human-readable lines; the JSON result line comes after them."""
    jobs = ", ".join(f"{label} x{n}" for label, n in result["jobs"].items())
    print(f"workload {result['workload']} seed {result['seed']}: {jobs}")
    rows = [(k, v, _SUMMARY_UNITS[k]) for k, v in result["summary"].items()]
    rows += [(k, m["value"], m["unit"]) for k, m in result["metrics"].items()]
    for key, value, unit in rows:
        print(f"  {key:<30} {value:>14.6g} {unit}")
    for check in result["checks"]:
        print(f"  check {'ok  ' if check['ok'] else 'FAIL'} {check['name']}"
              + ("" if check["ok"] else f": {check['detail']}"))
    if result["failures_by_type"]:
        print(f"  failed trials by type: {result['failures_by_type']}")
    print(f"  output fingerprints: {result['fingerprints']}")
    print(f"  env: {json.dumps(env, sort_keys=True)}")


def run_all(names: list, argv: list) -> int:
    """Run each workload in a child ``run.py`` and merge their results.

    Each child pins its own BLAS threads and reports its own set-up time
    and peak memory.  Metric names get the workload as a prefix.
    """
    results = []
    for name in names:
        done = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", name,
             *argv], cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = done.stdout.splitlines()
        for line in lines[:-1]:
            print(line)
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            sys.exit(f"perfbench: workload {name} printed no result "
                     f"(exit code {done.returncode})")
        results.append((name, result))
    correct = all(r["correct"] for _, r in results)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for _, r in results),
        "failed": sum(r["failed"] for _, r in results),
        "metrics": {f"{name}.{k}": m for name, r in results
                    for k, m in r["metrics"].items()}}))
    return 0 if correct else 1


def main(argv=None) -> int:
    started = time.perf_counter()
    workloads = load_workloads()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*workloads, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(list(workloads), [
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace)])

    name = args.workload
    pinning = pin_blas_threads(workloads[name].get("workers", 1))
    mods = import_jrcsim()
    import_s = time.perf_counter() - started
    env = {**environment(), **pinning}
    result = run_workload(name, workloads[name], args.seed, args.seconds,
                          args.trace, mods, import_s)
    result["env"] = env
    (OUT_ROOT / name / f"result-trace{args.trace}.json").write_text(
        json.dumps(result, indent=1, sort_keys=True))
    report(result, env)
    correct = all(c["ok"] for c in result["checks"])
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": result["metrics"]}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
