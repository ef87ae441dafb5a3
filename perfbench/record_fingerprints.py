"""Record the SHA-256 of every output file per workload and seed.

    python3 perfbench/record_fingerprints.py [--seeds 0-10]

runs one untimed job of each workload on the seed ``workloads.json``
measures it with, and on any further ``--seeds``, and writes
``perfbench/fingerprints.json``.  ``run.py`` compares each run's outputs
with these digests and reports match or mismatch as information: a pure
refactor should match, a change meant to alter numbers will not.

The AF surfaces depend on the BLAS thread count, so each workload is
recorded in its own process with the thread pinning ``run.py`` gives it.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys

import run


def _seed_range(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def record(name: str, seeds: list) -> dict:
    """Digests of one workload, recorded in this (freshly started) process."""
    spec = run.load_workloads()[name]
    pinning = run.pin_blas_threads(spec.get("workers", 1))
    mods = run.import_jrcsim()
    import oracles

    entry = {"spec": run.spec_digest(spec),
             "blas_threads": pinning["blas_threads"], "seeds": {}}
    for seed in sorted(set(seeds) | {spec["seed"]}):
        workload = run.Workload(spec, seed, mods,
                                run.OUT_ROOT / "fingerprints" / name)
        workload.prepare()
        workload.job()
        entry["seeds"][str(seed)] = oracles.hash_outputs(workload.job_dir)
    shutil.rmtree(run.OUT_ROOT / "fingerprints")
    return entry


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds",
                        help="extra seeds, an inclusive range such as 0-10")
    parser.add_argument("--workload", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    seeds = _seed_range(args.seeds) if args.seeds else []
    if args.workload:
        print(json.dumps(record(args.workload, seeds)))
        return 0

    workloads = {}
    for name in run.load_workloads():
        done = subprocess.run(
            [sys.executable, __file__, *(["--seeds", args.seeds]
                                         if args.seeds else []),
             "--workload", name],
            capture_output=True, text=True, check=True)
        workloads[name] = json.loads(done.stdout.strip().splitlines()[-1])
        print(f"{name}: {len(workloads[name]['seeds'])} seeds",
              file=sys.stderr)
    fingerprints = {"recorded_with": run.environment(),
                    "workloads": workloads}
    (run.BENCH / "fingerprints.json").write_text(
        json.dumps(fingerprints, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
