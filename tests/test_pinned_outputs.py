"""Byte identity of the sweep tables on three small pinned runs.

``pinned_outputs.json`` holds, per run, its scenario and the SHA-256 of
each table it writes.  A refactor must leave every digest as it is; a
change meant to alter numbers re-pins the file and says which numbers
moved, and why.  To re-pin, run

    PYTHONPATH=src python tests/test_pinned_outputs.py

which rewrites the digests from the current code.
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

from jrcsim.config import parse_config
from jrcsim.runner import run_scenario

PINNED = Path(__file__).with_name("pinned_outputs.json")
TABLES = ("rmse_vs_snr.csv", "ber_vs_snr.csv", "estimates.csv")


def table_digests(scenario: dict, out_dir: Path) -> dict:
    run_scenario(parse_config(scenario), out_dir=out_dir)
    return {name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
            for name in TABLES}


@pytest.mark.parametrize("entry", json.loads(PINNED.read_text()),
                         ids=lambda entry: entry["name"])
def test_tables_match_pinned_digests(entry, tmp_path):
    assert table_digests(entry["scenario"], tmp_path) == entry["sha256"]


def test_pinned_runs_cover_each_waveform_uninterpolated():
    entries = json.loads(PINNED.read_text())
    assert sorted(e["scenario"]["waveform"] for e in entries) == \
        ["golay", "ofdma", "pmcw"]
    for entry in entries:
        assert not entry["scenario"].get("estimator", {}).get("interpolate")


if __name__ == "__main__":
    import tempfile

    entries = json.loads(PINNED.read_text())
    with tempfile.TemporaryDirectory() as tmp:
        for entry in entries:
            entry["sha256"] = table_digests(entry["scenario"],
                                            Path(tmp) / entry["name"])
    PINNED.write_text("[\n" + ",\n".join(json.dumps(e, sort_keys=True)
                                         for e in entries) + "\n]\n")
    sys.exit(0)
