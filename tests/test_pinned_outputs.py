"""Byte identity of the sweep outputs on three small pinned runs.

``pinned_outputs.json`` holds, per run, its scenario and the SHA-256 of
each table it writes (``tradeoff.csv`` included, for the runs that sweep
weights) and of the canonical JSON of ``report.json``'s ``points``, where
``p_detect`` and ``psl_db`` land; the report's wall clock varies from run
to run, so the rest of the report stays unpinned.  A refactor must leave
every digest as it is; a change meant to alter numbers re-pins the file
and says which numbers moved, and why.  To re-pin, run

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


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def table_digests(scenario: dict, out_dir: Path) -> dict:
    report = run_scenario(parse_config(scenario), out_dir=out_dir)
    digests = {name: _sha256((out_dir / name).read_bytes())
               for name in report.outputs if name.endswith(".csv")}
    points = json.loads((out_dir / "report.json").read_text())["points"]
    digests["report.json:points"] = _sha256(json.dumps(
        points, sort_keys=True, separators=(",", ":")).encode())
    return digests


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
        # Golay sweeps no weights; the two cube runs pin the trade-off table.
        if entry["scenario"]["waveform"] != "golay":
            assert entry["scenario"]["sweep"]["weights"]
            assert "tradeoff.csv" in entry["sha256"]


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
