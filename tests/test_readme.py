"""The README runs as written: the library quick start prints what it says,
and the schema block names every key of the scenario file."""

import contextlib
import io
import re
from pathlib import Path

from jrcsim import config

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_quick_start_prints_documented_line():
    text = README.read_text()
    section = text.split("## Quick start (library)", 1)[1]
    code, printed = re.findall(r"```(?:python)?\n(.*?)```", section,
                               re.S)[:2]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    assert out.getvalue() == printed
    assert "bit errors 0/4" in printed


def _schema_keys(rows):
    """Every JSON key of the schema rows, nested sections' keys included."""
    for key, _, kind, _ in rows:
        yield key
        section = kind[0] if isinstance(kind, list) else kind
        if isinstance(section, config._Section):
            yield from _schema_keys(section.rows)


def test_schema_block_documents_every_key():
    # A new config dataclass field becomes a file key by itself; the
    # README's schema block must name it too.
    section = README.read_text().split("## Scenario schema (version 1)",
                                       1)[1]
    block = re.findall(r"```\n(.*?)```", section, re.S)[0]
    missing = sorted({key for key in _schema_keys(config._TOP)
                      if not re.search(rf"\b{key}\b", block)})
    assert missing == []
