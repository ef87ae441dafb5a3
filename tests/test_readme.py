"""The README's library quick start runs and prints what the README says."""

import contextlib
import io
import re
from pathlib import Path

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
