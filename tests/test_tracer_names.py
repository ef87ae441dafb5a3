"""The benchmark tracer's wrap targets exist in the package.

``perfbench/tracing.py`` replaces named attributes of four jrcsim modules
with timing wrappers; a refactor that renames or drops one of them breaks
``perfbench/run.py --trace 1``.  This loads the tracer by path, without
importing the rest of the benchmark, and checks every name it wraps.
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
