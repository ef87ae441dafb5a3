"""Spans around jrcsim's module boundaries, recorded from outside the package.

``install`` replaces, in the namespaces of ``jrcsim.runner``, ``jrcsim.cli``,
``jrcsim.perf`` and ``jrcsim.config``, each function those modules call
across a layer boundary with a wrapper that records a span: name, start,
end, parent span, job number and the sweep point / trial it belongs to.
The callable it returns puts the originals back, so untraced jobs run the
unmodified code.  Spans stay in memory until the run writes them out.

Process-pool workers forked while the wrappers are installed inherit them;
a wrapper only records in the process that created the tracer and calls
straight through anywhere else.
"""

from __future__ import annotations

import functools
import os
import statistics
import time
from collections import Counter


class Tracer:
    """In-memory span store with a stack of open spans."""

    def __init__(self):
        self.pid = os.getpid()
        self.spans = []
        self.job = 0
        self._open = []

    def open(self, name, **attrs) -> dict:
        parent = self._open[-1] if self._open else None
        span = {"id": len(self.spans), "name": name,
                "start": time.perf_counter(), "end": None,
                "parent": None if parent is None else parent["id"],
                "job": self.job, "point": None, "trial": None}
        if parent is not None:
            span["point"] = parent["point"]
            span["trial"] = parent["trial"]
        span.update(attrs)
        self.spans.append(span)
        self._open.append(span)
        return span

    def close(self, span) -> None:
        span["end"] = time.perf_counter()
        self._open.pop()


def _wrap(tracer, fn, name, attrs=None, count=None):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if os.getpid() != tracer.pid:
            return fn(*args, **kwargs)
        span = tracer.open(name, **(attrs(args) if attrs else {}))
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(span)
        if count:
            span.update(count(args, result))
        return result
    return traced


def _trial_attrs(args):
    _, point, trial = args[0]
    return {"point": point.index, "trial": trial}


def _point_attrs(position):
    return lambda args: {"point": args[position].index}


def _trial_outcome(args, outcome):
    if not outcome.failed:
        return {}
    return {"error": outcome.message.split(":", 1)[0]}


def _refine_cells(args, result):
    return {"cells": int(result.power.size)
            * int(args[0].config.geometry.n_rx)}


def _af_cells(args, surface):
    return {"cells": int(surface.magnitude.size)}


def _bytes_written(args, _):
    return {"bytes": os.stat(args[0]).st_size}


# (attribute, span name, attrs(args), count(args, result)) per namespace.
_RUNNER = (
    ("_run_single_trial", "runner.trial", _trial_attrs, _trial_outcome),
    ("pmcw_frame_symbols", "pmcw.frame_symbols", None, None),
    ("pmcw_receive_cube", "pmcw.receive_cube", None, None),
    ("build_symbol_grid", "ofdma.build_symbol_grid", None, None),
    ("ofdma_receive_cube", "ofdma.receive_cube", None, None),
    ("pmcw_range_doppler", "estim.detect", None, None),
    ("ofdma_range_doppler_angle", "estim.detect", None, None),
    ("pmcw_decode", "estim.decode", None, None),
    ("ofdma_decode", "estim.decode", None, None),
    ("pmcw_refine", "estim.refine", None, _refine_cells),
    ("ofdma_refine", "estim.refine", None, _refine_cells),
    ("_aggregate_point", "runner.aggregate", _point_attrs(1), None),
    ("_point_psl_db", "perf.psl", _point_attrs(2), None),
    ("ambiguity_function", "perf.af", None, _af_cells),
    ("_tradeoff_rows", "runner.tradeoff", _point_attrs(2), None),
    ("crlb_proxy", "perf.crlb", None, None),
    ("_write_outputs", "runner.write", None, None),
    ("write_table_csv", "tensorio.csv_write", None, _bytes_written),
)
_CLI = (
    ("scenario_waveform_samples", "runner.waveform_samples", None, None),
    ("ambiguity_function", "perf.af", None, _af_cells),
    ("write_af_csv", "perf.write_af_csv", None, None),
    ("write_af_tensor", "perf.write_af_tensor", None, None),
    ("write_cut_csv", "perf.write_cut_csv", None, None),
)
_PERF = (
    ("write_table_csv", "tensorio.csv_write", None, _bytes_written),
    ("write_tensor", "tensorio.tensor_write", None, _bytes_written),
)
_CONFIG = (
    ("parse_config", "config.parse", None, None),
)


def _traced_pool(tracer, base):
    """Pool class whose map waits for all results inside a span."""

    class TracedPool(base):
        def map(self, fn, *iterables, **kwargs):
            if os.getpid() != tracer.pid:
                return super().map(fn, *iterables, **kwargs)
            span = tracer.open("runner.pool_wait")
            try:
                results = list(super().map(fn, *iterables, **kwargs))
            finally:
                tracer.close(span)
            errors = Counter(o.message.split(":", 1)[0]
                             for o in results if o.failed)
            if errors:
                span["errors"] = dict(errors)
            return iter(results)

    return TracedPool


def install(tracer, jrcsim_modules) -> callable:
    """Wrap the boundary functions; returns a callable that unwraps them."""
    runner, cli, perf, config = jrcsim_modules
    saved = []
    for module, table in ((runner, _RUNNER), (cli, _CLI), (perf, _PERF),
                          (config, _CONFIG)):
        for attr, name, attrs, count in table:
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, _wrap(tracer, original, name, attrs, count))
    saved.append((runner, "ProcessPoolExecutor", runner.ProcessPoolExecutor))
    runner.ProcessPoolExecutor = _traced_pool(tracer,
                                              runner.ProcessPoolExecutor)

    def uninstall():
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)

    return uninstall


def _ms(span) -> float:
    return (span["end"] - span["start"]) * 1e3


def layer_metrics(spans, n_jobs: int) -> dict:
    """Per-layer figures of ``n_jobs`` traced jobs; 0 where a layer is absent.

    Stage times inside trials are ms per trial; aggregation, PSL and CRLB
    are ms per sweep point; write, AF and tensorio totals are per job.
    """
    by_name = {}
    for span in spans:
        by_name.setdefault(span["name"], []).append(span)
    trials = by_name.get("runner.trial", [])
    trial_ids = {s["id"] for s in trials}
    child_ms = Counter()
    for span in spans:
        if span["parent"] in trial_ids:
            child_ms[span["parent"]] += _ms(span)

    def per_trial(name):
        inside = [s for s in by_name.get(name, [])
                  if s["trial"] is not None]
        return sum(map(_ms, inside)) / len(trials) if trials else 0.0

    def per_call(name):
        found = by_name.get(name, [])
        return sum(map(_ms, found)) / len(found) if found else 0.0

    def per_job(name, key=None):
        found = by_name.get(name, [])
        total = sum(s.get(key, 0) if key else _ms(s) for s in found)
        return total / n_jobs if n_jobs else 0.0

    trial_ms = [_ms(s) for s in trials]
    refine_cells = [s["cells"] for s in by_name.get("estim.refine", [])]
    parse_ms = [_ms(s) for s in by_name.get("config.parse", [])]
    failed = sum(failures_by_type(spans).values())
    return {
        "runner.trial_ms.p50": statistics.median(trial_ms) if trials else 0.0,
        "runner.trial_ms.p99": (statistics.quantiles(
            trial_ms, n=100, method="inclusive")[98] if trials else 0.0),
        "runner.trial_self_ms": (
            sum(_ms(s) - child_ms[s["id"]] for s in trials) / len(trials)
            if trials else 0.0),
        "runner.aggregate_ms_per_point": per_call("runner.aggregate"),
        "runner.write_ms": per_job("runner.write"),
        "runner.pool_wait_s": per_job("runner.pool_wait") / 1e3,
        "runner.failed_trials": failed / n_jobs if n_jobs else 0.0,
        "pmcw.receive_cube_ms": per_trial("pmcw.receive_cube"),
        "pmcw.frame_symbols_ms": per_trial("pmcw.frame_symbols"),
        "ofdma.receive_cube_ms": per_trial("ofdma.receive_cube"),
        "ofdma.build_symbol_grid_ms": per_trial("ofdma.build_symbol_grid"),
        "estim.detect_ms": per_trial("estim.detect"),
        "estim.decode_ms": per_trial("estim.decode"),
        "estim.refine_ms": per_trial("estim.refine"),
        "estim.refine_cells": (statistics.median(refine_cells)
                               if refine_cells else 0),
        "perf.af_ms": per_job("perf.af"),
        "perf.af_cells": per_job("perf.af", "cells"),
        "perf.psl_ms_per_point": per_call("perf.psl"),
        "perf.crlb_ms_per_point": per_call("perf.crlb"),
        "tensorio.csv_write_ms": per_job("tensorio.csv_write"),
        "tensorio.bytes_written": (per_job("tensorio.csv_write", "bytes")
                                   + per_job("tensorio.tensor_write",
                                             "bytes")),
        "config.parse_ms": statistics.median(parse_ms) if parse_ms else 0.0,
    }


def failures_by_type(spans) -> dict:
    """Failed trials per exception type over all traced jobs."""
    counts = Counter(s["error"] for s in spans if "error" in s)
    for span in spans:
        counts.update(span.get("errors", {}))
    return dict(counts)
