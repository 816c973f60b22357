"""The benchmark harness stays runnable: its smoke mode runs one short pass
of every workload and checks each result against its known answer, and every
function name its tracer keys on still exists in the package."""

from __future__ import annotations

import dataclasses
import importlib
import importlib.util
import inspect
import json
import pkgutil
import subprocess
import sys
from pathlib import Path

import sdcones
from sdcones import search

BENCH = Path(__file__).resolve().parents[1] / "bench"
RUN = BENCH / "run.py"


def test_smoke_run_is_correct():
    proc = subprocess.run(
        [sys.executable, str(RUN), "--smoke"],
        capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    results = [json.loads(line) for line in proc.stdout.splitlines()
               if line.startswith("{")]
    assert len(results) == 3, proc.stdout[-2000:]
    for result in results:
        assert result["correct"] is True and result["failed"] == 0, result


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", BENCH / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_names_resolve():
    # The tracer wraps functions by name; a renamed function would silently
    # read 0 in its benchmark metrics instead of failing.
    spans = _load_spans()
    defined = set()
    for info in pkgutil.iter_modules(sdcones.__path__):
        module = importlib.import_module(f"sdcones.{info.name}")
        defined.update(fn.__name__ for fn in vars(module).values()
                       if inspect.isfunction(fn) and fn.__module__ == module.__name__)
    names = set(spans.SPAN_NAMES) | set(spans.FACET_SCANS) | {spans.PERM_ITERATOR}
    assert sorted(names - defined) == []


def test_tracer_result_fields_exist():
    # The tracer reads these result fields for its search counts; a field
    # slimmed away would zero a count instead of failing.
    spans = _load_spans()
    assert {"sdp_feasibility", "rank_refine", "randomized_retry"} <= set(spans.SPAN_NAMES)
    read = {
        search.SdpResult: "iterations",
        search.RefineResult: "iterations",
        search.RetryResult: "attempts",
        search.AttemptRecord: "certified",
    }
    for cls, name in read.items():
        assert name in {f.name for f in dataclasses.fields(cls)}, (cls.__name__, name)
