"""Tests of the benchmark itself (kept out of the package's test suite):

    python3 -m pytest bench/check_bench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import run

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(Path(cwd) / "bench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=600)


def _results(stdout: str) -> list[dict]:
    return [json.loads(ln) for ln in stdout.splitlines() if ln.startswith("{")]


def _record(workload: str, seed: int, trace: int) -> dict:
    path = ROOT / ".bench_out" / f"{workload}-seed{seed}-trace{trace}-smoke.json"
    return json.loads(path.read_text())


def test_spec_matches_the_benchmark():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.workloads.WORKLOADS)
    e2e = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert e2e == {k: v for k, v in run.END_TO_END_UNITS.items() if k != "failed_share"}
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == dict(run.PER_LAYER)


def test_smoke_prints_every_end_to_end_metric_with_its_unit():
    proc = _bench("--smoke", "--seed", "1")
    assert proc.returncode == 0, proc.stderr
    results = _results(proc.stdout)
    assert len(results) == len(SPEC["workloads"])
    assert proc.stdout.strip().splitlines()[-1].startswith("{")
    for result in results:
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert {k: v["unit"] for k, v in result["metrics"].items()} == {
            m["name"]: m["unit"] for m in SPEC["end_to_end"]}
        assert all(v["value"] > 0 for v in result["metrics"].values())
    for name, unit in run.END_TO_END_UNITS.items():
        assert proc.stdout.count(f"# metric {name} = ") == len(results)
        assert all(ln.endswith(f" {unit}") for ln in proc.stdout.splitlines()
                   if ln.startswith(f"# metric {name} = "))
    headers = [json.loads(ln[len("# env "):]) for ln in proc.stdout.splitlines()
               if ln.startswith("# env ")]
    assert len(headers) == len(results)
    for env in headers:
        assert {"commit", "seed", "nproc", "python", "numpy", "blas_thread_cap",
                "trace"} <= env.keys()
        assert env["trace"] is False and env["seed"] == 1


def test_traced_smoke_repeats_counts_and_verdicts_exactly():
    records = []
    for _ in range(2):
        proc = _bench("--smoke", "--trace", "1", "--seed", "2")
        assert proc.returncode == 0, proc.stderr
        for result in _results(proc.stdout):
            assert result["correct"]
            assert {k: v["unit"] for k, v in result["metrics"].items()} == dict(run.PER_LAYER)
        assert "# metric trace.overhead_s = " in proc.stdout
        records.append({w: _record(w, 2, 1) for w in run.workloads.WORKLOADS})
    for workload in run.workloads.WORKLOADS:
        first, second = records[0][workload], records[1][workload]
        assert first["item_counts"] == second["item_counts"]
        assert first["env"]["trace"] is True
        counts = {k: v for k, v in first["metrics"].items() if dict(run.PER_LAYER)[k] == "count"}
        assert counts == {k: second["metrics"][k] for k in counts}
    search = records[0]["search"]["item_counts"]
    assert all(rec["counts"]["search.sdp.iterations"] > 0 for rec in search)


def test_tail_percentile_leaves_ten_samples_beyond_it():
    assert run.tail_percentile(30) == 66
    assert run.tail_percentile(100) == 90
    assert run.tail_percentile(870) == 98
    assert run.tail_percentile(5) == 100
    times = [float(i) for i in range(1, 30)]
    assert abs(run.quantile(times, 0.5) - 15.0) < 1e-9
    assert 19.0 < run.quantile(times, 0.65) < 20.0


def test_scaling_maps_the_reference_speed_to_wall_seconds():
    ref = run.CAL_REF_S
    assert run.scale([ref, ref]) == 1.0
    assert abs(run.scale([ref, 3 * ref, 2 * ref]) - 0.5) < 1e-12
    with run.SpeedSampler() as sampler:
        start = run.perf_counter()
        while run.perf_counter() - start < 0.3:
            pass
    assert len(sampler.samples) >= 3 and all(c > 0.0 for c in sampler.samples)
    assert 0.0 < sampler.spent < 0.3


def _dual_outcome(normals):
    rows = [" ".join(f"{x:.17g}" for x in row) for row in normals]
    text = "\n".join([f"{normals.shape[1]} {normals.shape[0]}", *rows])
    return run.workloads.Outcome(0, text, "")


def test_dual_check_counts_facets_at_the_package_resolution():
    import numpy as np

    w = run.workloads
    for eps, merged in ((1e-3, 0), (5e-6, 1)):
        # A square cross-section with a vertex pushed out past one edge's
        # midpoint by eps: that edge splits into two facets eps apart.
        square = [[1, 0], [0, 1], [-1, 0], [0, -1], [0.5 + eps, 0.5 + eps]]
        gens = np.column_stack([np.ones(5), np.array(square)])
        item = w.Item("dual", ["dual", "-"], {"kind": "dual", "generators": gens.tolist()})
        assert w.merged_facets(item) == merged
        hull = w._hull_normals(gens)
        assert len(hull) == 5
        want = w._merge_directions(hull)
        assert len(want) == 5 - merged
        assert w.check(item, _dual_outcome(want), {}) is None
        if merged:
            assert w.check(item, _dual_outcome(hull), {}) is not None


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = _bench("--workload", "search", "--seed", "0", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert not _results(proc.stdout)
