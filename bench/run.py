#!/usr/bin/env python3
"""sdcones benchmark: closed-loop `sdcones` CLI workloads with known answers.

    python3 bench/run.py --workload search --seed 0 --seconds 10 --trace 0
    python3 bench/run.py --smoke [--trace 1] [--seed 0]

One process, one client: each item is a `cli.main(argv)` call made in-process,
and the next item starts only after the previous one returned.  Set-up
imports the package and writes the seeded inputs to files; the run then
makes whole passes over the workload's items, as many as take about
--seconds of host-scaled item time (see `calibrate`) at the commit that
defined the benchmark.  Every result is checked against its known answer
after the timed loop.  With --trace 0 the end-to-end metrics are printed; with
--trace 1 each item runs twice, untraced and traced, and the per-layer
metrics are printed, per pass.  The last stdout line is one JSON object.
A full record (environment, per-item counts, failures, spans) is written to
.bench_out/ at the repository root.
"""

from __future__ import annotations

import os

# One BLAS/OpenMP thread: fixed before numpy is imported.
THREAD_CAP = 1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = str(THREAD_CAP)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from collections import Counter, defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402
from workloads import Outcome  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
WORK_DIR = ROOT / ".bench_work"

# Set-ups before the loop; setup_s is their median.
SETUP_REPEATS = 11

# Scaled seconds one pass of each workload takes at the commit that defined
# the benchmark.  A run makes round(--seconds / PASS_SECONDS) passes, at
# least one, so every commit makes the same calls for a given --seconds and
# the tail percentile, which depends on the number of calls, stays the same.
PASS_SECONDS = {"search": 32.0, "decide": 6.1, "analyze": 0.9}

# Host speed calibration.  The reference host switches between speed states
# up to 1.7x apart, for a fraction of a second to minutes at a time, so every
# timing is scaled by CAL_REF_S over the mean time of a fixed calibration
# kernel, sampled just before, every SAMPLE_INTERVAL_S during, and just after
# the timed work.  CAL_REF_S is the kernel's time in the reference host's
# fast state, so a scaled second is a wall-clock second at that speed.
CAL_REF_S = 1.6e-4
CAL_REPEATS = 3
SAMPLE_INTERVAL_S = 0.05
_CAL_MATRIX = np.random.default_rng(20221017).normal(size=(8, 8))

END_TO_END_UNITS = {
    "items_per_s": "items/s",
    "item_s.p50": "s",
    "item_s.tail": "s",
    "failed_share": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# Per-layer metrics, reported per pass: (name, unit).
PER_LAYER = [
    ("linalg.sym_eigen.calls", "count"),
    ("linalg.sym_eigen.self_s", "s"),
    ("linalg.sym_eigen.work_n3", "count"),
    ("linalg.require_symmetric.self_s", "s"),
    ("linalg.null_space.calls", "count"),
    ("linalg.null_space.self_s", "s"),
    ("linalg.numeric_rank.calls", "count"),
    ("linalg.numeric_rank.self_s", "s"),
    ("linalg.psd_project.calls", "count"),
    ("linalg.psd_project.self_s", "s"),
    ("linalg.low_rank_project.calls", "count"),
    ("linalg.low_rank_project.self_s", "s"),
    ("linalg.self_s", "s"),
    ("geometry.facet_calls", "count"),
    ("geometry.facet_subsets", "count"),
    ("geometry.slack_matrix.calls", "count"),
    ("geometry.self_s", "s"),
    ("selfdual.perms_tried", "count"),
    ("selfdual.perm_enum_s", "s"),
    ("selfdual.perm_yield", "ratio"),
    ("selfdual.find_psd_scaling.self_s", "s"),
    ("selfdual.self_s", "s"),
    ("search.sisd.self_s", "s"),
    ("search.attempts", "count"),
    ("search.attempt_yield", "ratio"),
    ("search.sdp.calls", "count"),
    ("search.sdp.iterations", "count"),
    ("search.sdp.self_s", "s"),
    ("search.refine.iterations", "count"),
    ("search.refine.self_s", "s"),
    ("search.extract.self_s", "s"),
    ("search.verify.self_s", "s"),
    ("search.self_s", "s"),
    ("dnn.extremality.calls", "count"),
    ("dnn.extremality.self_s", "s"),
    ("dnn.is_dnn.self_s", "s"),
    ("dnn.classify.self_s", "s"),
    ("dnn.self_s", "s"),
    ("cli.parse_s", "s"),
    ("cli.self_s", "s"),
    ("cli.output_bytes", "bytes"),
    ("trace.overhead_s", "s"),
]

# Span names whose self time and calls become `<span>.self_s`/`.calls`.
_SPAN_METRICS = ("linalg.sym_eigen", "linalg.require_symmetric", "linalg.null_space",
                 "linalg.numeric_rank", "linalg.psd_project", "linalg.low_rank_project",
                 "geometry.slack_matrix", "selfdual.find_psd_scaling", "search.sisd",
                 "search.sdp", "search.refine", "search.extract", "search.verify",
                 "dnn.extremality", "dnn.is_dnn", "dnn.classify")


# ---------------------------------------------------------------------------
# Environment and set-up.
# ---------------------------------------------------------------------------

def environment(args) -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = "unknown (not a git checkout)"
    return {
        "commit": commit,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "smoke": bool(args.smoke),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_thread_cap": THREAD_CAP,
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "clients": 1,
        "loop": "closed",
    }


def _package_modules() -> list[str]:
    return [m for m in sys.modules if m == "sdcones" or m.startswith("sdcones.")]


def _calibration_kernel() -> None:
    """Fixed work in the program's mix: scalar indexing in Python loops (as
    in the Jacobi sweeps), small array arithmetic and a tiny SVD."""
    a = _CAL_MATRIX + _CAL_MATRIX.T
    acc = 0.0
    for p in range(8):
        for q in range(8):
            acc += abs(a[p, q]) ** 0.5
    for _ in range(8):
        a = a @ a / np.sqrt((a * a).sum())
        np.linalg.svd(a[:4])


def calibrate() -> float:
    """Seconds the calibration kernel takes now: the best of a few runs."""
    best = math.inf
    for _ in range(CAL_REPEATS):
        start = perf_counter()
        _calibration_kernel()
        best = min(best, perf_counter() - start)
    return best


def scale(calibrations: list[float]) -> float:
    """Factor from wall seconds to scaled seconds for work timed among these
    calibrations, which are spread evenly over it."""
    return CAL_REF_S / statistics.fmean(calibrations)


class SpeedSampler:
    """While active, a SIGALRM handler calibrates every SAMPLE_INTERVAL_S of
    wall time and adds up its own time, which the caller takes out of the
    work it timed.  Python runs the handler between bytecodes of the main
    thread, and nothing it touches is shared with the package."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent = 0.0

    def _sample(self, signum, frame) -> None:
        start = perf_counter()
        self.samples.append(calibrate())
        self.spent += perf_counter() - start

    def __enter__(self):
        self.samples, self.spent = [], 0.0
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def set_up(workload: str, seed: int, work: Path, smoke: bool):
    """Import sdcones.cli afresh and write the seeded inputs under `work`;
    return the items, the wall seconds it took and the scaled seconds.

    numpy is imported once, before any set-up: it is a dependency, not part
    of the package, and importing it afresh would dominate the figure.
    """
    for m in _package_modules():
        del sys.modules[m]
    before = calibrate()
    with SpeedSampler() as sampler:
        start = perf_counter()
        importlib.import_module("sdcones.cli")
        items = workloads.build(workload, seed, work, smoke)
        elapsed = perf_counter() - start - sampler.spent
    return items, elapsed, elapsed * scale([before, *sampler.samples, calibrate()])


# ---------------------------------------------------------------------------
# The closed loop.
# ---------------------------------------------------------------------------

def call(item) -> tuple[Outcome, float]:
    """One `cli.main(argv)` call with stdout/stderr captured; any exception
    is recorded with its type and the loop goes on."""
    cli = sys.modules["sdcones.cli"]
    out, err = io.StringIO(), io.StringIO()
    error = None
    code = None
    start = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(item.argv)
    except SystemExit as exc:  # argparse rejects the command line
        code = exc.code
    except Exception as exc:  # noqa: BLE001 - the loop must keep running
        error = f"{type(exc).__name__}: {exc}"
        err.write(traceback.format_exc())
    elapsed = perf_counter() - start
    return Outcome(code, out.getvalue(), err.getvalue(), error), elapsed


def fingerprint(item, outcome: Outcome) -> tuple[str, int]:
    """Digest of everything the call produced, and its size in bytes."""
    h = hashlib.sha1()
    size = len(outcome.stdout.encode())
    for part in (str(outcome.code), outcome.stdout, outcome.stderr, str(outcome.error)):
        h.update(part.encode())
    if item.out_dir and Path(item.out_dir).is_dir():
        for f in sorted(Path(item.out_dir).iterdir()):
            blob = f.read_bytes()
            size += len(blob)
            h.update(f.name.encode() + blob)
    return h.hexdigest(), size


def run_loop(items, passes: int, tracer):
    """Make `passes` whole passes over the items.

    Returns per-call records (pass, item index, wall seconds, digest,
    bytes; untraced: scaled seconds and the calibrations around the call;
    traced: the untraced twin's seconds and digest) and the first pass's
    outcomes.  Item time excludes the calibration and digesting between
    calls.
    """
    records = []
    first = {}
    sampler = SpeedSampler()
    cal = calibrate()
    for p in range(passes):
        for i, item in enumerate(items):
            rec = {"pass": p, "item": i}
            if tracer is not None:
                twin, rec["untraced_s"] = call(item)
                rec["untraced_digest"], _ = fingerprint(item, twin)
                tracer.item = p * len(items) + i
                tracer.install()
                try:
                    outcome, rec["seconds"] = call(item)
                finally:
                    tracer.uninstall()
            else:
                rec["cal_before"] = cal
                with sampler:
                    outcome, elapsed = call(item)
                cal = rec["cal_after"] = calibrate()
                rec["seconds"] = elapsed - sampler.spent
                rec["scaled_s"] = rec["seconds"] * scale(
                    [rec["cal_before"], *sampler.samples, cal])
            rec["digest"], rec["bytes"] = fingerprint(item, outcome)
            if p == 0:
                first[i] = outcome
            records.append(rec)
    return records, first


def judge(items, records, first):
    """Known-answer checks on the first pass, plus determinism: every later
    call (and a traced call's untraced twin) must reproduce the first
    pass's output exactly.  Returns failures as (pass, item name, reason)."""
    reports = {}
    for i, item in enumerate(items):
        if item.expect.get("golden") and first[i].code == 0 and first[i].error is None:
            reports[item.name] = json.loads(first[i].stdout)
    reasons = {i: workloads.check(item, first[i], reports) for i, item in enumerate(items)}
    reference = {r["item"]: r["digest"] for r in records if r["pass"] == 0}
    failures = []
    for r in records:
        name = items[r["item"]].name
        if reasons[r["item"]] is not None:
            failures.append((r["pass"], name, reasons[r["item"]]))
        elif r["digest"] != reference[r["item"]]:
            failures.append((r["pass"], name, "output differs from the first pass"))
        elif r.get("untraced_digest", r["digest"]) != r["digest"]:
            failures.append((r["pass"], name, "traced output differs from untraced"))
    return failures


# ---------------------------------------------------------------------------
# Metrics.
# ---------------------------------------------------------------------------

def tail_percentile(samples: int) -> int:
    """Highest whole percentile that leaves at least ten samples beyond it;
    100 when there are fewer than eleven."""
    return next((q for q in range(99, 0, -1)
                 if samples - math.ceil(q * samples / 100) >= 10), 100)


def quantile(times: list[float], q: float) -> float:
    """Harrell-Davis estimate of the q-quantile.

    Items differ in size by orders of magnitude, so a single order statistic
    jumps whenever two items near the rank swap places; the Harrell-Davis
    estimator weights the neighbouring order statistics instead.
    """
    from scipy.stats.mstats import hdquantiles

    return float(hdquantiles(np.asarray(times), prob=[q])[0])


def end_to_end(records, setups, peak_rss_mb, failed) -> tuple[dict, list]:
    """Timings are scaled seconds over every call of the run; every pass
    runs the same items, so the quantiles do not depend on how many passes
    fitted in the run, only the tail percentile does."""
    times = [r["scaled_s"] for r in records]
    wall = [r["seconds"] for r in records]
    n = len(times)
    q = tail_percentile(n)
    beyond = n - math.ceil(q * n / 100)
    metrics = {
        "items_per_s": n / sum(times),
        "item_s.p50": quantile(times, 0.5),
        "item_s.tail": quantile(times, q / 100),
        "failed_share": failed / n,
        "setup_s": statistics.median(s for _, s in setups),
        "peak_rss_mb": peak_rss_mb,
    }
    speed = [CAL_REF_S / r["cal_after"] for r in records]
    notes = [
        f"items_per_s over {n} items and {sum(times):.3f} scaled s "
        f"({sum(wall):.3f} wall s) of item time",
        f"item_s.p50 and item_s.tail are Harrell-Davis quantiles of the {n} calls' "
        f"scaled times",
        f"item_s.tail is p{q}: {beyond} of the {n} calls lie beyond it",
        f"failed_share is {failed} of {n} items",
        f"setup_s is the median of {len(setups)} set-ups before the loop "
        f"(scaled {min(s for _, s in setups):.4f}-{max(s for _, s in setups):.4f} s, "
        f"wall {min(w for w, _ in setups):.4f}-{max(w for w, _ in setups):.4f} s)",
        f"unscaled: items_per_s {n / sum(wall):.4f}, item_s.p50 "
        f"{quantile(wall, 0.5):.5f} s, item_s.tail {quantile(wall, q / 100):.5f} s",
        f"host speed relative to the calibration reference: median "
        f"{statistics.median(speed):.3f}, quartiles "
        + ", ".join(f"{v:.3f}" for v in statistics.quantiles(speed, n=4)[::2]),
    ]
    return metrics, notes


def per_layer(tracer, passes: int, n_items: int, records) -> tuple[dict, list]:
    """Per-layer metrics per pass: counts from the first pass (every pass
    does identical work), times averaged over passes."""
    self_s, _ = tracer.self_times()
    _, calls0 = tracer.self_times(set(range(n_items)))
    counts0 = Counter()
    for i in range(n_items):
        counts0.update(tracer.counts.get(i, {}))

    def layer(prefix, exclude=()):
        return sum(v for k, v in self_s.items()
                   if k.startswith(prefix + ".") and k not in exclude) / passes

    m = {}
    for name in _SPAN_METRICS:
        m[f"{name}.calls"] = calls0.get(name, 0)
        m[f"{name}.self_s"] = self_s.get(name, 0.0) / passes
    for name in spans.LAYERS:
        m[f"{name}.self_s"] = layer(name)
    m["cli.self_s"] = layer("cli", exclude={"cli.parse"})
    m["cli.parse_s"] = self_s.get("cli.parse", 0.0) / passes
    m["cli.output_bytes"] = sum(r["bytes"] for r in records if r["pass"] == 0)
    for key in ("linalg.sym_eigen.work_n3", "geometry.facet_calls",
                "geometry.facet_subsets", "selfdual.perms_tried",
                "search.attempts", "search.sdp.iterations", "search.refine.iterations"):
        m[key] = counts0.get(key, 0)
    m["selfdual.perm_enum_s"] = self_s.get(spans.PERM_SPAN, 0.0) / passes
    certs, tried = counts0.get("selfdual.certificates", 0), m["selfdual.perms_tried"]
    m["selfdual.perm_yield"] = certs / tried if tried else 0.0
    won, tries = counts0.get("search.certified_attempts", 0), m["search.attempts"]
    m["search.attempt_yield"] = won / tries if tries else 0.0
    m["trace.overhead_s"] = sum(r["seconds"] - r["untraced_s"] for r in records) / passes
    notes = [
        f"per pass, over {passes} pass(es) of {n_items} items; counts are the "
        "first pass's, times the mean over passes",
        f"selfdual.perm_yield = {certs} certificates / {tried} permutations tried",
        f"search.attempt_yield = {won} certified attempts / {tries} attempts",
        "linalg.sym_eigen.work_n3 and geometry.facet_subsets are computed from "
        "argument shapes (sum of n^3; sum of C(n, d-1))",
        "trace.overhead_s = traced minus untraced item time",
    ]
    return {name: m[name] for name, _ in PER_LAYER}, notes


def sanity(items, records, tracer) -> list[str]:
    """Baseline check of the search workload against the seed's profile:
    per-item time selfpolar10 > prism > pentagon, and sym_eigen self time at
    least 90 % of the selfpolar10 items.  Reported, never enforced."""
    by_support = defaultdict(list)
    for r in records:
        by_support[items[r["item"]].expect["support"]].append(r)
    med = {s: statistics.median(r["seconds"] for r in rs) for s, rs in by_support.items()}
    lines = []
    if {"selfpolar10", "prism", "pentagon"} <= med.keys():
        ordered = med["selfpolar10"] > med["prism"] > med["pentagon"]
        lines.append(
            f"{'PASS' if ordered else 'MISMATCH'}: median traced item time "
            f"selfpolar10 {med['selfpolar10']:.4f} s > prism {med['prism']:.4f} s "
            f"> pentagon {med['pentagon']:.4f} s")
    if "selfpolar10" in by_support:
        n = len(items)
        ids = {r["pass"] * n + r["item"] for r in by_support["selfpolar10"]}
        self_s, _ = tracer.self_times(ids)
        share = self_s.get("linalg.sym_eigen", 0.0) / sum(
            r["seconds"] for r in by_support["selfpolar10"])
        lines.append(f"{'PASS' if share >= 0.9 else 'MISMATCH'}: sym_eigen self time "
                     f"is {100 * share:.1f} % of the selfpolar10 items (expected >= 90 %)")
    return lines


# ---------------------------------------------------------------------------
# Driver.
# ---------------------------------------------------------------------------

def run_workload(args, workload: str) -> dict:
    work = WORK_DIR / f"{workload}-{os.getpid()}"
    try:
        setups = []
        for rep in range(SETUP_REPEATS):
            items, *timing = set_up(workload, args.seed, work / f"setup{rep}", args.smoke)
            setups.append(timing)
        tracer = spans.Tracer() if args.trace else None
        passes = max(1, round(args.seconds / PASS_SECONDS[workload]))
        records, first = run_loop(items, passes, tracer)
        # Before the checks, which load scipy.
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        failures = judge(items, records, first)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    env = dict(environment(args), workload=workload)
    out = {"env": env, "passes": passes,
           "items": [{"name": it.name, "argv": it.argv} for it in items]}
    lines = ["# env " + json.dumps(env, sort_keys=True),
             f"# workload {workload}: {len(items)} items per pass, {passes} pass(es)"]
    if tracer is not None:
        counts = tracer.item_counts()
        failures += [(p, items[i].name, "exact counts differ from the first pass")
                     for i in range(len(items)) for p in range(1, passes)
                     if counts.get(p * len(items) + i) != counts.get(i)]
    failed = len({(p, name) for p, name, _ in failures})
    if tracer is None:
        metrics, notes = end_to_end(records, setups, peak_rss_mb, failed)
        units = END_TO_END_UNITS
    else:
        metrics, notes = per_layer(tracer, passes, len(items), records)
        units = dict(PER_LAYER)
        out["item_counts"] = [
            {"item": item.name, "exit": first[i].code,
             "verdict": workloads.verdict_of(item, first[i]),
             "counts": counts.get(i, {})}
            for i, item in enumerate(items)]
        if workload == "search":
            out["sanity"] = sanity(items, records, tracer)
            lines += [f"# sanity {s}" for s in out["sanity"]]
        out["spans"] = tracer.dump()
    notes += [f"{it.name}: {k} facet(s) within the package's direction "
              "resolution of another, counted as one"
              for it in items if it.expect["kind"] == "dual"
              for k in [workloads.merged_facets(it)] if k]
    lines += [f"# metric {k} = {v!r} {units[k]}" for k, v in metrics.items()]
    lines += [f"# note {n}" for n in notes]
    lines += [f"# FAIL pass {p} {name}: {why}" for p, name, why in failures]
    out.update(metrics=metrics, notes=notes, failures=failures, setups=setups,
               calls=[[r["pass"], r["item"], r["seconds"], r.get("scaled_s")]
                      for r in records])
    OUT_DIR.mkdir(exist_ok=True)
    tag = "-smoke" if args.smoke else ""
    path = OUT_DIR / f"{workload}-seed{args.seed}-trace{args.trace}{tag}.json"
    path.write_text(json.dumps(out, sort_keys=True) + "\n")
    lines.append(f"# record {path.relative_to(ROOT)}")
    # failed_share is printed above; it is 0 on a correct run, so it is not a
    # bounded metric of the final line (the failed count carries it there).
    result = {
        "correct": not failures,
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items() if k != "failed_share"},
    }
    return {"lines": lines, "result": result}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="one short pass of every workload (or of --workload)")
    args = parser.parse_args(argv)
    if not (SRC / "sdcones" / "cli.py").is_file():
        print(f"error: package source not found under {SRC}", file=sys.stderr)
        return 2
    if args.smoke:
        args.seconds = 0.0
        names = [args.workload] if args.workload else list(workloads.WORKLOADS)
    elif args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    else:
        names = [args.workload]
    sys.path.insert(0, str(SRC))
    for name in names:
        outcome = run_workload(args, name)
        print("\n".join(outcome["lines"]), flush=True)
        print(json.dumps(outcome["result"]), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
