"""Workload inputs and their known answers.

Each workload is a list of items.  An item is one `sdcones` command line plus
the answer its output must give, derived from how the input was built, never
from running the program.  `build` generates the inputs from the benchmark
seed and writes them to files; `check` judges one finished call.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

WORKLOADS = ("search", "decide", "analyze")

# Search seeds per support in one pass; each support's cost depends on the
# seed, so a pass averages over several.
SEARCH_SEEDS_PER_PASS = 6

# Known-answer gates for search successes.
RECERTIFY_TOL = 1e-6
TRAILING_EIG_TOL = 1e-8

# Orientation tolerance when re-checking `dual` output against its input.
DUAL_ORIENT_TOL = 1e-7

# The package counts two directions as one when their cosine reaches
# 1 - 1e-9, about 4.5e-5 rad (`geometry.DUPLICATE_COSINE`, "two directions
# count as the same ray").  Facets of a random cone can lie closer than that:
# seed 504 draws two 3.7e-5 rad apart.  The known facet count of `dual` is
# therefore that of the ConvexHull facets merged at this resolution, and the
# run notes every cone where a merge happened.
DIRECTION_RESOLUTION_COS = 1.0 - 1e-9

# A printed facet normal must match a ConvexHull facet to this cosine.
DUAL_MATCH_COS = 1.0 - 1e-8


@dataclass
class Item:
    """One `sdcones` call and the facts its result must show."""

    name: str
    argv: list[str]
    expect: dict = field(default_factory=dict)
    out_dir: str | None = None


@dataclass
class Outcome:
    """What one call returned: exit code, captured text, raised exception."""

    code: int | None
    stdout: str
    stderr: str
    error: str | None = None


# ---------------------------------------------------------------------------
# Input generation (runs in set-up, untimed by the item clock).
# ---------------------------------------------------------------------------

def build(workload: str, seed: int, work: Path, smoke: bool = False) -> list[Item]:
    """Generate the workload's inputs from `seed`, write them under `work`,
    and return the items of one pass.  `smoke` keeps one item per kind."""
    work.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    make = {"search": _build_search, "decide": _build_decide,
            "analyze": _build_analyze}[workload]
    return make(rng, work, smoke)


def _build_search(rng, work: Path, smoke: bool) -> list[Item]:
    from sdcones import data, geometry, search

    polygon = geometry.cone_over_polytope(data.regular_polygon_vertices(7))
    gon7 = search.support_of(geometry.slack_matrix(polygon).matrix)
    supports = [
        ("pentagon", data.pentagon_support().bits, 3, True),
        ("prism", data.prism_support().bits, 4, True),
        ("selfpolar10", data.ten_support().bits, 4, True),
        ("gon7", gon7.astype(np.uint8), 3, True),
        # A 3-dimensional self-dual cone has an odd number of rays, so the
        # four-cycle has no rank-3 realization: exit 3 after every attempt.
        ("fourcycle", data.four_cycle_support().bits, 3, False),
    ]
    if smoke:
        supports = [supports[0], supports[4]]
    n_seeds = 1 if smoke else SEARCH_SEEDS_PER_PASS
    search_seeds = [int(s) for s in rng.integers(0, 2**31 - 1, size=n_seeds)]
    items = []
    for name, bits, rank, realizable in supports:
        path = work / f"{name}.support"
        search.save_support(path, bits)
        for s in search_seeds:
            out = work / "out" / f"{name}-s{s}"
            items.append(Item(
                name=f"search/{name}/seed{s}",
                argv=["search", str(path), "--rank", str(rank), "--seed", str(s),
                      "--out", str(out)],
                expect={"kind": "search", "support": name, "rank": rank,
                        "realizable": realizable, "bits": bits.tolist(),
                        "retries": 20},
                out_dir=str(out),
            ))
    # Interleave by seed so each search seed's supports run back to back.
    items.sort(key=lambda it: search_seeds.index(int(it.argv[5])))
    return items


def _build_decide(rng, work: Path, smoke: bool) -> list[Item]:
    from sdcones import data, geometry

    items = []

    def verify_item(name, gens, self_dual):
        path = work / f"{name}.cone"
        geometry.save_cone(path, gens)
        items.append(Item(f"decide/verify/{name}", ["verify", str(path)],
                          {"kind": "verify", "self_dual": self_dual}))

    gons = (4, 5) if smoke else range(4, 18)
    for k in gons:
        # A regular k-gon cone, rotated in its plane by a seeded angle:
        # self-dual exactly when k is odd.
        ang = 2.0 * np.pi * np.arange(k) / k + rng.uniform(0.0, 2.0 * np.pi)
        gens = np.column_stack([np.ones(k), np.cos(ang), np.sin(ang)])
        verify_item(f"gon{k}", gens, k % 2 == 1)
    # Linear images of self-dual cones are self-dual (under the pulled-back
    # inner product).
    bases = [(f"orthant{d}", np.eye(d)) for d in ((3,) if smoke else range(2, 7))]
    if not smoke:
        bases += [("pentagon", data.pentagon_rays()), ("prism", data.prism_rays())]
    for name, rays in bases:
        verify_item(f"{name}-image", rays @ _well_conditioned(rng, rays.shape[1]).T, True)

    shapes = [(5, 10)] if smoke else [(d, n) for d in (5, 6) for n in (10, 12)]
    for index, (d, n) in enumerate(shapes):
        gens = _random_cone(rng, d, n)
        path = work / f"random{index}-d{d}-n{n}.cone"
        geometry.save_cone(path, gens)
        items.append(Item(f"decide/dual/random{index}-d{d}-n{n}", ["dual", str(path)],
                          {"kind": "dual", "generators": gens.tolist()}))
    return items


def _random_cone(rng, d: int, n: int) -> np.ndarray:
    """Generators (1, x) with x on the unit sphere, so every generator is an
    extreme ray."""
    x = rng.normal(size=(n, d - 1))
    x /= np.linalg.norm(x, axis=1)[:, None]
    return np.column_stack([np.ones(n), x])


def _well_conditioned(rng, d: int) -> np.ndarray:
    """Random d x d matrix with singular values in [0.5, 2]."""
    q1, _ = np.linalg.qr(rng.normal(size=(d, d)))
    q2, _ = np.linalg.qr(rng.normal(size=(d, d)))
    return q1 @ np.diag(rng.uniform(0.5, 2.0, size=d)) @ q2


def _build_analyze(rng, work: Path, smoke: bool) -> list[Item]:
    from sdcones import data, geometry, search

    items = []

    def analyze_item(name, matrix, rank, expect):
        path = work / f"{name}.mat"
        geometry.save_matrix(path, matrix)
        items.append(Item(f"analyze/{name}", ["analyze", str(path), "--rank", str(rank)],
                          dict(expect, kind="analyze")))

    bases = [
        ("pentagon", data.pentagon_slack(), 3),
        ("prism", data.prism_slack(), 4),
        ("nonslack", data.nonslack_extreme_matrix(), 4),
        ("congruence_b", data.congruence_triple()[1], 4),
        ("selfpolar10", data.ten_gram(), 4),
    ]
    if smoke:
        bases = bases[:1]
    for name, m, rank in bases:
        analyze_item(name, m, rank, {"base": None, "golden": name})
    for name, m, rank in bases:
        n = m.shape[0]
        # Positive diagonal congruence and simultaneous row/column
        # permutation leave every verdict of the report unchanged.
        variants = [("scaled", _rescale(rng, m), None),
                    ("permuted", None, rng.permutation(n)),
                    ("scaled-permuted", _rescale(rng, m), rng.permutation(n))]
        if smoke:
            variants = variants[2:]
        for tag, scaled, perm in variants:
            v = m if scaled is None else scaled
            if perm is not None:
                v = v[np.ix_(perm, perm)]
            analyze_item(f"{name}-{tag}", v, rank, {"base": f"analyze/{name}"})

    count = 1 if smoke else 3
    for i in range(count):
        x = rng.uniform(0.2, 1.5, size=5)
        analyze_item(f"dnn5-rank1-{i}", np.outer(x, x), 1,
                     {"dnn5": "rank1", "extreme": True})
    for i in range(count):
        # As in the package's 5x5 characterization: a rescaled pentagon
        # slack realization, rescaled again and permuted.
        scales = np.exp(rng.uniform(-0.6, 0.6, size=5))
        gram = search.extract_realization(
            data.pentagon_slack() * np.outer(scales, scales), 3).gram
        extra = np.exp(rng.uniform(-0.4, 0.4, size=5))
        perm = rng.permutation(5)
        a = (gram * np.outer(extra, extra))[np.ix_(perm, perm)]
        # The 5-cycle zeros are exact by construction; drop rounding residue.
        a[np.abs(a) < 1e-12 * np.abs(a).max()] = 0.0
        analyze_item(f"dnn5-pentagon-{i}", a, 3,
                     {"dnn5": "pentagon_slack", "extreme": True})
    for i in range(count):
        y = rng.uniform(0.1, 1.0, size=(5, 5)) + 0.5 * np.eye(5)
        analyze_item(f"dnn5-fullrank-{i}", y @ y.T, 5,
                     {"dnn5": "not_extreme", "extreme": False})
    return items


def _rescale(rng, m: np.ndarray) -> np.ndarray:
    d = np.exp(rng.uniform(-0.5, 0.5, size=m.shape[0]))
    return m * np.outer(d, d)


# ---------------------------------------------------------------------------
# Known-answer checks (run after the timed loop).
# ---------------------------------------------------------------------------

def check(item: Item, outcome: Outcome, reports: dict) -> str | None:
    """None when the call's result matches the item's known answer, else the
    reason it does not.  `reports` maps analyze item names to parsed
    reports, for the invariance checks."""
    if outcome.error is not None:
        return f"raised {outcome.error}"
    kind = item.expect["kind"]
    try:
        return {"search": _check_search, "verify": _check_verify,
                "dual": _check_dual, "analyze": _check_analyze}[kind](
                    item, outcome, reports)
    except (ValueError, KeyError, TypeError, IndexError, OSError) as exc:
        return f"unreadable output: {type(exc).__name__}: {exc}"


def _check_search(item, outcome, reports):
    from sdcones import search

    exp = item.expect
    out = Path(item.out_dir)
    stem = Path(item.argv[1]).stem
    transcript = json.loads((out / f"{stem}_transcript.json").read_text())
    if not exp["realizable"]:
        if outcome.code != 3:
            return f"exit {outcome.code}, expected 3 (no realization exists)"
        if transcript["success"] or len(transcript["attempts"]) != exp["retries"]:
            return "four-cycle transcript must record every attempt as failed"
        return None
    if outcome.code != 0:
        return f"exit {outcome.code}, expected 0: {outcome.stderr.strip()[:200]}"
    if json.loads(outcome.stdout) != transcript:
        return "stdout differs from the written transcript"
    rank = exp["rank"]
    refined = np.asarray(transcript["refined_matrix"], dtype=float)
    eig = np.sort(np.abs(np.linalg.eigvalsh(refined)))[::-1]
    if eig[rank:].size and eig[rank:].max() >= TRAILING_EIG_TOL:
        return f"trailing eigenvalue {eig[rank:].max():.3e} of the refined matrix"
    gens = _read_rows(out / f"{stem}_realization.cone")
    sigma = np.asarray(transcript["sisd_permutation"], dtype=int)
    pattern = search.SupportPattern(np.asarray(exp["bits"], dtype=np.uint8)[:, sigma])
    real = search.Realization(dim=rank, generators=gens, gram=gens @ gens.T, residuals={})
    report = search.verify_realization(real, pattern, RECERTIFY_TOL)
    if not report.passed:
        return "re-certification failed: " + "; ".join(report.details)
    return None


def _check_verify(item, outcome, reports):
    if outcome.code != 0:
        return f"exit {outcome.code}: {outcome.stderr.strip()[:200]}"
    payload = json.loads(outcome.stdout)
    want = item.expect["self_dual"]
    if payload["self_dual"] is not want:
        return f"self_dual={payload['self_dual']}, expected {want}"
    cert = payload["certificate"]
    if want and cert is None:
        return "self-dual verdict without a certificate"
    if want and cert["min_eigenvalue"] < -1e-9 * max(1.0, max(cert["scaling"])):
        return f"certificate min eigenvalue {cert['min_eigenvalue']:.3e}"
    return None


def _check_dual(item, outcome, reports):
    if outcome.code != 0:
        return f"exit {outcome.code}: {outcome.stderr.strip()[:200]}"
    lines = outcome.stdout.strip().splitlines()
    d, n = (int(v) for v in lines[0].split())
    normals = np.array([[float(v) for v in ln.split()] for ln in lines[1:]])
    gens = np.asarray(item.expect["generators"])
    want = _merge_directions(_hull_normals(gens))
    if n != len(want) or normals.shape != want.shape or d != gens.shape[1]:
        return f"{n} facets printed, ConvexHull finds {len(want)}"
    cos = (normals / np.linalg.norm(normals, axis=1)[:, None]) @ want.T
    if min(cos.max(axis=0).min(), cos.max(axis=1).min()) < DUAL_MATCH_COS:
        return "printed normals do not match the ConvexHull facets"
    if (gens @ normals.T).min() < -DUAL_ORIENT_TOL:
        return "a printed normal is not inward"
    return None


def _hull_normals(gens: np.ndarray) -> np.ndarray:
    """Unit inward facet normals of cone(gens), from scipy's ConvexHull of
    the cross-section at first coordinate 1, whose facets are the cone's."""
    from scipy.spatial import ConvexHull

    eq = ConvexHull(gens[:, 1:]).equations  # a.x + b <= 0 inside
    normals = -np.column_stack([eq[:, -1], eq[:, :-1]])
    return normals / np.linalg.norm(normals, axis=1)[:, None]


def _merge_directions(rows: np.ndarray, cos: float = DIRECTION_RESOLUTION_COS) -> np.ndarray:
    kept: list[np.ndarray] = []
    for r in rows:
        if all(float(r @ k) < cos for k in kept):
            kept.append(r)
    return np.array(kept)


def merged_facets(item: Item) -> int:
    """How many distinct ConvexHull facets of a `dual` item's cone lie
    within the package's direction resolution of another one."""
    hull = _hull_normals(np.asarray(item.expect["generators"]))
    # A non-simplicial facet appears once per triangle, with equal normals.
    return len(_merge_directions(hull, 1.0 - 1e-13)) - len(_merge_directions(hull))


# Fields of an analysis report that positive diagonal congruence and a
# simultaneous permutation must leave unchanged.
_INVARIANT_FIELDS = [
    ("rank", "value"), ("psd", "value"), ("dnn", "value"),
    ("slack_check", "value"), ("irreducible", "value"), ("simplicial", "value"),
    ("extremality", "extreme"), ("extremality", "intersection_dim"),
    ("extremality", "rank"), ("selfdual_certification", "certified"),
    ("verdicts", "dnn_extreme"), ("verdicts", "cp_member"),
    ("verdicts", "cpsd_member"), ("verdicts", "withheld"), ("dnn5", "label"),
]


def verdicts(report: dict) -> dict:
    res = report["results"]
    return {f"{a}.{b}": res.get(a, {}).get(b) for a, b in _INVARIANT_FIELDS}


# Facts the package's acceptance criteria 1-4 pin on the bundled matrices.
_GOLDEN = {
    # Criterion 1: the pentagon slack has rank 3 and is PSD; criterion 2: it
    # is an extreme ray of the DNN cone.
    "pentagon": {"rank.value": 3, "psd.value": True, "extremality.extreme": True,
                 "extremality.intersection_dim": 1, "slack_check.value": True,
                 "selfdual_certification.certified": True,
                 "dnn5.label": "pentagon_slack"},
    # Criteria 2 and 3: extreme, and accepted by the slack necessity check.
    "prism": {"extremality.extreme": True, "extremality.intersection_dim": 1,
              "slack_check.value": True, "selfdual_certification.certified": True},
    # Criteria 2 and 3: extreme, yet rejected as a slack matrix.
    "nonslack": {"extremality.extreme": True, "extremality.intersection_dim": 1,
                 "slack_check.value": False,
                 "selfdual_certification.certified": False},
    # Criterion 4: B is the slack of a sandwiched self-dual cone.
    "congruence_b": {"slack_check.value": True, "psd.value": True,
                     "selfdual_certification.certified": True},
    "selfpolar10": {},
}


def _check_analyze(item, outcome, reports):
    if outcome.code != 0:
        return f"exit {outcome.code}: {outcome.stderr.strip()[:200]}"
    got = verdicts(json.loads(outcome.stdout))
    exp = item.expect
    if exp.get("golden"):
        for key, want in _GOLDEN[exp["golden"]].items():
            if got[key] != want:
                return f"{key}={got[key]!r}, golden value {want!r}"
        if exp["golden"] == "nonslack":
            reasons = json.loads(outcome.stdout)["results"]["slack_check"]["reasons"]
            if not any("only 2 zeros" in r and "at least 3" in r for r in reasons):
                return "nonslack rejection does not name the two-zero rows"
    if exp.get("base"):
        base = reports.get(exp["base"])
        if base is None:
            return f"base report {exp['base']} missing"
        diff = {k: (got[k], v) for k, v in verdicts(base).items() if got[k] != v}
        if diff:
            return f"verdicts differ from the base matrix: {diff}"
    if "dnn5" in exp:
        if got["dnn5.label"] != exp["dnn5"]:
            return f"dnn5 label {got['dnn5.label']!r}, built as {exp['dnn5']!r}"
        if got["extremality.extreme"] is not exp["extreme"]:
            return f"extreme={got['extremality.extreme']}, built as {exp['extreme']}"
    return None


def _read_rows(path: Path) -> np.ndarray:
    lines = [ln.split() for ln in path.read_text().splitlines() if ln.strip()]
    return np.array([[float(v) for v in ln] for ln in lines[1:]])


def verdict_of(item: Item, outcome: Outcome):
    """The part of a call's output that its known answer is about."""
    if outcome.code != 0 or outcome.error is not None:
        return {"exit": outcome.code, "error": outcome.error}
    kind = item.expect["kind"]
    if kind == "search":
        return {"exit": 0}
    if kind == "verify":
        return json.loads(outcome.stdout)["self_dual"]
    if kind == "dual":
        return outcome.stdout.split("\n", 1)[0]
    return verdicts(json.loads(outcome.stdout))
