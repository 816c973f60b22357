"""The analysis pass against the pass it replaced, and its decomposition
count.

`parent_analyze_json` is the analysis pass as it was when it lived in the
CLI: it composes the public functions, each of which decomposes the matrix
again.  The single-decomposition pass has to print the same report, byte for
byte, on every input but one kind: the old pass judged the membership
verdicts at the default tolerance whatever tol it was given, so where that
made it fail, the outputs may differ.
"""

from __future__ import annotations

import dataclasses
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sdcones import __version__, analysis, cli, data, dnn, geometry, linalg, patterns, selfdual
from sdcones.errors import ConvergenceError, PreconditionError

from conftest import block_diagonal_dnn

# The error the old pass raised when tol admitted a matrix that the default
# tolerance of its verdict step did not.
DEFAULT_TOL_VERDICT_ERROR = "a PSD slack must be doubly nonnegative"


def _parent_json_ready(obj):
    """Recursively convert numpy containers for json.dumps."""
    if isinstance(obj, dict):
        return {str(k): _parent_json_ready(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_parent_json_ready(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _parent_json_ready(obj.tolist())
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    if isinstance(obj, float) and (obj != obj):  # NaN has no JSON spelling
        return None
    return obj


def parent_analyze_json(matrix: np.ndarray, d: int, tol: float, origin: str) -> str:
    """The old CLI analysis pass, returning its report's to_json() text."""
    m = linalg.require_symmetric(matrix)
    # Entries at most SUPPORT_CLAMP times the largest are zeros whatever
    # their sign; a negative entry beyond that refuses the matrix.
    if (m < -patterns.SUPPORT_CLAMP * np.abs(m).max(initial=0.0)).any():
        raise PreconditionError("matrix must be entrywise nonnegative")
    n = m.shape[0]
    results: dict = {}

    rank = linalg.numeric_rank(m)
    results["rank"] = {"value": rank, "provenance": "numerical"}

    eig = linalg.sym_eigen(m)
    min_eig = float(eig.values[-1]) if eig.values.size else 0.0
    scale = float(np.abs(m).max()) if m.size else 0.0
    is_psd = min_eig >= -tol * max(scale, 1e-300)
    results["psd"] = {
        "value": bool(is_psd),
        "min_eigenvalue": min_eig,
        "provenance": "numerical",
    }
    results["dnn"] = {"value": bool(dnn.is_dnn(m, tol)), "provenance": "numerical"}

    slack_ok, reasons = geometry.slack_necessary_check(m, d)
    results["slack_check"] = {
        "value": bool(slack_ok),
        "reasons": reasons,
        "provenance": "pattern",
    }

    irreducible = selfdual.is_irreducible(m)
    simplicial = selfdual.is_simplicial(m)
    results["irreducible"] = {"value": bool(irreducible), "provenance": "support-graph"}
    results["simplicial"] = {"value": bool(simplicial), "provenance": "pattern"}

    if results["dnn"]["value"]:
        rep = dnn.dnn_extremality(m, tol)
        results["extremality"] = {
            "extreme": rep.extreme,
            "intersection_dim": rep.intersection_dim,
            "rank": rep.rank,
            "support_cycle5": rep.support_cycle5,
            "borderline": rep.borderline,
            "provenance": "numerical",
        }
    else:
        results["extremality"] = {
            "extreme": None,
            "reason": "matrix is not doubly nonnegative",
            "provenance": "numerical",
        }

    # The old pass certified a PSD matrix without a PSD test of its own:
    # the slack pattern reasons, then the factor cone's round trip.
    certified = False
    detail = "matrix is not PSD"
    if is_psd and reasons:
        detail = "; ".join(reasons)
    elif is_psd:
        try:
            cone = geometry.cone_from_factorization(m, d)
        except PreconditionError as exc:
            detail = str(exc)
        else:
            trip = selfdual.certify_slack(
                cone, patterns.support_of(m), geometry.DEFAULT_FACET_TOL)
            certified = trip.passed
            detail = ("factor-cone round trip reproduces the support" if certified
                      else "; ".join(trip.details))
    results["selfdual_certification"] = {
        "certified": bool(certified),
        "detail": detail,
        "provenance": "factor-cone-round-trip",
    }

    if certified:
        verdicts = dnn.classify_psd_slack(m, irreducible, simplicial)
        results["verdicts"] = {
            "dnn_extreme": verdicts.dnn_extreme,
            "cp_member": verdicts.cp_member,
            "cpsd_member": verdicts.cpsd_member,
            "provenance": verdicts.provenance,
        }
    else:
        results["verdicts"] = {
            "withheld": True,
            "reason": detail,
            "provenance": "hypotheses-not-certified",
        }

    if n == 5 and results["dnn"]["value"]:
        results["dnn5"] = {
            "label": dnn.dnn5_classify(m, tol),
            "provenance": "rank-and-support-classification",
        }

    report = {
        "input": {"path": origin, "rows": n, "cols": n},
        "version": __version__,
        "params": {"rank": d, "tol": tol},
        "results": _parent_json_ready(results),
    }
    return json.dumps(report, sort_keys=True, indent=2)


def outcome(run, *args) -> tuple[str, str]:
    """("ok", output) or (error type, message) of one call."""
    try:
        return "ok", run(*args)
    except (PreconditionError, ConvergenceError) as exc:
        return type(exc).__name__, str(exc)


def same_as_parent(m: np.ndarray, d: int, tol: float) -> bool:
    """Assert that both passes give the same report or the same error;
    False, with nothing compared, where the old pass raised the error of its
    default-tolerance verdict step."""
    old = outcome(parent_analyze_json, m, d, tol, "m.mat")
    if old == ("PreconditionError", DEFAULT_TOL_VERDICT_ERROR):
        return False
    new = outcome(lambda *a: analysis.analyze_matrix(*a).to_json(), m, d, tol, "m.mat")
    assert new == old
    return True


BUNDLED = {
    "pentagon": (data.pentagon_slack(), 3),
    "prism": (data.prism_slack(), 4),
    "nonslack": (data.nonslack_extreme_matrix(), 4),
    "congruence_a": (data.congruence_triple()[0], 4),
    "congruence_b": (data.congruence_triple()[1], 4),
    "selfpolar10": (data.ten_gram(), 4),
    "identity5": (np.eye(5), 5),
}
TOLS = [1e-9, 1e-6]
# Diagonal shifts, relative to max|entry|, that move the smallest eigenvalue
# below 0: within both tolerances, between them, and outside both.
SHIFTS = [0.0, 5e-10, 5e-9, 1e-3]


def shifted(m: np.ndarray, shift: float) -> np.ndarray:
    return m - shift * np.abs(m).max() * np.eye(m.shape[0])


class TestSameReportAsTheParentPass:
    @pytest.mark.parametrize("tol", TOLS)
    @pytest.mark.parametrize("name", sorted(BUNDLED))
    def test_bundled_rescaled_and_permuted(self, name, tol):
        m, d = BUNDLED[name]
        rng = np.random.default_rng(sorted(BUNDLED).index(name))
        n = m.shape[0]
        for _ in range(4):
            scales = np.exp(rng.uniform(-0.5, 0.5, size=n))
            perm = rng.permutation(n)
            for variant in (m, m * np.outer(scales, scales), m[np.ix_(perm, perm)]):
                assert same_as_parent(variant, d, tol)

    @settings(max_examples=150, deadline=None)
    @given(
        family=st.sampled_from(["rank1", "pentagon", "fullrank"]),
        seed=st.integers(0, 2**32 - 1),
        d=st.integers(1, 5),
        tol=st.sampled_from(TOLS),
        shift=st.sampled_from(SHIFTS),
    )
    def test_dnn5_families(self, family, seed, d, tol, shift):
        rng = np.random.default_rng(seed)
        if family == "rank1":
            x = rng.uniform(0.2, 1.5, size=5)
            m = np.outer(x, x)
        elif family == "pentagon":
            scales = np.exp(rng.uniform(-0.7, 0.7, size=5))
            perm = rng.permutation(5)
            m = (data.pentagon_slack() * np.outer(scales, scales))[np.ix_(perm, perm)]
        else:
            y = rng.uniform(0.1, 1.0, size=(5, 5)) + 0.5 * np.eye(5)
            m = y @ y.T
        assume(same_as_parent(shifted(m, shift), d, tol))

    @settings(max_examples=150, deadline=None)
    @given(
        n=st.integers(1, 8),
        seed=st.integers(0, 2**32 - 1),
        data_=st.data(),
        tol=st.sampled_from(TOLS),
        shift=st.sampled_from(SHIFTS),
    )
    def test_random_gram_matrices(self, n, seed, data_, tol, shift):
        k = data_.draw(st.integers(1, n), label="k")
        d = data_.draw(st.integers(1, n), label="d")
        rng = np.random.default_rng(seed)
        x = rng.uniform(0.0, 1.0, size=(n, k))
        x[rng.uniform(size=(n, k)) < 0.4] = 0.0
        assume(same_as_parent(shifted(x @ x.T, shift), d, tol))


def count_decompositions(monkeypatch) -> list:
    """Record (kind, input shape, vectors) for every eigh, svd and qr call
    made from now on: kind is "eigh", "svd" or "qr", and vectors whether the
    call forms eigenvectors, singular vectors or reflectors (eigh and qr
    always do, svd unless compute_uv is False).  svd and qr are numpy.linalg's;
    eigh is numpy's eigh kernel, which linalg calls directly.  A stacked call,
    such as the facet scan's, has a batch axis in its shape, so whole-matrix
    calls on an n x n matrix are the entries with shape (n, n)."""
    calls = []
    for module, kind, name in ((linalg, "eigh", "_eigh_lo"), (np.linalg, "svd", "svd"),
                               (np.linalg, "qr", "qr")):
        run = getattr(module, name)

        def counted(a, *args, kind=kind, run=run, **kwargs):
            vectors = kind != "svd" or kwargs.get("compute_uv", True)
            calls.append((kind, np.shape(a), bool(vectors)))
            return run(a, *args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    return calls


def support_calls(monkeypatch) -> list:
    """Record the shape of every patterns.support_of call made from now on,
    through each module that binds the name."""
    calls = []
    support_of = patterns.support_of

    def counted(a):
        calls.append(np.shape(a))
        return support_of(a)

    for module in (dnn, patterns, selfdual):
        monkeypatch.setattr(module, "support_of", counted)
    return calls


class TestOneDecomposition:
    @pytest.mark.parametrize("name", ["pentagon", "prism"])
    def test_one_eigh_and_no_singular_vectors_of_n_rows(self, monkeypatch, name):
        # The rank, the PSD test, the slack check, the extremality test and
        # the factor cone all read one eigendecomposition of the input.  No
        # SVD forms singular vectors: the facet scan's normals come from
        # one stacked QR, and the ranks around it from values-only SVDs.
        m, d = BUNDLED[name]
        n = m.shape[0]
        calls = count_decompositions(monkeypatch)
        report = analysis.analyze_matrix(m, d, linalg.PSD_TOL, name)
        assert report.results["verdicts"]["dnn_extreme"]
        assert report.results["selfdual_certification"]["certified"]
        assert [c for c in calls if c[0] == "eigh"] == [("eigh", (n, n), True)]
        subsets = math.comb(n, d - 1)
        assert [c for c in calls if c[0] == "qr"] == [("qr", (subsets, d, d - 1), True)]
        assert [uv for kind, _, uv in calls if kind == "svd"] == [False] * 3

    @pytest.mark.parametrize("name", ["pentagon", "prism", "nonslack"])
    def test_one_support_mask_per_matrix(self, monkeypatch, name):
        # The input's mask serves the slack check, the support-graph tests,
        # the extremality test and the certifier's support test; no other
        # mask is taken.
        m, d = BUNDLED[name]
        calls = support_calls(monkeypatch)
        report = analysis.analyze_matrix(m, d, linalg.PSD_TOL, name)
        certified = report.results["selfdual_certification"]["certified"]
        assert certified == (name != "nonslack")
        assert calls == [m.shape]

    def test_one_slack_check_per_item(self, tmp_path, monkeypatch, capsys):
        # The pass runs the slack pattern check once on its input, with the
        # rank it read from its eigendecomposition.
        slack = data.pentagon_slack()
        geometry.save_matrix(tmp_path / "m.mat", slack)
        calls, check = [], geometry.slack_pattern_reasons

        def counted(m, d=None, **kwargs):
            if np.array_equal(m, slack):
                calls.append(d)
            return check(m, d, **kwargs)

        monkeypatch.setattr(geometry, "slack_pattern_reasons", counted)
        assert cli.main(["analyze", str(tmp_path / "m.mat"), "--rank", "3"]) == 0
        report = json.loads(capsys.readouterr().out)["results"]
        assert report["selfdual_certification"]["certified"]
        assert calls == [3]

    @pytest.mark.parametrize("run", [
        dnn.dnn_extremality,
        dnn.dnn5_classify,
        lambda m: dnn.classify_psd_slack(m, irreducible=True, simplicial=False),
    ], ids=["dnn_extremality", "dnn5_classify", "classify_psd_slack"])
    def test_dnn_certificates(self, monkeypatch, run):
        calls = count_decompositions(monkeypatch)
        run(data.pentagon_slack())
        assert [c for c in calls if c[0] == "eigh"] == [("eigh", (5, 5), True)]
        assert not [c for c in calls if c[0] == "svd" and (c[1] == (5, 5) or c[2])]


def test_block_diagonal_dnn_stays_small():
    # The W1 ∩ W2 system has 4 500 rows (the zeros of the upper triangle)
    # and 210 columns; its rank must not form a 4 500 x 4 500 U (162 MB).
    m = block_diagonal_dnn()
    tracemalloc.start()
    try:
        report = analysis.analyze_matrix(m, 20, linalg.PSD_TOL, "blocks")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.results["irreducible"]["value"] is False
    assert report.results["extremality"]["intersection_dim"] == 30
    assert peak < 100 * 2**20


def test_empty_matrix_rejected():
    with pytest.raises(PreconditionError, match="nonempty matrix"):
        analysis.analyze_matrix(np.zeros((0, 0)), 1, linalg.PSD_TOL, "empty")


@dataclasses.dataclass
class _Record:
    name: str
    values: tuple


@pytest.mark.parametrize("obj, plain", [
    ({"b": [1, 2.5, None], "a": {}, 3: "é\n\"", True: []},
     {"b": [1, 2.5, None], "a": {}, "3": "é\n\"", "True": []}),
    ([np.float64(0.1), np.int64(-7), np.bool_(False), np.arange(2.0), np.zeros((2, 0)),
      (), [math.inf, -math.inf, -0.0, 1e-300, 2**70]],
     [0.1, -7, False, [0.0, 1.0], [[], []], [], [math.inf, -math.inf, -0.0, 1e-300, 2**70]]),
    (float("nan"), None),
    ({"nan": np.array([1.0, np.nan])}, {"nan": [1.0, None]}),
    (_Record("r", (1, np.float32(0.5))), {"name": "r", "values": [1, 0.5]}),
], ids=["dict", "numbers", "nan", "numpy-nan", "dataclass"])
def test_one_writer_gives_the_bytes_of_json_dumps(obj, plain):
    assert analysis.to_json(obj) == json.dumps(plain, sort_keys=True, indent=2)


def test_writer_refuses_other_types():
    with pytest.raises(TypeError, match="not JSON serializable"):
        analysis.to_json({"a": [object()]})
