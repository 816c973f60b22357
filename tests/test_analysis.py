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

import json

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sdcones import __version__, analysis, cli, data, dnn, geometry, linalg, selfdual
from sdcones.errors import ConvergenceError, PreconditionError

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
    if m.min() < 0.0:
        raise PreconditionError("analyze expects a nonnegative matrix")
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

    certified = False
    detail = "matrix is not PSD"
    if is_psd:
        certified, detail = selfdual.certify_psd_slack(m, d)
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


def count_eigh(monkeypatch) -> list:
    """Record every LAPACK eigendecomposition made from now on."""
    calls, eigh = [], linalg._eigh

    def counted(w):
        calls.append(w.shape)
        return eigh(w)

    monkeypatch.setattr(linalg, "_eigh", counted)
    return calls


class TestOneDecomposition:
    def test_analyze_on_the_pentagon(self, tmp_path, monkeypatch, capsys):
        # One in the pass, one in dnn_extremality, one in the factor cone of
        # the certification.
        geometry.save_matrix(tmp_path / "m.mat", data.pentagon_slack())
        calls = count_eigh(monkeypatch)
        assert cli.main(["analyze", str(tmp_path / "m.mat"), "--rank", "3"]) == 0
        assert json.loads(capsys.readouterr().out)["results"]["verdicts"]["dnn_extreme"]
        assert len(calls) <= 3

    def test_one_slack_check_per_item(self, tmp_path, monkeypatch, capsys):
        # The pass runs the necessary slack check once and hands its result
        # to the certification, which used to run it again.
        geometry.save_matrix(tmp_path / "m.mat", data.pentagon_slack())
        calls, check = [], geometry.slack_necessary_check

        def counted(m, d):
            calls.append(d)
            return check(m, d)

        monkeypatch.setattr(geometry, "slack_necessary_check", counted)
        assert cli.main(["analyze", str(tmp_path / "m.mat"), "--rank", "3"]) == 0
        report = json.loads(capsys.readouterr().out)["results"]
        assert report["selfdual_certification"]["certified"]
        assert calls == [3]

    @pytest.mark.parametrize("run", [dnn.dnn_extremality, dnn.dnn5_classify])
    def test_dnn_certificates(self, monkeypatch, run):
        calls = count_eigh(monkeypatch)
        run(data.pentagon_slack())
        assert len(calls) == 1


def test_empty_matrix_rejected():
    with pytest.raises(PreconditionError, match="nonempty matrix"):
        analysis.analyze_matrix(np.zeros((0, 0)), 1, dnn.DEFAULT_DNN_TOL, "empty")
