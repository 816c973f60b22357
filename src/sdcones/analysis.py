"""The analysis pass: every test of the package on one matrix, in one report.

analyze_matrix takes one eigendecomposition of the matrix and shares it
with every test: the rank (read from the absolute eigenvalues by linalg's one
rank rule), the PSD test (EigenDecomposition.is_psd), the slack pattern
check (handed that rank), the DNN extremality test and the factor cone of the
self-duality verdict, selfdual._psd_slack_verdict, which certify_psd_slack
gives too; and one patterns.slack_support mask with every support test.  It
certifies the matrix's DNN extremality once; the verdicts and the 5x5 label
read that certificate, through the rules dnn keeps for them.  No step forms
the singular vectors of a matrix: the facet scan of the factor cone takes one
stacked QR, and every rank around it reads singular values only.

The public dnn_extremality, classify_psd_slack, cone_from_factorization and
certify_psd_slack each take one decomposition of their own input, and run
the pass's code where they judge the same question: dnn.is_dnn agrees with
the report's "dnn" at every tol on a matrix analyze accepts, and
certify_psd_slack with its "selfdual_certification" at the default tol.

to_json is the package's one JSON writer: every report, transcript and
payload the CLI prints or writes goes through it.
"""

from __future__ import annotations

import dataclasses
import math
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

from . import __version__, dnn, geometry, linalg, patterns, selfdual
from .errors import PreconditionError

SCHEMA_PATH = Path(__file__).parent / "schemas" / "analysis_report.schema.json"


@dataclasses.dataclass
class AnalysisReport:
    """Structured record of every test run on an input matrix.

    Each entry of results carries a `provenance` string naming the rule or
    computation that produced it; serialization round-trips losslessly.
    """

    input: dict
    version: str
    params: dict
    results: dict

    def to_json(self) -> str:
        """The report as `sdcones analyze` prints it."""
        return to_json(self)


def to_json(obj) -> str:
    """obj as the JSON text sdcones prints and writes."""
    return _dumps(obj, "\n")


def _dumps(obj, newline: str) -> str:
    """obj as json.dumps(sort_keys=True, indent=2) writes it, with numpy values
    as their tolist(), dataclasses as dicts of their fields, dict keys as
    str(key) and NaN as null; newline breaks the line and indents to obj's
    own depth.  TypeError for any other type, as json.dumps raises."""
    if isinstance(obj, float):
        if obj != obj:
            return "null"  # NaN has no JSON spelling
        if math.isinf(obj):
            return "Infinity" if obj > 0.0 else "-Infinity"
        return float.__repr__(obj)
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = newline + "  "
        named = {str(k): v for k, v in obj.items()}
        return "{" + inner + ("," + inner).join(
            encode_basestring_ascii(k) + ": " + _dumps(named[k], inner)
            for k in sorted(named)) + newline + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = newline + "  "
        return "[" + inner + ("," + inner).join(
            _dumps(v, inner) for v in obj) + newline + "]"
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, (np.ndarray, np.generic)):
        return _dumps(obj.tolist(), newline)
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return _dumps({f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)},
                      newline)
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def analyze_matrix(matrix: np.ndarray, d: int, tol: float, origin: str) -> AnalysisReport:
    """Report on a symmetric matrix as a candidate PSD slack of a self-dual
    cone in R^d, judged at relative tolerance tol.  An empty matrix, a
    negative entry on its patterns.slack_support, a d below 1 or a tol that
    is not finite and positive raises PreconditionError."""
    if d < 1:
        raise PreconditionError(f"rank must be >= 1, got {d}")
    if not (math.isfinite(tol) and tol > 0.0):
        raise PreconditionError(f"tol must be finite and positive, got {tol}")
    m = linalg.require_symmetric(matrix)
    if m.size == 0:
        raise PreconditionError("analyze expects a nonempty matrix")
    support = patterns.slack_support(m)
    n = m.shape[0]
    results: dict = {}

    eig = linalg.sym_eigen(m)
    rank = eig.rank()
    results["rank"] = {"value": rank, "provenance": "numerical"}

    # slack_support refused every entry is_dnn's sign test would: DNN is PSD.
    is_psd = eig.is_psd(float(np.abs(m).max()), tol)
    results["psd"] = {
        "value": bool(is_psd),
        "min_eigenvalue": float(eig.values[-1]),
        "provenance": "numerical",
    }
    results["dnn"] = {"value": bool(is_psd), "provenance": "numerical"}

    reasons = geometry.slack_pattern_reasons(m, d, rank=rank, support=support)
    results["slack_check"] = {
        "value": not reasons,
        "reasons": reasons,
        "provenance": "pattern",
    }

    irreducible = patterns.is_connected(support)
    simplicial = selfdual._is_permutation_pattern(support)
    results["irreducible"] = {"value": bool(irreducible), "provenance": "support-graph"}
    results["simplicial"] = {"value": bool(simplicial), "provenance": "pattern"}

    if is_psd:
        rep = dnn._extremality(m, eig, support, tol)
        borderline = rep.borderline  # JSON object keys are strings
        if borderline is not None:
            borderline = {str(k): v for k, v in borderline.items()}
        results["extremality"] = dict(
            vars(rep), borderline=borderline, provenance="numerical"
        )
    else:
        results["extremality"] = {
            "extreme": None,
            "reason": "matrix is not doubly nonnegative",
            "provenance": "numerical",
        }
    certified, detail = selfdual._psd_slack_verdict(is_psd, reasons, eig, support, d)
    results["selfdual_certification"] = {
        "certified": bool(certified),
        "detail": detail,
        "provenance": "factor-cone-round-trip",
    }

    if certified:
        results["verdicts"] = vars(dnn._slack_verdicts(rep, irreducible, simplicial))
    else:
        results["verdicts"] = {
            "withheld": True,
            "reason": detail,
            "provenance": "hypotheses-not-certified",
        }

    if n == 5 and is_psd:
        results["dnn5"] = {
            "label": dnn._dnn5_label(rank, rep),
            "provenance": "rank-and-support-classification",
        }

    return AnalysisReport(
        input={"path": str(origin), "rows": n, "cols": n},
        version=__version__,
        params={"rank": int(d), "tol": float(tol)},
        results=results,
    )
