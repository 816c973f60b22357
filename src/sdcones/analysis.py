"""The analysis pass: every test of the package on one matrix, in one report.

analyze_matrix certifies the matrix's DNN extremality once; the verdicts and
the 5x5 label read that certificate, through the rules dnn keeps for them.
Decompositions are not shared: the rank and PSD tests, the extremality test,
the slack check and the factor-cone round trip each decompose the matrix.
"""

from __future__ import annotations

import dataclasses
import json
import math
from pathlib import Path

import numpy as np

from . import __version__, dnn, geometry, linalg, selfdual
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
        return to_json(self)

    @classmethod
    def from_json(cls, text: str) -> "AnalysisReport":
        return cls(**json.loads(text))


def to_json(obj) -> str:
    """obj as the JSON text sdcones prints and writes: keys sorted, indent 2."""
    return json.dumps(_json_ready(obj), sort_keys=True, indent=2)


def _json_ready(obj):
    """Recursively convert dataclasses (as their fields) and numpy containers
    for json.dumps."""
    if isinstance(obj, dict):
        return {str(k): _json_ready(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_ready(v) for v in obj]
    if isinstance(obj, (np.ndarray, np.generic)):
        return _json_ready(obj.tolist())
    if isinstance(obj, float):
        return None if obj != obj else obj  # NaN has no JSON spelling
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return _json_ready({f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)})
    return obj


def analyze_matrix(matrix: np.ndarray, d: int, tol: float, origin: str) -> AnalysisReport:
    """Report on a nonnegative symmetric matrix as a candidate PSD slack of a
    self-dual cone in R^d, judged at relative tolerance tol.  An empty
    matrix, a d below 1 or a tol that is not finite and positive raises
    PreconditionError."""
    if d < 1:
        raise PreconditionError(f"rank must be >= 1, got {d}")
    if not (math.isfinite(tol) and tol > 0.0):
        raise PreconditionError(f"tol must be finite and positive, got {tol}")
    m = linalg.require_symmetric(matrix)
    if m.size == 0:
        raise PreconditionError("analyze expects a nonempty matrix")
    if m.min() < 0.0:
        raise PreconditionError("analyze expects a nonnegative matrix")
    n = m.shape[0]
    results: dict = {}

    rank = linalg.numeric_rank(m)
    results["rank"] = {"value": rank, "provenance": "numerical"}

    eig = linalg.sym_eigen(m)
    min_eig = float(eig.values[-1])
    scale = float(np.abs(m).max())
    is_psd = min_eig >= -tol * max(scale, 1e-300)
    results["psd"] = {
        "value": bool(is_psd),
        "min_eigenvalue": min_eig,
        "provenance": "numerical",
    }
    # m >= 0 was checked above, so the matrix is DNN exactly when it is PSD.
    results["dnn"] = {"value": bool(is_psd), "provenance": "numerical"}

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

    certified, detail = False, "matrix is not PSD"
    if is_psd:
        rep = dnn.dnn_extremality(m, tol)
        results["extremality"] = dict(vars(rep), provenance="numerical")
        if slack_ok:
            certified, detail = selfdual._factor_cone_round_trip(m, d)
        else:
            certified, detail = False, "; ".join(reasons)
    else:
        results["extremality"] = {
            "extreme": None,
            "reason": "matrix is not doubly nonnegative",
            "provenance": "numerical",
        }
    results["selfdual_certification"] = {
        "certified": bool(certified),
        "detail": detail,
        "provenance": "factor-cone-round-trip",
    }

    if certified:
        verdicts = dnn._slack_verdicts(rep, irreducible, simplicial)
        results["verdicts"] = verdicts
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
        input={"path": origin, "rows": n, "cols": n},
        version=__version__,
        params={"rank": d, "tol": tol},
        results=_json_ready(results),
    )
