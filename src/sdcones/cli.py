"""Command-line front end: file I/O, JSON reporting, bundled data.

Subcommands: slack, dual, analyze, verify, search, examples.  Exit codes:
0 success, 2 precondition failure, 3 numerical non-convergence, 4 parse
error.  All randomness is seeded, so every command is deterministic given
its flags.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from . import __version__, data, dnn, geometry, linalg, search, selfdual
from .errors import ConvergenceError, ParseError, PreconditionError

EXIT_OK = 0
EXIT_PRECONDITION = 2
EXIT_NO_CONVERGENCE = 3
EXIT_PARSE = 4

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
        return json.dumps(dataclasses.asdict(self), sort_keys=True, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "AnalysisReport":
        raw = json.loads(text)
        return cls(
            input=raw["input"],
            version=raw["version"],
            params=raw["params"],
            results=raw["results"],
        )


def _json_ready(obj):
    """Recursively convert numpy containers for json.dumps."""
    if isinstance(obj, dict):
        return {str(k): _json_ready(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_ready(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _json_ready(obj.tolist())
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    if isinstance(obj, float) and (obj != obj):  # NaN has no JSON spelling
        return None
    return obj


def certify_psd_slack(matrix: np.ndarray, d: int) -> tuple[bool, str]:
    """Certify that a symmetric PSD matrix is a slack matrix of a self-dual
    cone by rebuilding the cone from its spectral factor and matching the
    rebuilt slack's support back to the input.
    """
    ok, reasons = geometry.slack_necessary_check(matrix, d)
    if not ok:
        return False, "; ".join(reasons)
    try:
        cone = geometry.cone_from_factorization(matrix, d)
        rebuilt = geometry.slack_matrix(cone)
    except PreconditionError as exc:
        return False, str(exc)
    rb = rebuilt.matrix
    if rb.shape != matrix.shape:
        return False, (
            f"rebuilt cone has {rb.shape[1]} facets for {rb.shape[0]} rays; "
            "not self-dual"
        )
    duals = geometry.facet_normals(cone)
    mapping = geometry.match_generators(cone.generators, duals, tol=1e-7)
    if mapping is None:
        return False, "rebuilt dual generators do not match the primal ones"
    aligned = np.zeros_like(rb)
    aligned[:, mapping] = rb
    if not np.array_equal(search.support_of(aligned), search.support_of(matrix)):
        return False, "rebuilt slack support differs from the input support"
    return True, "factor-cone round trip reproduces the support"


def analyze_matrix(matrix: np.ndarray, d: int, tol: float, origin: str) -> AnalysisReport:
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
        certified, detail = certify_psd_slack(m, d)
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

    return AnalysisReport(
        input={"path": origin, "rows": n, "cols": n},
        version=__version__,
        params={"rank": d, "tol": tol},
        results=_json_ready(results),
    )


# ---------------------------------------------------------------------------
# Subcommand bodies; each returns (exit_code, stdout text).
# ---------------------------------------------------------------------------

def _format_matrix_text(m: np.ndarray) -> str:
    return "\n".join(" ".join(f"{x:.12g}" for x in row) for row in m)


def cmd_slack(path: str, tol: float, as_json: bool, out: str | None) -> tuple[int, str]:
    cone = geometry.load_cone(path)
    _require_extreme(cone, tol)
    sm = geometry.slack_matrix(cone, tol)
    if out:
        geometry.save_matrix(out, sm.matrix)
    if as_json:
        payload = {
            "cone_dim": sm.cone_dim,
            "row_labels": sm.row_labels,
            "col_labels": sm.col_labels,
            "matrix": _json_ready(sm.matrix),
        }
        return EXIT_OK, json.dumps(payload, sort_keys=True, indent=2)
    header = (
        f"slack matrix: {sm.shape[0]} rays x {sm.shape[1]} facets, "
        f"cone dimension {sm.cone_dim}"
    )
    return EXIT_OK, header + "\n" + _format_matrix_text(sm.matrix)


def _require_extreme(cone: geometry.PolyhedralCone, tol: float) -> None:
    reduced = geometry.extreme_rays(cone.generators, tol)
    if reduced.n_rays != cone.n_rays:
        raise PreconditionError(
            f"{cone.n_rays - reduced.n_rays} generator(s) are not extreme rays"
        )


def cmd_dual(path: str, tol: float, out: str | None) -> tuple[int, str]:
    cone = geometry.load_cone(path)
    normals = geometry.facet_normals(cone, tol)
    if out:
        geometry.save_cone(out, normals)
    lines = [f"{normals.shape[1]} {normals.shape[0]}"]
    lines += [" ".join(f"{x:.17g}" for x in row) for row in normals]
    return EXIT_OK, "\n".join(lines)


def cmd_analyze(path: str, d: int, tol: float) -> tuple[int, str]:
    matrix = geometry.load_matrix(path)
    report = analyze_matrix(matrix, d, tol, origin=path)
    return EXIT_OK, report.to_json()


def cmd_verify(path: str, tol: float) -> tuple[int, str]:
    cone = geometry.load_cone(path)
    _require_extreme(cone, tol)
    ok, cert = selfdual.is_self_dual(cone, tol)
    payload: dict = {"input": path, "self_dual": bool(ok), "version": __version__}
    if cert is not None:
        payload["certificate"] = {
            "permutation": _json_ready(cert.permutation),
            "scaling": _json_ready(cert.scaling),
            "min_eigenvalue": cert.min_eigenvalue,
        }
    else:
        payload["certificate"] = None
    return EXIT_OK, json.dumps(payload, sort_keys=True, indent=2)


def cmd_search(
    path: str,
    params: search.SearchParams,
    out_dir: str,
    verify_tol: float,
) -> tuple[int, str]:
    bits = search.load_support(path)
    result = search.run_pipeline(bits, params, verify_tol)
    stem = Path(path).stem
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    transcript = _transcript_payload(path, result)
    transcript_path = out / f"{stem}_transcript.json"
    transcript_text = json.dumps(transcript, sort_keys=True, indent=2)
    transcript_path.write_text(transcript_text + "\n", encoding="utf-8")
    if result.success:
        cone_path = out / f"{stem}_realization.cone"
        geometry.save_cone(cone_path, result.realization.generators)
        return EXIT_OK, transcript_text
    if result.sisd_permutation is None:
        raise PreconditionError("support is not strongly involutive")
    raise ConvergenceError(result.failure or "search failed")


def _transcript_payload(path: str, result: search.PipelineResult) -> dict:
    payload: dict = {
        "input": path,
        "version": __version__,
        "params": result.params.to_dict(),
        "success": result.success,
        "failure": result.failure,
        "sisd_permutation": _json_ready(result.sisd_permutation),
    }
    if result.retry is not None:
        payload["attempts"] = [
            {
                "index": a.index,
                "sdp_converged": a.sdp_converged,
                "sdp_iterations": a.sdp_iterations,
                "objective": a.objective,
                "objective_trace": _json_ready(a.objective_trace),
                "sdp_residuals": _json_ready(a.sdp_residuals),
                "refine_converged": a.refine_converged,
                "refine_iterations": a.refine_iterations,
                "refine_reason": a.refine_reason,
                "refine_rank_residuals": _json_ready(a.refine_rank_residuals),
                "refine_affine_residuals": _json_ready(a.refine_affine_residuals),
                "nonnegative": a.nonnegative,
                "certified": a.certified,
                "certify_reason": a.certify_reason,
            }
            for a in result.retry.attempts
        ]
        if result.retry.matrix is not None:
            payload["refined_matrix"] = _json_ready(result.retry.matrix)
    if result.realization is not None:
        payload["realization"] = {
            "dim": result.realization.dim,
            "generators": _json_ready(result.realization.generators),
            "residuals": _json_ready(result.realization.residuals),
        }
    if result.verification is not None:
        payload["verification"] = {
            "generator_match": result.verification.generator_match,
            "support_match": result.verification.support_match,
            "entries_positive": result.verification.entries_positive,
            "worst_cosine": result.verification.worst_cosine,
            "min_structural_ratio": result.verification.min_structural_ratio,
            "max_off_support_ratio": result.verification.max_off_support_ratio,
            "details": result.verification.details,
            "passed": result.verification.passed,
        }
    return payload


EXAMPLE_WRITERS = {
    "pentagon": lambda out: [
        _write_cone(out / "pentagon_rays.cone", data.pentagon_rays()),
        _write_matrix(out / "pentagon_slack.mat", data.pentagon_slack()),
        _write_support(out / "pentagon.support", data.pentagon_support()),
    ],
    "prism": lambda out: [
        _write_cone(out / "prism_rays.cone", data.prism_rays()),
        _write_matrix(out / "prism_slack.mat", data.prism_slack()),
        _write_support(out / "prism.support", data.prism_support()),
    ],
    "nonslack": lambda out: [_write_matrix(out / "nonslack.mat", data.nonslack_extreme_matrix())],
    "congruence": lambda out: [
        _write_matrix(out / "congruence_a.mat", data.congruence_triple()[0]),
        _write_matrix(out / "congruence_b.mat", data.congruence_triple()[1]),
        _write_matrix(out / "congruence_m.mat", data.congruence_triple()[2]),
    ],
    "selfpolar10": lambda out: [
        _write_matrix(out / "selfpolar10_gram.mat", data.ten_gram()),
        _write_matrix(out / "selfpolar10_w.mat", data.ten_w_transpose()),
        _write_support(out / "selfpolar10.support", data.ten_support()),
    ],
}


def _write_cone(path: Path, generators) -> str:
    geometry.save_cone(path, generators)
    return str(path)


def _write_matrix(path: Path, matrix) -> str:
    geometry.save_matrix(path, matrix)
    return str(path)


def _write_support(path: Path, pattern: search.SupportPattern) -> str:
    search.save_support(path, pattern.bits)
    return str(path)


def cmd_examples(name: str, out_dir: str) -> tuple[int, str]:
    if name not in EXAMPLE_WRITERS:
        raise PreconditionError(
            f"unknown example {name!r}; known: {', '.join(sorted(EXAMPLE_WRITERS))}"
        )
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = EXAMPLE_WRITERS[name](out)
    return EXIT_OK, "\n".join(written)


# ---------------------------------------------------------------------------
# Argument parsing and dispatch.
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sdcones",
        description="Slack-matrix toolkit for self-dual polyhedral cones",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, files=True):
        if files:
            p.add_argument("inputs", nargs="+", help="input file(s)")
        p.add_argument("--tol", type=float, default=None, help="tolerance override")
        p.add_argument("--json", action="store_true", help="JSON output")
        p.add_argument("--jobs", type=int, default=1, help="parallel batch inputs")
        p.add_argument("--out", default=None, help="output file or directory")

    p_slack = sub.add_parser("slack", help="slack matrix of a cone file")
    common(p_slack)
    p_dual = sub.add_parser("dual", help="Euclidean dual cone of a cone file")
    common(p_dual)
    p_analyze = sub.add_parser("analyze", help="full matrix analysis report")
    common(p_analyze)
    p_analyze.add_argument("--rank", type=int, required=True, help="cone dimension d")
    p_verify = sub.add_parser("verify", help="self-duality decision for a cone file")
    common(p_verify)
    p_search = sub.add_parser("search", help="self-dual realization search")
    common(p_search)
    p_search.add_argument("--rank", type=int, required=True, help="target rank d")
    p_search.add_argument("--seed", type=int, default=0)
    p_search.add_argument("--retries", type=int, default=20)
    p_search.add_argument("--max-iter", type=int, default=2000)
    p_examples = sub.add_parser("examples", help="write bundled example data")
    p_examples.add_argument("names", nargs="+", help="example name(s)")
    p_examples.add_argument("--out", default=".", help="output directory")
    return parser


def _run_one(args, path: str) -> tuple[int, str]:
    tol = args.tol
    if args.command == "slack":
        return cmd_slack(path, tol if tol is not None else geometry.DEFAULT_FACET_TOL,
                         args.json, args.out)
    if args.command == "dual":
        return cmd_dual(path, tol if tol is not None else geometry.DEFAULT_FACET_TOL,
                        args.out)
    if args.command == "analyze":
        return cmd_analyze(path, args.rank, tol if tol is not None else dnn.DEFAULT_DNN_TOL)
    if args.command == "verify":
        return cmd_verify(path, tol if tol is not None else geometry.DEFAULT_FACET_TOL)
    if args.command == "search":
        params = search.SearchParams(
            target_rank=args.rank,
            max_iter=args.max_iter,
            seed=args.seed,
            retries=args.retries,
        )
        verify_tol = tol if tol is not None else search.DEFAULT_VERIFY_TOL
        return cmd_search(path, params, args.out or ".", verify_tol)
    raise AssertionError(f"unhandled command {args.command}")


# Built by the first main call and reused: building the argparse tree costs
# about 30 times as much as parsing one command line with it.
_parser: argparse.ArgumentParser | None = None


def _settle(run, *args) -> tuple[int, str, bool]:
    """Run one input: its exit code, its text, and whether the text is a
    failure message for stderr rather than output for stdout."""
    try:
        code, text = run(*args)
    except (ParseError, FileNotFoundError) as exc:
        return EXIT_PARSE, f"parse error: {exc}", True
    except PreconditionError as exc:
        return EXIT_PRECONDITION, f"precondition failure: {exc}", True
    except ConvergenceError as exc:
        return EXIT_NO_CONVERGENCE, f"did not converge: {exc}", True
    return code, text, False


def main(argv=None) -> int:
    """Run one subcommand.  Every input gets its own result: outputs are
    printed in input order, each failure's message goes to stderr, and the
    exit code is the largest of the inputs' codes."""
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    if args.command == "examples":
        outcomes = [_settle(cmd_examples, name, args.out) for name in args.names]
    elif args.command in ("slack", "dual") and args.out and len(args.inputs) > 1:
        print(
            f"precondition failure: --out names one file but {len(args.inputs)} "
            "inputs were given; each would overwrite the one before",
            file=sys.stderr,
        )
        return EXIT_PRECONDITION
    elif args.jobs > 1 and len(args.inputs) > 1:
        with ThreadPoolExecutor(max_workers=args.jobs) as pool:
            outcomes = list(pool.map(lambda p: _settle(_run_one, args, p), args.inputs))
    else:
        outcomes = [_settle(_run_one, args, p) for p in args.inputs]
    for _, text, failed in outcomes:
        print(text, file=sys.stderr if failed else sys.stdout)
    return max(code for code, _, _ in outcomes)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
