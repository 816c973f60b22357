"""Command-line front end: argument parsing, file I/O, JSON output, exit
codes and the bundled examples.  Each subcommand checks its output paths
(_outputs), loads its input, makes one library call on it and prints any
JSON through analysis.to_json.

Subcommands: slack, dual, analyze, verify, search, examples.  Exit codes:
0 success, 2 precondition failure, 3 numerical non-convergence, 4 parse
error or an output that cannot be written.  All randomness is seeded, so
every command is deterministic given its flags.
"""

from __future__ import annotations

import argparse
import errno
import math
import os
import sys
from collections import Counter
from pathlib import Path

import numpy as np

from . import __version__, analysis, data, geometry, linalg, search, selfdual
from .errors import ConvergenceError, ParseError, PreconditionError

EXIT_OK = 0
EXIT_PRECONDITION = 2
EXIT_NO_CONVERGENCE = 3
EXIT_PARSE = 4


# ---------------------------------------------------------------------------
# Subcommand bodies; each returns its stdout text and raises on failure.
# ---------------------------------------------------------------------------

def _format_matrix_text(m: np.ndarray) -> str:
    return "\n".join(" ".join(f"{x:.12g}" for x in row) for row in m)


def cmd_slack(path: str, tol: float, as_json: bool, out: str | None) -> str:
    cone = geometry.load_cone(path)
    sm = geometry.slack_matrix(cone, tol)
    if out:
        geometry.save_matrix(out, sm.matrix)
    if as_json:
        rows, cols = sm.shape
        return analysis.to_json({
            "cone_dim": sm.cone_dim,
            "row_labels": list(range(rows)),
            "col_labels": list(range(cols)),
            "matrix": sm.matrix,
        })
    header = (
        f"slack matrix: {sm.shape[0]} rays x {sm.shape[1]} facets, "
        f"cone dimension {sm.cone_dim}"
    )
    return header + "\n" + _format_matrix_text(sm.matrix)


def cmd_dual(path: str, tol: float, out: str | None) -> str:
    cone = geometry.load_cone(path)
    normals = geometry.facet_normals(cone, tol)
    if out:
        geometry.save_cone(out, normals)
    return geometry.cone_text(normals)


def cmd_analyze(path: str, d: int, tol: float) -> str:
    matrix = geometry.load_matrix(path)
    return analysis.analyze_matrix(matrix, d, tol, origin=path).to_json()


def cmd_verify(path: str, tol: float) -> str:
    cone = geometry.load_cone(path)
    ok, cert = selfdual.is_self_dual(cone, tol)
    if cert is not None:
        cert = {"permutation": cert.permutation, "scaling": cert.scaling,
                "min_eigenvalue": cert.min_eigenvalue}
    payload = {"input": path, "self_dual": ok, "version": __version__,
               "certificate": cert}
    return analysis.to_json(payload)


def cmd_search(
    path: str,
    params: search.SearchParams,
    outputs: list[Path],
    verify_tol: float,
) -> str:
    for stale in outputs:  # an earlier run's files would outlive a failure
        stale.unlink(missing_ok=True)
    bits = geometry.load_support(path)
    result = search.run_pipeline(bits, params, verify_tol)
    transcript_path, cone_path = outputs
    transcript_path.parent.mkdir(parents=True, exist_ok=True)
    transcript_text = analysis.to_json(_transcript_payload(path, result))
    transcript_path.write_text(transcript_text + "\n", encoding="utf-8")
    if result.success:
        geometry.save_cone(cone_path, result.realization.generators)
        return transcript_text
    error = PreconditionError if result.sisd_permutation is None else ConvergenceError
    raise error(result.failure)


def _transcript_payload(path: str, result: search.PipelineResult) -> dict:
    payload: dict = {
        "input": path,
        "version": __version__,
        "params": result.params,
        "success": result.success,
        "failure": result.failure,
        "sisd_permutation": result.sisd_permutation,
    }
    if result.retry is not None:
        payload["attempts"] = result.retry.attempts
        if result.retry.matrix is not None:
            payload["refined_matrix"] = result.retry.matrix
    if result.realization is not None:
        real = result.realization
        payload["realization"] = {"dim": real.dim, "generators": real.generators,
                                  "residuals": real.residuals}
    if result.verification is not None:
        report = result.verification
        payload["verification"] = dict(vars(report), passed=report.passed)
    return payload


# Each example's files, in the order they are written, with the data
# function whose value each one holds; the suffix picks the saver.
EXAMPLES = {
    "pentagon": {"pentagon_rays.cone": data.pentagon_rays,
                 "pentagon_slack.mat": data.pentagon_slack,
                 "pentagon.support": data.pentagon_support},
    "prism": {"prism_rays.cone": data.prism_rays,
              "prism_slack.mat": data.prism_slack,
              "prism.support": data.prism_support},
    "nonslack": {"nonslack.mat": data.nonslack_extreme_matrix},
    "congruence": {"congruence_a.mat": data.nonslack_extreme_matrix,
                   "congruence_b.mat": data.congruence_b,
                   "congruence_m.mat": data.congruence_m},
    "selfpolar10": {"selfpolar10_gram.mat": data.ten_gram,
                    "selfpolar10_w.mat": data.ten_w_transpose,
                    "selfpolar10.support": data.ten_support},
}
SAVERS = {".cone": geometry.save_cone, ".mat": geometry.save_matrix,
          ".support": geometry.save_support}


def cmd_examples(name: str, out_dir: str) -> str:
    if name not in EXAMPLES:
        raise PreconditionError(
            f"unknown example {name!r}; known: {', '.join(sorted(EXAMPLES))}"
        )
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for file_name, make in EXAMPLES[name].items():
        SAVERS[Path(file_name).suffix](out / file_name, make())
    return "\n".join(str(out / f) for f in EXAMPLES[name])


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

    def files(name, text, tol):
        p = sub.add_parser(name, help=text)
        p.add_argument("inputs", nargs="+", help="input file(s)")
        p.add_argument("--tol", type=float, default=tol,
                       help=f"tolerance (default {tol:g})")
        return p

    facet_tol = geometry.DEFAULT_FACET_TOL
    p_slack = files("slack", "slack matrix of a cone file", facet_tol)
    p_slack.add_argument("--json", action="store_true", help="JSON output")
    p_slack.add_argument("--out", default=None, help="also write the matrix here")
    p_dual = files("dual", "Euclidean dual cone of a cone file", facet_tol)
    p_dual.add_argument("--out", default=None, help="also write the dual cone here")
    p_analyze = files("analyze", "full matrix analysis report", linalg.PSD_TOL)
    p_analyze.add_argument("--rank", type=int, required=True, help="cone dimension d")
    files("verify", "self-duality decision for a cone file", facet_tol)
    p_search = files("search", "self-dual realization search", facet_tol)
    p_search.add_argument("--rank", type=int, required=True, help="target rank d")
    p_search.add_argument("--seed", type=int, default=search.SearchParams.seed)
    p_search.add_argument("--retries", type=int, default=search.SearchParams.retries)
    p_search.add_argument("--max-iter", type=int, default=search.SearchParams.max_iter)
    p_search.add_argument("--out", default=".", help="output directory")
    p_examples = sub.add_parser("examples", help="write bundled example data")
    p_examples.add_argument("names", nargs="+", help="example name(s)")
    p_examples.add_argument("--out", default=".", help="output directory")
    return parser


def _outputs(args, path: str) -> list[Path]:
    """The files the command of args writes for the input at path."""
    if args.command == "search":
        out, stem = Path(args.out), Path(path).stem
        return [out / f"{stem}_transcript.json", out / f"{stem}_realization.cone"]
    if args.command in ("slack", "dual") and args.out:
        return [Path(args.out)]
    return []


def _check_writable(target: Path, makes_parents: bool) -> None:
    """Raise the OSError that writing target would raise when it names a
    directory, lies under a file, or lies in a missing directory that the
    command does not make (search makes its --out); creates nothing."""
    if target.is_dir():
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(target))
    ancestor = next((p for p in target.parents if p.exists()), Path("."))
    if not ancestor.is_dir():
        raise NotADirectoryError(errno.ENOTDIR, os.strerror(errno.ENOTDIR), str(target))
    if not makes_parents and ancestor != target.parent:
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), str(target))


def _run_one(args, path: str) -> str:
    outputs = _outputs(args, path)
    for target in outputs:
        _check_writable(target, makes_parents=args.command == "search")
    tol = args.tol
    if args.command == "slack":
        return cmd_slack(path, tol, args.json, args.out)
    if args.command == "dual":
        return cmd_dual(path, tol, args.out)
    if args.command == "analyze":
        return cmd_analyze(path, args.rank, tol)
    if args.command == "verify":
        return cmd_verify(path, tol)
    return cmd_search(path, args.params, outputs, tol)


# Built by the first main call and reused: building the argparse tree costs
# about 30 times as much as parsing one command line with it.
_parser: argparse.ArgumentParser | None = None


def _settle(run, *args) -> tuple[int, str, bool]:
    """Run one input: its exit code, its text, and whether the text is a
    failure message for stderr rather than output for stdout."""
    try:
        text = run(*args)
    except ParseError as exc:
        return EXIT_PARSE, f"parse error: {exc}", True
    except OSError as exc:  # inputs are read through ParseError, so a write
        return EXIT_PARSE, f"cannot write output: {exc}", True
    except PreconditionError as exc:
        return EXIT_PRECONDITION, f"precondition failure: {exc}", True
    except ConvergenceError as exc:
        return EXIT_NO_CONVERGENCE, f"did not converge: {exc}", True
    return EXIT_OK, text, False


def _refusal(args) -> str | None:
    """Why none of the inputs can run: a --tol that is not finite and
    positive, an analyze --rank below 1 (a rank its report's schema does not
    admit), search flags that SearchParams refuses, two inputs that would
    write the same output path, or an output path that is one of the inputs
    or a link to one; None when they can all run.  For search it sets
    args.params, the one SearchParams every input runs with."""
    if not (math.isfinite(args.tol) and args.tol > 0.0):
        return f"--tol must be finite and positive, got {args.tol}"
    if args.command == "analyze" and args.rank < 1:
        return f"rank must be >= 1, got {args.rank}"
    if args.command == "search":
        try:
            args.params = search.SearchParams(
                target_rank=args.rank, max_iter=args.max_iter, seed=args.seed,
                retries=args.retries)
        except PreconditionError as exc:
            return str(exc)
    targets = Counter(t for p in args.inputs for t in _outputs(args, p))
    inputs = {_file_key(p): p for p in args.inputs} if targets else {}
    for target, count in targets.items():
        if count > 1:
            return (
                f"{count} inputs would write {target} (--out {args.out}); "
                "each would overwrite the one before"
            )
        source = inputs.get(_file_key(target))
        if source is not None:
            return f"--out {args.out} would overwrite the input {source}"
    return None


def _file_key(path) -> tuple[int, int] | str:
    """What two paths to one file share: the file's (device, inode) when it
    exists, which links do not change, else the path's absolute spelling."""
    try:
        info = os.stat(path)
    except OSError:
        return os.path.abspath(path)
    return info.st_dev, info.st_ino


def main(argv=None) -> int:
    """Run one subcommand.  Every input gets its own result: outputs are
    printed in input order, each failure's message goes to stderr, and the
    exit code is the largest of the inputs' codes.  An output that cannot be
    written, a stdout that is a closed pipe or a full device included, is one
    "cannot write output" line on stderr and exit 4."""
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    if args.command == "examples":
        outcomes = [_settle(cmd_examples, name, args.out) for name in args.names]
    else:
        refusal = _refusal(args)
        if refusal is not None:
            print(f"precondition failure: {refusal}", file=sys.stderr)
            return EXIT_PRECONDITION
        outcomes = [_settle(_run_one, args, p) for p in args.inputs]
    try:
        for _, text, failed in outcomes:
            print(text, file=sys.stderr if failed else sys.stdout)
        sys.stdout.flush()
    except OSError as exc:
        # The interpreter flushes stdout again at exit; pointing it at
        # devnull first keeps that flush from raising too.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"cannot write output: {exc}", file=sys.stderr)
        return EXIT_PARSE
    return max(code for code, _, _ in outcomes)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
