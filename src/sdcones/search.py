"""Semidefinite search for self-dual realizations of a combinatorial type.

Pipeline: a strongly-involutive support check, a scaled-ADMM solver for the
semidefinite program

    max sum c_ij X_ij   s.t.  X_ij = 0 off support,  X_ii = 1,  X PSD,

whose generic optimum is a low-rank extreme point of the feasible set,
randomized-objective retries, alternating-projection rank refinement, and
extraction of cone generators from the refined Gram matrix; the SDP's PSD
test reads linalg.PSD_TOL, the loops project with linalg._clip_project, and
a stack that raises reruns one attempt at a time.  certify, the one gate a
converged refinement passes, extracts a cone and judges it by
selfdual.certify_slack, as analyze and certify_psd_slack do, so a failure
only ever means "no realization found".
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import geometry, linalg, selfdual
from .errors import ConvergenceError, ParseError, PreconditionError
from .patterns import SupportPattern, involution_permutations, slack_support, support_of

REFINE_STOP_TOL = 1e-12


@dataclass
class SearchParams:
    """The values `sdcones search` sets; the defaults reproduce the bundled
    examples.  max_iter caps the SDP (sdp_iterations <= max_iter) and,
    separately, refinement."""

    target_rank: int
    max_iter: int = 2000
    seed: int = 0
    retries: int = 20

    def __post_init__(self):
        if self.target_rank < 1:
            raise PreconditionError("target_rank must be >= 1")
        if self.max_iter < 1:
            raise PreconditionError("max_iter must be >= 1")
        if self.retries < 1:
            raise PreconditionError("retries must be >= 1")
        if self.seed < 0:
            raise PreconditionError("seed must be >= 0")


# ---------------------------------------------------------------------------
# Strongly involutive combinatorial self-duality.
# ---------------------------------------------------------------------------

def sisd_check(s) -> np.ndarray | None:
    """A column permutation making the support symmetric with a nonzero
    diagonal, or None when the pruned search finds none.  A support that is
    already symmetric with a unit diagonal returns the identity at once.
    Any other support takes the first permutation
    patterns.involution_permutations yields, which enumerates no other;
    over patterns.INVOLUTION_NODE_BUDGET nodes it raises ConvergenceError."""
    a = np.asarray(s)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise PreconditionError("support must be a square matrix")
    if not ((a == 0) | (a == 1)).all():
        raise PreconditionError("support entries must be 0 or 1")
    a = a.astype(np.uint8)
    if np.any(a.sum(axis=1) == 0) or np.any(a.sum(axis=0) == 0):
        raise PreconditionError("support must have no zero rows or columns")
    if np.array_equal(a, a.T) and a.diagonal().all():
        return np.arange(a.shape[0])
    return next(involution_permutations(a), None)


def apply_sisd(s: np.ndarray, sigma: np.ndarray) -> SupportPattern:
    """Support pattern obtained by reordering columns with sigma."""
    a = np.asarray(s).astype(np.uint8)
    return SupportPattern(a[:, sigma])


# ---------------------------------------------------------------------------
# First-order SDP feasibility.
# ---------------------------------------------------------------------------

# Scaled ADMM (Boyd et al. 2011, sections 3.1.1 and 3.4.1) on the SDP above.
# The constants come from a sweep over the bench supports: every attempt
# starts at penalty ADMM_RHO, and every ADMM_BALANCE_EVERY iterations a
# residual more than ADMM_BALANCE_RATIO times the other doubles or halves it.
# On n points the primal tolerance is min(ADMM_PRIMAL_TOL, linalg.PSD_TOL / n).
ADMM_RHO = 2.0
ADMM_BALANCE_EVERY = 5
ADMM_BALANCE_RATIO = 10.0
ADMM_PRIMAL_TOL = 1e-10  # stop when max|X - Z| is below this ...
ADMM_DUAL_TOL = 1e-8  # ... and rho * max|Z - Z_prev| is below this


@dataclass
class SdpResult:
    matrix: np.ndarray
    objective: float
    duality_gap: float
    psd_margin: float
    converged: bool
    iterations: int


_identity = functools.cache(lambda n: np.broadcast_to(np.eye(n), (n, n)))  # read-only


def _affine_project(x: np.ndarray, on: np.ndarray) -> np.ndarray:
    """Closed-form projection onto {X_ij = 0 off support, X_ii = 1}, of one
    matrix or of each matrix of a stack, as one np.where pass: on marks the
    free entries, the support off the diagonal, which the loops build once."""
    return np.where(on, x, _identity(on.shape[-1]))


def _objective_weights(on: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Weights symmetrized and restricted to the support, of one weight
    matrix or of each matrix of a stack."""
    return np.where(on, 0.5 * (weights + weights.swapaxes(-1, -2)), 0.0)


def sdp_feasibility(pattern: SupportPattern, weights, params: SearchParams) -> SdpResult:
    """Maximize sum c_ij X_ij over the feasible set by scaled ADMM.

    The splitting X = Z puts the affine constraints on X and the PSD cone on
    Z; an iteration is X = P_aff(Z - U + C/rho), Z = P_psd(X + U),
    U += X - Z.  It stops when max|X - Z| < min(ADMM_PRIMAL_TOL,
    linalg.PSD_TOL / n) and rho * max|Z - Z_prev| < ADMM_DUAL_TOL, or after
    params.max_iter iterations; rho is rebalanced against the two residuals
    as it goes.  Since Z is PSD, lambda_min(X) >= -n max|X - Z|, so a fired
    stop rule leaves X passing the PSD test at scale 1 (a unit diagonal).

    The returned matrix is the last X: it has an exact unit diagonal and
    exact zeros off the support; psd_margin is its smallest eigenvalue and
    objective its sum c_ij X_ij.  duality_gap is |tr(C - rho U) - objective|
    / max(1, |objective|), the gap to the dual bound that -rho U gives.  The
    result has converged when the stop rule fired and psd_margin is at least
    -linalg.PSD_TOL.
    """
    n = pattern.n
    if n == 0:
        raise PreconditionError("support pattern is empty")
    c = linalg.as_matrix(weights)
    if c.shape != (n, n):
        raise PreconditionError(f"weights must be {n}x{n}")
    if c.min() < 0.0:
        raise PreconditionError("weights must be nonnegative")
    return _sdp_loop(pattern.mask, _objective_weights(pattern.mask, c)[None], params)[0]


def _sdp_loop(on: np.ndarray, c: np.ndarray, params: SearchParams) -> list[SdpResult]:
    """The solver of sdp_feasibility on a (k, n, n) stack c of objective
    weights, one per attempt, with one result per attempt; sdp_feasibility
    runs a stack of one.

    A stack makes one linalg._clip_project call per iteration for all of its
    live attempts.  Each attempt keeps its own rho, residuals (a non-finite
    one raises) and stop rule in Python floats and leaves the stack when it
    stops or reaches max_iter, and the projections treat each matrix of a
    stack as they treat one matrix, so every attempt gets the iterates and
    the result it would get alone, bit for bit.  C / rho is kept until rho
    changes, and the dual residual is measured only where it is read: on a
    balancing iteration or once a primal residual is below tolerance.  Once
    every attempt has left, one more stacked eigenvalue read, not counted as
    an iteration, measures each returned matrix's psd_margin.
    """
    n = on.shape[0]
    k = c.shape[0]
    weights = c  # the whole stack; c shrinks with the stack
    free = on > _identity(n)  # the support off the diagonal
    max_iter = params.max_iter
    primal_tol = min(ADMM_PRIMAL_TOL, linalg.PSD_TOL / n)
    final: list = [None] * k  # each attempt's X once it has left the stack
    live = list(range(k))  # the attempts still in the stack, in stack order
    rho = [ADMM_RHO] * k  # each live attempt's penalty
    c_rho = c / ADMM_RHO  # each live attempt's C / rho
    bounds = [0.0] * k  # each attempt's dual bound tr(C - rho U) once it has left
    stopped = [False] * k
    iterations = [0] * k
    z = np.broadcast_to(np.eye(n), c.shape)
    u = np.zeros(c.shape)
    it = 0
    while live:
        it += 1
        x = _affine_project(z - u + c_rho, free)
        u += x  # U + X, the projection's input
        z_next = linalg._clip_project(u, n)
        u -= z_next
        primal = np.abs(x - z_next).max(axis=(-2, -1)).tolist()
        if not all(map(math.isfinite, primal)):
            raise PreconditionError("matrix entries must be finite")
        balance = it % ADMM_BALANCE_EVERY == 0
        if balance or min(primal) < primal_tol:
            change = np.abs(z_next - z).max(axis=(-2, -1)).tolist()
        z = z_next
        keep = []
        for j, r in enumerate(primal):
            if r < primal_tol and rho[j] * change[j] < ADMM_DUAL_TOL:
                stopped[live[j]] = True
            elif it < max_iter:
                keep.append(j)
                if balance:
                    s = rho[j] * change[j]
                    step = 2.0 if r > ADMM_BALANCE_RATIO * s else (
                        0.5 if s > ADMM_BALANCE_RATIO * r else 1.0)
                    if step != 1.0:
                        rho[j] *= step
                        u[j] /= step
                        c_rho[j] = c[j] / rho[j]
                continue
            iterations[live[j]] = it
            bounds[live[j]] = float(np.trace(c[j] - rho[j] * u[j]))
            final[live[j]] = x[j]
        if len(keep) < len(live):
            live = [live[j] for j in keep]
            z, u, c, c_rho = z[keep], u[keep], c[keep], c_rho[keep]
            rho = [rho[j] for j in keep]

    # The matrix returned is the last X, affine-feasible by construction.
    margins = linalg._eigh(np.stack(final))[0][:, -1].tolist()
    results = []
    for i, margin in enumerate(margins):
        objective = float((weights[i] * final[i]).sum())
        results.append(SdpResult(
            matrix=final[i],
            objective=objective,
            duality_gap=abs(bounds[i] - objective) / max(1.0, abs(objective)),
            psd_margin=margin,
            converged=stopped[i] and margin >= -linalg.PSD_TOL,
            iterations=iterations[i],
        ))
    return results


# ---------------------------------------------------------------------------
# Rank refinement by alternating projections.
# ---------------------------------------------------------------------------

@dataclass
class RefineResult:
    matrix: np.ndarray
    converged: bool
    iterations: int
    rank_residuals: list[float]
    affine_residuals: list[float]
    reason: str | None = None


def rank_refine(x, d: int, params: SearchParams, pattern: SupportPattern) -> RefineResult:
    """Alternate the rank-d spectral truncation with exact reimposition of
    the support zeros and the unit diagonal: _refine_loop on a stack of one.

    Converges when both half-step residuals fall below REFINE_STOP_TOL;
    otherwise the reason is "stagnation" (the residual has not improved by
    1e-16 over 100 iterations) or "max_iter".  The returned matrix is the
    last affine projection, with an exact unit diagonal and exact zeros off
    the support.  Refinement judges nothing else: certify decides whether
    the matrix realizes the pattern.  A converged matrix equals L + E with L
    PSD of rank <= d and max|E| < REFINE_STOP_TOL, so by Weyl's inequality
    every eigenvalue past the d-th is within n * REFINE_STOP_TOL of 0.
    """
    a = linalg.require_symmetric(x)
    if a.shape[0] != pattern.n:
        raise PreconditionError("matrix and support sizes disagree")
    return _refine_loop(a[None], d, params, pattern)[0]


def _refine_loop(stack: np.ndarray, d: int, params: SearchParams, pattern: SupportPattern) -> list:
    """rank_refine on each matrix of a (k, n, n) stack of symmetric matrices
    in lockstep, one linalg._clip_project call per iteration after one check
    of d; each member leaves the stack on its own stop rule and gets the
    iterates it would get alone, bit for bit."""
    linalg._target_rank(d, pattern.n)
    free = pattern.mask > _identity(pattern.n)  # the support off the diagonal
    results: list = [None] * len(stack)
    live = list(range(len(stack)))  # the members still in the stack, in stack order
    rank_res, aff_res = [[] for _ in live], [[] for _ in live]
    y = _affine_project(stack, free)
    it = 0
    while live:
        it += 1
        low = linalg._clip_project(y, d)
        r_ranks = np.abs(y - low).max(axis=(-2, -1)).tolist()
        if not all(map(math.isfinite, r_ranks)):
            raise PreconditionError("matrix entries must be finite")
        y = _affine_project(low, free)
        r_affs = np.abs(y - low).max(axis=(-2, -1)).tolist()
        keep = []
        for j, (r_rank, r_aff) in enumerate(zip(r_ranks, r_affs)):
            i = live[j]
            ranks, affs = rank_res[i], aff_res[i]
            ranks.append(r_rank)
            affs.append(r_aff)
            if r_rank < REFINE_STOP_TOL and r_aff < REFINE_STOP_TOL:
                results[i] = RefineResult(y[j], True, it, ranks, affs)
            elif it > 100 and max(ranks[-101], affs[-101]) - max(r_rank, r_aff) < 1e-16:
                results[i] = RefineResult(y[j], False, it, ranks, affs, reason="stagnation")
            elif it == params.max_iter:
                results[i] = RefineResult(y[j], False, it, ranks, affs, reason="max_iter")
            else:
                keep.append(j)
        if len(keep) < len(live):
            live = [live[j] for j in keep]
            y = y[keep]
    return results


# ---------------------------------------------------------------------------
# Randomized retries.
# ---------------------------------------------------------------------------

# Attempts after the first run in stacks of at most this many: each SDP
# iteration then makes one eigendecomposition call for the whole stack, and
# a large retry count never allocates one (n, n) array per attempt at once.
_RETRY_STACK = 32


@dataclass
class AttemptRecord:
    """One transcript attempt, all scalars, so a transcript does not grow
    with max_iter; the refinement residuals are the last half-step
    residuals.  certified and certify_reason stay None unless refinement
    converged, since only a converged refinement is certified."""

    index: int
    sdp_converged: bool
    sdp_iterations: int
    objective: float
    psd_margin: float
    sdp_duality_gap: float
    refine_converged: bool
    refine_iterations: int
    refine_reason: str | None
    refine_rank_residual: float
    refine_affine_residual: float
    certified: bool | None = None
    certify_reason: str | None = None


@dataclass
class RetryResult:
    matrix: np.ndarray | None
    success: bool
    attempts: list[AttemptRecord]
    realization: Realization | None = None
    verification: selfdual.SlackReport | None = None

    @property
    def winning_attempt(self) -> int | None:
        return self.attempts[-1].index if self.success else None


def randomized_retry(
    pattern: SupportPattern,
    params: SearchParams,
    verify_tol: float = geometry.DEFAULT_FACET_TOL,
) -> RetryResult:
    """Run the feasibility solver with random positive weights, retrying with
    fresh weights until an attempt yields a certified realization.

    Weights are drawn uniformly from [0.5, 1.5); the stream is owned by this
    call and seeded from params.seed, so identical inputs give identical
    transcripts.

    Every attempt's SDP matrix is refined, whether or not the SDP converged:
    refinement needs no PSD start, so a max_iter that cuts the SDP short can
    still certify.  Every converged refinement goes through certify, the one
    gate, which extracts a cone and verifies it against the pattern at
    verify_tol; a refined matrix need not be a slack matrix at all, so only a
    verified cone ends the retries.  The winning attempt's
    realization and verification report come back with the result.

    Attempt 1 runs alone, the rest in stacks of up to _RETRY_STACK that are
    solved and refined in lockstep (_solve_stack).  A stack's weights are the
    same draws from the stream as one (n, n) draw per attempt, and its
    attempts are recorded and certified in index order up to the first
    certified one, so the transcript is the one a loop of one sdp_feasibility
    and one rank_refine call per attempt writes.
    """
    rng = np.random.default_rng(params.seed)
    n = pattern.n
    attempts: list[AttemptRecord] = []
    index = 0
    while index < params.retries:
        k = min(_RETRY_STACK, params.retries - index) if index else 1
        weights = rng.uniform(0.5, 1.5, size=(k, n, n))
        for sdp, refined in _solve_stack(pattern, weights, params):
            record = AttemptRecord(
                index=index,
                sdp_converged=sdp.converged,
                sdp_iterations=sdp.iterations,
                objective=sdp.objective,
                psd_margin=sdp.psd_margin,
                sdp_duality_gap=sdp.duality_gap,
                refine_converged=refined.converged,
                refine_iterations=refined.iterations,
                refine_reason=refined.reason,
                refine_rank_residual=refined.rank_residuals[-1],
                refine_affine_residual=refined.affine_residuals[-1],
            )
            attempts.append(record)
            index += 1
            if refined.converged:
                real, report, record.certify_reason = certify(
                    refined.matrix, pattern, params.target_rank, verify_tol)
                record.certified = real is not None
                if record.certified:
                    return RetryResult(refined.matrix, True, attempts, real, report)
    return RetryResult(matrix=None, success=False, attempts=attempts)


def _solve_stack(pattern: SupportPattern, weights: np.ndarray, params: SearchParams):
    """(SDP result, refinement) per attempt of a (k, n, n) stack of weight
    draws, in index order, from _sdp_loop and _refine_loop.  A stack of one,
    or one that raises in either step, runs lazily one attempt at a time, so
    an error surfaces at its own attempt and every other attempt gets the
    bits the stack would have given it."""
    d = params.target_rank
    if len(weights) > 1:
        try:
            sdps = _sdp_loop(pattern.mask, _objective_weights(pattern.mask, weights), params)
            return zip(sdps, _refine_loop(np.stack([s.matrix for s in sdps]), d, params, pattern))
        except (ConvergenceError, PreconditionError):
            pass
    sdps = (sdp_feasibility(pattern, w, params) for w in weights)
    return ((s, rank_refine(s.matrix, d, params, pattern)) for s in sdps)


# ---------------------------------------------------------------------------
# Extraction and verification.
# ---------------------------------------------------------------------------

@dataclass
class Realization:
    """Numeric self-dual realization: generator rows, their Gram matrix, and
    the residuals of the certification checks."""

    dim: int
    generators: np.ndarray
    gram: np.ndarray
    residuals: dict

    @property
    def cone(self) -> geometry.PolyhedralCone:
        return geometry.PolyhedralCone(self.generators)


def extract_realization(x, d: int) -> Realization:
    """Factor a refined Gram matrix into cone generators.

    The generators are the rows of the top-d spectral factor V, whose Gram
    matrix V V^T is X; geometry's rank rule refuses a matrix whose numeric
    rank is not d.  Rescaling a row by a positive number would not change
    the cone they generate, so the rows are taken as they are, on a connected
    support or not; verify_realization decides whether the cone certifies.
    """
    a = linalg.require_symmetric(x)
    if a.size == 0:
        raise PreconditionError("Gram matrix is empty")
    mask = slack_support(a)
    factor = geometry._spectral_factor(linalg.sym_eigen(a), d)
    gram = factor @ factor.T
    off_zero = ~mask
    residuals = {
        "psd_margin": float(linalg.sym_eigen(gram).values[-1]),
        "support_violation": float(np.abs(gram[off_zero]).max())
        if off_zero.any()
        else 0.0,
        "selfdual_gap": float("nan"),
    }
    return Realization(dim=d, generators=factor, gram=gram, residuals=residuals)


def verify_realization(
    real: Realization,
    pattern: SupportPattern,
    tol: float = geometry.DEFAULT_FACET_TOL,
) -> selfdual.SlackReport:
    """Certify a realization's cone against its target support by
    selfdual.certify_slack at tol."""
    return selfdual.certify_slack(real.cone, pattern.mask, tol)


def certify(
    matrix: np.ndarray, pattern: SupportPattern, d: int, tol: float
) -> tuple[Realization | None, selfdual.SlackReport | None, str | None]:
    """Extract a rank-d realization from a refined matrix and verify it
    against the pattern: (realization, report, None) when it passes, else
    (None, None, why not).  The realization's selfdual_gap residual is
    1 - the report's worst cosine."""
    try:
        real = extract_realization(matrix, d)
    except PreconditionError as exc:
        return None, None, f"extraction failed: {exc}"
    report = verify_realization(real, pattern, tol)
    real.residuals["selfdual_gap"] = 1.0 - report.worst_cosine
    if not report.passed:
        return None, None, "verification failed: " + "; ".join(report.details)
    return real, report, None


# ---------------------------------------------------------------------------
# End-to-end pipeline.
# ---------------------------------------------------------------------------

@dataclass
class PipelineResult:
    params: SearchParams
    sisd_permutation: np.ndarray | None
    pattern: SupportPattern | None
    retry: RetryResult | None
    realization: Realization | None
    verification: selfdual.SlackReport | None
    success: bool
    failure: str | None = None


def run_pipeline(
    support,
    params: SearchParams,
    verify_tol: float = geometry.DEFAULT_FACET_TOL,
) -> PipelineResult:
    """Full search: involution check, randomized SDP retries with refinement,
    extraction, verification.

    An attempt only counts as a success once its realization passes
    verification, so a reported failure always means "no certified
    realization found", never a silent acceptance.  A target rank above the
    support size raises PreconditionError before any SDP runs.
    """
    sigma = sisd_check(support)
    if sigma is None:
        return PipelineResult(
            params, None, None, None, None, None, False,
            failure="support is not strongly involutive",
        )
    if params.target_rank > len(sigma):
        raise PreconditionError(
            f"target rank {params.target_rank} exceeds the support size {len(sigma)}"
        )
    pattern = apply_sisd(np.asarray(support), sigma)
    retry = randomized_retry(pattern, params, verify_tol)
    if not retry.success:
        return PipelineResult(
            params, sigma, pattern, retry, None, None, False,
            failure=f"no realization found in {params.retries} attempts",
        )
    return PipelineResult(
        params, sigma, pattern, retry, retry.realization, retry.verification, True
    )


# ---------------------------------------------------------------------------
# Support-pattern text format: "n" header then n lines of n characters.
# ---------------------------------------------------------------------------

def save_support(path, bits) -> None:
    b = np.asarray(bits).astype(np.uint8)
    lines = [str(b.shape[0])]
    lines += ["".join(str(int(x)) for x in row) for row in b]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def load_support(path) -> np.ndarray:
    raw = geometry.read_lines(path, "support")
    try:
        n = int(raw[0])
    except ValueError as exc:
        raise ParseError(f"support file {path}: bad header {raw[0]!r}") from exc
    if n < 0:
        raise ParseError(f"support file {path}: bad header {raw[0]!r}")
    if len(raw) - 1 != n:
        raise ParseError(f"support file {path}: expected {n} rows")
    rows = []
    for ln in raw[1:]:
        if len(ln) != n or any(ch not in "01" for ch in ln):
            raise ParseError(
                f"support file {path}: rows must be {n} characters of 0/1"
            )
        rows.append([int(ch) for ch in ln])
    return np.asarray(rows, dtype=np.uint8).reshape(n, n)
