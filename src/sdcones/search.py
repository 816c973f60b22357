"""Semidefinite search for self-dual realizations of a combinatorial type.

Pipeline: a strongly-involutive support check, a first-order feasibility
solver for the semidefinite program

    max sum c_ij X_ij   s.t.  X_ij = 0 off support,  X_ii = 1,  X PSD,

randomized-objective retries, alternating-projection rank refinement, and
extraction of cone generators from the refined Gram matrix.  Every success is
certified end to end; a failure only ever means "no realization found".
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import geometry, linalg
from .errors import ConvergenceError, ParseError, PreconditionError
from .patterns import (
    SUPPORT_CLAMP,
    SupportPattern,
    involution_permutations,
    is_connected,
    support_of,
)

# Success gates for the refined Gram matrix, matching the magnitudes the
# numerical experiments produce: structural entries clear 1e-4, trailing
# eigenvalues drop below 1e-8.
MIN_STRUCTURAL_ENTRY = 1e-4
TRAILING_EIG_TOL = 1e-8
REFINE_STOP_TOL = 1e-12
SDP_PSD_TOL = 1e-9  # the SDP polish stops at a smallest eigenvalue >= -this

DEFAULT_VERIFY_TOL = 1e-6


@dataclass
class SearchParams:
    """The values `sdcones search` sets; the defaults reproduce the bundled
    examples.  max_iter caps the SDP ascent, the SDP polish and refinement
    each, so sdp_iterations can reach 2 * max_iter; sdp_converged says only
    that the polished matrix has smallest eigenvalue >= -SDP_PSD_TOL, not
    that the ascent reached its plateau."""

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
    """First column permutation, in lexicographic order, making the support
    symmetric with a nonzero diagonal, or None when the exhaustive pruned
    search finds none.  A support that is already symmetric with a unit
    diagonal returns the identity, the first permutation, at once.  Any
    other search enumerates every such permutation before returning the
    first, so one over patterns.INVOLUTION_NODE_BUDGET nodes raises
    ConvergenceError."""
    a = np.asarray(s)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise PreconditionError("support must be a square matrix")
    if not np.isin(a, (0, 1)).all():
        raise PreconditionError("support entries must be 0 or 1")
    a = a.astype(np.uint8)
    if np.any(a.sum(axis=1) == 0) or np.any(a.sum(axis=0) == 0):
        raise PreconditionError("support must have no zero rows or columns")
    if np.array_equal(a, a.T) and a.diagonal().all():
        return np.arange(a.shape[0])
    for sigma in involution_permutations(a):
        return sigma
    return None


def apply_sisd(s: np.ndarray, sigma: np.ndarray) -> SupportPattern:
    """Support pattern obtained by reordering columns with sigma."""
    a = np.asarray(s).astype(np.uint8)
    return SupportPattern(a[:, sigma])


# ---------------------------------------------------------------------------
# First-order SDP feasibility.
# ---------------------------------------------------------------------------

@dataclass
class SdpResult:
    matrix: np.ndarray
    objective: float
    objective_trace: list[float]
    psd_margin: float
    converged: bool
    iterations: int


def _affine_project(x: np.ndarray, on: np.ndarray) -> np.ndarray:
    """Closed-form projection onto {X_ij = 0 off support, X_ii = 1}, of one
    matrix or of each matrix of a stack."""
    y = np.zeros(x.shape)
    np.copyto(y, x, where=on)
    n = on.shape[0]
    y.reshape(*y.shape[:-2], n * n)[..., :: n + 1] = 1.0  # a view: y is C-contiguous
    return y


def _objective_weights(on: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Weights symmetrized and restricted to the support, of one weight
    matrix or of each matrix of a stack."""
    return np.where(on, 0.5 * (weights + weights.swapaxes(-1, -2)), 0.0)


def sdp_feasibility(pattern: SupportPattern, weights, params: SearchParams) -> SdpResult:
    """Projected-gradient ascent on sum c_ij X_ij over the feasible set.

    Each outer iteration takes a gradient step of the base size 1/n, then
    reprojects through the affine set and the PSD cone.  A step that would
    lower the monitored objective is rejected and retried at half the size,
    so the recorded objective trace is non-decreasing by construction.  A
    pure alternating-projection polish then drives the iterate to
    feasibility: the returned matrix has an exact unit diagonal and exact
    zeros off the support, and it has converged when its smallest
    eigenvalue, psd_margin, is at least -SDP_PSD_TOL.
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

    A stack makes one projection call per iteration for all of its live
    attempts.  Each attempt keeps its own step, trace and stop rules in
    Python floats and leaves the stack when it stops, and the projections
    treat each matrix of a stack as they treat one matrix, so every attempt
    gets the iterates and the result it would get alone, bit for bit.  The
    ascent runs until every attempt has stopped; then the polish runs.
    """
    n = on.shape[0]
    k = c.shape[0]
    final: list = [None] * k  # each attempt's iterate once it has stopped
    live = list(range(k))  # the attempts still in the stack, in stack order

    def retire(x: np.ndarray, done: list[int], keep: list[int]) -> list[int]:
        """Store the iterates of the stack rows in done; the attempts left."""
        for j in done:
            final[live[j]] = x[j]
        return [live[j] for j in keep]

    def sums(a: np.ndarray) -> list[float]:
        # Each member's sum has the bits of that matrix's own a.sum().
        return a.sum(axis=(-2, -1)).tolist()

    base_step = 1.0 / n
    steps = [base_step] * k
    x = np.broadcast_to(np.eye(n), c.shape)
    traces = [[obj] for obj in sums(c * x)]
    ascent_iters = [0] * k
    max_iter = params.max_iter
    it = 0
    while live:
        it += 1
        step = np.array([steps[i] for i in live])[:, None, None]
        y = linalg.psd_project(_affine_project(x + step * c, on))
        accepted, keep, done = [], [], []
        for j, obj in enumerate(sums(c * y)):
            i = live[j]
            trace = traces[i]
            if obj < trace[-1] - 1e-12 * max(1.0, abs(trace[-1])):
                steps[i] *= 0.5
                accepted.append(False)
                stop = steps[i] < 1e-6 * base_step
            else:
                trace.append(obj)
                steps[i] = min(steps[i] * 1.5, base_step)
                accepted.append(True)
                stop = len(trace) > 60 and trace[-1] - trace[-60] < 1e-10 * max(
                    1.0, abs(trace[-1])
                )
            if stop or it == max_iter:
                ascent_iters[i] = it
                done.append(j)
            else:
                keep.append(j)
        if all(accepted):
            x = y
        elif any(accepted):
            x = np.where(np.array(accepted)[:, None, None], y, x)
        if done:
            live = retire(x, done, keep)
            if live:
                x, c = x[keep], c[keep]

    x = _affine_project(np.stack(final), on)
    min_eig = [0.0] * k
    polish_iters = [0] * k
    converged = [False] * k
    live = list(range(k))
    for it in range(1, max_iter + 1):
        z, low = linalg.psd_project_min_eig(x)
        keep, done = [], []
        for j, eig in enumerate(low.tolist()):
            i = live[j]
            min_eig[i], polish_iters[i] = eig, it
            if eig >= -SDP_PSD_TOL:
                converged[i] = True
                done.append(j)
            else:
                keep.append(j)
        if done:
            live = retire(x, done, keep)
            if not live:
                break
            z = z[keep]
        x = _affine_project(z, on)
    retire(x, list(range(len(live))), [])

    return [
        SdpResult(
            matrix=final[i],
            objective=traces[i][-1],
            objective_trace=traces[i],
            psd_margin=min_eig[i],
            converged=converged[i],
            iterations=ascent_iters[i] + polish_iters[i],
        )
        for i in range(k)
    ]


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


def rank_refine(
    x,
    d: int,
    params: SearchParams,
    pattern: SupportPattern | None = None,
) -> RefineResult:
    """Alternate the rank-d spectral truncation with exact reimposition of
    the support zeros and the unit diagonal.

    Stops when both half-step residuals fall below 1e-12; declares stagnation
    when the residual has not improved by 1e-16 over 100 iterations.  On
    success the returned matrix has an exact diagonal and support, trailing
    eigenvalues below 1e-8 and structural entries clearing 1e-4 in absolute
    value.
    """
    a = linalg.require_symmetric(x)
    if pattern is None:
        pattern = SupportPattern.from_matrix(a)
    on = pattern.mask
    if a.shape[0] != pattern.n:
        raise PreconditionError("matrix and support sizes disagree")

    y = _affine_project(a, on)
    rank_res: list[float] = []
    aff_res: list[float] = []
    converged = False
    iterations = 0
    for it in range(1, params.max_iter + 1):
        iterations = it
        low = linalg.low_rank_project(y, d)
        r_rank = float(np.abs(y - low).max())
        z = _affine_project(low, on)
        r_aff = float(np.abs(z - low).max())
        rank_res.append(r_rank)
        aff_res.append(r_aff)
        y = z
        if r_rank < REFINE_STOP_TOL and r_aff < REFINE_STOP_TOL:
            converged = True
            break
        if it > 100 and max(rank_res[-101], aff_res[-101]) - max(r_rank, r_aff) < 1e-16:
            return RefineResult(
                y, False, it, rank_res, aff_res, reason="stagnation"
            )

    if not converged:
        return RefineResult(
            y, False, iterations, rank_res, aff_res, reason="max_iter"
        )

    eig = linalg.sym_eigen(y)
    trailing = float(np.abs(eig.values[d:]).max()) if pattern.n > d else 0.0
    if trailing >= TRAILING_EIG_TOL:
        return RefineResult(
            y, False, iterations, rank_res, aff_res,
            reason=f"trailing eigenvalue {trailing:.3e}",
        )
    off = on & ~np.eye(pattern.n, dtype=bool)
    if off.any() and float(np.abs(y[off]).min()) < MIN_STRUCTURAL_ENTRY:
        return RefineResult(
            y, False, iterations, rank_res, aff_res,
            reason="structural entry below 1e-4",
        )
    return RefineResult(y, True, iterations, rank_res, aff_res)


# ---------------------------------------------------------------------------
# Randomized retries.
# ---------------------------------------------------------------------------

# Attempts after the first run in stacks of at most this many: each SDP
# iteration then makes one eigendecomposition call for the whole stack, and
# a large retry count never allocates one (n, n) array per attempt at once.
_RETRY_STACK = 32


def _sdp_attempts(pattern: SupportPattern, weights: np.ndarray, params: SearchParams):
    """SDP results, in index order, of one solve of a (k, n, n) stack of
    weight matrices.  A stack of one is solved by sdp_feasibility, the entry
    point that per-call SDP profiles count.  If a larger stack raises, its
    attempts rerun one at a time through sdp_feasibility, lazily, so an error
    surfaces at the attempt that raises it and only once every attempt before
    it has been consumed."""
    if len(weights) == 1:
        return [sdp_feasibility(pattern, weights[0], params)]
    try:
        return _sdp_loop(pattern.mask, _objective_weights(pattern.mask, weights), params)
    except (ConvergenceError, PreconditionError):
        return (sdp_feasibility(pattern, w, params) for w in weights)


@dataclass
class AttemptRecord:
    """One transcript attempt, all scalars; the refinement residuals are the
    last half-step residuals, None when refinement did not run."""

    index: int
    sdp_converged: bool
    sdp_iterations: int
    objective: float
    psd_margin: float
    refine_converged: bool
    refine_iterations: int
    refine_reason: str | None
    refine_rank_residual: float | None
    refine_affine_residual: float | None
    nonnegative: bool
    certified: bool | None = None
    certify_reason: str | None = None


@dataclass
class RetryResult:
    matrix: np.ndarray | None
    success: bool
    attempts: list[AttemptRecord]
    certificate: object | None = None

    @property
    def winning_attempt(self) -> int | None:
        return self.attempts[-1].index if self.success else None


def randomized_retry(
    pattern: SupportPattern,
    params: SearchParams,
    certify=None,
) -> RetryResult:
    """Run the feasibility solver with random positive weights, retrying with
    fresh weights until rank refinement yields a nonnegative Gram matrix.

    Weights are drawn uniformly from [0.5, 1.5) so the uniform-weight optimum
    stays in the basin; the stream is owned by this call and seeded from
    params.seed, so identical inputs give identical transcripts.

    An optional certify(matrix) hook may veto an otherwise successful
    attempt by returning (None, reason); the pipeline uses it to keep
    retrying when a refined matrix extracts to a cone that fails the
    self-duality verification (a refined matrix need not be a slack matrix
    at all, so refinement success alone is not proof of a realization).

    Every attempt runs in a stack (see _sdp_attempts): attempt 1 alone, the
    rest up to _RETRY_STACK at a time.  A stack's weights are the same draws
    from the stream as one (n, n) draw per attempt, and its attempts are
    refined, recorded and certified in index order up to the first certified
    one, so the transcript is the one a loop of one sdp_feasibility call per
    attempt writes.
    """
    rng = np.random.default_rng(params.seed)
    n = pattern.n
    attempts: list[AttemptRecord] = []
    index = 0
    while index < params.retries:
        k = min(_RETRY_STACK, params.retries - index) if index else 1
        weights = rng.uniform(0.5, 1.5, size=(k, n, n))
        for sdp in _sdp_attempts(pattern, weights, params):
            refined = None
            nonneg = False
            if sdp.converged:
                refined = rank_refine(sdp.matrix, params.target_rank, params, pattern)
                # A valid slack is entrywise nonnegative; a refined matrix with
                # negative structural entries is a dead end, not a realization.
                nonneg = bool(refined.matrix.min() >= -SUPPORT_CLAMP)
            record = AttemptRecord(
                index=index,
                sdp_converged=sdp.converged,
                sdp_iterations=sdp.iterations,
                objective=sdp.objective,
                psd_margin=sdp.psd_margin,
                refine_converged=bool(refined and refined.converged),
                refine_iterations=refined.iterations if refined else 0,
                refine_reason=refined.reason if refined else "sdp did not converge",
                refine_rank_residual=refined.rank_residuals[-1] if refined else None,
                refine_affine_residual=refined.affine_residuals[-1] if refined else None,
                nonnegative=nonneg,
            )
            attempts.append(record)
            index += 1
            if refined is not None and refined.converged and nonneg:
                if certify is None:
                    return RetryResult(refined.matrix, True, attempts)
                outcome, reason = certify(refined.matrix)
                record.certified = outcome is not None
                record.certify_reason = reason
                if outcome is not None:
                    return RetryResult(
                        refined.matrix, True, attempts, certificate=outcome
                    )
    return RetryResult(matrix=None, success=False, attempts=attempts)


# ---------------------------------------------------------------------------
# Extraction and verification.
# ---------------------------------------------------------------------------

@dataclass
class Realization:
    """Numeric self-dual realization: generator rows with first coordinate 1,
    their Gram matrix, and the residuals of the certification checks."""

    dim: int
    generators: np.ndarray
    gram: np.ndarray
    residuals: dict

    @property
    def cone(self) -> geometry.PolyhedralCone:
        return geometry.PolyhedralCone(self.generators)


def extract_realization(x, d: int) -> Realization:
    """Factor a refined Gram matrix into cone generators.

    The top-d spectral factor has a constant-sign leading column whenever the
    support is irreducible (a Perron argument); dividing each row by its
    first entry yields generators of the form (1, w).
    """
    a = linalg.require_symmetric(x)
    if a.size == 0:
        raise PreconditionError("Gram matrix is empty")
    scale = np.abs(a).max()
    if a.min() < -SUPPORT_CLAMP * max(scale, 1e-300):
        raise PreconditionError("matrix must be entrywise nonnegative")
    mask = support_of(a)
    diagonal = not (mask & ~np.eye(mask.shape[0], dtype=bool)).any()
    if not diagonal and not is_connected(mask):
        raise PreconditionError("support graph is not connected")
    r = linalg.numeric_rank(a)
    if r != d:
        raise PreconditionError(f"matrix has numeric rank {r}, expected {d}")
    factor = linalg.sym_eigen(a).factor(d)
    if diagonal:
        # Diagonal Gram: the factor rows are already mutually orthogonal
        # generators of an orthant image; there is no Perron rescaling.
        wbar = factor
    else:
        lead = factor[:, 0]
        lead_scale = np.abs(lead).max()
        if np.abs(lead).min() <= 1e-10 * lead_scale or (
            lead.min() < 0.0 < lead.max()
        ):
            raise PreconditionError(
                "leading eigenvector does not have constant sign; support is "
                "not irreducible enough to extract generators"
            )
        if lead[0] < 0.0:
            # Per-column sign is a gauge freedom of the factorization.
            factor[:, 0] = -factor[:, 0]
        wbar = factor / factor[:, :1]
        wbar[:, 0] = 1.0
    gram = wbar @ wbar.T
    off_zero = ~mask
    residuals = {
        "psd_margin": float(linalg.sym_eigen(gram).values[-1]),
        "support_violation": float(np.abs(gram[off_zero]).max())
        if off_zero.any()
        else 0.0,
        "selfdual_gap": float("nan"),
    }
    return Realization(dim=d, generators=wbar, gram=gram, residuals=residuals)


@dataclass
class VerificationReport:
    generator_match: bool
    support_match: bool
    entries_positive: bool
    worst_cosine: float
    min_structural_ratio: float
    max_off_support_ratio: float
    details: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return self.generator_match and self.support_match and self.entries_positive


def verify_realization(
    real: Realization,
    pattern: SupportPattern,
    tol: float = DEFAULT_VERIFY_TOL,
) -> VerificationReport:
    """Certify a realization against its target support.

    (a) the Euclidean dual's generators must match the primal generators
    bijectively with cosine >= 1 - tol; (b) the slack support, with columns
    aligned through that matching, must equal the pattern; (c) structural
    slack entries must clear 1e-4 of the largest entry.
    """
    details: list[str] = []
    cone = real.cone
    if cone.n_rays != pattern.n:
        return VerificationReport(
            False, False, False, 0.0, 0.0, 1.0,
            [f"{cone.n_rays} generators for a {pattern.n}-point support"],
        )
    try:
        trip = geometry.dual_round_trip(cone, tol, tol)
    except PreconditionError as exc:
        return VerificationReport(False, False, False, 0.0, 0.0, 1.0, [str(exc)])
    worst = trip.worst_cosine
    if trip.mapping is None:
        details.append(
            f"dual generators do not match primal generators bijectively "
            f"({trip.slack.shape[1]} facets, worst cosine {worst:.12f})"
        )
        return VerificationReport(False, False, False, worst, 0.0, 1.0, details)

    aligned = trip.slack
    scale = aligned.max()
    on = pattern.mask
    off_max = float(np.abs(aligned[~on]).max() / scale) if (~on).any() else 0.0
    on_min = float(aligned[on].min() / scale)
    support_ok = off_max <= tol and on_min > tol
    if not support_ok:
        details.append(
            f"slack support mismatch: off-support ratio {off_max:.3e}, "
            f"smallest on-support ratio {on_min:.3e}"
        )
    positive_ok = on_min >= MIN_STRUCTURAL_ENTRY
    if not positive_ok:
        details.append(
            f"smallest structural slack ratio {on_min:.3e} below "
            f"{MIN_STRUCTURAL_ENTRY:g}"
        )
    return VerificationReport(
        generator_match=True,
        support_match=support_ok,
        entries_positive=positive_ok,
        worst_cosine=worst,
        min_structural_ratio=on_min,
        max_off_support_ratio=off_max,
        details=details,
    )


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
    verification: VerificationReport | None
    success: bool
    failure: str | None = None


def run_pipeline(
    support,
    params: SearchParams,
    verify_tol: float = DEFAULT_VERIFY_TOL,
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

    def certify(matrix):
        try:
            real = extract_realization(matrix, params.target_rank)
        except PreconditionError as exc:
            return None, f"extraction failed: {exc}"
        report = verify_realization(real, pattern, verify_tol)
        real.residuals["selfdual_gap"] = 1.0 - report.worst_cosine
        if not report.passed:
            return None, "verification failed: " + "; ".join(report.details)
        return (real, report), None

    retry = randomized_retry(pattern, params, certify=certify)
    if not retry.success:
        return PipelineResult(
            params, sigma, pattern, retry, None, None, False,
            failure=f"no realization found in {params.retries} attempts",
        )
    real, report = retry.certificate
    return PipelineResult(params, sigma, pattern, retry, real, report, True)


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
    if len(raw) - 1 != n:
        raise ParseError(f"support file {path}: expected {n} rows")
    rows = []
    for ln in raw[1:]:
        if len(ln) != n or any(ch not in "01" for ch in ln):
            raise ParseError(
                f"support file {path}: rows must be {n} characters of 0/1"
            )
        rows.append([int(ch) for ch in ln])
    return np.asarray(rows, dtype=np.uint8)
