"""Semidefinite search for self-dual realizations of a combinatorial type.

Pipeline: a strongly-involutive support check, then attempts, each refined
to rank d by Gauss-Newton and judged by certify, which extracts cone
generators from the refined Gram matrix.  Attempt 0 starts from the
support's spectral embedding and reads no seed; the later ones from scaled
ADMM on the semidefinite program at a random objective, stopped once it is
close enough for refinement, not at an optimum:

    max sum c_ij X_ij   s.t.  X_ij = 0 off support,  X_ii = 1,  X PSD,

whose generic optimum is a low-rank extreme point of the feasible set.
certify, the one gate, judges a cone by selfdual.certify_slack, as analyze
and certify_psd_slack do, so a failure only means "no realization found".
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from . import geometry, linalg, selfdual
from .errors import ConvergenceError, PreconditionError
from .geometry import load_support, save_support  # the support file I/O, re-exported
from .patterns import SupportPattern, involution_permutations, slack_support, support_of

REFINE_STOP_TOL = 1e-12


@dataclass
class SearchParams:
    """The values `sdcones search` sets; the defaults reproduce the bundled
    examples.  max_iter caps only the SDP (sdp_iterations <= max_iter); the
    spectral attempt 0 runs one SDP iteration, whatever max_iter and seed."""

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
# The SDP is only a start for rank_refine, so it stops where refinement
# certifies from it (section 3.3.1), not at an optimum: over the search
# corpus that CHANGES.md describes, stops from 3e-4 to 1e-1 lose no
# certification, and 1e-3 changes none.
ADMM_RHO = 2.0
ADMM_BALANCE_EVERY = 5
ADMM_BALANCE_RATIO = 10.0
ADMM_STOP_TOL = 1e-3  # stop once max|X - Z| and rho * max|Z - Z_prev| are below this


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
    """Weights symmetrized and restricted to the support, of one matrix or a stack."""
    return np.where(on, 0.5 * weights + 0.5 * weights.swapaxes(-1, -2), 0.0)


def sdp_feasibility(pattern: SupportPattern, weights, params: SearchParams) -> SdpResult:
    """Maximize sum c_ij X_ij over the feasible set by scaled ADMM, as far
    as a start for rank_refine needs.

    The splitting X = Z puts the affine constraints on X and the PSD cone on
    Z; an iteration is X = P_aff(Z - U + C/rho), Z = P_psd(X + U),
    U += X - Z.  It stops when max|X - Z| and rho * max|Z - Z_prev| are both
    below ADMM_STOP_TOL, or after params.max_iter iterations; rho is
    rebalanced against the two residuals as it goes.  Since Z is PSD,
    lambda_min(X) >= -n max|X - Z| > -n ADMM_STOP_TOL once the rule fires.

    The returned matrix is the last X: it has an exact unit diagonal and
    exact zeros off the support; psd_margin is its smallest eigenvalue and
    objective its sum c_ij X_ij.  duality_gap is |bound - objective| /
    max(1, |objective|), the bound being tr(C - rho U), the one -rho U gives.
    The result has converged when the stop rule fired; it is no certificate
    of an optimum, and certify alone judges what refinement makes of it.
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
    one raises) and stop rule, and leaves the stack when it stops or reaches
    max_iter; the projections treat each matrix of a stack as they treat one
    matrix, so every attempt gets the iterates and the result it would get
    alone, bit for bit.  C / rho is kept until rho changes.  Once every
    attempt has left, one more stacked eigenvalue read, not counted as an
    iteration, measures each psd_margin.
    """
    n = on.shape[0]
    k = c.shape[0]
    weights = c  # the whole stack; c shrinks with the stack
    free = on > _identity(n)  # the support off the diagonal
    max_iter = params.max_iter
    final: list = [None] * k  # each attempt's X once it has left the stack
    live = list(range(k))  # the attempts still in the stack, in stack order
    rho = [ADMM_RHO] * k  # each live attempt's penalty
    c_rho = c / ADMM_RHO  # each live attempt's C / rho
    bounds = [0.0] * k  # each attempt's dual bound once it has left
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
        change = np.abs(z_next - z).max(axis=(-2, -1)).tolist()
        z = z_next
        balance = it % ADMM_BALANCE_EVERY == 0
        keep = []
        for j, (r, s) in enumerate(zip(primal, change)):
            i = live[j]
            s *= rho[j]  # the dual residual
            stopped[i] = r < ADMM_STOP_TOL and s < ADMM_STOP_TOL
            if not stopped[i] and it < max_iter:
                keep.append(j)
                if balance:
                    step = 2.0 if r > ADMM_BALANCE_RATIO * s else (
                        0.5 if s > ADMM_BALANCE_RATIO * r else 1.0)
                    if step != 1.0:
                        rho[j] *= step
                        u[j] /= step
                        c_rho[j] = c[j] / rho[j]
                continue
            iterations[i] = it
            final[i], bounds[i] = x[j], float(np.trace(c[j] - rho[j] * u[j]))
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
            converged=stopped[i],
            iterations=iterations[i],
        ))
    return results


# ---------------------------------------------------------------------------
# Rank refinement by Gauss-Newton on the rank-d factor.
# ---------------------------------------------------------------------------

# The odd 201-gon's spectral start raises max|F| for two steps (0.49 -> 3.9
# -> 0.87 -> 0.14), so a patience of 2 fails it; no converged refinement in
# the sweep of CHANGES.md took more than 9 steps.
REFINE_STEPS = 20
REFINE_PATIENCE = 3


def _equations(free: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(i, j) of the equations (V V^T)_ij = [i == j] of a realization's
    factor V: the diagonal, then the pairs off the support (free, the
    support off the diagonal), i < j."""
    n = len(free)
    p, q = np.nonzero(np.triu(~free, 1))
    return np.concatenate([np.arange(n), p]), np.concatenate([np.arange(n), q])


@dataclass
class RefineResult:
    matrix: np.ndarray
    converged: bool
    iterations: int
    residuals: list[float]
    reason: str | None = None


def rank_refine(x, d: int, pattern: SupportPattern) -> RefineResult:
    """Gauss-Newton (Nocedal & Wright 2006, section 10.3) on the equations
    F(V) = 0 of _equations, from x's top-d factor V (n x d): each step is the
    minimum-norm solution of J dV = -F, through the smaller of J J^T and
    J^T J (m equations, nd unknowns), assembled from J's nonzeros: a step
    costs O(min(m, nd)^3) time and O(min(m, nd)^2) memory.  It converges
    once max|F| < REFINE_STOP_TOL, else stops on "stagnation"
    (REFINE_PATIENCE steps without a new minimum of max|F|, a step that is
    not finite, or a singular J J^T) or "step cap" (REFINE_STEPS steps);
    residuals holds max|F| before each step and after the last.  The
    returned P_aff(V V^T) has an exact unit diagonal and zeros off the
    support, and is V V^T + E, max|E| = max|F|: converged, its eigenvalues
    past the d-th are within n * REFINE_STOP_TOL of 0 (Weyl).  certify
    alone judges it.
    """
    a = linalg._symmetric(x)
    n = pattern.n
    if a.shape[0] != n:
        raise PreconditionError("matrix and support sizes disagree")
    d = linalg._target_rank(d, n)
    v = linalg.EigenDecomposition(*linalg._eigh(a)).factor(d)
    free = pattern.mask > _identity(n)
    i, j = _equations(free)
    m = len(i)
    residuals, reason, pairs = [], None, None
    with np.errstate(all="ignore"):  # a step that is not finite stagnates
        for step in range(REFINE_STEPS + 1):
            g = v @ v.T
            f = g[i, j] - (i == j)
            residuals.append(float(np.abs(f).max()))
            if residuals[-1] < REFINE_STOP_TOL:
                break
            stalled = step - int(np.argmin(residuals)) >= REFINE_PATIENCE
            reason = "stagnation" if stalled or not math.isfinite(residuals[-1]) else (
                "step cap" if step == REFINE_STEPS else None)
            if reason:
                break
            # Row (i, j) of J holds V_j in node i's block and V_i in node j's,
            # so J^T y is (W + W^T) V with W_ij = y_ij.
            w = np.zeros((n, n))
            try:
                if m <= n * d:  # J J^T: <V_other[s], V_other[t]> of the slots s, t at a node
                    if pairs is None:  # slot s of the 2m: row eq[s], node ends[s], V[other[s]]
                        ends, other = np.concatenate([i, j]), np.concatenate([j, i])
                        eq, pairs = np.tile(np.arange(m), 2), np.nonzero(ends[:, None] == ends)
                    s, t = pairs
                    jjt = np.bincount(eq[s] * m + eq[t], g[other[s], other[t]], m * m)
                    w[i, j] = np.linalg.solve(jjt.reshape(m, m), f)
                    dv = (w + w.T) @ v
                else:  # J^T J: E_pq V_q V_p^T in block (p, q), sum_q (E+4I)_pq V_q V_q^T in (p, p)
                    e = (~pattern.mask).astype(float)  # E = 1 off the support
                    jtj = np.einsum("pq,qa,pb->paqb", e, v, v)
                    diag = np.einsum("pq,qa,qb->pab", e + 4.0 * _identity(n), v, v)
                    jtj[range(n), :, range(n), :] += diag
                    w[i, j] = f
                    jtf = ((w + w.T) @ v).ravel()
                    dv = np.linalg.lstsq(jtj.reshape(n * d, -1), jtf)[0].reshape(n, d)
            except np.linalg.LinAlgError:
                reason = "stagnation"
                break
            v = v - dv
    matrix = _affine_project(0.5 * (g + g.T), free)
    return RefineResult(matrix, reason is None, len(residuals) - 1, residuals, reason)


# ---------------------------------------------------------------------------
# Randomized retries.
# ---------------------------------------------------------------------------

# The SDP attempts run in stacks of at most this many: each SDP iteration
# then makes one eigendecomposition call for the whole stack, and a large
# retry count never allocates one (n, n) array per attempt at once.
_RETRY_STACK = 32


@dataclass
class AttemptRecord:
    """One transcript attempt, all scalars, so a transcript does not grow
    with max_iter.  sdp_converged means the SDP's stop rule fired, and
    psd_margin and sdp_duality_gap are read where it fired, at
    ADMM_STOP_TOL, not at an optimum.  The spectral attempt 0 records the
    SDP at all-ones weights after its one iteration, whose X is X0 (1
    iteration, not converged unless the support is diagonal).
    refine_affine_residual is refinement's last max|F|; certified and
    certify_reason stay None unless it converged."""

    index: int
    sdp_converged: bool
    sdp_iterations: int
    objective: float
    psd_margin: float
    sdp_duality_gap: float
    refine_converged: bool
    refine_iterations: int
    refine_reason: str | None
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
    """Refine a spectral start, then SDP results with random objectives,
    until an attempt yields a certified realization.

    Attempt 0 refines X0 = I + A / 2 (A the support off the diagonal; the
    first ADMM iterate at all-ones weights), whose top-d eigenvectors
    embed the support (Koren 2005): a cycle-like support's embedding is the
    regular polygon.  It draws nothing, so it does not depend on params.seed.
    The later attempts solve the SDP at weights drawn uniformly from
    [0.5, 1.5), from a stream seeded by params.seed (_starts).

    Every attempt is refined through rank_refine, whether or not its SDP
    converged: refinement needs no PSD start and max_iter does not cap it.
    Every converged refinement goes through certify, the one gate, at
    verify_tol; only a verified cone ends the retries, and its realization
    and report come back with the result.
    """
    attempts: list[AttemptRecord] = []
    for index, sdp in enumerate(_starts(pattern, params)):
        refined = rank_refine(sdp.matrix, params.target_rank, pattern)
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
            refine_affine_residual=refined.residuals[-1],
        )
        attempts.append(record)
        if refined.converged:
            real, report, record.certify_reason = certify(
                refined.matrix, pattern, params.target_rank, verify_tol)
            record.certified = real is not None
            if record.certified:
                return RetryResult(refined.matrix, True, attempts, real, report)
    return RetryResult(matrix=None, success=False, attempts=attempts)


def _starts(pattern: SupportPattern, params: SearchParams):
    """randomized_retry's starts, lazily, as SDP results: X0, then one per
    weight draw, in stacks of up to _RETRY_STACK draws (the same draws as one
    (n, n) draw per attempt).  A stack that raises reruns one attempt at a
    time, so an error surfaces at its own attempt, every other bit unchanged.
    X0 = P_aff(I + C / ADMM_RHO) is the all-ones SDP's first ADMM iterate."""
    n = pattern.n
    yield sdp_feasibility(pattern, np.ones((n, n)), replace(params, max_iter=1))
    rng = np.random.default_rng(params.seed)
    for index in range(1, params.retries, _RETRY_STACK):
        weights = rng.uniform(0.5, 1.5, size=(min(_RETRY_STACK, params.retries - index), n, n))
        try:
            yield from _sdp_loop(pattern.mask, _objective_weights(pattern.mask, weights), params)
        except (ConvergenceError, PreconditionError):
            yield from (sdp_feasibility(pattern, w, params) for w in weights)


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
    mask = slack_support(a)  # refuses a negative entry before the rank rule runs
    factor = geometry._spectral_factor(linalg.sym_eigen(a), d)
    gram = factor @ factor.T
    residuals = {
        "psd_margin": float(linalg.sym_eigen(gram).values[-1]),
        "support_violation": float(np.abs(gram[~mask]).max(initial=0.0)),
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
    """Full search: involution check, then randomized_retry's attempts.

    An attempt only counts as a success once its realization passes
    verification, so a reported failure always means "no certified
    realization found".  A target rank above the support size raises
    PreconditionError before any attempt runs.
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
