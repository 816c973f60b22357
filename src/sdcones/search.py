"""Semidefinite search for self-dual realizations of a combinatorial type.

Pipeline: a strongly-involutive support check, then attempts, refined to
rank d by Gauss-Newton one stack at a time, in lockstep, and each judged by
certify, which extracts cone generators from the refined Gram matrix.
Attempt 0 starts from the support's spectral embedding and reads no seed;
the later ones from scaled ADMM on the semidefinite program at a random
objective, run as stacks too, stopped once it is close enough for
refinement, not at an optimum:

    max sum c_ij X_ij   s.t.  X_ij = 0 off support,  X_ii = 1,  X PSD,

whose generic optimum is a low-rank extreme point of the feasible set; an
attempt keeps only its start's matrix, stop flag and iteration count.
certify, the one gate, judges a cone by selfdual.certify_slack, as analyze
and certify_psd_slack do, so a failure only means "no realization found".
"""

from __future__ import annotations

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
    """ADMM's last X, whether its stop rule fired, and its iteration count."""

    matrix: np.ndarray
    converged: bool
    iterations: int


def _affine_project(x: np.ndarray, on: np.ndarray, eye: np.ndarray) -> np.ndarray:
    """Closed-form projection onto {X_ij = 0 off support, X_ii = 1}, of one
    matrix or of each matrix of a stack, as one np.where pass: on marks the
    free entries, the support off the diagonal, and eye is the identity of
    its size; the loops build both once per call."""
    return np.where(on, x, eye)


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
    exact zeros off the support.  The result has converged when the stop
    rule fired; it is no certificate of an optimum, and certify alone judges
    what refinement makes of it.  The search calls it for attempt 0's one
    iteration and to rerun, one draw at a time, a stack that raised.
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
    live attempts.  Each attempt's rho, residuals (a non-finite one raises)
    and stop rule are entries of arrays, and an attempt leaves the stack when
    it stops or reaches max_iter; the projections treat each matrix of a
    stack as they treat one matrix, so every attempt gets the iterates and
    the result it would get alone, bit for bit.  C's diagonal is zeroed
    first: the affine step resets X's diagonal whatever C / rho holds there,
    and a huge diagonal weight would overflow the division.
    """
    n = on.shape[0]
    k = c.shape[0]
    eye = np.eye(n)
    free = on > eye  # the support off the diagonal
    c = np.where(free, c, 0.0)
    results: list = [None] * k  # each attempt's result once it has left the stack
    live = np.arange(k)  # the attempts still in the stack, in stack order
    rho = np.full(k, ADMM_RHO)  # each live attempt's penalty
    z = np.broadcast_to(eye, c.shape)
    u = np.zeros(c.shape)
    for it in range(1, params.max_iter + 1):
        x = _affine_project(z - u + c / rho[:, None, None], free, eye)
        u += x  # U + X, the projection's input
        z_next = linalg._clip_project(u, n)
        u -= z_next
        primal = np.abs(x - z_next).max(axis=(-2, -1))
        if not np.isfinite(primal).all():
            raise PreconditionError("matrix entries must be finite")
        dual = rho * np.abs(z_next - z).max(axis=(-2, -1))
        z = z_next
        if it % ADMM_BALANCE_EVERY == 0:
            step = np.where(primal > ADMM_BALANCE_RATIO * dual, 2.0,
                            np.where(dual > ADMM_BALANCE_RATIO * primal, 0.5, 1.0))
            rho *= step
            u /= step[:, None, None]
        stopped = np.maximum(primal, dual) < ADMM_STOP_TOL
        done = stopped | (it == params.max_iter)
        if done.any():
            for j in np.flatnonzero(done):  # a copy: a view would keep all of x alive
                results[live[j]] = SdpResult(x[j].copy(), bool(stopped[j]), it)
            live, z, u, c, rho = live[~done], z[~done], u[~done], c[~done], rho[~done]
            if not live.size:
                break
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
    nodes = np.arange(len(free))
    p, q = np.nonzero(~free)
    upper = p < q
    return np.concatenate([nodes, p[upper]]), np.concatenate([nodes, q[upper]])


@dataclass
class RefineResult:
    matrix: np.ndarray
    converged: bool
    iterations: int
    residuals: list[float]
    reason: str | None = None


def rank_refine(x, d: int, pattern: SupportPattern) -> RefineResult:
    """Gauss-Newton refinement of one matrix to rank d: x validated, then
    _refine on a stack of one.  residuals holds max|F| before each step and
    after the last; the matrix has an exact unit diagonal and zeros off the
    support, and certify alone judges it."""
    a = linalg._symmetric(x)
    n = pattern.n
    if a.shape[0] != n:
        raise PreconditionError("matrix and support sizes disagree")
    return _refine(a[None], linalg._target_rank(d, n), pattern)[0]


def _solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a^-1 b, or lstsq's minimum-norm solution where a is singular."""
    try:
        return np.linalg.solve(a, b)
    except np.linalg.LinAlgError:
        return np.linalg.lstsq(a, b)[0]


def _refine(xs: np.ndarray, d: int, pattern: SupportPattern) -> list[RefineResult]:
    """Gauss-Newton (Nocedal & Wright 2006, section 10.3) on the equations
    F(V) = 0 of _equations, in lockstep over a (k, n, n) stack xs of finite,
    exactly symmetric matrices, unchecked, from each one's top-d factor V
    (n x d).  Each step is the minimum-norm solution of J dV = -F, through
    the smaller of J J^T and J^T J (m equations, nd unknowns), assembled
    from J's nonzeros: a step costs O(min(m, nd)^3) time and
    O(min(m, nd)^2) memory per member.  A member converges once
    max|F| < REFINE_STOP_TOL, else stops on "stagnation" (REFINE_PATIENCE
    steps without a new minimum of max|F|, a step that is not finite, or a
    failed least-squares solve) or "step cap" (REFINE_STEPS steps); a
    singular J J^T gives the step J^T (J J^T)^+ F = J^+ F by lstsq.  A
    member's P_aff(V V^T) has an exact unit diagonal and zeros off the
    support, and is V V^T + E, max|E| = max|F|: converged, its eigenvalues
    past the d-th are within n * REFINE_STOP_TOL of 0 (Weyl).

    The stack runs in chunks whose arrays hold at most
    linalg._STACK_ENTRIES entries, or one member: per member, m^2 for J J^T
    and its slot pairs, (nd)^2 for J^T J, either one at least n^2.  A
    chunk makes one _eigh call, then per step one batched V V^T, one
    np.bincount for every member's J J^T and one batched solve; if that
    solve raises, each member is solved alone, and a stack of one goes
    straight to lstsq.  J^T J members are solved one at a time.  A member
    leaves the chunk when it stops, so each gets the iterates, residuals,
    stop reason and matrix it gets alone, bit for bit.
    """
    k, n = len(xs), pattern.n
    eye = np.eye(n)
    free = pattern.mask > eye
    i, j = _equations(free)
    m = len(i)
    flat = i * n + j  # the equations' entries of a flattened V V^T
    gram = m <= n * d  # J J^T, else J^T J
    size = 1
    if k > 1:  # J J^T gathers one entry per pair of slots at a node (below)
        slots = np.bincount(np.concatenate([i, j]), minlength=n)
        entries = max(m * m, int(slots @ slots)) if gram else (n * d) ** 2
        size = max(1, linalg._STACK_ENTRIES // entries)
    e = None if gram else (~pattern.mask).astype(float)  # J^T J's E = 1 off the support
    layout = None
    results: list = [None] * k

    def leave(g, stops, reasons):
        """The rows stops of the chunk stop at their V V^T, rows of g."""
        y = g[stops]
        matrices = _affine_project(0.5 * (y + y.swapaxes(-1, -2)), free, eye)
        for matrix, row, reason in zip(matrices, stops, reasons):
            member, history, _ = rows[row]
            results[member] = RefineResult(matrix, reason is None, len(history) - 1,
                                           history, reason)

    for lo in range(0, k, size):
        vals, vecs = linalg._eigh(xs[lo:lo + size])
        v = vecs[..., :d] * np.sqrt(np.maximum(vals[:, None, :d], 0.0))  # each factor(d)
        # Per row of v: its member, its max|F| so far, its step of least max|F|.
        rows = [[member, [], 0] for member in range(lo, lo + len(v))]
        with np.errstate(all="ignore"):  # a step that is not finite stagnates
            for step in range(REFINE_STEPS + 1):
                g = v @ v.swapaxes(-1, -2)
                f = g.reshape(len(rows), n * n)[:, flat]
                f[:, :n] -= 1.0
                go, stops, reasons = [], [], []
                for row, (state, r) in enumerate(zip(rows, np.abs(f).max(axis=1).tolist())):
                    _, history, best = state
                    history.append(r)
                    if r < history[best]:
                        state[2] = best = step
                    if r < REFINE_STOP_TOL:
                        reason = None
                    elif step - best >= REFINE_PATIENCE or not math.isfinite(r):
                        reason = "stagnation"
                    elif step == REFINE_STEPS:
                        reason = "step cap"
                    else:
                        go.append(row)
                        continue
                    stops.append(row)
                    reasons.append(reason)
                if stops:
                    leave(g, stops, reasons)
                    if not go:
                        break
                    g, f, v = g[go], f[go], v[go]
                    rows = [rows[row] for row in go]
                live = len(rows)
                # Row (i, j) of J holds V_j in node i's block and V_i in node j's,
                # so J^T y is (W + W^T) V with W_ij = y_ij.
                w = np.zeros((live, n * n))
                failed = []  # rows whose least-squares solve raised
                if gram:  # J J^T: <V_other[s], V_other[t]> of the slots s, t at a node
                    if layout is None:  # slot s of the 2m: row eq[s], node ends[s], V[other[s]]
                        ends, other = np.concatenate([i, j]), np.concatenate([j, i])
                        eq = np.concatenate([np.arange(m)] * 2)
                        s, t = np.nonzero(ends[:, None] == ends)
                        layout = eq[s] * m + eq[t], other[s] * n + other[t]
                    index, source = layout
                    if live > 1:  # member by member, in bins of their own
                        index = (index + m * m * np.arange(live)[:, None]).ravel()
                    jjt = np.bincount(index, g.reshape(live, n * n)[:, source].ravel(),
                                      live * m * m).reshape(live, m, m)
                    try:
                        w[:, flat] = np.linalg.solve(jjt, f[..., None])[..., 0]
                    except np.linalg.LinAlgError:  # a singular member: each alone
                        for row in range(live):
                            a, b = jjt[row], f[row]
                            try:  # a stack of one has had its solve
                                w[row, flat] = _solve(a, b) if live > 1 else (
                                    np.linalg.lstsq(a, b)[0])
                            except np.linalg.LinAlgError:
                                failed.append(row)
                    w = w.reshape(live, n, n)
                    dv = (w + w.swapaxes(-1, -2)) @ v
                else:  # J^T J: E_pq V_q V_p^T in block (p, q), sum_q (E+4I)_pq V_q V_q^T in (p, p)
                    w[:, flat] = f
                    w = w.reshape(live, n, n)
                    jtf = ((w + w.swapaxes(-1, -2)) @ v).reshape(live, n * d)
                    dv = np.zeros_like(v)
                    for row, vr in enumerate(v):
                        jtj = np.einsum("pq,qa,pb->paqb", e, vr, vr)
                        jtj[range(n), :, range(n), :] += np.einsum(
                            "pq,qa,qb->pab", e + 4.0 * eye, vr, vr)
                        try:
                            dv[row] = np.linalg.lstsq(
                                jtj.reshape(n * d, -1), jtf[row])[0].reshape(n, d)
                        except np.linalg.LinAlgError:
                            failed.append(row)
                v = v - dv
                if failed:
                    leave(g, failed, ["stagnation"] * len(failed))
                    go = [row for row in range(live) if row not in failed]
                    if not go:
                        break
                    v = v[go]
                    rows = [rows[row] for row in go]
    return results


# ---------------------------------------------------------------------------
# Randomized retries.
# ---------------------------------------------------------------------------

@dataclass
class AttemptRecord:
    """One transcript attempt, all scalars, so a transcript does not grow
    with max_iter.  sdp_converged means the SDP's stop rule fired, at
    ADMM_STOP_TOL, not at an optimum.  The spectral attempt 0 records the
    SDP at all-ones weights after its one iteration, whose X is X0 (1
    iteration, not converged unless the support is diagonal).
    refine_affine_residual is refinement's last max|F|; certified and
    certify_reason stay None unless it converged."""

    index: int
    sdp_converged: bool
    sdp_iterations: int
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
    """Record _attempts' attempts in order, refined whether or not their
    SDP converged (refinement needs no PSD start), until one certifies:
    every converged refinement goes through certify, the one gate, at
    verify_tol, and only a verified cone ends the retries, its realization
    and report coming back with the result."""
    d = params.target_rank
    attempts: list[AttemptRecord] = []
    for sdp, ref in _attempts(pattern, params):
        record = AttemptRecord(
            index=len(attempts),
            sdp_converged=sdp.converged,
            sdp_iterations=sdp.iterations,
            refine_converged=ref.converged,
            refine_iterations=ref.iterations,
            refine_reason=ref.reason,
            refine_affine_residual=ref.residuals[-1],
        )
        attempts.append(record)
        if ref.converged:
            real, report, record.certify_reason = certify(ref.matrix, pattern, d, verify_tol)
            record.certified = real is not None
            if record.certified:
                return RetryResult(ref.matrix, True, attempts, real, report)
    return RetryResult(matrix=None, success=False, attempts=attempts)


def _attempts(pattern: SupportPattern, params: SearchParams):
    """randomized_retry's attempts, lazily and in attempt order, as
    (SdpResult, RefineResult) pairs, each the one it gets alone, bit for bit.

    Attempt 0 refines X0 = I + A / 2 (A the support off the diagonal), whose
    top-d eigenvectors embed the support (Koren 2005): a cycle-like
    support's embedding is the regular polygon.  X0 is the all-ones SDP's
    first ADMM iterate P_aff(I + C / ADMM_RHO), so attempt 0 is that SDP run
    for one iteration, and rank_refine.  It draws nothing.

    The later attempts draw weights uniformly from [0.5, 1.5), seeded by
    params.seed, in stacks of max(1, linalg._STACK_ENTRIES // n**2) draws
    (the draws of one (n, n) draw per attempt), each one _sdp_loop and one
    _refine call.  A stack that raises, in either, reruns one draw at a
    time, by sdp_feasibility and _refine, so an error surfaces at its own
    attempt, after the earlier ones are recorded and certified.
    """
    n, d = pattern.n, params.target_rank
    sdp = sdp_feasibility(pattern, np.ones((n, n)), replace(params, max_iter=1))
    yield sdp, rank_refine(sdp.matrix, d, pattern)
    rng = np.random.default_rng(params.seed)
    stack = max(1, linalg._STACK_ENTRIES // n**2)
    for index in range(1, params.retries, stack):
        weights = rng.uniform(0.5, 1.5, size=(min(stack, params.retries - index), n, n))
        try:
            sdps = _sdp_loop(pattern.mask, _objective_weights(pattern.mask, weights), params)
            refined = _refine(np.stack([sdp.matrix for sdp in sdps]), d, pattern)
        except (ConvergenceError, PreconditionError):
            for w in weights:
                sdp = sdp_feasibility(pattern, w, params)
                yield sdp, _refine(sdp.matrix[None], d, pattern)[0]
        else:
            yield from zip(sdps, refined)


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
    Its residuals: support_violation, max |(V V^T)_ij| off the support, and
    selfdual_gap, NaN until certify sets it; V V^T is PSD by construction.
    """
    a = linalg.require_symmetric(x)
    if a.size == 0:
        raise PreconditionError("Gram matrix is empty")
    mask = slack_support(a)  # refuses a negative entry before the rank rule runs
    factor = geometry._spectral_factor(linalg.sym_eigen(a), d)
    gram = factor @ factor.T
    residuals = {
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
    """success, realization and verification read failure and retry."""

    params: SearchParams
    sisd_permutation: np.ndarray | None
    pattern: SupportPattern | None
    retry: RetryResult | None
    failure: str | None = None

    @property
    def success(self) -> bool:
        return self.failure is None

    @property
    def realization(self) -> Realization | None:
        return None if self.retry is None else self.retry.realization

    @property
    def verification(self) -> selfdual.SlackReport | None:
        return None if self.retry is None else self.retry.verification


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
        return PipelineResult(params, None, None, None, "support is not strongly involutive")
    if params.target_rank > len(sigma):
        raise PreconditionError(
            f"target rank {params.target_rank} exceeds the support size {len(sigma)}"
        )
    pattern = apply_sisd(np.asarray(support), sigma)
    retry = randomized_retry(pattern, params, verify_tol)
    failure = None if retry.success else f"no realization found in {params.retries} attempts"
    return PipelineResult(params, sigma, pattern, retry, failure)
