"""Self-duality decisions through PSD slack scalings.

A pointed full-dimensional polyhedral cone is self-dual under some inner
product exactly when one (equivalently, up to row exchange and positive
column rescaling, every) slack matrix can be made symmetric positive
semidefinite.  The certificate search tries support-compatible row
permutations in the order a backtracking search finds them.
For each it fits the column scaling to every support pair by weighted least
squares, accepts it only when it makes the permuted slack symmetric, and
verifies the result spectrally; the first permutation that passes is the
certificate.

certify_slack is the other direction's one rule: whether a cone, such as
the cone of a PSD matrix's spectral factor, is self-dual with a slack of a
target support.  search, analyze and certify_psd_slack all judge by it, the
last two through one verdict on a candidate PSD slack, _psd_slack_verdict.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import geometry, linalg
from .errors import PreconditionError
from .patterns import (
    involution_permutations, is_connected, slack_support, spanning_forest, support_of)

# Symmetry tolerance of the scaled matrix, relative to its largest entry.
SCALED_SYMMETRY_TOL = 1e-9


@dataclass
class PsdSlackCertificate:
    """Witness that a slack matrix becomes PSD after reordering rows and
    rescaling columns.

    Row i of psd_matrix is row permutation[i] of the slack, columns scaled by
    the positive entries of scaling; min_eigenvalue is its smallest
    eigenvalue, the one linalg.EigenDecomposition.is_psd judged.
    """

    permutation: np.ndarray
    scaling: np.ndarray
    psd_matrix: np.ndarray
    min_eigenvalue: float


def _solve_scaling(n_mat: np.ndarray, mask: np.ndarray) -> np.ndarray | None:
    """Positive column multipliers making a matrix with the symmetric support
    mask symmetric, or None when the best ones leave it asymmetric.

    The equations N_ij d_j = N_ji d_i fix d up to one factor per component.
    x = log d is fitted by least squares to x_j - x_i = log N_ji - log N_ij,
    one equation per support pair i < j weighted by min(N_ij, N_ji), with
    x = 0 at each root of patterns.spanning_forest.  The fit is accepted
    when the scaled matrix is symmetric to SCALED_SYMMETRY_TOL relative to
    its largest entry.
    """
    _, parent = spanning_forest(mask)
    free = np.array(parent) >= 0
    i, j = np.nonzero(np.triu(mask, k=1))
    w = np.minimum(n_mat[i, j], n_mat[j, i])
    incidence = np.zeros((len(i), len(free)))
    incidence[np.arange(len(i)), j] = w
    incidence[np.arange(len(i)), i] = -w
    x = np.zeros(len(free))
    x[free] = np.linalg.lstsq(
        incidence[:, free], w * (np.log(n_mat[j, i]) - np.log(n_mat[i, j])), rcond=None
    )[0]
    d = np.exp(x)
    scaled = n_mat * d[None, :]
    # `not <=` also refuses the NaN asymmetry of an overflowed scaling.
    if not np.abs(scaled - scaled.T).max() <= SCALED_SYMMETRY_TOL * np.abs(scaled).max():
        return None
    return d


def find_psd_scaling(slack) -> PsdSlackCertificate | None:
    """Search for a row permutation and positive column scaling making the
    slack PSD.  slack is a matrix, checked by slack_support and
    geometry.slack_pattern_reasons, or a geometry.SlackMatrix, whose zeros
    are its cone's incidence and whose other entries are positive, so its
    support is m > 0.

    Permutations are tried in the order patterns.involution_permutations
    yields them, each once, and the search stops at the first certificate,
    returned with the gauge freedom fixed so the PSD matrix's largest
    diagonal entry equals the largest diagonal entry of the input.  Absence
    is returned only after every support-compatible permutation has been
    tried.  The enumeration raises ConvergenceError from the next() that
    takes it over patterns.INVOLUTION_NODE_BUDGET nodes, so only a search
    that has certified no permutation by then fails.
    """
    if isinstance(slack, geometry.SlackMatrix):
        m = slack.matrix
        z = m > 0.0
    else:
        m = linalg.as_matrix(slack)
        z = slack_support(m)
        reasons = geometry.slack_pattern_reasons(m, support=z)  # the checks that need no d
        if reasons:
            raise PreconditionError("not a slack matrix: " + "; ".join(reasons))
    if m.shape[0] != m.shape[1]:
        return None
    target_diag = float(np.diag(m).max())
    for perm in involution_permutations(z.T):
        n_mat = m[perm, :]
        d = _solve_scaling(n_mat, z[perm])
        if d is None:
            continue
        scaled = n_mat * d[None, :]
        if target_diag > 0.0:
            gauge = target_diag / float(np.diag(scaled).max())
            d = d * gauge
            scaled = scaled * gauge
        sym = 0.5 * (scaled + scaled.T)
        eig = linalg.sym_eigen(sym)
        if not eig.is_psd(float(np.abs(scaled).max())):
            continue
        return PsdSlackCertificate(
            permutation=np.asarray(perm, dtype=int),
            scaling=d,
            psd_matrix=sym,
            min_eigenvalue=float(eig.values[-1]),
        )
    return None


def is_self_dual(
    cone: geometry.PolyhedralCone, tol: float = geometry.DEFAULT_FACET_TOL
) -> tuple[bool, PsdSlackCertificate | None]:
    """Decide self-duality of a cone (with respect to *some* inner product).

    True exactly when the PSD-scaling search succeeds on the cone's slack
    matrix, built at tol (PreconditionError when a generator is not an
    extreme ray); the certificate is attached.
    """
    cert = find_psd_scaling(geometry.slack_matrix(cone, tol))
    return cert is not None, cert


@dataclass
class SlackReport:
    """certify_slack's verdict on a cone against a target support.

    min_structural_ratio and max_off_support_ratio are the aligned slack's
    smallest on-support entry and largest off-support |entry|, each over its
    largest entry; details say why a failed check failed."""

    generator_match: bool
    support_match: bool
    worst_cosine: float
    min_structural_ratio: float
    max_off_support_ratio: float
    details: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return self.generator_match and self.support_match


def certify_slack(cone: geometry.PolyhedralCone, support, tol: float) -> SlackReport:
    """Whether a cone is self-dual with a slack of this support: the one rule
    by which search, analyze and certify_psd_slack judge a PSD matrix.

    One dual_round_trip at tol matches the facets to the generators
    bijectively at cosine >= 1 - tol.  Its incidence at tol, aligned through
    that match, must then be the complement of the support: the zeros
    geometry.slack_matrix gives the cone.  The aligned slack's smallest
    on-support and largest off-support ratios are margins, not tests.
    """
    mask = np.asarray(support, dtype=bool)
    if cone.n_rays != mask.shape[0]:
        return SlackReport(False, False, 0.0, 0.0, 1.0, [
            f"{cone.n_rays} generators for a {mask.shape[0]}-point support"])
    try:
        trip = geometry.dual_round_trip(cone, tol)
    except PreconditionError as exc:
        return SlackReport(False, False, 0.0, 0.0, 1.0, [str(exc)])
    worst = trip.worst_cosine
    if trip.mapping is None:
        return SlackReport(False, False, worst, 0.0, 1.0, [
            f"dual generators do not match primal generators bijectively "
            f"({trip.slack.shape[1]} facets, worst cosine {worst:.12f})"])
    ratios = trip.slack / trip.slack.max()
    off_max = float(np.abs(ratios[~mask]).max(initial=0.0))
    on_min = float(ratios[mask].min())
    support_ok = np.array_equal(trip.incidence, ~mask)
    details = [] if support_ok else [
        f"slack support mismatch: off-support ratio {off_max:.3e}, "
        f"smallest on-support ratio {on_min:.3e}"]
    return SlackReport(True, support_ok, worst, on_min, off_max, details)


def certify_psd_slack(matrix, d: int) -> tuple[bool, str]:
    """Certify that a symmetric matrix (anything linalg.as_matrix takes) is a
    PSD slack matrix of a self-dual cone in R^d: analyze's verdict at its
    default tol, _psd_slack_verdict with the PSD test at linalg.PSD_TOL.  A
    matrix that is not symmetric or has a negative entry on its support gets
    (False, why)."""
    matrix = linalg.as_matrix(matrix)
    try:
        support = slack_support(matrix)
        eig = linalg.sym_eigen(matrix)
    except PreconditionError as exc:
        return False, str(exc)
    return _psd_slack_verdict(
        eig.is_psd(float(np.abs(matrix).max(initial=0.0))),
        geometry.slack_pattern_reasons(matrix, d, rank=eig.rank(), support=support),
        eig, support, d)


def _psd_slack_verdict(
    psd: bool, reasons: list[str], eig: linalg.EigenDecomposition,
    support: np.ndarray, d: int,
) -> tuple[bool, str]:
    """Verdict on a candidate PSD slack in R^d, given its PSD test, its slack
    pattern reasons at d, its decomposition and its slack_support: refused if
    not PSD, else by those reasons, else by certify_slack at DEFAULT_FACET_TOL
    on the cone of its top-d spectral factor."""
    if not psd:
        return False, "matrix is not PSD"
    if reasons:
        return False, "; ".join(reasons)
    try:
        cone = geometry.PolyhedralCone(geometry._spectral_factor(eig, d))
    except PreconditionError as exc:
        return False, str(exc)
    report = certify_slack(cone, support, geometry.DEFAULT_FACET_TOL)
    if not report.passed:
        return False, "; ".join(report.details)
    return True, "factor-cone round trip reproduces the support"


def is_irreducible(a) -> bool:
    """Connectivity of the support graph G(A): vertices 1..n, an edge per
    nonzero off-diagonal entry."""
    return is_connected(support_of(linalg.require_symmetric(a)))


def is_simplicial(obj) -> bool:
    """True when the cone is linearly isomorphic to a nonnegative orthant.

    Accepts a PolyhedralCone (pointed, spanning, as many extreme_rays as
    dimensions) or a slack matrix (square with a permutation zero pattern,
    the only patterns diagonal representatives can have).
    """
    if isinstance(obj, geometry.PolyhedralCone):
        try:
            return geometry.extreme_rays(obj.generators).n_rays == obj.dim
        except PreconditionError:
            return False
    m = linalg.as_matrix(obj)
    return m.shape[0] == m.shape[1] and _is_permutation_pattern(support_of(m))


def _is_permutation_pattern(nz: np.ndarray) -> bool:
    """One True per row and per column of the square boolean matrix nz."""
    return bool(np.all(nz.sum(axis=1) == 1) and np.all(nz.sum(axis=0) == 1))
