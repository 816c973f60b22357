"""Self-duality decisions through PSD slack scalings.

A pointed full-dimensional polyhedral cone is self-dual under some inner
product exactly when one (equivalently, up to row exchange and positive
column rescaling, every) slack matrix can be made symmetric positive
semidefinite.  The certificate search enumerates support-compatible row
permutations by backtracking, solves the column-scaling equations on a
spanning forest of the support graph, and verifies the result spectrally.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import geometry, linalg
from .errors import PreconditionError
from .patterns import involution_permutations, is_connected, spanning_forest, support_of

# Cycle-consistency tolerance for the scaling equations (relative).
SCALING_CYCLE_TOL = 1e-8

# A certificate's PSD matrix may dip this far below zero, relative to its
# largest entry, and still count as positive semidefinite.
PSD_EIG_TOL = 1e-9

# Symmetry tolerance of the scaled matrix, relative to its largest entry.
SCALED_SYMMETRY_TOL = 1e-9

# certify_psd_slack matches the rebuilt cone's facet normals to its
# generators when their cosine reaches 1 minus this.
ROUND_TRIP_MATCH_TOL = 1e-7


@dataclass
class PsdSlackCertificate:
    """Witness that a slack matrix becomes PSD after reordering rows and
    rescaling columns.

    Row i of psd_matrix is row permutation[i] of the slack, columns scaled by
    the positive entries of scaling; min_eigenvalue is its smallest
    eigenvalue, re-verified by an independent eigendecomposition.
    """

    permutation: np.ndarray
    scaling: np.ndarray
    psd_matrix: np.ndarray
    min_eigenvalue: float


def _solve_scaling(n_mat: np.ndarray) -> np.ndarray | None:
    """Positive column multipliers making a support-symmetric matrix
    symmetric, or None when some cycle of the support graph is inconsistent.

    The equations N_ij d_j = N_ji d_i fix d up to one factor per component:
    d = 1 at each root of patterns.spanning_forest, each child solves the
    equation with its parent, and the others are checked as cycle conditions.
    """
    mask = support_of(n_mat)
    order, parent = spanning_forest(mask)
    d = np.ones(n_mat.shape[0])
    for j in order:
        if parent[j] >= 0:
            d[j] = d[parent[j]] * n_mat[j, parent[j]] / n_mat[parent[j], j]
    scaled = n_mat * d[None, :]
    gap = np.abs(scaled - scaled.T)
    ref = np.maximum(np.abs(scaled), np.abs(scaled.T))
    bad = gap > SCALING_CYCLE_TOL * np.maximum(ref, 1e-300)
    if np.any(bad & mask):
        return None
    return d


def find_psd_scaling(slack) -> PsdSlackCertificate | None:
    """Search for a row permutation and positive column scaling making the
    slack PSD.

    Absence is returned only after every support-compatible permutation has
    been tried.  The enumeration always finishes before the first permutation
    is tried, so one that would exceed patterns.INVOLUTION_NODE_BUDGET raises
    ConvergenceError even when an early permutation would have certified the
    slack.  The first certificate in lexicographic permutation order is
    returned, with the gauge freedom fixed so the PSD matrix's largest
    diagonal entry equals the largest diagonal entry of the input.
    """
    m = linalg.as_matrix(slack)
    reasons = geometry.slack_pattern_reasons(m)  # the checks that need no d
    if reasons:
        raise PreconditionError("not a slack matrix: " + "; ".join(reasons))
    if m.shape[0] != m.shape[1]:
        return None
    z = support_of(m).astype(np.uint8)
    target_diag = float(np.diag(m).max())
    for perm in involution_permutations(z.T):
        n_mat = m[perm, :]
        d = _solve_scaling(n_mat)
        if d is None:
            continue
        scaled = n_mat * d[None, :]
        top = float(np.diag(scaled).max())
        if top <= 0.0:
            continue
        if target_diag > 0.0:
            gauge = target_diag / top
            d = d * gauge
            scaled = scaled * gauge
        asym = float(np.abs(scaled - scaled.T).max())
        scale = float(np.abs(scaled).max())
        if asym > SCALED_SYMMETRY_TOL * max(scale, 1e-300):
            continue
        sym = 0.5 * (scaled + scaled.T)
        min_eig = float(linalg.sym_eigen(sym).values[-1])
        if min_eig < -PSD_EIG_TOL * max(scale, 1e-300):
            continue
        return PsdSlackCertificate(
            permutation=np.asarray(perm, dtype=int),
            scaling=d,
            psd_matrix=sym,
            min_eigenvalue=min_eig,
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
    cert = find_psd_scaling(geometry.slack_matrix(cone, tol).matrix)
    return cert is not None, cert


def certify_psd_slack(matrix: np.ndarray, d: int) -> tuple[bool, str]:
    """Certify that a symmetric PSD matrix is a slack matrix of a self-dual
    cone by rebuilding the cone from its spectral factor and matching the
    rebuilt slack's support back to the input.
    """
    ok, reasons = geometry.slack_necessary_check(matrix, d)
    if not ok:
        return False, "; ".join(reasons)
    return _factor_cone_round_trip(matrix, d)


def _factor_cone_round_trip(matrix: np.ndarray, d: int) -> tuple[bool, str]:
    """certify_psd_slack on a matrix that has passed
    geometry.slack_necessary_check at d: the rebuild and the support match."""
    try:
        cone = geometry.cone_from_factorization(matrix, d)
        trip = geometry.dual_round_trip(
            cone, geometry.DEFAULT_FACET_TOL, ROUND_TRIP_MATCH_TOL
        )
        rebuilt = geometry.clamped_slack(trip.slack, d)
    except PreconditionError as exc:
        return False, str(exc)
    if rebuilt.shape != matrix.shape:
        return False, (
            f"rebuilt cone has {rebuilt.shape[1]} facets for {rebuilt.shape[0]} "
            "rays; not self-dual"
        )
    if trip.mapping is None:
        return False, "rebuilt dual generators do not match the primal ones"
    if not np.array_equal(support_of(rebuilt), support_of(matrix)):
        return False, "rebuilt slack support differs from the input support"
    return True, "factor-cone round trip reproduces the support"


def is_irreducible(a) -> bool:
    """Connectivity of the support graph G(A): vertices 1..n, an edge per
    nonzero off-diagonal entry."""
    return is_connected(support_of(linalg.require_symmetric(a)))


def is_simplicial(obj) -> bool:
    """True when the cone is linearly isomorphic to a nonnegative orthant.

    Accepts a PolyhedralCone (as many generators as dimensions, spanning) or
    a slack matrix (square with a permutation zero pattern, the only patterns
    diagonal representatives can have).
    """
    if isinstance(obj, geometry.PolyhedralCone):
        return obj.n_rays == obj.dim and geometry.is_full_dimensional(obj)
    m = linalg.as_matrix(obj)
    if m.shape[0] != m.shape[1]:
        return False
    nz = support_of(m)
    return bool(np.all(nz.sum(axis=1) == 1) and np.all(nz.sum(axis=0) == 1))
