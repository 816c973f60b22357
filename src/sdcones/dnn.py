"""Doubly nonnegative matrix analysis.

Extreme rays of the DNN cone are certified through the tangent-space
criterion: with A = X X^T of rank k, the span W1 = {X Q X^T} is intersected
with the subspace W2 of matrices vanishing on A's zero pattern, and A
generates an extreme ray exactly when that intersection is the line through
A.  Membership verdicts for the completely positive and completely positive
semidefinite cones are structural rule applications gated on certified
hypotheses, never numerical searches.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import ConvergenceError, PreconditionError
from .patterns import SUPPORT_CLAMP, is_connected, support_of


def is_dnn(a, tol: float = linalg.PSD_TOL) -> bool:
    """PSD by EigenDecomposition.is_psd at tol, and no entry below
    -max(tol, SUPPORT_CLAMP) * max|entry|, so a zero of support_of passes."""
    m = linalg.require_symmetric(a)
    return _is_dnn(m, linalg.sym_eigen(m), tol)


def _is_dnn(m: np.ndarray, eig: linalg.EigenDecomposition, tol: float) -> bool:
    """is_dnn of a validated symmetric matrix, read from its eigenvalues."""
    scale = float(np.abs(m).max(initial=0.0))
    if m.min(initial=0.0) < -max(tol, SUPPORT_CLAMP) * scale:
        return False
    return eig.is_psd(scale, tol)


@dataclass
class ExtremalityReport:
    """Outcome of the W1/W2 intersection test.

    intersection_dim is always >= 1 (the matrix itself lies in both spaces);
    extreme means it equals 1.  borderline holds alternative dimensions at
    neighbouring ranks when the k-th eigenvalue sits within a factor 10 of
    the rank cutoff.
    """

    rank: int
    intersection_dim: int
    extreme: bool
    support_cycle5: bool
    borderline: dict[int, int] | None = None


def _intersection_dim(eig: linalg.EigenDecomposition, support: np.ndarray, k: int) -> int:
    """dim(W1 ∩ W2) for the rank-k factor X from the top-k eigenpairs of a
    matrix with this support_of.

    Column (p, q) of the system holds the image X E X^T of the (p, q) element
    E of an orthonormal basis of symmetric k x k matrices, off-diagonal
    elements carrying the 1/sqrt(2) weight, at the zero entries."""
    x = eig.factor(k)
    rows, cols = np.nonzero(np.triu(~support))
    if rows.size == 0:
        return k * (k + 1) // 2
    p, q = np.triu_indices(k)
    xi, xj = x[rows], x[cols]
    c = xi[:, p] * xj[:, q]
    off = p != q
    c[:, off] = (c[:, off] + xi[:, q[off]] * xj[:, p[off]]) / np.sqrt(2.0)
    # Upper-triangle vectorization with sqrt(2) off-diagonal weights makes the
    # Euclidean product of coefficient vectors the Frobenius product; the
    # weights do not change the null space but keep the scaling honest.
    c[rows != cols] *= np.sqrt(2.0)
    return c.shape[1] - linalg.numeric_rank(c)


def _is_cycle5(support: np.ndarray) -> bool:
    """Whether a matrix with this support_of has the 5-cycle as support graph."""
    if support.shape[0] != 5:
        return False
    mask = support & ~np.eye(5, dtype=bool)
    if not np.all(mask.sum(axis=1) == 2):
        return False
    # Degree-2 everywhere means a disjoint union of cycles; on 5 vertices a
    # single component is the 5-cycle.
    return is_connected(mask)


def dnn_extremality(a, tol: float = linalg.PSD_TOL) -> ExtremalityReport:
    """Certify whether a DNN matrix generates an extreme ray of the DNN cone.

    The rank k counts eigenvalues above DEFAULT_RANK_TOL times the largest;
    singular values would also count negative eigenvalues a loose tol admits.
    When the smallest retained eigenvalue sits within 10x of the rank cutoff
    the report also carries the intersection dimensions at ranks k-1 and k+1
    instead of silently committing to one reading.
    """
    m = linalg.require_symmetric(a)
    return _extremality(m, linalg.sym_eigen(m), support_of(m), tol)


def _extremality(
    m: np.ndarray, eig: linalg.EigenDecomposition, support: np.ndarray, tol: float
) -> ExtremalityReport:
    """dnn_extremality of a validated symmetric matrix with this
    decomposition and support_of."""
    if not _is_dnn(m, eig, tol):
        raise PreconditionError("matrix is not doubly nonnegative within tolerance")
    top = float(eig.values[0]) if eig.values.size else 0.0
    if top <= 0.0:
        raise PreconditionError("zero matrix has no extreme-ray certificate")
    k = int(np.count_nonzero(eig.values > linalg.DEFAULT_RANK_TOL * top))
    dim = _intersection_dim(eig, support, k)
    borderline = None
    if eig.values[k - 1] <= 10.0 * linalg.DEFAULT_RANK_TOL * top:
        borderline = {}
        for alt in (k - 1, k + 1):
            if 1 <= alt <= m.shape[0]:
                borderline[alt] = _intersection_dim(eig, support, alt)
    return ExtremalityReport(
        rank=k,
        intersection_dim=dim,
        extreme=(dim == 1),
        support_cycle5=_is_cycle5(support),
        borderline=borderline,
    )


def dnn5_classify(a, tol: float = linalg.PSD_TOL) -> str:
    """Classify a 5x5 DNN matrix: 'rank1', 'pentagon_slack' (rank 3 with a
    5-cycle support, hence an extreme ray coming from a self-dual pentagon
    cone) or 'not_extreme'.

    The label is cross-checked against the W1/W2 certificate; a disagreement
    means the tolerances are inconsistent and is raised as ConvergenceError
    rather than hidden.
    """
    m = linalg.require_symmetric(a)
    if m.shape != (5, 5):
        raise PreconditionError("classification applies to 5x5 matrices")
    eig = linalg.sym_eigen(m)
    return _dnn5_label(eig.rank(), _extremality(m, eig, support_of(m), tol))


def _dnn5_label(rank: int, report: ExtremalityReport) -> str:
    """dnn5_classify's label from the numeric rank and the extremality
    report of a 5x5 DNN matrix, cross-checked against the report."""
    if rank == 1:
        label = "rank1"
    elif rank == 3 and report.support_cycle5:
        label = "pentagon_slack"
    else:
        label = "not_extreme"
    if report.extreme != (label != "not_extreme"):
        raise ConvergenceError(
            f"classification {label!r} disagrees with the extremality "
            f"certificate (intersection_dim={report.intersection_dim})"
        )
    return label


@dataclass
class SlackVerdicts:
    """Membership verdicts for a certified PSD slack of a self-dual cone.

    Each verdict carries a machine-readable provenance naming the rule that
    produced it.
    """

    dnn_extreme: bool
    cp_member: bool
    cpsd_member: bool
    provenance: dict[str, str]


def classify_psd_slack(a, irreducible: bool, simplicial: bool) -> SlackVerdicts:
    """Apply the structural membership rules to a certified PSD slack.

    Hypotheses (the matrix is a PSD slack of a self-dual polyhedral cone, its
    irreducibility, its simpliciality) must be certified by the caller; the
    rules are:

    * irreducible      => the slack generates an extreme ray of the DNN cone
      (re-verified numerically here; a disagreement raises ConvergenceError);
    * simplicial       => the slack has a diagonal representative, which is
      completely positive and completely positive semidefinite;
    * not simplicial   => the slack is non-diagonal, hence outside the
      completely positive semidefinite cone and a fortiori outside the
      completely positive cone.
    """
    m = linalg.require_symmetric(a)
    if not m.any():
        raise PreconditionError("zero matrix is not a slack matrix")
    eig = linalg.sym_eigen(m)
    if not _is_dnn(m, eig, linalg.PSD_TOL):
        raise PreconditionError("a PSD slack must be doubly nonnegative")
    report = _extremality(m, eig, support_of(m), linalg.PSD_TOL)
    return _slack_verdicts(report, irreducible, simplicial)


def _slack_verdicts(
    report: ExtremalityReport, irreducible: bool, simplicial: bool
) -> SlackVerdicts:
    """classify_psd_slack's rules, cross-checked against the extremality
    report of the certified PSD slack."""
    dnn_extreme = bool(irreducible)
    if report.extreme != dnn_extreme:
        raise ConvergenceError(
            "irreducibility hypothesis disagrees with the numerical "
            f"extremality certificate (intersection_dim={report.intersection_dim})"
        )
    member = bool(simplicial)
    provenance = {
        "dnn_extreme": (
            "irreducible-psd-slack-extreme-ray; reverified: intersection-dim-1"
            if dnn_extreme
            else "reducible-slack-splits-as-block-sum; reverified: "
            f"intersection-dim-{report.intersection_dim}"
        ),
        "cp_member": (
            "diagonal-slack-is-completely-positive"
            if member
            else "nondiagonal-psd-slack-outside-cpsd-hence-outside-cp"
        ),
        "cpsd_member": (
            "diagonal-slack-is-completely-positive-semidefinite"
            if member
            else "nondiagonal-psd-slack-outside-cpsd"
        ),
    }
    return SlackVerdicts(
        dnn_extreme=dnn_extreme,
        cp_member=member,
        cpsd_member=member,
        provenance=provenance,
    )


def verify_congruence(a, m, b, tol: float = 1e-12) -> bool:
    """Check A = M B M^T with M entrywise nonnegative, in relative max norm."""
    am = linalg.as_matrix(a)
    mm = linalg.as_matrix(m)
    bm = linalg.as_matrix(b)
    if mm.shape[0] != am.shape[0] or mm.shape[1] != bm.shape[0]:
        raise PreconditionError(
            f"incompatible shapes: A {am.shape}, M {mm.shape}, B {bm.shape}"
        )
    for name, x in (("A", am), ("M", mm), ("B", bm)):
        if x.size == 0:
            raise PreconditionError(f"{name} is empty: shape {x.shape}")
    if mm.min() < -tol:
        return False
    resid = float(np.abs(am - mm @ bm @ mm.T).max())
    scale = float(np.abs(am).max())
    return resid <= tol * max(scale, 1e-300)
