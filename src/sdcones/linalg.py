"""Dense kernels: symmetric eigendecomposition, singular values, numeric
rank, null spaces, and the two spectral projections used by the rest of the
package.

The factorizations are LAPACK calls through numpy.linalg, every eig the
gufunc numpy.linalg.eigh calls, under eigh's floating-point policy, so it has
eigh's bits without eigh's Python layer; this module adds the package's
contract on top: validated input, eigenvalues descending, singular values
padded to one per column, and LAPACK failures raised as ConvergenceError.
sym_eigen and null_space return bases, so they fix the sign of every basis
vector.  One rule (_rank) decides every numeric rank, from a values-only SVD
(singular_values) or from the absolute eigenvalues of a decomposition the
caller holds (EigenDecomposition.rank); no rank test takes a per-call
tolerance.  EigenDecomposition.is_psd is the one PSD test of a candidate
slack or DNN matrix.  null_directions is the one SVD that forms singular
vectors, and reads its nullities off its own singular values; null_space is
its one-matrix case.  orthogonal_directions gives the facet scan one
candidate normal per subset of a stack, from one Householder QR each; no rank
test judges the candidates, which the scan keeps by their tight sets alone.
psd_project and low_rank_project validate their input and share one body,
_clip_project: clip the eigenvalues at 0, keep the d largest (d = n for
psd_project) and return V diag(w) V^T, in which the sign of each column of V
cancels exactly, so it skips the sign rule.  It takes stacks, each matrix
getting the bits it would get alone, and the search loops call it
unvalidated.  All functions are pure; there is no shared mutable state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.linalg._umath_linalg import eigh_lo as _eigh_lo  # numpy.linalg.eigh's kernel

from .errors import ConvergenceError, PreconditionError

# Pairwise bound consumers of symmetric matrices enforce:
# |A_ij - A_ji| <= SYMMETRY_TOL * max(1, |A_ij|).
SYMMETRY_TOL = 1e-12

# Default relative cutoff separating numerical zeros from structural values.
DEFAULT_RANK_TOL = 1e-8

PSD_TOL = 1e-9  # relative PSD tolerance: is_psd's, dnn's, analyze's and the SDP's


def as_matrix(a) -> np.ndarray:
    """Coerce to a finite 2-d float array."""
    return _finite(a, stack=False)


def _finite(a, stack: bool) -> np.ndarray:
    """Coerce to a finite float array: one matrix, or with stack also a
    stack of matrices (leading batch axes)."""
    m = np.asarray(a, dtype=float)
    if m.ndim != 2 and not (stack and m.ndim > 2):
        raise PreconditionError(f"expected a 2-d matrix, got ndim={m.ndim}")
    if np.count_nonzero(np.isfinite(m)) != m.size:
        raise PreconditionError("matrix entries must be finite")
    return m


def asymmetry(a) -> float:
    """Largest |a_ij - a_ji| over all index pairs."""
    m = as_matrix(a)
    if m.shape[0] != m.shape[1] or m.size == 0:
        return float("inf") if m.shape[0] != m.shape[1] else 0.0
    return float(np.abs(m - m.T).max())


def _symmetric(a, stack: bool = False) -> np.ndarray:
    """Validated square symmetric input, exactly symmetrized.  With stack,
    a may carry leading batch axes; each matrix of the stack is checked and
    symmetrized as a single matrix would be.

    Exactly symmetric input comes back as is, possibly the caller's own
    array, since symmetrizing would equal it bit for bit.  Rejection
    carries the measured asymmetry so callers can report how far the input
    was from symmetric.
    """
    m = _finite(a, stack)
    if m.shape[-2] != m.shape[-1]:
        raise PreconditionError(f"expected a square matrix, got shape {m.shape}")
    mt = m.swapaxes(-1, -2)
    # Equal bytes are equal (finite) entries, and far cheaper to compare
    # than entry by entry; only zeros of opposite sign need the latter.
    if m.tobytes() == mt.tobytes() or (m == mt).all():
        return m
    gap = np.abs(m - mt)
    bound = SYMMETRY_TOL * np.maximum(1.0, np.maximum(np.abs(m), np.abs(mt)))
    if (gap > bound).any():
        raise PreconditionError(
            f"matrix is not symmetric: measured asymmetry {gap.max():.3e} "
            f"exceeds {SYMMETRY_TOL:g} * max(1, |entry|)"
        )
    # Halving each term first cannot overflow near the largest float;
    # equal pairs, and so every member of a stack that is exactly
    # symmetric, keep their bits.
    return np.where(m == mt, m, 0.5 * m + 0.5 * mt)


def require_symmetric(a) -> np.ndarray:
    """Validate square symmetric input and return its exact symmetrization
    as a fresh array."""
    return _symmetric(a).copy()


@dataclass(frozen=True)
class EigenDecomposition:
    """Spectral factorization A = Q diag(values) Q^T.

    values are sorted descending; vectors holds the matching orthonormal
    eigenvectors as columns, each with its first nonzero component positive.
    """

    values: np.ndarray
    vectors: np.ndarray

    def factor(self, k: int) -> np.ndarray:
        """The top-k eigenvectors scaled by the square roots of their
        eigenvalues clipped at 0: X with X X^T the top-k spectral part."""
        return self.vectors[:, :k] * np.sqrt(np.clip(self.values[:k], 0.0, None))

    def rank(self) -> int:
        """numeric_rank of the decomposed matrix: its singular values are
        the absolute eigenvalues, sorted descending."""
        return int(_rank(np.sort(np.abs(self.values))[::-1]))

    def is_psd(self, scale: float, tol: float = PSD_TOL) -> bool:
        """Smallest eigenvalue >= -tol * scale, scale being the decomposed
        matrix's largest |entry|; a matrix without eigenvalues passes."""
        return not self.values.size or float(self.values[-1]) >= -tol * scale


def _positive_leading(vecs: np.ndarray) -> np.ndarray:
    """Negate each column whose first component above 1e-12 in magnitude is
    negative, so the sign of every basis vector is fixed.  Columns are
    orthonormal, so each has such a component.  vecs may carry leading batch
    axes; the rule acts on the columns of each matrix."""
    first = (np.abs(vecs) > 1e-12).argmax(axis=-2)[..., None, :]
    lead = np.take_along_axis(vecs, first, axis=-2)
    return np.where(lead < 0.0, -vecs, vecs)


@np.errstate(invalid="raise", over="ignore", divide="ignore", under="ignore")
def _eigh(w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """LAPACK eigenpairs of a validated symmetric float matrix or stack,
    eigenvalues descending (reversed views), column signs LAPACK's; as in
    eigh, only the invalid flag, LAPACK's failure signal, raises."""
    try:
        vals, vecs = _eigh_lo(w, signature="d->dd")
    except FloatingPointError as exc:
        raise ConvergenceError(f"eigh did not converge: {exc}") from exc
    return vals[..., ::-1], vecs[..., ::-1]


def sym_eigen(a) -> EigenDecomposition:
    """Eigendecomposition of a symmetric matrix by LAPACK (numpy.linalg.eigh).

    Within a repeated eigenvalue the basis is whatever LAPACK returns;
    callers depend only on the spanned eigenspace, which the tests check by
    rotating inside degenerate eigenspaces.
    """
    w = _symmetric(a)
    if w.shape[0] == 0:
        return EigenDecomposition(np.zeros(0), np.zeros((0, 0)))
    vals, vecs = _eigh(w)
    return EigenDecomposition(vals, _positive_leading(vecs))


def singular_values(a) -> np.ndarray:
    """Singular values, descending, one per column (zero-padded), from an
    SVD that forms no singular vectors."""
    m = as_matrix(a)
    try:
        s = np.linalg.svd(m, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"SVD did not converge: {exc}") from exc
    return np.concatenate([s, np.zeros(m.shape[1] - s.size)])


def _rank(sv: np.ndarray) -> np.ndarray:
    """Numeric rank from the descending singular values of one matrix, or of
    each matrix of a stack: the count above DEFAULT_RANK_TOL * (largest),
    so 0 for a zero matrix or one without columns."""
    return (sv > DEFAULT_RANK_TOL * sv[..., :1]).sum(axis=-1)


def numeric_rank(a) -> int:
    """Number of singular values above DEFAULT_RANK_TOL * (largest)."""
    return int(_rank(singular_values(a)))


def null_directions(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Null spaces of a stack of finite matrices (leading batch axes, at
    least one column each) as (nullity, vectors).

    vectors holds each matrix's right singular vectors as columns, with the
    sign rule applied; the first columns - nullity of them are an
    orthonormal basis of its row space and the last nullity of its right
    null space.  nullity is columns minus the numeric rank, so the zero
    matrix has the whole space.  Singular values descend, so the null
    directions are always the trailing columns.  Only a wide stack (fewer
    rows than columns) asks LAPACK for more right singular vectors than rows.
    """
    rows, cols = stack.shape[-2:]
    try:
        _, s, vt = np.linalg.svd(stack, full_matrices=rows < cols)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"SVD did not converge: {exc}") from exc
    return cols - _rank(s), _positive_leading(vt.swapaxes(-1, -2))


def orthogonal_directions(stack: np.ndarray) -> np.ndarray:
    """One unit vector orthogonal to the rows of each k x d matrix (k < d) of
    a stack: the last column of the complete Q of the matrix's transpose.

    One Householder QR (LAPACK geqrf) per matrix, without forming Q: the k
    reflectors are applied to e_d, last first, across the whole stack.  The
    vector spans the null space when the rows are independent; it has no
    sign rule and is not a basis when they are not.
    """
    try:
        h, tau = np.linalg.qr(stack.swapaxes(-1, -2), mode="raw")
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"QR did not converge: {exc}") from exc
    # Row i of each h holds reflector i's vector below entry i; its entry i
    # is an implicit 1.
    k, d = stack.shape[-2:]
    q = np.zeros(stack.shape[:-2] + (d,))
    q[..., -1] = 1.0
    for i in range(k - 1, -1, -1):
        v = h[..., i, :].copy()
        v[..., :i] = 0.0
        v[..., i] = 1.0
        q -= (tau[..., i] * (v * q).sum(axis=-1))[..., None] * v
    return q


def null_space(a) -> np.ndarray:
    """Orthonormal basis of the right null space, one basis vector per column:
    null_directions of a single matrix."""
    m = as_matrix(a)
    if m.shape[1] == 0:
        return np.zeros((0, 0))
    nullity, v = null_directions(m)
    return v[:, v.shape[1] - int(nullity):]


def _reconstruct(vecs: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """B = V diag(weights) V^T, symmetrized exactly as 0.5 (B + B^T) into B's
    own buffer, for one matrix or a stack.  Negating a column of V
    negates both factors of each of its terms, so the result does not
    depend on the column signs, bit for bit."""
    b = (vecs * weights[..., None, :]) @ vecs.swapaxes(-1, -2)
    return np.multiply(0.5, b + b.swapaxes(-1, -2), out=b)


def _clip_project(w: np.ndarray, d: int) -> np.ndarray:
    """V diag(kept) V^T, unchecked, of a finite exactly symmetric matrix or
    stack w: kept is its d largest eigenvalues clipped at 0, the rest zeroed."""
    vals, vecs = _eigh(w)
    kept = np.maximum(vals, 0.0)
    if d < w.shape[-1]:
        kept[..., d:] = 0.0
    return _reconstruct(vecs, kept)


def psd_project(a) -> np.ndarray:
    """Frobenius-nearest positive semidefinite matrix: eigenvalues clipped at
    0.  a may be a stack of matrices (leading batch axes); each is projected
    as on its own, bit for bit."""
    w = _symmetric(a, stack=True)
    return _clip_project(w, w.shape[-1])


def low_rank_project(a, d: int) -> np.ndarray:
    """Keep the d largest nonnegative eigenvalues, zero the rest; of each
    matrix when a is a stack."""
    w = _symmetric(a, stack=True)
    return _clip_project(w, _target_rank(d, w.shape[-1]))


def _target_rank(d: int, n: int) -> int:
    """d, refused unless 1 <= d <= n."""
    if d < 1:
        raise PreconditionError(f"target rank must be >= 1, got {d}")
    if d > n:
        raise PreconditionError(f"target rank {d} exceeds matrix size {n}")
    return d
