"""V-representation polyhedral cone calculus at desk scale.

Cones are stored as unit-normalized generator rows, duplicate directions
merged through one product of cosines.  Facets are enumerated by a scan over
the C(n, d-1) subsets of generators in lexicographic order, a chunk of
subsets at a time.  A Householder QR screen drops the subsets whose
complement direction sees generators clearly on both sides; only the
survivors, in practice the facets, take the exact path: one stacked LAPACK
SVD with vectorized rank, sign and orientation tests, then the merge.  A
random d=6, n=24 cone takes about 0.09 s and d=6, n=40 about 1.8 s (2-vCPU
host); more than FACET_SUBSET_BUDGET subsets raise ConvergenceError before
any is formed.  Facet normals are unit vectors rather than a canonical
scaling, so slack matrices are defined up to positive row/column scaling,
and every pattern comparison in this package is scale-free.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import linalg
from .errors import ConvergenceError, ParseError, PreconditionError
from .patterns import slack_support

# Two directions count as the same ray when their cosine reaches this.
DUPLICATE_COSINE = 1.0 - 1e-9

# Default orientation tolerance for the facet scan: how far on the wrong side
# of a candidate hyperplane a generator may sit before the facet is rejected.
DEFAULT_FACET_TOL = 1e-7

# Generator subsets per chunk of the facet scan, and at most _SCAN_ENTRIES
# subset-generator products per chunk, which bounds the scan's memory at any
# C(n, d-1) and n.  With the screen, chunks of 1024 subsets scan d=5..7
# cones with 12 to 24 generators up to 20 % faster than chunks of 256.
_SCAN_CHUNK = 1024
_SCAN_ENTRIES = 1 << 20

# The facet scan's work budget: more (d-1)-subsets than this raise
# ConvergenceError before any is formed.  A scan at the budget takes about
# 2.7 s at d=6, 4.7 s at d=3, 6.2 s at d=12 and 12 s at d=16 (2-vCPU host,
# random cones); it admits d=6, n=40 (658 008 subsets).
FACET_SUBSET_BUDGET = 1_000_000

# Screen margin of the facet scan, per unit of generator norm, above tol,
# and the fewest subsets a chunk needs to be screened: on smaller ones the
# screen costs more than the SVDs it saves.
SCREEN_MARGIN = 1e-4
_SCREEN_MIN_CHUNK = 64

# Cosines per matrix product when merging directions.
_MERGE_ENTRIES = 1 << 18


class PolyhedralCone:
    """Cone in R^d given by generator rows, unit-normalized and deduplicated.

    Generators that are positive multiples of an earlier one are merged;
    antipodal directions are kept (the cone may legitimately contain a line,
    and pointedness is a queried property, not a constructor invariant).
    """

    def __init__(self, generators):
        g = linalg.as_matrix(generators)
        if g.shape[0] == 0:
            raise PreconditionError("a cone needs at least one generator")
        peak = np.abs(g).max(axis=1, initial=0.0)
        if not peak.all():
            raise PreconditionError("zero generator is not a valid ray")
        with np.errstate(over="ignore"):
            squares = (g * g).sum(axis=1)
        # A row whose sum of squares overflows, or is small enough that a
        # square lost bits to underflow, is scaled by its largest |entry|
        # first; rows of ordinary magnitude keep their bits.
        odd = ~((squares > 1e-290) & (squares < np.inf))
        g = np.where(odd[:, None], g / peak[:, None], g)
        squares[odd] = (g[odd] * g[odd]).sum(axis=1)
        norms = np.sqrt(squares)
        self.generators = _merge_directions(np.zeros((0, g.shape[1])),
                                            g / norms[:, None])

    @property
    def dim(self) -> int:
        return self.generators.shape[1]

    @property
    def n_rays(self) -> int:
        return self.generators.shape[0]

    def __repr__(self) -> str:  # pragma: no cover
        return f"PolyhedralCone(dim={self.dim}, n_rays={self.n_rays})"


@dataclass
class SlackMatrix:
    """Inner products between cone generators (rows) and dual generators
    (columns), the entries outside patterns.slack_support set to exact zero."""

    matrix: np.ndarray
    cone_dim: int

    @property
    def shape(self):
        return self.matrix.shape


def _merge_directions(found: np.ndarray, new: np.ndarray) -> np.ndarray:
    """found, then each row of new whose cosine with every row kept before it
    stays below DUPLICATE_COSINE, in order; found's rows are not compared
    with each other.

    The cosines come from matrix products of at most about _MERGE_ENTRIES
    entries each.  Only a pair whose product reaches DUPLICATE_COSINE - 1e-12
    (a margin far above the rounding gap between a product and a per-pair
    dot) is then judged by its own dot, float(r @ v), so the kept rows are
    those a pair-by-pair merge keeps.
    """
    rows = np.concatenate([found, new])
    keep = np.ones(rows.shape[0], dtype=bool)
    step = max(1, _MERGE_ENTRIES // max(1, rows.shape[0]))
    for start in range(found.shape[0], rows.shape[0], step):
        # Row i of the block is row start + i; tril keeps the rows before it.
        cos = np.tril(rows[start:start + step] @ rows[:start + step].T, start - 1)
        # Pairs come row by row, so row j's fate is settled before it is read.
        for i, j in zip(*np.nonzero(cos >= DUPLICATE_COSINE - 1e-12)):
            if keep[j] and float(rows[j] @ rows[start + i]) >= DUPLICATE_COSINE:
                keep[start + i] = False
    return rows[keep]


def _facet_scan(gen: np.ndarray, tol: float) -> np.ndarray:
    """Unit facet normals of cone(gen rows), assuming gen spans its space.

    A (d-1)-subset of generators with one-dimensional null space proposes a
    hyperplane; the normal is kept, oriented inward, when every generator
    sits on its nonnegative side up to tol.  Subsets are taken in
    lexicographic order, _SCAN_CHUNK at a time (fewer when n is large).
    ConvergenceError, before any subset is formed, when there are more than
    FACET_SUBSET_BUDGET.

    A chunk of at least _SCREEN_MIN_CHUNK subsets is screened first:
    linalg.orthogonal_directions gives a unit q orthogonal to each subset,
    and the subset is dropped when generators lie beyond
    tol + SCREEN_MARGIN * |g| on both sides of q.  The rest, in order, take
    the exact path: one stack of SVDs (linalg.null_directions), the
    nullity-1 test, the orientation test at tol, and the merge by direction
    in subset order.

    The screen drops no normal the exact path keeps.  A dropped subset of
    nullity other than 1 is dropped by the exact path too.  At nullity 1 the
    rank rule bounds sigma_1 / sigma_(d-1) by 1 / DEFAULT_RANK_TOL = 1e8, so
    the SVD normal v and q, both backward stable, lie within an angle of
    about eps * 1e8 (eps = 2.2e-16, machine epsilon) of the exact null
    direction, and so of +-each other.  SCREEN_MARGIN is far above that
    angle: v, too, sees generators beyond tol on both sides.
    """
    n, d = gen.shape
    if d == 1:
        col = gen[:, 0]
        if col.min() > 0.0:
            return np.array([[1.0]])
        if col.max() < 0.0:
            return np.array([[-1.0]])
        return np.zeros((0, 1))
    count = math.comb(n, d - 1)
    if count > FACET_SUBSET_BUDGET:
        raise ConvergenceError(
            f"facet scan of {n} generators in R^{d} needs C({n}, {d - 1}) = "
            f"{count} subsets, over the budget of {FACET_SUBSET_BUDGET}"
        )
    size = max(1, min(_SCAN_CHUNK, _SCAN_ENTRIES // n))
    found = np.zeros((0, d))
    combos = itertools.chain.from_iterable(itertools.combinations(range(n), d - 1))
    while True:
        # The reshape gives (0, d-1) once no subsets are left.
        chunk = np.fromiter(itertools.islice(combos, size * (d - 1)),
                            dtype=np.intp).reshape(-1, d - 1)
        if chunk.shape[0] == 0:
            break
        if chunk.shape[0] >= _SCREEN_MIN_CHUNK:
            reach = tol + SCREEN_MARGIN * np.linalg.norm(gen, axis=1)
            sides = linalg.orthogonal_directions(gen[chunk]) @ gen.T
            chunk = chunk[~((sides > reach).any(axis=1) & (sides < -reach).any(axis=1))]
            if chunk.shape[0] == 0:
                continue
        nullity, vecs = linalg.null_directions(gen[chunk])
        normals = vecs[nullity == 1, :, -1]
        # A stack of matrix-vector products rounds exactly as gen @ v does
        # for one normal; one matrix product may round differently and move
        # a generator across tol.
        prods = (gen @ normals[:, :, None])[:, :, 0]
        inward = prods.min(axis=1) >= -tol
        outward = ~inward & (prods.max(axis=1) <= tol)
        # + 0.0 turns the -0.0 that negating an exact zero gives into 0.0.
        normals = np.where(outward[:, None], -normals, normals)[inward | outward] + 0.0
        found = _merge_directions(found, normals)
    return found


def is_full_dimensional(cone: PolyhedralCone) -> bool:
    """True when the generators span the whole ambient space."""
    return linalg.numeric_rank(cone.generators) == cone.dim


def is_pointed(cone: PolyhedralCone, tol: float = DEFAULT_FACET_TOL) -> bool:
    """True when the cone contains no line, that is when its facet normals
    span its span.  facet_normals decides that in the coordinates of the
    generators' row space (their leading right singular vectors), so
    generators need not span R^d.
    """
    g = cone.generators
    nullity, v = linalg.null_directions(g)
    try:
        facet_normals(PolyhedralCone(g @ v[:, : g.shape[1] - int(nullity)]), tol)
    except PreconditionError:
        return False
    return True


def facet_normals(cone: PolyhedralCone, tol: float = DEFAULT_FACET_TOL) -> np.ndarray:
    """Unit inward normals of all facets of a pointed full-dimensional cone.

    Found by the stacked-SVD scan over all (d-1)-subsets of generators.  Rows
    are returned in enumeration order (lexicographic over generator subsets),
    deduplicated by cosine similarity.  PreconditionError when the generators
    do not span R^d or the cone is not pointed.
    """
    if not is_full_dimensional(cone):
        raise PreconditionError("generators do not span the ambient space")
    normals = _facet_scan(cone.generators, tol)
    if normals.shape[0] == 0 or linalg.numeric_rank(normals) < cone.dim:
        raise PreconditionError("cone is not pointed")
    return normals


def dual_cone(cone: PolyhedralCone, tol: float = DEFAULT_FACET_TOL) -> PolyhedralCone:
    """Euclidean dual cone, generated by the facet normals."""
    return PolyhedralCone(facet_normals(cone, tol))


def _extreme_mask(gens: np.ndarray, normals: np.ndarray, tol: float) -> np.ndarray:
    """Which generators are extreme rays of the cone with these facet
    normals: those whose active facets (|<g, n>| <= tol) have normals of
    rank d-1.  PreconditionError when none is.

    The ranks come from one stacked values-only SVD over the active-normal
    sets, zero-padded to a common row count: zero rows add only zero
    singular values, so each rank is what linalg.numeric_rank gives its set.
    """
    d = gens.shape[1]
    active = np.abs(gens @ normals.T) <= tol
    counts = active.sum(axis=1)
    rows = max(1, int(counts.max()))
    # Each generator's active normals first, in facet order, then zeros.
    order = np.argsort(~active, axis=1, kind="stable")[:, :rows]
    filled = np.arange(rows)[None, :] < counts[:, None]
    stack = np.where(filled[:, :, None], normals[order], 0.0)
    ranks = linalg._stacked_rank(stack)
    kept = (counts >= d - 1) & (ranks == d - 1)
    if not kept.any():
        raise PreconditionError("no extreme rays found; input cone degenerate")
    return kept


def extreme_rays(generators, tol: float = DEFAULT_FACET_TOL) -> PolyhedralCone:
    """Reduce a generating set to the extreme rays of its cone.

    A generator is extreme exactly when the facets it lies on have normals of
    rank d-1.  Duplicate directions are merged by the constructor.  The
    checks and messages are facet_normals'.
    """
    cone = PolyhedralCone(generators)
    kept = _extreme_mask(cone.generators, facet_normals(cone, tol), tol)
    return PolyhedralCone(cone.generators[kept])


def slack_matrix(cone: PolyhedralCone, tol: float = DEFAULT_FACET_TOL) -> SlackMatrix:
    """Slack matrix of a pointed full-dimensional cone: one row per
    generator, one column per facet.

    Entry (i, j) is the inner product of generator i with dual generator j,
    set to exact zero outside patterns.slack_support, so pattern logic can
    compare supports without tolerance bookkeeping.  Every generator must be
    an extreme ray, judged against the one facet scan the slack is built
    from: PreconditionError for facet_normals' reasons, when no generator is
    extreme, with a count of those that are not, or for the reasons of
    slack_support and slack_pattern_reasons.
    """
    gens = cone.generators
    normals = facet_normals(cone, tol)
    dropped = int((~_extreme_mask(gens, normals, tol)).sum())
    if dropped:
        raise PreconditionError(f"{dropped} generator(s) are not extreme rays")
    m = gens @ normals.T
    on = slack_support(m)
    m = np.where(on, m, 0.0)
    reasons = slack_pattern_reasons(m, cone.dim, support=on)
    if reasons:
        raise PreconditionError("not a slack matrix: " + "; ".join(reasons))
    return SlackMatrix(m, cone.dim)


def slack_pattern_reasons(
    m: np.ndarray,
    d: int | None = None,
    *,
    rank: int | None = None,
    support: np.ndarray | None = None,
) -> list[str]:
    """Why a candidate slack matrix cannot be a slack matrix in R^d (no
    reasons when it passes): the checks of slack_necessary_check, without
    rank and zeros per row when d is None.  rank is m's numeric rank when the
    caller has read it from a decomposition it holds; otherwise an SVD takes
    it.  support is patterns.slack_support(m), taken here (and raising its
    PreconditionError) unless the caller has taken it already.
    """
    if m.size == 0:
        return ["empty matrix"]
    nz = slack_support(m) if support is None else support
    reasons: list[str] = []
    if d is not None:
        r = linalg.numeric_rank(m) if rank is None else rank
        if r != d:
            reasons.append(f"rank is {r}, expected {d}")
        zero_counts = (~nz).sum(axis=1)
        for i in np.nonzero(zero_counts < d - 1)[0]:
            reasons.append(
                f"row {i} has only {int(zero_counts[i])} zeros, "
                f"need at least {d - 1}"
            )
    if np.any(nz.sum(axis=1) == 0):
        reasons.append("matrix has a zero row")
    if np.any(nz.sum(axis=0) == 0):
        reasons.append("matrix has a zero column")
    seen: dict[bytes, int] = {}
    for i, row in enumerate(nz):
        key = row.tobytes()
        if key in seen:
            reasons.append(f"rows {seen[key]} and {i} share the same zero pattern")
        else:
            seen[key] = i
    return reasons


def slack_necessary_check(m, d: int) -> tuple[bool, list[str]]:
    """Pattern-based necessary conditions for being a slack matrix in R^d.

    Checks rank d, at least d-1 zeros per row, no zero rows/columns and no
    duplicated row zero-patterns; returns (verdict, reasons for rejection).
    """
    reasons = slack_pattern_reasons(linalg.as_matrix(m), d)
    return (not reasons), reasons


def cone_over_polytope(vertices, tol: float = DEFAULT_FACET_TOL) -> PolyhedralCone:
    """Homogenization cone of a full-dimensional polytope with 0 interior.

    Vertices v in R^d become generators (1, v) in R^(d+1).  The interiority
    check is by facet enumeration: every facet normal of the lifted cone must
    have a strictly positive first coordinate.  Every lifted generator has
    first coordinate 1, so a lifted cone that spans R^(d+1) is pointed.
    """
    v = linalg.as_matrix(vertices)
    cone = PolyhedralCone(np.hstack([np.ones((v.shape[0], 1)), v]))
    if facet_normals(cone, tol)[:, 0].min() <= tol:
        raise PreconditionError("origin is not in the interior of the polytope")
    return cone


def cone_from_factorization(m, d: int) -> PolyhedralCone:
    """Cone generated by the rows of the top-d spectral factor of a PSD matrix.

    When m is a PSD slack matrix of some cone, the result is linearly
    isomorphic to that cone and is self-dual under the Euclidean inner
    product.
    """
    return PolyhedralCone(_spectral_factor(linalg.sym_eigen(m), d))


def _spectral_factor(eig: linalg.EigenDecomposition, d: int) -> np.ndarray:
    """The top-d spectral factor of the matrix with this decomposition, the
    generators of cone_from_factorization before normalization.  The one
    rank rule of a factorization: PreconditionError unless the numeric rank
    read from the eigenvalues is d and the d-th eigenvalue is positive."""
    r = eig.rank()
    if r != d:
        raise PreconditionError(f"matrix has numeric rank {r}, expected {d}")
    if eig.values[d - 1] <= 0.0:
        raise PreconditionError("matrix is not PSD of the requested rank")
    return eig.factor(d)


def _cosine_match(a: np.ndarray, b: np.ndarray, tol: float) -> tuple[np.ndarray | None, float]:
    """match_generators' mapping (or None) and the worst cosine of each row
    of b with its most similar row of a (0.0 when the shapes differ)."""
    if a.shape != b.shape:
        return None, 0.0
    cos = b @ a.T
    mapping = np.argmax(cos, axis=1)
    worst = float(cos[np.arange(b.shape[0]), mapping].min())
    if len(set(mapping.tolist())) != a.shape[0] or worst < 1.0 - tol:
        return None, worst
    return mapping, worst


def match_generators(a: np.ndarray, b: np.ndarray, tol: float) -> np.ndarray | None:
    """Bijection from rows of b onto rows of a by cosine similarity.

    Returns mapping[j] = i meaning row j of b matches row i of a with cosine
    at least 1 - tol, or None when no bijective matching exists.  Inputs are
    expected row-normalized.
    """
    if a.shape[0] == 0 or b.shape[0] == 0:
        raise PreconditionError(
            f"cannot match generators with no rows: shapes {a.shape} and {b.shape}"
        )
    return _cosine_match(a, b, tol)[0]


class RoundTrip(NamedTuple):
    mapping: np.ndarray | None
    worst_cosine: float
    slack: np.ndarray


def dual_round_trip(cone: PolyhedralCone, tol: float) -> RoundTrip:
    """A cone's unclamped slack against its own Euclidean dual, from one scan.

    The facet normals, found at tol, are matched to the generators by cosine
    as in match_generators at the same tol, with the worst cosine reported.
    When the match exists the cone is self-dual and slack column i is the
    normal matched to generator i; otherwise the columns follow the scan.
    """
    gens = cone.generators
    normals = facet_normals(cone, tol)
    mapping, worst = _cosine_match(gens, normals, tol)
    slack = gens @ normals.T
    if mapping is not None:
        aligned = np.zeros_like(slack)
        aligned[:, mapping] = slack
        slack = aligned
    return RoundTrip(mapping, worst, slack)


# ---------------------------------------------------------------------------
# Text formats.  Cone file: "d n" header then n generator rows.  Matrix file:
# "rows cols" header then the rows.  17 significant digits round-trip floats.
# ---------------------------------------------------------------------------

def _rows_text(header: str, rows: np.ndarray) -> str:
    return "\n".join([header] + [" ".join(f"{x:.17g}" for x in row) for row in rows])


def cone_text(generators) -> str:
    """The text of a cone file, without its final newline."""
    g = linalg.as_matrix(generators)
    return _rows_text(f"{g.shape[1]} {g.shape[0]}", g)


def save_cone(path, generators) -> None:
    Path(path).write_text(cone_text(generators) + "\n", encoding="utf-8")


def load_cone(path) -> PolyhedralCone:
    rows = _load_numeric(path, kind="cone")
    return PolyhedralCone(rows)


def save_matrix(path, matrix) -> None:
    m = linalg.as_matrix(matrix)
    text = _rows_text(f"{m.shape[0]} {m.shape[1]}", m)
    Path(path).write_text(text + "\n", encoding="utf-8")


def load_matrix(path) -> np.ndarray:
    return _load_numeric(path, kind="matrix")


def read_lines(path, kind: str) -> list[str]:
    """The stripped nonblank lines of a text file; ParseError when it cannot
    be read or holds none.  kind names the format in messages."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = [ln.strip() for ln in fh if ln.strip()]
    except OSError as exc:
        raise ParseError(f"cannot read {kind} file {path}: {exc}") from exc
    if not raw:
        raise ParseError(f"{kind} file {path} is empty")
    return raw


def _load_numeric(path, kind: str) -> np.ndarray:
    raw = read_lines(path, kind)
    head = raw[0].split()
    if len(head) != 2:
        raise ParseError(f"{kind} file {path}: header must hold two integers")
    try:
        a, b = int(head[0]), int(head[1])
    except ValueError as exc:
        raise ParseError(f"{kind} file {path}: bad header {raw[0]!r}") from exc
    if kind == "cone":
        width, count = a, b
    else:
        count, width = a, b
    if len(raw) - 1 != count:
        raise ParseError(
            f"{kind} file {path}: expected {count} rows, found {len(raw) - 1}"
        )
    if width < 0:
        raise ParseError(f"{kind} file {path}: bad header {raw[0]!r}")
    rows = []
    for ln in raw[1:]:
        parts = ln.split()
        if len(parts) != width:
            raise ParseError(
                f"{kind} file {path}: expected {width} values per row, "
                f"found {len(parts)}"
            )
        try:
            rows.append([float(p) for p in parts])
        except ValueError as exc:
            raise ParseError(f"{kind} file {path}: bad value in {ln!r}") from exc
    return np.asarray(rows, dtype=float).reshape(count, width)
