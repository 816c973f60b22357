"""V-representation polyhedral cone calculus at desk scale.

Cones are stored as unit-normalized generator rows.  Facets are enumerated by
an exhaustive scan over the C(n, d-1) subsets of generators in lexicographic
order, a chunk of subsets at a time, each chunk as one stacked LAPACK SVD with
vectorized rank, sign and orientation tests; only merging duplicate normals
loops in Python.  A d=6, n=24 cone takes about 0.5 s (2-vCPU host).  Facet
normals are unit vectors rather than a canonical scaling, so slack matrices
are defined up to positive row/column scaling, and every pattern comparison
in this package is scale-free.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import linalg
from .errors import ParseError, PreconditionError
from .patterns import support_of

# Two directions count as the same ray when their cosine reaches this.
DUPLICATE_COSINE = 1.0 - 1e-9

# Absolute clamp for slack entries after unit normalization.  Sits between
# the magnitudes the numerical pipeline treats as zero (~1e-13) and the
# smallest structural entries it produces (~1e-4).
ZERO_CLAMP = 1e-10

# Default orientation tolerance for the facet scan: how far on the wrong side
# of a candidate hyperplane a generator may sit before the facet is rejected.
DEFAULT_FACET_TOL = 1e-7

# Generator subsets per stacked SVD in the facet scan; bounds the scan's
# memory at any C(n, d-1).  Chunks of 128 to 4096 subsets scan equally fast;
# smaller ones keep the transient arrays of a d=6, n=12 cone off peak RSS.
_SCAN_CHUNK = 256


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
        rows: list[np.ndarray] = []
        for row in g / norms[:, None]:
            if not _contains_direction(rows, row):
                rows.append(row)
        self.generators = np.array(rows)

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
    (columns), clamped to exact zero below ZERO_CLAMP."""

    matrix: np.ndarray
    cone_dim: int

    @property
    def shape(self):
        return self.matrix.shape


def _contains_direction(rows: list[np.ndarray], v: np.ndarray) -> bool:
    for r in rows:
        if float(r @ v) >= DUPLICATE_COSINE:
            return True
    return False


def _facet_scan(gen: np.ndarray, tol: float) -> np.ndarray:
    """Unit facet normals of cone(gen rows), assuming gen spans its space.

    A (d-1)-subset of generators with one-dimensional null space proposes a
    hyperplane; the normal is kept, oriented inward, when every generator
    sits on its nonnegative side up to tol.  Subsets are taken in
    lexicographic order, _SCAN_CHUNK at a time, each chunk as one stack of
    SVDs; the surviving normals are merged by direction in subset order.
    """
    n, d = gen.shape
    if d == 1:
        col = gen[:, 0]
        if col.min() > 0.0:
            return np.array([[1.0]])
        if col.max() < 0.0:
            return np.array([[-1.0]])
        return np.zeros((0, 1))
    found: list[np.ndarray] = []
    combos = itertools.chain.from_iterable(itertools.combinations(range(n), d - 1))
    while True:
        # The reshape gives (0, d-1) once no subsets are left.
        chunk = np.fromiter(itertools.islice(combos, _SCAN_CHUNK * (d - 1)),
                            dtype=np.intp).reshape(-1, d - 1)
        if chunk.shape[0] == 0:
            break
        nullity, vecs = linalg.null_directions(gen[chunk])
        normals = vecs[nullity == 1, :, -1]
        # A stack of matrix-vector products rounds exactly as gen @ v does
        # for one normal; one matrix product may round differently and move
        # a generator across tol.
        prods = (gen @ normals[:, :, None])[:, :, 0]
        inward = prods.min(axis=1) >= -tol
        outward = ~inward & (prods.max(axis=1) <= tol)
        normals = np.where(outward[:, None], -normals, normals)[inward | outward]
        for v in normals:
            if not _contains_direction(found, v):
                found.append(v)
    if not found:
        return np.zeros((0, d))
    return np.vstack(found)


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

    The ranks come from one stacked SVD over the active-normal sets,
    zero-padded to a common row count: zero rows add only zero singular
    values, so each rank is what linalg.numeric_rank gives its set.
    """
    d = gens.shape[1]
    active = np.abs(gens @ normals.T) <= tol
    counts = active.sum(axis=1)
    rows = max(1, int(counts.max()))
    # Each generator's active normals first, in facet order, then zeros.
    order = np.argsort(~active, axis=1, kind="stable")[:, :rows]
    filled = np.arange(rows)[None, :] < counts[:, None]
    stack = np.where(filled[:, :, None], normals[order], 0.0)
    ranks = linalg._rank(linalg._svd(stack)[0])
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

    Entry (i, j) is the inner product of generator i with dual generator j;
    entries below ZERO_CLAMP are clamped to exact zero so pattern logic can
    compare supports without tolerance bookkeeping.  Every generator must be
    an extreme ray, judged against the one facet scan the slack is built
    from: PreconditionError for facet_normals' reasons, when no generator is
    extreme, or with a count of those that are not.
    """
    gens = cone.generators
    normals = facet_normals(cone, tol)
    dropped = int((~_extreme_mask(gens, normals, tol)).sum())
    if dropped:
        raise PreconditionError(f"{dropped} generator(s) are not extreme rays")
    return SlackMatrix(clamped_slack(gens @ normals.T, cone.dim), cone.dim)


def clamped_slack(m: np.ndarray, d: int) -> np.ndarray:
    """Generator-by-facet products of a cone in R^d, entries below ZERO_CLAMP
    set to zero; PreconditionError unless they pass slack_pattern_reasons."""
    if m.min() < -ZERO_CLAMP:
        raise PreconditionError(
            f"negative slack entry {m.min():.3e}; generators are not extreme "
            "rays of a pointed cone at this tolerance"
        )
    m = m.copy()
    m[m < ZERO_CLAMP] = 0.0
    reasons = slack_pattern_reasons(m, d)
    if reasons:
        raise PreconditionError("not a slack matrix: " + "; ".join(reasons))
    return m


def slack_pattern_reasons(m: np.ndarray, d: int | None = None) -> list[str]:
    """Why a nonnegative matrix cannot be a slack matrix in R^d (no reasons
    when it passes): the checks of slack_necessary_check, without rank and
    zeros per row when d is None.  Negative entries raise PreconditionError.
    """
    if m.size == 0:
        return ["empty matrix"]
    if m.min() < 0.0:
        raise PreconditionError("slack candidates must be nonnegative")
    nz = support_of(m)
    reasons: list[str] = []
    if d is not None:
        r = linalg.numeric_rank(m)
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
    seen: dict[tuple, int] = {}
    for i, row in enumerate(map(tuple, nz)):
        if row in seen:
            reasons.append(f"rows {seen[row]} and {i} share the same zero pattern")
        else:
            seen[row] = i
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
    a = linalg.require_symmetric(m)
    r = linalg.numeric_rank(a)
    if r != d:
        raise PreconditionError(f"matrix has numeric rank {r}, expected {d}")
    eig = linalg.sym_eigen(a)
    if eig.values[d - 1] <= 0.0:
        raise PreconditionError("matrix is not PSD of the requested rank")
    return PolyhedralCone(eig.factor(d))


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


def dual_round_trip(cone: PolyhedralCone, tol: float, match_tol: float) -> RoundTrip:
    """A cone's unclamped slack against its own Euclidean dual, from one scan.

    The facet normals (at tol) are matched to the generators by cosine, as in
    match_generators at match_tol, with the worst cosine reported.  When the
    match exists the cone is self-dual and slack column i is the normal
    matched to generator i; otherwise the columns follow the scan.
    """
    gens = cone.generators
    normals = facet_normals(cone, tol)
    mapping, worst = _cosine_match(gens, normals, match_tol)
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
    return np.asarray(rows, dtype=float)
