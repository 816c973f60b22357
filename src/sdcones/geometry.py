"""V-representation polyhedral cone calculus at desk scale.

Cones are stored as unit-normalized generator rows, in input order.  One
incidence at tol decides every face, by containment (_inside): a facet is a
maximal set of generators tight on a supporting hyperplane, and an extreme
ray a generator whose set of tight facets no generator's strictly contains;
each is named by its set, and no rank test decides either.  Facets are
enumerated by one scan over the C(n, d-1) subsets of generators
(_facet_scan), and the products g . n that judged them are the only ones
formed: the incidence, extremality, the slack and the self-dual match all
read them.  No direction is merged by angle: two facet normals are one
facet, and two extreme generators one ray, exactly when their tight sets
are the same, however close the directions.  Facet normals are unit vectors
rather than a canonical scaling, so slack matrices are defined up to
positive row/column scaling; their zeros are the tight entries at tol.

The package's three text formats live here too: cone files (generator
rows), matrix files and support files (0/1 rows, the input of search).
Each is a header of non-negative integers and one row per line; one
framing function, _read_rows, reads the header and counts the rows of all
three, and each format keeps only its row parser.
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

# Default facet tolerance: how far on the wrong side of a candidate hyperplane
# a generator may sit before the facet is rejected, and how near it is tight.
DEFAULT_FACET_TOL = 1e-7

# Generator subsets per chunk of the facet scan, fewer when their products
# would pass linalg._STACK_ENTRIES.  Chunks of 1024 subsets scan d=5..7 cones
# with 12 to 24 generators from 5 % slower to 25 % faster than chunks of 256.
_SCAN_CHUNK = 1024

# The facet scan's work budget: more (d-1)-subsets than this raise
# ConvergenceError before any is formed.  A scan at the budget takes about
# 3 s at d=6, 5.5 s at d=3, 6.5 s at d=12 and 12 s at d=16 (2-vCPU host,
# random cones); it admits d=6, n=40 (658 008 subsets).
FACET_SUBSET_BUDGET = 1_000_000


class PolyhedralCone:
    """Cone in R^d given by generator rows, unit-normalized, in input order.
    A row whose sum of squares would overflow or underflow is scaled by its
    largest |entry| first, so rows of any finite magnitude normalize.

    A ray given twice stays twice here; extreme_rays and slack_matrix keep
    one generator per ray, told apart by the facets tight at it.  Antipodal
    directions are kept too (the cone may legitimately contain a line, and
    pointedness is a queried property, not a constructor invariant).
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
        self.generators = g / np.sqrt(squares)[:, None]

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
    (columns), exact zeros where the generator is tight on the facet."""

    matrix: np.ndarray
    cone_dim: int

    @property
    def shape(self):
        return self.matrix.shape


def _first_per_key(tight: np.ndarray, seen: set[bytes]) -> np.ndarray:
    """Indices of the rows of the boolean matrix tight whose pattern is not in
    seen, the first row of each pattern; their patterns join seen.  The one
    incidence key of facets and rays."""
    first = []
    for i, row in enumerate(np.packbits(tight, axis=1)):
        key = row.tobytes()
        if key not in seen:
            seen.add(key)
            first.append(i)
    return np.array(first, dtype=np.intp)


def _inside(tight: np.ndarray, sets: np.ndarray) -> np.ndarray:
    """Which rows of the boolean matrix tight lie strictly inside some row of
    sets: each of their members is one of its members, and it has more.  The
    counts come from one float product, exact at any size."""
    size = tight.sum(axis=1)[:, None]
    common = tight.astype(float) @ sets.T.astype(float)
    return ((common == size) & (sets.sum(axis=1) > size)).any(axis=1)


def _facet_scan(gen: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """(normals, products) of cone(gen rows), assuming gen spans its space:
    unit facet normals, and the n x m products g_i . n_j that judged them.

    Each (d-1)-subset proposes the unit normal q of its hyperplane from one
    Householder QR (linalg.orthogonal_directions).  q is kept, oriented
    inward, when every generator sits on its nonnegative side up to tol and
    its tight set {i : |g_i . q| <= tol} differs from that of every normal
    kept before it.  After the scan, a normal whose tight set lies strictly
    inside another's is dropped with its products: a facet is a maximal
    tight set, so no rank test is needed.  Subsets are taken in
    lexicographic order, _SCAN_CHUNK at a time (fewer when n is large), and
    each is judged as it would be alone, bit for bit, so the chunk size
    moves no facet; a flipped normal's products are negated.
    ConvergenceError, before any subset is formed, past FACET_SUBSET_BUDGET.
    """
    n, d = gen.shape
    if d == 1:
        # The sign every generator shares is the one facet, tight at none of
        # them; a line has none, and neither has a cone flat at tol.
        sides = np.unique(np.sign(gen))
        one = sides.size == 1 and sides[0] and (np.abs(gen) > tol).all()
        normals = sides[:, None] if one else np.zeros((0, 1))
        return normals, gen * normals.T
    count = math.comb(n, d - 1)
    if count > FACET_SUBSET_BUDGET:
        raise ConvergenceError(
            f"facet scan of {n} generators in R^{d} needs C({n}, {d - 1}) = "
            f"{count} subsets, over the budget of {FACET_SUBSET_BUDGET}"
        )
    size = max(1, min(_SCAN_CHUNK, linalg._STACK_ENTRIES // n))
    found, products, seen = [np.zeros((0, d))], [np.zeros((0, n))], set()
    combos = itertools.chain.from_iterable(itertools.combinations(range(n), d - 1))
    while True:
        # The reshape gives (0, d-1) once no subsets are left.
        chunk = np.fromiter(itertools.islice(combos, size * (d - 1)),
                            dtype=np.intp).reshape(-1, d - 1)
        if chunk.shape[0] == 0:
            break
        normals = linalg.orthogonal_directions(gen[chunk])
        # A stack of matrix-vector products rounds as gen @ q does for one
        # normal, so each subset is judged as it would be alone.
        prods = (gen @ normals[:, :, None])[:, :, 0]
        inward = prods.min(axis=1) >= -tol
        outward = ~inward & (prods.max(axis=1) <= tol)
        keep = np.flatnonzero(inward | outward)
        new = keep[_first_per_key(np.abs(prods[keep]) <= tol, seen)]
        # + 0.0 turns the -0.0 that negating an exact zero gives into 0.0.
        sign = np.where(outward[new], -1.0, 1.0)[:, None]
        found.append(sign * normals[new] + 0.0)
        products.append(sign * prods[new] + 0.0)
    products = np.concatenate(products)
    tight = np.abs(products) <= tol
    maximal = ~_inside(tight, tight)
    return np.concatenate(found)[maximal], products[maximal].T


def is_full_dimensional(cone: PolyhedralCone) -> bool:
    """True when the generators span the whole ambient space."""
    return linalg.numeric_rank(cone.generators) == cone.dim


def is_pointed(cone: PolyhedralCone, tol: float = DEFAULT_FACET_TOL) -> bool:
    """True when the cone contains no line, that is when its facet normals
    at tol span its span (a cone flat at tol fails too).  facet_normals
    decides that in the coordinates of the generators' row space (their
    leading right singular vectors), so generators need not span R^d.
    """
    g = cone.generators
    nullity, v = linalg.null_directions(g)
    try:
        facet_normals(PolyhedralCone(g @ v[:, : g.shape[1] - int(nullity)]), tol)
    except PreconditionError:
        return False
    return True


def _facets(cone: PolyhedralCone, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """facet_normals' normals, after its three checks, and their products:
    the facet scan's one caller."""
    if not is_full_dimensional(cone):
        raise PreconditionError("generators do not span the ambient space")
    normals, products = _facet_scan(cone.generators, tol)
    d, r = cone.dim, linalg.numeric_rank(normals)
    if normals.shape[0] == 0 and d > 1:
        raise PreconditionError(f"no facet found at tol {tol:g}")
    if r < d:
        raise PreconditionError(
            f"facet normals at tol {tol:g} span R^{r}, not R^{d}: the cone is "
            "not pointed or is flat at tol, or tol is below the rounding of its "
            "products")
    return normals, products


def facet_normals(cone: PolyhedralCone, tol: float = DEFAULT_FACET_TOL) -> np.ndarray:
    """Unit inward normals of all facets of a pointed full-dimensional cone.

    Found by the stacked Householder scan over all (d-1)-subsets of
    generators, one normal per maximal set of generators tight on it at tol:
    the first, in enumeration order (lexicographic over generator subsets).
    PreconditionError when the generators do not span R^d, the scan keeps
    no facet at tol (d >= 2), or its normals span less than R^d: a cone not
    pointed, one within tol of a hyperplane (flat at tol: its normal is
    tight at every generator, so it is the one maximal set), or a tol below
    its products' rounding, where a pointed cone keeps only the facets its
    exact zeros make.
    """
    return _facets(cone, tol)[0]


def dual_cone(cone: PolyhedralCone, tol: float = DEFAULT_FACET_TOL) -> PolyhedralCone:
    """Euclidean dual cone, generated by the facet normals."""
    return PolyhedralCone(facet_normals(cone, tol))


def _extreme_mask(products: np.ndarray,
                  tol: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(extreme, rays, active) from a scan's products: which generators are
    extreme rays, those whose active facets (active[i, j] is
    |products[i, j]| <= tol) no generator's active facets strictly contain,
    and the indices of the first generator with each extreme set, one per
    ray.  Each set is compared with one generator per distinct set, so the
    work and memory follow n times the number of faces, not n^2; the
    largest set is maximal, so some generator is always extreme.
    """
    active = np.abs(products) <= tol
    first = _first_per_key(active, set())
    extreme = ~_inside(active, active[first])
    return extreme, first[extreme[first]], active


def extreme_rays(generators, tol: float = DEFAULT_FACET_TOL) -> PolyhedralCone:
    """Reduce a generating set to the extreme rays of its cone.

    A generator is extreme exactly when no generator lies on a strictly
    larger set of facets (the minimal face above it is a ray); of extreme
    generators on the same facets, the first stands for their ray.  The
    checks and messages are facet_normals'.
    """
    cone = PolyhedralCone(generators)
    _, rays, _ = _extreme_mask(_facets(cone, tol)[1], tol)
    return PolyhedralCone(cone.generators[rays])


def slack_matrix(cone: PolyhedralCone, tol: float = DEFAULT_FACET_TOL) -> SlackMatrix:
    """Slack matrix of a pointed full-dimensional cone: one row per ray, one
    column per facet.

    Entry (i, j) is the scan's product of ray i (its first generator) with
    dual generator j, set to exact zero where _extreme_mask finds the ray
    active on the facet, so no two rows have the same zeros.  Every other
    entry is above tol, by the scan's orientation test.  No column is all
    zeros: a facet tight at every ray would hold every other tight set, so
    facet_normals' span check refuses the cone first.  Every generator must
    be an extreme ray, judged against the one facet scan the slack is built
    from: PreconditionError for facet_normals' reasons, or with a count of
    the generators that are not.
    """
    products = _facets(cone, tol)[1]
    extreme, rays, active = _extreme_mask(products, tol)
    if not extreme.all():
        raise PreconditionError(f"{(~extreme).sum()} generator(s) are not extreme rays")
    return SlackMatrix(np.where(active[rays], 0.0, products[rays]), cone.dim)


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


def _cosine_match(cos: np.ndarray, tol: float) -> tuple[np.ndarray | None, float]:
    """match_generators' mapping (or None) from the cosines cos[j, i] of rows
    j of b and i of a, and the least row maximum (0.0 unless cos is square)."""
    if cos.shape[0] != cos.shape[1]:
        return None, 0.0
    mapping = np.argmax(cos, axis=1)
    worst = float(cos[np.arange(cos.shape[0]), mapping].min())
    if len(set(mapping.tolist())) != cos.shape[0] or worst < 1.0 - tol:
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
    return _cosine_match(b @ a.T, tol)[0] if a.shape[1] == b.shape[1] else None


class RoundTrip(NamedTuple):
    mapping: np.ndarray | None
    worst_cosine: float
    slack: np.ndarray
    incidence: np.ndarray


def dual_round_trip(cone: PolyhedralCone, tol: float) -> RoundTrip:
    """A cone's unclamped slack against its own Euclidean dual, the scan's
    products, and its incidence at tol as _extreme_mask takes it.

    The normals are matched to the generators as in match_generators at the
    same tol, the products read as cosines, with the worst cosine reported.
    When the match exists the cone is self-dual and column i of both is the
    normal matched to generator i; otherwise the columns follow the scan.
    """
    slack = _facets(cone, tol)[1]
    mapping, worst = _cosine_match(slack.T, tol)
    if mapping is not None:
        slack = slack[:, np.argsort(mapping)]
    return RoundTrip(mapping, worst, slack, np.abs(slack) <= tol)


# ---------------------------------------------------------------------------
# Text formats.  Cone file: "d n" header then n generator rows of d decimals.
# Matrix file: "rows cols" header then the rows.  Support file: "n" header
# then n rows of n 0/1 characters.  17 significant digits round-trip floats.
# ---------------------------------------------------------------------------

# Per file kind: how many integers its header holds, and which of them give
# the row count and the row width.
_HEADERS = {"cone": (2, 1, 0), "matrix": (2, 0, 1), "support": (1, 0, 0)}


def _rows_text(header: str, rows: np.ndarray) -> str:
    return "\n".join([header] + [" ".join(f"{x:.17g}" for x in row) for row in rows])


def cone_text(generators) -> str:
    """The text of a cone file, without its final newline."""
    g = linalg.as_matrix(generators)
    return _rows_text(f"{g.shape[1]} {g.shape[0]}", g)


def save_cone(path, generators) -> None:
    Path(path).write_text(cone_text(generators) + "\n", encoding="utf-8")


def load_cone(path) -> PolyhedralCone:
    return PolyhedralCone(_float_rows(path, "cone"))


def save_matrix(path, matrix) -> None:
    m = linalg.as_matrix(matrix)
    text = _rows_text(f"{m.shape[0]} {m.shape[1]}", m)
    Path(path).write_text(text + "\n", encoding="utf-8")


def load_matrix(path) -> np.ndarray:
    return _float_rows(path, "matrix")


def save_support(path, bits) -> None:
    """Write a square 0/1 matrix as load_support reads it; anything else is
    refused before a file is opened."""
    b = np.asarray(bits)
    if b.ndim != 2 or b.shape[0] != b.shape[1] or not ((b == 0) | (b == 1)).all():
        raise PreconditionError(f"support must be a square 0/1 matrix, got shape {b.shape}")
    b = b.astype(np.uint8)
    rows = np.full((b.shape[0], b.shape[1] + 1), ord("\n"), np.uint8)  # each row, then "\n"
    rows[:, :-1] = b + ord("0")
    Path(path).write_bytes(f"{b.shape[0]}\n".encode() + rows.tobytes())


def load_support(path) -> np.ndarray:
    n, lines = _read_rows(path, "support")
    for ln in lines:
        if len(ln) != n or ln.strip("01"):
            raise ParseError(f"support file {path}: rows must be {n} characters of 0/1")
    return (np.frombuffer("".join(lines).encode(), np.uint8) - ord("0")).reshape(n, n)


def _read_rows(path, kind: str) -> tuple[int, list[str]]:
    """(width, rows) of a file of this kind: the row width its header gives,
    and its stripped nonblank lines after the header, as many as the header
    counts.  ParseError when the file cannot be read or decoded as UTF-8 (a
    byte-order mark is skipped), holds no nonblank line, has a header other
    than _HEADERS' number of ASCII digit strings, or another number of rows."""
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            lines = [ln.strip() for ln in fh if ln.strip()]
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {kind} file {path}: {exc}") from exc
    if not lines:
        raise ParseError(f"{kind} file {path} is empty")
    fields, count_at, width_at = _HEADERS[kind]
    head = lines[0].split()
    if len(head) != fields or not all(f.isascii() and f.isdigit() for f in head):
        raise ParseError(f"{kind} file {path}: bad header {lines[0]!r}")
    sizes = [int(f) for f in head]
    count, rows = sizes[count_at], lines[1:]
    if len(rows) != count:
        raise ParseError(f"{kind} file {path}: expected {count} rows, found {len(rows)}")
    return sizes[width_at], rows


def _float_rows(path, kind: str) -> np.ndarray:
    """The rows of a cone or matrix file as a float matrix; ParseError for
    _read_rows' reasons, a row of another width, or a value float refuses or
    that holds a character past ASCII or the digit-group underscore float takes."""
    width, lines = _read_rows(path, kind)
    rows = []
    for ln in lines:
        parts = ln.split()
        if len(parts) != width:
            raise ParseError(
                f"{kind} file {path}: expected {width} values per row, found {len(parts)}")
        try:
            if not all(p.isascii() and "_" not in p for p in parts):
                raise ValueError(ln)
            rows.append([float(p) for p in parts])
        except ValueError as exc:
            raise ParseError(f"{kind} file {path}: bad value in {ln!r}") from exc
    return np.asarray(rows, dtype=float).reshape(len(rows), width)
