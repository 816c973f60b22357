"""Zero patterns: matrix supports, support graphs and the strongly involutive
column permutations of a 0/1 matrix.  support_of is the support of a matrix
handed in, and slack_support the one sign rule for a candidate slack handed
in; every check of one takes its mask from it.  A slack built from a cone
has its cone's incidence at tol as zeros (geometry) and is positive off
them, so find_psd_scaling reads a SlackMatrix's support as m > 0.

A negative entry on the support ends a candidate with one message, "matrix
must be entrywise nonnegative", in one of two ways.  The callers that judge
a user's matrix raise it as PreconditionError (analyze exits 2).  The two
certifiers return it as a refusal: selfdual.certify_psd_slack gives
(False, message), and search.certify gives "extraction failed: " + message,
so the search goes on to its next attempt."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import ConvergenceError, PreconditionError

# Relative threshold deciding which entries count as structural zeros.
SUPPORT_CLAMP = 1e-10

# Nodes (columns tried) one involution_permutations enumeration may visit.
# The first permutation of the regular 17-, 51- and 101-gon takes 93, 926
# and 3 726; all of them (the one and the proof there is no other) 218,
# 2 377 and 9 752.
INVOLUTION_NODE_BUDGET = 1_000_000


def support_of(a) -> np.ndarray:
    """Boolean support: entries above SUPPORT_CLAMP times the largest one.
    No caller passes a threshold of its own."""
    m = np.abs(linalg.as_matrix(a))
    scale = m.max() if m.size else 0.0
    if scale <= 0.0:
        return np.zeros(m.shape, dtype=bool)
    return m > SUPPORT_CLAMP * scale


def slack_support(a) -> np.ndarray:
    """support_of(a) of a candidate slack matrix; PreconditionError when an
    entry on it is negative.  Entries off it count as zeros whatever their
    sign."""
    on = support_of(a)  # coerces a and refuses non-finite entries
    if (np.asarray(a, dtype=float)[on] < 0.0).any():
        raise PreconditionError("matrix must be entrywise nonnegative")
    return on


def is_connected(mask: np.ndarray) -> bool:
    """Connectivity of the graph with the symmetric boolean adjacency matrix
    mask: its spanning forest has one tree, or none on no vertices."""
    return spanning_forest(mask)[1].count(-1) <= 1


def spanning_forest(mask: np.ndarray) -> tuple[list[int], list[int]]:
    """Breadth-first spanning forest of the graph with vertex i's neighbours in
    row i of the boolean matrix mask.  order lists each vertex once, parents
    first; parent[j] is the vertex that reached j, -1 at a root.  A root is
    its component's smallest vertex; neighbours are taken in increasing order."""
    packed = np.packbits(mask, axis=1, bitorder="little")  # bitsets made when reached
    parent = [-1] * len(packed)
    order: list[int] = []
    unseen = (1 << len(packed)) - 1
    head = 0
    while unseen:
        if head == len(order):  # the next root: the smallest unseen vertex
            order.append((unseen & -unseen).bit_length() - 1)
            unseen &= unseen - 1
        i = order[head]
        new = int.from_bytes(packed[i].tobytes(), "little") & unseen
        unseen ^= new
        while new:
            j = (new & -new).bit_length() - 1
            new &= new - 1
            parent[j] = i
            order.append(j)
        head += 1
    return order, parent


@dataclass(frozen=True)
class SupportPattern:
    """Symmetric 0/1 matrix with unit diagonal: the combinatorial input."""

    bits: np.ndarray

    def __post_init__(self):
        b = np.asarray(self.bits)
        if b.ndim != 2 or b.shape[0] != b.shape[1]:
            raise PreconditionError("support pattern must be square")
        if not ((b == 0) | (b == 1)).all():
            raise PreconditionError("support pattern entries must be 0 or 1")
        b = b.astype(np.uint8)
        if np.any(b != b.T):
            raise PreconditionError("support pattern must be symmetric")
        if np.any(np.diag(b) != 1):
            raise PreconditionError("support pattern must have a unit diagonal")
        object.__setattr__(self, "bits", b)

    def __array__(self, dtype=None, copy=None):
        """The bits, so a pattern converts and saves like its 0/1 matrix."""
        return np.array(self.bits, dtype=dtype, copy=copy)

    @property
    def n(self) -> int:
        return self.bits.shape[0]

    @property
    def mask(self) -> np.ndarray:
        return self.bits.astype(bool)

    @classmethod
    def from_matrix(cls, a) -> "SupportPattern":
        return cls(support_of(a).astype(np.uint8))


def involution_permutations(s: np.ndarray):
    """Yield every column permutation sigma with S[i, sigma(j)] == S[j, sigma(i)]
    for all i, j and S[i, sigma(i)] == 1, each once and as soon as it is
    found, in an order the pattern fixes (not lexicographic).

    Backtracking with forward checking.  Each row starts with a domain of
    candidate columns: a nonzero of its own, with matching nonzero count and
    matching degree multiset of its support (the same invariants a
    graph-isomorphism search would use).  Placing sigma[j] = c leaves every
    unplaced row r only the columns c' with S[j, c'] == S[r, c], minus c
    itself; a placement that empties a domain is dropped.  The row with the
    smallest domain is placed next (MRV, "minimum remaining values";
    Haralick & Elliott, 1980), ties going to the lowest row index, and it
    tries its columns in increasing order.  On a polygon's circulant support
    one placement pins the rows next to it, so the search walks around the
    polygon instead of branching at every row: the first permutation takes
    93 nodes on the regular 17-gon and 926 on the 51-gon.  Domains are held
    as the bits of Python ints.

    Each column tried counts as one node, over the life of one enumeration;
    the next() that takes the count over INVOLUTION_NODE_BUDGET raises
    ConvergenceError.
    """
    search = _InvolutionSearch(s)
    for sigma in search.completions():
        yield np.array(sigma, dtype=int)


class _InvolutionSearch:
    """The backtracking state of involution_permutations on a 0/1 matrix:
    each row's initial domain, the rows and columns as bitsets, the partial
    permutation sigma and the node count."""

    def __init__(self, s: np.ndarray):
        n = self.n = s.shape[0]
        nz = s != 0
        row_counts = np.count_nonzero(nz, axis=1)
        col_counts = np.count_nonzero(nz, axis=0)
        # Position j ends up as row j of the permuted matrix; its column in
        # the symmetric result must have rowcount(j) entries and the same
        # multiset of degrees, compared as sorted rows padded with -1 per zero.
        row_profile = np.sort(np.where(nz, col_counts[None, :], -1), axis=1)
        col_profile = np.sort(np.where(nz.T, row_counts[None, :], -1), axis=1)
        labels: dict[bytes, int] = {}
        row_label, col_label = (
            [labels.setdefault(p.tobytes(), len(labels)) for p in profile]
            for profile in (row_profile, col_profile)
        )
        self.domains = _bitsets((s == 1) & np.equal.outer(row_label, col_label))
        # Bit c of rows_of[j] is S[j, c]; bit r of col_of[c] is S[r, c].
        self.rows_of, self.col_of = _bitsets(nz), _bitsets(nz.T)
        self.sigma = [-1] * n
        self.nodes = 0

    def place(self, j: int, c: int, rows: list[int], doms: list[int]) -> tuple | None:
        """The domains of the unplaced rows (doms[k] is row rows[k]'s) once
        row j takes column c, with the index of the first smallest of them,
        or None when one is left empty.  Counts a node."""
        self.nodes += 1
        if self.nodes > INVOLUTION_NODE_BUDGET:
            raise ConvergenceError(
                f"involution search on {self.n} rows visited {self.nodes} nodes, "
                f"over the budget of {INVOLUTION_NODE_BUDGET}"
            )
        on, off = self.rows_of[j], ~self.rows_of[j]
        col, keep = self.col_of[c], ~(1 << c)
        pruned, smallest, size = [], 0, self.n + 1
        for r, dom in zip(rows, doms):
            dom &= (on if col >> r & 1 else off) & keep
            if not dom:
                return None
            count = dom.bit_count()
            if count < size:
                smallest, size = len(pruned), count
            pruned.append(dom)
        return pruned, smallest

    def completions(self):
        """Yield sigma each time it is completed, placing the row with the
        smallest domain first.  Each frame of an explicit stack holds a
        placed row, the other unplaced rows with their domains as they were
        before its placement, and the row's untried columns (bit c set while
        column c is open), so a search of any depth makes no recursive call."""
        frames: list[list] = []
        rows, doms = list(range(self.n)), self.domains  # unplaced, increasing
        k = min(range(self.n), key=lambda i: doms[i].bit_count(), default=0)
        while True:
            if rows:
                frames.append([rows[k], rows[:k] + rows[k + 1:],
                               doms[:k] + doms[k + 1:], doms[k]])
            else:
                yield self.sigma
            # The next placement: the deepest frame's lowest untried column.
            while frames:
                frame = frames[-1]
                j, rest_rows, rest_doms, todo = frame
                if not todo:
                    frames.pop()
                    continue
                low = todo & -todo
                frame[3] = todo ^ low
                c = low.bit_length() - 1
                placed = self.place(j, c, rest_rows, rest_doms)
                if placed is not None:
                    self.sigma[j] = c
                    rows, (doms, k) = rest_rows, placed
                    break
            else:
                return


def _bitsets(mask: np.ndarray) -> list[int]:
    """Each row of a boolean matrix as an int whose bit c is entry c."""
    packed = np.packbits(mask, axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]
