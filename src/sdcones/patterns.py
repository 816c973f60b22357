"""Zero patterns: matrix supports, support graphs and the strongly involutive
column permutations of a 0/1 matrix.  Every support comparison in the package
uses the rule defined here."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import ConvergenceError, PreconditionError

# Relative threshold deciding which entries count as structural zeros.
SUPPORT_CLAMP = 1e-10

# Nodes (columns tried) one involution_permutations enumeration may visit.
# The smallest-domain-first search needs 218 on the regular 17-gon, 2 277 on
# the 50-gon, 2 377 on the 51-gon and 9 752 on the 101-gon.
INVOLUTION_NODE_BUDGET = 1_000_000


def support_of(a, rel: float = SUPPORT_CLAMP) -> np.ndarray:
    """Boolean support of a matrix, zeros decided relative to the max entry."""
    m = np.abs(linalg.as_matrix(a))
    scale = m.max() if m.size else 0.0
    if scale <= 0.0:
        return np.zeros(m.shape, dtype=bool)
    return m > rel * scale


def is_connected(mask: np.ndarray) -> bool:
    """Connectivity of the graph with the symmetric boolean adjacency matrix
    mask (diagonal entries are ignored); the graph on no vertices counts as
    connected.  Breadth-first search, one numpy step per level."""
    seen = np.zeros(mask.shape[0], dtype=bool)
    seen[:1] = True
    frontier = seen.copy()
    while frontier.any():
        frontier = mask[frontier].any(axis=0) & ~seen
        seen |= frontier
    return bool(seen.all())


@dataclass(frozen=True)
class SupportPattern:
    """Symmetric 0/1 matrix with unit diagonal: the combinatorial input."""

    bits: np.ndarray

    def __post_init__(self):
        b = np.asarray(self.bits)
        if b.ndim != 2 or b.shape[0] != b.shape[1]:
            raise PreconditionError("support pattern must be square")
        if not np.isin(b, (0, 1)).all():
            raise PreconditionError("support pattern entries must be 0 or 1")
        b = b.astype(np.uint8)
        if np.any(b != b.T):
            raise PreconditionError("support pattern must be symmetric")
        if np.any(np.diag(b) != 1):
            raise PreconditionError("support pattern must have a unit diagonal")
        object.__setattr__(self, "bits", b)

    @property
    def n(self) -> int:
        return self.bits.shape[0]

    @property
    def mask(self) -> np.ndarray:
        return self.bits.astype(bool)

    @classmethod
    def from_matrix(cls, a, rel: float = SUPPORT_CLAMP) -> "SupportPattern":
        return cls(support_of(a, rel).astype(np.uint8))


def involution_permutations(s: np.ndarray):
    """Yield all column permutations sigma with S[i, sigma(j)] == S[j, sigma(i)]
    for all i, j and S[i, sigma(i)] == 1, in lexicographic order.

    Backtracking with forward checking and smallest-domain-first row order
    (MRV, "minimum remaining values"; Haralick & Elliott, 1980).  Each row
    starts with a domain of candidate columns: a nonzero of its own, with
    matching nonzero count and matching degree multiset of its support (the
    same invariants a graph-isomorphism search would use).  Placing
    sigma[j] = c leaves every unplaced row r only the columns c' with
    S[j, c'] == S[r, c], minus c itself, and the search backtracks as soon as
    some unplaced row has no column left; so every column tried is
    consistent with all rows placed before it.  The row placed next is the
    unplaced row with the fewest open columns, ties going to the lowest
    index, and it tries its columns in increasing order.  On a polygon's
    circulant support one placement pins the rows next to it, so the search
    walks around the polygon instead of branching at every row: 218 nodes on
    the regular 17-gon and 2 377 on the 51-gon, where the fixed row order
    0..n-1 needs 2 162 and 126 483.  Domains are sets of columns held as the
    bits of Python ints, so a node costs a few integer operations per row.

    Rows placed in that order do not produce the permutations in
    lexicographic order, so the enumeration always runs to the end before
    anything is yielded, and the sorted list comes out afterwards.

    Each column tried counts as one node.  More than INVOLUTION_NODE_BUDGET
    nodes in one enumeration raise ConvergenceError, before the first
    permutation is yielded, instead of running on.
    """
    n = s.shape[0]
    nz = s != 0
    row_counts = np.count_nonzero(nz, axis=1)
    col_counts = np.count_nonzero(nz, axis=0)
    # Position j ends up as row j of the permuted matrix; its column in the
    # symmetric result must have rowcount(j) entries and the same multiset
    # of degrees, compared as sorted rows padded with -1 per zero.
    row_profile = np.sort(np.where(nz, col_counts[None, :], -1), axis=1)
    col_profile = np.sort(np.where(nz.T, row_counts[None, :], -1), axis=1)
    labels: dict[bytes, int] = {}
    row_label, col_label = (
        [labels.setdefault(p.tobytes(), len(labels)) for p in profile]
        for profile in (row_profile, col_profile)
    )
    domain = (s == 1) & np.equal.outer(row_label, col_label)
    # Bit c of rows_of[j] is S[j, c]; bit r of col_of[c] is S[r, c].
    rows_of, col_of = _bitsets(nz), _bitsets(nz.T)
    sigma = [-1] * n
    found: list[tuple[int, ...]] = []
    nodes = 0

    def extend(rows: list[int], doms: list[int]):
        # rows lists the unplaced rows in increasing order; bit c of doms[k]
        # is set while column c is open to row rows[k].
        nonlocal nodes
        if not rows:
            found.append(tuple(sigma))
            return
        k = min(range(len(rows)), key=lambda i: doms[i].bit_count())
        j = rows[k]
        rest_rows = rows[:k] + rows[k + 1:]
        rest_doms = doms[:k] + doms[k + 1:]
        on, off = rows_of[j], ~rows_of[j]
        todo = doms[k]
        while todo:
            low = todo & -todo
            todo ^= low
            c = low.bit_length() - 1
            nodes += 1
            if nodes > INVOLUTION_NODE_BUDGET:
                raise ConvergenceError(
                    f"involution search on {n} rows visited {nodes} nodes, "
                    f"over the budget of {INVOLUTION_NODE_BUDGET}"
                )
            col, keep = col_of[c], ~low
            pruned = []
            for r, dom in zip(rest_rows, rest_doms):
                dom &= (on if col >> r & 1 else off) & keep
                if not dom:
                    break
                pruned.append(dom)
            else:
                sigma[j] = c
                extend(rest_rows, pruned)

    extend(list(range(n)), _bitsets(domain))
    found.sort()
    for perm in found:
        yield np.array(perm, dtype=int)


def _bitsets(mask: np.ndarray) -> list[int]:
    """Each row of a boolean matrix as an int whose bit c is entry c."""
    packed = np.packbits(mask, axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]
