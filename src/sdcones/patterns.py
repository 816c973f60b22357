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
# Forward checking needs 2 162 on the regular 17-gon and 126 483 on the 51-gon.
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

    Backtracking with forward checking (Haralick & Elliott, 1980).  Each row
    starts with a domain of candidate columns: a nonzero of its own, with
    matching nonzero count and matching degree multiset of its support (the
    same invariants a graph-isomorphism search would use).  Placing
    sigma[j] = c leaves every later row r only the columns c' with
    S[j, c'] == S[r, c], minus c itself, and the search backtracks as soon as
    some later row has no column left; so every column tried is consistent
    with all rows placed before it.  Rows are placed in their fixed order
    0..n-1 and each row tries its columns in increasing order, which keeps
    the output lexicographic.

    Each column tried counts as one node.  More than INVOLUTION_NODE_BUDGET
    nodes in one enumeration raise ConvergenceError instead of running on.
    """
    n = s.shape[0]
    row_counts = s.sum(axis=1)
    col_counts = s.sum(axis=0)
    # Position j ends up as row j of the permuted matrix; its column in the
    # symmetric result must have rowcount(j) entries.
    row_profile = [
        tuple(sorted(col_counts[np.nonzero(s[j])[0]])) for j in range(n)
    ]
    col_profile = [
        tuple(sorted(row_counts[np.nonzero(s[:, c])[0]])) for c in range(n)
    ]
    same_profile = np.array(
        [[cp == rp for cp in col_profile] for rp in row_profile], dtype=bool
    ).reshape(n, n)
    domain = (s == 1) & (row_counts[:, None] == col_counts[None, :]) & same_profile
    sigma = np.full(n, -1, dtype=int)
    nodes = 0

    def extend(j: int, dom: np.ndarray):
        # dom[r - j] holds the columns still open to row r >= j.
        nonlocal nodes
        if j == n:
            yield sigma.copy()
            return
        for c in np.flatnonzero(dom[0]):
            nodes += 1
            if nodes > INVOLUTION_NODE_BUDGET:
                raise ConvergenceError(
                    f"involution search on {n} rows visited {nodes} nodes, "
                    f"over the budget of {INVOLUTION_NODE_BUDGET}"
                )
            rest = dom[1:] & (s[j] == s[j + 1:, c, None])
            rest[:, c] = False
            if rest.any(axis=1).all():
                sigma[j] = c
                yield from extend(j + 1, rest)

    yield from extend(0, domain)
