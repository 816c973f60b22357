from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

from sdcones import data, geometry, linalg, patterns, search
from sdcones.errors import PreconditionError

# Property tests draw the same examples on every run and keep no example
# database, so two runs of the suite test the same inputs.
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")

# One line per acceptance criterion, echoed in the terminal summary so the
# verdicts stay visible under pytest's output capture.
acceptance_lines: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if acceptance_lines:
        terminalreporter.section("acceptance criteria")
        for line in acceptance_lines:
            terminalreporter.write_line(line)


# The tree's own src, which a child interpreter imports sdcones from.
SRC = Path(__file__).resolve().parents[1] / "src"


def run_python(*args: str, **kwargs) -> subprocess.CompletedProcess:
    """Run `python args` in a child of this interpreter (sys.executable),
    with the tree's src first on PYTHONPATH, as text, killed after 60 s.
    stdout and stderr are captured unless kwargs redirect them."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    kwargs.setdefault("stdout", subprocess.PIPE)
    kwargs.setdefault("stderr", subprocess.PIPE)
    return subprocess.run([sys.executable, *args], env=env, text=True,
                          timeout=60, **kwargs)


def random_orthogonal(rng: np.random.Generator, n: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.normal(size=(n, n)))
    return q * np.sign(np.diag(r))


def random_pointed_cone_generators(
    rng: np.random.Generator, d: int, n: int
) -> np.ndarray:
    """n unit generators strictly inside a halfspace, spanning R^d."""
    while True:
        axis = rng.normal(size=d)
        axis /= np.linalg.norm(axis)
        vecs = rng.normal(size=(n, d))
        vecs /= np.linalg.norm(vecs, axis=1)[:, None]
        gens = vecs + 1.15 * axis[None, :]
        gens /= np.linalg.norm(gens, axis=1)[:, None]
        if np.linalg.matrix_rank(gens) == d:
            return gens


def split_hexagon_rays() -> np.ndarray:
    """Generators (1, x, y) of a hexagonal cone: the regular pentagon's
    vertex 0 split into two vertices +-2e-5 along its tangent, about 4e-5
    rad apart.  It has 6 rays and 6 facets, and no even polygon cone is
    self-dual."""
    v = data.regular_polygon_vertices(5)
    t = np.array([-v[0, 1], v[0, 0]]) / np.linalg.norm(v[0])
    split = np.vstack([v[0] + 2e-5 * t, v[0] - 2e-5 * t, v[1:]])
    return np.column_stack([np.ones(6), split])


def full_svd_rank(a: np.ndarray) -> np.ndarray:
    """The numeric rank of a matrix, or of each matrix of a stack, read the
    way the package read it before its rank kernel went values-only: from
    the singular values of a full SVD (full_matrices=True, every singular
    vector formed), counted above DEFAULT_RANK_TOL times the largest."""
    s = np.linalg.svd(a, full_matrices=True)[1]
    return (s > linalg.DEFAULT_RANK_TOL * s[..., :1]).sum(axis=-1)


def block_diagonal_dnn() -> np.ndarray:
    """A 100 x 100 DNN matrix of rank 20: 10 diagonal blocks Y Y^T, each Y
    10 x 2 uniform in [0.2, 1) from default_rng(0).  Its W1 and W2 meet in
    the 30 dimensions of the blocks' own 3, so it is not extreme."""
    m = np.zeros((100, 100))
    rng = np.random.default_rng(0)
    for b in range(10):
        y = rng.uniform(0.2, 1.0, size=(10, 2))
        m[10 * b:10 * b + 10, 10 * b:10 * b + 10] = y @ y.T
    return m


def shuffled_cycle_complement(n: int) -> np.ndarray:
    """The n x n all-ones support minus a symmetric n-cycle, its columns
    shuffled by default_rng(0): every involution search of it places all n
    rows before its first permutation."""
    s = np.ones((n, n), dtype=np.uint8)
    i = np.arange(n)
    s[i, (i + 1) % n] = s[(i + 1) % n, i] = 0
    return s[:, np.random.default_rng(0).permutation(n)]


def spectral_start(pattern) -> np.ndarray:
    """X0 = I + A / 2, A the support off the diagonal: the matrix the
    spectral attempt of a search refines."""
    return np.eye(pattern.n) + 0.5 * (pattern.mask & ~np.eye(pattern.n, dtype=bool))


def decline_spectral_attempt(monkeypatch) -> None:
    """Make rank_refine report no convergence on the spectral start, so a
    search's attempt 0 fails and its SDP attempts run."""
    refine = search.rank_refine

    def declined(x, d, pattern):
        res = refine(x, d, pattern)
        res.converged = res.converged and not np.array_equal(x, spectral_start(pattern))
        return res

    monkeypatch.setattr(search, "rank_refine", declined)


def stacked_products(gens: np.ndarray, normals: np.ndarray) -> np.ndarray:
    """The facet scan's products g_i . n_j, one matrix-vector product per
    normal, as an n x m matrix.  One matrix product gens @ normals.T may
    round some of them differently."""
    return (gens @ normals[:, :, None])[:, :, 0].T


def loop_extreme_mask(gens: np.ndarray, normals: np.ndarray, tol: float) -> np.ndarray:
    """The extremality test by containment, one loop step per pair of
    generators: a generator is extreme when no generator's set of active
    facets (|g . n| <= tol) strictly contains its own."""
    active = [set(np.flatnonzero(np.abs(row) <= tol)) for row in gens @ normals.T]
    return np.array([not any(a < b for b in active) for a in active], dtype=bool)


def rank_extreme_mask(gens: np.ndarray, normals: np.ndarray, tol: float) -> np.ndarray:
    """The rank rule extremality took before the containment rule: one
    numeric_rank call on each generator's active facet normals, extreme at
    rank d-1.  On generic cones the two rules agree."""
    d = gens.shape[1]
    prods = gens @ normals.T
    kept = np.zeros(gens.shape[0], dtype=bool)
    for i in range(gens.shape[0]):
        active = normals[np.abs(prods[i]) <= tol]
        kept[i] = active.shape[0] >= d - 1 and linalg.numeric_rank(active) == d - 1
    return kept


def loop_ray_mask(gens: np.ndarray, normals: np.ndarray, tol: float,
                  rule=loop_extreme_mask) -> np.ndarray:
    """The extreme generators that stand for their ray, one loop step per
    generator: extreme by rule, and on a set of facets that no earlier
    extreme generator lies on."""
    extreme = rule(gens, normals, tol)
    seen: list[list[int]] = []
    rays = np.zeros(gens.shape[0], dtype=bool)
    for i in np.flatnonzero(extreme):
        active = [j for j in range(normals.shape[0]) if abs(gens[i] @ normals[j]) <= tol]
        if active not in seen:
            seen.append(active)
            rays[i] = True
    return rays


def loop_extreme_rays(generators, tol: float = geometry.DEFAULT_FACET_TOL,
                      rule=loop_extreme_mask):
    """extreme_rays with a per-generator extremality loop (rule) and one
    generator per ray (loop_ray_mask), after facet_normals' checks."""
    cone = geometry.PolyhedralCone(generators)
    normals = geometry.facet_normals(cone, tol)
    rays = loop_ray_mask(cone.generators, normals, tol, rule)
    if not rays.any():
        raise PreconditionError("no extreme rays found; input cone degenerate")
    return geometry.PolyhedralCone(cone.generators[rays])


def eigen_row_space_basis(g: np.ndarray) -> np.ndarray:
    """The row-space basis is_pointed used before it took one SVD: the
    eigenvectors of g^T g whose eigenvalues' square roots pass the rank rule.
    Those square roots carry noise near 1e-8 of the largest, the rank
    cutoff itself, so on a generator set of deficient rank the basis can
    come out one or more directions too wide."""
    gram = g.T @ g
    eig = linalg.sym_eigen(0.5 * (gram + gram.T))
    s = np.sqrt(np.clip(eig.values, 0.0, None))
    if s.size == 0 or s[0] <= 0.0:
        return np.zeros((g.shape[1], 0))
    keep = s > linalg.DEFAULT_RANK_TOL * s[0]
    return eig.vectors[:, keep]


def eigen_is_pointed(cone, tol: float = geometry.DEFAULT_FACET_TOL) -> bool:
    """is_pointed as it was before it went through facet_normals: the facet
    scan in the coordinates of eigen_row_space_basis, and the rank of the
    normals it finds."""
    g = cone.generators
    basis = eigen_row_space_basis(g)
    normals = geometry._facet_scan(g @ basis, tol)[0]
    return normals.shape[0] > 0 and linalg.numeric_rank(normals) == basis.shape[1]


# The relative cycle-consistency tolerance of dfs_solve_scaling.
DFS_CYCLE_TOL = 1e-8


def dfs_solve_scaling(n_mat: np.ndarray) -> np.ndarray | None:
    """A path-product scaling solve: a depth-first search per component,
    neighbours from np.nonzero, d = 1 at each component's smallest vertex,
    each child solving the equation with its parent, then a check of every
    support pair at DFS_CYCLE_TOL relative to the pair's larger entry."""
    n = n_mat.shape[0]
    mask = patterns.support_of(n_mat)
    d = np.zeros(n)
    seen = np.zeros(n, dtype=bool)
    for root in range(n):
        if seen[root]:
            continue
        d[root] = 1.0
        seen[root] = True
        stack = [root]
        while stack:
            i = stack.pop()
            for j in np.nonzero(mask[i])[0]:
                if seen[j]:
                    continue
                d[j] = d[i] * n_mat[j, i] / n_mat[i, j]
                seen[j] = True
                stack.append(int(j))
    scaled = n_mat * d[None, :]
    gap = np.abs(scaled - scaled.T)
    ref = np.maximum(np.abs(scaled), np.abs(scaled.T))
    bad = gap > DFS_CYCLE_TOL * np.maximum(ref, 1e-300)
    if np.any(bad & mask):
        return None
    return d


def support_pattern_of(m: np.ndarray, rel: float = 1e-10) -> np.ndarray:
    a = np.abs(np.asarray(m, dtype=float))
    scale = a.max() if a.size else 0.0
    if scale == 0.0:
        return np.zeros(a.shape, dtype=bool)
    return a > rel * scale


def match_columns_by_pattern(p1: np.ndarray, p2: np.ndarray) -> np.ndarray | None:
    """Permutation sigma with p2[:, sigma[j]] == p1[:, j], by unique patterns."""
    if p1.shape != p2.shape:
        return None
    cols2 = {tuple(p2[:, j]): j for j in range(p2.shape[1])}
    if len(cols2) != p2.shape[1]:
        return None
    sigma = []
    for j in range(p1.shape[1]):
        key = tuple(p1[:, j])
        if key not in cols2:
            return None
        sigma.append(cols2[key])
    return np.asarray(sigma)


def equal_up_to_scaling(
    m1: np.ndarray, m2: np.ndarray, tol: float = 1e-8, rows: bool = True
) -> bool:
    """True when m2 = diag(r) m1 diag(c) for positive r, c (r = 1 if not rows).

    Solved in log space by propagating potentials over the bipartite support
    graph, then checking every entry; supports must match exactly.
    """
    m1 = np.asarray(m1, dtype=float)
    m2 = np.asarray(m2, dtype=float)
    if m1.shape != m2.shape:
        return False
    p1 = support_pattern_of(m1)
    if not np.array_equal(p1, support_pattern_of(m2)):
        return False
    n, m = m1.shape
    ratio = np.zeros_like(m1)
    ratio[p1] = np.log(m2[p1] / m1[p1])
    if not rows:
        cols = np.full(m, np.nan)
        for j in range(m):
            vals = ratio[p1[:, j], j]
            if vals.size == 0:
                return False
            if np.abs(vals - vals[0]).max() > tol:
                return False
            cols[j] = vals[0]
        return True
    # Bipartite potentials: row node i gets rho_i, column node j gets gamma_j,
    # ratio_ij = rho_i + gamma_j on the support.
    rho = np.full(n, np.nan)
    gamma = np.full(m, np.nan)
    for start in range(n):
        if not np.isnan(rho[start]):
            continue
        rho[start] = 0.0
        frontier = [("r", start)]
        while frontier:
            kind, idx = frontier.pop()
            if kind == "r":
                for j in np.nonzero(p1[idx])[0]:
                    if np.isnan(gamma[j]):
                        gamma[j] = ratio[idx, j] - rho[idx]
                        frontier.append(("c", int(j)))
            else:
                for i in np.nonzero(p1[:, idx])[0]:
                    if np.isnan(rho[i]):
                        rho[i] = ratio[i, idx] - gamma[idx]
                        frontier.append(("r", int(i)))
    pred = rho[:, None] + gamma[None, :]
    return bool(np.abs((pred - ratio)[p1]).max() <= tol)


@pytest.fixture
def pentagon_slack():
    return data.pentagon_slack()


@pytest.fixture
def pentagon_rays():
    return data.pentagon_rays()


@pytest.fixture
def prism_slack():
    return data.prism_slack()


@pytest.fixture
def prism_rays():
    return data.prism_rays()


@pytest.fixture
def nonslack_extreme():
    return data.nonslack_extreme_matrix()
