from __future__ import annotations

import ast
import inspect
import itertools
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st
from scipy.optimize import nnls
from scipy.spatial import ConvexHull

import sdcones
from sdcones import data, geometry, linalg, patterns, search
from sdcones.errors import ConvergenceError, ParseError, PreconditionError

from conftest import (
    eigen_is_pointed,
    eigen_row_space_basis,
    equal_up_to_scaling,
    loop_extreme_mask,
    loop_extreme_rays,
    loop_ray_mask,
    match_columns_by_pattern,
    random_orthogonal,
    random_pointed_cone_generators,
    rank_extreme_mask,
    split_hexagon_rays,
    stacked_products,
    support_pattern_of,
)


def oracle_facet_normals(gens: np.ndarray, tol: float = 1e-9) -> np.ndarray:
    """Brute-force oracle built on numpy's SVD rather than the package
    kernels: enumerate (d-1)-subsets, read the null vector off the SVD,
    keep inward-orientable ones."""
    n, d = gens.shape
    found = []
    for combo in itertools.combinations(range(n), d - 1):
        sub = gens[list(combo)]
        u, s, vt = np.linalg.svd(sub)
        if s.size and s.min() > 1e-8 * s.max():
            nullity = d - len(s)
        else:
            nullity = d - np.count_nonzero(s > 1e-8 * s.max())
        if nullity != 1:
            continue
        v = vt[-1]
        prods = gens @ v
        if prods.min() >= -tol:
            pass
        elif prods.max() <= tol:
            v = -v
        else:
            continue
        if not any(abs(float(v @ w)) >= 1.0 - 1e-9 and float(v @ w) > 0 for w in found):
            found.append(v)
    return np.asarray(found)


def _loop_scan(gen: np.ndarray, tol: float, normal, subsets=None,
               maximal=True) -> np.ndarray:
    """A per-subset facet scan: normal(subset) gives each (d-1)-subset's
    unit normal, or None when it proposes none; in lexicographic order, the
    normal is oriented inward when every generator is on one side of it up
    to tol, and kept when its tight set {i : |g_i . v| <= tol} no kept
    normal has.  With maximal, a kept normal whose tight set lies strictly
    inside another's is then dropped.  The subset of each normal left is
    appended to the list subsets, when one is given."""
    n, d = gen.shape
    if d == 1:
        col = gen[:, 0]
        if col.min() > 0.0:
            return np.array([[1.0]])
        if col.max() < 0.0:
            return np.array([[-1.0]])
        return np.zeros((0, 1))
    found: list[tuple[np.ndarray, list[int]]] = []
    tight_sets: list[set[int]] = []
    for combo in itertools.combinations(range(n), d - 1):
        v = normal(gen[list(combo)])
        if v is None:
            continue
        prods = gen @ v
        if prods.min() >= -tol:
            pass
        elif prods.max() <= tol:
            v = -v
        else:
            continue
        tight = {i for i in range(n) if abs(prods[i]) <= tol}
        if tight not in tight_sets:
            tight_sets.append(tight)
            found.append((v, list(combo)))
    kept = [(v, combo) for (v, combo), tight in zip(found, tight_sets)
            if not (maximal and any(tight < other for other in tight_sets))]
    if subsets is not None:
        subsets.extend(combo for _, combo in kept)
    if not kept:
        return np.zeros((0, d))
    return np.vstack([v for v, _ in kept])


def loop_facet_scan(gen: np.ndarray, tol: float, subsets=None) -> np.ndarray:
    """The cross-kernel oracle: one SVD per (d-1)-subset (linalg.null_space),
    a normal at nullity 1, and the maximal tight sets kept.  The stacked
    scan must find the same tight sets in the same order, with nearby
    normals (same_facets)."""
    def normal(sub):
        basis = linalg.null_space(sub)
        return basis[:, 0] if basis.shape[1] == 1 else None

    return _loop_scan(gen, tol, normal, subsets)


def householder_facet_scan(gen: np.ndarray, tol: float, rank_rule: bool = False) -> np.ndarray:
    """The stacked scan's per-subset reference: one Householder normal
    (linalg.orthogonal_directions) per (d-1)-subset, and the maximal tight
    sets kept.  The stacked scan must reproduce it bit for bit.  With
    rank_rule, the scan's rule before a facet was a maximal tight set: a
    subset needs linalg.numeric_rank d-1, and no tight set is dropped."""
    d = gen.shape[1]

    def normal(sub):
        if rank_rule and linalg.numeric_rank(sub) != d - 1:
            return None
        return linalg.orthogonal_directions(sub)

    return _loop_scan(gen, tol, normal, maximal=not rank_rule)


def same_facets(got: np.ndarray, gen: np.ndarray, tol: float) -> bool:
    """Whether the normals got are loop_facet_scan's up to rounding: the same
    tight sets in the same order, and each normal within 1e-12, or within
    eps * cond(S) for an ill-conditioned subset S, the forward error bound
    of two backward-stable null directions of S.  A normal whose hyperplane
    holds every generator has no inward side, so its sign is free."""
    subsets: list[list[int]] = []
    oracle = loop_facet_scan(gen, tol, subsets)
    if got.shape != oracle.shape:
        return False
    for u, v, sub in zip(got, oracle, subsets):
        tight = np.abs(gen @ u) <= tol
        if not np.array_equal(tight, np.abs(gen @ v) <= tol):
            return False
        gap = np.abs(u - v).max()
        if tight.all():
            gap = min(gap, np.abs(u + v).max())
        sv = np.linalg.svd(gen[sub], compute_uv=False)
        if gap > max(1e-12, np.finfo(float).eps * sv[0] / sv[-1]):
            return False
    return True


@st.composite
def scan_generators(draw) -> np.ndarray:
    """Unit generator rows for the facet scan, d = 2..6 and n <= 12: gaussian,
    pointed or small-integer cones, then duplicated, antipodal and collinear
    rows, so that many (d-1)-subsets are rank-deficient and some cones
    contain a line."""
    d = draw(st.integers(2, 6))
    n = draw(st.integers(1, 12))
    kind = draw(st.sampled_from(["gaussian", "pointed", "lattice"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "lattice":
        g = rng.integers(-2, 3, size=(n, d)).astype(float)
        g[~g.any(axis=1), 0] = 1.0
    else:
        g = rng.normal(size=(n, d))
        if kind == "pointed":
            g[:, 0] = np.abs(g[:, 0]) + 0.5
    rows = list(g)
    for op, i, j in draw(st.lists(st.tuples(
            st.sampled_from(["duplicate", "antipodal", "collinear"]),
            st.integers(0, n - 1), st.integers(0, n - 1)), max_size=4)):
        if len(rows) == 12:
            break
        if op == "duplicate":
            rows.append(2.5 * rows[i])
        elif op == "antipodal":
            rows.append(-rows[i])
        elif np.linalg.norm(rows[i] + rows[j]) > 1e-9:
            rows.append(rows[i] + rows[j])
    g = np.array(rows)
    return g / np.linalg.norm(g, axis=1)[:, None]


@st.composite
def extremality_generators(draw) -> np.ndarray:
    """Unit generator rows of a pointed spanning cone, d = 2..5: a gaussian
    or small-integer base cone, then interior points, points inside a facet,
    points on an edge or a 2-face of a facet, and duplicated rows; the
    duplicates are kept, so both copies of a ray are tested."""
    d = draw(st.integers(2, 5))
    n = draw(st.integers(d, 9))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        base = random_pointed_cone_generators(rng, d, n)
    else:
        while True:
            base = np.column_stack(
                [np.ones(n), rng.integers(-2, 3, size=(n, d - 1))]
            ).astype(float)
            if np.linalg.matrix_rank(base) == d:
                break
        base /= np.linalg.norm(base, axis=1)[:, None]
    normals = geometry._facet_scan(base, geometry.DEFAULT_FACET_TOL)[0]
    rows = list(base)
    for op in draw(st.lists(st.sampled_from(["interior", "facet", "edge", "duplicate"]),
                            min_size=1, max_size=4)):
        if op == "interior":
            pick = np.arange(n)
        elif op == "duplicate":
            rows.append(2.5 * base[rng.integers(n)])
            continue
        else:
            f = normals[rng.integers(normals.shape[0])]
            pick = np.flatnonzero(np.abs(base @ f) <= geometry.DEFAULT_FACET_TOL)
            if op == "edge":
                pick = rng.choice(pick, size=min(2, pick.size), replace=False)
        rows.append(rng.integers(1, 3, size=pick.size) @ base[pick])
    g = np.array(rows)
    return g / np.linalg.norm(g, axis=1)[:, None]


@st.composite
def incidences(draw) -> np.ndarray:
    """Products of 1 to 10 generators with 1 to 6 facets at tol 1e-6: a
    random incidence, small enough that sets repeat and nest, its tight
    entries within tol on either side of zero and the others above tol."""
    n, m = draw(st.integers(1, 10)), draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    active = rng.random((n, m)) < draw(st.floats(0.1, 0.9))
    return np.where(active, rng.uniform(-1e-6, 1e-6, (n, m)), rng.uniform(2e-6, 1.0, (n, m)))


def twin_outside_rays(gen: np.ndarray, tol: float = geometry.DEFAULT_FACET_TOL) -> bool:
    """Whether a generator tight on the same facets as one of extreme_rays'
    rays lies more than tol outside the facet hyperplanes of those rays.
    extreme_rays keeps the first of such twins; when the kept one lies
    within tol of the hyperplane through its neighbours and its twin just
    beyond, that hyperplane is a facet of the rays alone, and the kept ray
    is a face inside it when the rays are scanned again."""
    cone = geometry.PolyhedralCone(gen)
    _, rays, active = geometry._extreme_mask(geometry._facets(cone, tol)[1], tol)
    normals = geometry.facet_normals(geometry.PolyhedralCone(cone.generators[rays]), tol)
    outside = (cone.generators @ normals.T).min(axis=1) < -tol
    twin = (active[:, None, :] == active[rays][None, :, :]).all(axis=2).any(axis=1)
    return bool((outside & twin).any())


def _outcome(fn, *args):
    """A function's result as bytes of its generators, or its error text."""
    try:
        return fn(*args).generators.tobytes()
    except PreconditionError as exc:
        return str(exc)


def in_cone_oracle(gens: np.ndarray, x: np.ndarray, tol: float = 1e-9) -> bool:
    """Membership via nonnegative least squares."""
    _, resid = nnls(gens.T, x)
    return resid <= tol * max(1.0, np.linalg.norm(x))


@st.composite
def subspace_cones(draw):
    """Generators in a random r-dimensional subspace of R^d (d from 1 to 5,
    so full-dimensional, lower-dimensional and d = 1 cones), with the cone's
    pointedness when the construction fixes it: True when every generator
    lies in one open half of the subspace, False when a generator's negative
    is added, None when the coefficients are drawn freely."""
    d = draw(st.integers(1, 5))
    r = draw(st.integers(1, d))
    n = draw(st.integers(1, 7))
    kind = draw(st.sampled_from(["pointed", "line", "free"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = 10.0 ** draw(st.integers(-3, 3))
    coeff = rng.uniform(-1.0, 1.0, size=(n, r))
    if kind == "pointed":
        coeff[:, 0] = rng.uniform(0.3, 1.0, size=n)
    elif kind == "line":
        coeff = np.vstack([coeff, -coeff[:1]])
    frame = random_orthogonal(rng, d)[:, :r]
    pointed = {"pointed": True, "line": False, "free": None}[kind]
    return scale * coeff @ frame.T, pointed


class TestPolyhedralCone:
    def test_normalizes_and_keeps_repeated_rays(self):
        # The constructor only normalizes; the repeated ray is told apart
        # where facets are known, by the facets tight at it.
        gens = [[2.0, 0.0], [4.0, 0.0], [0.0, 3.0]]
        cone = geometry.PolyhedralCone(gens)
        assert cone.n_rays == 3
        assert np.array_equal(cone.generators, [[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        assert np.array_equal(geometry.extreme_rays(gens).generators,
                              [[1.0, 0.0], [0.0, 1.0]])
        assert geometry.slack_matrix(cone).shape == (2, 2)

    def test_rejects_zero_generator(self):
        with pytest.raises(PreconditionError):
            geometry.PolyhedralCone([[0.0, 0.0]])

    @pytest.mark.parametrize("scale", [1e200, 1e154, 1e-160, 1e-200])
    def test_extreme_magnitudes_normalize_like_ordinary_ones(self, pentagon_rays, scale):
        base = geometry.PolyhedralCone(pentagon_rays).generators
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            scaled = geometry.PolyhedralCone(scale * pentagon_rays).generators
        assert np.abs(scaled - base).max() <= 1e-15

    def test_ordinary_rows_keep_their_bits(self, pentagon_rays):
        base = geometry.PolyhedralCone(pentagon_rays).generators
        mixed = pentagon_rays.copy()
        mixed[2] *= 1e200
        mixed[4] *= 1e-200
        got = geometry.PolyhedralCone(mixed).generators
        keep = [0, 1, 3]
        assert got[keep].tobytes() == base[keep].tobytes()
        assert np.abs(got - base).max() <= 1e-15

    def test_tiny_nonzero_generator_is_a_ray(self):
        cone = geometry.PolyhedralCone([[5e-324, 0.0]])
        assert np.array_equal(cone.generators, [[1.0, 0.0]])
        with pytest.raises(PreconditionError, match="zero generator"):
            geometry.PolyhedralCone([[1e200, 0.0], [0.0, 0.0]])


class TestPointedFullDimensional:
    def test_orthant(self):
        cone = geometry.PolyhedralCone(np.eye(3))
        assert geometry.is_pointed(cone)
        assert geometry.is_full_dimensional(cone)

    def test_line_not_pointed(self):
        cone = geometry.PolyhedralCone([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]])
        assert not geometry.is_pointed(cone)

    def test_prism(self, prism_rays):
        cone = geometry.PolyhedralCone(prism_rays)
        assert geometry.is_pointed(cone)
        assert geometry.is_full_dimensional(cone)

    def test_low_dimensional_pointed(self):
        cone = geometry.PolyhedralCone([[1.0, 0.0]])
        assert geometry.is_pointed(cone)
        assert not geometry.is_full_dimensional(cone)
        both = geometry.PolyhedralCone([[1.0, 0.0], [-1.0, 0.0]])
        assert not geometry.is_pointed(both)

    @pytest.mark.parametrize("gens", [[[1.0, 2.0, 3.0]],
                                      [[1.0, 2.0, 3.0], [2.0, 3.0, 4.0]]])
    def test_pointed_below_full_dimension(self, gens):
        # The eigenvalue-based row space (eigen_row_space_basis) came out
        # too wide for both, and is_pointed called them not pointed.
        assert geometry.is_pointed(geometry.PolyhedralCone(gens))

    @settings(max_examples=300, deadline=None)
    @given(subspace_cones())
    def test_agrees_with_the_eigenvalue_oracle(self, case):
        gens, pointed = case
        cone = geometry.PolyhedralCone(gens)
        got = geometry.is_pointed(cone)
        if pointed is not None:
            assert got == pointed
        g = cone.generators
        if eigen_row_space_basis(g).shape[1] == linalg.numeric_rank(g):
            assert got == eigen_is_pointed(cone)


def test_facet_scan_has_one_caller():
    # Every use of the name counts, so a call through an alias would too.
    tree = ast.parse(inspect.getsource(geometry))
    users = [fn.name for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
             for node in ast.walk(fn)
             if isinstance(node, ast.Name) and node.id == "_facet_scan"]
    assert users == ["_facets"]


class TestFacetNormals:
    def test_orthant(self):
        cone = geometry.PolyhedralCone(np.eye(3))
        normals = geometry.facet_normals(cone)
        assert normals.shape == (3, 3)
        match = geometry.match_generators(np.eye(3), normals, tol=1e-12)
        assert match is not None

    def test_pentagon_against_oracle(self, pentagon_rays):
        cone = geometry.PolyhedralCone(pentagon_rays)
        normals = geometry.facet_normals(cone)
        oracle = oracle_facet_normals(cone.generators)
        assert normals.shape[0] == oracle.shape[0] == 5
        assert geometry.match_generators(oracle, normals, tol=1e-10) is not None

    def test_prism_seven_facets(self, prism_rays):
        cone = geometry.PolyhedralCone(prism_rays)
        normals = geometry.facet_normals(cone)
        assert normals.shape == (7, 4)

    def test_unpointed_rejected(self):
        cone = geometry.PolyhedralCone([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(PreconditionError, match="pointed"):
            geometry.facet_normals(cone)

    def test_not_full_dimensional_rejected(self):
        cone = geometry.PolyhedralCone([[1.0, 0.0], [1.0, 1e-3]])
        # Spans a 2-plane in R^2, fine; a flat cone in R^3 is rejected.
        flat = geometry.PolyhedralCone([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        with pytest.raises(PreconditionError,
                           match="generators do not span the ambient space"):
            geometry.facet_normals(flat)
        geometry.facet_normals(cone)


def sphere_cone(seed: int, d: int = 5, n: int = 12) -> np.ndarray:
    """Generators (1, x), the x drawn by default_rng(seed) from the unit
    sphere of R^(d-1), so every generator is an extreme ray."""
    x = np.random.default_rng(seed).normal(size=(n, d - 1))
    x /= np.linalg.norm(x, axis=1)[:, None]
    return np.column_stack([np.ones(n), x])


def hull_inward_normals(gens: np.ndarray) -> np.ndarray:
    """Unit inward normals of the facets of cone(gens) through the origin,
    from Qhull's hull of the origin and the unit generator rows; one row per
    hull simplex, so a facet with more than d-1 generators appears more than
    once."""
    unit = gens / np.linalg.norm(gens, axis=1)[:, None]
    eq = ConvexHull(np.vstack([np.zeros(gens.shape[1]), unit])).equations
    return -eq[np.abs(eq[:, -1]) <= 1e-12, :-1]


class TestIncidenceKey:
    """Facets are named by the generators tight on them and rays by the
    facets tight at them, both at tol; no direction is merged by angle."""

    def test_split_hexagon_has_six_rays_and_six_facets(self):
        # Its split vertices lie 4e-5 rad apart, as do the normals of the
        # facets beside them: a cosine merge at 1 - 1e-9 took it for the
        # pentagon cone.
        cone = geometry.PolyhedralCone(split_hexagon_rays())
        assert geometry.facet_normals(cone).shape == (6, 3)
        assert geometry.extreme_rays(cone.generators).n_rays == 6
        sm = geometry.slack_matrix(cone)
        assert sm.shape == (6, 6)
        assert ((sm.matrix == 0.0).sum(axis=1) == 2).all()

    # Seeds at which a merge at cosine 1 - 1e-9 lost facets.
    CLOSE_FACET_SEEDS = (210, 1004, 2428, 2587, 2609, 2777)

    @pytest.mark.parametrize("seeds", [range(200), CLOSE_FACET_SEEDS])
    def test_facet_count_equals_convex_hull(self, seeds):
        for seed in seeds:
            gens = sphere_cone(seed)
            # The points are in general position: each hull simplex of the
            # cross-section is one facet.
            want = ConvexHull(gens[:, 1:]).simplices.shape[0]
            got = geometry.facet_normals(geometry.PolyhedralCone(gens)).shape[0]
            assert got == want, f"seed {seed}"

    def test_repeated_rays_keep_the_first_generator(self, prism_rays):
        gens = np.vstack([prism_rays, 3.0 * prism_rays[:2], prism_rays[4]])
        cone = geometry.PolyhedralCone(gens)
        assert cone.n_rays == 10
        base = geometry.PolyhedralCone(prism_rays)
        assert np.array_equal(geometry.facet_normals(cone), geometry.facet_normals(base))
        assert np.array_equal(geometry.extreme_rays(gens).generators,
                              geometry.extreme_rays(prism_rays).generators)
        assert np.array_equal(geometry.slack_matrix(cone).matrix,
                              geometry.slack_matrix(base).matrix)


class TestStackedFacetScan:
    @settings(max_examples=300, deadline=None)
    @given(scan_generators())
    def test_equals_per_subset_loop(self, gen):
        tol = geometry.DEFAULT_FACET_TOL
        expected = householder_facet_scan(gen, tol)
        got = geometry._facet_scan(gen, tol)[0]
        assert got.shape == expected.shape
        assert np.array_equal(got, expected)
        # The SVD oracle proposes no normal for a subset of rank below d-1.
        # Generators of rank below d make every subset one, and the scan's
        # maximal tight set there has a normal the oracle lacks; _facets
        # scans only generators that span R^d.
        if linalg.numeric_rank(gen) == gen.shape[1]:
            assert same_facets(got, gen, tol)

    def test_rank_rule_agrees_on_seeded_cones(self):
        # In general position no subset has rank below d-1 and no tight
        # set lies inside another, so the rule the scan took before facets
        # were maximal tight sets gives the same normals, bit for bit.
        tol = geometry.DEFAULT_FACET_TOL
        cones = [sphere_cone(seed, 3 + seed % 4, 4 + seed % 4 + seed % 6)
                 for seed in range(40)]
        cones += [sphere_cone(seed) for seed in TestIncidenceKey.CLOSE_FACET_SEEDS]
        for gen in cones:
            gen = geometry.PolyhedralCone(gen).generators
            expected = householder_facet_scan(gen, tol, rank_rule=True)
            assert np.array_equal(geometry._facet_scan(gen, tol)[0], expected)

    @pytest.mark.parametrize("d, n", [(3, 1), (4, 2), (6, 4), (2, 1), (4, 3), (6, 5)])
    def test_no_or_one_subset(self, d, n):
        # n < d-1 gives no subset at all; n = d-1 exactly one, whose
        # hyperplane holds every generator.
        gen = np.eye(d)[:n]
        expected = householder_facet_scan(gen, geometry.DEFAULT_FACET_TOL)
        got = geometry._facet_scan(gen, geometry.DEFAULT_FACET_TOL)[0]
        assert got.shape == expected.shape == ((0, d) if n < d - 1 else (1, d))
        assert np.array_equal(got, expected)

    def test_cone_with_line(self):
        gen = np.array([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 1.0, 0.0],
                        [0.0, 0.6, 0.8]])
        expected = householder_facet_scan(gen, geometry.DEFAULT_FACET_TOL)
        got = geometry._facet_scan(gen, geometry.DEFAULT_FACET_TOL)[0]
        assert expected.shape == (2, 3)
        assert np.array_equal(got, expected)

    @pytest.mark.parametrize("chunk", [1, 7])
    def test_chunk_boundaries(self, monkeypatch, chunk, prism_rays):
        rng = np.random.default_rng(11)
        cones = [geometry.PolyhedralCone(prism_rays).generators,
                 random_pointed_cone_generators(rng, 4, 11),
                 random_pointed_cone_generators(rng, 5, 11)]
        expected = [householder_facet_scan(g, geometry.DEFAULT_FACET_TOL) for g in cones]
        monkeypatch.setattr(geometry, "_SCAN_CHUNK", chunk)
        for gen, want in zip(cones, expected):
            # C(7, 3) = 35 subsets fill whole chunks of 7; C(11, 3) = 165
            # and C(11, 4) = 330 leave a partial last chunk.
            got = geometry._facet_scan(gen, geometry.DEFAULT_FACET_TOL)[0]
            assert want.shape[0] > 0
            assert np.array_equal(got, want)


# Signed distances from a facet hyperplane, per unit of row length, at which
# near_facet_cones puts generators: on both sides of tol, and up to 1000
# times beyond it.
NEAR_FACET_OFFSETS = (1e-8, geometry.DEFAULT_FACET_TOL * (1.0 - 1e-3),
                      geometry.DEFAULT_FACET_TOL * (1.0 + 1e-3), 1e-6, 1e-5, 1e-4)


@st.composite
def near_facet_cones(draw) -> np.ndarray:
    """Generator rows of a random pointed cone, d = 3..5, plus one to four
    generators at signed distances +-NEAR_FACET_OFFSETS from one of its facet
    hyperplanes, plus interior rows until the scan has at least 64 subsets;
    all rows unit, or each scaled by 10^U(-3, 3)."""
    d = draw(st.integers(3, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    base = random_pointed_cone_generators(rng, d, draw(st.integers(d + 1, 7)))
    normals = loop_facet_scan(base, geometry.DEFAULT_FACET_TOL)
    f = normals[draw(st.integers(0, normals.shape[0] - 1))]
    on = base[np.abs(base @ f) <= geometry.DEFAULT_FACET_TOL]
    rows = list(base)
    for offset in draw(st.lists(st.sampled_from(NEAR_FACET_OFFSETS), min_size=1, max_size=4)):
        p = rng.uniform(0.1, 1.0, size=on.shape[0]) @ on
        rows.append(p / np.linalg.norm(p) + draw(st.sampled_from([-1.0, 1.0])) * offset * f)
    while math.comb(len(rows), d - 1) < 64:
        rows.append(rng.uniform(0.1, 1.0, size=base.shape[0]) @ base)
    g = np.array(rows)
    g /= np.linalg.norm(g, axis=1)[:, None]
    if draw(st.booleans()):
        g *= 10.0 ** rng.uniform(-3.0, 3.0, size=(g.shape[0], 1))
    return g


class TestScreenedFacetScan:
    """The orientation test and the tight sets alone judge each chunk's
    Householder normals, near a facet hyperplane too."""

    @settings(max_examples=200, deadline=None)
    @given(near_facet_cones())
    def test_near_facet_generators_equal_per_subset_loop(self, gen):
        tol = geometry.DEFAULT_FACET_TOL
        expected = householder_facet_scan(gen, tol)
        got = geometry._facet_scan(gen, tol)[0]
        assert got.shape == expected.shape
        assert np.array_equal(got, expected)
        assert same_facets(got, gen, tol)

    @settings(max_examples=200, deadline=None)
    @given(near_facet_cones())
    def test_near_facet_normals_are_convex_hull_facets(self, gen):
        tol = geometry.DEFAULT_FACET_TOL
        cone = geometry.PolyhedralCone(gen)
        normals = geometry.facet_normals(cone, tol)
        cos = normals @ hull_inward_normals(cone.generators).T
        assert cos.max(axis=1).min() >= 1.0 - 1e-10
        tight = np.abs(cone.generators @ normals.T) <= tol
        assert np.unique(tight, axis=1).shape[1] == normals.shape[0]

    def test_chunks_shrink_with_many_generators(self, monkeypatch, prism_rays):
        # At most linalg._STACK_ENTRIES subset-generator products per chunk: 3
        # subsets of the 7-generator prism cone per chunk here.
        gen = geometry.PolyhedralCone(prism_rays).generators
        expected = householder_facet_scan(gen, geometry.DEFAULT_FACET_TOL)
        received = []
        orthogonal_directions = linalg.orthogonal_directions

        def counted(stack):
            received.append(stack.shape[0])
            return orthogonal_directions(stack)

        monkeypatch.setattr(linalg, "orthogonal_directions", counted)
        monkeypatch.setattr(linalg, "_STACK_ENTRIES", 3 * gen.shape[0] + 1)
        assert np.array_equal(geometry._facet_scan(gen, geometry.DEFAULT_FACET_TOL)[0], expected)
        assert max(received) == 3 and sum(received) == math.comb(7, 3)


class TestFacetSubsetBudget:
    def test_over_budget_raises_before_any_subset(self, monkeypatch):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(60, 9))
        cone = geometry.PolyhedralCone(
            np.column_stack([np.ones(60), x / np.linalg.norm(x, axis=1)[:, None]]))

        def no_subsets(stack):
            raise AssertionError("a subset reached a kernel")

        monkeypatch.setattr(linalg, "orthogonal_directions", no_subsets)
        with pytest.raises(ConvergenceError, match=r"60 generators in R\^10 needs "
                           r"C\(60, 9\) = 14783142660 subsets, over the budget of 1000000"):
            geometry.facet_normals(cone)

    def test_budget_is_inclusive(self, monkeypatch, prism_rays):
        gen = geometry.PolyhedralCone(prism_rays).generators
        count = math.comb(gen.shape[0], gen.shape[1] - 1)
        monkeypatch.setattr(geometry, "FACET_SUBSET_BUDGET", count)
        assert geometry._facet_scan(gen, geometry.DEFAULT_FACET_TOL)[0].shape == (7, 4)
        monkeypatch.setattr(geometry, "FACET_SUBSET_BUDGET", count - 1)
        with pytest.raises(ConvergenceError, match=f"= {count} subsets"):
            geometry._facet_scan(gen, geometry.DEFAULT_FACET_TOL)

    def test_admits_d6_n40(self):
        assert math.comb(40, 5) <= geometry.FACET_SUBSET_BUDGET

    def test_many_generators_in_the_plane_stay_small(self):
        # 10 000 subsets are within the budget; the rank checks around the
        # scan, and the row space is_pointed takes, must not form a
        # 10 000 x 10 000 U (800 MB) either.
        t = np.linspace(0.1, 1.4, 10_000)
        cone = geometry.PolyhedralCone(np.column_stack([np.cos(t), np.sin(t)]))
        assert cone.n_rays == 10_000
        tracemalloc.start()
        try:
            normals = geometry.facet_normals(cone)
            assert geometry.is_pointed(cone)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert normals.shape == (2, 2)
        assert peak < 64 * 2**20

    def test_extreme_rays_of_many_plane_generators_stay_small(self):
        # Each generator's active facets are compared with those of one
        # generator per distinct set, three here: a 10 000 x 10 000
        # containment product alone would take 800 MB.
        t = np.linspace(0.1, 1.4, 10_000)
        gens = np.column_stack([np.cos(t), np.sin(t)])
        tracemalloc.start()
        try:
            rays = geometry.extreme_rays(gens)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(rays.generators, geometry.PolyhedralCone(gens[[0, -1]]).generators)
        assert peak < 64 * 2**20


class TestDualCone:
    def test_orthant_self(self):
        dual = geometry.dual_cone(geometry.PolyhedralCone(np.eye(4)))
        assert geometry.match_generators(np.eye(4), dual.generators, 1e-12) is not None

    def test_square_to_diamond(self):
        square = geometry.cone_over_polytope(data.regular_polygon_vertices(4) @
                                             np.array([[1.0, 1.0], [-1.0, 1.0]]))
        # Vertices (+-1, +-1): lifted cone's dual is the cone over the diamond.
        dual = geometry.dual_cone(square)
        expected = np.array(
            [[1.0, 1.0, 0.0], [1.0, -1.0, 0.0], [1.0, 0.0, 1.0], [1.0, 0.0, -1.0]]
        )
        expected /= np.linalg.norm(expected, axis=1)[:, None]
        assert geometry.match_generators(expected, dual.generators, 1e-10) is not None

    def test_pentagon_self_dual_euclidean(self, pentagon_rays):
        cone = geometry.PolyhedralCone(pentagon_rays)
        dual = geometry.dual_cone(cone)
        assert geometry.match_generators(cone.generators, dual.generators, 1e-10) is not None

    def test_double_dual_round_trip_random(self):
        rng = np.random.default_rng(23)
        for _ in range(25):
            d = int(rng.integers(2, 5))
            n = int(rng.integers(d, 9))
            cone = geometry.extreme_rays(random_pointed_cone_generators(rng, d, n))
            dd = geometry.dual_cone(geometry.dual_cone(cone))
            match = geometry.match_generators(cone.generators, dd.generators, 1e-8)
            assert match is not None


class TestExtremeRays:
    def test_drops_interior_ray(self):
        cone = geometry.extreme_rays([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        assert cone.n_rays == 2

    def test_prism_all_extreme(self, prism_rays):
        cone = geometry.extreme_rays(prism_rays)
        assert cone.n_rays == 7

    def test_hexagon_against_nnls_oracle(self):
        hexagon = geometry.cone_over_polytope(data.regular_polygon_vertices(6))
        reduced = geometry.extreme_rays(hexagon.generators)
        assert reduced.n_rays == 6
        gens = hexagon.generators
        for i in range(6):
            others = np.delete(gens, i, axis=0)
            assert not in_cone_oracle(others, gens[i])

    def test_unpointed_rejected(self):
        with pytest.raises(PreconditionError, match="pointed"):
            geometry.extreme_rays([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]])

    @settings(max_examples=200, deadline=None)
    @given(extremality_generators())
    def test_stacked_ranks_match_loop(self, g):
        tol = geometry.DEFAULT_FACET_TOL
        normals, products = geometry._facet_scan(g, tol)
        extreme, rays, _ = geometry._extreme_mask(products, tol)
        assert np.array_equal(extreme, loop_extreme_mask(g, normals, tol))
        assert np.array_equal(rays, np.flatnonzero(loop_ray_mask(g, normals, tol)))
        assert _outcome(geometry.extreme_rays, g) == _outcome(loop_extreme_rays, g)

    def test_stacked_ranks_match_loop_on_bundled_and_random_cones(self):
        tol = geometry.DEFAULT_FACET_TOL
        cones = [data.pentagon_rays(), data.prism_rays(), np.eye(4)]
        cones += [geometry.cone_over_polytope(v).generators for v in (
            data.regular_polygon_vertices(4), data.regular_polygon_vertices(11),
            data.ten_w_transpose().T)]
        rng = np.random.default_rng(29)
        for _ in range(40):
            d = int(rng.integers(2, 7))
            g = random_pointed_cone_generators(rng, d, int(rng.integers(d, 13)))
            # Sums of generator pairs lie inside the cone or on a face of it.
            pairs = rng.integers(g.shape[0], size=(3, 2))
            cones.append(np.concatenate([g, g[pairs[:, 0]] + g[pairs[:, 1]]]))
        for gens in cones:
            g = geometry.PolyhedralCone(gens).generators
            normals, products = geometry._facets(geometry.PolyhedralCone(g), tol)
            extreme, rays, _ = geometry._extreme_mask(products, tol)
            assert np.array_equal(extreme, loop_extreme_mask(g, normals, tol))
            assert np.array_equal(rays, np.flatnonzero(loop_ray_mask(g, normals, tol)))
            # These cones are generic, so the rank rule agrees.
            assert np.array_equal(extreme, rank_extreme_mask(g, normals, tol))

    @settings(max_examples=300, deadline=None)
    @given(incidences())
    def test_extreme_mask_is_the_containment_of_active_sets(self, products):
        # Extreme: no generator's active set strictly contains its own; a
        # ray: the first generator of each extreme set.  Some set is largest,
        # so some generator is extreme.
        extreme, rays, _ = geometry._extreme_mask(products, 1e-6)
        sets = [set(np.flatnonzero(row)) for row in np.abs(products) <= 1e-6]
        assert extreme.tolist() == [not any(a < b for b in sets) for a in sets]
        first = [i for i, a in enumerate(sets) if a not in sets[:i]]
        assert rays.tolist() == [i for i in first if extreme[i]]
        assert extreme.any()

    @settings(max_examples=500, deadline=None)
    @given(near_facet_cones())
    def test_extreme_rays_are_a_fixed_point(self, gen):
        # Scanned again, the extreme rays are all extreme and span R^d.  A
        # facet is a maximal tight set, so a second normal within tol of a
        # facet, tight on fewer generators, cannot make a true ray look
        # like a face above it.  The one known exception is a ray whose
        # twin lies just beyond tol (twin_outside_rays).
        rays = geometry.extreme_rays(gen).generators
        again = geometry.extreme_rays(rays).generators
        assert linalg.numeric_rank(again) == gen.shape[1]
        assert again.shape[0] == rays.shape[0] or twin_outside_rays(gen)

    def test_near_flat_vertex_kept(self):
        # The vertex (0, 1e-4) sits just off the segment between its
        # neighbours: its two facet normals are 2e-4 rad apart, so their
        # smallest singular value is 1e-4 of the largest, still rank 2.
        square = np.array([[1, -1, 0], [1, 0, 1e-4], [1, 1, 0], [1, 0, -1.0]])
        cone = geometry.extreme_rays(square)
        assert cone.n_rays == 4
        assert np.array_equal(cone.generators, loop_extreme_rays(square).generators)

    def test_one_dimensional(self):
        assert geometry.extreme_rays([[2.0], [3.0]]).n_rays == 1
        with pytest.raises(PreconditionError, match="not pointed"):
            geometry.extreme_rays([[2.0], [-3.0]])
        # At tol 1 the unit generators are tight on the facet {0}: flat.
        with pytest.raises(PreconditionError, match=r"span R\^0, not R\^1: .* flat at tol"):
            geometry.slack_matrix(geometry.PolyhedralCone([[2.0], [3.0]]), 1.0)


class TestSlackMatrix:
    def test_orthant_identity(self):
        sm = geometry.slack_matrix(geometry.PolyhedralCone(np.eye(4)))
        sigma = match_columns_by_pattern(
            support_pattern_of(np.eye(4)), support_pattern_of(sm.matrix)
        )
        assert sigma is not None
        assert equal_up_to_scaling(np.eye(4), sm.matrix[:, sigma], 1e-10)

    def test_pentagon_golden(self, pentagon_rays, pentagon_slack):
        sm = geometry.slack_matrix(geometry.PolyhedralCone(pentagon_rays))
        sigma = match_columns_by_pattern(
            support_pattern_of(pentagon_slack), support_pattern_of(sm.matrix)
        )
        assert sigma is not None
        aligned = sm.matrix[:, sigma]
        assert equal_up_to_scaling(pentagon_slack, aligned, 1e-9, rows=False)

    def test_prism_pattern(self, prism_rays, prism_slack):
        sm = geometry.slack_matrix(geometry.PolyhedralCone(prism_rays))
        sigma = match_columns_by_pattern(
            support_pattern_of(prism_slack), support_pattern_of(sm.matrix)
        )
        assert sigma is not None

    def test_random_cones_produce_valid_slacks(self):
        # The slack's zeros are its cone's incidence at tol, which gives the
        # slack invariants, so it suffices that these calls do not raise and
        # shapes are consistent.
        rng = np.random.default_rng(83)
        for _ in range(20):
            d = int(rng.integers(2, 5))
            n = int(rng.integers(d, 9))
            cone = geometry.extreme_rays(random_pointed_cone_generators(rng, d, n))
            sm = geometry.slack_matrix(cone)
            assert sm.matrix.shape[0] == cone.n_rays
            assert sm.cone_dim == d
            zeros = sm.matrix == 0.0
            assert len({tuple(row) for row in zeros}) == sm.matrix.shape[0]
            # No entry is near tol here, so the zeros are also the
            # complement of support_of.
            assert np.array_equal(zeros, ~patterns.support_of(sm.matrix))

    def test_non_extreme_generator_rejected(self):
        # The midpoint of an edge lies on one facet of a 3-dimensional cone,
        # short of the d - 1 = 2 facets of independent normals every extreme
        # ray lies on.
        square = np.array([[1.0, 1, 1], [1, 1, -1], [1, -1, -1], [1, -1, 1]])
        cone = geometry.PolyhedralCone(np.vstack([square, [1.0, 1, 0]]))
        with pytest.raises(PreconditionError,
                           match=r"1 generator\(s\) are not extreme rays"):
            geometry.slack_matrix(cone)

    def test_invariance_under_isomorphism(self, pentagon_rays):
        rng = np.random.default_rng(29)
        cone = geometry.PolyhedralCone(pentagon_rays)
        base = geometry.slack_matrix(cone).matrix
        for _ in range(10):
            t = rng.normal(size=(3, 3))
            while abs(np.linalg.det(t)) < 0.3:
                t = rng.normal(size=(3, 3))
            mapped = geometry.PolyhedralCone(pentagon_rays @ t.T)
            other = geometry.slack_matrix(mapped).matrix
            sigma = match_columns_by_pattern(
                support_pattern_of(base), support_pattern_of(other)
            )
            assert sigma is not None
            assert equal_up_to_scaling(base, other[:, sigma], 1e-7)


def assert_slack_is_the_incidence(cone: geometry.PolyhedralCone, tol: float) -> None:
    """slack_matrix's zeros are the tight sets at tol of its rays, the first
    generator of each set of tight facets, and its other entries are, bit
    for bit, the scan's stacked products, each above tol (facets from
    facet_normals here); the pattern properties a slack of a cone in R^d
    needs hold; and dual_round_trip's slack is the same products, its
    columns aligned through the round trip's mapping."""
    sm = geometry.slack_matrix(cone, tol)
    products = stacked_products(cone.generators, geometry.facet_normals(cone, tol))
    tight = np.abs(products) <= tol
    rays = np.sort(np.unique(tight, axis=0, return_index=True)[1])
    zeros = sm.matrix == 0.0
    assert np.array_equal(zeros, tight[rays])
    assert np.array_equal(sm.matrix[~zeros], products[rays][~zeros])
    assert (sm.matrix[~zeros] > tol).all()
    assert (zeros.sum(axis=1) >= cone.dim - 1).all()
    assert np.unique(zeros, axis=0).shape[0] == zeros.shape[0]
    assert (~zeros).any(axis=1).all() and (~zeros).any(axis=0).all()
    trip = geometry.dual_round_trip(cone, tol)
    if trip.mapping is not None:
        products = products[:, np.argsort(trip.mapping)]
    assert np.array_equal(trip.slack, products)


class TestSlackZerosAreTheIncidence:
    @settings(max_examples=100, deadline=None)
    @given(near_facet_cones())
    def test_near_facet_cones(self, gen):
        tol = geometry.DEFAULT_FACET_TOL
        try:
            assert_slack_is_the_incidence(geometry.extreme_rays(gen, tol), tol)
        except PreconditionError:
            # Extreme rays with a twin just beyond tol, scanned again, are
            # not all extreme; such a cone gives no slack.
            assert twin_outside_rays(gen, tol)
            reject()

    @pytest.mark.parametrize("tol", [geometry.DEFAULT_FACET_TOL, 1e-4])
    def test_sphere_cones(self, tol):
        for seed in range(40):
            d = 3 + seed % 4
            assert_slack_is_the_incidence(
                geometry.PolyhedralCone(sphere_cone(seed, d, d + 1 + seed % 6)), tol)

    def test_self_dual_factor_cones(self, pentagon_slack, prism_slack):
        # The round trip matches these cones' facets to their generators.
        tol = geometry.DEFAULT_FACET_TOL
        for m, d in ((pentagon_slack, 3), (prism_slack, 4)):
            cone = geometry.cone_from_factorization(m, d)
            assert geometry.dual_round_trip(cone, tol).mapping is not None
            assert_slack_is_the_incidence(cone, tol)

    def test_cone_flat_at_tol_is_refused(self):
        # A wedge 0.02 thick: at tol 0.05 one hyperplane is tight at every
        # generator, so its tight set holds every other and is the one
        # maximal set, and the facet normals span R^1.
        t = 0.8
        wedge = [[1, 0, 0.01], [1, 0, -0.01],
                 [np.cos(t), np.sin(t), 0.01], [np.cos(t), np.sin(t), -0.01]]
        cone = geometry.PolyhedralCone(wedge)
        assert_slack_is_the_incidence(cone, geometry.DEFAULT_FACET_TOL)
        message = ("facet normals at tol 0.05 span R^1, not R^3: the cone is not "
                   "pointed or is flat at tol, or tol is below the rounding of its "
                   "products")
        for fn in (geometry.slack_matrix, geometry.facet_normals):
            with pytest.raises(PreconditionError, match=f"^{re.escape(message)}$"):
                fn(cone, 0.05)
        assert not geometry.is_pointed(cone, 0.05)

    def test_generator_the_scan_puts_at_minus_tol_is_tight(self):
        # Found by a seeded search over lattice cones (1, a, b), |a|, |b| <=
        # 2, moved by noise of standard deviation 1e-4: generator 2 sits
        # 9.09e-5 outside facet 1, and tol is the scan's product there, so
        # the scan keeps the facet with generator 2 tight on it.  The slack
        # reads the same product, so generator 2 is active on facet 1 alone,
        # a set inside generator 0's: it is not an extreme ray.  One matrix
        # product gens @ normals.T may round that entry below -tol.
        cone = geometry.PolyhedralCone([
            [1.0001392138400544, -2.000008099695141, 1.9999358042275304],
            [0.9999091661881716, -1.0000384430474207, 1.999977692053157],
            [0.9998955489034389, -2.0000919795093823, 0.9999812824994938],
            [0.9999479216252204, 2.0000939213103677, -1.9998862129625754],
            [1.00000160212036, -1.9999526400427945, -1.0001335188373626],
        ])
        tol = 9.091377275153103e-05
        normals = geometry.facet_normals(cone, tol)
        assert stacked_products(cone.generators, normals)[2, 1] == -tol
        with pytest.raises(PreconditionError,
                           match=r"^1 generator\(s\) are not extreme rays$"):
            geometry.slack_matrix(cone, tol)


class TestZeroRule:
    """The zeros and negative entries of a matrix handed in follow
    patterns.slack_support, relative to the largest entry, not an absolute
    threshold."""

    @staticmethod
    def half_pentagon(entry: float) -> np.ndarray:
        # Largest entry 0.5, so support_of's threshold is 5e-11; d = 3 needs
        # two zeros per row, and (0, 2) is one of row 0's two.
        m = data.pentagon_slack()
        m = 0.5 * m / m.max()
        m[0, 2] = entry
        return m

    def test_small_entry_above_the_relative_threshold_is_not_zero(self):
        ok, reasons = geometry.slack_necessary_check(self.half_pentagon(7e-11), 3)
        assert not ok
        assert "row 0 has only 1 zeros, need at least 2" in reasons

    def test_small_negative_entry_above_the_relative_threshold_raises(self):
        with pytest.raises(PreconditionError, match="must be entrywise nonnegative"):
            geometry.slack_necessary_check(self.half_pentagon(-7e-11), 3)


class TestSlackNecessaryCheck:
    def test_nonslack_extreme_rejected(self, nonslack_extreme):
        ok, reasons = geometry.slack_necessary_check(nonslack_extreme, 4)
        assert not ok
        assert any("only 2 zeros" in r for r in reasons)

    def test_prism_accepted(self, prism_slack):
        ok, reasons = geometry.slack_necessary_check(prism_slack, 4)
        assert ok and reasons == []

    def test_identity_accepted(self):
        ok, _ = geometry.slack_necessary_check(np.eye(4), 4)
        assert ok

    def test_zero_row_and_duplicates(self):
        m = np.array([[1.0, 0.0], [0.0, 0.0]])
        ok, reasons = geometry.slack_necessary_check(m, 1)
        assert not ok
        assert any("zero row" in r for r in reasons)
        dup = np.array([[1.0, 0.0], [2.0, 0.0]])
        ok, reasons = geometry.slack_necessary_check(dup, 1)
        assert not ok
        assert any("same zero pattern" in r for r in reasons)

    def test_repeated_patterns_name_each_row_against_the_first(self):
        # Rows 0, 2 and 4 share one zero pattern, rows 1 and 3 another.
        m = np.array([
            [1.0, 0.0, 2.0],
            [0.0, 1.0, 1.0],
            [3.0, 0.0, 1.0],
            [0.0, 2.0, 5.0],
            [1.0, 0.0, 1.0],
        ])
        assert geometry.slack_pattern_reasons(m) == [
            "rows 0 and 2 share the same zero pattern",
            "rows 1 and 3 share the same zero pattern",
            "rows 0 and 4 share the same zero pattern",
        ]


class TestConeOverPolytope:
    def test_triangle(self):
        tri = np.array([[1.0, 0.0], [-0.5, math.sqrt(3) / 2], [-0.5, -math.sqrt(3) / 2]])
        cone = geometry.cone_over_polytope(tri)
        assert cone.dim == 3 and cone.n_rays == 3

    def test_square(self):
        cone = geometry.cone_over_polytope(
            np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]])
        )
        assert cone.dim == 3 and cone.n_rays == 4

    def test_prism_vertices_reproduce_prism_cone(self, prism_rays, prism_slack):
        vertices = prism_rays[:, 1:]
        cone = geometry.cone_over_polytope(vertices)
        sm = geometry.slack_matrix(cone)
        sigma = match_columns_by_pattern(
            support_pattern_of(prism_slack), support_pattern_of(sm.matrix)
        )
        assert sigma is not None

    def test_origin_not_interior_rejected(self):
        shifted = np.array([[2.0, 2.0], [2.0, 3.0], [3.0, 2.0], [3.0, 3.0]])
        with pytest.raises(PreconditionError, match="interior"):
            geometry.cone_over_polytope(shifted)


class TestConeFromFactorization:
    def test_identity_orthant(self):
        cone = geometry.cone_from_factorization(np.eye(4), 4)
        sm = geometry.slack_matrix(cone)
        sigma = match_columns_by_pattern(
            support_pattern_of(np.eye(4)), support_pattern_of(sm.matrix)
        )
        assert sigma is not None

    def test_pentagon_round_trip(self, pentagon_slack):
        cone = geometry.cone_from_factorization(pentagon_slack, 3)
        sm = geometry.slack_matrix(cone)
        sigma = match_columns_by_pattern(
            support_pattern_of(pentagon_slack), support_pattern_of(sm.matrix)
        )
        assert sigma is not None
        assert equal_up_to_scaling(pentagon_slack, sm.matrix[:, sigma], 1e-7)

    def test_prism_self_dual(self, prism_slack):
        cone = geometry.cone_from_factorization(prism_slack, 4)
        assert cone.n_rays == 7
        dual = geometry.dual_cone(cone)
        assert geometry.match_generators(cone.generators, dual.generators, 1e-8) is not None

    def test_wrong_rank_rejected(self, pentagon_slack):
        with pytest.raises(PreconditionError, match="rank"):
            geometry.cone_from_factorization(pentagon_slack, 2)


class TestDualRoundTrip:
    def test_self_dual_cone_aligns_columns(self, pentagon_slack):
        cone = geometry.cone_from_factorization(pentagon_slack, 3)
        trip = geometry.dual_round_trip(cone, geometry.DEFAULT_FACET_TOL)
        assert trip.mapping is not None and trip.worst_cosine >= 1.0 - 1e-7
        # Column i belongs to the facet matched to generator i, so the
        # aligned slack is symmetric, as the pentagon slack is.
        assert np.abs(trip.slack - trip.slack.T).max() <= 1e-9
        assert np.array_equal(
            support_pattern_of(trip.slack), support_pattern_of(pentagon_slack)
        )

    def test_square_cone_has_no_match(self):
        square = geometry.cone_over_polytope(
            np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]])
        )
        trip = geometry.dual_round_trip(square, geometry.DEFAULT_FACET_TOL)
        assert trip.mapping is None
        assert abs(trip.worst_cosine - np.sqrt(2.0 / 3.0)) <= 1e-12
        assert trip.slack.shape == (4, 4) and trip.slack.min() >= -1e-12
        # Rows of another length match nothing either.
        assert geometry.match_generators(np.eye(3), np.eye(4)[:3], 1e-7) is None


# Every public function that needs a cone's facets, on the prism.
FACET_SCAN_CALLS = {
    "facet_normals": lambda c: geometry.facet_normals(c),
    "dual_cone": lambda c: geometry.dual_cone(c),
    "extreme_rays": lambda c: geometry.extreme_rays(c.generators),
    "slack_matrix": lambda c: geometry.slack_matrix(c),
    "cone_over_polytope": lambda c: geometry.cone_over_polytope(c.generators[:, 1:]
                                                                / c.generators[:, :1]),
    "is_pointed": lambda c: geometry.is_pointed(c),
    "dual_round_trip": lambda c: geometry.dual_round_trip(c, geometry.DEFAULT_FACET_TOL),
}


class TestOneScanPerCall:
    @pytest.mark.parametrize("name", sorted(FACET_SCAN_CALLS))
    def test_one_facet_scan(self, prism_rays, monkeypatch, name):
        cone = geometry.PolyhedralCone(prism_rays)
        scans = []
        scan = geometry._facet_scan

        def counted(*args):
            scans.append(1)
            return scan(*args)

        monkeypatch.setattr(geometry, "_facet_scan", counted)
        FACET_SCAN_CALLS[name](cone)
        assert len(scans) == 1


class TestFileFormats:
    def test_cone_round_trip(self, tmp_path, prism_rays):
        path = tmp_path / "c.cone"
        geometry.save_cone(path, prism_rays)
        cone = geometry.load_cone(path)
        normalized = prism_rays / np.linalg.norm(prism_rays, axis=1)[:, None]
        assert np.abs(cone.generators - normalized).max() <= 1e-15

    def test_matrix_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(31)
        m = rng.normal(size=(4, 6)) * 1e3
        path = tmp_path / "m.mat"
        geometry.save_matrix(path, m)
        back = geometry.load_matrix(path)
        assert np.array_equal(back, m)

    def test_parse_errors(self, tmp_path):
        bad = tmp_path / "bad.mat"
        bad.write_text("2 2\n1 2\n3\n")
        with pytest.raises(ParseError):
            geometry.load_matrix(bad)
        empty = tmp_path / "empty.mat"
        empty.write_text("\n")
        with pytest.raises(ParseError):
            geometry.load_matrix(empty)
        nohead = tmp_path / "nohead.cone"
        nohead.write_text("x y\n")
        with pytest.raises(ParseError):
            geometry.load_cone(nohead)

    def test_support_io_lives_in_geometry(self):
        # search and the package re-export the one support reader and writer.
        assert search.load_support is sdcones.load_support is geometry.load_support
        assert search.save_support is sdcones.save_support is geometry.save_support
