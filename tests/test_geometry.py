from __future__ import annotations

import ast
import inspect
import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import nnls

from sdcones import data, geometry, linalg
from sdcones.errors import ParseError, PreconditionError

from conftest import (
    eigen_is_pointed,
    eigen_row_space_basis,
    equal_up_to_scaling,
    loop_extreme_mask,
    loop_extreme_rays,
    match_columns_by_pattern,
    random_orthogonal,
    random_pointed_cone_generators,
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


def loop_facet_scan(gen: np.ndarray, tol: float) -> np.ndarray:
    """The per-subset facet scan the stacked one replaced: one null_space
    call, orientation test and merge per (d-1)-subset, in lexicographic
    order.  The stacked scan must reproduce it bit for bit."""
    n, d = gen.shape
    if d == 1:
        col = gen[:, 0]
        if col.min() > 0.0:
            return np.array([[1.0]])
        if col.max() < 0.0:
            return np.array([[-1.0]])
        return np.zeros((0, 1))
    found: list[np.ndarray] = []
    for combo in itertools.combinations(range(n), d - 1):
        basis = linalg.null_space(gen[list(combo)])
        if basis.shape[1] != 1:
            continue
        v = basis[:, 0]
        prods = gen @ v
        if prods.min() >= -tol:
            pass
        elif prods.max() <= tol:
            v = -v
        else:
            continue
        if not geometry._contains_direction(found, v):
            found.append(v)
    if not found:
        return np.zeros((0, d))
    return np.vstack(found)


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
    normals = geometry._facet_scan(base, geometry.DEFAULT_FACET_TOL)
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
    def test_normalizes_and_dedups(self):
        cone = geometry.PolyhedralCone([[2.0, 0.0], [4.0, 0.0], [0.0, 3.0]])
        assert cone.n_rays == 2
        norms = np.linalg.norm(cone.generators, axis=1)
        assert np.abs(norms - 1.0).max() <= 1e-9

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
    assert users == ["facet_normals"]


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


class TestStackedFacetScan:
    @settings(max_examples=300, deadline=None)
    @given(scan_generators())
    def test_equals_per_subset_loop(self, gen):
        tol = geometry.DEFAULT_FACET_TOL
        expected = loop_facet_scan(gen, tol)
        got = geometry._facet_scan(gen, tol)
        assert got.shape == expected.shape
        assert np.array_equal(got, expected)

    @pytest.mark.parametrize("d, n", [(3, 1), (4, 2), (6, 4), (2, 1), (4, 3), (6, 5)])
    def test_no_or_one_subset(self, d, n):
        # n < d-1 gives no subset at all; n = d-1 exactly one, whose
        # hyperplane holds every generator.
        gen = np.eye(d)[:n]
        expected = loop_facet_scan(gen, geometry.DEFAULT_FACET_TOL)
        got = geometry._facet_scan(gen, geometry.DEFAULT_FACET_TOL)
        assert got.shape == expected.shape == ((0, d) if n < d - 1 else (1, d))
        assert np.array_equal(got, expected)

    def test_cone_with_line(self):
        gen = np.array([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 1.0, 0.0],
                        [0.0, 0.6, 0.8]])
        expected = loop_facet_scan(gen, geometry.DEFAULT_FACET_TOL)
        got = geometry._facet_scan(gen, geometry.DEFAULT_FACET_TOL)
        assert expected.shape == (2, 3)
        assert np.array_equal(got, expected)

    @pytest.mark.parametrize("chunk", [1, 7])
    def test_chunk_boundaries(self, monkeypatch, chunk, prism_rays):
        rng = np.random.default_rng(11)
        cones = [geometry.PolyhedralCone(prism_rays).generators,
                 random_pointed_cone_generators(rng, 4, 11),
                 random_pointed_cone_generators(rng, 5, 11)]
        expected = [loop_facet_scan(g, geometry.DEFAULT_FACET_TOL) for g in cones]
        monkeypatch.setattr(geometry, "_SCAN_CHUNK", chunk)
        for gen, want in zip(cones, expected):
            # C(7, 3) = 35 subsets fill whole chunks of 7; C(11, 3) = 165
            # and C(11, 4) = 330 leave a partial last chunk.
            got = geometry._facet_scan(gen, geometry.DEFAULT_FACET_TOL)
            assert want.shape[0] > 0
            assert np.array_equal(got, want)


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
        normals = geometry._facet_scan(g, tol)
        assert np.array_equal(geometry._extreme_mask(g, normals, tol),
                              loop_extreme_mask(g, normals, tol))
        assert _outcome(geometry.extreme_rays, g) == _outcome(loop_extreme_rays, g)

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
        # Construction-time validation enforces the slack invariants, so it
        # suffices that these calls do not raise and shapes are consistent.
        rng = np.random.default_rng(83)
        for _ in range(20):
            d = int(rng.integers(2, 5))
            n = int(rng.integers(d, 9))
            cone = geometry.extreme_rays(random_pointed_cone_generators(rng, d, n))
            sm = geometry.slack_matrix(cone)
            assert sm.matrix.shape[0] == cone.n_rays
            assert sm.cone_dim == d
            patterns = {tuple(row) for row in (sm.matrix != 0.0)}
            assert len(patterns) == sm.matrix.shape[0]

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
        trip = geometry.dual_round_trip(cone, geometry.DEFAULT_FACET_TOL, 1e-7)
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
        trip = geometry.dual_round_trip(square, geometry.DEFAULT_FACET_TOL, 1e-7)
        assert trip.mapping is None
        assert abs(trip.worst_cosine - np.sqrt(2.0 / 3.0)) <= 1e-12
        assert trip.slack.shape == (4, 4) and trip.slack.min() >= -1e-12


# Every public function that needs a cone's facets, on the prism.
FACET_SCAN_CALLS = {
    "facet_normals": lambda c: geometry.facet_normals(c),
    "dual_cone": lambda c: geometry.dual_cone(c),
    "extreme_rays": lambda c: geometry.extreme_rays(c.generators),
    "slack_matrix": lambda c: geometry.slack_matrix(c),
    "cone_over_polytope": lambda c: geometry.cone_over_polytope(c.generators[:, 1:]
                                                                / c.generators[:, :1]),
    "is_pointed": lambda c: geometry.is_pointed(c),
    "dual_round_trip": lambda c: geometry.dual_round_trip(
        c, geometry.DEFAULT_FACET_TOL, 1e-7),
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
