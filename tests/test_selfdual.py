from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdcones import data, geometry, linalg, selfdual
from sdcones.errors import PreconditionError

from conftest import dfs_solve_scaling


def rescaled(m, scales):
    return m * np.asarray(scales, dtype=float)[None, :]


class TestFindPsdScaling:
    def test_pentagon_identity_certificate(self, pentagon_slack):
        cert = selfdual.find_psd_scaling(pentagon_slack)
        assert cert is not None
        assert np.array_equal(cert.permutation, np.arange(5))
        assert np.abs(cert.scaling - 1.0).max() <= 1e-12
        assert np.abs(cert.psd_matrix - pentagon_slack).max() <= 1e-12

    def test_column_scaled_pentagon_recovers_scaling(self, pentagon_slack):
        scales = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        cert = selfdual.find_psd_scaling(rescaled(pentagon_slack, scales))
        assert cert is not None
        # The recovered scaling is proportional to the inverse scales.
        product = cert.scaling * scales
        assert np.abs(product - product[0]).max() <= 1e-9 * product[0]

    def test_square_cone_slack_absent(self):
        square = geometry.cone_over_polytope(
            np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]])
        )
        slack = geometry.slack_matrix(square)
        assert selfdual.find_psd_scaling(slack.matrix) is None

    def test_certificate_invariants(self, prism_slack):
        scales = np.array([1.0, 0.5, 2.0, 1.5, 3.0, 0.25, 1.0])
        perm = np.array([2, 0, 1, 4, 3, 6, 5])
        scrambled = rescaled(prism_slack[perm], scales)
        cert = selfdual.find_psd_scaling(scrambled)
        assert cert is not None
        recon = scrambled[cert.permutation] * cert.scaling[None, :]
        assert np.abs(recon - cert.psd_matrix).max() <= 1e-10 * np.abs(recon).max()
        eig = linalg.sym_eigen(cert.psd_matrix)
        assert eig.values[-1] >= -1e-9 * np.abs(cert.psd_matrix).max()
        assert abs(eig.values[-1] - cert.min_eigenvalue) <= 1e-10
        # Gauge: diagonal maximum matches the input's diagonal maximum.
        assert abs(np.diag(cert.psd_matrix).max() - np.diag(scrambled).max()) <= 1e-9

    def test_malformed_slack_rejected(self):
        with pytest.raises(PreconditionError):
            selfdual.find_psd_scaling(np.array([[1.0, 0.0], [-1.0, 1.0]]))
        with pytest.raises(PreconditionError, match="zero column"):
            selfdual.find_psd_scaling(np.array([[1.0, 0.0], [2.0, 0.0]]))

    def test_non_square_absent(self):
        slack = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]])
        assert selfdual.find_psd_scaling(slack) is None


@st.composite
def scaling_systems(draw):
    """Positive matrices with a symmetric support on 1-9 vertices, sparse
    (often disconnected) or dense: consistent ones S diag(1/d) with S
    symmetric, the same with one off-diagonal entry off by 1e-3, and ones
    with independent entries.  Values span six orders of magnitude."""
    n = draw(st.integers(1, 9))
    density = draw(st.sampled_from([0.1, 0.3, 0.6, 1.0]))
    kind = draw(st.sampled_from(["consistent", "one_off", "independent"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    upper = np.triu(rng.uniform(size=(n, n)) < density, k=1)
    mask = upper | upper.T | np.eye(n, dtype=bool)
    values = 10.0 ** rng.uniform(-3.0, 3.0, size=(n, n))
    if kind == "independent":
        return np.where(mask, values, 0.0)
    sym = np.triu(values) + np.triu(values, k=1).T
    n_mat = np.where(mask, sym, 0.0) / (10.0 ** rng.uniform(-3.0, 3.0, size=n))
    edges = np.argwhere(upper)
    if kind == "one_off" and len(edges):
        i, j = edges[rng.integers(len(edges))]
        n_mat[i, j] *= 1.0 + 1e-3
    return n_mat


class TestSolveScaling:
    @settings(max_examples=300, deadline=None)
    @given(scaling_systems())
    def test_matches_depth_first_oracle(self, n_mat):
        d = selfdual._solve_scaling(n_mat)
        expected = dfs_solve_scaling(n_mat)
        assert (d is None) is (expected is None)
        if d is not None:
            assert np.all(d > 0.0)
            assert np.all(np.abs(d - expected) <= 1e-12 * expected)

    def test_inconsistent_cycle_refused(self):
        triangle = np.ones((3, 3))
        assert selfdual._solve_scaling(triangle) is not None
        triangle[0, 1] = 1.001
        assert selfdual._solve_scaling(triangle) is None


class TestIsSelfDual:
    def test_orthants(self):
        for n in range(1, 7):
            ok, cert = selfdual.is_self_dual(geometry.PolyhedralCone(np.eye(n)))
            assert ok and cert is not None

    def test_pentagon_and_prism(self, pentagon_rays, prism_rays):
        ok, cert = selfdual.is_self_dual(geometry.PolyhedralCone(pentagon_rays))
        assert ok
        ok, cert = selfdual.is_self_dual(geometry.PolyhedralCone(prism_rays))
        assert ok

    def test_square_cone_false(self):
        square = geometry.cone_over_polytope(
            np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]])
        )
        ok, cert = selfdual.is_self_dual(square)
        assert not ok and cert is None

    def test_redundant_generator_rejected(self, pentagon_rays):
        # pentagon x R+ x R+ is self-dual.  e4 + e5 lies in the relative
        # interior of its face cone(e4, e5), so with it listed the generators
        # give 8 rows for 7 facets: not a slack matrix, and no reason to
        # answer "not self-dual".
        gens = np.zeros((7, 5))
        gens[:5, :3] = pentagon_rays
        gens[5:, 3:] = np.eye(2)
        ok, cert = selfdual.is_self_dual(geometry.PolyhedralCone(gens))
        assert ok and cert is not None
        redundant = geometry.PolyhedralCone(np.vstack([gens, [0, 0, 0, 1, 1]]))
        with pytest.raises(PreconditionError,
                           match=r"^1 generator\(s\) are not extreme rays$"):
            selfdual.is_self_dual(redundant)

    def test_isomorphism_invariance(self, pentagon_rays):
        rng = np.random.default_rng(37)
        square = geometry.cone_over_polytope(
            np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]])
        )
        for cone, expected in ((geometry.PolyhedralCone(pentagon_rays), True),
                               (square, False)):
            d = cone.dim
            for _ in range(10):
                t = rng.normal(size=(d, d))
                while abs(np.linalg.det(t)) < 0.3:
                    t = rng.normal(size=(d, d))
                mapped = geometry.PolyhedralCone(cone.generators @ t.T)
                assert selfdual.is_self_dual(mapped)[0] is expected

    def test_certificate_factorization_closes_loop(self, pentagon_rays, prism_rays):
        # The certificate's PSD matrix generates a Euclidean self-dual cone.
        for rays in (pentagon_rays, prism_rays):
            cone = geometry.PolyhedralCone(rays)
            ok, cert = selfdual.is_self_dual(cone)
            assert ok
            rebuilt = geometry.cone_from_factorization(cert.psd_matrix, cone.dim)
            dual = geometry.dual_cone(rebuilt)
            assert geometry.match_generators(
                rebuilt.generators, dual.generators, 1e-8
            ) is not None

    def test_odd_ray_law_random_polygons(self):
        rng = np.random.default_rng(41)
        for k in range(4, 11):
            for _ in range(8):
                angles = np.sort(rng.uniform(0, 2 * np.pi, size=k))
                if np.diff(angles, append=angles[0] + 2 * np.pi).max() >= np.pi * 0.95:
                    continue  # origin too close to the boundary; resample shape
                radii = rng.uniform(0.5, 1.5, size=k)
                vertices = np.column_stack(
                    [radii * np.cos(angles), radii * np.sin(angles)]
                )
                try:
                    cone = geometry.cone_over_polytope(vertices)
                    cone = geometry.extreme_rays(cone.generators)
                except PreconditionError:
                    continue
                if cone.n_rays % 2 == 0:
                    assert not selfdual.is_self_dual(cone)[0]

    @pytest.mark.parametrize("k", [21, 30, 31])
    def test_large_regular_polygons(self, k):
        # Regular k-gon cones are self-dual exactly for odd k.
        cone = geometry.cone_over_polytope(data.regular_polygon_vertices(k))
        ok, cert = selfdual.is_self_dual(cone)
        assert ok == (k % 2 == 1)
        if ok:
            scale = np.abs(cert.psd_matrix).max()
            assert cert.min_eigenvalue >= -selfdual.PSD_EIG_TOL * scale


class TestIrreducible:
    def test_pentagon_cycle_connected(self, pentagon_slack):
        assert selfdual.is_irreducible(pentagon_slack)

    def test_identity_disconnected(self):
        for n in (2, 4, 6):
            assert not selfdual.is_irreducible(np.eye(n))
        assert selfdual.is_irreducible(np.eye(1))

    def test_block_diagonal(self, pentagon_slack):
        block = np.zeros((6, 6))
        block[:5, :5] = pentagon_slack
        block[5, 5] = 1.0
        assert not selfdual.is_irreducible(block)


class TestSimplicial:
    def test_orthant(self):
        assert selfdual.is_simplicial(geometry.PolyhedralCone(np.eye(5)))
        assert selfdual.is_simplicial(np.eye(4))

    def test_pentagon_not(self, pentagon_rays, pentagon_slack):
        assert not selfdual.is_simplicial(geometry.PolyhedralCone(pentagon_rays))
        assert not selfdual.is_simplicial(pentagon_slack)

    def test_prism_not(self, prism_rays):
        assert not selfdual.is_simplicial(geometry.PolyhedralCone(prism_rays))

    def test_permuted_diagonal(self):
        m = np.zeros((3, 3))
        m[0, 2] = 1.0
        m[1, 0] = 2.0
        m[2, 1] = 3.0
        assert selfdual.is_simplicial(m)


class TestCertifyPsdSlack:
    def test_prism_scans_facets_once(self, prism_slack, monkeypatch):
        scans = []
        scan = geometry._facet_scan

        def counted(*args):
            scans.append(1)
            return scan(*args)

        monkeypatch.setattr(geometry, "_facet_scan", counted)
        ok, detail = selfdual.certify_psd_slack(prism_slack, 4)
        assert ok, detail
        assert len(scans) == 1

    def test_nonslack_reasons(self, nonslack_extreme):
        ok, detail = selfdual.certify_psd_slack(nonslack_extreme, 4)
        assert not ok and "only 2 zeros" in detail
