from __future__ import annotations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sdcones import analysis, data, geometry, linalg, patterns, selfdual
from sdcones.errors import PreconditionError

from conftest import dfs_solve_scaling, split_hexagon_rays


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


def relative_asymmetry(n_mat, d):
    scaled = n_mat * d[None, :]
    return np.abs(scaled - scaled.T).max() / np.abs(scaled).max()


class TestSolveScaling:
    @settings(max_examples=300, deadline=None)
    @given(scaling_systems())
    def test_solves_wherever_the_depth_first_oracle_does(self, n_mat):
        # find_psd_scaling only hands on symmetric masks.
        mask = patterns.support_of(n_mat)
        assume(np.array_equal(mask, mask.T))
        d = selfdual._solve_scaling(n_mat, mask)
        if d is not None:
            assert np.all(d > 0.0)
            assert relative_asymmetry(n_mat, d) <= selfdual.SCALED_SYMMETRY_TOL
        expected = dfs_solve_scaling(n_mat)
        if expected is not None and (
            relative_asymmetry(n_mat, expected) <= selfdual.SCALED_SYMMETRY_TOL
        ):
            assert d is not None

    def test_inconsistent_cycle_refused(self):
        triangle = np.ones((3, 3))
        mask = np.ones((3, 3), dtype=bool)
        assert selfdual._solve_scaling(triangle, mask) is not None
        for off in (1.001, 1.0 + 1e-6):
            triangle[0, 1] = off
            assert selfdual._solve_scaling(triangle, mask) is None


# The structural entries of the regular 11-gon's slack whose scaling by
# 1 + 1e-6 leaves the slack certifiable: the 11 that the involution puts on
# the diagonal.  The other 87 off-diagonal structural entries break it.
KGON11_PERTURBABLE = {(0, 6), (1, 7), (2, 8), (3, 9), (4, 10), (5, 1),
                      (6, 0), (7, 2), (8, 3), (9, 4), (10, 5)}


class TestIsSelfDual:
    def test_one_entry_perturbed_in_the_11gon_slack(self):
        cone = geometry.cone_over_polytope(data.regular_polygon_vertices(11))
        slack = geometry.slack_matrix(cone).matrix
        entries = np.argwhere(patterns.support_of(slack) & ~np.eye(11, dtype=bool))
        assert len(entries) == 98
        certified = set()
        for i, j in entries:
            bumped = slack.copy()
            bumped[i, j] *= 1.0 + 1e-6
            if selfdual.find_psd_scaling(bumped) is not None:
                certified.add((int(i), int(j)))
        assert certified == KGON11_PERTURBABLE

    def test_one_support_mask_per_call(self, monkeypatch):
        # slack_matrix takes its zeros from the cone's incidence at tol, and
        # the scaling search reads them off the SlackMatrix: no support_of.
        cone = geometry.cone_over_polytope(data.regular_polygon_vertices(11))
        calls = []
        support_of = patterns.support_of

        def counted(a):
            calls.append(np.shape(a))
            return support_of(a)

        for module in (selfdual, patterns):
            monkeypatch.setattr(module, "support_of", counted)
        ok, _ = selfdual.is_self_dual(cone)
        assert ok
        assert calls == []

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

    def test_split_hexagon_not_self_dual(self):
        # Two of its rays lie 4e-5 rad apart; merged into one, they gave the
        # self-dual pentagon cone.
        ok, cert = selfdual.is_self_dual(geometry.PolyhedralCone(split_hexagon_rays()))
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
            assert cert.min_eigenvalue >= -linalg.PSD_TOL * scale


def relabelled_cones():
    """(id, generators, self-dual) for the generator-order test: regular
    k-gon cones, the bundled cones, orthants and pentagon + pentagon."""
    pentagon = data.pentagon_rays()
    cases = [(f"gon{k}", geometry.cone_over_polytope(
        data.regular_polygon_vertices(k)).generators, k % 2 == 1) for k in range(3, 18)]
    cases += [("pentagon", pentagon, True), ("prism", data.prism_rays(), True)]
    cases += [(f"orthant{n}", np.eye(n), True) for n in range(2, 7)]
    twice = np.zeros((10, 6))
    twice[:5, :3] = twice[5:, 3:] = pentagon
    return cases + [("pentagon+pentagon", twice, True)]


@pytest.mark.parametrize("gens, expected", [
    pytest.param(gens, expected, id=name) for name, gens, expected in relabelled_cones()])
def test_verdict_does_not_depend_on_generator_order(gens, expected):
    # The involution search's order is its own, so a relabelling may change
    # which permutation certifies, but never the verdict or the certificate's
    # validity.
    for seed in range(5):
        cone = geometry.PolyhedralCone(gens[np.random.default_rng(seed).permutation(len(gens))])
        ok, cert = selfdual.is_self_dual(cone)
        assert ok is expected
        if ok:
            slack = geometry.slack_matrix(cone).matrix
            scaled = slack[cert.permutation] * cert.scaling[None, :]
            scale = np.abs(scaled).max()
            assert np.abs(scaled - scaled.T).max() <= selfdual.SCALED_SYMMETRY_TOL * scale
            assert linalg.sym_eigen(0.5 * (scaled + scaled.T)).is_psd(scale)


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

    def test_repeated_ray_counts_once(self):
        # The constructor keeps both copies of a ray; they are one ray.
        assert selfdual.is_simplicial(geometry.PolyhedralCone([[2, 0], [4, 0], [0, 3]]))
        orthant = np.vstack([np.eye(3), 2.5 * np.eye(3)[1]])
        assert selfdual.is_simplicial(geometry.PolyhedralCone(orthant))

    def test_not_spanning_or_not_pointed(self):
        assert not selfdual.is_simplicial(geometry.PolyhedralCone([[1, 0, 0], [0, 1, 0]]))
        assert not selfdual.is_simplicial(geometry.PolyhedralCone([[1, 0], [-1, 0], [0, 1]]))

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

    def test_nested_list_same_as_array(self, pentagon_slack):
        as_list = selfdual.certify_psd_slack(pentagon_slack.tolist(), 3)
        assert as_list == selfdual.certify_psd_slack(pentagon_slack, 3)
        assert as_list[0], as_list[1]

    def test_nonslack_reasons(self, nonslack_extreme):
        ok, detail = selfdual.certify_psd_slack(nonslack_extreme, 4)
        assert not ok and "only 2 zeros" in detail

    def test_not_psd_comes_before_pattern_reasons(self, nonslack_extreme):
        m = nonslack_extreme - 1e-3 * nonslack_extreme.max() * np.eye(len(nonslack_extreme))
        assert selfdual.certify_psd_slack(m, 4) == (False, "matrix is not PSD")

    def test_negative_entry_is_a_verdict(self, pentagon_slack):
        m = pentagon_slack.copy()
        m[0, 2] = m[2, 0] = -0.1
        ok, detail = selfdual.certify_psd_slack(m, 3)
        assert not ok and "nonnegative" in detail


class TestCertifierNo:
    """Each way the certifier refuses a candidate, on an input that takes it."""

    def test_round_trip_that_raises_is_a_failed_report(self):
        cone = geometry.PolyhedralCone([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        report = selfdual.certify_slack(cone, np.eye(2, dtype=bool),
                                        geometry.DEFAULT_FACET_TOL)
        assert not report.passed
        assert report.details == ["generators do not span the ambient space"]

    def test_symmetric_scaling_that_is_not_psd_is_skipped(self, monkeypatch):
        # Diagonal 0.1, ones next to it: already symmetric, so the identity
        # scaling solves it, and its smallest eigenvalue is 0.1 - 2 cos(pi/5).
        m = 0.1 * np.eye(5) + np.roll(np.eye(5), 1, axis=1) + np.roll(np.eye(5), -1, axis=1)
        assert np.linalg.eigvalsh(m)[0] == pytest.approx(0.1 - 2 * np.cos(np.pi / 5))
        solved = []
        solve = selfdual._solve_scaling

        def recorded(n_mat, mask):
            solved.append(solve(n_mat, mask))
            return solved[-1]

        monkeypatch.setattr(selfdual, "_solve_scaling", recorded)
        assert selfdual.find_psd_scaling(m) is None
        assert any(d is not None for d in solved)

    def test_factor_not_psd_of_the_rank(self):
        # PSD at tol 1 (smallest eigenvalue -1), but its second eigenvalue is
        # not positive, so it has no rank-2 spectral factor.
        m = np.array([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(PreconditionError, match="matrix is not PSD of the requested rank"):
            geometry._spectral_factor(linalg.sym_eigen(m), 2)
        verdict = analysis.analyze_matrix(m, 2, 1.0, "m").results["selfdual_certification"]
        assert verdict["certified"] is False
        assert verdict["detail"] == "matrix is not PSD of the requested rank"

    def test_factor_cone_with_redundant_generators_fails_the_round_trip(self):
        # The orthant's generators and two more inside its faces: the Gram
        # matrix passes every slack pattern check at d = 4, and its factor
        # cone has 4 facets for 6 generators.
        e = np.eye(4)
        gens = np.vstack([e, e[1] + e[2], e[0] + e[3]])
        m = gens @ gens.T
        assert geometry.slack_pattern_reasons(m, 4) == []
        ok, detail = selfdual.certify_psd_slack(m, 4)
        assert not ok
        assert detail.startswith("dual generators do not match primal generators "
                                 "bijectively (4 facets")
        verdict = analysis.analyze_matrix(m, 4, linalg.PSD_TOL, "m").results
        assert verdict["selfdual_certification"]["detail"] == detail
