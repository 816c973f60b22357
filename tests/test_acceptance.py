"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
Tolerances are fixed here, not configurable: they are the contract.
"""

from __future__ import annotations

import itertools
import json
import math
import time

import numpy as np
import pytest

from sdcones import cli, data, dnn, geometry, linalg, search, selfdual

import conftest
from conftest import (
    equal_up_to_scaling,
    loop_extreme_rays,
    match_columns_by_pattern,
    random_pointed_cone_generators,
    rank_extreme_mask,
    support_pattern_of,
)


def report(number: int, description: str):
    """Record and print the one-line verdict; failures re-raise after printing.

    The lines are echoed in pytest's terminal summary (see conftest) so they
    survive output capture.
    """

    class _Reporter:
        def __enter__(self):
            return self

        def __exit__(self, exc_type, exc, tb):
            verdict = "PASS" if exc_type is None else "FAIL"
            line = f"ACCEPTANCE {number} {verdict}: {description}"
            print(line, flush=True)
            conftest.acceptance_lines.append(line)
            return False

    return _Reporter()


def test_criterion_1_pentagon_golden(pentagon_rays, pentagon_slack):
    with report(1, "pentagon slack, rank and spectrum reproduce the golden data"):
        t0 = time.perf_counter()
        cone = geometry.PolyhedralCone(pentagon_rays)
        sm = geometry.slack_matrix(cone)
        elapsed = time.perf_counter() - t0
        assert elapsed < 1.0, f"took {elapsed:.2f} s"

        sigma = match_columns_by_pattern(
            support_pattern_of(pentagon_slack), support_pattern_of(sm.matrix)
        )
        assert sigma is not None
        aligned = sm.matrix[:, sigma]
        # Column-scaling normalization: make the diagonal match the target.
        diag_target = 1.0 + math.cos(math.pi / 5.0)
        scaled = aligned * (diag_target / np.diag(aligned))[None, :]
        assert np.abs(scaled - pentagon_slack).max() <= 1e-9
        off_target = math.sqrt(5.0) / 2.0
        mask = support_pattern_of(pentagon_slack) & ~np.eye(5, dtype=bool)
        assert np.abs(scaled[mask] - off_target).max() <= 1e-9

        assert linalg.numeric_rank(pentagon_slack) == 3
        eig = linalg.sym_eigen(pentagon_slack)
        expected = np.array([4.045084971874737, 2.5, 2.5, 0.0, 0.0])
        assert np.abs(eig.values - expected).max() <= 1e-9


def test_criterion_2_extremality_certificates(pentagon_slack, prism_slack, nonslack_extreme):
    with report(2, "extremality certificates for the golden matrices and identities"):
        for m in (pentagon_slack, prism_slack, nonslack_extreme):
            t0 = time.perf_counter()
            rep = dnn.dnn_extremality(m)
            wall = time.perf_counter() - t0
            assert wall < 1.0, f"took {wall:.2f} s"
            assert rep.extreme and rep.intersection_dim == 1
        for n in range(2, 9):
            t0 = time.perf_counter()
            rep = dnn.dnn_extremality(np.eye(n))
            wall = time.perf_counter() - t0
            assert wall < 1.0, f"took {wall:.2f} s"
            assert not rep.extreme and rep.intersection_dim == n


def test_criterion_3_slack_necessity(prism_slack, nonslack_extreme):
    with report(3, "slack necessity rejects the non-slack extreme ray, accepts the prism"):
        ok, reasons = geometry.slack_necessary_check(nonslack_extreme, 4)
        assert not ok
        assert any("only 2 zeros" in r and "at least 3" in r for r in reasons)
        ok, reasons = geometry.slack_necessary_check(prism_slack, 4)
        assert ok and reasons == []


def test_criterion_4_congruence():
    with report(4, "congruence factorization verified at 1e-12 and perturbation rejected"):
        a, b, m = data.congruence_triple()
        assert dnn.verify_congruence(a, m, b, tol=1e-12)
        m2 = m.copy()
        m2[4, 4] += 0.1
        assert not dnn.verify_congruence(a, m2, b, tol=1e-12)


def test_criterion_5_self_duality_decisions(pentagon_rays, prism_rays):
    with report(5, "self-duality decisions for orthants, pentagon, prism, even gons"):
        t0 = time.perf_counter()
        for d in range(1, 7):
            ok, cert = selfdual.is_self_dual(geometry.PolyhedralCone(np.eye(d)))
            assert ok and cert is not None
        assert selfdual.is_self_dual(geometry.PolyhedralCone(pentagon_rays))[0]
        assert selfdual.is_self_dual(geometry.PolyhedralCone(prism_rays))[0]
        for k in (4, 6, 8, 10):
            cone = geometry.cone_over_polytope(data.regular_polygon_vertices(k))
            assert not selfdual.is_self_dual(cone)[0]
        wall = time.perf_counter() - t0
        assert wall < 10.0, f"took {wall:.2f} s"


def test_criterion_6_pipeline_magnitudes(tmp_path):
    with report(6, "search pipeline reproduces the reported magnitudes on three supports"):
        t0 = time.perf_counter()
        jobs = [
            ("pentagon", data.pentagon_support(), 3),
            ("prism", data.prism_support(), 4),
            ("selfpolar10", data.ten_support(), 4),
        ]
        for name, pattern, d in jobs:
            support_path = tmp_path / f"{name}.support"
            search.save_support(support_path, pattern.bits)
            code = cli.main(
                [
                    "search",
                    str(support_path),
                    "--rank",
                    str(d),
                    "--seed",
                    "0",
                    "--retries",
                    "20",
                    "--out",
                    str(tmp_path / name),
                ]
            )
            assert code == 0
            transcript = json.loads(
                (tmp_path / name / f"{name}_transcript.json").read_text()
            )
            assert transcript["success"] is True
            assert len(transcript["attempts"]) <= 20
            x = np.asarray(transcript["refined_matrix"])
            on = pattern.mask
            off_diag = on & ~np.eye(pattern.n, dtype=bool)
            assert x[off_diag].min() >= 1e-4
            assert np.abs(np.diag(x) - 1.0).max() <= 1e-10
            vals = linalg.sym_eigen(x).values
            assert np.abs(vals[d:]).max() < 1e-8
            # Verification ran at geometry.DEFAULT_FACET_TOL inside the
            # pipeline, and passes again at 1e-6 below.
            assert transcript["verification"]["passed"] is True
            assert transcript["verification"]["worst_cosine"] >= 1.0 - geometry.DEFAULT_FACET_TOL
            cone = geometry.load_cone(tmp_path / name / f"{name}_realization.cone")
            real = search.Realization(
                dim=d,
                generators=np.asarray(transcript["realization"]["generators"]),
                gram=x,
                residuals={},
            )
            rep = search.verify_realization(real, pattern, tol=1e-6)
            assert rep.passed
            assert cone.n_rays == pattern.n
        wall = time.perf_counter() - t0
        assert wall < 60.0, f"took {wall:.2f} s"


def test_criterion_7a_double_dual_round_trip():
    with report(7, "7a: double-dual round trip on 200 random pointed cones"):
        rng = np.random.default_rng(101)
        for _ in range(200):
            d = int(rng.integers(2, 5))
            n = int(rng.integers(d, 9))
            gens = random_pointed_cone_generators(rng, d, n)
            cone = geometry.extreme_rays(gens)
            # Generic cones: the rank rule extremality took before the
            # containment rule keeps the same rays.
            rank_rule = loop_extreme_rays(gens, rule=rank_extreme_mask)
            assert np.array_equal(cone.generators, rank_rule.generators)
            dd = geometry.dual_cone(geometry.dual_cone(cone))
            match = geometry.match_generators(cone.generators, dd.generators, 1e-8)
            assert match is not None


def test_criterion_7b_slack_invariance(pentagon_rays, prism_rays):
    with report(7, "7b: slack invariance under 100 random linear isomorphisms"):
        rng = np.random.default_rng(103)
        bases = [
            geometry.PolyhedralCone(pentagon_rays),
            geometry.PolyhedralCone(prism_rays),
        ]
        references = [geometry.slack_matrix(c).matrix for c in bases]
        for trial in range(100):
            cone = bases[trial % 2]
            base = references[trial % 2]
            d = cone.dim
            t = rng.normal(size=(d, d))
            while abs(np.linalg.det(t)) < 0.3:
                t = rng.normal(size=(d, d))
            mapped = geometry.PolyhedralCone(cone.generators @ t.T)
            other = geometry.slack_matrix(mapped).matrix
            sigma = match_columns_by_pattern(
                support_pattern_of(base), support_pattern_of(other)
            )
            assert sigma is not None
            assert equal_up_to_scaling(base, other[:, sigma], 1e-7)


def test_criterion_7c_extremality_equivariance():
    with report(7, "7c: extremality equivariance/invariance on 100 random DNN matrices"):
        rng = np.random.default_rng(107)
        done = 0
        while done < 100:
            n = int(rng.integers(2, 8))
            k = int(rng.integers(1, n + 1))
            x = rng.uniform(0.0, 1.0, size=(n, k))
            x[rng.uniform(size=(n, k)) < 0.35] = 0.0
            a = x @ x.T + np.diag(rng.uniform(0.0, 0.5, size=n))
            a = 0.5 * (a + a.T)
            if np.abs(a).max() == 0.0:
                continue
            done += 1
            base = dnn.dnn_extremality(a)
            alpha = float(10.0 ** rng.uniform(-3, 3))
            scaled = dnn.dnn_extremality(alpha * a)
            assert scaled.extreme == base.extreme
            assert scaled.intersection_dim == base.intersection_dim
            perm = rng.permutation(n)
            p = np.eye(n)[perm]
            conjugated = dnn.dnn_extremality(p @ a @ p.T)
            assert conjugated.extreme == base.extreme
            assert conjugated.intersection_dim == base.intersection_dim


def test_criterion_7d_sisd_oracle():
    with report(7, "7d: involution check agrees with brute force on 200 patterns"):
        rng = np.random.default_rng(109)
        for _ in range(200):
            n = int(rng.integers(2, 8))
            while True:
                s = (rng.uniform(size=(n, n)) < rng.uniform(0.3, 0.8)).astype(np.uint8)
                if s.sum(axis=1).min() > 0 and s.sum(axis=0).min() > 0:
                    break
            mine = search.sisd_check(s)
            oracle = None
            for perm in itertools.permutations(range(n)):
                if all(s[i, perm[i]] == 1 for i in range(n)) and all(
                    s[i, perm[j]] == s[j, perm[i]]
                    for i in range(n)
                    for j in range(i + 1, n)
                ):
                    oracle = perm
                    break
            assert (mine is None) == (oracle is None)
            if mine is not None:
                fixed = s[:, mine]
                assert np.array_equal(fixed, fixed.T)
                assert np.all(np.diag(fixed) == 1)


def test_criterion_8_dnn5_characterization(pentagon_slack):
    with report(8, "DNN 5x5 characterization on randomized pentagon and non-cycle data"):
        rng = np.random.default_rng(113)
        # Rescaled slacks of random self-dual pentagon realizations.
        for _ in range(50):
            scales = np.exp(rng.uniform(-0.6, 0.6, size=5))
            seed_matrix = pentagon_slack * np.outer(scales, scales)
            real = search.extract_realization(seed_matrix, 3)
            gram = real.gram
            extra = np.exp(rng.uniform(-0.4, 0.4, size=5))
            a = gram * np.outer(extra, extra)
            perm = rng.permutation(5)
            p = np.eye(5)[perm]
            a = p @ a @ p.T
            assert dnn.dnn5_classify(a) == "pentagon_slack"
            assert dnn.dnn_extremality(a).extreme
        # Rank-3 DNN matrices whose support is not a 5-cycle.
        done = 0
        while done < 50:
            x = rng.uniform(0.1, 1.0, size=(5, 3))
            x[rng.uniform(size=(5, 3)) < 0.25] = 0.0
            a = x @ x.T
            if linalg.numeric_rank(a) != 3 or not dnn.is_dnn(a):
                continue
            mask = support_pattern_of(a) & ~np.eye(5, dtype=bool)
            if np.all(mask.sum(axis=1) == 2):
                continue
            done += 1
            assert not dnn.dnn_extremality(a).extreme
