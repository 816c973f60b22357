from __future__ import annotations

import dataclasses
import json
import math
import os
import time
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from sdcones import analysis, cli, data, dnn, geometry, linalg, patterns, search
from sdcones import __version__, selfdual
from sdcones.errors import PreconditionError

from conftest import (
    decline_spectral_attempt,
    equal_up_to_scaling,
    loop_extreme_mask,
    loop_extreme_rays,
    match_columns_by_pattern,
    run_python,
    shuffled_cycle_complement,
    split_hexagon_rays,
    stacked_products,
    support_pattern_of,
)


FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


def run_cli(capsys, *argv) -> tuple[int, str, str]:
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExamplesCommand:
    def test_writes_all_and_bit_identical(self, workdir, capsys):
        names = ["pentagon", "prism", "nonslack", "congruence", "selfpolar10"]
        code, out, _ = run_cli(capsys, "examples", *names, "--out", "a")
        assert code == 0
        code, _, _ = run_cli(capsys, "examples", *names, "--out", "b")
        assert code == 0
        files_a = sorted((workdir / "a").iterdir())
        files_b = sorted((workdir / "b").iterdir())
        assert [f.name for f in files_a] == [f.name for f in files_b]
        for fa, fb in zip(files_a, files_b):
            assert fa.read_bytes() == fb.read_bytes()
        # Files round-trip to the bundled constants exactly.
        back = geometry.load_matrix(workdir / "a" / "pentagon_slack.mat")
        assert np.array_equal(back, data.pentagon_slack())
        rays = geometry.load_matrix(workdir / "a" / "nonslack.mat")
        assert np.array_equal(rays, data.nonslack_extreme_matrix())

    def test_unknown_name(self, workdir, capsys):
        code, _, err = run_cli(capsys, "examples", "nonsense")
        assert code == cli.EXIT_PRECONDITION
        assert "unknown example" in err


class TestSlackCommand:
    def test_pentagon_golden(self, workdir, capsys):
        run_cli(capsys, "examples", "pentagon", "--out", ".")
        code, out, _ = run_cli(
            capsys, "slack", "pentagon_rays.cone", "--json", "--out", "slack.mat"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["cone_dim"] == 3
        m = np.asarray(payload["matrix"])
        sigma = match_columns_by_pattern(
            support_pattern_of(data.pentagon_slack()), support_pattern_of(m)
        )
        assert sigma is not None
        assert equal_up_to_scaling(
            data.pentagon_slack(), m[:, sigma], 1e-9, rows=False
        )
        saved = geometry.load_matrix(workdir / "slack.mat")
        assert np.array_equal(saved, m)

    def test_orthant_identity(self, workdir, capsys):
        geometry.save_cone(workdir / "orthant.cone", np.eye(3))
        code, out, _ = run_cli(capsys, "slack", "orthant.cone", "--json")
        assert code == 0
        m = np.asarray(json.loads(out)["matrix"])
        assert match_columns_by_pattern(
            support_pattern_of(np.eye(3)), support_pattern_of(m)
        ) is not None

    def test_degenerate_cone_exit_2(self, workdir, capsys):
        geometry.save_cone(
            workdir / "line.cone",
            np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]]),
        )
        code, _, err = run_cli(capsys, "slack", "line.cone")
        assert code == cli.EXIT_PRECONDITION
        assert "pointed" in err

    def test_missing_file_exit_4(self, workdir, capsys):
        code, _, _ = run_cli(capsys, "slack", "missing.cone")
        assert code == cli.EXIT_PARSE


class TestDualCommand:
    def test_orthant(self, workdir, capsys):
        geometry.save_cone(workdir / "orthant.cone", np.eye(4))
        code, out, _ = run_cli(capsys, "dual", "orthant.cone")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "4 4"

    @pytest.mark.parametrize("d", range(2, 7))
    def test_orthant_prints_no_negative_zero(self, workdir, capsys, d):
        # The dual of the d-orthant is the d-orthant: its normals have exact
        # zeros, and flipping one to inward must not print them as -0.
        geometry.save_cone(workdir / "orthant.cone", np.eye(d))
        code, out, _ = run_cli(capsys, "dual", "orthant.cone")
        assert code == 0
        fields = [f for line in out.splitlines()[1:] for f in line.split()]
        assert len(fields) == d * d and "-0" not in fields
        assert sorted(fields) == sorted(["0"] * (d * d - d) + ["1"] * d)

    def test_split_hexagon_has_six_facets(self, workdir, capsys):
        geometry.save_cone(workdir / "hex.cone", split_hexagon_rays())
        code, out, err = run_cli(capsys, "dual", "hex.cone")
        assert (code, err) == (0, "")
        assert out.splitlines()[0] == "3 6"
        code, out, err = run_cli(capsys, "verify", "hex.cone")
        assert (code, err) == (0, "")
        assert json.loads(out)["self_dual"] is False

    def test_qr_failure_in_facet_scan_exits_3(self, workdir, capsys, monkeypatch):
        geometry.save_cone(workdir / "gon12.cone", np.column_stack(
            [np.ones(12), data.regular_polygon_vertices(12)]))
        qr = np.linalg.qr

        def fail_on_stacks(a, *args, **kwargs):
            if np.ndim(a) > 2:
                raise np.linalg.LinAlgError("did not converge")
            return qr(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "qr", fail_on_stacks)
        code, out, err = run_cli(capsys, "dual", "gon12.cone")
        assert code == cli.EXIT_NO_CONVERGENCE
        assert out == ""
        assert "did not converge: QR did not converge" in err
        assert "Traceback" not in err


class TestFacetSubsetBudget:
    @pytest.mark.parametrize("argv", [
        ("dual", "big.cone", "--out", "big_dual.cone"),
        ("slack", "big.cone", "--out", "big.mat"),
        ("verify", "big.cone"),
    ])
    def test_d10_n60_cone_exits_3_at_once(self, workdir, capsys, argv):
        # About 1.5e10 subsets of 9 generators.
        x = np.random.default_rng(0).normal(size=(60, 9))
        geometry.save_cone(workdir / "big.cone", np.column_stack(
            [np.ones(60), x / np.linalg.norm(x, axis=1)[:, None]]))
        start = time.perf_counter()
        code, out, err = run_cli(capsys, *argv)
        wall = time.perf_counter() - start
        assert wall < 5.0, f"took {wall:.2f} s"
        assert code == cli.EXIT_NO_CONVERGENCE
        assert out == ""
        assert "over the budget of" in err
        assert "Traceback" not in err
        assert sorted(p.name for p in workdir.iterdir()) == ["big.cone"]


class TestAnalyzeCommand:
    def _analyze(self, capsys, workdir, matrix, rank):
        geometry.save_matrix(workdir / "m.mat", matrix)
        code, out, _ = run_cli(capsys, "analyze", "m.mat", "--rank", str(rank))
        assert code == 0
        return json.loads(out)

    def test_pentagon_report(self, workdir, capsys):
        rep = self._analyze(capsys, workdir, data.pentagon_slack(), 3)
        res = rep["results"]
        assert res["rank"]["value"] == 3
        assert res["extremality"]["extreme"] is True
        assert res["extremality"]["intersection_dim"] == 1
        assert res["selfdual_certification"]["certified"] is True
        assert res["verdicts"]["dnn_extreme"] is True
        assert res["verdicts"]["cp_member"] is False
        assert res["verdicts"]["cpsd_member"] is False
        assert res["dnn5"]["label"] == "pentagon_slack"

    def test_nonslack_extreme_report(self, workdir, capsys):
        rep = self._analyze(capsys, workdir, data.nonslack_extreme_matrix(), 4)
        res = rep["results"]
        assert res["extremality"]["extreme"] is True
        assert res["slack_check"]["value"] is False
        assert any("zeros" in r for r in res["slack_check"]["reasons"])
        assert res["verdicts"].get("withheld") is True

    def test_identity_report(self, workdir, capsys):
        rep = self._analyze(capsys, workdir, np.eye(5), 5)
        res = rep["results"]
        assert res["extremality"]["extreme"] is False
        assert res["simplicial"]["value"] is True
        assert res["verdicts"]["cp_member"] is True
        assert res["verdicts"]["cpsd_member"] is True
        assert res["dnn5"]["label"] == "not_extreme"

    def test_schema_and_round_trip(self, workdir, capsys):
        schema = json.loads(analysis.SCHEMA_PATH.read_text())
        for matrix, rank in [
            (data.pentagon_slack(), 3),
            (data.nonslack_extreme_matrix(), 4),
            (np.eye(5), 5),
            (data.prism_slack(), 4),
        ]:
            rep = self._analyze(capsys, workdir, matrix, rank)
            jsonschema.validate(rep, schema)
            report = analysis.AnalysisReport(**rep)
            again = analysis.AnalysisReport(**json.loads(report.to_json()))
            assert again == report

    def test_every_result_has_provenance(self, workdir, capsys):
        rep = self._analyze(capsys, workdir, data.prism_slack(), 4)
        for name, entry in rep["results"].items():
            assert "provenance" in entry, name

    def test_asymmetric_rejected(self, workdir, capsys):
        geometry.save_matrix(workdir / "m.mat", np.array([[1.0, 2.0], [0.0, 1.0]]))
        code, _, err = run_cli(capsys, "analyze", "m.mat", "--rank", "2")
        assert code == cli.EXIT_PRECONDITION

    def test_certificate_disagreement_exits_3(self, workdir, capsys, monkeypatch):
        # An extremality certificate that contradicts the support-graph
        # verdict is a numerical inconsistency, reported like non-convergence.
        exact = dnn._extremality

        def contradicting(*args, **kwargs):
            rep = exact(*args, **kwargs)
            return dataclasses.replace(rep, intersection_dim=2, extreme=False)

        monkeypatch.setattr(dnn, "_extremality", contradicting)
        geometry.save_matrix(workdir / "m.mat", data.pentagon_slack())
        code, out, err = run_cli(capsys, "analyze", "m.mat", "--rank", "3")
        assert code == cli.EXIT_NO_CONVERGENCE
        assert out == ""
        assert "disagrees with the numerical extremality certificate" in err

    def test_verdicts_use_the_given_tol(self, workdir, capsys):
        # The smallest eigenvalue sits at -5e-9 * max|entry|: PSD at tol
        # 1e-6, not at the default 1e-9.  Every step, the membership
        # verdicts included, has to judge it at the tol it was given.
        p = data.pentagon_slack()
        m = p - 5e-9 * np.abs(p).max() * np.eye(5)
        geometry.save_matrix(workdir / "m.mat", m)
        code, out, err = run_cli(capsys, "analyze", "m.mat", "--rank", "3",
                                 "--tol", "1e-6")
        assert (code, err) == (0, "")
        res = json.loads(out)["results"]
        assert res["dnn"]["value"] is True
        assert res["selfdual_certification"]["certified"] is True
        assert res["verdicts"]["dnn_extreme"] is True
        assert res["verdicts"]["cp_member"] is False
        assert res["verdicts"]["cpsd_member"] is False
        assert res["dnn5"]["label"] == "pentagon_slack"

    @pytest.mark.parametrize("flags", [
        ["--rank", "0"], ["--rank", "-1"],
        ["--rank", "3", "--tol", "0"], ["--rank", "3", "--tol", "-1"],
        ["--rank", "3", "--tol", "nan"], ["--rank", "3", "--tol", "inf"],
    ])
    def test_parameters_outside_the_schema_exit_2(self, workdir, capsys, flags):
        geometry.save_matrix(workdir / "m.mat", data.pentagon_slack())
        code, out, err = run_cli(capsys, "analyze", "m.mat", *flags)
        assert code == cli.EXIT_PRECONDITION
        assert out == ""
        assert err.startswith("precondition failure:")
        assert "Traceback" not in err

    def test_rank_below_1_refused_once_before_any_input_runs(self, workdir, capsys,
                                                             monkeypatch):
        geometry.save_matrix(workdir / "m.mat", data.pentagon_slack())

        def no_load(path):
            raise AssertionError(f"input {path} ran")

        monkeypatch.setattr(geometry, "load_matrix", no_load)
        code, out, err = run_cli(capsys, "analyze", "m.mat", "m.mat", "--rank", "0")
        assert (code, out, err) == (cli.EXIT_PRECONDITION, "",
                                    "precondition failure: rank must be >= 1, got 0\n")


class TestTolChecked:
    @pytest.mark.parametrize("tol", ["0", "-1", "nan", "inf"])
    @pytest.mark.parametrize("argv", [
        ["slack", "pentagon_rays.cone", "--out", "slack.mat"],
        ["dual", "pentagon_rays.cone", "--out", "dual.cone"],
        ["verify", "pentagon_rays.cone", "pentagon_rays.cone"],
        ["search", "pentagon.support", "--rank", "3", "--out", "run"],
    ])
    def test_bad_tol_exits_2_before_any_input_runs(self, workdir, capsys, argv, tol):
        run_cli(capsys, "examples", "pentagon", "--out", ".")
        before = sorted(workdir.iterdir())
        code, out, err = run_cli(capsys, *argv, "--tol", tol)
        assert code == cli.EXIT_PRECONDITION
        assert out == ""
        assert err == ("precondition failure: --tol must be finite and positive, "
                       f"got {float(tol)}\n")
        assert sorted(workdir.iterdir()) == before


class TestVerifyCommand:
    def test_orthant_true(self, workdir, capsys):
        geometry.save_cone(workdir / "o.cone", np.eye(3))
        code, out, _ = run_cli(capsys, "verify", "o.cone")
        assert code == 0
        assert json.loads(out)["self_dual"] is True

    def test_square_false(self, workdir, capsys):
        square = geometry.cone_over_polytope(
            np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]])
        )
        geometry.save_cone(workdir / "sq.cone", square.generators)
        code, out, _ = run_cli(capsys, "verify", "sq.cone")
        assert code == 0
        payload = json.loads(out)
        assert payload["self_dual"] is False
        assert payload["certificate"] is None

    def test_prism_true(self, workdir, capsys):
        geometry.save_cone(workdir / "p.cone", data.prism_rays())
        code, out, _ = run_cli(capsys, "verify", "p.cone")
        assert code == 0
        payload = json.loads(out)
        assert payload["self_dual"] is True
        assert payload["certificate"]["min_eigenvalue"] >= -1e-9

    def test_node_budget_exits_3(self, workdir, capsys, monkeypatch):
        # The 17-gon's first involution takes 93 nodes.
        monkeypatch.setattr(patterns, "INVOLUTION_NODE_BUDGET", 50)
        cone = geometry.cone_over_polytope(data.regular_polygon_vertices(17))
        geometry.save_cone(workdir / "g17.cone", cone.generators)
        code, out, err = run_cli(capsys, "verify", "g17.cone")
        assert code == cli.EXIT_NO_CONVERGENCE
        assert out == ""
        assert "involution search on 17 rows visited 51 nodes" in err

    def test_17gon_certified_within_100_nodes(self, workdir, capsys, monkeypatch):
        monkeypatch.setattr(patterns, "INVOLUTION_NODE_BUDGET", 100)
        cone = geometry.cone_over_polytope(data.regular_polygon_vertices(17))
        geometry.save_cone(workdir / "g17.cone", cone.generators)
        code, out, err = run_cli(capsys, "verify", "g17.cone")
        assert (code, err) == (0, "")
        assert json.loads(out)["self_dual"] is True

    def test_searched_11gon_realization_true(self, capsys):
        # A cone that `search --rank 3 --seed 2` certified for the regular
        # 11-gon's slack support.  Its slack, rows permuted by the
        # involution, is symmetric to 1.3e-10 relative before any scaling.
        code, out, _ = run_cli(
            capsys, "verify", str(FIXTURES / "kgon11_seed2_realization.cone"))
        assert code == 0
        assert json.loads(out)["self_dual"] is True

    def test_51gon_certified_before_2000_nodes(self, workdir, capsys, monkeypatch):
        # Enumerating all of the 51-gon's involutions takes more nodes than
        # this; verify stops at the first, which certifies.
        monkeypatch.setattr(patterns, "INVOLUTION_NODE_BUDGET", 2_000)
        cone = geometry.cone_over_polytope(data.regular_polygon_vertices(51))
        geometry.save_cone(workdir / "g51.cone", cone.generators)
        code, out, err = run_cli(capsys, "verify", "g51.cone")
        assert (code, err) == (0, "")
        assert json.loads(out)["self_dual"] is True

    # The node budget each regular k-gon cone is decided within.  verify
    # stops at the 101-gon's first certificate; the 100-gon has no
    # involution, and the search visits 9 552 nodes to prove it.
    POLYGON_BUDGETS = {50: 5_000, 51: 5_000, 101: 5_000, 100: 10_000}

    @pytest.mark.parametrize("k", sorted(POLYGON_BUDGETS))
    def test_polygons_decided_within_5000_nodes(self, workdir, capsys, monkeypatch, k):
        monkeypatch.setattr(patterns, "INVOLUTION_NODE_BUDGET", self.POLYGON_BUDGETS[k])
        cone = geometry.cone_over_polytope(data.regular_polygon_vertices(k))
        geometry.save_cone(workdir / "gon.cone", cone.generators)
        code, out, err = run_cli(capsys, "verify", "gon.cone")
        assert (code, err) == (0, "")
        assert json.loads(out)["self_dual"] is (k % 2 == 1)


# The library function, kept before a test patches geometry.slack_matrix.
LIBRARY_SLACK_MATRIX = geometry.slack_matrix


def two_scan_slack_matrix(cone, tol=geometry.DEFAULT_FACET_TOL):
    """The slack of verify and slack before they shared one facet scan:
    extreme_rays (with the per-generator rank loop) scans the generators,
    a scan counts those that are not extreme (a repeated ray is extreme),
    then slack_matrix scans them again."""
    loop_extreme_rays(cone.generators, tol)
    normals = geometry._facet_scan(cone.generators, tol)[0]
    dropped = int((~loop_extreme_mask(cone.generators, normals, tol)).sum())
    if dropped:
        raise PreconditionError(f"{dropped} generator(s) are not extreme rays")
    return LIBRARY_SLACK_MATRIX(cone, tol)

# Cone files for the single-scan tests, with the --tol each runs at (None:
# the default).  The three at a coarse tol come from seeded random searches:
# points (1, x), x normal with standard deviation 0.7, for a cone whose one
# scan found no extreme ray by the rank rule (by containment, 6 of its 7
# generators are not extreme rays), and lattice points (1, a, b), |a|, |b|
# <= 2, moved by normal noise of standard deviation 1e-4, for two cones with
# slack entries between 1e-5 and 1e-4 in size, so tight at 1e-4: one of them
# negative (its generator 2, which by containment is not an extreme ray),
# and one that is a row's second zero.  When slack zeros were entries below
# 1e-10 of the largest, both gave no slack.
SINGLE_SCAN_CONES = {
    "prism": (data.prism_rays(), None),
    "pentagon": (data.pentagon_rays(), None),
    "orthant": (np.eye(3), None),
    "square": ([[1, 1, 1], [1, 1, -1], [1, -1, 1], [1, -1, -1]], None),
    "interior-ray": ([[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]], None),
    "edge-ray": ([[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 0]], None),
    "three-interior": ([[1, 0], [0, 1], [1, 1], [2, 1], [1, 2]], None),
    "not-spanning": ([[1, 0, 0], [0, 1, 0], [1, 1, 0]], None),
    "line": ([[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, 0, 1]], None),
    "halfplane": ([[1, 0], [-1, 0], [0, 1]], None),
    "d1": ([[2.0]], None),
    "d1-duplicates": ([[2.0], [0.5]], None),
    "d1-line": ([[2.0], [-1.0]], None),
    "duplicates": (np.vstack([data.prism_rays(), 3.0 * data.prism_rays()[:2]]), None),
    "near-flat-vertex": ([[1, -1, 0], [1, 0, 1e-4], [1, 1, 0], [1, 0, -1]], None),
    "no-extreme-ray": ([
        [1.0, 0.95652442938478, -0.46563627144062947, 0.24605704906511378],
        [1.0, 0.632429127156266, 0.06580860843261219, -0.5204494745476659],
        [1.0, -0.6452077633808936, -0.3204080779671374, 0.15413658642903458],
        [1.0, -0.7067327284771151, -0.14642290241019915, -0.1114575069401344],
        [1.0, 0.37859190928006536, 0.15026138575443862, 0.24876089632794496],
        [1.0, -0.4576800265928376, -0.09072954358493862, 0.5487828290429306],
        [1.0, 1.0454018016545323, -0.8813458724728841, 1.0597466423173438],
    ], 0.3),
    "negative-slack": ([
        [0.9998518714903913, -2.0000224711710657, 0.00016927059985819918],
        [1.0001609236863414, 0.9999526913847713, 3.081152003549975e-05],
        [1.000061274574003, -2.0001479165153473, -5.329224853622906e-05],
        [0.9999594586621496, 2.0000404052186687, 0.9999489698676332],
        [0.9998602613003479, 1.0000324206813132, 0.9999357992641003],
    ], 1e-4),
    "too-few-zeros": ([
        [0.9999854190723485, 1.9999118349882934, -2.0001872048975726],
        [0.9999419034521961, -0.9999646848751278, -0.9999698405232879],
        [0.9999365399205526, -0.9999585226660193, -0.9999205042128568],
        [1.000053779066588, -0.9999583106932364, -0.9997679138110886],
        [1.0001558407386089, 1.0001688065902987, -0.9999979823142567],
    ], 1e-4),
}


class TestSingleScan:
    @pytest.mark.parametrize("argv", [["verify"], ["slack"], ["slack", "--json"]])
    def test_one_facet_scan_on_the_prism(self, workdir, capsys, monkeypatch, argv):
        geometry.save_cone(workdir / "p.cone", data.prism_rays())
        scans = []
        scan = geometry._facet_scan

        def counted(*args):
            scans.append(1)
            return scan(*args)

        monkeypatch.setattr(geometry, "_facet_scan", counted)
        code, _, _ = run_cli(capsys, *argv, "p.cone")
        assert code == 0
        assert len(scans) == 1

    def test_one_slack_pattern_check_per_verify_input(self, workdir, capsys, monkeypatch):
        # slack_matrix takes its zeros from the cone's incidence, which
        # gives the pattern's properties by construction, and the scaling
        # search trusts a SlackMatrix: verify checks no pattern.
        cones = {
            "o.cone": np.eye(3),
            "p.cone": data.prism_rays(),
            "g5.cone": data.pentagon_rays(),
            "g6.cone": geometry.cone_over_polytope(
                data.regular_polygon_vertices(6)).generators,
        }
        for name, gens in cones.items():
            geometry.save_cone(workdir / name, gens)
        calls, check = [], geometry.slack_pattern_reasons

        def counted(*args, **kwargs):
            calls.append(args[0].shape)
            return check(*args, **kwargs)

        monkeypatch.setattr(geometry, "slack_pattern_reasons", counted)
        code, out, err = run_cli(capsys, "verify", *cones)
        assert (code, err) == (0, "")
        assert out.count('"self_dual": true') == 3
        assert calls == []

    @pytest.mark.parametrize("name", ["negative-slack", "too-few-zeros"])
    def test_slack_zeros_are_the_tight_entries(self, workdir, capsys, name):
        # Or a refusal, with the count of generators the containment loop
        # finds not extreme.  At 1e-4 the negative-slack cone's hyperplane
        # tight at generators {0, 2} lies inside facet {0, 1, 2}, so
        # generator 2 is tight on that facet alone, inside generator 0's
        # facets.
        gens, tol = SINGLE_SCAN_CONES[name]
        geometry.save_cone(workdir / "c.cone", np.asarray(gens, float))
        code, out, err = run_cli(capsys, "slack", "--json", "--tol", str(tol), "c.cone")
        cone = geometry.load_cone(workdir / "c.cone")
        normals = geometry.facet_normals(cone, tol)
        dropped = int((~loop_extreme_mask(cone.generators, normals, tol)).sum())
        if dropped:
            # slack, with or without --json, and verify refuse alike.
            refusal = (cli.EXIT_PRECONDITION, "",
                       f"precondition failure: {dropped} generator(s) are not extreme rays\n")
            assert (code, out, err) == refusal
            for argv in (["slack"], ["verify"]):
                assert run_cli(capsys, *argv, "--tol", str(tol), "c.cone") == refusal
            assert name == "negative-slack" and dropped == 1
            return
        assert (code, err) == (0, "")
        m = np.array(json.loads(out)["matrix"])
        tight = np.abs(stacked_products(cone.generators, normals)) <= tol
        # One row per set of tight facets, its first generator.
        rays = np.sort(np.unique(tight, axis=0, return_index=True)[1])
        assert np.array_equal(m == 0.0, tight[rays])
        assert (m[m != 0.0] > tol).all()
        code, out, err = run_cli(capsys, "verify", "--tol", str(tol), "c.cone")
        assert (code, err) == (0, "")
        assert json.loads(out)["self_dual"] is False

    def test_no_facet_at_tol_is_not_called_unpointed(self, workdir, capsys):
        # At tol 1e-300 no generator subset's normal is tight on its own
        # members, so the scan finds no facet of this pointed image of the
        # pentagon cone.  (The pentagon cone itself has exact zeros: the
        # scan keeps one facet at 1e-300, a normal that spans less than R^3.)
        t = np.array([[1.0, 0.2, -0.1], [0.3, 1.1, 0.2], [-0.2, 0.1, 0.9]])
        geometry.save_cone(workdir / "p.cone", data.pentagon_rays() @ t.T)
        code, _, err = run_cli(capsys, "verify", "--tol", "1e-300", "p.cone")
        assert code == cli.EXIT_PRECONDITION
        assert "no facet found at tol 1e-300" in err
        assert "pointed" not in err
        # Facets whose normals span less than R^d still mean not pointed.
        geometry.save_cone(workdir / "h.cone", [[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]])
        code, _, err = run_cli(capsys, "verify", "h.cone")
        assert code == cli.EXIT_PRECONDITION
        assert "cone is not pointed" in err
        # Or a tol below the rounding of the products: there the pentagon
        # and prism cones keep only the facets with exact zeros.
        for gens, r, d in ((data.pentagon_rays(), 1, 3), (data.prism_rays(), 2, 4)):
            geometry.save_cone(workdir / "c.cone", gens)
            for tol in ("1e-300", "1e-20", "1e-17"):
                code, _, err = run_cli(capsys, "verify", "--tol", tol, "c.cone")
                assert code == cli.EXIT_PRECONDITION
                assert (f"facet normals at tol {tol} span R^{r}, not R^{d}: the cone is "
                        "not pointed or is flat at tol, or tol is below the rounding "
                        "of its products") in err

    @pytest.mark.parametrize("name", sorted(SINGLE_SCAN_CONES))
    @pytest.mark.parametrize("argv", [["verify"], ["slack"], ["slack", "--json"]])
    def test_same_output_as_two_scans(self, workdir, capsys, monkeypatch, name, argv):
        gens, tol = SINGLE_SCAN_CONES[name]
        geometry.save_cone(workdir / "c.cone", np.asarray(gens, float))
        if tol is not None:
            argv = [*argv, "--tol", str(tol)]
        one = run_cli(capsys, *argv, "c.cone")
        monkeypatch.setattr(geometry, "slack_matrix", two_scan_slack_matrix)
        assert run_cli(capsys, *argv, "c.cone") == one


class TestSearchCommand:
    def test_pentagon_writes_outputs(self, workdir, capsys):
        run_cli(capsys, "examples", "pentagon", "--out", ".")
        code, out, _ = run_cli(
            capsys, "search", "pentagon.support", "--rank", "3", "--out", "run"
        )
        assert code == 0
        transcript = json.loads(out)
        assert transcript["success"] is True
        disk = json.loads((workdir / "run" / "pentagon_transcript.json").read_text())
        assert disk == transcript
        cone = geometry.load_cone(workdir / "run" / "pentagon_realization.cone")
        assert cone.n_rays == 5 and cone.dim == 3

    def test_capped_sdp_is_refined_and_certified(self, workdir, capsys, monkeypatch):
        # With the spectral attempt declined, at --max-iter 12 the pentagon's
        # first SDP is cut before its stop rule (iteration 19 at seed 0) and
        # its matrix fails the PSD test; refinement still runs on it, and
        # the realization it reaches is certified.
        decline_spectral_attempt(monkeypatch)
        starts = []
        refine = search._refine
        monkeypatch.setattr(search, "_refine",
                            lambda xs, d, pattern: starts.extend(xs) or refine(xs, d, pattern))
        run_cli(capsys, "examples", "pentagon", "--out", ".")
        code, out, _ = run_cli(
            capsys, "search", "pentagon.support", "--rank", "3", "--max-iter", "12"
        )
        assert code == 0
        spectral, attempt = json.loads(out)["attempts"]
        assert spectral["sdp_iterations"] == 1 and not spectral["refine_converged"]
        assert not attempt["sdp_converged"]
        assert attempt["sdp_iterations"] == 12
        assert linalg.sym_eigen(starts[1]).values[-1] < -linalg.PSD_TOL
        assert attempt["refine_converged"] and attempt["certified"]

    def test_capped_retry_refines_after_the_spectral_attempt_fails(self, workdir, capsys,
                                                                   monkeypatch):
        # --max-iter 18 cuts the pentagon's first SDP one iteration before
        # its stop rule fires (seed 0); refinement does not read the cap, so
        # the retry still refines and certifies.
        decline_spectral_attempt(monkeypatch)
        run_cli(capsys, "examples", "pentagon", "--out", ".")
        code, out, _ = run_cli(capsys, "search", "pentagon.support", "--rank", "3",
                               "--seed", "0", "--max-iter", "18")
        assert code == 0
        _, attempt = json.loads(out)["attempts"]
        assert (attempt["sdp_converged"], attempt["sdp_iterations"]) == (False, 18)
        assert attempt["refine_converged"] and attempt["certified"]

    def test_max_iter_does_not_cap_refinement(self, workdir, capsys):
        run_cli(capsys, "examples", "pentagon", "--out", ".")
        code, out, _ = run_cli(capsys, "search", "pentagon.support", "--rank", "3",
                               "--seed", "0", "--max-iter", "18")
        assert code == 0
        (attempt,) = json.loads(out)["attempts"]
        assert attempt["certified"]

    def test_spectral_attempt_reads_no_seed(self, workdir, capsys):
        # Attempt 0 draws nothing from the stream: every seed writes the same
        # transcript apart from its params.
        run_cli(capsys, "examples", "prism", "--out", ".")
        transcripts = []
        for seed in ("0", "7", "123456789"):
            code, out, _ = run_cli(capsys, "search", "prism.support", "--rank", "4",
                                   "--seed", seed)
            assert code == 0
            transcript = json.loads(out)
            assert transcript.pop("params")["seed"] == int(seed)
            transcripts.append(transcript)
        assert transcripts[0] == transcripts[1] == transcripts[2]
        (attempt,) = transcripts[0]["attempts"]
        assert (attempt["index"], attempt["sdp_iterations"], attempt["sdp_converged"]) == (
            0, 1, False)

    @pytest.mark.parametrize("seed", ["0", "7"])
    @pytest.mark.parametrize("k", [25, 27, 31, 51, 101])
    def test_large_odd_gon_wins_at_the_spectral_attempt(self, workdir, capsys, k, seed):
        # Each call took 3-60 ms on a 2-vCPU host; the SDP attempts alone
        # lost the 25-gon at every seed 0-9 after 20 attempts (about 1.2 s).
        polygon = geometry.cone_over_polytope(data.regular_polygon_vertices(k))
        bits = patterns.support_of(geometry.slack_matrix(polygon).matrix).astype(np.uint8)
        search.save_support(workdir / "g.support", bits)
        start = time.perf_counter()
        code, out, _ = run_cli(capsys, "search", "g.support", "--rank", "3", "--seed", seed)
        wall = time.perf_counter() - start
        assert wall < 1.0, f"took {wall:.2f} s"
        assert code == 0
        (attempt,) = json.loads(out)["attempts"]
        assert attempt["index"] == 0 and attempt["certified"]

    def test_1000_point_support_ends_without_traceback(self, workdir, capsys):
        # Its involution search places 1 000 rows, past Python's default
        # recursion limit; its one attempt, the spectral start, stops after
        # REFINE_PATIENCE Gauss-Newton steps that raise max|F|.  The call took
        # 1.5-1.7 s on a 2-vCPU host, about 0.5 s of it in the involution search.
        search.save_support(workdir / "c.support", shuffled_cycle_complement(1000))
        start = time.perf_counter()
        code, _, err = run_cli(capsys, "search", "c.support", "--rank", "3",
                               "--max-iter", "1", "--retries", "1")
        wall = time.perf_counter() - start
        assert wall <= 2.0, f"took {wall:.2f} s"
        assert code in (cli.EXIT_PRECONDITION, cli.EXIT_NO_CONVERGENCE)
        assert "Traceback" not in err

    def test_300_point_diagonal_support_ends_without_traceback(self, workdir, capsys):
        # Every pair is off the support: 45 150 equations in 900 unknowns, so
        # refinement steps through J^T J.  The call took 0.17 s on a 2-vCPU
        # host.
        search.save_support(workdir / "e.support", np.eye(300, dtype=np.uint8))
        start = time.perf_counter()
        code, _, err = run_cli(capsys, "search", "e.support", "--rank", "3",
                               "--max-iter", "1", "--retries", "1")
        wall = time.perf_counter() - start
        assert wall <= 2.0, f"took {wall:.2f} s"
        assert code == cli.EXIT_NO_CONVERGENCE
        assert "Traceback" not in err

    def test_four_cycle_exit_3(self, workdir, capsys):
        search.save_support(workdir / "f.support", data.four_cycle_support().bits)
        code, _, err = run_cli(
            capsys, "search", "f.support", "--rank", "3", "--retries", "3"
        )
        assert code == cli.EXIT_NO_CONVERGENCE
        assert "no realization" in err

    @pytest.mark.parametrize("seed", ["0", "5"])
    def test_four_cycle_transcript(self, workdir, capsys, seed):
        # Every four-cycle refinement converges to a matrix with a negative
        # entry, and certify alone refuses each one at extraction.  The
        # failed run leaves no realization, not even an earlier run's.
        search.save_support(workdir / "f.support", data.four_cycle_support().bits)
        (workdir / "run").mkdir()
        (workdir / "run" / "f_realization.cone").write_text("stale\n")
        code, _, _ = run_cli(
            capsys, "search", "f.support", "--rank", "3", "--seed", seed, "--out", "run"
        )
        assert code == cli.EXIT_NO_CONVERGENCE
        assert not (workdir / "run" / "f_realization.cone").exists()
        transcript = json.loads((workdir / "run" / "f_transcript.json").read_text())
        assert transcript["success"] is False
        assert len(transcript["attempts"]) == 20
        for attempt in transcript["attempts"]:
            assert "nonnegative" not in attempt
            assert attempt["refine_converged"] is True
            assert attempt["certified"] is False
        # The spectral start I + A / 2 is nonnegative and already rank 3, but
        # its cone is not self-dual; every SDP attempt refines to a matrix
        # with a negative entry.
        spectral, *retries = transcript["attempts"]
        assert spectral["certify_reason"].startswith(
            "verification failed: dual generators do not match primal generators")
        for attempt in retries:
            assert attempt["certify_reason"] == (
                "extraction failed: matrix must be entrywise nonnegative")

    def test_failed_search_removes_stale_realization(self, workdir, capsys):
        search.save_support(workdir / "p.support", data.pentagon_support().bits)
        code, _, _ = run_cli(capsys, "search", "p.support", "--rank", "3", "--out", "o")
        assert code == 0 and (workdir / "o" / "p_realization.cone").exists()
        # The same stem, now a support with no rank-3 realization.
        search.save_support(workdir / "p.support", data.four_cycle_support().bits)
        code, _, _ = run_cli(
            capsys, "search", "p.support", "--rank", "3", "--retries", "1",
            "--max-iter", "1", "--out", "o",
        )
        assert code == cli.EXIT_NO_CONVERGENCE
        transcript = json.loads((workdir / "o" / "p_transcript.json").read_text())
        assert transcript["success"] is False
        assert not (workdir / "o" / "p_realization.cone").exists()

    @pytest.mark.parametrize("spoil", [math.nan, math.inf, -math.inf])
    def test_non_finite_refinement_is_null_in_the_transcript(
            self, workdir, capsys, monkeypatch, spoil):
        # The first Gauss-Newton step of the spectral attempt comes back
        # non-finite: refinement stagnates at a NaN max|F|, which the
        # transcript holds as null, and a later attempt still wins.
        solve, calls = np.linalg.solve, []

        def spoiled(a, b):
            calls.append(a.shape)
            return np.full(np.shape(b), spoil) if len(calls) == 1 else solve(a, b)

        monkeypatch.setattr(np.linalg, "solve", spoiled)
        search.save_support(workdir / "p.support", data.pentagon_support().bits)
        code, _, _ = run_cli(capsys, "search", "p.support", "--rank", "3")
        assert code == 0 and calls

        def refuse(constant):
            raise AssertionError(f"{constant} is not JSON")

        text = (workdir / "p_transcript.json").read_text()
        attempts = json.loads(text, parse_constant=refuse)["attempts"]
        assert attempts[0]["refine_affine_residual"] is None
        assert attempts[0]["refine_reason"] == "stagnation"
        assert attempts[-1]["certified"] and len(attempts) > 1

    def test_raising_search_removes_earlier_outputs(self, workdir, capsys):
        # A target rank above the support size raises inside run_pipeline,
        # before a transcript is written; the earlier success must not stay.
        search.save_support(workdir / "p.support", data.pentagon_support().bits)
        code, _, _ = run_cli(capsys, "search", "p.support", "--rank", "3", "--out", "o")
        assert code == 0 and (workdir / "o" / "p_realization.cone").exists()
        assert json.loads((workdir / "o" / "p_transcript.json").read_text())["success"]
        code, _, err = run_cli(capsys, "search", "p.support", "--rank", "9", "--out", "o")
        assert code == cli.EXIT_PRECONDITION and "exceeds the support size" in err
        assert not (workdir / "o" / "p_transcript.json").exists()
        assert not (workdir / "o" / "p_realization.cone").exists()

    def test_not_involutive_exit_2(self, workdir, capsys):
        (workdir / "bad.support").write_text("2\n11\n01\n")
        code, _, err = run_cli(capsys, "search", "bad.support", "--rank", "2")
        assert code == cli.EXIT_PRECONDITION
        assert "involutive" in err

    def test_bad_support_file_exit_4(self, workdir, capsys):
        (workdir / "bad.support").write_text("2\n1x\n01\n")
        code, _, _ = run_cli(capsys, "search", "bad.support", "--rank", "2")
        assert code == cli.EXIT_PARSE

    def test_negative_seed_exit_2(self, workdir, capsys):
        search.save_support(workdir / "f.support", data.four_cycle_support().bits)
        before = sorted(workdir.iterdir())
        code, out, err = run_cli(
            capsys, "search", "f.support", "--rank", "3", "--seed", "-1", "--out", "run"
        )
        assert code == cli.EXIT_PRECONDITION
        assert out == ""
        assert err == "precondition failure: seed must be >= 0\n"
        assert sorted(workdir.iterdir()) == before

    @pytest.mark.parametrize("flag, message", [
        (["--rank", "0"], "target_rank must be >= 1"),
        (["--seed", "-1"], "seed must be >= 0"),
        (["--retries", "0"], "retries must be >= 1"),
        (["--max-iter", "0"], "max_iter must be >= 1"),
    ], ids=["rank", "seed", "retries", "max-iter"])
    def test_bad_flag_refused_once_keeping_earlier_outputs(self, workdir, capsys,
                                                           flag, message):
        # A flag SearchParams refuses is one refusal for the whole command,
        # before any input runs, so no input removes its earlier outputs.
        for stem in ("p", "q"):
            search.save_support(workdir / f"{stem}.support", data.pentagon_support().bits)
        code, _, _ = run_cli(capsys, "search", "p.support", "q.support", "--rank", "3",
                             "--out", "o")
        assert code == 0
        before = {f.name: f.read_bytes() for f in (workdir / "o").iterdir()}
        assert len(before) == 4
        code, out, err = run_cli(capsys, "search", "p.support", "q.support", "--rank", "3",
                                 *flag, "--out", "o")
        assert (code, out, err) == (cli.EXIT_PRECONDITION, "",
                                    f"precondition failure: {message}\n")
        assert {f.name: f.read_bytes() for f in (workdir / "o").iterdir()} == before

    def test_rank_above_support_size_exit_2_before_any_sdp(self, workdir, capsys, monkeypatch):
        def no_sdp(*args):
            raise AssertionError("an SDP ran")

        monkeypatch.setattr(search, "_sdp_loop", no_sdp)
        run_cli(capsys, "examples", "pentagon", "--out", ".")
        before = sorted(workdir.iterdir())
        code, out, err = run_cli(
            capsys, "search", "pentagon.support", "--rank", "9", "--out", "run"
        )
        assert code == cli.EXIT_PRECONDITION
        assert out == ""
        assert err == "precondition failure: target rank 9 exceeds the support size 5\n"
        assert sorted(workdir.iterdir()) == before

    def test_transcript_size_does_not_grow_with_max_iter(self, workdir, capsys):
        search.save_support(workdir / "f.support", data.four_cycle_support().bits)
        keys = set()
        for max_iter in ("200", "2000", "8000"):
            code, _, _ = run_cli(
                capsys, "search", "f.support", "--rank", "3", "--seed", "5",
                "--max-iter", max_iter, "--out", max_iter,
            )
            assert code == cli.EXIT_NO_CONVERGENCE
            path = workdir / max_iter / "f_transcript.json"
            assert path.stat().st_size <= 16 * 1024
            attempts = json.loads(path.read_text())["attempts"]
            assert len(attempts) == 20
            for attempt in attempts:
                keys.add(frozenset(attempt))
                assert not any(isinstance(v, list) for v in attempt.values())
        assert len(keys) == 1


class TestParser:
    def test_built_once_with_independent_namespaces(self, monkeypatch):
        build, builds, seen = cli.build_parser, [], []

        def counted_build():
            builds.append(1)
            return build()

        def record(args, path):
            seen.append(args)
            return cli.EXIT_OK, ""

        monkeypatch.setattr(cli, "_parser", None)
        monkeypatch.setattr(cli, "build_parser", counted_build)
        monkeypatch.setattr(cli, "_run_one", record)
        assert cli.main(["analyze", "m.mat", "--rank", "3"]) == 0
        assert cli.main(["verify", "c.cone"]) == 0
        assert len(builds) == 1
        assert seen[0].command == "analyze" and seen[0].rank == 3
        assert seen[1].command == "verify" and not hasattr(seen[1], "rank")

    def test_search_defaults_are_search_params_defaults(self):
        args = cli.build_parser().parse_args(["search", "s.support", "--rank", "3"])
        params = search.SearchParams(target_rank=3)
        assert (args.seed, args.retries, args.max_iter) == (
            params.seed, params.retries, params.max_iter)


class TestBatch:
    def test_jobs_preserve_order(self, workdir, capsys):
        geometry.save_cone(workdir / "a.cone", np.eye(2))
        geometry.save_cone(workdir / "b.cone", np.eye(3))
        code, out, _ = run_cli(
            capsys, "verify", "a.cone", "b.cone"
        )
        assert code == 0
        # Outputs are printed in input order.
        assert out.index("a.cone") < out.index("b.cone")

    def test_determinism(self, workdir, capsys):
        search.save_support(workdir / "p.support", data.pentagon_support().bits)
        code1, out1, _ = run_cli(
            capsys, "search", "p.support", "--rank", "3", "--seed", "5", "--out", "r1"
        )
        code2, out2, _ = run_cli(
            capsys, "search", "p.support", "--rank", "3", "--seed", "5", "--out", "r2"
        )
        assert code1 == code2 == 0
        assert out1 == out2
        f1 = (workdir / "r1" / "p_realization.cone").read_bytes()
        f2 = (workdir / "r2" / "p_realization.cone").read_bytes()
        assert f1 == f2


def json_documents(text: str) -> list:
    """The JSON values printed one after another in text."""
    decoder, docs, pos = json.JSONDecoder(), [], 0
    while text[pos:].strip():
        pos += len(text[pos:]) - len(text[pos:].lstrip())
        doc, pos = decoder.raw_decode(text, pos)
        docs.append(doc)
    return docs


class TestMultipleInputs:
    def test_failing_input_keeps_other_outputs(self, workdir, capsys):
        geometry.save_matrix(workdir / "good.mat", data.pentagon_slack())
        geometry.save_matrix(workdir / "neg.mat", -np.eye(3))
        code, out, err = run_cli(
            capsys, "analyze", "good.mat", "missing.mat", "neg.mat", "good.mat",
            "--rank", "3",
        )
        # The largest exit code: parse error (4) over precondition failure (2).
        assert code == cli.EXIT_PARSE
        reports = json_documents(out)
        assert [r["input"]["path"] for r in reports] == ["good.mat", "good.mat"]
        assert all(r["results"]["selfdual_certification"]["certified"] for r in reports)
        lines = err.strip().splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("parse error:") and "missing.mat" in lines[0]
        assert lines[1].startswith("precondition failure:") and "nonnegative" in lines[1]

    def test_failure_alone_has_empty_stdout(self, workdir, capsys):
        code, out, err = run_cli(capsys, "analyze", "missing.mat", "--rank", "3")
        assert code == cli.EXIT_PARSE
        assert out == "" and err.startswith("parse error:")

    def test_jobs_keep_every_result(self, workdir, capsys):
        geometry.save_cone(workdir / "a.cone", np.eye(2))
        code, out, err = run_cli(capsys, "verify", "a.cone", "nope.cone", "a.cone")
        assert code == cli.EXIT_PARSE
        assert [d["input"] for d in json_documents(out)] == ["a.cone", "a.cone"]
        assert "nope.cone" in err

    @pytest.mark.parametrize("command", ["slack", "dual"])
    def test_one_out_file_for_several_inputs_rejected(self, workdir, capsys, command):
        geometry.save_cone(workdir / "a.cone", np.eye(3))
        geometry.save_cone(workdir / "b.cone", np.eye(2))
        code, out, err = run_cli(capsys, command, "a.cone", "b.cone", "--out", "x.mat")
        assert code == cli.EXIT_PRECONDITION
        assert out == ""
        assert "--out" in err and "2 inputs" in err
        assert not (workdir / "x.mat").exists()
        # One input with --out, or several without it, still run.
        code, _, _ = run_cli(capsys, command, "a.cone", "--out", "x.mat")
        assert code == 0 and (workdir / "x.mat").exists()
        code, out, _ = run_cli(capsys, command, "a.cone", "b.cone")
        assert code == 0 and out.count("\n") >= 2

    def test_search_outputs_of_one_stem_rejected(self, workdir, capsys):
        for sub in ("a", "b", "c"):
            (workdir / sub).mkdir()
            search.save_support(workdir / sub / "p.support", data.pentagon_support().bits)
        code, out, err = run_cli(capsys, "search", "a/p.support", "b/p.support",
                                 "--rank", "3", "--out", "o")
        assert code == cli.EXIT_PRECONDITION
        assert out == ""
        assert "--out" in err and "2 inputs" in err
        assert not (workdir / "o").exists()
        # Distinct stems write distinct files and still run.
        (workdir / "c" / "p.support").rename(workdir / "c" / "q.support")
        code, _, _ = run_cli(capsys, "search", "a/p.support", "c/q.support",
                             "--rank", "3", "--out", "o")
        assert code == 0
        assert sorted(f.name for f in (workdir / "o").iterdir()) == [
            "p_realization.cone", "p_transcript.json",
            "q_realization.cone", "q_transcript.json",
        ]


class TestFlagsPerSubcommand:
    @pytest.mark.parametrize("argv", [
        ["verify", "c.cone", "--json"],
        ["analyze", "m.mat", "--rank", "3", "--out", "o"],
        ["verify", "c.cone", "--jobs", "2"],
    ])
    def test_flag_of_another_subcommand_rejected(self, workdir, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == cli.EXIT_PRECONDITION
        assert "unrecognized arguments" in capsys.readouterr().err


class TestUnreadableInputs:
    @pytest.mark.parametrize("name, argv", [
        ("c.cone", ["verify"]),
        ("m.mat", ["analyze", "--rank", "3"]),
        ("p.support", ["search", "--rank", "3"]),
    ])
    @pytest.mark.parametrize("empty", [False, True])
    def test_missing_or_empty_file_exit_4(self, workdir, capsys, name, argv, empty):
        if empty:
            (workdir / name).write_text("\n  \n")
        code, out, err = run_cli(capsys, argv[0], name, *argv[1:])
        assert code == cli.EXIT_PARSE
        assert out == ""
        assert ("is empty" if empty else "cannot read") in err

    @pytest.mark.parametrize("name, kind, argv", [
        ("c.cone", "cone", ["verify"]),
        ("m.mat", "matrix", ["analyze", "--rank", "3"]),
        ("p.support", "support", ["search", "--rank", "3"]),
    ])
    def test_file_that_is_not_utf8_exit_4(self, workdir, capsys, name, kind, argv):
        (workdir / name).write_bytes(b"3 1\n1 0 \xff\n")
        code, out, err = run_cli(capsys, argv[0], name, *argv[1:])
        assert (code, out) == (cli.EXIT_PARSE, "")
        assert err == (f"parse error: cannot read {kind} file {name}: 'utf-8' codec "
                       "can't decode byte 0xff in position 8: invalid start byte\n")

    @pytest.mark.parametrize("name, text, argv, message", [
        ("c.cone", "3 0", ["verify"], "a cone needs at least one generator"),
        ("c.cone", "3 0", ["dual"], "a cone needs at least one generator"),
        ("c.cone", "3 0", ["slack"], "a cone needs at least one generator"),
        ("m.mat", "0 0", ["analyze", "--rank", "3"], "analyze expects a nonempty matrix"),
        ("p.support", "0", ["search", "--rank", "3"],
         "target rank 3 exceeds the support size 0"),
    ])
    def test_header_without_rows_reaches_the_command_exit_2(
        self, workdir, capsys, name, text, argv, message
    ):
        (workdir / name).write_text(text + "\n")
        code, out, err = run_cli(capsys, argv[0], name, *argv[1:])
        assert code == cli.EXIT_PRECONDITION
        assert out == ""
        assert err == f"precondition failure: {message}\n"

    # A negative row count is refused as a bad header too, before any row
    # is counted.
    @pytest.mark.parametrize("name, text", [
        ("c.cone", "-1 0"), ("m.mat", "0 -1"),
        ("c.cone", "2 -1"), ("m.mat", "2 -3"), ("p.support", "-3"),
    ])
    def test_negative_width_without_rows_exit_4(self, workdir, capsys, name, text):
        (workdir / name).write_text(text + "\n")
        cmd = {".cone": ["verify"], ".mat": ["analyze", "--rank", "3"],
               ".support": ["search", "--rank", "3"]}[Path(name).suffix]
        code, out, err = run_cli(capsys, cmd[0], name, *cmd[1:])
        assert code == cli.EXIT_PARSE
        assert out == ""
        assert f"bad header {text!r}" in err


# A valid two-row file of each kind: its name, the command line that reads
# it (writing its output under the work directory, were it to get that far),
# its header and its rows.
PARSE_KINDS = {
    "cone": ("c.cone", ["slack", "c.cone", "--out", "s.mat"], "2 2", ["1 0", "0 1"]),
    "matrix": ("m.mat", ["analyze", "m.mat", "--rank", "2"], "2 2", ["1 0", "0 1"]),
    "support": ("p.support", ["search", "p.support", "--rank", "2", "--out", "o"],
                "2", ["11", "11"]),
}
# Per kind: a row one entry too wide, a row with a bad entry, and the
# refusal of each.
PARSE_ROWS = {
    "cone": ("1 0 0", "1 x", "expected 2 values per row, found 3", "bad value in '1 x'"),
    "matrix": ("1 0 0", "1 x", "expected 2 values per row, found 3", "bad value in '1 x'"),
    "support": ("111", "12", "rows must be 2 characters of 0/1",
                "rows must be 2 characters of 0/1"),
}


def parse_faults():
    """(kind, file bytes or None for no file, its stderr line) for every kind
    and every way its file can be refused, with a pytest id."""
    def lines(*rows):
        return ("\n".join(rows) + "\n").encode()

    for kind, (name, _, head, rows) in PARSE_KINDS.items():
        wide, bad, wide_why, bad_why = PARSE_ROWS[kind]
        at = f"{kind} file {name}"
        cases = {
            "unreadable": (None, f"cannot read {at}: [Errno 2] No such file or "
                                 f"directory: '{name}'"),
            "not-utf8": (b"\xff\n", f"cannot read {at}: 'utf-8' codec can't decode "
                                   "byte 0xff in position 0: invalid start byte"),
            "empty": (b"", f"{at} is empty"),
        }
        for fault, header in [("header-fields", head + " 2"),
                              ("header-not-integer", "2.0" + head[1:]),
                              ("header-negative", "-" + head),
                              ("header-underscore", "0_2" + head[1:]),
                              ("header-arabic-indic", "\u0662" + head[1:])]:
            cases[fault] = (lines(header, *rows), f"{at}: bad header {header!r}")
        cases.update({
            "too-few-rows": (lines(head, rows[0]), f"{at}: expected 2 rows, found 1"),
            "too-many-rows": (lines(head, *rows, rows[0]),
                              f"{at}: expected 2 rows, found 3"),
            "row-width": (lines(head, rows[0], wide), f"{at}: {wide_why}"),
            "bad-value": (lines(head, rows[0], bad), f"{at}: {bad_why}"),
        })
        for fault, value in [("value-underscore", "1_0"), ("value-arabic-indic", "\u0661")]:
            row = value + rows[1][1:] if kind == "support" else value + " 1"
            why = bad_why if kind == "support" else f"bad value in {row!r}"
            cases[fault] = (lines(head, rows[0], row), f"{at}: {why}")
        for fault, (content, message) in cases.items():
            yield pytest.param(kind, content, message, id=f"{kind}-{fault}")


class TestParseRefusals:
    @pytest.mark.parametrize("kind, content, message", list(parse_faults()))
    def test_refused_with_one_line_exit_4(self, workdir, capsys, kind, content, message):
        name, argv, _, _ = PARSE_KINDS[kind]
        if content is not None:
            (workdir / name).write_bytes(content)
        before = sorted(workdir.rglob("*"))
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (cli.EXIT_PARSE, "")
        assert err == f"parse error: {message}\n"
        assert sorted(workdir.rglob("*")) == before

    @pytest.mark.parametrize("kind", sorted(PARSE_KINDS))
    def test_byte_order_mark_is_skipped(self, workdir, capsys, kind):
        # A UTF-8 byte-order mark, as some editors write it, reads as the
        # file without it.
        name, argv, head, rows = PARSE_KINDS[kind]
        text = "\n".join([head, *rows]) + "\n"
        load = {"cone": lambda p: geometry.load_cone(p).generators,
                "matrix": geometry.load_matrix, "support": geometry.load_support}[kind]
        (workdir / name).write_text(text)
        plain = load(workdir / name)
        (workdir / name).write_bytes(b"\xef\xbb\xbf" + text.encode())
        assert np.array_equal(load(workdir / name), plain)
        _, _, err = run_cli(capsys, *argv)
        assert "parse error" not in err

    @pytest.mark.parametrize("kind", sorted(PARSE_KINDS))
    def test_valid_file_passes_the_reader(self, workdir, capsys, kind):
        # The faults above are each one change away from a file that parses.
        name, argv, head, rows = PARSE_KINDS[kind]
        (workdir / name).write_text("\n".join([head, *rows]) + "\n")
        _, _, err = run_cli(capsys, *argv)
        assert "parse error" not in err


def scaled_pentagon(how: str) -> np.ndarray:
    rays = data.pentagon_rays()
    if how == "one row x 1e200":
        rays[2] *= 1e200
        return rays
    return float(how) * rays


class TestExtremeMagnitudes:
    """Generators far outside the ordinary floating-point range give the
    answers of the unscaled cone."""

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("how", ["1e200", "1e154", "1e-160", "1e-200",
                                     "one row x 1e200"])
    def test_verify_slack_dual_match_unscaled(self, workdir, capsys, how):
        geometry.save_cone(workdir / "base.cone", data.pentagon_rays())
        geometry.save_cone(workdir / "scaled.cone", scaled_pentagon(how))
        results = {}
        for name in ("base", "scaled"):
            runs = [run_cli(capsys, *argv, f"{name}.cone")
                    for argv in (["verify"], ["slack", "--json"], ["dual"])]
            assert [(code, err) for code, _, err in runs] == [(0, "")] * 3
            results[name] = [out for _, out, _ in runs]
        (verify, slack, dual), (verify2, slack2, dual2) = results["base"], results["scaled"]
        cert, cert2 = json.loads(verify)["certificate"], json.loads(verify2)["certificate"]
        assert json.loads(verify2)["self_dual"] is json.loads(verify)["self_dual"] is True
        assert cert2["permutation"] == cert["permutation"]
        assert np.abs(np.subtract(cert2["scaling"], cert["scaling"])).max() <= 1e-12
        assert abs(cert2["min_eigenvalue"] - cert["min_eigenvalue"]) <= 1e-12
        m, m2 = (np.asarray(json.loads(s)["matrix"]) for s in (slack, slack2))
        assert m2.shape == m.shape == (5, 5)
        assert np.abs(m2 - m).max() <= 1e-12
        lines, lines2 = dual.splitlines(), dual2.splitlines()
        assert lines2[0] == lines[0] == "3 5"
        rows, rows2 = (np.loadtxt(x[1:], ndmin=2) for x in (lines, lines2))
        assert np.abs(rows2 - rows).max() <= 1e-12


class TestUnwritableOutputs:
    """An output path that cannot be written is a typed failure: exit 4,
    a message on stderr and nothing on stdout."""

    @pytest.mark.parametrize("argv", [
        ["dual", "pentagon_rays.cone", "--out", "a_dir"],
        ["slack", "pentagon_rays.cone", "--out", "a_dir"],
        ["search", "pentagon.support", "--rank", "3", "--out", "a_file"],
        ["examples", "pentagon", "--out", "a_file"],
        ["dual", "pentagon_rays.cone", "--out", "a_file/x.cone"],
    ])
    def test_exit_4_without_traceback(self, workdir, capsys, argv):
        run_cli(capsys, "examples", "pentagon", "--out", ".")
        (workdir / "a_dir").mkdir()
        (workdir / "a_file").write_text("kept\n")
        code, out, err = run_cli(capsys, *argv)
        assert code == cli.EXIT_PARSE
        assert out == ""
        assert err.startswith("cannot write output:") and "a_" in err
        assert "Traceback" not in err
        assert (workdir / "a_file").read_text() == "kept\n"

    @pytest.mark.parametrize("sink", ["closed pipe", "/dev/full"])
    def test_stdout_that_cannot_be_written(self, workdir, capsys, sink):
        # A pipe whose read end is closed before the command writes (EPIPE),
        # or a full device (ENOSPC): one message, no traceback, and nothing
        # left for the interpreter's own flush at exit.
        if sink == "/dev/full" and not Path(sink).exists():
            pytest.skip("no /dev/full")
        run_cli(capsys, "examples", "pentagon", "--out", ".")
        argv = ["-m", "sdcones.cli", "dual", "pentagon_rays.cone"]
        if sink == "/dev/full":
            with open(sink, "w") as full:
                proc = run_python(*argv, stdout=full)
        else:
            read, write = os.pipe()
            os.close(read)
            try:
                proc = run_python(*argv, stdout=write)
            finally:
                os.close(write)
        assert proc.returncode == cli.EXIT_PARSE, proc.stderr
        assert proc.stderr.startswith("cannot write output:")
        assert proc.stderr.count("\n") == 1, proc.stderr


# The conversion slack --json, verify and search used before the one JSON
# writer (analysis.to_json): _json_ready as it was, applied field by field,
# then json.dumps.  It is the byte oracle for the writer.
def _parent_json_ready(obj):
    if isinstance(obj, dict):
        return {str(k): _parent_json_ready(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_parent_json_ready(v) for v in obj]
    if isinstance(obj, (np.ndarray, np.generic)):
        return _parent_json_ready(obj.tolist())
    if isinstance(obj, float) and (obj != obj):
        return None
    return obj


def _parent_dumps(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2)


def oracle_slack_json(path: str) -> str:
    sm = geometry.slack_matrix(geometry.load_cone(path))
    return _parent_dumps({
        "cone_dim": sm.cone_dim,
        "row_labels": list(range(sm.shape[0])),
        "col_labels": list(range(sm.shape[1])),
        "matrix": _parent_json_ready(sm.matrix),
    })


def oracle_verify(path: str) -> str:
    ok, cert = selfdual.is_self_dual(geometry.load_cone(path))
    payload = {"input": path, "self_dual": bool(ok), "version": __version__,
               "certificate": None}
    if cert is not None:
        payload["certificate"] = {
            "permutation": _parent_json_ready(cert.permutation),
            "scaling": _parent_json_ready(cert.scaling),
            "min_eigenvalue": cert.min_eigenvalue,
        }
    return _parent_dumps(payload)


def oracle_transcript(path: str, result: search.PipelineResult) -> str:
    payload = {
        "input": path,
        "version": __version__,
        "params": dict(vars(result.params)),
        "success": result.success,
        "failure": result.failure,
        "sisd_permutation": _parent_json_ready(result.sisd_permutation),
    }
    if result.retry is not None:
        payload["attempts"] = [_parent_json_ready(vars(a)) for a in result.retry.attempts]
        if result.retry.matrix is not None:
            payload["refined_matrix"] = _parent_json_ready(result.retry.matrix)
    if result.realization is not None:
        payload["realization"] = {
            "dim": result.realization.dim,
            "generators": _parent_json_ready(result.realization.generators),
            "residuals": _parent_json_ready(result.realization.residuals),
        }
    if result.verification is not None:
        report = result.verification
        payload["verification"] = dict(vars(report), passed=report.passed)
    return _parent_dumps(payload)


ORACLE_CONES = {
    "pentagon": data.pentagon_rays(),
    "prism": data.prism_rays(),
    "orthant": np.eye(3),
    "square": [[1, 1, 1], [1, 1, -1], [1, -1, 1], [1, -1, -1]],
}


class TestJsonWriterBytes:
    """slack --json, verify and search print and write exactly the oracle's
    bytes."""

    @pytest.mark.parametrize("name", sorted(ORACLE_CONES))
    def test_slack_json_and_verify(self, workdir, capsys, name):
        geometry.save_cone(workdir / "c.cone", np.asarray(ORACLE_CONES[name], float))
        assert run_cli(capsys, "slack", "c.cone", "--json") == (
            0, oracle_slack_json("c.cone") + "\n", "")
        code, out, err = run_cli(capsys, "verify", "c.cone")
        assert (code, out, err) == (0, oracle_verify("c.cone") + "\n", "")
        assert json.loads(out)["self_dual"] is (name != "square")

    @pytest.mark.parametrize("name, support, code", [
        ("pentagon", data.pentagon_support, cli.EXIT_OK),
        ("four-cycle", data.four_cycle_support, cli.EXIT_NO_CONVERGENCE),
    ])
    def test_search_transcript(self, workdir, capsys, monkeypatch, name, support, code):
        search.save_support(workdir / "s.support", support().bits)
        results, pipeline = [], search.run_pipeline

        def recorded(*args, **kwargs):
            results.append(pipeline(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr(search, "run_pipeline", recorded)
        got = run_cli(capsys, "search", "s.support", "--rank", "3", "--retries", "3",
                      "--out", "run")
        expected = oracle_transcript("s.support", results[0]) + "\n"
        assert got[0] == code
        assert got[1] == (expected if code == cli.EXIT_OK else "")
        assert (workdir / "run" / "s_transcript.json").read_bytes() == expected.encode()


class TestOutputsCheckedFirst:
    """An output path that cannot be written fails its input before any of
    the input's work runs, and the check creates nothing."""

    def test_search_out_file_runs_no_pipeline(self, workdir, capsys, monkeypatch):
        calls = []
        monkeypatch.setattr(search, "run_pipeline", lambda *args: calls.append(args))
        run_cli(capsys, "examples", "pentagon", "--out", ".")
        (workdir / "a_file").write_text("kept\n")
        before = sorted(workdir.iterdir())
        for out in ("a_file", "a_file/sub"):
            code, stdout, err = run_cli(capsys, "search", "pentagon.support",
                                        "--rank", "3", "--out", out)
            assert (code, stdout) == (cli.EXIT_PARSE, "")
            assert err.startswith("cannot write output:") and "a_file" in err
        assert calls == []
        assert sorted(workdir.iterdir()) == before
        assert (workdir / "a_file").read_text() == "kept\n"

    @pytest.mark.parametrize("command", ["slack", "dual"])
    @pytest.mark.parametrize("out", ["a_dir", "a_file/x", "a_file/sub/x"])
    def test_unwritable_out_runs_no_facet_scan(self, workdir, capsys, monkeypatch,
                                               command, out):
        scans = []
        monkeypatch.setattr(geometry, "_facet_scan", lambda *args: scans.append(args))
        geometry.save_cone(workdir / "p.cone", data.pentagon_rays())
        (workdir / "a_dir").mkdir()
        (workdir / "a_file").write_text("kept\n")
        before = sorted(workdir.iterdir())
        code, stdout, err = run_cli(capsys, command, "p.cone", "--out", out)
        assert (code, stdout) == (cli.EXIT_PARSE, "")
        assert err.startswith("cannot write output:") and out in err
        assert scans == []
        assert sorted(workdir.iterdir()) == before
        assert (workdir / "a_file").read_text() == "kept\n"

    @pytest.mark.parametrize("command", ["slack", "dual"])
    @pytest.mark.parametrize("out", ["nodir/x", "nodir/sub/x"])
    def test_missing_directory_runs_no_facet_scan(self, workdir, capsys, monkeypatch,
                                                  command, out):
        # slack and dual write into an existing directory; only search makes
        # its --out directory.
        scans = []
        monkeypatch.setattr(geometry, "_facet_scan", lambda *args: scans.append(args))
        geometry.save_cone(workdir / "p.cone", data.pentagon_rays())
        before = sorted(workdir.iterdir())
        code, stdout, err = run_cli(capsys, command, "p.cone", "--out", out)
        assert (code, stdout) == (cli.EXIT_PARSE, "")
        assert err == f"cannot write output: [Errno 2] No such file or directory: '{out}'\n"
        assert scans == []
        assert sorted(workdir.iterdir()) == before


class TestOutNamesAnInput:
    """An --out that resolves to an input path is refused before anything
    runs: exit 2, nothing written, the input's bytes kept."""

    @pytest.mark.parametrize("command", ["slack", "dual"])
    @pytest.mark.parametrize("inputs, out", [
        (["p.cone"], "p.cone"),
        (["p.cone"], "./p.cone"),
        (["p.cone"], "absolute"),
        (["sub/../p.cone"], "p.cone"),
    ])
    def test_slack_and_dual_refused(self, workdir, capsys, command, inputs, out):
        geometry.save_cone(workdir / "p.cone", data.pentagon_rays())
        geometry.save_cone(workdir / "o.cone", np.eye(3))
        (workdir / "sub").mkdir()
        if out == "absolute":
            out = str(workdir / "p.cone")
        before = {f: f.read_bytes() for f in workdir.iterdir() if f.is_file()}
        code, stdout, err = run_cli(capsys, command, *inputs, "--out", out)
        assert (code, stdout) == (cli.EXIT_PRECONDITION, "")
        assert err.startswith("precondition failure:") and "overwrite the input" in err
        assert {f: f.read_bytes() for f in workdir.iterdir() if f.is_file()} == before

    def test_search_output_naming_another_input_refused(self, workdir, capsys):
        search.save_support(workdir / "p.support", data.pentagon_support().bits)
        search.save_support(workdir / "p_transcript.json", data.pentagon_support().bits)
        before = {f: f.read_bytes() for f in workdir.iterdir()}
        code, stdout, err = run_cli(capsys, "search", "p.support", "p_transcript.json",
                                    "--rank", "3")
        assert (code, stdout) == (cli.EXIT_PRECONDITION, "")
        assert "overwrite the input p_transcript.json" in err
        assert {f: f.read_bytes() for f in workdir.iterdir()} == before

    @pytest.mark.parametrize("link", [os.link, os.symlink], ids=["hard", "symbolic"])
    @pytest.mark.parametrize("command", ["slack", "dual"])
    def test_out_linked_to_the_input_refused(self, workdir, capsys, command, link):
        # A hard link shares the input's inode under another spelling, which
        # no resolving of the path sees.
        geometry.save_cone(workdir / "a.cone", data.pentagon_rays())
        link(workdir / "a.cone", workdir / "b.mat")
        before = (workdir / "a.cone").read_bytes()
        code, stdout, err = run_cli(capsys, command, "a.cone", "--out", "b.mat")
        assert (code, stdout) == (cli.EXIT_PRECONDITION, "")
        assert "--out b.mat would overwrite the input a.cone" in err
        assert (workdir / "a.cone").read_bytes() == before
