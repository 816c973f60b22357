"""Modules that judge the same candidate slack must agree on it.

Every entry point that takes a candidate slack matrix reads its signs by one
rule, patterns.slack_support: an entry at most SUPPORT_CLAMP times the
largest counts as a zero whatever its sign, and a negative entry beyond that
refuses the matrix, with one message.  Each bundled PSD slack below gets one
symmetric pair of its zeros set to -c times its largest entry, and six
callers from four modules must accept it exactly when c is at most
SUPPORT_CLAMP, and otherwise refuse it as the patterns module docstring
says: certify_psd_slack and search.certify return the message, the others
raise it.

They must also agree on whether a candidate is PSD, and so on the verdict:
certify_psd_slack is analyze's certification at its default tol, and
dnn.is_dnn is analyze's DNN test at every tol.

A slack built from a cone takes its zeros from the cone's incidence at tol
instead, and certify_slack compares that incidence with the target support.
It must give the verdict of the rule it replaced, ratios to the slack's
largest entry at tol, on the cones the benchmark's searches certify and on
perturbed factor cones.
"""

from __future__ import annotations

import numpy as np
import pytest

from sdcones import analysis, data, dnn, geometry, linalg, patterns, search, selfdual
from sdcones.errors import PreconditionError

REFUSAL = "matrix must be entrywise nonnegative"

SLACKS = {
    "pentagon": (data.pentagon_slack(), 3),
    "prism": (data.prism_slack(), 4),
    "congruence_b": (data.congruence_triple()[1], 4),
}
# Below, near and above SUPPORT_CLAMP = 1e-10, and far above it.
RATIOS = [1e-17, 1e-12, 5e-11, 2e-10, 1e-3]


def realizes(m: np.ndarray, d: int, pattern: patterns.SupportPattern) -> bool:
    return search.verify_realization(search.extract_realization(m, d), pattern).passed


CALLERS = {
    "slack_necessary_check": lambda m, d, _: geometry.slack_necessary_check(m, d)[0],
    "find_psd_scaling": lambda m, d, _: selfdual.find_psd_scaling(m) is not None,
    "certify_psd_slack": lambda m, d, _: selfdual.certify_psd_slack(m, d)[0],
    "analyze_matrix": lambda m, d, _: analysis.analyze_matrix(
        m, d, linalg.PSD_TOL, "m.mat").results["selfdual_certification"]["certified"],
    "extract_and_verify": realizes,
    "search_certify": lambda m, d, pattern: search.certify(
        m, pattern, d, geometry.DEFAULT_FACET_TOL)[0] is not None,
}


def perturbed(name: str, c: float) -> tuple[np.ndarray, int, patterns.SupportPattern]:
    """The named slack with its first upper-triangle zero and its mirror set
    to -c times the largest entry, its rank and its unperturbed support."""
    m, d = SLACKS[name]
    i, j = np.argwhere(np.triu(m == 0.0))[0]
    x = m.copy()
    x[i, j] = x[j, i] = -c * m.max()
    return x, d, patterns.SupportPattern.from_matrix(m)


@pytest.mark.parametrize("caller", sorted(CALLERS))
@pytest.mark.parametrize("c", RATIOS)
@pytest.mark.parametrize("name", sorted(SLACKS))
def test_one_sign_rule(name, c, caller):
    m, d, pattern = perturbed(name, c)
    run = CALLERS[caller]
    if c <= patterns.SUPPORT_CLAMP:
        assert run(m, d, pattern)
    elif caller == "certify_psd_slack":
        assert selfdual.certify_psd_slack(m, d) == (False, REFUSAL)
    elif caller == "search_certify":
        assert search.certify(m, pattern, d, geometry.DEFAULT_FACET_TOL) == (
            None, None, "extraction failed: " + REFUSAL)
    else:
        with pytest.raises(PreconditionError) as info:
            run(m, d, pattern)
        assert str(info.value) == REFUSAL


def test_analyze_counts_entries_off_the_support_as_zeros_at_any_tol():
    # The orthant's slack with one pair of zeros at -5e-11: off the support,
    # so a zero, even at a tol below SUPPORT_CLAMP, for dnn.is_dnn too.
    m = np.eye(4)
    m[0, 1] = m[1, 0] = -5e-11
    for tol in (1e-12, 1e-9):
        results = analysis.analyze_matrix(m, 4, tol, "m.mat").results
        assert results["psd"]["value"] and results["dnn"]["value"]
        assert dnn.is_dnn(m, tol) == results["dnn"]["value"]
        assert results["selfdual_certification"]["certified"]


def indefinite(name: str, eps: float) -> tuple[np.ndarray, int]:
    """The named slack minus eps * max * (support o u u^T), u its smallest
    eigenvector: the same support, and a smallest eigenvalue near
    -eps * max, so PSD at PSD_TOL for the smallest eps only."""
    m, d = SLACKS[name]
    u = np.linalg.eigh(m)[1][:, 0]
    return m - eps * m.max() * (patterns.support_of(m) * np.outer(u, u)), d


@pytest.mark.parametrize("eps", [1e-9, 5e-9, 2e-8, 1e-7])
@pytest.mark.parametrize("name", sorted(SLACKS))
def test_one_psd_verdict(name, eps):
    m, d = indefinite(name, eps)
    results = analysis.analyze_matrix(m, d, linalg.PSD_TOL, "m.mat").results
    cert = results["selfdual_certification"]
    assert selfdual.certify_psd_slack(m, d) == (cert["certified"], cert["detail"])
    assert dnn.is_dnn(m) == results["dnn"]["value"] == (eps == 1e-9)


# The supports the search benchmark runs, with their ranks; the four-cycle
# has no rank-3 realization, and every attempt at it is refused before
# certify_slack.
BENCH_SUPPORTS = {
    "pentagon": (data.pentagon_support().bits, 3),
    "prism": (data.prism_support().bits, 4),
    "selfpolar10": (data.ten_support().bits, 4),
    "gon7": (patterns.support_of(geometry.slack_matrix(geometry.cone_over_polytope(
        data.regular_polygon_vertices(7))).matrix).astype(np.uint8), 3),
    "fourcycle": (data.four_cycle_support().bits, 3),
}


def ratio_rule(cone: geometry.PolyhedralCone, mask: np.ndarray, tol: float) -> bool:
    """certify_slack's verdict when it judged the aligned slack by ratios to
    its largest entry: every off-support |ratio| at most tol and every
    on-support ratio above tol."""
    trip = geometry.dual_round_trip(cone, tol)
    if trip.mapping is None:
        return False
    ratios = trip.slack / trip.slack.max()
    return bool(np.abs(ratios[~mask]).max(initial=0.0) <= tol and ratios[mask].min() > tol)


def judged_cones(monkeypatch) -> list:
    """The (cone, support mask, tol, report) of every certify_slack call
    the bench supports' searches make at seeds 0 to 3."""
    calls = []
    certify_slack = selfdual.certify_slack

    def recorded(cone, support, tol):
        report = certify_slack(cone, support, tol)
        calls.append((cone, np.asarray(support, dtype=bool), tol, report))
        return report

    monkeypatch.setattr(selfdual, "certify_slack", recorded)
    for bits, rank in BENCH_SUPPORTS.values():
        for seed in range(4):
            search.run_pipeline(bits, search.SearchParams(target_rank=rank, seed=seed))
    return calls


def test_incidence_rule_agrees_with_the_ratio_rule_on_search_realizations(monkeypatch):
    calls = judged_cones(monkeypatch)
    # One certified realization per realizable support and seed.
    assert sum(report.passed for *_, report in calls) == 16
    for cone, mask, tol, report in calls:
        assert report.passed == ratio_rule(cone, mask, tol)
        if report.passed:
            # Columns aligned through the round trip's match, the zeros of
            # the realization's slack are the target support's.
            sm = geometry.slack_matrix(cone, tol)
            trip = geometry.dual_round_trip(cone, tol)
            aligned = np.zeros_like(sm.matrix)
            aligned[:, trip.mapping] = sm.matrix
            assert np.array_equal(aligned == 0.0, ~mask)


@pytest.mark.parametrize("name", ["pentagon", "prism"])
def test_incidence_rule_agrees_with_the_ratio_rule_on_perturbed_factor_cones(name):
    m, d = SLACKS[name]
    mask = patterns.support_of(m)
    cone = geometry.cone_from_factorization(m, d)
    rng = np.random.default_rng(41)
    tol = geometry.DEFAULT_FACET_TOL
    verdicts = []
    for scale in (1e-12, 1e-9, 1e-8, 3e-8, 1e-7, 3e-7, 1e-6, 1e-3):
        for _ in range(5):
            moved = geometry.PolyhedralCone(
                cone.generators + scale * rng.normal(size=cone.generators.shape))
            report = selfdual.certify_slack(moved, mask, tol)
            assert report.passed == ratio_rule(moved, mask, tol)
            verdicts.append(report.passed)
    assert any(verdicts) and not all(verdicts)
