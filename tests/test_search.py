from __future__ import annotations

import functools
import itertools
import json
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.sparse import csgraph

from sdcones import data, dnn, geometry, linalg, patterns, search, selfdual
from sdcones.errors import ConvergenceError, ParseError, PreconditionError

from conftest import equal_up_to_scaling


def brute_force_sisd(s: np.ndarray):
    """All-permutations oracle for the involutive support condition."""
    n = s.shape[0]
    for perm in itertools.permutations(range(n)):
        if all(s[i, perm[i]] == 1 for i in range(n)) and all(
            s[i, perm[j]] == s[j, perm[i]] for i in range(n) for j in range(i + 1, n)
        ):
            return perm
    return None


def all_involutions_brute_force(s: np.ndarray) -> list[tuple[int, ...]]:
    """Every permutation meeting the involutive support condition, filtered
    from itertools.permutations and so in lexicographic order."""
    n = s.shape[0]
    perms = np.array(list(itertools.permutations(range(n))), dtype=int)
    # placed[p, i, j] = s[i, perm_p[j]]
    placed = s[np.arange(n)[None, :, None], perms[:, None, :]]
    symmetric = (placed == placed.transpose(0, 2, 1)).all(axis=(1, 2))
    unit_diagonal = (np.diagonal(placed, axis1=1, axis2=2) == 1).all(axis=1)
    return [tuple(int(c) for c in p) for p in perms[symmetric & unit_diagonal]]


def fixed_order_involutions(s: np.ndarray) -> list[tuple[int, ...]]:
    """The enumeration the smallest-domain-first search replaced: the same
    initial domains and forward checking, rows placed in the fixed order
    0..n-1 and columns in increasing order, so the permutations come out in
    lexicographic order without sorting.  No node budget."""
    n = s.shape[0]
    row_counts = s.sum(axis=1)
    col_counts = s.sum(axis=0)
    row_profile = [tuple(sorted(col_counts[np.nonzero(s[j])[0]])) for j in range(n)]
    col_profile = [tuple(sorted(row_counts[np.nonzero(s[:, c])[0]])) for c in range(n)]
    same_profile = np.array(
        [[cp == rp for cp in col_profile] for rp in row_profile], dtype=bool
    ).reshape(n, n)
    domain = (s == 1) & (row_counts[:, None] == col_counts[None, :]) & same_profile
    sigma = [-1] * n
    found = []

    def extend(j: int, dom: np.ndarray):
        # dom[r - j] holds the columns still open to row r >= j.
        if j == n:
            found.append(tuple(sigma))
            return
        for c in np.flatnonzero(dom[0]):
            rest = dom[1:] & (s[j] == s[j + 1:, c, None])
            rest[:, c] = False
            if rest.any(axis=1).all():
                sigma[j] = int(c)
                extend(j + 1, rest)

    extend(0, domain)
    return found


def polygon_support(k: int) -> np.ndarray:
    """The transposed support of the regular k-gon cone's slack matrix, as
    find_psd_scaling enumerates it."""
    cone = geometry.cone_over_polytope(data.regular_polygon_vertices(k))
    return patterns.support_of(geometry.slack_matrix(cone).matrix).astype(np.uint8).T


@st.composite
def involution_patterns(draw, max_n: int = 7):
    """Random 0/1 patterns, half of them symmetric with a unit diagonal and
    shuffled columns, so that non-empty enumerations are common."""
    n = draw(st.integers(1, max_n))
    bits = draw(hnp.arrays(np.uint8, (n, n), elements=st.integers(0, 1)))
    if draw(st.booleans()):
        bits = np.triu(bits, 1)
        bits = bits | bits.T
        np.fill_diagonal(bits, 1)
        bits = bits[:, draw(st.permutations(range(n)))]
    return bits


@st.composite
def symmetric_patterns(draw):
    """Symmetric 0/1 patterns with a unit diagonal, n <= 8, columns shuffled:
    random ones, and disjoint all-ones blocks (at most 4 rows each) with
    random symmetric entries between blocks.  Blocks of different sizes give
    rows of different domain sizes and several permutations, so the
    smallest-domain-first order differs from the lexicographic one."""
    n = draw(st.integers(1, 8))
    bits = np.triu(draw(hnp.arrays(np.uint8, (n, n), elements=st.integers(0, 1))), 1)
    if draw(st.booleans()):
        sizes = []
        while sum(sizes) < n:
            sizes.append(draw(st.integers(1, min(4, n - sum(sizes)))))
        bits = bits * draw(st.integers(0, 1))
        start = 0
        for size in sizes:
            bits[start:start + size, start:start + size] = 1
            start += size
        bits = np.triu(bits, 1)
    bits = bits | bits.T
    np.fill_diagonal(bits, 1)
    return bits[:, draw(st.permutations(range(n)))]


def random_01_pattern(rng: np.random.Generator, n: int) -> np.ndarray:
    while True:
        s = (rng.uniform(size=(n, n)) < rng.uniform(0.3, 0.8)).astype(np.uint8)
        if s.sum(axis=1).min() > 0 and s.sum(axis=0).min() > 0:
            return s


class TestSupportPattern:
    def test_validation(self):
        with pytest.raises(PreconditionError):
            search.SupportPattern(np.array([[1, 1], [0, 1]]))
        with pytest.raises(PreconditionError):
            search.SupportPattern(np.array([[0, 1], [1, 0]]))
        with pytest.raises(PreconditionError):
            search.SupportPattern(np.array([[1, 2], [2, 1]]))

    def test_from_matrix(self, pentagon_slack):
        p = search.SupportPattern.from_matrix(pentagon_slack)
        assert p.n == 5
        assert p.bits[0, 1] == 1 and p.bits[0, 2] == 0


class TestSisdCheck:
    def test_pentagon_identity(self):
        sigma = search.sisd_check(data.pentagon_support().bits)
        assert np.array_equal(sigma, np.arange(5))

    def test_identity_pattern(self):
        sigma = search.sisd_check(np.eye(6, dtype=int))
        assert np.array_equal(sigma, np.arange(6))

    def test_column_permuted_pentagon(self):
        rng = np.random.default_rng(61)
        bits = data.pentagon_support().bits
        tau = rng.permutation(5)
        shuffled = bits[:, tau]
        sigma = search.sisd_check(shuffled)
        assert sigma is not None
        fixed = shuffled[:, sigma]
        assert np.array_equal(fixed, fixed.T)
        assert np.all(np.diag(fixed) == 1)

    def test_dense_symmetric_support_is_the_identity(self):
        # Every one of the 10! permutations is involutive here, far over the
        # node budget, but the identity is already the first of them.
        sigma = search.sisd_check(np.ones((10, 10), dtype=int))
        assert np.array_equal(sigma, np.arange(10))

    def test_four_cycle_pattern_has_permutation(self):
        sigma = search.sisd_check(data.four_cycle_support().bits)
        assert sigma is not None

    def test_no_permutation_example(self):
        # The diagonal condition forces sigma = identity here, which leaves
        # the (0,1)/(1,0) pair asymmetric.
        s = np.array([[1, 1], [0, 1]], dtype=np.uint8)
        assert brute_force_sisd(s) is None
        assert search.sisd_check(s) is None

    def test_agrees_with_brute_force(self):
        rng = np.random.default_rng(67)
        for _ in range(60):
            n = int(rng.integers(2, 8))
            s = random_01_pattern(rng, n)
            mine = search.sisd_check(s)
            oracle = brute_force_sisd(s)
            assert (mine is None) == (oracle is None)
            if mine is not None:
                fixed = s[:, mine]
                assert np.array_equal(fixed, fixed.T)
                assert np.all(np.diag(fixed) == 1)

    @settings(max_examples=300, deadline=None)
    @given(involution_patterns())
    def test_enumeration_matches_brute_force_in_order(self, s):
        mine = [tuple(int(c) for c in p) for p in search.involution_permutations(s)]
        assert mine == all_involutions_brute_force(s)

    # A dense 8x8 pattern has up to 8! = 40 320 permutations, about 1 s of
    # oracle time each, so this test draws fewer examples than the one above.
    @settings(max_examples=100, deadline=None)
    @given(st.one_of(involution_patterns(max_n=8), symmetric_patterns()))
    def test_enumeration_matches_fixed_order(self, s):
        mine = [tuple(int(c) for c in p) for p in search.involution_permutations(s)]
        assert mine == fixed_order_involutions(s)

    @pytest.mark.parametrize("sizes", [(3, 2), (2, 3, 1), (1, 4, 2)])
    def test_uneven_blocks_in_lexicographic_order(self, sizes):
        # Rows of a smaller all-ones block have fewer open columns, so the
        # search places them first; the output must still be lexicographic.
        n = sum(sizes)
        s = np.zeros((n, n), dtype=np.uint8)
        start = 0
        for size in sizes:
            s[start:start + size, start:start + size] = 1
            start += size
        s = s[:, np.random.default_rng(n).permutation(n)]
        mine = [tuple(int(c) for c in p) for p in search.involution_permutations(s)]
        assert mine == all_involutions_brute_force(s) == fixed_order_involutions(s)
        assert len(mine) == math.prod(math.factorial(k) for k in sizes)

    @pytest.mark.parametrize("k", range(4, 32))
    def test_polygons_match_fixed_order(self, k):
        s = polygon_support(k)
        shuffled = s[:, np.random.default_rng(k).permutation(k)]
        for pattern in (s, shuffled):
            mine = [tuple(int(c) for c in p)
                    for p in search.involution_permutations(pattern)]
            assert mine == fixed_order_involutions(pattern)
            assert len(mine) == k % 2

    def test_rejects_bad_input(self):
        with pytest.raises(PreconditionError):
            search.sisd_check(np.array([[1, 0], [0, 0]]))
        with pytest.raises(PreconditionError):
            search.sisd_check(np.array([[2, 1], [1, 1]]))


class TestSdpFeasibility:
    def test_identity_support(self):
        pattern = search.SupportPattern(np.eye(4, dtype=np.uint8))
        params = search.SearchParams(target_rank=4)
        res = search.sdp_feasibility(pattern, np.ones((4, 4)), params)
        assert res.converged
        assert np.abs(res.matrix - np.eye(4)).max() <= 1e-12

    def test_pentagon_support_feasible(self):
        pattern = data.pentagon_support()
        params = search.SearchParams(target_rank=3)
        res = search.sdp_feasibility(pattern, np.ones((5, 5)), params)
        assert res.converged
        x = res.matrix
        assert np.abs(np.diag(x) - 1.0).max() <= 1e-9
        off = ~pattern.mask
        assert np.abs(x[off]).max() <= 1e-9
        assert linalg.sym_eigen(x).values[-1] >= -search.SDP_PSD_TOL
        trace = res.objective_trace
        assert all(b >= a - 1e-9 for a, b in zip(trace, trace[1:]))

    def test_weights_validated(self):
        pattern = data.pentagon_support()
        params = search.SearchParams(target_rank=3)
        with pytest.raises(PreconditionError):
            search.sdp_feasibility(pattern, -np.ones((5, 5)), params)

    @pytest.mark.parametrize(
        "support,seed,max_iter,converged",
        [(data.prism_support, 3, 2000, True), (data.prism_support, 3, 1, True),
         (data.pentagon_support, 1, 3, False)],
    )
    def test_exact_unit_diagonal_and_zeros_off_support(self, support, seed, max_iter, converged):
        # The returned iterate has been through the affine projection, so the
        # equality constraints hold exactly whether or not the run converged.
        pattern = support()
        params = search.SearchParams(target_rank=3, max_iter=max_iter)
        weights = np.random.default_rng(seed).uniform(0.5, 1.5, size=(pattern.n, pattern.n))
        res = search.sdp_feasibility(pattern, weights, params)
        assert res.converged == converged == (res.psd_margin >= -search.SDP_PSD_TOL)
        assert np.all(np.diag(res.matrix) == 1.0)
        assert np.all(res.matrix[~pattern.mask] == 0.0)


class TestRankRefine:
    def test_fixed_point(self, pentagon_slack):
        x = pentagon_slack / pentagon_slack[0, 0]
        params = search.SearchParams(target_rank=3)
        res = search.rank_refine(x, 3, params)
        assert res.converged
        assert np.abs(res.matrix - x).max() <= 1e-12

    def test_uniform_weights_recover_regular_pentagon(self, pentagon_slack):
        # With uniform weights the optimum is the diagonally normalized
        # regular pentagon Gram, so the refined matrix is the bundled slack
        # up to positive row/column scaling.
        pattern = data.pentagon_support()
        params = search.SearchParams(target_rank=3)
        sdp = search.sdp_feasibility(pattern, np.ones((5, 5)), params)
        res = search.rank_refine(sdp.matrix, 3, params, pattern)
        assert res.converged
        assert equal_up_to_scaling(pentagon_slack, res.matrix, 1e-8)

    def test_prism_profile(self):
        pattern = data.prism_support()
        params = search.SearchParams(target_rank=4, seed=1)
        sdp = search.sdp_feasibility(
            pattern, np.ones((7, 7)), params
        )
        res = search.rank_refine(sdp.matrix, 4, params, pattern)
        assert res.converged
        vals = linalg.sym_eigen(res.matrix).values
        assert np.all(vals[:4] >= 0.5) and np.all(vals[:4] <= 9.0)
        assert np.abs(vals[4:]).max() < 1e-8

    def test_residuals_monotone(self):
        pattern = data.pentagon_support()
        params = search.SearchParams(target_rank=3)
        sdp = search.sdp_feasibility(pattern, np.ones((5, 5)), params)
        res = search.rank_refine(sdp.matrix, 3, params, pattern)
        for series in (res.rank_residuals, res.affine_residuals):
            for a, b in zip(series, series[1:]):
                assert b <= a + 1e-12

    def test_stagnation_after_100_flat_iterations(self):
        # Rank 2 cannot hold a unit diagonal with a diagonal support: every
        # iteration returns to the identity with the same residuals.
        res = search.rank_refine(np.eye(4), 2, search.SearchParams(target_rank=2))
        assert (res.converged, res.reason, res.iterations) == (False, "stagnation", 101)
        assert res.rank_residuals == res.affine_residuals == [1.0] * 101

    def test_four_cycle_refinement_is_not_a_realization(self):
        # With uniform weights the four-cycle support refines to a perfectly
        # valid rank-3 circulant, but that matrix is not a slack matrix (one
        # zero per row is too few for dimension 3) and the extracted cone
        # fails self-duality verification.
        pattern = data.four_cycle_support()
        params = search.SearchParams(target_rank=3, seed=0)
        sdp = search.sdp_feasibility(pattern, np.ones((4, 4)), params)
        res = search.rank_refine(sdp.matrix, 3, params, pattern)
        assert res.converged and res.matrix.min() >= -search.SUPPORT_CLAMP
        ok, _ = geometry.slack_necessary_check(np.abs(res.matrix), 3)
        assert not ok
        real = search.extract_realization(res.matrix, 3)
        report = search.verify_realization(real, pattern, tol=1e-6)
        assert not report.passed


class TestRandomizedRetry:
    def test_identity_first_attempt(self):
        pattern = search.SupportPattern(np.eye(5, dtype=np.uint8))
        res = search.randomized_retry(pattern, search.SearchParams(target_rank=5))
        assert res.success and res.winning_attempt == 0
        assert np.abs(res.matrix - np.eye(5)).max() <= 1e-12

    def test_pentagon_succeeds(self):
        res = search.randomized_retry(
            data.pentagon_support(), search.SearchParams(target_rank=3, seed=0)
        )
        assert res.success

    def test_four_cycle_exhausts(self):
        res = search.randomized_retry(
            data.four_cycle_support(),
            search.SearchParams(target_rank=3, seed=0, retries=4),
        )
        assert not res.success
        assert len(res.attempts) == 4


class TestSearchParams:
    def test_negative_seed_rejected(self):
        with pytest.raises(PreconditionError, match="seed must be >= 0"):
            search.SearchParams(target_rank=3, seed=-1)
        assert search.SearchParams(target_rank=3, seed=0).seed == 0


# -- the retry loop before attempts ran as stacks, kept as an oracle ---------

def sequential_retry(pattern, params, certify=None):
    """One sdp_feasibility call per attempt, each with its own (n, n) weight
    draw, refined, recorded and certified before the next one runs."""
    rng = np.random.default_rng(params.seed)
    n = pattern.n
    attempts = []
    for index in range(params.retries):
        weights = rng.uniform(0.5, 1.5, size=(n, n))
        sdp = search.sdp_feasibility(pattern, weights, params)
        refined = None
        nonneg = False
        if sdp.converged:
            refined = search.rank_refine(sdp.matrix, params.target_rank, params, pattern)
            nonneg = bool(refined.matrix.min() >= -patterns.SUPPORT_CLAMP)
        record = search.AttemptRecord(
            index=index,
            sdp_converged=sdp.converged,
            sdp_iterations=sdp.iterations,
            objective=sdp.objective,
            psd_margin=sdp.psd_margin,
            refine_converged=bool(refined and refined.converged),
            refine_iterations=refined.iterations if refined else 0,
            refine_reason=refined.reason if refined else "sdp did not converge",
            refine_rank_residual=refined.rank_residuals[-1] if refined else None,
            refine_affine_residual=refined.affine_residuals[-1] if refined else None,
            nonnegative=nonneg,
        )
        attempts.append(record)
        if refined is not None and refined.converged and nonneg:
            if certify is None:
                return search.RetryResult(refined.matrix, True, attempts)
            outcome, reason = certify(refined.matrix)
            record.certified = outcome is not None
            record.certify_reason = reason
            if outcome is not None:
                return search.RetryResult(
                    refined.matrix, True, attempts, certificate=outcome
                )
    return search.RetryResult(matrix=None, success=False, attempts=attempts)


def gon7_support() -> np.ndarray:
    cone = geometry.cone_over_polytope(data.regular_polygon_vertices(7))
    return patterns.support_of(geometry.slack_matrix(cone).matrix).astype(np.uint8)


def pipeline_bits(result) -> tuple:
    """Everything a pipeline run reports about its attempts, as bytes: the
    records (floats pickled bit for bit), the refined matrix, the winner."""
    retry = result.retry
    matrix = None if retry.matrix is None else bits_of(retry.matrix)
    return (
        [pickle.dumps(vars(a)) for a in retry.attempts],
        matrix,
        retry.winning_attempt,
        result.success,
        result.failure,
    )


class TestStackedRetries:
    """Attempts after the first run as stacks; the transcript has to be the
    one the sequential loop writes, bit for bit."""

    SUPPORTS = [
        ("pentagon", lambda: data.pentagon_support().bits, 3),
        ("prism", lambda: data.prism_support().bits, 4),
        ("selfpolar10", lambda: data.ten_support().bits, 4),
        ("gon7", gon7_support, 3),
        ("four-cycle", lambda: data.four_cycle_support().bits, 3),
    ]

    @staticmethod
    def _both(bits, params, monkeypatch):
        stacked = search.run_pipeline(bits, params)
        with monkeypatch.context() as mp:
            mp.setattr(search, "randomized_retry", sequential_retry)
            sequential = search.run_pipeline(bits, params)
        return stacked, sequential

    @pytest.mark.parametrize("stack", [search._RETRY_STACK, 3])
    @pytest.mark.parametrize(
        "name,support,rank", SUPPORTS, ids=[c[0] for c in SUPPORTS]
    )
    def test_same_records_as_sequential(self, name, support, rank, stack, monkeypatch):
        monkeypatch.setattr(search, "_RETRY_STACK", stack)
        bits = support()
        for seed in (0, 1, 5, 7, 11):
            for retries in (1, 2, 4, 20):
                params = search.SearchParams(target_rank=rank, seed=seed, retries=retries)
                stacked, sequential = self._both(bits, params, monkeypatch)
                assert pipeline_bits(stacked) == pipeline_bits(sequential)
                if stacked.success:
                    assert bits_of(stacked.realization.generators) == bits_of(
                        sequential.realization.generators
                    )

    @pytest.mark.parametrize("max_iter", [2000, 40])
    @pytest.mark.parametrize(
        "support", [data.pentagon_support, data.prism_support, data.four_cycle_support],
        ids=["pentagon", "prism", "four-cycle"],
    )
    def test_stacked_loop_is_each_member_alone(self, support, max_iter):
        pattern = support()
        params = search.SearchParams(target_rank=3, max_iter=max_iter)
        for seed in (0, 5):
            weights = np.random.default_rng(seed).uniform(0.5, 1.5, size=(6, pattern.n, pattern.n))
            stacked = search._sdp_loop(
                pattern.mask, search._objective_weights(pattern.mask, weights), params
            )
            assert len(stacked) == len(weights)
            for res, w in zip(stacked, weights):
                alone = search.sdp_feasibility(pattern, w, params)
                assert bits_of(res.objective_trace) == bits_of(alone.objective_trace)
                assert bits_of(res.matrix) == bits_of(alone.matrix)
                assert res.iterations == alone.iterations
                assert res.converged == alone.converged
                assert bits_of(res.psd_margin) == bits_of(alone.psd_margin)

    def test_four_cycle_runs_stacks(self, monkeypatch):
        # Guards the test above: a failing support must reach the stacked
        # solver, one eigh call per iteration for the whole stack.  Attempt 1
        # is a stack of one, so no SDP projection sees a lone (n, n) matrix;
        # the pentagon succeeds at attempt 1 and runs no other stack.
        shapes = []
        eigh = np.linalg.eigh

        def recorded(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return eigh(a, *args, **kwargs)

        def projection(fn):
            def wrapper(a):
                sdp_shapes.append(np.shape(a))
                return fn(a)
            return wrapper

        monkeypatch.setattr(np.linalg, "eigh", recorded)
        monkeypatch.setattr(linalg, "psd_project", projection(linalg.psd_project))
        monkeypatch.setattr(
            linalg, "psd_project_min_eig", projection(linalg.psd_project_min_eig)
        )
        for support, attempts in ((data.pentagon_support, 1), (data.four_cycle_support, 20)):
            pattern = support()
            n = pattern.n
            shapes, sdp_shapes = [], []
            res = search.randomized_retry(pattern, search.SearchParams(target_rank=3, seed=5))
            assert len(res.attempts) == attempts and res.success == (attempts == 1)
            assert sdp_shapes and all(len(s) == 3 and s[1:] == (n, n) for s in sdp_shapes)
            first = sdp_shapes[: sdp_shapes.index((19, n, n))] if attempts > 1 else sdp_shapes
            assert first and set(first) == {(1, n, n)}
        assert (19, 4, 4) in shapes

    def test_stack_failure_reruns_one_attempt_at_a_time(self, monkeypatch):
        # Every stack of more than one attempt fails; attempt 1 and each
        # rerun are one sdp_feasibility call, one per recorded attempt.
        eigh = np.linalg.eigh
        stacks = []
        sdp = search.sdp_feasibility

        def fail_on_stacks(a, *args, **kwargs):
            if np.ndim(a) > 2 and len(a) > 1:
                stacks.append(np.shape(a))
                raise np.linalg.LinAlgError("did not converge")
            return eigh(a, *args, **kwargs)

        def counted_sdp(pattern, weights, params):
            solves.append(np.shape(weights))
            return sdp(pattern, weights, params)

        bits = data.four_cycle_support().bits
        for seed in (0, 5):
            params = search.SearchParams(target_rank=3, seed=seed)
            expected = pipeline_bits(search.run_pipeline(bits, params))
            solves = []
            with monkeypatch.context() as mp:
                mp.setattr(np.linalg, "eigh", fail_on_stacks)
                mp.setattr(search, "_RETRY_STACK", 5)
                mp.setattr(search, "sdp_feasibility", counted_sdp)
                result = search.run_pipeline(bits, params)
            assert pipeline_bits(result) == expected
            assert len(solves) == len(result.retry.attempts)
        assert stacks

    def test_error_surfaces_at_its_attempt(self, monkeypatch):
        # Every eigh call from the third attempt on fails: the stacked solve
        # fails, the rerun records attempt 2 and raises in attempt 3, as the
        # sequential loop does.
        eigh = np.linalg.eigh
        calls = {"weights": 0}
        sdp = search.sdp_feasibility

        def counted_sdp(pattern, weights, params):
            calls["weights"] += 1
            return sdp(pattern, weights, params)

        def failing(a, *args, **kwargs):
            if (np.ndim(a) > 2 and len(a) > 1) or calls["weights"] >= 3:
                raise np.linalg.LinAlgError("did not converge")
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(search, "sdp_feasibility", counted_sdp)
        monkeypatch.setattr(np.linalg, "eigh", failing)
        with pytest.raises(ConvergenceError, match="eigh"):
            search.randomized_retry(
                data.four_cycle_support(), search.SearchParams(target_rank=3, seed=5)
            )
        assert calls["weights"] == 3

    def test_stacked_draws_are_the_sequential_draws(self):
        for k in range(1, 33):
            for n in range(1, 11):
                stacked = np.random.default_rng(k * 100 + n).uniform(0.5, 1.5, size=(k, n, n))
                rng = np.random.default_rng(k * 100 + n)
                one_by_one = [rng.uniform(0.5, 1.5, size=(n, n)) for _ in range(k)]
                assert bits_of(stacked) == bits_of(np.stack(one_by_one))


class TestExtractRealization:
    def test_pentagon_slack(self, pentagon_slack):
        real = search.extract_realization(pentagon_slack, 3)
        assert np.all(real.generators[:, 0] == 1.0)
        assert np.abs(real.gram - real.generators @ real.generators.T).max() == 0.0
        report = search.verify_realization(real, data.pentagon_support(), tol=1e-7)
        assert report.passed

    def test_identity(self):
        real = search.extract_realization(np.eye(4), 4)
        gram = real.generators @ real.generators.T
        assert np.abs(gram - np.eye(4)).max() <= 1e-12

    def test_disconnected_rejected(self, pentagon_slack):
        block = np.zeros((10, 10))
        block[:5, :5] = pentagon_slack
        block[5:, 5:] = pentagon_slack
        with pytest.raises(PreconditionError, match="connected"):
            search.extract_realization(block, 6)

    def test_wrong_rank_rejected(self, pentagon_slack):
        with pytest.raises(PreconditionError, match="rank"):
            search.extract_realization(pentagon_slack, 4)


class TestVerifyRealization:
    def test_wrong_pattern_fails_support(self, pentagon_slack):
        real = search.extract_realization(pentagon_slack, 3)
        wrong = search.SupportPattern(np.eye(5, dtype=np.uint8))
        report = search.verify_realization(real, wrong, tol=1e-7)
        assert report.generator_match and not report.support_match
        assert not report.passed

    def test_perturbed_generators_fail(self, pentagon_slack):
        real = search.extract_realization(pentagon_slack, 3)
        bumped = real.generators.copy()
        bumped[2, 1] += 2e-2
        perturbed = search.Realization(
            dim=3,
            generators=bumped,
            gram=bumped @ bumped.T,
            residuals=dict(real.residuals),
        )
        report = search.verify_realization(perturbed, data.pentagon_support(), tol=1e-6)
        assert not report.passed


class TestPipeline:
    def test_pentagon_end_to_end(self):
        res = search.run_pipeline(
            data.pentagon_support().bits, search.SearchParams(target_rank=3, seed=0)
        )
        assert res.success
        assert res.verification.passed
        assert res.realization.residuals["selfdual_gap"] <= 1e-6

    def test_not_involutive_fails_fast(self):
        s = np.array([[1, 1], [0, 1]], dtype=np.uint8)
        res = search.run_pipeline(s, search.SearchParams(target_rank=2))
        assert not res.success
        assert "involutive" in res.failure

    def test_four_cycle_structured_failure(self):
        res = search.run_pipeline(
            data.four_cycle_support().bits,
            search.SearchParams(target_rank=3, retries=3),
        )
        assert not res.success
        assert "no realization" in res.failure

    def test_deterministic_given_seed(self):
        params = search.SearchParams(target_rank=3, seed=11)
        r1 = search.run_pipeline(data.pentagon_support().bits, params)
        r2 = search.run_pipeline(data.pentagon_support().bits, params)
        assert np.array_equal(r1.retry.matrix, r2.retry.matrix)
        assert np.array_equal(r1.realization.generators, r2.realization.generators)
        t1 = [pickle.dumps(vars(a)) for a in r1.retry.attempts]
        t2 = [pickle.dumps(vars(a)) for a in r2.retry.attempts]
        assert t1 == t2

    def test_gauge_relabelled_support(self):
        # Relabelling the support (and the weights with it) produces a
        # realization whose Gram matrix matches the original one up to the
        # same relabelling and positive row/column scaling.
        rng = np.random.default_rng(71)
        pattern = data.pentagon_support()
        tau = rng.permutation(5)
        relabelled = search.SupportPattern(pattern.bits[np.ix_(tau, tau)])
        weights = rng.uniform(0.5, 1.5, size=(5, 5))
        weights = 0.5 * (weights + weights.T)
        params = search.SearchParams(target_rank=3)
        sdp1 = search.sdp_feasibility(pattern, weights, params)
        ref1 = search.rank_refine(sdp1.matrix, 3, params, pattern)
        sdp2 = search.sdp_feasibility(
            relabelled, weights[np.ix_(tau, tau)], params
        )
        ref2 = search.rank_refine(sdp2.matrix, 3, params, relabelled)
        assert ref1.converged and ref2.converged
        back = ref2.matrix[np.ix_(np.argsort(tau), np.argsort(tau))]
        assert equal_up_to_scaling(ref1.matrix, back, tol=1e-5)


# -- the projection path the SDP and refinement loops used before the lean
# -- projections, kept as an oracle ------------------------------------------

def oracle_reconstruct(eig: linalg.EigenDecomposition, weights: np.ndarray) -> np.ndarray:
    b = (eig.vectors * weights) @ eig.vectors.T
    return 0.5 * (b + b.T)


def oracle_psd_project(a):
    eig = linalg.sym_eigen(a)
    return oracle_reconstruct(eig, np.clip(eig.values, 0.0, None))


def oracle_psd_project_min_eig(a):
    eig = linalg.sym_eigen(a)
    return oracle_reconstruct(eig, np.clip(eig.values, 0.0, None)), float(eig.values[-1])


def oracle_low_rank_project(a, d):
    eig = linalg.sym_eigen(a)
    kept = np.zeros(eig.values.shape[0])
    kept[:d] = np.clip(eig.values[:d], 0.0, None)
    return oracle_reconstruct(eig, kept)


def oracle_affine_project(x, on):
    y = x.copy()
    y[~on] = 0.0
    np.fill_diagonal(y, 1.0)
    return y


def bits_of(x) -> bytes:
    return np.asarray(x, dtype=float).tobytes()


def each_member(oracle):
    """oracle, written for one matrix, applied to one matrix or to each
    matrix of a stack (its first argument); a stack's results are stacked,
    field by field for a tuple, so psd_project_min_eig gives the array of
    smallest eigenvalues."""

    @functools.wraps(oracle)
    def apply(a, *args):
        if np.ndim(a) == 2:
            return oracle(a, *args)
        results = [oracle(m, *args) for m in a]
        if isinstance(results[0], tuple):
            return tuple(np.array(field) for field in zip(*results))
        return np.stack(results)

    return apply


class TestProjectionOracle:
    """sym_eigen with its sign rule, np.clip and a copying affine step give
    the same iterates, bit for bit, as the lean projections."""

    CASES = [
        ("pentagon", data.pentagon_support, 3),
        ("prism", data.prism_support, 4),
        ("selfpolar10", data.ten_support, 4),
        ("four-cycle", data.four_cycle_support, 3),
    ]

    @staticmethod
    def _run(pattern, weights, params):
        sdp = search.sdp_feasibility(pattern, weights, params)
        ref = search.rank_refine(sdp.matrix, params.target_rank, params, pattern)
        return sdp, ref

    @pytest.mark.parametrize("name,support,rank", CASES, ids=[c[0] for c in CASES])
    def test_bitwise_equal_iterates(self, name, support, rank, monkeypatch):
        pattern = support()
        for seed in (0, 1, 5):
            params = search.SearchParams(target_rank=rank, seed=seed)
            weights = np.random.default_rng(seed).uniform(0.5, 1.5, size=(pattern.n,) * 2)
            sdp, ref = self._run(pattern, weights, params)
            with monkeypatch.context() as mp:
                mp.setattr(linalg, "psd_project", each_member(oracle_psd_project))
                mp.setattr(linalg, "psd_project_min_eig",
                           each_member(oracle_psd_project_min_eig))
                mp.setattr(linalg, "low_rank_project", each_member(oracle_low_rank_project))
                mp.setattr(search, "_affine_project", each_member(oracle_affine_project))
                sdp_o, ref_o = self._run(pattern, weights, params)
            assert sdp.iterations == sdp_o.iterations
            assert bits_of(sdp.objective_trace) == bits_of(sdp_o.objective_trace)
            assert bits_of(sdp.matrix) == bits_of(sdp_o.matrix)
            assert sdp.psd_margin == sdp_o.psd_margin
            assert sdp.converged == sdp_o.converged
            assert ref.iterations == ref_o.iterations
            assert bits_of(ref.matrix) == bits_of(ref_o.matrix)
            assert bits_of(ref.rank_residuals) == bits_of(ref_o.rank_residuals)
            assert bits_of(ref.affine_residuals) == bits_of(ref_o.affine_residuals)
            assert (ref.converged, ref.reason) == (ref_o.converged, ref_o.reason)

    def test_oracle_was_called(self, monkeypatch):
        # Guards the test above against patching names the loops never use.
        calls = []

        def counted(fn):
            def wrapper(*args):
                calls.append(fn.__name__)
                return fn(*args)
            return wrapper

        monkeypatch.setattr(linalg, "psd_project", counted(each_member(oracle_psd_project)))
        monkeypatch.setattr(linalg, "psd_project_min_eig",
                            counted(each_member(oracle_psd_project_min_eig)))
        monkeypatch.setattr(linalg, "low_rank_project",
                            counted(each_member(oracle_low_rank_project)))
        pattern = data.pentagon_support()
        params = search.SearchParams(target_rank=3)
        self._run(pattern, np.ones((5, 5)), params)
        assert set(calls) == {
            "oracle_psd_project", "oracle_psd_project_min_eig", "oracle_low_rank_project"
        }


# -- one connectivity helper -------------------------------------------------

def closure_connected(mask: np.ndarray) -> bool:
    """Connectivity by transitive closure: repeated boolean products of
    I + A until they stop growing."""
    n = mask.shape[0]
    reach = (mask | np.eye(n, dtype=bool)).astype(np.int64)
    while True:
        grown = ((reach @ reach) > 0).astype(np.int64)
        if np.array_equal(grown, reach):
            return bool(reach.all())
        reach = grown


@st.composite
def adjacency(draw):
    """Symmetric boolean matrices on 0-9 vertices, sparse or dense, with the
    diagonal drawn too."""
    n = draw(st.integers(0, 9))
    density = draw(st.sampled_from([0.1, 0.25, 0.5]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    upper = np.triu(rng.uniform(size=(n, n)) < density)
    return upper | upper.T


class TestIsConnected:
    @settings(max_examples=300, deadline=None)
    @given(adjacency())
    def test_matches_transitive_closure(self, mask):
        expected = closure_connected(mask)
        assert search.is_connected(mask) is expected
        # The callers see the same graph through a weighted symmetric matrix.
        weighted = np.where(mask, 2.0, 0.0) + np.eye(mask.shape[0])
        assert selfdual.is_irreducible(weighted) is expected
        if mask.shape[0] == 5:
            off = mask & ~np.eye(5, dtype=bool)
            cycle = bool((off.sum(axis=1) == 2).all()) and expected
            assert dnn._is_cycle5(weighted) is cycle

    def test_small_cases(self):
        assert search.is_connected(np.zeros((0, 0), dtype=bool))
        assert search.is_connected(np.zeros((1, 1), dtype=bool))
        assert not search.is_connected(np.eye(2, dtype=bool))
        path = np.eye(4, k=1, dtype=bool)
        assert search.is_connected(path | path.T)


class TestSpanningForest:
    @settings(max_examples=300, deadline=None)
    @given(adjacency())
    def test_matches_csgraph(self, mask):
        n = mask.shape[0]
        order, parent = patterns.spanning_forest(mask)
        # Each vertex once, every parent before its children.
        assert sorted(order) == list(range(n))
        position = {v: k for k, v in enumerate(order)}
        children = [j for j in order if parent[j] >= 0]
        assert all(position[parent[j]] < position[j] for j in children)
        assert all(mask[parent[j], j] for j in children)
        graph = csgraph.csgraph_from_dense(mask.astype(float))
        _, labels = csgraph.connected_components(graph, directed=False)
        roots = [j for j in range(n) if parent[j] < 0]
        assert roots == sorted(int(np.flatnonzero(labels == c)[0]) for c in set(labels))
        if n:
            levels = csgraph.shortest_path(
                graph, directed=False, unweighted=True, indices=roots
            ).min(axis=0)
            assert all(levels[j] == levels[parent[j]] + 1 for j in children)
        # Breadth-first by queue: a vertex's parent is its neighbour that
        # comes first in order, and siblings join in increasing order.
        for j in children:
            first = min(np.flatnonzero(mask[j]), key=position.__getitem__)
            assert parent[j] == first
        for a, b in zip(children, children[1:]):
            if parent[a] == parent[b]:
                assert a < b


EMPTY_INPUTS = {
    "extract_realization": (
        lambda: search.extract_realization(np.zeros((0, 0)), 1),
        "Gram matrix is empty",
    ),
    "sdp_feasibility": (
        lambda: search.sdp_feasibility(
            search.SupportPattern(np.zeros((0, 0), dtype=np.uint8)),
            np.zeros((0, 0)),
            search.SearchParams(target_rank=1),
        ),
        "support pattern is empty",
    ),
    "congruence_all_empty": (
        lambda: dnn.verify_congruence(
            np.zeros((0, 0)), np.zeros((0, 0)), np.zeros((0, 0))
        ),
        "A is empty",
    ),
    "congruence_m_0x2": (
        lambda: dnn.verify_congruence(np.zeros((0, 0)), np.zeros((0, 2)), np.eye(2)),
        "A is empty",
    ),
    "congruence_m_2x0": (
        lambda: dnn.verify_congruence(np.eye(2), np.zeros((2, 0)), np.zeros((0, 0))),
        "M is empty",
    ),
    "match_generators": (
        lambda: geometry.match_generators(np.zeros((0, 3)), np.zeros((0, 3)), 1e-9),
        "no rows",
    ),
}


@pytest.mark.parametrize("name", sorted(EMPTY_INPUTS))
def test_empty_input_rejected(name):
    """Empty operands end in a PreconditionError naming them, not in numpy's
    reduction errors."""
    call, message = EMPTY_INPUTS[name]
    with pytest.raises(PreconditionError, match=message):
        call()


class TestSupportIO:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "p.support"
        search.save_support(path, data.prism_support().bits)
        back = search.load_support(path)
        assert np.array_equal(back, data.prism_support().bits)

    def test_parse_errors(self, tmp_path):
        bad = tmp_path / "bad.support"
        bad.write_text("2\n10\n1\n")
        with pytest.raises(ParseError):
            search.load_support(bad)
        bad2 = tmp_path / "bad2.support"
        bad2.write_text("2\n12\n11\n")
        with pytest.raises(ParseError):
            search.load_support(bad2)
