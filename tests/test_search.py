from __future__ import annotations

import dataclasses
import functools
import itertools
import json
import math
import pickle
import sys
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.linalg import block_diag
from scipy.sparse import csgraph

from sdcones import analysis, data, dnn, geometry, linalg, patterns, search, selfdual
from sdcones.errors import ConvergenceError, ParseError, PreconditionError

from conftest import (
    decline_spectral_attempt,
    equal_up_to_scaling,
    shuffled_cycle_complement,
    spectral_start,
)


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


def assert_same_permutations(mine: list[tuple[int, ...]], oracle: list[tuple[int, ...]]):
    """mine holds the oracle's permutations, each once, in any order."""
    assert len(set(mine)) == len(mine)
    assert sorted(mine) == sorted(oracle)


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
    smallest-domain-first search does not place rows in index order."""
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


def recursive_completions(state, rows: list[int], doms: list[int]):
    """The involution search as it was before it kept its own stack, one
    generator level per placed row: the oracle of the search's order and
    node count.  Past about 1 000 rows it exceeds the recursion limit."""
    if not rows:
        yield state.sigma
        return
    k = min(range(len(rows)), key=lambda i: doms[i].bit_count())
    j = rows[k]
    rest_rows, rest_doms = rows[:k] + rows[k + 1:], doms[:k] + doms[k + 1:]
    todo = doms[k]
    while todo:
        low = todo & -todo
        todo ^= low
        c = low.bit_length() - 1
        pruned = state.place(j, c, rest_rows, rest_doms)
        if pruned is not None:
            state.sigma[j] = c
            yield from recursive_completions(state, rest_rows, pruned)


def search_trace(state, completions, limit: int = 200) -> list:
    """The first limit permutations of an enumeration of the search state,
    each with the node count when it was yielded, then the node count when
    the enumeration ended or was cut."""
    trace = []
    for sigma in itertools.islice(completions, limit):
        trace.append((tuple(sigma), state.nodes))
    return trace + [state.nodes]


# Square arrays whose entries are not all 0 or 1: strings, NaN, objects, 2
# and -1.  A bool array is a 0/1 array.
NOT_ZERO_ONE = [
    np.array([["1", "0"], ["0", "1"]]),
    np.array([[1.0, np.nan], [np.nan, 1.0]]),
    np.array([[1, None], [None, 1]], dtype=object),
    np.array([[1, 2], [2, 1]]),
    np.array([[1, -1], [-1, 1]]),
]


class TestSupportPattern:
    def test_validation(self):
        with pytest.raises(PreconditionError):
            search.SupportPattern(np.array([[1, 1], [0, 1]]))
        with pytest.raises(PreconditionError):
            search.SupportPattern(np.array([[0, 1], [1, 0]]))
        with pytest.raises(PreconditionError):
            search.SupportPattern(np.array([[1, 2], [2, 1]]))
        for bad in NOT_ZERO_ONE:
            with pytest.raises(PreconditionError, match="entries must be 0 or 1"):
                search.SupportPattern(bad)
        p = search.SupportPattern(np.array([[True, False], [False, True]]))
        assert p.bits.dtype == np.uint8 and p.bits.tolist() == [[1, 0], [0, 1]]

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

    def test_dense_asymmetric_support_within_bounds(self, monkeypatch):
        # 12! permutations, a few million of them involutive: enumerating
        # them all runs over the node budget.  The first permutation is
        # yielded after 12 nodes, in about 1 ms on a 2-vCPU host.
        s = np.ones((12, 12), dtype=np.uint8)
        s[0, 1] = s[2, 3] = 0
        monkeypatch.setattr(patterns, "INVOLUTION_NODE_BUDGET", 100)
        start = time.perf_counter()
        sigma = search.sisd_check(s)
        assert time.perf_counter() - start < 1.0
        assert sigma.tolist() == [3, 0, 1, 2, *range(4, 12)]

    def test_regular_heptagon_slack_support(self):
        # The bench's gon7 support; its transcripts record this permutation.
        cone = geometry.cone_over_polytope(data.regular_polygon_vertices(7))
        s = search.support_of(geometry.slack_matrix(cone).matrix).astype(np.uint8)
        assert search.sisd_check(s).tolist() == [4, 5, 6, 1, 0, 2, 3]

    @settings(max_examples=300, deadline=None)
    @given(involution_patterns())
    def test_first_permutation_of_the_enumeration(self, s):
        # The first permutation yielded, and sisd_check's, is one of the
        # oracle's, and None exactly when the oracle has none.
        oracle = set(all_involutions_brute_force(s))
        firsts = [next(patterns.involution_permutations(s), None)]
        if s.sum(axis=1).all() and s.sum(axis=0).all():
            firsts.append(search.sisd_check(s))
        for first in firsts:
            if first is None:
                assert not oracle
            else:
                assert tuple(first.tolist()) in oracle

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
    def test_enumeration_matches_brute_force(self, s):
        mine = [tuple(int(c) for c in p) for p in patterns.involution_permutations(s)]
        assert_same_permutations(mine, all_involutions_brute_force(s))

    # A dense 8x8 pattern has up to 8! = 40 320 permutations, about 1 s of
    # oracle time each, so this test draws fewer examples than the one above.
    @settings(max_examples=100, deadline=None)
    @given(st.one_of(involution_patterns(max_n=8), symmetric_patterns()))
    def test_enumeration_matches_fixed_order(self, s):
        mine = [tuple(int(c) for c in p) for p in patterns.involution_permutations(s)]
        assert_same_permutations(mine, fixed_order_involutions(s))

    @pytest.mark.parametrize("sizes", [(3, 2), (2, 3, 1), (1, 4, 2)])
    def test_uneven_blocks_match_both_oracles(self, sizes):
        # Rows of a smaller all-ones block have fewer open columns, so the
        # search places them first.
        n = sum(sizes)
        s = np.zeros((n, n), dtype=np.uint8)
        start = 0
        for size in sizes:
            s[start:start + size, start:start + size] = 1
            start += size
        s = s[:, np.random.default_rng(n).permutation(n)]
        mine = [tuple(int(c) for c in p) for p in patterns.involution_permutations(s)]
        assert all_involutions_brute_force(s) == fixed_order_involutions(s)
        assert_same_permutations(mine, fixed_order_involutions(s))
        assert len(mine) == math.prod(math.factorial(k) for k in sizes)

    @pytest.mark.parametrize("k", range(4, 32))
    def test_polygons_match_fixed_order(self, k):
        s = polygon_support(k)
        shuffled = s[:, np.random.default_rng(k).permutation(k)]
        for pattern in (s, shuffled):
            mine = [tuple(int(c) for c in p)
                    for p in patterns.involution_permutations(pattern)]
            assert mine == fixed_order_involutions(pattern)
            assert len(mine) == k % 2
            sigma = search.sisd_check(pattern)
            assert mine == ([] if sigma is None else [tuple(sigma.tolist())])

    @pytest.mark.parametrize("name", ["pentagon", "prism", "ten", "four_cycle"])
    def test_bundled_supports_match_both_oracles(self, name):
        s = getattr(data, f"{name}_support")().bits
        shuffled = s[:, np.random.default_rng(len(name)).permutation(len(s))]
        for pattern in (s, shuffled):
            mine = [tuple(int(c) for c in p)
                    for p in patterns.involution_permutations(pattern)]
            assert_same_permutations(mine, fixed_order_involutions(pattern))
            if len(pattern) <= 8:
                assert_same_permutations(mine, all_involutions_brute_force(pattern))

    def test_all_ones_support_yields_the_identity_first(self):
        # Every one of the 10! permutations is involutive, far over the node
        # budget; the first one is yielded before the others are searched.
        first = next(patterns.involution_permutations(np.ones((10, 10), np.uint8)))
        assert first.tolist() == list(range(10))

    def test_budget_error_comes_from_the_next_that_crosses_it(self, monkeypatch):
        # Nodes count over the life of one enumeration: the first
        # permutations of the all-ones support fit in the budget, and a
        # later next() raises.
        monkeypatch.setattr(patterns, "INVOLUTION_NODE_BUDGET", 100)
        perms = patterns.involution_permutations(np.ones((10, 10), np.uint8))
        assert next(perms).tolist() == list(range(10))
        assert next(perms).tolist() == [*range(8), 9, 8]
        with pytest.raises(ConvergenceError, match="visited 101 nodes"):
            for _ in perms:
                pass

    def test_block_enumeration_within_1600_nodes(self, monkeypatch):
        # Two 4 x 4 all-ones blocks: 4! * 4! = 576 permutations.
        monkeypatch.setattr(patterns, "INVOLUTION_NODE_BUDGET", 1_600)
        s = block_diag(np.ones((4, 4)), np.ones((4, 4))).astype(np.uint8)
        assert sum(1 for _ in patterns.involution_permutations(s)) == 576

    @pytest.mark.parametrize("s", [np.ones((1000, 1000), np.uint8),
                                   shuffled_cycle_complement(1000)],
                             ids=["all-ones", "shuffled-cycle-complement"])
    def test_first_permutation_of_1000_rows(self, s):
        # One placed row is one frame of the search's own stack, not one
        # level of Python recursion (whose default limit is 1 000).
        first = next(patterns.involution_permutations(s))
        fixed = s[:, first]
        assert np.array_equal(fixed, fixed.T) and fixed.diagonal().all()

    def test_same_order_and_nodes_as_the_recursive_search(self):
        rng = np.random.default_rng(71)
        randoms = []
        for t in range(400):
            s = random_01_pattern(rng, int(rng.integers(1, 9)))
            if t % 2:  # symmetric with a unit diagonal, columns shuffled
                s = np.triu(s, 1) | np.triu(s, 1).T | np.eye(len(s), dtype=np.uint8)
                s = s[:, rng.permutation(len(s))]
            randoms.append(s)
        bundled = [getattr(data, f"{name}_support")().bits
                   for name in ("pentagon", "prism", "ten", "four_cycle")]
        for s in [polygon_support(k) for k in range(3, 52)] + bundled + randoms:
            iterative = patterns._InvolutionSearch(s)
            recursive = patterns._InvolutionSearch(s)
            assert (search_trace(iterative, iterative.completions())
                    == search_trace(recursive, recursive_completions(
                        recursive, list(range(len(s))), recursive.domains)))

    def test_rejects_bad_input(self):
        with pytest.raises(PreconditionError):
            search.sisd_check(np.array([[1, 0], [0, 0]]))
        with pytest.raises(PreconditionError):
            search.sisd_check(np.array([[2, 1], [1, 1]]))
        for bad in NOT_ZERO_ONE:
            with pytest.raises(PreconditionError, match="entries must be 0 or 1"):
                search.sisd_check(bad)
        flipped = np.array([[False, True], [True, False]])
        assert search.sisd_check(flipped).tolist() == [1, 0]


class TestSdpFeasibility:
    def test_identity_support(self):
        pattern = search.SupportPattern(np.eye(4, dtype=np.uint8))
        params = search.SearchParams(target_rank=4)
        res = search.sdp_feasibility(pattern, np.ones((4, 4)), params)
        assert res.converged
        assert np.abs(res.matrix - np.eye(4)).max() <= 1e-12

    def test_pentagon_support_feasible(self, monkeypatch):
        # The package stops at ADMM_STOP_TOL: exact affine constraints, and a
        # last X within ADMM_STOP_TOL of the PSD Z, so within n times it of
        # the PSD cone.  The tight oracle reaches the optimum's PSD test and gap.
        pattern = data.pentagon_support()
        params = search.SearchParams(target_rank=3)
        ones = np.ones((1, 5, 5))
        zs = []
        each_projection(monkeypatch, lambda a, out, d: zs.append(out[0]) or out)
        res = search.sdp_feasibility(pattern, ones[0], params)
        assert res.converged
        x = res.matrix
        assert np.all(np.diag(x) == 1.0) and np.all(x[~pattern.mask] == 0.0)
        assert np.abs(x - zs[-1]).max() < search.ADMM_STOP_TOL
        assert res.psd_margin >= -pattern.n * search.ADMM_STOP_TOL
        c = search._objective_weights(pattern.mask, ones)
        (tight,) = oracle_sdp_loop(pattern.mask, c, params)
        assert tight.converged
        assert linalg.sym_eigen(tight.matrix).values[-1] >= -linalg.PSD_TOL
        assert abs(tight.duality_gap) <= 1e-8

    def test_pentagon_objective_is_the_regular_pentagon(self, pentagon_slack):
        # The all-ones optimum is the diagonally normalized regular pentagon
        # slack, whose entries sum to 5 * sqrt(5): the tight oracle reaches
        # it; the package's objective is that of its returned, feasible matrix.
        pattern = data.pentagon_support()
        params = search.SearchParams(target_rank=3)
        ones = np.ones((1, 5, 5))
        res = search.sdp_feasibility(pattern, ones[0], params)
        scale = np.sqrt(np.diag(pentagon_slack))
        optimum = (pentagon_slack / np.outer(scale, scale)).sum()
        assert optimum == pytest.approx(5.0 * np.sqrt(5.0), rel=1e-12)
        c = search._objective_weights(pattern.mask, ones)
        (tight,) = oracle_sdp_loop(pattern.mask, c, params)
        assert tight.objective == pytest.approx(optimum, rel=1e-8)
        assert res.objective == pytest.approx(float(res.matrix.sum()), rel=1e-15)

    @pytest.mark.parametrize("bits,weights", [
        (np.ones((1, 1)), np.full((1, 1), 9e307)),
        (np.eye(3), np.diag([9e307, 1.0, 1.0]) + 1.0 - np.eye(3)),
    ], ids=["one-point", "diagonal"])
    def test_huge_weights_do_not_overflow(self, bits, weights):
        # Symmetrizing halves before it adds, so w + w^T no longer overflows
        # to inf for weights of 9e307; the objective is finite here, so the
        # run raises nothing and warns of nothing.
        pattern = search.SupportPattern(bits.astype(np.uint8))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = search.sdp_feasibility(pattern, weights, search.SearchParams(target_rank=1))
        assert res.converged and res.objective == pytest.approx(weights.trace())

    def test_weights_validated(self):
        pattern = data.pentagon_support()
        params = search.SearchParams(target_rank=3)
        with pytest.raises(PreconditionError):
            search.sdp_feasibility(pattern, -np.ones((5, 5)), params)

    @pytest.mark.parametrize(
        "support,seed,max_iter,converged,near_psd",
        [(data.prism_support, 3, 2000, True, True),
         (data.prism_support, 3, 1, False, False),
         (data.pentagon_support, 1, 3, False, False),
         (data.pentagon_support, 1, 1, False, True)],
    )
    def test_exact_unit_diagonal_and_zeros_off_support(
        self, support, seed, max_iter, converged, near_psd
    ):
        # The returned iterate has been through the affine projection, so the
        # equality constraints hold exactly whether or not the run converged.
        # A fired stop rule leaves X within n * ADMM_STOP_TOL of the PSD cone
        # (near_psd); a run cut by max_iter has not converged, even when the
        # matrix it returns is that near, or inside.
        pattern = support()
        params = search.SearchParams(target_rank=3, max_iter=max_iter)
        weights = np.random.default_rng(seed).uniform(0.5, 1.5, size=(pattern.n, pattern.n))
        res = search.sdp_feasibility(pattern, weights, params)
        assert res.converged == converged
        assert (res.psd_margin >= -pattern.n * search.ADMM_STOP_TOL) == near_psd
        assert res.iterations <= max_iter
        assert np.all(np.diag(res.matrix) == 1.0)
        assert np.all(res.matrix[~pattern.mask] == 0.0)


@st.composite
def weighted_supports(draw):
    """A symmetric support with a unit diagonal on n <= 12 points, sparse or
    dense and so connected or not, with a stack of 1-4 nonnegative weight
    matrices."""
    n = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    upper = np.triu(rng.uniform(size=(n, n)) < draw(st.sampled_from([0.2, 0.5, 0.9])), 1)
    bits = (upper | upper.T | np.eye(n, dtype=bool)).astype(np.uint8)
    weights = rng.uniform(0.0, 2.0, size=(draw(st.integers(1, 4)), n, n))
    return search.SupportPattern(bits), weights


class TestAdmmProperties:
    @settings(max_examples=150, deadline=None)
    @given(weighted_supports(), st.sampled_from([1, 5, 40, 2000]))
    def test_solver_contract(self, case, max_iter):
        pattern, weights = case
        params = search.SearchParams(target_rank=1, max_iter=max_iter)
        on = pattern.mask
        stacked = search._sdp_loop(on, search._objective_weights(on, weights), params)
        assert len(stacked) == len(weights)
        for res, w in zip(stacked, weights):
            x = res.matrix
            assert np.all(np.diag(x) == 1.0) and np.all(x[~on] == 0.0)
            assert 1 <= res.iterations <= max_iter
            assert bits_of(res.psd_margin) == bits_of(linalg.sym_eigen(x).values[-1])
            if res.iterations < max_iter:
                # The stop rule fired, and X is within n * ADMM_STOP_TOL of the PSD cone.
                assert res.converged
            if res.converged:
                assert res.psd_margin >= -pattern.n * search.ADMM_STOP_TOL
            alone = search.sdp_feasibility(pattern, w, params)
            assert bits_of(res.matrix) == bits_of(alone.matrix)
            assert bits_of(res.objective) == bits_of(alone.objective)
            assert bits_of(res.duality_gap) == bits_of(alone.duality_gap)
            assert bits_of(res.psd_margin) == bits_of(alone.psd_margin)
            assert (res.converged, res.iterations) == (alone.converged, alone.iterations)
        # The tight oracle's converged results are optima: PSD, and a small gap.
        for tight in oracle_sdp_loop(on, search._objective_weights(on, weights), params):
            if tight.converged:
                assert tight.psd_margin >= -linalg.PSD_TOL
                assert abs(tight.duality_gap) <= 1e-8


# -- the ADMM loop before lean iterations, and rank refinement by alternating
# -- projections before Gauss-Newton, kept as oracles -------------------------

def oracle_stacked_affine_project(x, on):
    y = np.zeros(x.shape)
    np.copyto(y, x, where=on)
    n = on.shape[0]
    y.reshape(*y.shape[:-2], n * n)[..., :: n + 1] = 1.0
    return y


# The stop rule before ADMM_STOP_TOL: max|X - Z| below min(TIGHT_PRIMAL_TOL,
# PSD_TOL / n) and rho * max|Z - Z_prev| below TIGHT_DUAL_TOL, the point of an
# optimum, where a converged X passes the PSD test.
TIGHT_PRIMAL_TOL = 1e-10
TIGHT_DUAL_TOL = 1e-8


def oracle_sdp_loop(on, c, params, tight=True):
    """search._sdp_loop as it was: c / rho and the dual residual on every
    iteration, rho as an array, U rescaled by every balancing step.  tight,
    it stops at the tight stop rule, and an attempt has converged when it
    stopped and its X passes the PSD test; else it stops once both
    residuals are below search.ADMM_STOP_TOL, and converged means stopped.
    Each result's stop_residuals holds its two residuals at its last
    iteration."""
    n = on.shape[0]
    k = c.shape[0]
    weights = c
    max_iter = params.max_iter
    if tight:
        primal_tol, dual_tol = min(TIGHT_PRIMAL_TOL, linalg.PSD_TOL / n), TIGHT_DUAL_TOL
    else:
        primal_tol = dual_tol = search.ADMM_STOP_TOL
    final = [None] * k
    live = list(range(k))
    rho = np.full(k, search.ADMM_RHO)
    bounds = [0.0] * k
    stopped = [False] * k
    iterations = [0] * k
    residuals = [None] * k
    z = np.broadcast_to(np.eye(n), c.shape)
    u = np.zeros(c.shape)
    it = 0
    while live:
        it += 1
        x = oracle_stacked_affine_project(z - u + c / rho[:, None, None], on)
        z_next = linalg.psd_project(x + u)
        u = u + x - z_next
        primal = np.abs(x - z_next).max(axis=(-2, -1)).tolist()
        change = np.abs(z_next - z).max(axis=(-2, -1)).tolist()
        z = z_next
        keep, done = [], []
        for j, (r, dz, penalty) in enumerate(zip(primal, change, rho.tolist())):
            s = penalty * dz
            if r < primal_tol and s < dual_tol:
                stopped[live[j]] = True
            elif it < max_iter:
                keep.append(j)
                if it % search.ADMM_BALANCE_EVERY == 0:
                    step = 2.0 if r > search.ADMM_BALANCE_RATIO * s else (
                        0.5 if s > search.ADMM_BALANCE_RATIO * r else 1.0)
                    rho[j] *= step
                    u[j] /= step
                continue
            iterations[live[j]] = it
            residuals[live[j]] = (r, s)
            bounds[live[j]] = float(np.trace(c[j] - penalty * u[j]))
            done.append(j)
        if done:
            for j in done:
                final[live[j]] = x[j]
            live = [live[j] for j in keep]
            z, u, c, rho = z[keep], u[keep], c[keep], rho[keep]
    margins = linalg._eigh(np.stack(final))[0][:, -1].tolist()
    results = []
    for i, margin in enumerate(margins):
        objective = float((weights[i] * final[i]).sum())
        results.append(search.SdpResult(
            matrix=final[i],
            objective=objective,
            duality_gap=abs(bounds[i] - objective) / max(1.0, abs(objective)),
            psd_margin=margin,
            converged=stopped[i] and (margin >= -linalg.PSD_TOL or not tight),
            iterations=iterations[i],
        ))
        results[-1].stop_residuals = residuals[i]
    return results


def oracle_rank_refine(x, d, pattern, max_iter=2000):
    """Rank refinement by alternating projections, as search.rank_refine was:
    the rank-d truncation alternated with the affine projection until both
    half-step residuals are below REFINE_STOP_TOL, 100 iterations gain less
    than 1e-16, or max_iter.  Returns (matrix, converged)."""
    a = linalg.require_symmetric(x)
    on = pattern.mask
    y = oracle_stacked_affine_project(a, on)
    history = []
    for it in range(1, max_iter + 1):
        low = linalg.low_rank_project(y, d)
        r_rank = float(np.abs(y - low).max())
        y = oracle_stacked_affine_project(low, on)
        history.append(max(r_rank, float(np.abs(y - low).max())))
        if history[-1] < search.REFINE_STOP_TOL:
            return y, True
        if it > 100 and history[-101] - history[-1] < 1e-16:
            break
    return y, False


def sdp_bits(res) -> tuple:
    return (bits_of(res.matrix), bits_of(res.objective), bits_of(res.duality_gap),
            bits_of(res.psd_margin), res.iterations, res.converged)


class TestLeanLoops:
    """The lean ADMM iterations give the iterates of the loop they replace,
    bit for bit, at ADMM_STOP_TOL's stop rule: an attempt has converged
    exactly when both of its residuals fell below ADMM_STOP_TOL."""

    @settings(max_examples=100, deadline=None)
    @given(weighted_supports(), st.sampled_from([1, 5, 40, 2000]))
    def test_bitwise_equal_to_the_oracles(self, case, max_iter):
        pattern, weights = case
        on = pattern.mask
        params = search.SearchParams(target_rank=1, max_iter=max_iter)
        c = search._objective_weights(on, weights)
        sdps = search._sdp_loop(on, c, params)
        expected = oracle_sdp_loop(on, c.copy(), params, tight=False)
        assert [sdp_bits(r) for r in sdps] == [sdp_bits(r) for r in expected]
        for res in expected:
            assert res.converged == (max(res.stop_residuals) < search.ADMM_STOP_TOL)


def each_projection(monkeypatch, check):
    """Run check(input, output, d) on every linalg._clip_project call from
    now on, and count the calls."""
    calls = []
    clip_project = linalg._clip_project

    def checked(a, d):
        out = clip_project(a, d)
        calls.append(len(a))
        return check(a, out, d) if check else out

    monkeypatch.setattr(linalg, "_clip_project", checked)
    return calls


def nonfinite_at(call: int, bad: float):
    """A check that spoils one symmetric pair of the first member of the
    call-th projection's output with bad."""
    count = [0]

    def check(a, out, d):
        count[0] += 1
        if count[0] == call:
            out[0, 0, 1] = out[0, 1, 0] = bad
        return out

    return check


class TestLoopsProjectUnvalidated:
    """ADMM calls linalg._clip_project, which checks nothing: its iterates
    are exactly symmetric and finite by construction, and a residual that is
    not finite stops it with the projections' error.  Refinement's matrices
    are exactly symmetric too, and a step that is not finite stops it."""

    @settings(max_examples=60, deadline=None)
    @given(weighted_supports(), st.sampled_from([1, 5, 40, 2000]), st.data())
    def test_iterates_exactly_symmetric(self, case, max_iter, draw):
        pattern, weights = case
        on = pattern.mask
        d = draw.draw(st.integers(1, pattern.n))
        params = search.SearchParams(target_rank=d, max_iter=max_iter)

        def symmetric(a, out, d):
            assert np.isfinite(a).all()
            assert bits_of(a) == bits_of(a.swapaxes(-1, -2))
            assert bits_of(out) == bits_of(out.swapaxes(-1, -2))
            return out

        with pytest.MonkeyPatch.context() as mp:
            calls = each_projection(mp, symmetric)
            sdps = search._sdp_loop(on, search._objective_weights(on, weights), params)
        assert len(calls) >= 1
        for sdp in sdps:
            refined = search.rank_refine(sdp.matrix, d, pattern).matrix
            assert np.isfinite(refined).all()
            assert bits_of(refined) == bits_of(refined.T)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("call", [1, 3])
    def test_nonfinite_projection_stops_the_sdp(self, monkeypatch, bad, call):
        pattern = data.pentagon_support()
        on = pattern.mask
        weights = np.random.default_rng(0).uniform(0.5, 1.5, size=(3, 5, 5))
        calls = each_projection(monkeypatch, nonfinite_at(call, bad))
        with pytest.raises(PreconditionError, match="matrix entries must be finite"):
            search._sdp_loop(on, search._objective_weights(on, weights),
                             search.SearchParams(target_rank=3))
        assert calls == [3] * call

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("call", [1, 3])
    def test_nonfinite_projection_stops_refinement(self, monkeypatch, bad, call):
        # The pentagon's spectral start converges in three Gauss-Newton steps;
        # a step that is not finite stops refinement there, unconverged.
        pattern = data.pentagon_support()
        start = spectral_start(pattern)
        assert search.rank_refine(start, 3, pattern).iterations == 3
        solve = np.linalg.solve
        calls = []

        def spoiled(a, b):
            calls.append(len(a))
            out = solve(a, b)
            if len(calls) == call:
                out[0] = bad
            return out

        monkeypatch.setattr(np.linalg, "solve", spoiled)
        res = search.rank_refine(start, 3, pattern)
        assert (res.converged, res.reason, res.iterations) == (False, "stagnation", call)
        assert len(calls) == call and not math.isfinite(res.residuals[-1])

    @pytest.mark.parametrize("d,message", [(0, "target rank must be >= 1, got 0"),
                                           (6, "target rank 6 exceeds matrix size 5")])
    def test_refine_refuses_rank_before_its_first_iteration(self, monkeypatch, d, message):
        pattern = data.pentagon_support()
        calls = []
        eigh = linalg._eigh_lo
        monkeypatch.setattr(linalg, "_eigh_lo", lambda *a, **k: calls.append(1) or eigh(*a, **k))
        with pytest.raises(PreconditionError, match=message):
            search.rank_refine(np.eye(5), d, pattern)
        assert calls == []


class TestIterationCounts:
    """Every attempt of a bench support, all 20 weight draws at three seeds,
    stays well inside max_iter: a count guard against a slow tail coming
    back, not a timing test."""

    SUPPORTS = [
        ("pentagon", lambda: data.pentagon_support().bits, 3),
        ("prism", lambda: data.prism_support().bits, 4),
        ("selfpolar10", lambda: data.ten_support().bits, 4),
        ("gon7", lambda: gon_support(7), 3),
        ("four-cycle", lambda: data.four_cycle_support().bits, 3),
    ]

    @pytest.mark.parametrize("name,support,rank", SUPPORTS, ids=[c[0] for c in SUPPORTS])
    def test_every_attempt_under_300_iterations(self, name, support, rank):
        bits = support()
        pattern = search.apply_sisd(bits, search.sisd_check(bits))
        on = pattern.mask
        for seed in (0, 1, 5):
            params = search.SearchParams(target_rank=rank, seed=seed)
            # The draws randomized_retry makes for all params.retries attempts.
            weights = np.random.default_rng(seed).uniform(
                0.5, 1.5, size=(params.retries, pattern.n, pattern.n))
            c = search._objective_weights(on, weights)
            results = search._sdp_loop(on, c, params)
            assert all(res.iterations <= 300 for res in results)
            assert all(res.converged for res in results)
            tight = oracle_sdp_loop(on, c, params)
            assert all(res.converged and abs(res.duality_gap) <= 1e-8 for res in tight)

    def test_degenerate_supports_stop_within_500_iterations(self):
        # Random symmetric supports on 3-8 points with a unit diagonal, three
        # weight draws each: every attempt stops well inside max_iter.  Under
        # the tight stop, trial 182's first attempt (n = 8) ran to 2000.
        rng = np.random.default_rng(0)
        for _ in range(300):
            n = int(rng.integers(3, 9))
            upper = np.triu(rng.random((n, n)) < rng.uniform(0.3, 0.9), 1)
            bits = upper | upper.T | np.eye(n, dtype=bool)
            pattern = search.SupportPattern(bits.astype(np.uint8))
            params = search.SearchParams(target_rank=min(3, n))
            for _ in range(3):
                res = search.sdp_feasibility(pattern, rng.uniform(0, 2, (n, n)), params)
                assert res.converged and res.iterations <= 500


class TestRankRefine:
    def test_fixed_point(self, pentagon_slack):
        x = pentagon_slack / pentagon_slack[0, 0]
        res = search.rank_refine(x, 3, data.pentagon_support())
        assert res.converged and res.iterations == 0
        assert np.abs(res.matrix - x).max() <= 1e-12

    def test_uniform_weights_recover_regular_pentagon(self, pentagon_slack):
        # With uniform weights the optimum is the diagonally normalized
        # regular pentagon Gram, so the refined matrix is the bundled slack
        # up to positive row/column scaling.
        pattern = data.pentagon_support()
        params = search.SearchParams(target_rank=3)
        sdp = search.sdp_feasibility(pattern, np.ones((5, 5)), params)
        res = search.rank_refine(sdp.matrix, 3, pattern)
        assert res.converged
        assert equal_up_to_scaling(pentagon_slack, res.matrix, 1e-8)

    def test_prism_profile(self):
        pattern = data.prism_support()
        params = search.SearchParams(target_rank=4, seed=1)
        sdp = search.sdp_feasibility(
            pattern, np.ones((7, 7)), params
        )
        res = search.rank_refine(sdp.matrix, 4, pattern)
        assert res.converged
        vals = linalg.sym_eigen(res.matrix).values
        assert np.all(vals[:4] >= 0.5) and np.all(vals[:4] <= 9.0)
        assert np.abs(vals[4:]).max() < 1e-8

    def test_residuals_monotone(self):
        # Near a realization Gauss-Newton converges quadratically: from the
        # pentagon's all-ones SDP optimum and from its spectral start every
        # step lowers max|F|.
        pattern = data.pentagon_support()
        sdp = search.sdp_feasibility(pattern, np.ones((5, 5)), search.SearchParams(target_rank=3))
        for start in (sdp.matrix, spectral_start(pattern)):
            res = search.rank_refine(start, 3, pattern)
            assert res.converged and len(res.residuals) == res.iterations + 1
            for a, b in zip(res.residuals, res.residuals[1:]):
                assert b < a
        assert res.iterations == 3 and res.residuals[-1] < search.REFINE_STOP_TOL

    def test_stagnation_after_patience_flat_steps(self):
        # Rank 2 cannot hold four orthogonal unit vectors (a diagonal support):
        # no step finds a new minimum of max|F|, so refinement stops after
        # REFINE_PATIENCE steps.
        res = search.rank_refine(
            np.eye(4), 2, search.SupportPattern(np.eye(4, dtype=np.uint8)),
        )
        assert (res.converged, res.reason) == (False, "stagnation")
        assert res.iterations == search.REFINE_PATIENCE
        assert res.residuals == [1.0] * (search.REFINE_PATIENCE + 1)

    def test_step_cap(self, monkeypatch):
        monkeypatch.setattr(search, "REFINE_STEPS", 2)
        pattern = data.pentagon_support()
        res = search.rank_refine(spectral_start(pattern), 3, pattern)
        assert (res.converged, res.reason, res.iterations) == (False, "step cap", 2)
        assert np.all(np.diag(res.matrix) == 1.0) and np.all(res.matrix[~pattern.mask] == 0.0)

    @pytest.mark.parametrize("n,d,density", [(12, 3, 0.6), (12, 3, 0.15), (9, 2, 0.0)])
    def test_step_is_the_dense_jacobians_minimum_norm_step(self, monkeypatch, n, d, density):
        # One step through J J^T (dense supports: m <= nd) or J^T J (sparse
        # ones) equals V - J^+ F with J built entry by entry.
        rng = np.random.default_rng(n + d)
        bits = rng.random((n, n)) < density
        bits = (bits | bits.T | np.eye(n, dtype=bool)).astype(np.uint8)
        pattern = search.SupportPattern(bits)
        x = rng.standard_normal((n, n))
        x = x @ x.T
        v = linalg.EigenDecomposition(*linalg._eigh(x)).factor(d)
        i, j = np.nonzero(np.triu(~pattern.mask, 1))
        i, j = np.concatenate([np.arange(n), i]), np.concatenate([np.arange(n), j])
        jac = np.zeros((len(i), n, d))
        for row, (p, q) in enumerate(zip(i, j)):
            jac[row, p] += v[q]
            jac[row, q] += v[p]
        f = (v @ v.T)[i, j] - (i == j)
        v1 = v - (np.linalg.pinv(jac.reshape(len(i), n * d)) @ f).reshape(n, d)
        want = np.where(pattern.mask, v1 @ v1.T, 0.0)
        np.fill_diagonal(want, 1.0)
        monkeypatch.setattr(search, "REFINE_STEPS", 1)
        res = search.rank_refine(x, d, pattern)
        assert res.iterations == 1
        assert np.abs(res.matrix - want).max() < 1e-9

    def test_large_sparse_support_bounds_memory(self):
        # A 300-point diagonal support at rank 3 has 45 150 equations and 900
        # unknowns: J^T J has 810 000 entries, where J itself would have
        # 40 635 000 (325 MB).
        pattern = search.SupportPattern(np.eye(300, dtype=np.uint8))
        tracemalloc.start()
        try:
            start = time.perf_counter()
            res = search.rank_refine(np.eye(300), 3, pattern)
            wall = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (res.converged, res.reason) == (False, "stagnation")
        assert peak < 64e6 and wall < 5.0

    @pytest.mark.parametrize("k", [51, 201])
    def test_spectral_start_converges_through_a_rise(self, k):
        # From the spectral start of a large odd k-gon the first steps raise
        # max|F| (0.49 -> 3.9 -> 0.87 at the 201-gon) before Gauss-Newton
        # converges; a stop at the first rise would fail it.
        bits = gon_support(k)
        pattern = search.apply_sisd(bits, search.sisd_check(bits))
        res = search.rank_refine(spectral_start(pattern), 3, pattern)
        assert res.residuals[1] > res.residuals[0]
        assert res.converged and res.iterations <= 8
        assert search.certify(res.matrix, pattern, 3, geometry.DEFAULT_FACET_TOL)[0] is not None

    @pytest.mark.parametrize("name,support,rank", [
        ("pentagon", lambda: data.pentagon_support().bits, 3),
        ("prism", lambda: data.prism_support().bits, 4),
        ("selfpolar10", lambda: data.ten_support().bits, 4),
        ("gon7", lambda: gon_support(7), 3),
        ("four-cycle", lambda: data.four_cycle_support().bits, 3),
    ], ids=["pentagon", "prism", "selfpolar10", "gon7", "four-cycle"])
    def test_certifies_wherever_alternating_projections_do(self, name, support, rank):
        # Every SDP attempt of seeds 0-2, cut at 40 iterations or not: where
        # the alternating-projection oracle's matrix certifies, Gauss-Newton's
        # does too.  From an SDP optimum (the tight oracle's converged
        # results), both land on the same matrix.
        bits = support()
        pattern = search.apply_sisd(bits, search.sisd_check(bits))
        n = pattern.n
        tol = geometry.DEFAULT_FACET_TOL
        for seed, max_iter in itertools.product(range(3), (2000, 40)):
            weights = np.random.default_rng(seed).uniform(0.5, 1.5, size=(19, n, n))
            params = search.SearchParams(target_rank=rank, max_iter=max_iter)
            c = search._objective_weights(pattern.mask, weights)
            for sdp in search._sdp_loop(pattern.mask, c, params):
                oracle, converged = oracle_rank_refine(sdp.matrix, rank, pattern)
                res = search.rank_refine(sdp.matrix, rank, pattern)
                if converged and search.certify(oracle, pattern, rank, tol)[0] is not None:
                    assert res.converged
                    assert search.certify(res.matrix, pattern, rank, tol)[0] is not None
            for sdp in oracle_sdp_loop(pattern.mask, c, params):
                if sdp.converged:
                    oracle, converged = oracle_rank_refine(sdp.matrix, rank, pattern)
                    res = search.rank_refine(sdp.matrix, rank, pattern)
                    assert converged and res.converged
                    assert np.abs(oracle - res.matrix).max() <= 1e-10

    @settings(max_examples=100, deadline=None)
    @given(weighted_supports(), st.data())
    def test_converged_refinement_has_no_trailing_eigenvalue(self, case, draw):
        # A converged matrix is a rank-<= d PSD matrix plus an entrywise
        # error below REFINE_STOP_TOL, so by Weyl's inequality its
        # eigenvalues past the d-th lie within n * REFINE_STOP_TOL of 0.
        pattern, weights = case
        d = draw.draw(st.integers(1, pattern.n))
        start = weights[0] + weights[0].T - 2.0  # symmetric, entries of both signs
        res = search.rank_refine(start, d, pattern)
        if res.converged:
            trailing = np.sort(np.abs(np.linalg.eigvalsh(res.matrix)))[::-1][d:]
            assert trailing.size == 0 or trailing.max() <= 1e-10

    def test_four_cycle_refinement_is_not_a_realization(self):
        # With uniform weights the four-cycle support refines to a perfectly
        # valid rank-3 circulant, but that matrix is not a slack matrix (one
        # zero per row is too few for dimension 3) and the extracted cone
        # fails self-duality verification.
        pattern = data.four_cycle_support()
        params = search.SearchParams(target_rank=3, seed=0)
        sdp = search.sdp_feasibility(pattern, np.ones((4, 4)), params)
        res = search.rank_refine(sdp.matrix, 3, pattern)
        assert res.converged and res.matrix.min() >= -patterns.SUPPORT_CLAMP
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

def sequential_retry(pattern, params, verify_tol=geometry.DEFAULT_FACET_TOL):
    """The spectral start, the all-ones SDP after one iteration, then one
    sdp_feasibility call per attempt, each with its own (n, n) weight draw;
    each attempt refined, recorded and certified before the next one runs."""
    rng = np.random.default_rng(params.seed)
    n = pattern.n
    attempts = []
    for index in range(params.retries):
        if index == 0:
            sdp = search.sdp_feasibility(pattern, np.ones((n, n)),
                                         dataclasses.replace(params, max_iter=1))
            assert np.array_equal(sdp.matrix, spectral_start(pattern))
        else:
            sdp = search.sdp_feasibility(pattern, rng.uniform(0.5, 1.5, size=(n, n)), params)
        refined = search.rank_refine(sdp.matrix, params.target_rank, pattern)
        record = search.AttemptRecord(
            index=index,
            sdp_converged=sdp.converged,
            sdp_iterations=sdp.iterations,
            objective=sdp.objective,
            psd_margin=sdp.psd_margin,
            sdp_duality_gap=sdp.duality_gap,
            refine_converged=refined.converged,
            refine_iterations=refined.iterations,
            refine_reason=refined.reason,
            refine_affine_residual=refined.residuals[-1],
        )
        attempts.append(record)
        if refined.converged:
            real, report, record.certify_reason = search.certify(
                refined.matrix, pattern, params.target_rank, verify_tol)
            record.certified = real is not None
            if record.certified:
                return search.RetryResult(refined.matrix, True, attempts, real, report)
    return search.RetryResult(matrix=None, success=False, attempts=attempts)


def gon_support(k: int) -> np.ndarray:
    cone = geometry.cone_over_polytope(data.regular_polygon_vertices(k))
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


def caller() -> str:
    """The innermost search function on the stack: for an eigh or
    projection stand-in, the function that called it, such as _sdp_loop or
    rank_refine."""
    frame = sys._getframe(1)
    while frame.f_globals["__name__"] != search.__name__:
        frame = frame.f_back
    return frame.f_code.co_name


def lapack_failure():
    """What numpy's eigh kernel does when LAPACK fails: it raises the invalid
    floating-point flag, here from 0/0, which linalg._eigh turns into a
    ConvergenceError."""
    return np.zeros(1) / np.zeros(1)


class TestStackedRetries:
    """Attempts after the first run as stacks; the transcript has to be the
    one the sequential loop writes, bit for bit."""

    SUPPORTS = [
        ("pentagon", lambda: data.pentagon_support().bits, 3),
        ("prism", lambda: data.prism_support().bits, 4),
        ("selfpolar10", lambda: data.ten_support().bits, 4),
        ("gon7", functools.partial(gon_support, 7), 3),
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
                assert bits_of(res.objective) == bits_of(alone.objective)
                assert bits_of(res.duality_gap) == bits_of(alone.duality_gap)
                assert bits_of(res.matrix) == bits_of(alone.matrix)
                assert res.iterations == alone.iterations
                assert res.converged == alone.converged
                assert bits_of(res.psd_margin) == bits_of(alone.psd_margin)

    def test_four_cycle_runs_stacks(self, monkeypatch):
        # Guards the test above: a failing support must reach the stacked
        # solver, one eigh call per iteration for the whole stack.  The
        # spectral attempt runs one SDP iteration as a stack of one, then
        # attempts 1-19 are one stack of 19 and no SDP projection sees a lone
        # matrix until the stack shrinks; the pentagon wins at the spectral
        # attempt and runs no other SDP.
        shapes = []
        eigh = linalg._eigh_lo

        def recorded(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return eigh(a, *args, **kwargs)

        def projection(fn):
            def wrapper(a, d):
                if caller() == "_sdp_loop":
                    sdp_shapes.append(np.shape(a))
                return fn(a, d)
            return wrapper

        monkeypatch.setattr(linalg, "_eigh_lo", recorded)
        monkeypatch.setattr(linalg, "_clip_project", projection(linalg._clip_project))
        for support, attempts in ((data.pentagon_support, 1), (data.four_cycle_support, 20)):
            pattern = support()
            n = pattern.n
            shapes, sdp_shapes = [], []
            res = search.randomized_retry(pattern, search.SearchParams(target_rank=3, seed=5))
            assert len(res.attempts) == attempts and res.success == (attempts == 1)
            assert all(len(s) == 3 and s[1:] == (n, n) for s in sdp_shapes)
            assert sdp_shapes[0] == (1, n, n)
            assert sdp_shapes[1:2] == ([(19, n, n)] if attempts > 1 else [])
        assert (19, 4, 4) in shapes

    def test_stack_failure_reruns_one_attempt_at_a_time(self, monkeypatch):
        # Every stack of more than one attempt fails; each rerun is one
        # sdp_feasibility call, one per recorded attempt, as is the spectral
        # attempt's one iteration.
        eigh = linalg._eigh_lo
        stacks = []
        sdp = search.sdp_feasibility

        def fail_on_stacks(a, *args, **kwargs):
            if np.ndim(a) > 2 and len(a) > 1:
                stacks.append(np.shape(a))
                return lapack_failure()
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
                mp.setattr(linalg, "_eigh_lo", fail_on_stacks)
                mp.setattr(search, "_RETRY_STACK", 5)
                mp.setattr(search, "sdp_feasibility", counted_sdp)
                result = search.run_pipeline(bits, params)
            assert pipeline_bits(result) == expected
            assert len(solves) == len(result.retry.attempts)
        assert stacks

    def test_error_surfaces_at_its_attempt(self, monkeypatch):
        # Every eigh call from attempt 3 on (the fourth sdp_feasibility call,
        # the spectral attempt's being the first) fails: the stacked solve
        # fails, the rerun records attempt 2 and raises in attempt 3, as the
        # sequential loop does.
        eigh = linalg._eigh_lo
        calls = {"weights": 0}
        sdp = search.sdp_feasibility

        def counted_sdp(pattern, weights, params):
            calls["weights"] += 1
            return sdp(pattern, weights, params)

        def failing(a, *args, **kwargs):
            if (np.ndim(a) > 2 and len(a) > 1) or calls["weights"] >= 4:
                return lapack_failure()
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(search, "sdp_feasibility", counted_sdp)
        monkeypatch.setattr(linalg, "_eigh_lo", failing)
        with pytest.raises(ConvergenceError, match="eigh did not converge"):
            search.randomized_retry(
                data.four_cycle_support(), search.SearchParams(target_rank=3, seed=5)
            )
        assert calls["weights"] == 4

    def test_one_rank_refine_call_per_attempt(self, monkeypatch):
        # Every attempt, the spectral one and each stacked SDP result, is
        # refined by its own rank_refine call, the function the bench counts.
        refine = search.rank_refine
        calls = []

        def counted(x, d, pattern):
            calls.append(np.shape(x))
            return refine(x, d, pattern)

        monkeypatch.setattr(search, "rank_refine", counted)
        for seed in (0, 5):
            calls = []
            res = search.randomized_retry(data.four_cycle_support(),
                                          search.SearchParams(target_rank=3, seed=seed))
            assert len(res.attempts) == 20 and calls == [(4, 4)] * 20
            assert res.attempts[0].sdp_iterations == 1
            assert all(a.sdp_iterations > 1 for a in res.attempts[1:])

    def test_refinement_error_surfaces_at_its_attempt(self, monkeypatch):
        # Every refinement from the third attempt on fails: attempts 1 and 2
        # are recorded and certified before the error of attempt 3 surfaces,
        # as in the sequential loop.
        eigh = linalg._eigh
        refine = search.rank_refine
        certify = search.certify
        calls = {"refine": 0, "certify": 0}

        def counted_refine(x, d, pattern):
            calls["refine"] += 1
            return refine(x, d, pattern)

        def counted_certify(*args):
            calls["certify"] += 1
            return certify(*args)

        def failing(a):
            if caller() == "rank_refine" and calls["refine"] >= 3:
                raise ConvergenceError("eigh did not converge")
            return eigh(a)

        monkeypatch.setattr(search, "rank_refine", counted_refine)
        monkeypatch.setattr(search, "certify", counted_certify)
        monkeypatch.setattr(linalg, "_eigh", failing)
        with pytest.raises(ConvergenceError, match="eigh"):
            search.randomized_retry(
                data.four_cycle_support(), search.SearchParams(target_rank=3, seed=5)
            )
        assert calls == {"refine": 3, "certify": 2}

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
        assert np.abs(real.gram - pentagon_slack).max() <= 1e-12
        assert np.abs(real.gram - real.generators @ real.generators.T).max() == 0.0
        report = search.verify_realization(real, data.pentagon_support(), tol=1e-7)
        assert report.passed

    def test_identity(self):
        real = search.extract_realization(np.eye(4), 4)
        gram = real.generators @ real.generators.T
        assert np.abs(gram - np.eye(4)).max() <= 1e-12

    def test_disconnected_support_certifies(self, pentagon_slack):
        block = np.zeros((10, 10))
        block[:5, :5] = pentagon_slack
        block[5:, 5:] = pentagon_slack
        real = search.extract_realization(block, 6)
        pattern = search.SupportPattern.from_matrix(block)
        assert search.verify_realization(real, pattern).passed

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


def corpus() -> list[tuple[str, np.ndarray, int, range]]:
    """(name, support, rank, seeds) of the search corpus: the bench supports
    at seeds 0-19, the odd 9- to 31-gons at seeds 0-9, and direct sums at
    seeds 0-2, their rows then columns shuffled by a fresh default_rng(1)
    (a ray's support is [[1]]; a pyramid over a polygon is its sum with a ray)."""
    pentagon, prism = data.pentagon_support().bits, data.prism_support().bits
    ten, gon7, ray = data.ten_support().bits, gon_support(7), np.ones((1, 1), np.uint8)
    items = [("pentagon", pentagon, 3, range(20)), ("prism", prism, 4, range(20)),
             ("selfpolar10", ten, 4, range(20)), ("gon7", gon7, 3, range(20)),
             ("four-cycle", data.four_cycle_support().bits, 3, range(20))]
    items += [(f"gon{k}", gon_support(k), 3, range(10)) for k in range(9, 32, 2)]
    sums = [("pentagon+pentagon", (pentagon, pentagon), 6), ("pentagon+gon7", (pentagon, gon7), 6),
            ("3 pentagons", (pentagon,) * 3, 9), ("selfpolar10+pentagon", (ten, pentagon), 7),
            ("prism+ray", (prism, ray), 5), ("pyramid7", (gon7, ray), 4),
            ("pyramid25", (gon_support(25), ray), 4)]
    for name, blocks, rank in sums:
        rng = np.random.default_rng(1)
        bits = block_diag(*blocks).astype(np.uint8)
        bits = bits[np.ix_(rng.permutation(len(bits)), rng.permutation(len(bits)))]
        items.append((name, bits, rank, range(3)))
    return items


class TestCorpus:
    """A regression net over 241 (support, seed) pairs of run_pipeline at
    the default params: which pairs certify, and where the SDP attempts
    win once the spectral attempt is declined."""

    def test_every_pair_certifies_but_the_known_failures(self):
        items = corpus()
        assert sum(len(seeds) for *_, seeds in items) == 241
        failed = []
        for name, bits, rank, seeds in items:
            for seed in seeds:
                res = search.run_pipeline(bits, search.SearchParams(target_rank=rank, seed=seed))
                if not res.success:
                    failed.append((name, seed))
        assert failed == [("four-cycle", seed) for seed in range(20)] + [
            ("pyramid25", 0), ("pyramid25", 2)]

    @pytest.mark.parametrize("name,support,rank", TestIterationCounts.SUPPORTS[:4],
                             ids=[c[0] for c in TestIterationCounts.SUPPORTS[:4]])
    def test_sdp_attempts_win_at_once(self, name, support, rank, monkeypatch):
        decline_spectral_attempt(monkeypatch)
        bits = support()
        for seed in range(10):
            res = search.run_pipeline(bits, search.SearchParams(target_rank=rank, seed=seed))
            assert res.retry.winning_attempt == 1


class TestPipeline:
    def test_pentagon_end_to_end(self):
        res = search.run_pipeline(
            data.pentagon_support().bits, search.SearchParams(target_rank=3, seed=0)
        )
        assert res.success
        assert res.verification.passed
        assert res.realization.residuals["selfdual_gap"] <= 1e-6

    @pytest.mark.parametrize("name,support,rank", TestStackedRetries.SUPPORTS[:4],
                             ids=[c[0] for c in TestStackedRetries.SUPPORTS[:4]])
    def test_certified_refinement_keeps_criterion_6_magnitudes(self, name, support, rank):
        # certify is the only gate on a refined matrix; every winner must
        # still show acceptance criterion 6's magnitudes.
        bits = support()
        for seed in range(10):
            res = search.run_pipeline(bits, search.SearchParams(target_rank=rank, seed=seed))
            assert res.success
            x = res.retry.matrix
            off = res.pattern.mask & ~np.eye(res.pattern.n, dtype=bool)
            assert np.abs(x[off]).min() >= 1e-4
            assert np.abs(np.diag(x) - 1.0).max() <= 1e-10
            trailing = np.sort(np.abs(np.linalg.eigvalsh(x)))[::-1][rank:]
            assert trailing.max() < 1e-8

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

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("blocks", [(5, 1), (7, 1), (13, 1), (5, 5), (5, 7)],
                             ids=["pyramid5", "pyramid7", "pyramid13",
                                  "pentagon+pentagon", "pentagon+heptagon"])
    def test_reducible_supports_certify(self, blocks, seed):
        # Direct sums of polygon cones, a 1 standing for a ray: the
        # support graph of each slack has two components.
        gens = block_diag(*(
            geometry.cone_over_polytope(data.regular_polygon_vertices(k)).generators
            if k > 1 else np.ones((1, 1))
            for k in blocks
        ))
        cone = geometry.PolyhedralCone(gens)
        bits = patterns.support_of(geometry.slack_matrix(cone).matrix).astype(np.uint8)
        res = search.run_pipeline(bits, search.SearchParams(target_rank=cone.dim, seed=seed))
        assert res.success
        assert search.verify_realization(res.realization, res.pattern, 1e-6).passed
        assert selfdual.is_self_dual(res.realization.cone)[0]

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
        ref1 = search.rank_refine(sdp1.matrix, 3, pattern)
        sdp2 = search.sdp_feasibility(
            relabelled, weights[np.ix_(tau, tau)], params
        )
        ref2 = search.rank_refine(sdp2.matrix, 3, relabelled)
        assert ref1.converged and ref2.converged
        back = ref2.matrix[np.ix_(np.argsort(tau), np.argsort(tau))]
        assert equal_up_to_scaling(ref1.matrix, back, tol=1e-5)


class TestOneCertifier:
    """search, analyze and certify_psd_slack judge a refined matrix by one
    rule at one tolerance, geometry.DEFAULT_FACET_TOL, so they give one
    verdict on it."""

    CASES = [("gon17", functools.partial(gon_support, 17), 3, 6)] + [
        (name, support, rank, seed)
        for name, support, rank in TestStackedRetries.SUPPORTS[:4]
        for seed in range(3)
    ]

    @pytest.mark.parametrize("name,support,rank,seed", CASES,
                             ids=[f"{c[0]}-seed{c[3]}" for c in CASES])
    def test_callers_agree_on_every_refined_matrix(self, monkeypatch, name, support,
                                                   rank, seed):
        seen = []
        certify = search.certify

        def recorded(matrix, pattern, d, tol):
            assert tol == geometry.DEFAULT_FACET_TOL
            result = certify(matrix, pattern, d, tol)
            seen.append((matrix, result[0] is not None))
            return result

        monkeypatch.setattr(search, "certify", recorded)
        res = search.run_pipeline(support(), search.SearchParams(target_rank=rank, seed=seed))
        assert res.success and seen
        for matrix, searched in seen:
            report = analysis.analyze_matrix(matrix, rank, linalg.PSD_TOL, name)
            analyzed = report.results["selfdual_certification"]["certified"]
            assert searched == analyzed == selfdual.certify_psd_slack(matrix, rank)[0]

    def test_small_structural_margin_is_reported_not_refused(self, monkeypatch):
        # With the spectral attempt declined, the 17-gon's first SDP attempt
        # at seed 6 refines to a matrix whose smallest on-support slack ratio
        # is near 3e-5; it certifies, and the margin stays in the report.
        decline_spectral_attempt(monkeypatch)
        res = search.run_pipeline(gon_support(17), search.SearchParams(target_rank=3, seed=6))
        assert res.retry.winning_attempt == 1
        assert 1e-5 < res.verification.min_structural_ratio < 1e-4


# -- the projection path the SDP and refinement loops used before the lean
# -- projections, kept as an oracle ------------------------------------------

def oracle_reconstruct(eig: linalg.EigenDecomposition, weights: np.ndarray) -> np.ndarray:
    b = (eig.vectors * weights) @ eig.vectors.T
    return 0.5 * (b + b.T)


def oracle_psd_project(a):
    eig = linalg.sym_eigen(a)
    return oracle_reconstruct(eig, np.clip(eig.values, 0.0, None))


def oracle_clip_project(a, d):
    """linalg._clip_project as ADMM calls it, keeping every eigenvalue:
    psd_project's oracle."""
    assert d == a.shape[-1]
    return oracle_psd_project(a)


def oracle_affine_project(x, on):
    y = x.copy()
    y[~on] = 0.0
    np.fill_diagonal(y, 1.0)
    return y


def bits_of(x) -> bytes:
    return np.asarray(x, dtype=float).tobytes()


def each_member(oracle):
    """oracle, written for one matrix, applied to one matrix or to each
    matrix of a stack (its first argument); a stack's results are stacked."""

    @functools.wraps(oracle)
    def apply(a, *args):
        if np.ndim(a) == 2:
            return oracle(a, *args)
        return np.stack([oracle(m, *args) for m in a])

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
        ref = search.rank_refine(sdp.matrix, params.target_rank, pattern)
        return sdp, ref

    @pytest.mark.parametrize("name,support,rank", CASES, ids=[c[0] for c in CASES])
    def test_bitwise_equal_iterates(self, name, support, rank, monkeypatch):
        pattern = support()
        for seed in (0, 1, 5):
            params = search.SearchParams(target_rank=rank, seed=seed)
            weights = np.random.default_rng(seed).uniform(0.5, 1.5, size=(pattern.n,) * 2)
            sdp, ref = self._run(pattern, weights, params)
            with monkeypatch.context() as mp:
                mp.setattr(linalg, "_clip_project", each_member(oracle_clip_project))
                mp.setattr(search, "_affine_project", each_member(oracle_affine_project))
                sdp_o, ref_o = self._run(pattern, weights, params)
            assert sdp.iterations == sdp_o.iterations
            assert bits_of(sdp.objective) == bits_of(sdp_o.objective)
            assert bits_of(sdp.duality_gap) == bits_of(sdp_o.duality_gap)
            assert bits_of(sdp.matrix) == bits_of(sdp_o.matrix)
            assert sdp.psd_margin == sdp_o.psd_margin
            assert sdp.converged == sdp_o.converged
            assert ref.iterations == ref_o.iterations
            assert bits_of(ref.matrix) == bits_of(ref_o.matrix)
            assert bits_of(ref.residuals) == bits_of(ref_o.residuals)
            assert (ref.converged, ref.reason) == (ref_o.converged, ref_o.reason)

    def test_oracle_was_called(self, monkeypatch):
        # Guards the test above against patching names the loops never use.
        calls = []

        def counted(fn):
            def wrapper(*args):
                calls.append(fn.__name__)
                return fn(*args)
            return wrapper

        monkeypatch.setitem(globals(), "oracle_psd_project", counted(oracle_psd_project))
        monkeypatch.setattr(linalg, "_clip_project", each_member(oracle_clip_project))
        monkeypatch.setattr(search, "_affine_project",
                            each_member(counted(oracle_affine_project)))
        pattern = data.pentagon_support()
        params = search.SearchParams(target_rank=3)
        self._run(pattern, np.ones((5, 5)), params)
        # ADMM projects on the PSD cone and the affine set; refinement's
        # result is its one affine projection.
        assert set(calls) == {"oracle_psd_project", "oracle_affine_project"}


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
        assert patterns.is_connected(mask) is expected
        # The callers see the same graph through a weighted symmetric matrix.
        weighted = np.where(mask, 2.0, 0.0) + np.eye(mask.shape[0])
        assert selfdual.is_irreducible(weighted) is expected
        if mask.shape[0] == 5:
            off = mask & ~np.eye(5, dtype=bool)
            cycle = bool((off.sum(axis=1) == 2).all()) and expected
            assert dnn._is_cycle5(patterns.support_of(weighted)) is cycle

    def test_small_cases(self):
        assert patterns.is_connected(np.zeros((0, 0), dtype=bool))
        assert patterns.is_connected(np.zeros((1, 1), dtype=bool))
        assert not patterns.is_connected(np.eye(2, dtype=bool))
        path = np.eye(4, k=1, dtype=bool)
        assert patterns.is_connected(path | path.T)


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


def refusal(call, *args) -> str:
    """The message of the PreconditionError that call(*args) raises."""
    with pytest.raises(PreconditionError) as exc:
        call(*args)
    return str(exc.value)


PATTERN3 = search.SupportPattern(np.eye(3, dtype=np.uint8))
PARAMS3 = search.SearchParams(target_rank=1)

# Each public function's refusal of a malformed argument, as a call that
# returns the refusal (a raised message, or a returned verdict) and its value.
PUBLIC_REFUSALS = {
    "analyze_matrix-rank-0": (
        lambda: refusal(analysis.analyze_matrix, np.eye(2), 0, linalg.PSD_TOL, "m"),
        "rank must be >= 1, got 0"),
    "analyze_matrix-tol-nan": (
        lambda: refusal(analysis.analyze_matrix, np.eye(2), 2, math.nan, "m"),
        "tol must be finite and positive, got nan"),
    "SupportPattern-not-square": (
        lambda: refusal(search.SupportPattern, np.ones((2, 3), dtype=np.uint8)),
        "support pattern must be square"),
    "sisd_check-not-square": (
        lambda: refusal(search.sisd_check, np.ones((2, 3), dtype=np.uint8)),
        "support must be a square matrix"),
    "sdp_feasibility-weights-shape": (
        lambda: refusal(search.sdp_feasibility, PATTERN3, np.ones((2, 2)), PARAMS3),
        "weights must be 3x3"),
    "rank_refine-sizes": (
        lambda: refusal(search.rank_refine, np.eye(2), 1, PATTERN3),
        "matrix and support sizes disagree"),
    "classify_psd_slack-zero": (
        lambda: refusal(dnn.classify_psd_slack, np.zeros((3, 3)), True, False),
        "zero matrix is not a slack matrix"),
    "slack_necessary_check-empty": (
        lambda: geometry.slack_necessary_check(np.zeros((0, 0)), 3),
        (False, ["empty matrix"])),
    "certify_slack-count": (
        lambda: selfdual.certify_slack(geometry.PolyhedralCone(np.eye(3)),
                                       np.eye(2, dtype=bool), 1e-7).details,
        ["3 generators for a 2-point support"]),
}


@pytest.mark.parametrize("name", sorted(PUBLIC_REFUSALS))
def test_public_refusal(name):
    call, expected = PUBLIC_REFUSALS[name]
    assert call() == expected


def test_congruence_with_a_negative_m_is_false():
    # A = M B M^T holds exactly; only M's sign refuses it.
    assert not dnn.verify_congruence(np.eye(2), -np.eye(2), np.eye(2))


def test_full_support_has_no_support_violation():
    real = search.extract_realization(np.ones((3, 3)), 1)
    assert real.residuals["support_violation"] == 0.0


def test_certify_refuses_a_cone_of_another_support():
    # The pentagon slack against its support relabelled by i -> 2i mod 5:
    # the factor cone is the pentagon, whose zeros are not that support's.
    order = [2 * i % 5 for i in range(5)]
    bits = data.pentagon_support().bits[np.ix_(order, order)]
    real, report, why = search.certify(data.pentagon_slack(), search.SupportPattern(bits),
                                       3, geometry.DEFAULT_FACET_TOL)
    assert real is None and report is None
    assert why.startswith("verification failed: slack support mismatch")


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
