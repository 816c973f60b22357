from __future__ import annotations

import numpy as np
import pytest

from sdcones import data, dnn, linalg, patterns, search
from sdcones.errors import ConvergenceError, PreconditionError

from conftest import random_orthogonal


def random_dnn(rng: np.random.Generator, n: int) -> np.ndarray:
    """Random DNN matrix via a nonnegative factor with a randomized support."""
    k = int(rng.integers(1, n + 1))
    x = rng.uniform(0.0, 1.0, size=(n, k))
    x[rng.uniform(size=(n, k)) < 0.35] = 0.0
    a = x @ x.T + np.diag(rng.uniform(0.0, 0.5, size=n))
    return 0.5 * (a + a.T)


def loop_system(a: np.ndarray, eig: linalg.EigenDecomposition, k: int):
    """The W1/W2 system of the extremality test as the per-entry loop built
    it: one column per image X E X^T of a basis matrix E, one row per zero
    entry (i <= j) of a; None when a has no zero entry."""
    x = eig.factor(k)
    images = []
    for p in range(k):
        for q in range(p, k):
            if p == q:
                b = np.outer(x[:, p], x[:, p])
            else:
                b = (np.outer(x[:, p], x[:, q]) + np.outer(x[:, q], x[:, p])) / np.sqrt(2.0)
            images.append(b)
    n = a.shape[0]
    zero_mask = ~search.support_of(a)
    zeros = [(i, j) for i in range(n) for j in range(i, n) if zero_mask[i, j]]
    if not zeros:
        return None
    c = np.zeros((len(zeros), len(images)))
    root2 = np.sqrt(2.0)
    for col, b in enumerate(images):
        for row, (i, j) in enumerate(zeros):
            c[row, col] = b[i, j] * (root2 if i != j else 1.0)
    return c


class TestIsDnn:
    def test_pentagon(self, pentagon_slack):
        assert dnn.is_dnn(pentagon_slack)

    def test_indefinite(self):
        assert not dnn.is_dnn(np.diag([1.0, -1.0]))

    def test_nonslack_extreme(self, nonslack_extreme):
        assert dnn.is_dnn(nonslack_extreme)

    def test_psd_with_negative_entry(self):
        m = np.array([[1.0, -0.5], [-0.5, 1.0]])
        assert not dnn.is_dnn(m)


class TestExtremality:
    def test_all_ones_rank_one(self):
        for n in (2, 4, 7):
            rep = dnn.dnn_extremality(np.ones((n, n)))
            assert rep.rank == 1
            assert rep.intersection_dim == 1
            assert rep.extreme

    def test_identity_not_extreme(self):
        for n in range(2, 9):
            rep = dnn.dnn_extremality(np.eye(n))
            assert rep.intersection_dim == n
            assert not rep.extreme

    def test_golden_extremes(self, pentagon_slack, prism_slack, nonslack_extreme):
        for m in (pentagon_slack, prism_slack, nonslack_extreme):
            rep = dnn.dnn_extremality(m)
            assert rep.extreme and rep.intersection_dim == 1

    def test_pentagon_support_flag(self, pentagon_slack):
        rep = dnn.dnn_extremality(pentagon_slack)
        assert rep.support_cycle5

    def test_rejects_non_dnn(self):
        with pytest.raises(PreconditionError):
            dnn.dnn_extremality(np.diag([1.0, -1.0]))
        with pytest.raises(PreconditionError):
            dnn.dnn_extremality(np.zeros((3, 3)))

    def test_scale_invariance(self):
        rng = np.random.default_rng(43)
        for _ in range(30):
            n = int(rng.integers(2, 8))
            a = random_dnn(rng, n)
            if np.abs(a).max() == 0.0:
                continue
            base = dnn.dnn_extremality(a)
            for alpha in (1e-3, 7.0, 1e3):
                rep = dnn.dnn_extremality(alpha * a)
                assert rep.extreme == base.extreme
                assert rep.intersection_dim == base.intersection_dim

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(47)
        for _ in range(30):
            n = int(rng.integers(2, 8))
            a = random_dnn(rng, n)
            if np.abs(a).max() == 0.0:
                continue
            base = dnn.dnn_extremality(a)
            perm = rng.permutation(n)
            p = np.eye(n)[perm]
            rep = dnn.dnn_extremality(p @ a @ p.T)
            assert rep.extreme == base.extreme
            assert rep.intersection_dim == base.intersection_dim

    def test_stacked_system_equals_the_loop(self, monkeypatch):
        systems = []
        numeric_rank = linalg.numeric_rank

        def capture(c):
            systems.append(c)
            return numeric_rank(c)

        monkeypatch.setattr(linalg, "numeric_rank", capture)
        rng = np.random.default_rng(61)
        matrices = [data.pentagon_slack(), data.prism_slack(),
                    data.nonslack_extreme_matrix(), np.eye(4), np.ones((3, 3))]
        matrices += [random_dnn(rng, int(rng.integers(1, 8))) for _ in range(30)]
        for a in matrices:
            eig = linalg.sym_eigen(a)
            for k in range(1, a.shape[0] + 1):
                systems.clear()
                dim = dnn._intersection_dim(eig, patterns.support_of(a), k)
                expected = loop_system(a, eig, k)
                if expected is None:
                    assert systems == [] and dim == k * (k + 1) // 2
                else:
                    assert len(systems) == 1
                    assert np.array_equal(systems[0], expected)

    def test_borderline_reports_neighbour_ranks(self):
        a = np.diag([1.0, 1.0, 3e-8])
        rep = dnn.dnn_extremality(a)
        assert rep.rank == 3
        assert rep.borderline is not None
        assert 2 in rep.borderline


class TestDnn5Classify:
    def test_all_ones(self):
        assert dnn.dnn5_classify(np.ones((5, 5))) == "rank1"

    def test_pentagon(self, pentagon_slack):
        assert dnn.dnn5_classify(pentagon_slack) == "pentagon_slack"

    def test_identity(self):
        assert dnn.dnn5_classify(np.eye(5)) == "not_extreme"

    def test_wrong_size_rejected(self, prism_slack):
        with pytest.raises(PreconditionError):
            dnn.dnn5_classify(prism_slack)


class TestClassifyPsdSlack:
    def test_pentagon(self, pentagon_slack):
        v = dnn.classify_psd_slack(pentagon_slack, irreducible=True, simplicial=False)
        assert v.dnn_extreme and not v.cp_member and not v.cpsd_member
        assert set(v.provenance) == {"dnn_extreme", "cp_member", "cpsd_member"}
        assert all(isinstance(s, str) and s for s in v.provenance.values())

    def test_prism(self, prism_slack):
        v = dnn.classify_psd_slack(prism_slack, irreducible=True, simplicial=False)
        assert v.dnn_extreme and not v.cp_member and not v.cpsd_member

    def test_identity(self):
        v = dnn.classify_psd_slack(np.eye(5), irreducible=False, simplicial=True)
        assert not v.dnn_extreme and v.cp_member and v.cpsd_member
        v1 = dnn.classify_psd_slack(np.eye(1), irreducible=True, simplicial=True)
        assert v1.dnn_extreme and v1.cp_member and v1.cpsd_member

    def test_inconsistent_hypothesis_raises(self, pentagon_slack):
        with pytest.raises(RuntimeError) as excinfo:
            dnn.classify_psd_slack(pentagon_slack, irreducible=False, simplicial=False)
        # Typed, so the CLI reports it with exit 3 instead of a traceback.
        assert excinfo.type is ConvergenceError

    def test_non_dnn_rejected(self):
        with pytest.raises(PreconditionError):
            dnn.classify_psd_slack(np.diag([1.0, -1.0]), True, False)


class TestVerifyCongruence:
    def test_bundled_triple(self):
        a, b, m = data.congruence_triple()
        assert dnn.verify_congruence(a, m, b, tol=1e-12)

    def test_identity(self):
        assert dnn.verify_congruence(np.eye(3), np.eye(3), np.eye(3))

    def test_perturbed_entry_rejected(self):
        a, b, m = data.congruence_triple()
        m2 = m.copy()
        m2[4, 4] += 0.1
        assert not dnn.verify_congruence(a, m2, b, tol=1e-12)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(PreconditionError):
            dnn.verify_congruence(np.eye(3), np.eye(4), np.eye(4))


class TestDnn5Law:
    def test_rescaled_pentagons_extreme(self, pentagon_slack):
        rng = np.random.default_rng(53)
        for _ in range(20):
            scales = np.exp(rng.uniform(-0.7, 0.7, size=5))
            a = pentagon_slack * np.outer(scales, scales)
            perm = rng.permutation(5)
            p = np.eye(5)[perm]
            a = p @ a @ p.T
            assert dnn.dnn5_classify(a) == "pentagon_slack"
            assert dnn.dnn_extremality(a).extreme

    def test_non_cycle_rank3_never_extreme(self):
        rng = np.random.default_rng(59)
        count = 0
        while count < 20:
            x = rng.uniform(0.1, 1.0, size=(5, 3))
            x[rng.uniform(size=(5, 3)) < 0.25] = 0.0
            a = x @ x.T
            if linalg.numeric_rank(a) != 3:
                continue
            rep_support = search.support_of(a)
            degrees = (rep_support & ~np.eye(5, dtype=bool)).sum(axis=1)
            if np.all(degrees == 2):
                continue  # avoid accidental cycles
            if not dnn.is_dnn(a):
                continue
            count += 1
            assert not dnn.dnn_extremality(a).extreme
