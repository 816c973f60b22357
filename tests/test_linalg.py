from __future__ import annotations

import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from sdcones import cli, data, dnn, geometry, linalg, search, selfdual
from sdcones.errors import ConvergenceError, PreconditionError

from conftest import full_svd_rank, random_orthogonal


def circulant_pentagon_eigenvalues() -> np.ndarray:
    """Independent oracle: eigenvalues of a symmetric 5-circulant with
    diagonal a and adjacent entries b are a + 2 b cos(2 pi k / 5)."""
    a = 1.0 + math.cos(math.pi / 5.0)
    b = math.sqrt(5.0) / 2.0
    vals = [a + 2.0 * b * math.cos(2.0 * math.pi * k / 5.0) for k in range(5)]
    return np.sort(np.asarray(vals))[::-1]


class TestSymEigen:
    def test_identity(self):
        eig = linalg.sym_eigen(np.eye(3))
        assert np.allclose(eig.values, [1.0, 1.0, 1.0], atol=0)
        assert np.allclose(eig.vectors @ eig.vectors.T, np.eye(3), atol=1e-12)

    def test_pentagon_circulant(self, pentagon_slack):
        eig = linalg.sym_eigen(pentagon_slack)
        expected = circulant_pentagon_eigenvalues()
        assert np.abs(eig.values - expected).max() <= 1e-9
        # Frozen values from the circulant formula.
        assert abs(eig.values[0] - 4.045084971874737) <= 1e-9
        assert abs(eig.values[1] - 2.5) <= 1e-9
        assert abs(eig.values[2] - 2.5) <= 1e-9
        assert abs(eig.values[3]) <= 1e-9
        assert abs(eig.values[4]) <= 1e-9

    def test_all_ones(self):
        eig = linalg.sym_eigen(np.ones((4, 4)))
        assert np.abs(eig.values - [4.0, 0.0, 0.0, 0.0]).max() <= 1e-12

    def test_rejects_non_square(self):
        with pytest.raises(PreconditionError, match="square"):
            linalg.sym_eigen(np.ones((2, 3)))

    def test_rejects_asymmetric_with_measure(self):
        with pytest.raises(PreconditionError, match="1.000e"):
            linalg.sym_eigen(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_deterministic(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(8, 8))
        a = a + a.T
        e1 = linalg.sym_eigen(a)
        e2 = linalg.sym_eigen(a.copy())
        assert np.array_equal(e1.values, e2.values)
        assert np.array_equal(e1.vectors, e2.vectors)

    def test_reconstruction_orthonormality_trace_random(self):
        rng = np.random.default_rng(11)
        for _ in range(1000):
            n = int(rng.integers(1, 13))
            a = rng.normal(size=(n, n)) * (10.0 ** rng.integers(-2, 3))
            a = 0.5 * (a + a.T)
            eig = linalg.sym_eigen(a)
            scale = max(np.abs(a).max(), 1e-300)
            recon = (eig.vectors * eig.values) @ eig.vectors.T
            assert np.abs(a - recon).max() <= 1e-10 * scale
            assert np.abs(eig.vectors.T @ eig.vectors - np.eye(n)).max() <= 1e-10
            assert abs(np.trace(a) - eig.values.sum()) <= 1e-10 * scale * n

    def test_is_psd_relative_to_the_scale_given(self):
        eig = linalg.sym_eigen(np.diag([2.0, -2e-9]))
        assert eig.is_psd(2.0) and not eig.is_psd(1.0)
        assert eig.is_psd(1.0, tol=2e-9) and not eig.is_psd(2.0, tol=1e-10)
        assert linalg.sym_eigen(np.zeros((0, 0))).is_psd(0.0)


class TestNumericRank:
    def test_pentagon(self, pentagon_slack):
        assert linalg.numeric_rank(pentagon_slack) == 3

    def test_prism(self, prism_slack):
        assert linalg.numeric_rank(prism_slack) == 4

    def test_zero(self):
        assert linalg.numeric_rank(np.zeros((3, 3))) == 0

    def test_rectangular(self):
        assert linalg.numeric_rank(np.array([[1.0, 2.0, 3.0]])) == 1

    def test_orthogonal_conjugation_invariance(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            n = int(rng.integers(2, 9))
            r = int(rng.integers(1, n + 1))
            x = rng.normal(size=(n, r))
            a = x @ x.T
            q = random_orthogonal(rng, n)
            assert linalg.numeric_rank(q @ a @ q.T) == linalg.numeric_rank(a) == r


class TestNullSpace:
    def test_identity_empty(self):
        assert linalg.null_space(np.eye(2)).shape == (2, 0)

    def test_one_by_two(self):
        basis = linalg.null_space(np.array([[1.0, -1.0]]))
        assert basis.shape == (2, 1)
        expected = np.array([1.0, 1.0]) / math.sqrt(2.0)
        assert np.abs(basis[:, 0] - expected).max() <= 1e-12

    def test_pentagon_generators_full_column_rank(self, pentagon_rays):
        assert linalg.null_space(pentagon_rays).shape == (3, 0)

    def test_residual_bound(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            n = int(rng.integers(2, 9))
            r = int(rng.integers(1, n))
            a = rng.normal(size=(r, n))
            basis = linalg.null_space(a)
            assert basis.shape[1] >= n - r
            if basis.shape[1]:
                resid = np.abs(a @ basis).max()
                assert resid <= 1e-8 * max(np.abs(a).max(), 1e-300)
                gram = basis.T @ basis
                assert np.abs(gram - np.eye(basis.shape[1])).max() <= 1e-10


class TestPsdProject:
    def test_clip(self):
        out = linalg.psd_project(np.diag([2.0, -1.0]))
        assert np.abs(out - np.diag([2.0, 0.0])).max() <= 1e-12

    def test_psd_unchanged(self, pentagon_slack):
        out = linalg.psd_project(pentagon_slack)
        assert np.abs(out - pentagon_slack).max() <= 1e-12

    def test_negative_identity(self):
        assert np.abs(linalg.psd_project(-np.eye(3))).max() == 0.0

    def test_idempotent_and_contraction(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            n = int(rng.integers(2, 8))
            a = rng.normal(size=(n, n))
            a = 0.5 * (a + a.T)
            p = linalg.psd_project(a)
            assert np.abs(linalg.psd_project(p) - p).max() <= 1e-11 * max(
                1.0, np.abs(p).max()
            )
            x = rng.normal(size=(n, n))
            b = x @ x.T  # arbitrary PSD point
            assert np.linalg.norm(p - b, "fro") <= np.linalg.norm(a - b, "fro") + 1e-12


class TestLowRankProject:
    def test_rank2_fixed_point(self):
        rng = np.random.default_rng(17)
        x = rng.normal(size=(5, 2))
        a = x @ x.T
        assert np.abs(linalg.low_rank_project(a, 2) - a).max() <= 1e-12 * np.abs(a).max()

    def test_diag(self):
        out = linalg.low_rank_project(np.diag([3.0, 2.0, 1.0]), 1)
        assert np.abs(out - np.diag([3.0, 0.0, 0.0])).max() <= 1e-12

    def test_pentagon_rank3(self, pentagon_slack):
        out = linalg.low_rank_project(pentagon_slack, 3)
        assert np.abs(out - pentagon_slack).max() <= 1e-9

    def test_rejects_rank_above_size(self):
        with pytest.raises(PreconditionError):
            linalg.low_rank_project(np.eye(2), 3)
        with pytest.raises(PreconditionError):
            linalg.low_rank_project(np.eye(2), 0)


class TestSingularValues:
    def test_against_numpy(self):
        rng = np.random.default_rng(19)
        for _ in range(100):
            n = int(rng.integers(1, 9))
            m = int(rng.integers(1, 9))
            a = rng.normal(size=(n, m))
            mine = linalg.singular_values(a)
            ref = np.linalg.svd(a, compute_uv=False)
            k = min(n, m)
            assert np.abs(mine[:k] - ref[:k]).max() <= 1e-10 * max(ref[0], 1.0)


# -- the linalg contract on generated matrices ------------------------------

SIDES = st.integers(0, 7)
ENTRIES = st.floats(-100.0, 100.0, allow_subnormal=False)


@st.composite
def matrices(draw):
    """Entrywise-drawn matrices and products of random factors of a drawn
    rank (rank deficient, zero at rank 0); sides from 0 to 7 give
    zero-column, tall and wide shapes."""
    rows, cols = draw(SIDES), draw(SIDES)
    if draw(st.booleans()):
        return draw(hnp.arrays(float, (rows, cols), elements=ENTRIES))
    rank = draw(st.integers(0, min(rows, cols)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = 10.0 ** draw(st.integers(-3, 3))
    return scale * rng.normal(size=(rows, rank)) @ rng.normal(size=(rank, cols))


@st.composite
def symmetric_matrices(draw):
    """Symmetrized drawn matrices and Q diag(w) Q^T with w drawn from a few
    values, so that repeated eigenvalues are common."""
    n = draw(SIDES)
    if draw(st.booleans()):
        a = draw(hnp.arrays(float, (n, n), elements=ENTRIES))
        return a + a.T
    w = draw(st.lists(st.sampled_from([-2.0, 0.0, 1.0, 3.0]), min_size=n, max_size=n))
    q = random_orthogonal(np.random.default_rng(draw(st.integers(0, 2**32 - 1))), n)
    a = (q * w) @ q.T
    return 0.5 * (a + a.T)


@st.composite
def rank_probes(draw):
    """Symmetric matrices whose numeric rank analyze reads from eigenvalues:
    the drawn symmetric_matrices, and Q diag(w) Q^T with a PSD or an
    indefinite spectrum whose largest |w| is 1 and whose others are drawn
    from values on both sides of the 1e-8 rank cutoff (1e-6, 1e-7, 1e-9,
    1e-10) as well as 0 and 0.3; each scaled by 1, 1e-300 or 1e300."""
    if draw(st.booleans()):
        a = draw(symmetric_matrices())
    else:
        n = draw(st.integers(1, 8))
        small = st.sampled_from([0.3, 1e-6, 1e-7, 1e-9, 1e-10, 0.0])
        w = np.array([1.0] + draw(st.lists(small, min_size=n - 1, max_size=n - 1)))
        if draw(st.booleans()):  # indefinite
            w *= draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=n, max_size=n))
        q = random_orthogonal(np.random.default_rng(draw(st.integers(0, 2**32 - 1))), n)
        a = (q * w) @ q.T
        a = 0.5 * (a + a.T)
    return a * draw(st.sampled_from([1.0, 1e-300, 1e300]))


def assert_sign_rule(vecs: np.ndarray) -> None:
    for j in range(vecs.shape[1]):
        col = vecs[:, j]
        nz = np.nonzero(np.abs(col) > 1e-12)[0]
        assert nz.size and col[nz[0]] > 0.0


class TestContract:
    @settings(max_examples=300, deadline=None)
    @given(symmetric_matrices())
    def test_sym_eigen(self, a):
        n = a.shape[0]
        eig = linalg.sym_eigen(a)
        assert eig.values.shape == (n,) and eig.vectors.shape == (n, n)
        assert np.all(np.diff(eig.values) <= 0.0)
        scale = np.abs(a).max(initial=0.0)
        assert np.abs(eig.vectors.T @ eig.vectors - np.eye(n)).max(initial=0.0) <= 1e-10
        recon = (eig.vectors * eig.values) @ eig.vectors.T
        assert np.abs(a - recon).max(initial=0.0) <= 1e-10 * scale
        assert_sign_rule(eig.vectors)

    @settings(max_examples=300, deadline=None)
    @given(rank_probes())
    def test_eigenvalue_rank_is_numeric_rank(self, a):
        # A symmetric matrix's singular values are its absolute
        # eigenvalues, so the rank read from its decomposition is the SVD's.
        assert linalg.sym_eigen(a).rank() == linalg.numeric_rank(a)

    @settings(max_examples=300, deadline=None)
    @given(matrices())
    def test_singular_values_null_space_rank(self, a):
        cols = a.shape[1]
        sv = linalg.singular_values(a)
        assert sv.shape == (cols,)
        assert np.all(sv >= 0.0) and np.all(np.diff(sv) <= 0.0)
        top = sv[0] if cols else 0.0
        basis = linalg.null_space(a)
        assert basis.shape[0] == cols
        k = basis.shape[1]
        assert np.abs(basis.T @ basis - np.eye(k)).max(initial=0.0) <= 1e-10
        # Each kept direction has singular value <= 1e-8 * top; the extra
        # 1e-12 * top is room for rounding in the product.
        resid = np.linalg.norm(a @ basis, axis=0)
        assert resid.max(initial=0.0) <= (1e-8 + 1e-12) * top
        assert_sign_rule(basis)
        assert linalg.numeric_rank(a) == cols - k


    @settings(max_examples=300, deadline=None)
    @given(st.one_of(matrices(), st.tuples(SIDES, SIDES).map(np.zeros)))
    def test_rank_plus_nullity_is_columns(self, a):
        cols = a.shape[1]
        nullity = linalg.null_space(a).shape[1]
        assert linalg.numeric_rank(a) + nullity == cols
        # The null-space count from before numeric_rank and null_space
        # shared one rank rule.
        sv = linalg.singular_values(a)
        assert nullity == (int((sv <= 1e-8 * sv[0]).sum()) if cols else 0)


# -- the rank path against the full-SVD oracle ------------------------------

# Singular values relative to the largest: O(1), zero, and within 10x of the
# 1e-8 rank cutoff on either side, but at least 1e-3 relative away from it,
# far beyond the ~1e-15 by which rounding moves them.
NEAR_CUTOFF = st.one_of(st.floats(0.1, 0.999), st.floats(1.001, 10.0)).map(
    lambda f: f * linalg.DEFAULT_RANK_TOL)
SPECTRUM = st.one_of(st.floats(0.1, 1.0), st.just(0.0), NEAR_CUTOFF)


def designed(draw, rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    """U diag(s) V^T with random orthonormal U (rows) and V (cols), s[0] = 1
    and the rest drawn from SPECTRUM."""
    k = min(rows, cols)
    s = np.array([1.0] + draw(st.lists(SPECTRUM, min_size=k - 1, max_size=k - 1)))
    u = random_orthogonal(rng, rows)[:, :k]
    v = random_orthogonal(rng, cols)
    return (u * s) @ v[:, :k].T


@st.composite
def designed_stacks(draw):
    """A stack of 1 to 4 designed matrices of one tall, wide or square
    shape, scaled by 10^-3 to 10^3."""
    rows, cols = draw(st.integers(1, 7)), draw(st.integers(1, 7))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    stack = np.stack([designed(draw, rng, rows, cols)
                      for _ in range(draw(st.integers(1, 4)))])
    return stack * 10.0 ** draw(st.integers(-3, 3))


class TestRankPath:
    @settings(max_examples=300, deadline=None)
    @given(designed_stacks())
    def test_numeric_rank_and_nullity_match_the_full_svd(self, stack):
        expected = full_svd_rank(stack)
        cols = stack.shape[-1]
        nullity, _ = linalg.null_directions(stack)
        assert np.array_equal(nullity, cols - expected)
        for member, rank in zip(stack, expected):
            assert linalg.numeric_rank(member) == rank
            assert linalg.null_space(member).shape == (cols, cols - rank)

    @pytest.mark.parametrize("fn", [linalg.numeric_rank, linalg.singular_values])
    def test_stack_rejected(self, fn):
        with pytest.raises(PreconditionError, match="ndim=3"):
            fn(np.ones((2, 3, 3)))


def bits_of(x) -> bytes:
    return np.asarray(x, dtype=float).tobytes()


def perturbed(a: np.ndarray, rel: float) -> np.ndarray:
    """a with a[0, 1] moved by rel * max(1, |a[0, 1]|)."""
    b = a.copy()
    b[0, 1] += rel * max(1.0, abs(b[0, 1]))
    return b


PROJECTIONS = {
    "psd_project": linalg.psd_project,
    "low_rank_project": lambda a: linalg.low_rank_project(a, max(1, a.shape[0] - 1)),
}


class TestProjectionContract:
    """The projections skip the copy and the sign rule of sym_eigen but keep
    its input contract: square, finite, symmetric within SYMMETRY_TOL."""

    @pytest.mark.parametrize("name", sorted(PROJECTIONS))
    @settings(max_examples=150, deadline=None)
    @given(a=symmetric_matrices(), bad=st.sampled_from([np.nan, np.inf, -np.inf]))
    def test_contract(self, name, a, bad):
        project = PROJECTIONS[name]
        n = a.shape[0]
        with pytest.raises(PreconditionError, match="square"):
            project(np.zeros((n, n + 1)))
        if n == 0:
            if name == "low_rank_project":
                with pytest.raises(PreconditionError, match="exceeds"):
                    project(a)
            else:
                assert project(a).shape == (0, 0)
            return
        broken = a.copy()
        broken[n - 1, 0] = bad
        with pytest.raises(PreconditionError, match="finite"):
            project(broken)
        scale = np.abs(a).max()
        for b in (a, perturbed(a, 0.25 * linalg.SYMMETRY_TOL) if n > 1 else a):
            out = project(b)
            assert out.shape == (n, n)
            assert np.array_equal(out, out.T)
            assert np.linalg.eigvalsh(out).min() >= -1e-10 * max(scale, 1.0)
        if n > 1:
            with pytest.raises(PreconditionError, match="not symmetric"):
                project(perturbed(a, 100 * linalg.SYMMETRY_TOL))

    def test_input_not_modified(self):
        a = np.diag([2.0, -1.0, 0.5])
        a[0, 2] = a[2, 0] = 0.3
        before = a.copy()
        linalg.psd_project(a)
        linalg.low_rank_project(a, 1)
        assert np.array_equal(a, before)


def symmetric_stack(rng: np.random.Generator, k: int, n: int) -> np.ndarray:
    """k symmetric n x n matrices: Gaussian ones, and every third one with a
    repeated eigenvalue, so the projections meet degenerate spectra too."""
    stack = []
    for i in range(k):
        if i % 3 == 2:
            w = rng.choice([-1.0, 0.0, 2.0], size=n)
            q = random_orthogonal(rng, n)
            a = (q * w) @ q.T
        else:
            a = rng.normal(size=(n, n)) * 10.0 ** rng.integers(-2, 3)
        stack.append(0.5 * (a + a.T))
    return np.stack(stack)


class TestStackedProjections:
    """The search loops project stacks through the unvalidated
    _clip_project, which gives each matrix of a stack the bits the
    validated 2-D calls give it alone; the validated entry points take one
    matrix."""

    @pytest.mark.parametrize("k", [1, 2, 5, 19])
    @pytest.mark.parametrize("n", [1, 2, 4, 7, 10])
    def test_members_match_single_calls(self, k, n):
        rng = np.random.default_rng(100 * k + n)
        stack = symmetric_stack(rng, k, n)
        before = stack.copy()
        ranks = sorted({1, max(1, n // 2), n})
        out = {d: linalg._clip_project(stack, d) for d in ranks}
        for d in ranks:
            assert out[d].shape == (k, n, n)
        for i in range(k):
            one = stack[i].copy()
            assert bits_of(out[n][i]) == bits_of(linalg.psd_project(one))
            for d in ranks:
                assert bits_of(out[d][i]) == bits_of(linalg.low_rank_project(one, d))
        assert bits_of(stack) == bits_of(before)

    @pytest.mark.parametrize("name", sorted(PROJECTIONS))
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_member_rejected(self, name, bad):
        stack = symmetric_stack(np.random.default_rng(11), 5, 4)
        stack[3, 2, 1] = bad
        with pytest.raises(PreconditionError, match="finite"):
            PROJECTIONS[name](stack[3])

    @pytest.mark.parametrize("name", sorted(PROJECTIONS))
    def test_asymmetric_member_rejected(self, name):
        stack = symmetric_stack(np.random.default_rng(13), 5, 4)
        stack[2] = perturbed(stack[2], 100 * linalg.SYMMETRY_TOL)
        with pytest.raises(PreconditionError, match="not symmetric"):
            PROJECTIONS[name](stack[2])

    def test_two_d_entry_points_stay_two_d(self):
        stack = np.stack([np.eye(3)] * 2)
        for fn in (linalg.sym_eigen, linalg.require_symmetric, linalg.as_matrix,
                   linalg.psd_project, lambda a: linalg.low_rank_project(a, 1)):
            with pytest.raises(PreconditionError, match="2-d"):
                fn(stack)


EIGH_KERNEL = linalg._eigh_lo


def kernel_raising(op):
    """A stand-in for numpy's eigh kernel that first runs op, whose
    floating-point flags are then raised under the caller's errstate, and
    then returns the real kernel's output."""

    def kernel(w, signature):
        op()
        return EIGH_KERNEL(w, signature=signature)

    return kernel


# One op per floating-point flag, keyed by its np.errstate name.  LAPACK's
# failure is the kernel's invalid flag, as 0/0 raises it.
FLAG_OPS = {
    "invalid": lambda: np.zeros(1) / np.zeros(1),
    "over": lambda: np.full(1, 1e308) * 10.0,
    "divide": lambda: np.ones(1) / np.zeros(1),
    "under": lambda: np.full(1, 1e-308) * 1e-300,
}


class TestLapackFailure:
    @staticmethod
    def _fail(*args, **kwargs):
        raise np.linalg.LinAlgError("did not converge")

    def test_eigh(self, monkeypatch):
        monkeypatch.setattr(linalg, "_eigh_lo", kernel_raising(FLAG_OPS["invalid"]))
        with pytest.raises(ConvergenceError, match="eigh did not converge"):
            linalg.sym_eigen(np.eye(2))

    def test_eigh_in_projections(self, monkeypatch):
        monkeypatch.setattr(linalg, "_eigh_lo", kernel_raising(FLAG_OPS["invalid"]))
        for fn in (linalg.psd_project, lambda a: linalg.low_rank_project(a, 1),
                   lambda a: linalg._clip_project(a, 1)):
            with pytest.raises(ConvergenceError, match="eigh did not converge"):
                fn(np.eye(2))

    def test_svd(self, monkeypatch):
        monkeypatch.setattr(np.linalg, "svd", self._fail)
        for fn in (linalg.singular_values, linalg.numeric_rank, linalg.null_space):
            with pytest.raises(ConvergenceError, match="SVD"):
                fn(np.eye(2))
        with pytest.raises(ConvergenceError, match="SVD"):
            geometry.facet_normals(geometry.PolyhedralCone(np.eye(3)))

    def test_qr_stack_in_facet_scan(self, monkeypatch):
        # The facet scan's normals come from the package's one QR, one
        # stack per chunk: here the 12-gon cone's 66 subsets.
        qr = np.linalg.qr

        def fail_on_stacks(a, *args, **kwargs):
            if np.ndim(a) > 2:
                raise np.linalg.LinAlgError("did not converge")
            return qr(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "qr", fail_on_stacks)
        cone = geometry.PolyhedralCone(np.column_stack(
            [np.ones(12), data.regular_polygon_vertices(12)]))
        with pytest.raises(ConvergenceError, match="QR"):
            geometry.facet_normals(cone)
        with pytest.raises(ConvergenceError, match="QR"):
            linalg.orthogonal_directions(np.ones((4, 2, 3)))


class TestEighKernel:
    """_eigh calls numpy.linalg.eigh's own gufunc: this guards the private
    kernel, and the floating-point policy around it, against numpy
    changing underneath."""

    @pytest.mark.parametrize("shape", [(n, n) for n in range(1, 13)]
                             + [(k, 4, 4) for k in (1, 2, 5, 19)] + [(3, 7, 7), (2, 3, 1, 1)])
    def test_bitwise_equal_to_numpy_eigh(self, shape):
        rng = np.random.default_rng(sum(shape))
        a = rng.normal(size=shape)
        inputs = [scale * (a + a.swapaxes(-1, -2)) for scale in (1e-3, 1.0, 1e5)]
        if len(shape) == 3:  # every third member has a repeated eigenvalue
            inputs.append(symmetric_stack(rng, *shape[:2]))
        for w in inputs:
            vals, vecs = linalg._eigh(w)
            expected = np.linalg.eigh(w)
            assert bits_of(vals) == bits_of(expected.eigenvalues[..., ::-1])
            assert bits_of(vecs) == bits_of(expected.eigenvectors[..., ::-1])

    def test_invalid_flag_is_a_convergence_error(self, monkeypatch):
        monkeypatch.setattr(linalg, "_eigh_lo", kernel_raising(FLAG_OPS["invalid"]))
        with pytest.raises(ConvergenceError, match="eigh did not converge: invalid"):
            linalg._eigh(np.eye(3))

    @pytest.mark.parametrize("flag", ["over", "divide", "under"])
    def test_other_flags_are_ignored(self, monkeypatch, flag):
        # Under pytest's filterwarnings = error a leaked RuntimeWarning
        # fails this test; so would a raise.
        a = np.diag([3.0, -1.0, 2.0])
        expected = linalg._eigh(a)
        monkeypatch.setattr(linalg, "_eigh_lo", kernel_raising(FLAG_OPS[flag]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            vals, vecs = linalg._eigh(a)
        assert bits_of(vals) == bits_of(expected[0])
        assert bits_of(vecs) == bits_of(expected[1])

    def test_flag_ops_raise_their_flags(self):
        # Guards the stand-ins above: each op raises its own flag.
        for flag, op in FLAG_OPS.items():
            with np.errstate(all="ignore", **{flag: "raise"}):
                with pytest.raises(FloatingPointError, match=flag):
                    op()


class TestOrthogonalDirections:
    @pytest.mark.parametrize("d", [2, 3, 6, 9])
    def test_last_column_of_the_complete_q(self, d):
        rng = np.random.default_rng(d)
        stack = rng.normal(size=(40, d - 1, d))
        stack[:5, 0] = 0.0  # rank-deficient members still get a unit vector
        stack[5:10, -1] = stack[5:10, 0]
        q = linalg.orthogonal_directions(stack)
        complete = np.linalg.qr(stack.swapaxes(-1, -2), mode="complete")[0][..., -1]
        assert np.abs(np.linalg.norm(q, axis=-1) - 1.0).max() <= 1e-14
        assert np.abs(q - complete).max() <= 1e-13
        assert np.abs((stack @ q[..., None])[..., 0]).max() <= 1e-13


class TestRequireSymmetric:
    def test_exactly_symmetric_input_is_the_callers_array(self):
        # Equal entries, 0.0 against -0.0 among them, need no symmetrizing.
        signed_zeros = np.array([[1.0, 0.0, 2.0], [-0.0, 3.0, -0.0], [2.0, 0.0, 4.0]])
        for a in (np.diag([1.0, 2.0]), signed_zeros):
            assert linalg._symmetric(a) is a

    def test_exact_input_copied_bitwise(self):
        rng = np.random.default_rng(23)
        a = rng.normal(size=(6, 6))
        a = a + a.T
        out = linalg.require_symmetric(a)
        assert out is not a
        assert np.array_equal(out, 0.5 * (a + a.T))

    def test_result_does_not_alias_input(self):
        for a in (np.eye(3), np.array([[1.0, 2.0], [2.0 + 1e-13, 1.0]]), np.zeros((0, 0))):
            before = a.copy()
            out = linalg.require_symmetric(a)
            assert not np.shares_memory(out, a)
            out[...] = 7.0
            assert np.array_equal(a, before)

    def test_near_symmetric_symmetrized(self):
        a = np.array([[1.0, 2.0], [2.0 + 1e-13, 1.0]])
        out = linalg.require_symmetric(a)
        assert out[0, 1] == out[1, 0] == 0.5 * (a[0, 1] + a[1, 0])

    def test_near_the_largest_float(self, tmp_path, capsys):
        # 0.5 * (m + m.T) would overflow the diagonal sums to inf.
        a = np.array([[1.5e308, 1.0], [1.0 + 1e-14, 1.5e308]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = linalg.require_symmetric(a)
            assert np.isfinite(out).all() and out[0, 0] == out[1, 1] == 1.5e308
            assert out[0, 1] == out[1, 0] == 0.5 * a[0, 1] + 0.5 * a[1, 0]
            geometry.save_matrix(tmp_path / "big.mat", a)
            code = cli.main(["analyze", str(tmp_path / "big.mat"), "--rank", "2"])
        captured = capsys.readouterr()
        assert (code, captured.err) == (0, "")
        assert json.loads(captured.out)["results"]["psd"]["value"]


# -- downstream results do not depend on the basis of an eigenspace --------

def rotating_sym_eigen(rng: np.random.Generator):
    """sym_eigen, with the basis of every repeated eigenvalue replaced by a
    random orthonormal basis of the same eigenspace."""
    exact = linalg.sym_eigen

    def rotated(a):
        eig = exact(a)
        vals, vecs = eig.values, eig.vectors.copy()
        gap = 1e-9 * max(np.abs(vals).max(initial=0.0), 1.0)
        start = 0
        for stop in range(1, vals.size + 1):
            if stop == vals.size or vals[start] - vals[stop] > gap:
                if stop - start > 1:
                    q = random_orthogonal(rng, stop - start)
                    vecs[:, start:stop] = vecs[:, start:stop] @ q
                start = stop
        return linalg.EigenDecomposition(vals, vecs)

    return rotated


class TestDegenerateEigenspaces:
    """The pentagon circulant has the eigenvalue pairs 2.5, 2.5 and 0, 0, so
    LAPACK's basis inside each pair is arbitrary.  No result may depend on
    it."""

    ROTATIONS = 20

    @staticmethod
    def _results(m):
        cone = geometry.cone_from_factorization(m, 3)
        real = search.extract_realization(m, 3)
        return {
            "generators": cone.generators,
            "slack": geometry.slack_matrix(cone).matrix,
            "self_dual": selfdual.is_self_dual(cone)[0],
            "gram": real.gram,
            "verified": search.verify_realization(real, data.pentagon_support()).passed,
            "intersection_dim": dnn.dnn_extremality(m).intersection_dim,
        }

    def test_pentagon_rotations(self, pentagon_slack, monkeypatch):
        vals = linalg.sym_eigen(pentagon_slack).values
        assert abs(vals[1] - vals[2]) <= 1e-9 and np.abs(vals[3:]).max() <= 1e-9
        ref = self._results(pentagon_slack)
        assert ref["self_dual"] and ref["verified"] and ref["intersection_dim"] == 1
        rng = np.random.default_rng(29)
        moved = 0.0
        for _ in range(self.ROTATIONS):
            monkeypatch.setattr(linalg, "sym_eigen", rotating_sym_eigen(rng))
            got = self._results(pentagon_slack)
            monkeypatch.undo()
            assert got["slack"].shape == ref["slack"].shape
            assert np.abs(got["slack"] - ref["slack"]).max() <= 1e-9
            assert got["self_dual"] == ref["self_dual"]
            assert np.abs(got["gram"] - ref["gram"]).max() <= 1e-9
            assert got["verified"] == ref["verified"]
            assert got["intersection_dim"] == ref["intersection_dim"]
            moved = max(moved, np.abs(got["generators"] - ref["generators"]).max())
        # The rotations did change the factor the cone is built from.
        assert moved > 0.1
