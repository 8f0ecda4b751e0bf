import ctypes
import glob
import re
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import solve_triangular
from scipy.linalg.blas import dtrsm

from gmmadapt import linalg
from gmmadapt.errors import DimensionMismatch, NonFiniteInput, NotPositiveDefinite


def packed_identity(dim):
    packed = np.zeros((1, linalg.packed_size(dim)))
    packed[0, np.arange(dim) * (np.arange(dim) + 3) // 2] = 1.0
    return packed


def log_density_one(x, mean, L):
    """log N(x; mean, L L^T) for one point and one mode, through the stacked API."""
    return linalg.log_gauss_density_batch(
        np.asarray(x, dtype=float)[None, :], np.asarray(mean, dtype=float)[None, :], L[None]
    )[0, 0]


def reference_log_density(x, mean, L):
    """The single-point formula written out: one triangular solve and the log-det."""
    y = solve_triangular(L, x - mean, lower=True)
    log_det = 2.0 * float(np.sum(np.log(np.diag(L))))
    return -0.5 * (L.shape[0] * np.log(2 * np.pi) + log_det + float(y @ y))


def reference_log_density_batch(xs, means, chols):
    """log_gauss_density_batch with scipy's f2py dtrsm doing each mode's solve."""
    log_dets = 2.0 * np.sum(np.log(np.diagonal(chols, axis1=1, axis2=2)), axis=1)
    diffs = xs[None, :, :] - means[:, None, :]
    for b in range(chols.shape[0]):
        diffs[b] = dtrsm(1.0, chols[b].T, diffs[b].T, side=0, lower=0, trans_a=1).T
    sq_norms = np.sum(diffs * diffs, axis=2)
    return (-0.5 * (xs.shape[1] * linalg.LOG_2PI + log_dets[:, None] + sq_norms)).T


@st.composite
def density_problems(draw):
    """(xs, means, chols) with factors of near-singular jittered covariances:
    each covariance has a drawn rank of at most dim, and a small jitter
    on its diagonal."""
    dim = draw(st.integers(1, 70))
    n_rows = draw(st.integers(1, 130))
    n_modes = draw(st.integers(1, 5))
    rank = draw(st.integers(1, dim))
    jitter = draw(st.sampled_from([1e-9, 1e-6, 1e-3]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = rng.standard_normal((n_modes, dim, rank))
    chols = linalg.cholesky(linalg.pack(a @ a.transpose(0, 2, 1) / rank), jitter=jitter)
    means = rng.standard_normal((n_modes, dim))
    xs = 3.0 * rng.standard_normal((n_rows, dim))
    return xs, means, chols


@st.composite
def factor_problems(draw):
    """(covs, jitter, ids): 1-5 symmetric matrices of one dim from 1 to 6,
    each SPD, rank-deficient or indefinite, a jitter of 0 or a positive
    one, and distinct ids. covs is what packing keeps, the unpacked stack."""
    dim = draw(st.integers(1, 6))
    kinds = draw(st.lists(st.sampled_from(["spd", "rank_deficient", "indefinite"]),
                          min_size=1, max_size=5))
    jitter = draw(st.sampled_from([0.0, 1e-12, 1e-9, 1e-6, 1e-3, 2e-2, 1.0]))
    ids = np.array(draw(st.lists(st.integers(0, 344), min_size=len(kinds),
                                 max_size=len(kinds), unique=True)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    covs = []
    for kind in kinds:
        if kind == "indefinite":
            # one negative eigenvalue, small enough for some jitters to lift
            q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
            eig = rng.uniform(0.1, 2.0, dim)
            eig[draw(st.integers(0, dim - 1))] = -draw(st.sampled_from([1e-9, 1e-4, 1e-2, 1.0]))
            covs.append((q * eig) @ q.T)
        else:
            rank = dim + 2 if kind == "spd" else draw(st.integers(0, dim - 1))
            a = rng.standard_normal((dim, rank))
            covs.append(a @ a.T)
    # adding 0.0 turns any -0.0 into 0.0, as adding the jitter would
    return linalg.unpack(linalg.pack(np.stack(covs)), dim) + 0.0, jitter, ids


class TestSymMat:
    """Packed lower-triangular storage: pack, unpack and the diagonal offsets."""

    def test_packed_round_trip(self):
        rng = np.random.default_rng(0)
        for dim in (1, 2, 5, 8):
            a = rng.standard_normal((dim, dim))
            a = a + a.T
            packed = linalg.pack(a[None])
            assert packed.shape == (1, dim * (dim + 1) // 2)
            np.testing.assert_array_equal(
                linalg.unpack(packed, dim)[0], np.tril(a) + np.tril(a, -1).T
            )

    def test_identity_diagonal_offsets(self):
        np.testing.assert_array_equal(linalg.unpack(packed_identity(5), 5)[0], np.eye(5))
        np.testing.assert_array_equal(linalg.pack(np.eye(5)[None]), packed_identity(5))

    def test_wrong_packed_length_rejected(self):
        with pytest.raises(DimensionMismatch):
            linalg.unpack(np.zeros((1, 5)), 3)


class TestCholesky:
    def test_identity_no_jitter(self):
        L = linalg.cholesky(linalg.pack(np.eye(2)[None]), jitter=0.0)[0]
        np.testing.assert_array_equal(L, np.eye(2))

    def test_hand_factorization(self):
        m = np.array([[4.0, 2.0], [2.0, 3.0]])
        L = linalg.cholesky(linalg.pack(m[None]), jitter=0.0)[0]
        expected = np.array([[2.0, 0.0], [1.0, np.sqrt(2.0)]])
        np.testing.assert_allclose(L, expected, rtol=1e-15)
        np.testing.assert_allclose(L @ L.T, m, rtol=1e-15)

    def test_pure_jitter_case(self):
        L = linalg.cholesky(np.zeros((1, 3)), jitter=1e-6)[0]
        np.testing.assert_allclose(L, np.sqrt(1e-6) * np.eye(2), rtol=1e-12)

    def test_singular_matrix_raises_naming_the_jitter(self):
        # rank-1 matrix at zero jitter: factored once, never at another jitter
        d = np.array([1.0, 2.0, 3.0])
        with pytest.raises(NotPositiveDefinite,
                           match=r"factorization of mode 0 failed at jitter 0\.0$"):
            linalg.cholesky(linalg.pack(np.outer(d, d)[None]), jitter=0.0)

    def test_first_failing_matrix_in_stack_order_is_named(self):
        # a factorable matrix, then a singular one, then an indefinite one
        d = np.array([1.0, 2.0, 3.0])
        spd = np.array([[4.0, 1.0, 0.0], [1.0, 3.0, 0.5], [0.0, 0.5, 2.0]])
        packed = linalg.pack(np.stack([spd, np.outer(d, d), -np.eye(3)]))
        with pytest.raises(NotPositiveDefinite,
                           match=r"factorization of mode 8 failed at jitter 0\.0$"):
            linalg.cholesky(packed, jitter=0.0, ids=np.array([5, 8, 2]))

    def test_indefinite_raises(self):
        with pytest.raises(NotPositiveDefinite):
            linalg.cholesky(linalg.pack(-np.eye(3)[None]), jitter=0.0)

    def test_failure_names_the_mode(self):
        packed = linalg.pack(np.stack([np.eye(3), -np.eye(3)]))
        with pytest.raises(NotPositiveDefinite, match="factorization of mode 70 failed"):
            linalg.cholesky(packed, jitter=1e-6, ids=np.array([40, 70]))

    @pytest.mark.parametrize("jitter,failing", [(0.0, False), (1e-3, False), (1e-3, True)],
                             ids=["no_jitter", "jitter", "failing"])
    def test_input_left_unchanged(self, jitter, failing):
        # the jitter goes onto the unpacked stack's diagonal, never onto the
        # caller's rows, also when the factorization fails
        rng = np.random.default_rng(12)
        a = rng.standard_normal((3, 5, 8))
        covs = a @ a.transpose(0, 2, 1)
        if failing:
            covs[1] = np.diag([-1.5e-3, 1.0, 1.0, 1.0, 1.0])  # indefinite at this jitter
        packed = linalg.pack(covs)
        before = packed.tobytes()
        if failing:
            with pytest.raises(NotPositiveDefinite, match=r"mode 1 failed at jitter 0\.001$"):
                linalg.cholesky(packed, jitter=jitter)
        else:
            linalg.cholesky(packed, jitter=jitter)
        assert packed.tobytes() == before

    @given(factor_problems())
    @settings(max_examples=200, deadline=None)
    def test_factors_at_the_given_jitter_or_names_the_first_failure(self, problem):
        # each factor is that of C[b] + jitter * I computed alone, bit for
        # bit; else the lowest b whose own factorization fails is named
        covs, jitter, ids = problem
        own = []
        for cov in covs:
            try:
                own.append(np.linalg.cholesky(cov + jitter * np.eye(cov.shape[0])))
            except np.linalg.LinAlgError:
                own.append(None)
        failing = [b for b, factor in enumerate(own) if factor is None]
        if failing:
            message = f"factorization of mode {ids[failing[0]]} failed at jitter {jitter!r}"
            with pytest.raises(NotPositiveDefinite, match=re.escape(message) + "$"):
                linalg.cholesky(linalg.pack(covs), jitter, ids=ids)
        else:
            chols = linalg.cholesky(linalg.pack(covs), jitter, ids=ids)
            assert [L.tobytes() for L in chols] == [L.tobytes() for L in own]

    @pytest.mark.parametrize("jitter", [0.0, 1e-3])
    def test_factor_of_the_jittered_matrix_bit_for_bit(self, jitter):
        # dim 64 is large enough for LAPACK to block; the jitter added to the
        # unpacked diagonal gives the factor of the dense covs + jitter * I
        rng = np.random.default_rng(13)
        a = rng.standard_normal((4, 64, 80))
        dense = linalg.unpack(linalg.pack(a @ a.transpose(0, 2, 1)), 64)
        np.testing.assert_array_equal(linalg.cholesky(linalg.pack(dense), jitter=jitter),
                                      np.linalg.cholesky(dense + jitter * np.eye(64)))

    def test_rows_of_no_triangle_size_rejected(self):
        with pytest.raises(DimensionMismatch):
            linalg.cholesky(np.ones((2, 5)), jitter=1e-6)

    def test_non_finite_rejected(self):
        covs = np.stack([np.eye(2), np.eye(2)])
        covs[1, 0, 0] = np.nan
        with pytest.raises(NonFiniteInput):
            linalg.cholesky(linalg.pack(covs), jitter=1e-6)

    def test_reconstruction_random_spd(self):
        # ||L L^T - (m + jitter I)||_max < 1e-10 on random SPD up to dim 64
        rng = np.random.default_rng(7)
        for dim in (2, 8, 17, 64):
            a = rng.standard_normal((dim, dim))
            spd = a @ a.T + dim * np.eye(dim)
            jitter = 1e-4
            L = linalg.cholesky(linalg.pack(spd[None]), jitter=jitter)[0]
            err = np.max(np.abs(L @ L.T - (spd + jitter * np.eye(dim))))
            assert err < 1e-10


class TestLogGaussDensity:
    def test_at_mode_2d(self):
        L = np.eye(2)
        x = np.array([0.3, -0.4])
        assert log_density_one(x, x, L) == pytest.approx(-np.log(2 * np.pi), abs=1e-14)

    def test_unit_offset_2d(self):
        L = np.eye(2)
        mean = np.zeros(2)
        x = np.array([1.0, 0.0])
        expected = -np.log(2 * np.pi) - 0.5
        assert log_density_one(x, mean, L) == pytest.approx(expected, abs=1e-14)

    def test_1d_standard_normal_at_mode(self):
        L = np.eye(1)
        assert log_density_one(np.zeros(1), np.zeros(1), L) == pytest.approx(
            -0.5 * np.log(2 * np.pi), abs=1e-15
        )

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            linalg.log_gauss_density_batch(np.zeros((1, 3)), np.zeros((1, 2)), np.eye(2)[None])
        with pytest.raises(DimensionMismatch):
            linalg.log_gauss_density_batch(np.zeros((1, 2)), np.zeros((2, 2)), np.eye(2)[None])

    def test_singular_factor_raises(self):
        L = np.stack([np.eye(3), np.diag([1.0, 0.0, 1.0])])
        with np.errstate(divide="ignore"), pytest.raises(NotPositiveDefinite):
            linalg.log_gauss_density_batch(np.ones((2, 3)), np.zeros((2, 3)), L)

    def test_zero_pivot_names_the_mode(self):
        L = np.stack([np.eye(3), np.diag([1.0, 1.0, 0.0])])
        with pytest.raises(NotPositiveDefinite, match="mode 70: zero pivot at row 2$"):
            linalg.log_gauss_density_batch(np.ones((2, 3)), np.zeros((2, 3)), L,
                                           ids=np.array([40, 70]))

    @settings(max_examples=80, deadline=None)
    @given(problem=density_problems(), data=st.data())
    def test_solve_equals_scipy_dtrsm_bit_for_bit(self, problem, data):
        xs, means, chols = problem
        # a Fortran-ordered stack is copied to C order before BLAS reads it
        chols = np.asarray(chols, order=data.draw(st.sampled_from("CF")))
        np.testing.assert_array_equal(linalg.log_gauss_density_batch(xs, means, chols),
                                      reference_log_density_batch(xs, means, chols))
        n_modes, dim = chols.shape[:2]
        b, i = data.draw(st.integers(0, n_modes - 1)), data.draw(st.integers(0, dim - 1))
        chols[b, i, i] = 0.0
        with pytest.raises(NotPositiveDefinite, match=f"mode {b + 7}: zero pivot at row {i}$"):
            linalg.log_gauss_density_batch(xs, means, chols, ids=np.arange(n_modes) + 7)

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(3)
        dim, n_modes = 4, 3
        a = rng.standard_normal((n_modes, dim, dim))
        L = linalg.cholesky(linalg.pack(a @ a.transpose(0, 2, 1) + np.eye(dim)), jitter=0.0)
        means = rng.standard_normal((n_modes, dim))
        xs = rng.standard_normal((10, dim))
        batch = linalg.log_gauss_density_batch(xs, means, L)
        assert batch.shape == (10, n_modes)
        for i in range(10):
            for b in range(n_modes):
                assert batch[i, b] == pytest.approx(
                    reference_log_density(xs[i], means[b], L[b]), rel=1e-12
                )

    def test_quadratic_form_matches_dense_inverse_oracle(self):
        # triangular-solve quadratic form vs explicit inverse, dims 2..8
        rng = np.random.default_rng(11)
        for dim in range(2, 9):
            a = rng.standard_normal((dim, dim))
            spd = a @ a.T + 0.5 * np.eye(dim)
            jitter = 1e-5
            L = linalg.cholesky(linalg.pack(spd[None]), jitter=jitter)[0]
            mean = rng.standard_normal(dim)
            x = rng.standard_normal(dim)
            got = log_density_one(x, mean, L)
            cov = spd + jitter * np.eye(dim)
            diff = x - mean
            direct = -0.5 * (
                dim * np.log(2 * np.pi)
                + np.log(np.linalg.det(cov))
                + diff @ np.linalg.inv(cov) @ diff
            )
            assert got == pytest.approx(direct, rel=1e-8)

    def test_density_integrates_to_one_monte_carlo(self):
        # uniform-box Monte Carlo quadrature on a random 2-D Gaussian
        rng = np.random.default_rng(42)
        a = rng.standard_normal((2, 2))
        cov = a @ a.T + np.eye(2)
        mean = rng.standard_normal(2)
        L = linalg.cholesky(linalg.pack(cov[None]), jitter=0.0)
        stds = np.sqrt(np.diag(cov))
        lo, hi = mean - 6 * stds, mean + 6 * stds
        n = 1_000_000
        xs = rng.uniform(lo, hi, size=(n, 2))
        vals = np.exp(linalg.log_gauss_density_batch(xs, mean[None], L)[:, 0])
        integral = vals.mean() * np.prod(hi - lo)
        assert integral == pytest.approx(1.0, abs=0.02)


class TestWeightedOuterAccumulate:
    """Single-sample weighted_scatter: w * d d^T, packed."""

    @staticmethod
    def outer(d, w):
        d = np.asarray(d, dtype=float)
        packed = linalg.weighted_scatter(d[None, :], np.array([[w]]), np.zeros((1, d.size)))
        return linalg.unpack(packed, d.size)[0]

    def test_single_outer_product(self):
        np.testing.assert_array_equal(self.outer([1.0, 2.0], 1.0), [[1.0, 2.0], [2.0, 4.0]])

    def test_zero_weight_is_identity(self):
        acc = packed_identity(3)
        d = np.array([[5.0, -1.0, 2.0]])
        out = acc + linalg.weighted_scatter(d, np.zeros((1, 1)), np.zeros((1, 3)))
        np.testing.assert_array_equal(linalg.unpack(out, 3)[0], np.eye(3))

    def test_half_weight(self):
        np.testing.assert_allclose(self.outer([1.0, 1.0], 0.5), [[0.5, 0.5], [0.5, 0.5]],
                                   rtol=1e-15)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            linalg.weighted_scatter(np.zeros((1, 3)), np.ones((1, 1)), np.zeros((1, 2)))


class TestExpm:
    def test_general_matrices_take_scipy_expm_bits(self):
        """Skew and general matrices over sizes and scales, squarings included."""
        from scipy.linalg import expm

        rng = np.random.default_rng(0)
        for k in range(30):
            n = int(rng.integers(2, 40))
            a = rng.standard_normal((n, n))
            if k % 3:
                a = (a - a.T) / 2.0
            a *= 10.0 ** rng.uniform(-3.0, 1.3) / np.linalg.norm(a, 2)
            assert np.array_equal(linalg.expm(a), expm(a))

    @pytest.mark.parametrize("a", [np.diag([1.0, 2.0, 3.0]),
                                   np.triu(np.ones((3, 3))), np.tril(np.ones((3, 3)))],
                             ids=["diagonal", "upper", "lower"])
    def test_triangular_matrix_is_a_value_error(self, a):
        """scipy.linalg.expm computes these on paths the Padé glue does not copy."""
        with pytest.raises(ValueError, match="both sides of the diagonal"):
            linalg.expm(a)


def releases_the_gil(fn) -> bool:
    """Whether fn is a ctypes foreign function that releases the GIL while
    it runs: one not flagged _FUNCFLAG_PYTHONAPI, as PyDLL flags its functions."""
    return isinstance(fn, ctypes._CFuncPtr) and not fn._flags_ & ctypes._FUNCFLAG_PYTHONAPI


class TestOpenBlas:
    def test_solve_releases_the_gil(self):
        """The mixture's block pool solves in parallel only if each dtrsm
        call releases the GIL, as a ctypes.CDLL binding does."""
        assert releases_the_gil(linalg._dtrsm)

    def test_check_sees_a_binding_that_holds_the_gil(self):
        path = glob.glob(linalg._scipy_path("scipy.libs", "libscipy_openblas-*.so"))[0]
        assert not releases_the_gil(ctypes.PyDLL(path).scipy_dtrsm_)
        assert not releases_the_gil(dtrsm)

    def test_missing_library_is_a_warning_naming_the_path(self, monkeypatch):
        """No silent fallback when numpy was imported before gmmadapt and its
        OpenBLAS copy cannot be found to pin it to one thread. scipy's copy
        is the one opened at import, so only numpy's is searched for."""
        monkeypatch.setattr(linalg, "glob", SimpleNamespace(glob=lambda pattern: []))
        with pytest.warns(RuntimeWarning) as warned:
            linalg.pin_openblas()
        [message] = [str(w.message) for w in warned]
        assert "numpy.libs/libscipy_openblas64_*.so has scipy_openblas_set_num_threads64_" in message
        assert message.endswith("set OPENBLAS_NUM_THREADS=1, or import gmmadapt before numpy")

    def test_missing_setter_is_a_warning_naming_the_library(self, monkeypatch):
        path = linalg._openblas._name
        monkeypatch.setattr(linalg, "_openblas", SimpleNamespace(_name=path))
        with pytest.warns(RuntimeWarning) as warned:
            linalg.pin_openblas()
        [message] = [str(w.message) for w in warned]
        assert f"{path} has scipy_openblas_set_num_threads," in message
