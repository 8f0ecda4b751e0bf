import json
import re
import subprocess
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.linalg import solve_triangular

from gmmadapt import gmm_stream, linalg
from gmmadapt.errors import (DimensionMismatch, MalformedFile, NoInitializedMode, NonFiniteInput,
                             NotPositiveDefinite)
from gmmadapt.gmm_stream import BLOCK, GaussianMixtureStream


def onehot_rows(labels, n_classes):
    w = np.zeros((len(labels), n_classes))
    w[np.arange(len(labels)), labels] = 1.0
    return w


def mixture_from(means, weights, jitter=1e-6):
    """A mixture holding the given means and masses, each with identity covariance."""
    means = np.asarray(means, dtype=float)
    n_classes, dim = means.shape
    gmm = GaussianMixtureStream(n_classes, dim, jitter)
    gmm.means[:] = means
    gmm.cov_packed[:] = linalg.pack(np.broadcast_to(np.eye(dim), (n_classes, dim, dim)))
    gmm.mass[:] = weights
    return gmm


def log_likelihoods_one(gmm, x):
    return gmm.class_log_likelihoods_batch(np.asarray(x, dtype=float)[None, :])[0]


class TestUpdate:
    def test_single_sample_weighted_mean(self):
        gmm = GaussianMixtureStream(3, 2, jitter=1e-6)
        gmm.update(np.array([[1.0, 2.0]]), onehot_rows([1], 3))
        np.testing.assert_array_equal(gmm.means[1], [1.0, 2.0])
        assert gmm.mass[1] == 1.0
        np.testing.assert_array_equal(linalg.unpack(gmm.cov_packed, 2)[1], np.zeros((2, 2)))
        assert gmm.batch_counter == 1

    def test_two_samples_direct_recursion(self):
        gmm = GaussianMixtureStream(2, 2, jitter=1e-6)
        feats = np.array([[0.0, 0.0], [2.0, 0.0]])
        gmm.update(feats, onehot_rows([0, 0], 2))
        np.testing.assert_allclose(gmm.means[0], [1.0, 0.0], rtol=1e-15)
        assert gmm.mass[0] == 2.0
        np.testing.assert_allclose(linalg.unpack(gmm.cov_packed, 2)[0], [[1.0, 0.0], [0.0, 0.0]],
                                   atol=1e-15)

    def test_zero_mass_class_untouched(self):
        gmm = GaussianMixtureStream(2, 2, jitter=1e-6)
        gmm.update(np.array([[1.0, 1.0], [3.0, 1.0]]), onehot_rows([0, 0], 2))
        assert gmm.mass[1] == 0.0 and 1 not in gmm.prototypes()[0]
        mean0 = gmm.means[0].copy()
        gmm.update(np.array([[5.0, 5.0]]), onehot_rows([1], 2))
        np.testing.assert_array_equal(gmm.means[0], mean0)

    def test_soft_weights_split_mass(self):
        gmm = GaussianMixtureStream(2, 1, jitter=1e-6)
        feats = np.array([[0.0], [4.0]])
        w = np.array([[0.75, 0.25], [0.25, 0.75]])
        gmm.update(feats, w)
        # class 0: mass 1.0, mean (0.75*0 + 0.25*4)/1 = 1.0
        assert gmm.mass[0] == pytest.approx(1.0)
        assert gmm.means[0, 0] == pytest.approx(1.0)
        assert gmm.means[1, 0] == pytest.approx(3.0)

    def test_validation_errors(self):
        gmm = GaussianMixtureStream(2, 2)
        with pytest.raises(DimensionMismatch):
            gmm.update(np.zeros((3, 1)), onehot_rows([0, 0, 1], 2))
        with pytest.raises(DimensionMismatch):
            gmm.update(np.zeros((3, 2)), onehot_rows([0, 0], 2))
        with pytest.raises(NonFiniteInput):
            gmm.update(np.array([[np.nan, 0.0]]), onehot_rows([0], 2))
        with pytest.raises(ValueError):
            gmm.update(np.zeros((1, 2)), np.array([[0.7, 0.7]]))

    @pytest.mark.parametrize("args,message", [
        ((0, 2), "n_classes must be >= 1, got 0"),
        ((2.0, 2), "n_classes must be int, got 2.0"),
        ((2, 0), "dim must be >= 1, got 0"),
        ((2, True), "dim must be int, got True"),
        ((2, 2, -1.0), "jitter must be >= 0, got -1.0"),
        ((2, 2, float("nan")), "jitter must be finite, got nan"),
        ((2, 2, float("inf")), "jitter must be finite, got inf"),
    ], ids=["no_class", "float_n_classes", "no_dim", "bool_dim", "negative_jitter",
            "nan_jitter", "inf_jitter"])
    def test_constructor_rejects_a_header_that_cannot_be_read_back(self, args, message):
        with pytest.raises(ValueError) as info:
            GaussianMixtureStream(*args)
        assert type(info.value) is ValueError and str(info.value) == message


class TestLikelihoods:
    def test_two_mode_gap_is_half_squared_distance(self):
        gmm = mixture_from([[0.0, 0.0], [10.0, 0.0]], [1.0, 1.0], jitter=0.0)
        logp = log_likelihoods_one(gmm, [0.0, 0.0])
        assert logp[0] - logp[1] == pytest.approx(50.0, abs=1e-10)

    def test_single_initialized_mode_one_finite_entry(self):
        gmm = mixture_from([[0.0], [3.0], [7.0]], [0.0, 1.0, 0.0])
        logp = log_likelihoods_one(gmm, [2.0])
        assert np.isfinite(logp[1])
        assert np.isneginf(logp[0]) and np.isneginf(logp[2])

    def test_symmetric_midpoint_equal_densities(self):
        gmm = mixture_from([[-1.0, 0.0], [1.0, 0.0]], [1.0, 1.0])
        logp = log_likelihoods_one(gmm, [0.0, 0.0])
        assert logp[0] == pytest.approx(logp[1], abs=1e-12)

    def test_no_initialized_mode_raises(self):
        gmm = GaussianMixtureStream(3, 2)
        with pytest.raises(NoInitializedMode):
            log_likelihoods_one(gmm, np.zeros(2))

    def test_likelihood_vectors_rows_sum_to_one(self):
        rng = np.random.default_rng(5)
        gmm = GaussianMixtureStream(4, 3, jitter=1e-6)
        feats = rng.standard_normal((32, 3))
        w = rng.dirichlet(np.ones(4), size=32)
        gmm.update(feats, w)
        p = gmm.likelihood_vectors(rng.standard_normal((16, 3)))
        np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-9)
        assert np.all(p >= 0.0)


class TestMemoryFootprint:
    @pytest.mark.parametrize(
        "fd_r,n_classes,expected",
        [(64, 12, 25740), (64, 345, 740025), (1, 1, 3)],
    )
    def test_counts(self, fd_r, n_classes, expected):
        gmm = GaussianMixtureStream(n_classes, fd_r)
        assert gmm.memory_footprint() == expected

    def test_independent_of_batches_processed(self):
        rng = np.random.default_rng(9)
        gmm = GaussianMixtureStream(3, 4, jitter=1e-4)
        before = gmm.memory_footprint()
        for _ in range(5):
            gmm.update(rng.standard_normal((8, 4)), rng.dirichlet(np.ones(3), size=8))
        assert gmm.memory_footprint() == before


class TestStreamingInvariants:
    def test_streaming_mean_matches_one_pass_oracle(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            dim = int(rng.integers(2, 9))
            n_classes = int(rng.integers(2, 5))
            n_batches = int(rng.integers(1, 8))
            gmm = GaussianMixtureStream(n_classes, dim, jitter=1e-6)
            all_feats, all_w = [], []
            for _ in range(n_batches):
                n = int(rng.integers(2, 12))
                feats = rng.standard_normal((n, dim))
                w = rng.dirichlet(np.ones(n_classes), size=n)
                gmm.update(feats, w)
                all_feats.append(feats)
                all_w.append(w)
            feats = np.vstack(all_feats)
            w = np.vstack(all_w)
            for c in range(n_classes):
                oracle = (w[:, c] @ feats) / w[:, c].sum()
                np.testing.assert_allclose(gmm.means[c], oracle, rtol=1e-10)

    def test_mass_monotone_nondecreasing(self):
        rng = np.random.default_rng(2)
        gmm = GaussianMixtureStream(3, 2, jitter=1e-6)
        prev = np.zeros(3)
        for _ in range(6):
            gmm.update(rng.standard_normal((8, 2)), rng.dirichlet(np.ones(3), size=8))
            current = gmm.mass.copy()
            assert np.all(current >= prev)
            prev = current

    def test_within_batch_permutation_invariance_bitwise(self):
        rng = np.random.default_rng(13)
        feats = rng.standard_normal((16, 3))
        w = rng.dirichlet(np.ones(2), size=16)
        perm = rng.permutation(16)
        a = GaussianMixtureStream(2, 3, jitter=1e-6).update(feats, w)
        b = GaussianMixtureStream(2, 3, jitter=1e-6).update(feats[perm], w[perm])
        np.testing.assert_array_equal(a.means, b.means)
        np.testing.assert_array_equal(a.cov_packed, b.cov_packed)
        np.testing.assert_array_equal(a.mass, b.mass)

    def test_covariance_stays_factorable(self):
        rng = np.random.default_rng(31)
        gmm = GaussianMixtureStream(3, 5, jitter=1e-6)
        for _ in range(10):
            gmm.update(rng.standard_normal((12, 5)), rng.dirichlet(np.ones(3), size=12))
            live = gmm.prototypes()[0]
            L = linalg.cholesky(gmm.cov_packed[live], gmm.jitter)
            assert np.all(np.isfinite(L))


def edited(edit):
    """Snapshot corruption: load the JSON document, apply edit to it, dump it."""

    def corrupt(blob):
        doc = json.loads(blob)
        edit(doc)
        return json.dumps(doc)

    return corrupt


class TestSnapshot:
    def test_round_trip_preserves_state_and_likelihoods(self):
        rng = np.random.default_rng(17)
        gmm = GaussianMixtureStream(3, 4, jitter=1e-5)
        for _ in range(3):
            gmm.update(rng.standard_normal((10, 4)), rng.dirichlet(np.ones(3), size=10))
        blob = gmm.to_snapshot()
        restored = GaussianMixtureStream.from_snapshot(blob)
        assert restored.batch_counter == gmm.batch_counter
        assert restored.jitter == gmm.jitter
        x = rng.standard_normal(4)
        np.testing.assert_array_equal(log_likelihoods_one(restored, x), log_likelihoods_one(gmm, x))
        assert restored.to_snapshot() == blob

    def test_version_check(self):
        gmm = GaussianMixtureStream(2, 2)
        blob = gmm.to_snapshot().replace('"format_version": 1', '"format_version": 99')
        with pytest.raises(ValueError):
            GaussianMixtureStream.from_snapshot(blob)


    @pytest.mark.parametrize("edit,missing", [
        (lambda doc: doc.pop("dim"), "snapshot keys: missing ['dim']"),
        (lambda doc: doc.pop("modes"), "snapshot keys: missing ['modes']"),
        (lambda doc: doc["modes"][1].pop("mean"), "snapshot mode 1 keys: missing ['mean']"),
        (lambda doc: doc["modes"][0].pop("weight"), "snapshot mode 0 keys: missing ['weight']"),
    ], ids=["dim", "modes", "mode_mean", "mode_weight"])
    def test_missing_field_is_malformed(self, edit, missing):
        doc = json.loads(GaussianMixtureStream(2, 2).to_snapshot())
        edit(doc)
        with pytest.raises(MalformedFile, match=re.escape(missing + ", unexpected []") + "$"):
            GaussianMixtureStream.from_snapshot(json.dumps(doc))

    @pytest.mark.parametrize("corrupt", [
        lambda blob: blob[:len(blob) // 2],
        lambda blob: "gmm " + blob,
        lambda blob: f"[{blob}]",
        edited(lambda doc: doc["modes"].__setitem__(1, [0.0])),
        edited(lambda doc: doc.update(n_classes="2")),
        edited(lambda doc: doc.update(dim=-1)),
        edited(lambda doc: doc.update(batch_counter="x")),
        edited(lambda doc: doc.update(n_classes=True)),
        edited(lambda doc: doc.update(jitter=-1.0)),
        edited(lambda doc: doc.update(modes={})),
        edited(lambda doc: doc["modes"][0].update(mean=7.0)),
        edited(lambda doc: doc["modes"][0]["mean"].__setitem__(0, "0.5")),
        edited(lambda doc: doc["modes"][1].update(weight=None)),
        edited(lambda doc: doc["modes"][0].update(weight=True)),
        edited(lambda doc: doc["modes"][1]["mean"].__setitem__(0, False)),
        edited(lambda doc: doc["modes"][1]["cov_packed"].__setitem__(0, 10 ** 400)),
        edited(lambda doc: doc.update(jitter=10 ** 400)),
        edited(lambda doc: doc.update(extra=1)),
        edited(lambda doc: doc["modes"][1].update(stray=[1])),
        edited(lambda doc: doc["modes"][1].update(weight=10 ** 400)),
        edited(lambda doc: doc["modes"][1].update(weight=[1.0])),
        edited(lambda doc: doc["modes"][0].update(mean="x")),
        edited(lambda doc: doc["modes"][1]["cov_packed"].__setitem__(0, [0.0])),
    ], ids=["truncated", "not_json", "top_level_list", "mode_not_object", "string_n_classes",
            "negative_dim", "string_batch_counter", "bool_n_classes", "negative_jitter",
            "modes_object", "number_mean", "string_in_mean", "null_weight", "bool_weight",
            "bool_in_mean", "huge_int_in_cov", "huge_int_jitter", "extra_field",
            "stray_mode_field", "huge_int_weight", "list_weight", "string_mean",
            "nested_list_in_cov"])
    def test_unreadable_snapshot_is_malformed(self, corrupt):
        rng = np.random.default_rng(6)
        gmm = GaussianMixtureStream(2, 2).update(rng.standard_normal((5, 2)),
                                                 rng.dirichlet(np.ones(2), size=5))
        with pytest.raises(MalformedFile):
            GaussianMixtureStream.from_snapshot(corrupt(gmm.to_snapshot()))

    def test_bool_in_a_mean_names_its_mode(self):
        doc = json.loads(GaussianMixtureStream(3, 2).to_snapshot())
        doc["modes"][1]["mean"][1] = True
        with pytest.raises(MalformedFile, match=r"^snapshot mode 1 mean must be .*\bTrue\b"):
            GaussianMixtureStream.from_snapshot(json.dumps(doc))

    @pytest.mark.parametrize("edit,named", [
        (lambda doc: doc.update(extra=1), "snapshot keys: missing [], unexpected ['extra']"),
        (lambda doc: doc["modes"][1].update(stray=[1]),
         "snapshot mode 1 keys: missing [], unexpected ['stray']"),
    ], ids=["top_level", "mode"])
    def test_unknown_field_is_named(self, edit, named):
        doc = json.loads(GaussianMixtureStream(2, 2).to_snapshot())
        edit(doc)
        with pytest.raises(MalformedFile, match=re.escape(named)):
            GaussianMixtureStream.from_snapshot(json.dumps(doc))

    def test_copy_is_independent(self):
        rng = np.random.default_rng(5)
        gmm = GaussianMixtureStream(3, 2)
        gmm.update(rng.standard_normal((6, 2)), rng.dirichlet(np.ones(3), size=6))
        dup = gmm.copy()
        assert dup.to_snapshot() == gmm.to_snapshot()
        dup.update(rng.standard_normal((6, 2)), rng.dirichlet(np.ones(3), size=6))
        assert dup.to_snapshot() != gmm.to_snapshot()
        assert gmm.batch_counter == 1


class TestPriorInitialization:
    def test_prior_blends_with_first_batch(self):
        gmm = mixture_from([[0.0, 0.0]], [2.0], jitter=1e-6)
        gmm.update(np.array([[3.0, 0.0]]), np.array([[1.0]]))
        # mean: (2*0 + 1*3)/3, mass 3
        assert gmm.mass[0] == pytest.approx(3.0)
        assert gmm.means[0, 0] == pytest.approx(1.0)

    @pytest.mark.parametrize(
        "edit,error",
        [
            (lambda doc: doc["modes"].pop(), DimensionMismatch),
            (lambda doc: doc["modes"].append(doc["modes"][0]), DimensionMismatch),
            (lambda doc: doc["modes"][1]["mean"].pop(), DimensionMismatch),
            (lambda doc: doc["modes"][1]["cov_packed"].append(0.0), DimensionMismatch),
            (lambda doc: doc["modes"][2].update(weight=float("nan")), NonFiniteInput),
            (lambda doc: doc["modes"][2].update(weight=float("inf")), NonFiniteInput),
            (lambda doc: doc["modes"][2].update(weight=-1.0), NonFiniteInput),
            (lambda doc: doc.update(dim=10**6), DimensionMismatch),
        ],
        ids=["too_few_modes", "too_many_modes", "short_mean", "long_cov_packed",
             "nan_weight", "inf_weight", "negative_weight", "huge_dim"],
    )
    def test_malformed_snapshot_rejected_at_load(self, edit, error):
        rng = np.random.default_rng(4)
        gmm = GaussianMixtureStream(3, 2, jitter=1e-6)
        gmm.update(rng.standard_normal((9, 2)), rng.dirichlet(np.ones(3), size=9))
        doc = json.loads(gmm.to_snapshot())
        edit(doc)
        with pytest.raises(error):
            GaussianMixtureStream.from_snapshot(json.dumps(doc))


class TestLikelihoodChecks:
    def test_feats_shape_and_finiteness(self):
        gmm = mixture_from([[0.0, 0.0], [1.0, 1.0]], [1.0, 1.0])
        with pytest.raises(DimensionMismatch):
            gmm.likelihood_vectors(np.zeros((3, 3)))
        with pytest.raises(NonFiniteInput):
            gmm.likelihood_vectors(np.array([[0.0, np.inf]]))

    def test_non_finite_covariance_raises(self):
        gmm = mixture_from([[0.0, 0.0], [1.0, 1.0]], [1.0, 1.0])
        gmm.cov_packed[1, 0] = np.nan
        with pytest.raises(NonFiniteInput):
            gmm.likelihood_vectors(np.zeros((2, 2)))

    def test_singular_mode_at_zero_jitter_raises(self):
        # mode 0 is singular at zero jitter: no other jitter is tried for it
        gmm = mixture_from([[0.0, 0.0], [1.0, 1.0]], [1.0, 1.0], jitter=0.0)
        gmm.cov_packed[0] = linalg.pack(np.ones((1, 2, 2)))[0]
        with pytest.raises(NotPositiveDefinite,
                           match=r"factorization of mode 0 failed at jitter 0\.0$"):
            gmm.class_log_likelihoods_batch(np.array([[0.5, -0.5], [2.0, 1.0]]))

    def test_zero_pivot_in_a_later_block_names_the_class(self, monkeypatch):
        # LAPACK never returns a factor with a zero pivot, so one is planted
        # in the factor of class BLOCK + 6, which the second block holds and
        # whose covariance alone is 7 I
        n_classes, target = 2 * BLOCK + 1, BLOCK + 6
        gmm = mixture_from(np.zeros((n_classes, 3)), np.ones(n_classes))
        gmm.cov_packed[target] *= 7.0
        factor = linalg.cholesky

        def planted(covs, *args, **kwargs):
            chols = factor(covs, *args, **kwargs)
            chols[chols[:, 0, 0] > 2.0, 1, 1] = 0.0
            return chols

        monkeypatch.setattr(linalg, "cholesky", planted)
        with pytest.raises(NotPositiveDefinite, match=f"mode {target}: zero pivot at row 1$"):
            gmm.likelihood_vectors(np.zeros((2, 3)))

    def test_failed_factorization_in_a_later_block_names_the_class(self):
        n_classes, target = 2 * BLOCK + 1, BLOCK + 6
        gmm = mixture_from(np.zeros((n_classes, 3)), np.ones(n_classes))
        gmm.cov_packed[target] *= -1.0
        with pytest.raises(NotPositiveDefinite, match=f"factorization of mode {target} failed"):
            gmm.likelihood_vectors(np.zeros((2, 3)))

    def test_likelihoods_leave_the_state_unchanged(self):
        rng = np.random.default_rng(8)
        gmm = GaussianMixtureStream(BLOCK + 1, 4, jitter=1e-3)
        gmm.update(*random_batch(rng, 16, BLOCK + 1, 4, [0]))
        before = [a.tobytes() for a in (gmm.means, gmm.cov_packed, gmm.mass)]
        gmm.likelihood_vectors(rng.standard_normal((5, 4)))
        assert [a.tobytes() for a in (gmm.means, gmm.cov_packed, gmm.mass)] == before


# -- properties ---------------------------------------------------------------
# The per-class reference below is the recursion and the density written
# one class at a time, as the module docstring states them. The blocked
# implementation must match it bit for bit, across block boundaries
# (gmm_stream.BLOCK classes each) and with classes that receive no mass.

BLOCK_EDGES = [1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1]


def reference_update(state, feats, weights):
    """One recursion step, class by class, on (means, dense covs, mass) copies."""
    means, covs, mass = (a.copy() for a in state)
    order = np.lexsort(np.vstack([feats.T, weights.T]))
    feats, weights = feats[order], weights[order]
    batch_mass = weights.sum(axis=0)
    weighted_sums = weights.T @ feats
    rows, cols = np.tril_indices(feats.shape[1])
    for c in range(weights.shape[1]):
        if batch_mass[c] <= 0.0:
            continue
        s_prev = mass[c]
        s_new = s_prev + batch_mass[c]
        new_mean = (s_prev * means[c] + weighted_sums[c]) / s_new
        diff = feats - new_mean
        scatter = ((diff.T * weights[:, c]) @ diff)[rows, cols]
        covs[c] = (s_prev * covs[c] + scatter) / s_new
        means[c] = new_mean
        mass[c] = s_new
    return means, covs, mass


def reference_log_likelihoods(state, xs, jitter):
    means, covs, mass = state
    dim = means.shape[1]
    rows, cols = np.tril_indices(dim)
    out = np.full((xs.shape[0], means.shape[0]), -np.inf)
    for c in np.flatnonzero(mass > 0.0):
        dense = np.zeros((dim, dim))
        dense[rows, cols] = covs[c]
        dense[cols, rows] = covs[c]
        L = np.linalg.cholesky(dense + jitter * np.eye(dim))
        ys = solve_triangular(L, (xs - means[c]).T, lower=True)
        log_det = 2.0 * float(np.sum(np.log(np.diag(L))))
        out[:, c] = -0.5 * (dim * linalg.LOG_2PI + log_det + np.sum(ys * ys, axis=0))
    return out


def random_batch(rng, n, n_classes, dim, dead):
    """Features and softmax-like weights; the classes in `dead` get no mass."""
    feats = rng.standard_normal((n, dim)) * rng.uniform(0.5, 3.0)
    w = rng.dirichlet(np.ones(n_classes), size=n)
    w[:, dead] = 0.0
    return feats, w / w.sum(axis=1, keepdims=True)


class TestBlockedProperties:
    @settings(max_examples=30, deadline=None)
    @given(
        n_classes=st.sampled_from(BLOCK_EDGES),
        dim=st.integers(1, 5),
        n_batches=st.integers(1, 3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_blocked_equals_per_class_reference(self, n_classes, dim, n_batches, seed):
        rng = np.random.default_rng(seed)
        dead = rng.random(n_classes) < 0.3
        dead[rng.integers(n_classes)] = False
        jitter = 1e-6
        gmm = GaussianMixtureStream(n_classes, dim, jitter)
        state = (gmm.means.copy(), gmm.cov_packed.copy(), gmm.mass.copy())
        for _ in range(n_batches):
            feats, w = random_batch(rng, int(rng.integers(1, 12)), n_classes, dim, dead)
            gmm.update(feats, w)
            state = reference_update(state, feats, w)
        np.testing.assert_array_equal(gmm.means, state[0])
        np.testing.assert_array_equal(gmm.cov_packed, state[1])
        np.testing.assert_array_equal(gmm.mass, state[2])
        xs = rng.standard_normal((5, dim))
        np.testing.assert_array_equal(
            gmm.class_log_likelihoods_batch(xs), reference_log_likelihoods(state, xs, jitter)
        )

    @pytest.mark.parametrize("block", [1, 5, 64])
    def test_results_do_not_depend_on_block(self, monkeypatch, block):
        rng = np.random.default_rng(block)
        n_classes, dim = 2 * BLOCK + 1, 6
        batches = [random_batch(rng, 20, n_classes, dim, [3, BLOCK + 2]) for _ in range(3)]
        xs = rng.standard_normal((9, dim))

        def run():
            gmm = GaussianMixtureStream(n_classes, dim, jitter=1e-4)
            for feats, w in batches:
                gmm.update(feats, w)
            return gmm.to_snapshot(), gmm.class_log_likelihoods_batch(xs).tobytes()

        expected = run()
        monkeypatch.setattr(gmm_stream, "BLOCK", block)
        assert run() == expected

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_results_do_not_depend_on_workers(self, monkeypatch, workers):
        rng = np.random.default_rng(workers)
        dim = 6
        cases = []
        for n_classes in BLOCK_EDGES:
            # dead classes make a block's ids non-consecutive
            dead = [c for c in (3, BLOCK + 2) if c < n_classes - 1]
            batches = [random_batch(rng, 20, n_classes, dim, dead) for _ in range(3)]
            cases.append((n_classes, batches, rng.standard_normal((9, dim))))

        def run():
            results = []
            for n_classes, batches, xs in cases:
                gmm = GaussianMixtureStream(n_classes, dim, jitter=1e-4)
                for feats, w in batches:
                    gmm.update(feats, w)
                results.append((gmm.to_snapshot(), gmm.class_log_likelihoods_batch(xs).tobytes()))
            return results

        monkeypatch.setattr(gmm_stream, "WORKERS", 1)
        expected = run()
        monkeypatch.setattr(gmm_stream, "WORKERS", workers)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as the interpreter can
        try:
            assert run() == expected
        finally:
            sys.setswitchinterval(interval)

    @settings(max_examples=8, deadline=None)
    @given(
        n_classes=st.sampled_from(BLOCK_EDGES),
        n_batches=st.integers(1, 2),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_blocked_equals_reference_at_dim_64(self, n_classes, n_batches, seed):
        """dim 64, the default fd_r, is large enough for OpenBLAS to block
        its Cholesky and triangular-solve kernels."""
        rng = np.random.default_rng(seed)
        dim, jitter = 64, 1e-6
        gmm = GaussianMixtureStream(n_classes, dim, jitter)
        state = (gmm.means.copy(), gmm.cov_packed.copy(), gmm.mass.copy())
        for _ in range(n_batches):
            feats, w = random_batch(rng, 80, n_classes, dim, [])
            gmm.update(feats, w)
            state = reference_update(state, feats, w)
        np.testing.assert_array_equal(gmm.cov_packed, state[1])
        xs = rng.standard_normal((7, dim))
        np.testing.assert_array_equal(
            gmm.class_log_likelihoods_batch(xs), reference_log_likelihoods(state, xs, jitter)
        )

    @settings(max_examples=30, deadline=None)
    @given(
        n_classes=st.sampled_from([1, 3, BLOCK + 1]),
        dim=st.integers(1, 4),
        n=st.integers(1, 16),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_shuffled_batch_gives_identical_parameters(self, n_classes, dim, n, seed):
        rng = np.random.default_rng(seed)
        prior_feats, prior_w = random_batch(rng, 8, n_classes, dim, [])
        feats, w = random_batch(rng, n, n_classes, dim, [])
        perm = rng.permutation(n)
        a = GaussianMixtureStream(n_classes, dim).update(prior_feats, prior_w)
        b = a.copy()
        a.update(feats, w)
        b.update(feats[perm], w[perm])
        np.testing.assert_array_equal(a.means, b.means)
        np.testing.assert_array_equal(a.cov_packed, b.cov_packed)
        np.testing.assert_array_equal(a.mass, b.mass)

    @settings(max_examples=30, deadline=None)
    @given(
        n_classes=st.sampled_from([1, 2, 3, BLOCK + 1]),
        dim=st.integers(1, 4),
        n=st.integers(2, 16),
        n_levels=st.integers(1, 3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_ties_in_last_weight_column_match_reference(self, n_classes, dim, n, n_levels,
                                                        seed):
        """The last weight column, lexsort's primary key, takes at most n_levels
        values, so rows tie on it; shuffled or not, the update equals the
        reference's full lexsort order."""
        rng = np.random.default_rng(seed)
        feats, w = random_batch(rng, n, n_classes, dim, [])
        if n_classes > 1:
            last = rng.choice(rng.uniform(0.0, 0.9, n_levels), size=n)
            w[:, :-1] *= ((1.0 - last) / w[:, :-1].sum(axis=1))[:, None]
            w[:, -1] = last
        gmm = GaussianMixtureStream(n_classes, dim).update(*random_batch(rng, 8, n_classes,
                                                                         dim, []))
        state = (gmm.means.copy(), gmm.cov_packed.copy(), gmm.mass.copy())
        perm = rng.permutation(n)
        shuffled = gmm.copy().update(feats[perm], w[perm])
        gmm.update(feats, w)
        state = reference_update(state, feats, w)
        for got in (gmm, shuffled):
            np.testing.assert_array_equal(got.means, state[0])
            np.testing.assert_array_equal(got.cov_packed, state[1])
            np.testing.assert_array_equal(got.mass, state[2])

    @settings(max_examples=20, deadline=None)
    @given(
        n_classes=st.sampled_from([1, 2, BLOCK + 1]),
        dim=st.integers(1, 6),
        n_batches=st.integers(0, 3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_reachable_reals_equal_memory_footprint(self, n_classes, dim, n_batches, seed):
        rng = np.random.default_rng(seed)
        gmm = GaussianMixtureStream(n_classes, dim, jitter=1e-6)
        for _ in range(n_batches):
            gmm.update(*random_batch(rng, 6, n_classes, dim, []))
        if n_batches:
            gmm.likelihood_vectors(rng.standard_normal((4, dim)))
        gmm = GaussianMixtureStream.from_snapshot(gmm.to_snapshot()) if seed % 2 else gmm
        assert reachable_reals(gmm) == gmm.memory_footprint()


class TestBlockPool:
    """The blocks of one call on gmm_stream's thread pool (see _each_block)."""

    def test_first_failing_block_in_block_order_is_raised(self, monkeypatch):
        # classes 3 (first block) and BLOCK + 6 (second block) cannot be
        # factored; the first block waits until the second has failed
        n_classes, first, second = 2 * BLOCK + 1, 3, BLOCK + 6
        gmm = mixture_from(np.zeros((n_classes, 3)), np.ones(n_classes))
        gmm.cov_packed[[first, second]] *= -1.0
        factor, second_failed = linalg.cholesky, threading.Event()

        def ordered(covs, *args, ids, **kwargs):
            if first in ids:
                assert second_failed.wait(timeout=30)
                return factor(covs, *args, ids=ids, **kwargs)
            try:
                return factor(covs, *args, ids=ids, **kwargs)
            finally:
                if second in ids:
                    second_failed.set()

        monkeypatch.setattr(gmm_stream, "WORKERS", 2)
        monkeypatch.setattr(linalg, "cholesky", ordered)
        with pytest.raises(NotPositiveDefinite, match=f"factorization of mode {first} failed"):
            gmm.likelihood_vectors(np.zeros((2, 3)))
        assert second_failed.is_set()

    def test_forked_child_completes_a_multi_block_call(self, package_env):
        """A child forked after the pool has run gets a pool of its own; the
        parent's threads do not exist in it. The alarm ends a hung child."""
        script = (
            "import os, signal, sys\n"
            "import numpy as np\n"
            "from gmmadapt import gmm_stream\n"
            "gmm_stream.WORKERS = 2\n"
            "rng = np.random.default_rng(0)\n"
            "n_classes = 2 * gmm_stream.BLOCK + 1\n"
            "gmm = gmm_stream.GaussianMixtureStream(n_classes, 4)\n"
            "gmm.update(rng.standard_normal((40, 4)), rng.dirichlet(np.ones(n_classes), 40))\n"
            "xs = rng.standard_normal((5, 4))\n"
            "expected = gmm.likelihood_vectors(xs)\n"
            "assert gmm_stream._pool is not None\n"
            "pid = os.fork()\n"
            "if pid == 0:\n"
            "    signal.alarm(20)\n"
            "    os._exit(0 if np.array_equal(gmm.likelihood_vectors(xs), expected) else 3)\n"
            "sys.exit(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))\n"
        )
        proc = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True, timeout=60, env=package_env)
        assert proc.returncode == 0, proc.stderr

    def test_default_run_starts_no_thread(self, package_env, tmp_path):
        """9 classes are one block, run in the calling thread: a 9-class
        mixture step does not import concurrent.futures, and the default run
        makes no pool and starts no thread. Neither a default run nor a
        2-cell sweep of them, rotated domain included, loads
        concurrent.futures or scipy.linalg."""
        script = (
            "import sys, threading\n"
            "from dataclasses import replace\n"
            "from pathlib import Path\n"
            "import numpy as np\n"
            "from gmmadapt import (GaussianMixtureStream, default_config, gmm_stream, run_adapt,\n"
            "                      run_sweep)\n"
            "def loaded():\n"
            "    return [m for m in ('concurrent.futures', 'scipy.linalg') if m in sys.modules]\n"
            "rng = np.random.default_rng(0)\n"
            "gmm = GaussianMixtureStream(9, 16)\n"
            "feats = rng.standard_normal((64, 16))\n"
            "gmm.update(feats, rng.dirichlet(np.ones(9), size=64)).likelihood_vectors(feats)\n"
            "print(loaded())\n"
            "cfg = replace(default_config(), n_batches=4, n_init=2)\n"
            "assert cfg.domain.rotation_seed is not None and cfg.domain.rotation_strength != 0\n"
            f"run_adapt(cfg, Path({str(tmp_path)!r}) / 'run')\n"
            "print(gmm_stream._pool, threading.active_count(), loaded())\n"
            f"run_sweep(cfg, 'p_reject', [30.0, 70.0], 1, Path({str(tmp_path)!r}) / 'sweep')\n"
            "print(gmm_stream._pool, threading.active_count(), loaded())\n"
        )
        proc = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True, timeout=120, env=package_env)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\nNone 1 []\nNone 1 []\n"


def reachable_reals(gmm) -> int:
    """Floats held below the mixture's top-level settings, private names included.

    Top-level scalars (class count, dimension, jitter, batch counter) are
    settings; every float array and every float inside a container or an
    object attribute counts.
    """

    def walk(value) -> int:
        if isinstance(value, np.ndarray):
            return int(value.size) if np.issubdtype(value.dtype, np.floating) else 0
        if isinstance(value, float):
            return 1
        if isinstance(value, (list, tuple, set)):
            return sum(walk(v) for v in value)
        if isinstance(value, dict):
            return sum(walk(v) for v in value.values())
        if hasattr(value, "__dict__"):
            return sum(walk(v) for v in vars(value).values())
        return 0

    return sum(
        walk(value) for value in vars(gmm).values() if not isinstance(value, (int, float))
    )


finite_floats = st.floats(allow_nan=False, allow_infinity=False)


# floats whose repr takes exponent form, signed zeros and float64's extremes
repr_edges = st.sampled_from([1e-05, 1e+16, -2.5e-07, 1.5e+300, 5e-324,
                              1.7976931348623157e+308, -0.0, 0.0])
edge_masses = st.sampled_from([0.0, -0.0, 1e-05, 1e+16])


@st.composite
def mixtures(draw, values=finite_floats, masses=st.floats(0.0, 1e300)):
    """A mixture with arbitrary finite state, drawn from values and, for
    the masses, from masses, in which any mode, and sometimes every mode,
    may have zero mass."""
    n_classes, dim = draw(st.integers(1, 6)), draw(st.integers(1, 4))
    gmm = GaussianMixtureStream(n_classes, dim, draw(st.floats(0.0, 1.0)))
    gmm.batch_counter = draw(st.integers(0, 10**6))
    gmm.means = draw(arrays(np.float64, (n_classes, dim), elements=values))
    gmm.cov_packed = draw(arrays(np.float64, (n_classes, linalg.packed_size(dim)),
                                 elements=values))
    mass = st.one_of(st.just(0.0), masses)
    gmm.mass = draw(arrays(np.float64, n_classes, elements=mass))
    return gmm


class TestSnapshotProperties:
    @settings(max_examples=60, deadline=None)
    @given(gmm=mixtures())
    def test_round_trip_is_exact(self, gmm):
        blob = gmm.to_snapshot()
        back = GaussianMixtureStream.from_snapshot(blob)
        assert back.to_snapshot() == blob
        assert (back.n_classes, back.dim, back.batch_counter) == (
            gmm.n_classes, gmm.dim, gmm.batch_counter)
        assert np.float64(back.jitter).tobytes() == np.float64(gmm.jitter).tobytes()
        for name in ("means", "cov_packed", "mass"):
            a, b = getattr(gmm, name), getattr(back, name)
            assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), name


def whole_document_snapshot(gmm) -> str:
    """Reference writer: the whole document built as Python objects, then
    one json.dumps. to_snapshot must give the same text."""
    doc = {key: getattr(gmm, key) for key in gmm_stream._HEADER}
    rows = zip(*(getattr(gmm, array).tolist() for array in gmm_stream._MODE.values()))
    doc["modes"] = [dict(zip(gmm_stream._MODE, row)) for row in rows]
    return json.dumps(doc)


def whole_document_arrays(blob: str) -> dict:
    """Reference reader: the whole document parsed, then one np.array per
    field over all modes. from_snapshot must give bit-equal arrays."""
    modes = json.loads(blob)["modes"]
    return {array: np.array([mode[key] for mode in modes], dtype=np.float64)
            for key, array in gmm_stream._MODE.items()}


class TestPerModeSnapshotIO:
    """The per-mode writer and reader against the whole-document ones."""

    def assert_same_as_whole_document(self, gmm):
        blob = gmm.to_snapshot()
        assert blob == whole_document_snapshot(gmm)
        back = GaussianMixtureStream.from_snapshot(blob)
        for array, expected in whole_document_arrays(blob).items():
            got = getattr(back, array)
            assert (got.dtype, got.shape, got.tobytes()) == (
                expected.dtype, expected.shape, expected.tobytes()), array

    @settings(max_examples=80, deadline=None)
    @given(gmm=mixtures(values=st.one_of(repr_edges, finite_floats),
                        masses=st.one_of(edge_masses, st.floats(0.0, 1e300))))
    def test_bytes_and_arrays_match_whole_document(self, gmm):
        self.assert_same_as_whole_document(gmm)

    @pytest.mark.parametrize("mass", [[0.0], [1e+16], [0.0, -0.0, 1e-05]],
                             ids=["one_zero_mass_mode", "one_mode", "zero_mass_modes"])
    def test_exponent_reprs_and_signed_zeros_match(self, mass):
        gmm = GaussianMixtureStream(len(mass), 2, jitter=1e-05)
        gmm.batch_counter = 10**16
        gmm.means[:] = [1e-05, -0.0]
        gmm.cov_packed[:] = [1e+16, 5e-324, -0.0]
        gmm.mass[:] = mass
        blob = gmm.to_snapshot()
        for text in ("1e-05", "1e+16", "5e-324", "-0.0"):
            assert text in blob
        self.assert_same_as_whole_document(gmm)

    def test_random_bit_patterns_match(self):
        """Over a million random float64 bit patterns, NaNs and infinities
        among them. Most random exponents lie outside [1e-4, 1e16), where
        repr writes positional digits, so in a share of each row, running
        from none in the first row to all in the last, the exponent is
        redrawn around that range."""
        gmm = GaussianMixtureStream(480, 64)
        rng = np.random.default_rng(25)
        for array in ("means", "cov_packed", "mass"):
            rows = getattr(gmm, array).reshape(gmm.n_classes, -1)
            bits = rng.integers(0, 2**64, rows.shape, dtype=np.uint64)
            near = rng.random(rows.shape) < np.linspace(0, 1, gmm.n_classes)[:, None]
            exponents = rng.integers(1008, 1078, rows.shape, dtype=np.uint64) << np.uint64(52)
            bits[near] = bits[near] & np.uint64(~(0x7FF << 52) % 2**64) | exponents[near]
            rows[:] = bits.view(np.float64)
        assert gmm.memory_footprint() >= 1_000_000
        got, want = gmm.to_snapshot(), whole_document_snapshot(gmm)
        same = got == want  # not in the assert: pytest would diff megabytes of text
        i = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b), len(want))
        assert same, f"first difference at {i}: {got[i - 40:i + 40]!r} != {want[i - 40:i + 40]!r}"

    @pytest.mark.parametrize("value,text", [(np.nan, "NaN"), (np.inf, "Infinity"),
                                            (-np.inf, "-Infinity")])
    @pytest.mark.parametrize("array", ["means", "cov_packed"])
    def test_non_finite_values_are_written_as_json_dumps_writes_them(self, array, value, text):
        gmm = GaussianMixtureStream(2, 2)
        gmm.mass[:] = 1.0
        getattr(gmm, array)[1, 1] = value
        blob = gmm.to_snapshot()
        assert blob == whole_document_snapshot(gmm)
        assert f"[0.0, {text}" in blob
        with pytest.raises(NonFiniteInput, match="^mode means and covariances must be finite$"):
            GaussianMixtureStream.from_snapshot(blob)


class TestSnapshotMemory:
    """Snapshot I/O holds one mode's Python objects at a time. The writer's
    peak is the pieces it joins plus the joined text, about twice the text;
    the reader's is the parsed rows plus the state, about twice the state.
    Python objects for every stored real would cost several times more."""

    @pytest.fixture(scope="class")
    def gmm(self):
        rng = np.random.default_rng(60)
        gmm = GaussianMixtureStream(60, 64, jitter=2e-2)
        gmm.update(rng.standard_normal((64, 64)), rng.dirichlet(np.ones(60), size=64))
        return gmm

    @staticmethod
    def traced_peak(fn, *args) -> int:
        fn(*args)  # a first call's one-off allocations are not the I/O's
        tracemalloc.start()
        try:
            fn(*args)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_write_peak_within_2_2x_text(self, gmm):
        text = gmm.to_snapshot()
        assert self.traced_peak(gmm.to_snapshot) < 2.2 * len(text)

    def test_read_peak_within_2_5x_state(self, gmm):
        blob = gmm.to_snapshot()
        state_bytes = 8 * gmm.memory_footprint()
        assert self.traced_peak(GaussianMixtureStream.from_snapshot, blob) < 2.5 * state_bytes
