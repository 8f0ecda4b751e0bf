import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from gmmadapt.errors import (AlreadyFrozen, BatchTooSmall, DimensionMismatch, NonFiniteInput,
                             Uncalibrated)
from gmmadapt.ood_gate import DISCARDED, ThresholdState, normalized_entropy_rows


def entropy_one(p):
    """Batch entropy of a single probability vector."""
    return float(normalized_entropy_rows(np.asarray(p, dtype=float)[None, :])[0])


def reference_entropy(p):
    """1 - KL(p || uniform)/log(C) for one vector, written out in the test."""
    n = p.shape[-1]
    if n == 1:
        return 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(p > 0.0, p * np.log(p * n), 0.0)
    return float(np.clip(1.0 - float(np.sum(terms)) / np.log(n), 0.0, 1.0))


class TestNormalizedEntropy:
    def test_uniform_is_exactly_one(self):
        for n in (2, 3, 4, 9, 12, 345):
            assert entropy_one(np.full(n, 1.0 / n)) == 1.0

    def test_one_hot_is_exactly_zero(self):
        for n in (2, 4, 12):
            p = np.zeros(n)
            p[1] = 1.0
            assert entropy_one(p) == 0.0

    def test_half_split_four_classes(self):
        assert entropy_one(np.array([0.5, 0.5, 0.0, 0.0])) == 0.5

    def test_single_class_convention(self):
        assert entropy_one(np.array([1.0])) == 0.0

    def test_range_and_extremes_random(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            n = int(rng.integers(2, 20))
            p = rng.dirichlet(np.full(n, rng.uniform(0.05, 5.0)))
            val = entropy_one(p)
            assert 0.0 <= val <= 1.0
            if not np.allclose(p, 1.0 / n):
                assert val < 1.0

    def test_rows_matches_scalar(self):
        rng = np.random.default_rng(1)
        p = rng.dirichlet(np.ones(6), size=32)
        rows = normalized_entropy_rows(p)
        for i in range(32):
            assert rows[i] == reference_entropy(p[i])


class TestCalibrate:
    def test_first_batch_nearest_rank(self):
        ts = ThresholdState(n_init=30, p_reject=50.0)
        ts.calibrate(np.array([0.1, 0.2, 0.3, 0.4, 0.6, 0.7, 0.8, 0.9]))
        assert ts.tau_k == pytest.approx(0.2)
        assert ts.tau_u == pytest.approx(0.8)
        assert ts.batches_seen == 1

    def test_running_average_second_batch(self):
        ts = ThresholdState(n_init=30, p_reject=50.0)
        ts.calibrate(np.array([0.1, 0.2, 0.3, 0.4, 0.6, 0.7, 0.8, 0.9]))
        # second batch with cutoffs 0.4 / 0.6
        ts.calibrate(np.array([0.4, 0.4, 0.5, 0.5, 0.5, 0.5, 0.6, 0.6]))
        assert ts.tau_k == pytest.approx(0.3)
        assert ts.tau_u == pytest.approx(0.7)

    def test_degenerate_batch_eps_separation(self):
        ts = ThresholdState(n_init=30, p_reject=50.0)
        ts.calibrate(np.full(8, 0.5))
        assert ts.tau_k < ts.tau_u
        assert ts.tau_u - ts.tau_k == pytest.approx(2e-6)
        assert ts.tau_k < ts.tau < ts.tau_u

    def test_adjacent_float_thresholds_are_separated(self):
        # tau_k = 0.0 and tau_u = 5e-324 are adjacent floats: their midpoint
        # rounds onto tau_k, so tau would equal tau_k without the repair
        ts = ThresholdState(n_init=1, p_reject=1.0)
        ts.calibrate(np.array([0.0, 0.0, 5e-324, 5e-324]))
        assert ts.tau_k < ts.tau < ts.tau_u
        assert ts.tau_u - ts.tau_k == pytest.approx(2e-6)

    def test_batch_too_small(self):
        ts = ThresholdState(n_init=30, p_reject=50.0)
        with pytest.raises(BatchTooSmall):
            ts.calibrate(np.array([0.1, 0.2, 0.3]))

    def test_freeze_after_n_init_and_immutability(self):
        ts = ThresholdState(n_init=3, p_reject=50.0)
        rng = np.random.default_rng(4)
        for _ in range(3):
            ts.calibrate(rng.uniform(0, 1, size=16))
        assert ts.frozen
        tk, tu = ts.tau_k, ts.tau_u
        with pytest.raises(AlreadyFrozen):
            ts.calibrate(rng.uniform(0, 1, size=16))
        assert (ts.tau_k, ts.tau_u) == (tk, tu)

    def test_calibration_determinism_bitwise(self):
        rng = np.random.default_rng(8)
        batches = [rng.uniform(0, 1, size=64) for _ in range(10)]
        a = ThresholdState(n_init=10, p_reject=50.0)
        b = ThresholdState(n_init=10, p_reject=50.0)
        for batch in batches:
            a.calibrate(batch)
            b.calibrate(batch.copy())
        assert a.tau_k == b.tau_k and a.tau_u == b.tau_u

    def test_tau_k_below_tau_u_along_the_run(self):
        rng = np.random.default_rng(12)
        ts = ThresholdState(n_init=20, p_reject=30.0)
        for _ in range(20):
            ts.calibrate(rng.uniform(0, 1, size=32))
            assert ts.tau_k < ts.tau_u

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_entropy_raises_before_any_change(self, bad):
        # a NaN accepted here would freeze tau_u at NaN, and then predict_batch
        # would send every row to unknown and no row would be labeled unknown
        ts = ThresholdState(n_init=2, p_reject=50.0)
        with pytest.raises(NonFiniteInput):
            ts.calibrate(np.array([0.1, 0.2, bad, 0.9]))
        assert ts == ThresholdState(n_init=2, p_reject=50.0)
        ts.calibrate(np.array([0.1, 0.2, 0.3, 0.9]))
        before = dataclasses.replace(ts)
        with pytest.raises(NonFiniteInput):
            ts.calibrate(np.array([0.1, 0.2, bad, 0.9]))
        assert ts == before

    def test_first_batch_discard_share_matches_p_reject(self):
        # distinct entropies: the rank rule discards exactly p_reject percent
        rng = np.random.default_rng(3)
        for p_reject in (25.0, 50.0, 75.0):
            ts = ThresholdState(n_init=5, p_reject=p_reject)
            ent = rng.permutation(np.linspace(0.01, 0.99, 64))
            ts.calibrate(ent)
            labels = ts.pseudo_label_batch(np.full((64, 4), 0.25), entropies=ent)
            discarded = np.mean(labels == DISCARDED)
            assert discarded == pytest.approx(p_reject / 100.0, abs=2 / 64)


def pseudo_label_one(ts, p):
    """Batch pseudo-label of a single likelihood vector."""
    p = np.asarray(p, dtype=float)[None, :]
    return int(ts.pseudo_label_batch(p, normalized_entropy_rows(p))[0])


def predict_one(ts, softmax_out, p):
    """Batch prediction for a single aligned (softmax, likelihood) pair."""
    p = np.asarray(p, dtype=float)[None, :]
    return int(ts.predict_batch(np.asarray(softmax_out, dtype=float)[None, :], p,
                                normalized_entropy_rows(p))[0])


def reference_pseudo_label(ts, p):
    """The gate rule written out for one row, via the reference entropy."""
    ent = reference_entropy(p)
    if ent <= ts.tau_k:
        return int(np.argmax(p))
    if ent >= ts.tau_u:
        return p.shape[-1]
    return DISCARDED


def reference_predict(ts, softmax_out, p):
    """The inference rule written out for one row, via the reference entropy."""
    if reference_entropy(p) <= ts.tau:
        return int(np.argmax(softmax_out))
    return p.shape[-1]


class TestPseudoLabel:
    def make_state(self, tau_k=0.3, tau_u=0.7):
        return ThresholdState(n_init=30, p_reject=50.0, tau_k=tau_k, tau_u=tau_u,
                              batches_seen=1)

    def test_one_hot_goes_known(self):
        ts = self.make_state()
        p = np.array([0.0, 0.0, 1.0, 0.0])
        assert pseudo_label_one(ts, p) == 2

    def test_uniform_goes_unknown(self):
        ts = self.make_state()
        assert pseudo_label_one(ts, np.full(4, 0.25)) == 4

    def test_mid_entropy_discarded(self):
        ts = self.make_state()
        assert pseudo_label_one(ts, np.array([0.5, 0.5, 0.0, 0.0])) == DISCARDED

    def test_argmax_tie_breaks_low_index(self):
        ts = self.make_state(tau_k=0.97, tau_u=0.99)
        assert pseudo_label_one(ts, np.array([0.4, 0.4, 0.2])) == 0

    def test_uncalibrated_raises(self):
        ts = ThresholdState(n_init=30, p_reject=50.0)
        with pytest.raises(Uncalibrated):
            pseudo_label_one(ts, np.full(4, 0.25))
        with pytest.raises(Uncalibrated):
            predict_one(ts, np.full(4, 0.25), np.full(4, 0.25))

    def test_batch_matches_scalar(self):
        ts = self.make_state()
        rng = np.random.default_rng(6)
        p = rng.dirichlet(np.ones(5), size=40)
        batch = ts.pseudo_label_batch(p, normalized_entropy_rows(p))
        for i in range(40):
            assert batch[i] == reference_pseudo_label(ts, p[i])

    def test_monotone_gate(self):
        # decreasing entropy never moves a sample from Known toward Unknown
        ts = self.make_state()
        order = {"known": 0, "discarded": 1, "unknown": 2}

        def bucket(p):
            label = pseudo_label_one(ts, p)
            if label == DISCARDED:
                return order["discarded"]
            return order["known"] if label < 4 else order["unknown"]

        # blend from one-hot (entropy 0) to uniform (entropy 1)
        hot = np.array([1.0, 0.0, 0.0, 0.0])
        uniform = np.full(4, 0.25)
        buckets = [bucket((1 - a) * hot + a * uniform) for a in np.linspace(0, 1, 50)]
        assert all(b2 >= b1 for b1, b2 in zip(buckets, buckets[1:]))


class TestGateInputs:
    """pseudo_label_batch and predict_batch check their entropies first."""

    def make_state(self):
        return ThresholdState(n_init=30, p_reject=50.0, tau_k=0.3, tau_u=0.7,
                              batches_seen=1)

    def gate_both(self, ts, p, entropies):
        return [lambda: ts.pseudo_label_batch(p, entropies),
                lambda: ts.predict_batch(p, p, entropies)]

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_entropy_raises(self, bad):
        # unchecked, a NaN compares False with every threshold: [nan, 0.0]
        # gave predictions [2, 1] and labels [-1, 1] without a word
        p = np.array([[0.5, 0.5], [0.0, 1.0]])
        for call in self.gate_both(self.make_state(), p, np.array([bad, 0.0])):
            with pytest.raises(NonFiniteInput):
                call()

    @pytest.mark.parametrize("n_entropies", [1, 3])
    def test_entropy_count_must_match_rows(self, n_entropies):
        p = np.array([[0.5, 0.5], [0.0, 1.0]])
        for call in self.gate_both(self.make_state(), p, np.zeros(n_entropies)):
            with pytest.raises(DimensionMismatch):
                call()

    @pytest.mark.parametrize("shape", [(3, 2), (2, 3)], ids=["rows", "classes"])
    def test_predict_softmax_must_match_likelihoods(self, shape):
        p = np.array([[0.5, 0.5], [0.0, 1.0]])
        with pytest.raises(DimensionMismatch):
            self.make_state().predict_batch(np.full(shape, 0.5), p, np.zeros(2))

    def test_uncalibrated_comes_first(self):
        ts = ThresholdState(n_init=30, p_reject=50.0)
        for call in self.gate_both(ts, np.full((2, 2), 0.5), np.array([np.nan])):
            with pytest.raises(Uncalibrated):
                call()


class TestPredict:
    def make_state(self):
        return ThresholdState(n_init=30, p_reject=50.0, tau_k=0.3, tau_u=0.7,
                              batches_seen=1)

    def test_confident_known_uses_model_argmax(self):
        ts = self.make_state()
        softmax = np.array([0.1, 0.1, 0.7, 0.1])
        p = np.array([0.0, 1.0, 0.0, 0.0])  # mixture entropy 0, argmax differs
        assert predict_one(ts, softmax, p) == 2

    def test_confident_unknown(self):
        ts = self.make_state()
        assert predict_one(ts, np.array([0.9, 0.1, 0.0, 0.0]), np.full(4, 0.25)) == 4

    def test_boundary_entropy_routes_known(self):
        ts = self.make_state()
        assert ts.tau == 0.5
        p = np.array([0.5, 0.5, 0.0, 0.0])  # entropy exactly 0.5 == tau
        assert predict_one(ts, np.array([0.2, 0.3, 0.4, 0.1]), p) == 2

    def test_batch_matches_scalar(self):
        ts = self.make_state()
        rng = np.random.default_rng(7)
        p = rng.dirichlet(np.ones(4), size=30)
        soft = rng.dirichlet(np.ones(4), size=30)
        batch = ts.predict_batch(soft, p, normalized_entropy_rows(p))
        for i in range(30):
            assert batch[i] == reference_predict(ts, soft[i], p[i])


# Entropies in [0, 1], drawn often from a few values so that batches hold
# ties; a batch may also be one value repeated.
entropy_values = st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, 0.25, 0.5, 1.0]))
entropy_batches = st.one_of(
    st.lists(entropy_values, min_size=4, max_size=40),
    st.builds(lambda value, n: [value] * n, entropy_values, st.integers(4, 40)),
)


@st.composite
def calibrated_states(draw):
    """A ThresholdState after a drawn sequence of calibration batches, and
    the tau_k < tau_u check after each call."""
    batches = draw(st.lists(entropy_batches, min_size=1, max_size=6))
    ts = ThresholdState(n_init=draw(st.integers(len(batches), len(batches) + 3)),
                        p_reject=draw(st.floats(0.0, 100.0, exclude_min=True, exclude_max=True)))
    for batch in batches:
        ts.calibrate(np.array(batch))
        assert ts.tau_k < ts.tau_u, (ts, batch)
    return ts


class TestGateProperties:
    @settings(max_examples=150, deadline=None)
    @given(ts=calibrated_states())
    def test_tau_k_below_tau_u_after_every_calibration(self, ts):
        assert ts.tau_k < ts.tau < ts.tau_u

    @settings(max_examples=100, deadline=None)
    @given(ts=calibrated_states(), entropies=st.lists(entropy_values, min_size=1, max_size=30),
           n_classes=st.integers(2, 5))
    def test_pseudo_label_bucket_rises_with_entropy(self, ts, entropies, n_classes):
        entropies = np.sort(np.array(entropies + [ts.tau_k, ts.tau_u]))
        p = np.full((entropies.size, n_classes), 1.0 / n_classes)
        labels = ts.pseudo_label_batch(p, entropies)
        # known 0, discarded 1, unknown 2
        buckets = np.where(labels == DISCARDED, 1, np.where(labels == n_classes, 2, 0))
        assert np.all(np.diff(buckets) >= 0), (ts, entropies, labels)

    @settings(max_examples=100, deadline=None)
    @given(ts=calibrated_states(), data=st.data())
    def test_predict_routes_by_tau(self, ts, data):
        entropies = np.array(data.draw(st.lists(entropy_values, min_size=1, max_size=30))
                             + [ts.tau])
        n_classes = data.draw(st.integers(2, 5))
        softmax = data.draw(arrays(np.float64, (entropies.size, n_classes),
                                   elements=st.floats(0.0, 1.0)))
        p = np.full_like(softmax, 1.0 / n_classes)
        preds = ts.predict_batch(softmax, p, entropies)
        expected = np.where(entropies <= ts.tau, np.argmax(softmax, axis=1), n_classes)
        np.testing.assert_array_equal(preds, expected)
