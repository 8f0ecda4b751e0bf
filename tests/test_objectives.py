import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.special import logsumexp

from gmmadapt.objectives import _logsumexp, contrastive_loss, kld_loss
from gmmadapt.ood_gate import DISCARDED
from gmmadapt.toy_model import softmax


def brute_force_contrastive(feats, labels, protos, n_classes, tau, unknown_positives=False):
    """Direct per-pair evaluation with explicit loops (the oracle)."""
    def unit(v):
        n = np.linalg.norm(v)
        return v / n if n > 0 else np.zeros_like(v)

    z = [unit(f) for f in np.asarray(feats, dtype=float)]
    q = [unit(p) for p in np.asarray(protos, dtype=float)]
    n2 = len(z)
    participants = [i for i in range(n2) if labels[i] != DISCARDED]
    known = [i for i in range(n2) if 0 <= labels[i] < n_classes]
    eligible = set(known)
    if unknown_positives:
        eligible |= {i for i in range(n2) if labels[i] == n_classes}

    total, n_terms = 0.0, 0
    for i in participants:
        for j in participants:
            if i == j or i not in eligible or j not in eligible:
                continue
            if labels[i] != labels[j]:
                continue
            denom = sum(np.exp(np.dot(z[l], z[i]) / tau) for l in participants if l != i)
            total += -np.log(np.exp(np.dot(z[j], z[i]) / tau) / denom)
            n_terms += 1
    for i in known:
        c = labels[i]
        denom = sum(np.exp(np.dot(q[c], z[l]) / tau) for l in participants)
        total += -np.log(np.exp(np.dot(q[c], z[i]) / tau) / denom)
        n_terms += 1
    return total / n_terms if n_terms else 0.0


def random_instance(rng, n2=10, dim=4, n_classes=3):
    feats = rng.standard_normal((n2, dim))
    pool = list(range(n_classes)) + [n_classes, DISCARDED]
    labels = rng.choice(pool, size=n2)
    labels[0] = 0
    labels[1] = 0  # guarantee at least one positive pair
    protos = rng.standard_normal((n_classes, dim))
    return feats, labels.astype(int), protos


class TestContrastiveLoss:
    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            feats, labels, protos = random_instance(rng)
            for toggle in (False, True):
                loss, _ = contrastive_loss(feats, labels, protos, 3, 0.1,
                                           unknown_positive_pairs=toggle)
                oracle = brute_force_contrastive(feats, labels, protos, 3, 0.1,
                                                 unknown_positives=toggle)
                assert loss == pytest.approx(oracle, rel=1e-10)

    def test_identical_pair_with_matching_prototype(self):
        feats = np.array([[1.0, 0.0], [1.0, 0.0]])
        labels = np.array([0, 0])
        protos = np.array([[1.0, 0.0]])
        loss, _ = contrastive_loss(feats, labels, protos, 1, 0.1)
        oracle = brute_force_contrastive(feats, labels, protos, 1, 0.1)
        assert loss == pytest.approx(oracle, rel=1e-12)

    def test_no_known_samples_zero_loss_zero_grad(self):
        feats = np.random.default_rng(1).standard_normal((6, 3))
        labels = np.array([3, 3, DISCARDED, 3, DISCARDED, 3])
        loss, grad = contrastive_loss(feats, labels, np.zeros((3, 3)), 3, 0.1)
        assert loss == 0.0
        assert not np.any(grad)

    def test_high_temperature_limit_log_denominator_count(self):
        # orthogonal one-hot features, different known classes, tau -> inf:
        # only prototype terms remain, each tending to log(#participants)
        feats = np.array([[1.0, 0.0], [0.0, 1.0]])
        labels = np.array([0, 1])
        protos = np.array([[1.0, 0.0], [0.0, 1.0]])
        loss, _ = contrastive_loss(feats, labels, protos, 2, temperature=1e3)
        assert loss == pytest.approx(np.log(2), rel=1e-2)

    def test_scale_invariance_of_raw_features(self):
        rng = np.random.default_rng(5)
        feats, labels, protos = random_instance(rng)
        base, _ = contrastive_loss(feats, labels, protos, 3, 0.1)
        for c in (1e-3, 7.0, 1e4):
            scaled, _ = contrastive_loss(c * feats, labels, protos, 3, 0.1)
            assert scaled == pytest.approx(base, abs=1e-9)

    def test_gradient_finite_differences(self):
        rng = np.random.default_rng(3)
        h = 1e-5
        for _ in range(5):
            feats, labels, protos = random_instance(rng, n2=8, dim=3)
            _, grad = contrastive_loss(feats, labels, protos, 3, 0.1)
            num = np.zeros_like(feats)
            for i in range(feats.shape[0]):
                for d in range(feats.shape[1]):
                    up, down = feats.copy(), feats.copy()
                    up[i, d] += h
                    down[i, d] -= h
                    lu, _ = contrastive_loss(up, labels, protos, 3, 0.1)
                    ld, _ = contrastive_loss(down, labels, protos, 3, 0.1)
                    num[i, d] = (lu - ld) / (2 * h)
            assert np.linalg.norm(grad - num) / max(np.linalg.norm(num), 1e-12) < 1e-4

    def test_read_only_prototypes_accepted_and_untouched(self):
        # the runner passes the mixture's live means array
        rng = np.random.default_rng(9)
        feats, labels, protos = random_instance(rng)
        frozen = protos.copy()
        frozen.flags.writeable = False
        loss, grad = contrastive_loss(feats, labels, frozen, 3, 0.1)
        expected_loss, expected_grad = contrastive_loss(feats, labels, protos.copy(), 3, 0.1)
        assert loss == expected_loss
        np.testing.assert_array_equal(grad, expected_grad)
        np.testing.assert_array_equal(frozen, protos)

    def test_no_gradient_to_discarded_features(self):
        rng = np.random.default_rng(8)
        feats, labels, protos = random_instance(rng)
        labels[4] = DISCARDED
        _, grad = contrastive_loss(feats, labels, protos, 3, 0.1)
        assert not np.any(grad[4])


# Entries with -inf, repeated values (ties for the maximum) and magnitudes
# up to 1e3, where exp over- and underflows without the shift.
LSE_ENTRIES = st.one_of(st.just(-np.inf), st.sampled_from([0.0, -1.5, 2.0, 700.0, -700.0]),
                        st.floats(-1e3, 1e3))


class TestLogSumExp:
    @settings(max_examples=300, deadline=None)
    @given(
        a=arrays(np.float64, st.tuples(st.integers(1, 9), st.integers(1, 9)),
                 elements=LSE_ENTRIES),
        dead_col=st.integers(0, 9),
        dead_row=st.integers(0, 9),
    )
    def test_equals_scipy_bit_for_bit(self, a, dead_col, dead_row):
        """Both axes, with a column and a row made entirely -inf when they exist."""
        if dead_col < a.shape[1]:
            a[:, dead_col] = -np.inf
        if dead_row < a.shape[0]:
            a[dead_row] = -np.inf
        for axis in (0, 1):
            ours, ref = _logsumexp(a, axis=axis), logsumexp(a, axis=axis)
            assert ours.shape == ref.shape
            assert ours.tobytes() == ref.tobytes(), (axis, ours, ref)


class TestKldLoss:
    def test_uniform_unknown_contributes_zero(self):
        probs = np.full((1, 4), 0.25)
        loss, grad = kld_loss(probs, np.array([4]), 4)
        assert loss == pytest.approx(0.0, abs=1e-15)
        np.testing.assert_allclose(grad, 0.0, atol=1e-15)

    def test_unknown_sample_direct_value(self):
        probs = np.array([[0.7, 0.1, 0.1, 0.1]])
        loss, _ = kld_loss(probs, np.array([4]), 4)
        # oracle: sum_c u log(u / q_c)
        oracle = sum(0.25 * np.log(0.25 / q) for q in probs[0])
        assert oracle == pytest.approx(0.429813, abs=1e-6)
        assert loss == pytest.approx(oracle, rel=1e-12)

    def test_known_sample_sign_flip(self):
        probs = np.array([[0.7, 0.1, 0.1, 0.1]])
        loss, _ = kld_loss(probs, np.array([0]), 4)
        assert loss == pytest.approx(-0.429813, abs=1e-6)

    def test_all_discarded_exactly_zero(self):
        rng = np.random.default_rng(2)
        probs = rng.dirichlet(np.ones(4), size=6)
        loss, grad = kld_loss(probs, np.full(6, DISCARDED), 4)
        assert loss == 0.0
        assert not np.any(grad)

    def test_gradient_finite_differences_through_softmax(self):
        rng = np.random.default_rng(4)
        h = 1e-5
        for _ in range(5):
            logits = rng.standard_normal((5, 4)) * 2
            labels = rng.choice([0, 1, 2, 3, 4, DISCARDED], size=5)

            def loss_at(z):
                return kld_loss(softmax(z), labels, 4)[0]

            _, grad = kld_loss(softmax(logits), labels, 4)
            num = np.zeros_like(logits)
            for i in range(5):
                for j in range(4):
                    up, down = logits.copy(), logits.copy()
                    up[i, j] += h
                    down[i, j] -= h
                    num[i, j] = (loss_at(up) - loss_at(down)) / (2 * h)
            assert np.linalg.norm(grad - num) / max(np.linalg.norm(num), 1e-12) < 1e-4

    def test_unknown_branch_drives_entropy_up(self):
        logits = np.array([[2.0, 0.0, -1.0, 0.5]])
        labels = np.array([4])
        entropies = []
        z = logits.copy()
        for _ in range(100):
            probs = softmax(z)
            entropies.append(float(-(probs * np.log(probs)).sum()))
            _, grad = kld_loss(probs, labels, 4)
            z = z - 0.1 * grad
        assert all(b > a for a, b in zip(entropies, entropies[1:]))

    def test_known_branch_drives_entropy_down(self):
        logits = np.array([[0.5, 0.2, -0.1, 0.0]])
        labels = np.array([0])
        entropies = []
        z = logits.copy()
        for _ in range(100):
            probs = softmax(z)
            entropies.append(float(-(probs * np.log(probs)).sum()))
            _, grad = kld_loss(probs, labels, 4)
            z = z - 0.1 * grad
        assert all(b < a for a, b in zip(entropies, entropies[1:]))
