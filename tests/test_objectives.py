import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.special import logsumexp

from gmmadapt.objectives import _logsumexp, contrastive_loss, kld_loss
from gmmadapt.ood_gate import DISCARDED
from gmmadapt.toy_model import softmax


def reference_contrastive(feats, labels, protos, n_classes, tau, unknown_positive_pairs=False):
    """contrastive_loss as full (2n, 2n) masks over the doubled batch, with
    scipy's logsumexp: every term in the order the loss must keep, so the
    loss and gradient bytes must equal these."""
    feats = np.asarray(feats, dtype=np.float64)
    labels = np.asarray(labels, dtype=int)
    protos = np.asarray(protos, dtype=np.float64)

    def normalize_rows(a):
        norms = np.linalg.norm(a, axis=1)
        safe = np.where(norms > 0.0, norms, 1.0)
        return a / safe[:, None], norms

    participant = labels != DISCARDED
    known = (labels >= 0) & (labels < n_classes)
    eligible = known | (labels == n_classes) if unknown_positive_pairs else known
    same = labels[:, None] == labels[None, :]
    pos = same & eligible[:, None] & eligible[None, :]
    np.fill_diagonal(pos, False)

    n_terms = int(pos.sum()) + int(known.sum())
    grad = np.zeros_like(feats)
    if n_terms == 0:
        return 0.0, grad

    z, norms = normalize_rows(feats)
    sims = (z @ z.T) / tau
    denom_mask = participant[:, None] & participant[None, :]
    np.fill_diagonal(denom_mask, False)
    masked = np.where(denom_mask, sims, -np.inf)
    log_denom = logsumexp(masked, axis=0)
    pos_per_anchor = pos.sum(axis=0).astype(np.float64)
    active = pos_per_anchor > 0
    term1 = float(-(sims * pos).sum() + (pos_per_anchor[active] * log_denom[active]).sum())

    with np.errstate(invalid="ignore"):
        softw = np.where(denom_mask, np.exp(sims - log_denom[None, :]), 0.0)
    coeff = (softw * pos_per_anchor[None, :] - pos) / tau
    grad_z = coeff @ z + coeff.T @ z

    q, _ = normalize_rows(protos)
    present = np.bincount(labels[known], minlength=n_classes).astype(np.float64)
    classes = np.flatnonzero(present)
    term2 = 0.0
    if classes.size > 0:
        proto_sims = (q[classes] @ z.T) / tau
        masked_p = np.where(participant[None, :], proto_sims, -np.inf)
        log_denom_p = logsumexp(masked_p, axis=1)
        counts = present[classes]
        numerator = proto_sims[np.searchsorted(classes, labels[known]), np.flatnonzero(known)]
        term2 = float(-numerator.sum() + (counts * log_denom_p).sum())

        softp = np.where(participant[None, :], np.exp(proto_sims - log_denom_p[:, None]), 0.0)
        grad_z += ((softp * counts[:, None]).T @ q[classes]) / tau
        grad_z[known] -= q[labels[known]] / tau

    loss = (term1 + term2) / n_terms
    grad_z /= n_terms
    inner = np.sum(grad_z * z, axis=1, keepdims=True)
    nonzero = norms > 0.0
    grad[nonzero] = (grad_z[nonzero] - inner[nonzero] * z[nonzero]) / norms[nonzero, None]
    return loss, grad


def assert_same_bytes_as_reference(feats, labels, protos, n_classes, tau, toggle):
    loss, grad = contrastive_loss(feats, labels, protos, n_classes, tau, toggle)
    ref_loss, ref_grad = reference_contrastive(feats, labels, protos, n_classes, tau, toggle)
    assert np.float64(loss).tobytes() == np.float64(ref_loss).tobytes(), (loss, ref_loss)
    assert grad.tobytes() == ref_grad.tobytes(), np.flatnonzero(grad != ref_grad)


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


# Feature entries with exact zeros and repeats, so rows tie, besides a range
# wide enough for tiny and large norms.
FEATURE_ENTRIES = st.one_of(st.sampled_from([0.0, 1.0, -1.0, 0.5]), st.floats(-4.0, 4.0))


@st.composite
def contrastive_instances(draw):
    """(feats, labels, protos, n_classes, tau): 2n in 1..40, dim in 1..8,
    labels from {-1, 0..C-1, C}, one feature row zeroed and one row copied
    to up to three others when drawn so."""
    n2 = draw(st.integers(1, 40))
    dim = draw(st.integers(1, 8))
    n_classes = draw(st.integers(1, 5))
    labels = draw(arrays(np.int64, n2, elements=st.integers(DISCARDED, n_classes)))
    feats = draw(arrays(np.float64, (n2, dim), elements=FEATURE_ENTRIES))
    protos = draw(arrays(np.float64, (n_classes, dim), elements=FEATURE_ENTRIES))
    zero_row = draw(st.integers(0, 40))
    if zero_row < n2:
        feats[zero_row] = 0.0
    copied = draw(st.integers(0, n2 - 1))
    feats[draw(st.lists(st.integers(0, n2 - 1), max_size=3))] = feats[copied]
    tau = draw(st.sampled_from([0.05, 0.1, 0.5, 2.0]))
    return feats, labels, protos, n_classes, tau


def default_shape_instance(seed):
    """A doubled default batch: 64 originals at fd_r 64 and their augmented
    views, 9 known classes, about a third discarded."""
    rng = np.random.default_rng(seed)
    originals = rng.standard_normal((64, 64))
    feats = np.vstack([originals, originals + 0.1 * rng.standard_normal((64, 64))])
    pseudo = rng.choice([DISCARDED, 9, *range(9)], size=64, p=[1 / 3, 1 / 6] + [1 / 18] * 9)
    return feats, np.concatenate([pseudo, pseudo]), rng.standard_normal((9, 64)), 9, 0.1


def edge_case(name):
    rng = np.random.default_rng(4)
    feats = rng.standard_normal((6, 4))
    labels = np.array([0, 0, 1, 3, DISCARDED, 3])
    if name == "all_discarded":
        labels = np.full(6, DISCARDED)
    elif name == "single_known_participant":
        labels = np.array([DISCARDED, 1, DISCARDED, DISCARDED, DISCARDED, DISCARDED])
    elif name == "single_unknown_participant":
        labels = np.array([DISCARDED, DISCARDED, 3, DISCARDED, DISCARDED, DISCARDED])
    elif name == "no_known_sample":
        labels = np.array([3, 3, DISCARDED, 3, DISCARDED, 3])
    elif name == "zero_feature_row":
        feats[1] = 0.0
    elif name == "duplicated_rows":
        feats[[1, 3, 5]] = feats[0]
    elif name == "one_dimension":
        feats = np.array([[1.0], [2.0], [-1.0], [0.5], [3.0], [-2.0]])
    return feats, labels, rng.standard_normal((3, feats.shape[1])), 3, 0.1


class TestReferenceBits:
    """contrastive_loss works on the participants' block; its loss and
    gradient bytes equal the full-mask reference's."""

    @settings(max_examples=300, deadline=None)
    @given(instance=contrastive_instances(), toggle=st.booleans())
    def test_loss_and_grad_bytes_equal_the_reference(self, instance, toggle):
        assert_same_bytes_as_reference(*instance, toggle)

    @pytest.mark.parametrize("toggle", [False, True], ids=["known_pairs", "unknown_pairs"])
    @pytest.mark.parametrize("name", ["all_discarded", "single_known_participant",
                                      "single_unknown_participant", "no_known_sample",
                                      "zero_feature_row", "duplicated_rows", "one_dimension"])
    def test_edge_case(self, name, toggle):
        assert_same_bytes_as_reference(*edge_case(name), toggle)

    def test_tied_maxima_reach_the_denominator(self):
        """In one dimension every similarity is +-1/tau, so the
        denominator's logsumexp splits off more than one maximum."""
        feats, labels, _, _, tau = edge_case("one_dimension")
        z = feats / np.abs(feats)
        masked = np.where(labels[:, None] != DISCARDED, (z @ z.T) / tau, -np.inf)
        np.fill_diagonal(masked, -np.inf)
        assert (masked == masked.max(axis=0)).sum(axis=0).max() > 1

    @pytest.mark.parametrize("toggle", [False, True], ids=["known_pairs", "unknown_pairs"])
    def test_default_shape(self, toggle):
        assert_same_bytes_as_reference(*default_shape_instance(0), toggle)


# Entries with -inf, +inf and NaN (every fallback branch), repeated values
# (ties for the maximum) and magnitudes up to 1e3, where exp over- and
# underflows without the shift.
LSE_ENTRIES = st.one_of(st.sampled_from([-np.inf, np.inf, np.nan]),
                        st.sampled_from([0.0, -1.5, 2.0, 700.0, -700.0]), st.floats(-1e3, 1e3))


class TestLogSumExp:
    @settings(max_examples=300, deadline=None)
    @given(
        a=arrays(np.float64, st.tuples(st.integers(1, 9), st.integers(1, 9)),
                 elements=LSE_ENTRIES),
        dead_col=st.integers(0, 9),
        dead_row=st.integers(0, 9),
    )
    @example(a=np.full((1, 1), -np.inf), dead_col=9, dead_row=9)
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
