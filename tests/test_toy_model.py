import io
import json
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gmmadapt.errors import DimensionMismatch, MalformedFile, NonFiniteGradient
from gmmadapt.toy_model import (
    PARAM_NAMES,
    OptimizerConfig,
    ToyModel,
    accuracy,
    augment,
    cross_entropy_loss,
    softmax,
    train_source,
)


def flatten_params(model):
    return np.concatenate([model.params[k].ravel() for k in sorted(model.params)])


class TestForward:
    def test_zero_weights_uniform_softmax(self):
        model = ToyModel(d_in=3, fd=4, fd_r=2, n_classes=5, seed=0)
        for k in model.params:
            model.params[k][:] = 0.0
        cache = model.forward(np.array([1.0, -2.0, 3.0]))
        np.testing.assert_allclose(cache.probs[0], np.full(5, 0.2), atol=1e-15)

    def test_huge_logit_saturates(self):
        model = ToyModel(d_in=2, fd=3, fd_r=2, n_classes=3, seed=0)
        for k in model.params:
            model.params[k][:] = 0.0
        model.params["b_h"][1] = 50.0
        cache = model.forward(np.zeros(2))
        assert cache.probs[0, 1] > 1.0 - 1e-12

    def test_golden_seed42_regression(self):
        # frozen from the first correct run; recomputed here from raw params
        model = ToyModel(d_in=3, fd=4, fd_r=2, n_classes=3, seed=42)
        x = np.array([0.5, -1.0, 2.0])
        cache = model.forward(x)

        p = model.params
        hidden = np.tanh(np.einsum("ij,j->i", p["W_g"], x) + p["b_g"])
        reduced = np.einsum("ij,j->i", p["W_r"], hidden) + p["b_r"]
        logits = np.einsum("ij,j->i", p["W_h"], hidden) + p["b_h"]
        exp = np.exp(logits - logits.max())
        np.testing.assert_allclose(cache.hidden[0], hidden, rtol=1e-12)
        np.testing.assert_allclose(cache.reduced[0], reduced, rtol=1e-12)
        np.testing.assert_allclose(cache.probs[0], exp / exp.sum(), rtol=1e-12)

        golden_probs = [0.17614180382989272, 0.6007286209845963, 0.2231295751855109]
        golden_reduced = [-0.2737285193452951, -0.34752150128691917]
        np.testing.assert_allclose(cache.probs[0], golden_probs, rtol=1e-12)
        np.testing.assert_allclose(cache.reduced[0], golden_reduced, rtol=1e-12)

    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(2)
        model = ToyModel(d_in=6, fd=10, fd_r=3, n_classes=4, seed=3)
        cache = model.forward(rng.standard_normal((50, 6)) * 5)
        np.testing.assert_allclose(cache.probs.sum(axis=1), 1.0, atol=1e-6)

    def test_dimension_check(self):
        model = ToyModel(d_in=3, fd=4, fd_r=2, n_classes=2, seed=0)
        with pytest.raises(DimensionMismatch):
            model.forward(np.zeros((2, 4)))

    def test_one_head_gives_the_bytes_of_the_full_pass(self):
        model = ToyModel(d_in=20, fd=256, fd_r=64, n_classes=9, seed=3)
        x = np.random.default_rng(4).standard_normal((64, 20))
        full = model.forward(x)
        reduction = model.forward(x, classifier=False)
        classifier = model.forward(x, reduction=False)
        assert reduction.reduced.tobytes() == full.reduced.tobytes()
        assert reduction.probs is None
        assert classifier.reduced is None
        assert classifier.probs.tobytes() == full.probs.tobytes()


class TestBackward:
    def test_zero_upstream_zero_grads(self):
        model = ToyModel(d_in=3, fd=4, fd_r=2, n_classes=3, seed=1)
        cache = model.forward(np.zeros((2, 3)))
        grads = model.backward(cache, d_reduced=np.zeros((2, 2)),
                               d_logits=np.zeros((2, 3)))
        for g in grads.values():
            assert not np.any(g)

    def test_finite_difference_probe(self):
        # central differences on every parameter, h = 1e-5
        rng = np.random.default_rng(5)
        model = ToyModel(d_in=4, fd=5, fd_r=3, n_classes=3, seed=7)
        x = rng.standard_normal((1, 4))
        y = np.array([1])

        def loss_fn(m):
            cache = m.forward(x)
            loss, _ = cross_entropy_loss(cache.probs, y)
            return loss

        cache = model.forward(x)
        _, d_logits = cross_entropy_loss(cache.probs, y)
        grads = model.backward(cache, d_logits=d_logits)
        h = 1e-5
        for name in model.params:
            g = model.params[name]
            num = np.zeros_like(g)
            it = np.nditer(g, flags=["multi_index"])
            while not it.finished:
                idx = it.multi_index
                old = g[idx]
                g[idx] = old + h
                up = loss_fn(model)
                g[idx] = old - h
                down = loss_fn(model)
                g[idx] = old
                num[idx] = (up - down) / (2 * h)
                it.iternext()
            denom = max(np.linalg.norm(num), 1e-12)
            # a parameter the loss does not reach has no entry: its gradient is zero
            analytic = grads.get(name, np.zeros_like(g))
            assert np.linalg.norm(analytic - num) / denom < 1e-4

    def test_gradients_only_where_the_upstream_reaches(self):
        rng = np.random.default_rng(8)
        model = ToyModel(d_in=3, fd=4, fd_r=2, n_classes=3, seed=1)
        cache = model.forward(rng.standard_normal((2, 3)))
        d_red, d_log = rng.standard_normal((2, 2)), rng.standard_normal((2, 3))
        assert model.backward(cache) == {}
        assert set(model.backward(cache, d_reduced=d_red)) == {"W_g", "b_g", "W_r", "b_r"}
        assert set(model.backward(cache, d_logits=d_log)) == {"W_g", "b_g", "W_h", "b_h"}
        assert set(model.backward(cache, d_reduced=d_red, d_logits=d_log)) == set(PARAM_NAMES)

    def test_upstream_for_a_skipped_head_rejected(self):
        model = ToyModel(d_in=3, fd=4, fd_r=2, n_classes=3, seed=1)
        with pytest.raises(DimensionMismatch, match="d_logits"):
            model.backward(model.forward(np.zeros((2, 3)), classifier=False),
                           d_logits=np.zeros((2, 3)))
        with pytest.raises(DimensionMismatch, match="d_reduced"):
            model.backward(model.forward(np.zeros((2, 3)), reduction=False),
                           d_reduced=np.zeros((2, 2)))

    def test_duplicated_sample_doubles_gradient(self):
        rng = np.random.default_rng(9)
        model = ToyModel(d_in=3, fd=4, fd_r=2, n_classes=3, seed=2)
        x = rng.standard_normal((1, 3))
        d_red = rng.standard_normal((1, 2))
        d_log = rng.standard_normal((1, 3))
        single = model.backward(model.forward(x), d_reduced=d_red, d_logits=d_log)
        doubled = model.backward(
            model.forward(np.vstack([x, x])),
            d_reduced=np.vstack([d_red, d_red]),
            d_logits=np.vstack([d_log, d_log]),
        )
        for k in single:
            np.testing.assert_allclose(doubled[k], 2.0 * single[k], rtol=1e-12)


class TestSgdStep:
    def test_vanilla_step(self):
        model = ToyModel(d_in=1, fd=1, fd_r=1, n_classes=2, seed=0)
        model.params["b_r"][:] = 0.0
        grads = {k: np.zeros_like(v) for k, v in model.params.items()}
        grads["b_r"][:] = 1.0
        model.sgd_step(grads, OptimizerConfig(learning_rate=0.1, momentum=0.0))
        assert model.params["b_r"][0] == pytest.approx(-0.1)

    def test_momentum_two_steps(self):
        model = ToyModel(d_in=1, fd=1, fd_r=1, n_classes=2, seed=0)
        model.params["b_r"][:] = 0.0
        grads = {k: np.zeros_like(v) for k, v in model.params.items()}
        grads["b_r"][:] = 1.0
        cfg = OptimizerConfig(learning_rate=0.1, momentum=0.9)
        model.sgd_step(grads, cfg)
        model.sgd_step(grads, cfg)
        assert model.params["b_r"][0] == pytest.approx(-0.29)

    def test_zero_grads_decay_buffers_only(self):
        model = ToyModel(d_in=2, fd=2, fd_r=2, n_classes=2, seed=1)
        cfg = OptimizerConfig(learning_rate=0.1, momentum=0.9)
        grads = {k: np.ones_like(v) for k, v in model.params.items()}
        model.sgd_step(grads, cfg)
        params_after = {k: v.copy() for k, v in model.params.items()}
        vel_after = {k: v.copy() for k, v in model.velocity.items()}
        zero = {k: np.zeros_like(v) for k, v in model.params.items()}
        model.sgd_step(zero, cfg)
        for k in model.params:
            np.testing.assert_allclose(
                model.params[k], params_after[k] - 0.1 * 0.9 * vel_after[k], rtol=1e-12
            )
            np.testing.assert_allclose(model.velocity[k], 0.9 * vel_after[k], rtol=1e-12)

    def test_missing_gradient_is_an_explicit_zero_bit_for_bit(self):
        rng = np.random.default_rng(12)
        cfg = OptimizerConfig(learning_rate=0.07, momentum=0.9)
        model = ToyModel(d_in=3, fd=5, fd_r=2, n_classes=4, seed=6)
        model.sgd_step({k: rng.standard_normal(v.shape) for k, v in model.params.items()}, cfg)
        grads = {k: rng.standard_normal(v.shape) for k, v in model.params.items()
                 if k not in ("W_r", "b_h")}
        missing, explicit = model.copy(), model.copy()
        missing.sgd_step(grads, cfg)
        explicit.sgd_step(dict(grads, W_r=np.zeros_like(model.params["W_r"]),
                               b_h=np.zeros_like(model.params["b_h"])), cfg)
        for k in PARAM_NAMES:
            assert missing.params[k].tobytes() == explicit.params[k].tobytes()
            assert missing.velocity[k].tobytes() == explicit.velocity[k].tobytes()
        # the velocity was not zero, so the skipped parameters still moved
        assert not np.array_equal(missing.params["W_r"], model.params["W_r"])

    def test_non_finite_gradient_rejected(self):
        model = ToyModel(d_in=1, fd=1, fd_r=1, n_classes=2, seed=0)
        grads = {k: np.zeros_like(v) for k, v in model.params.items()}
        grads["W_g"][0, 0] = np.nan
        with pytest.raises(NonFiniteGradient):
            model.sgd_step(grads, OptimizerConfig(0.1, 0.0))

    def test_non_finite_gradient_leaves_model_unchanged(self):
        model = ToyModel(d_in=2, fd=3, fd_r=2, n_classes=3, seed=4)
        cfg = OptimizerConfig(learning_rate=0.1, momentum=0.9)
        model.sgd_step({k: np.ones_like(v) for k, v in model.params.items()}, cfg)
        before = model.copy()
        grads = {k: np.ones_like(v) for k, v in model.params.items()}
        grads["b_h"][-1] = np.nan  # b_h is checked last
        with pytest.raises(NonFiniteGradient, match="b_h"):
            model.sgd_step(grads, cfg)
        for k in PARAM_NAMES:
            assert model.params[k].tobytes() == before.params[k].tobytes()
            assert model.velocity[k].tobytes() == before.velocity[k].tobytes()


class TestTrainSource:
    def test_separable_blobs_high_accuracy(self):
        rng = np.random.default_rng(0)
        n = 200
        x0 = rng.standard_normal((n, 2)) + np.array([4.0, 0.0])
        x1 = rng.standard_normal((n, 2)) + np.array([-4.0, 0.0])
        x = np.vstack([x0, x1])
        y = np.array([0] * n + [1] * n)
        model = ToyModel(d_in=2, fd=8, fd_r=2, n_classes=2, seed=0)
        train_source(model, x, y, epochs=50, cfg=OptimizerConfig(0.05, 0.9), seed=0)
        assert accuracy(model, x, y) >= 0.99

    def test_zero_epochs_leaves_model_unchanged(self):
        model = ToyModel(d_in=2, fd=3, fd_r=2, n_classes=2, seed=4)
        before = flatten_params(model)
        history = train_source(model, np.zeros((4, 2)), np.zeros(4, dtype=int),
                               epochs=0, cfg=OptimizerConfig(0.1, 0.9), seed=0)
        assert history == []
        np.testing.assert_array_equal(flatten_params(model), before)

    def test_loss_strictly_decreases_first_five_epochs_default_task(self):
        from gmmadapt.config import default_config
        from gmmadapt.runner import build_task, derive_seeds

        cfg = default_config()
        source, _ = build_task(cfg)
        seeds = derive_seeds(cfg.seed)
        model = ToyModel(cfg.domain.d_in, cfg.fd, cfg.fd_r,
                         cfg.shift.n_source_classes, seed=seeds["model"])
        history = train_source(model, source.x_train, source.y_train, epochs=5,
                               cfg=OptimizerConfig(cfg.source_lr, cfg.momentum),
                               batch_size=cfg.n_b, seed=seeds["source_train"])
        assert all(b < a for a, b in zip(history, history[1:]))

    def test_default_config_holdout_accuracy(self):
        from gmmadapt.config import default_config
        from gmmadapt.runner import build_task, train_source_model

        cfg = default_config()
        source, _ = build_task(cfg)
        _, holdout_acc, _ = train_source_model(cfg, source)
        assert holdout_acc >= 0.9

    def test_fixed_seed_bit_identical_trajectories(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((64, 3))
        y = rng.integers(0, 3, size=64)

        def run():
            model = ToyModel(d_in=3, fd=6, fd_r=2, n_classes=3, seed=11)
            train_source(model, x, y, epochs=3, cfg=OptimizerConfig(0.05, 0.9), seed=5)
            return flatten_params(model)

        np.testing.assert_array_equal(run(), run())

    def test_label_range_validated(self):
        model = ToyModel(d_in=2, fd=3, fd_r=2, n_classes=2, seed=0)
        with pytest.raises(ValueError):
            train_source(model, np.zeros((2, 2)), np.array([0, 5]),
                         epochs=1, cfg=OptimizerConfig(0.1, 0.9))


def two_head_train_source(model, x, y, epochs, cfg, batch_size, seed):
    """Reference source training as it ran before the heads were chosen per
    pass: both heads forward, six gradients (zero for W_r and b_r), six
    momentum updates."""
    p, vel = model.params, model.velocity
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    history = []
    for _ in range(epochs):
        order = rng.permutation(x.shape[0])
        losses = []
        for start in range(0, x.shape[0], batch_size):
            idx = order[start:start + batch_size]
            xb = x[idx]
            hidden = np.tanh(xb @ p["W_g"].T + p["b_g"])
            _reduced = hidden @ p["W_r"].T + p["b_r"]
            logits = hidden @ p["W_h"].T + p["b_h"]
            loss, d_logits = cross_entropy_loss(softmax(logits), y[idx])
            grads = {k: np.zeros_like(v) for k, v in p.items()}
            d_hidden = np.zeros_like(hidden)
            grads["W_h"] = d_logits.T @ hidden
            grads["b_h"] = d_logits.sum(axis=0)
            d_hidden += d_logits @ p["W_h"]
            d_pre = d_hidden * (1.0 - hidden ** 2)
            grads["W_g"] = d_pre.T @ xb
            grads["b_g"] = d_pre.sum(axis=0)
            for name in PARAM_NAMES:
                assert np.all(np.isfinite(grads[name]))
                v = vel[name]
                v *= cfg.momentum
                v += grads[name]
                p[name] -= cfg.learning_rate * v
            losses.append(loss)
        history.append(float(np.mean(losses)))
    return history


def default_source_problem():
    from gmmadapt.config import default_config
    from gmmadapt.runner import build_task, derive_seeds

    cfg = default_config()
    source, _ = build_task(cfg)
    seeds = derive_seeds(cfg.seed)
    model = ToyModel(cfg.domain.d_in, cfg.fd, cfg.fd_r, cfg.shift.n_source_classes,
                     seed=seeds["model"])
    return (model, source.x_train, source.y_train, cfg.source_epochs,
            OptimizerConfig(cfg.source_lr, cfg.momentum), cfg.n_b, seeds["source_train"])


def small_source_problem():
    # 150 samples in batches of 32 leave a short last batch
    rng = np.random.default_rng(21)
    model = ToyModel(d_in=5, fd=7, fd_r=3, n_classes=4, seed=22)
    return (model, rng.standard_normal((150, 5)), rng.integers(0, 4, size=150), 4,
            OptimizerConfig(0.05, 0.5), 32, 23)


@pytest.mark.parametrize("problem", [default_source_problem, small_source_problem],
                         ids=["default", "small"])
def test_train_source_matches_two_head_reference(problem):
    model, *args = problem()
    initial = model.copy()
    reference = model.copy()
    history = train_source(model, *args)
    assert history == two_head_train_source(reference, *args)
    for k in PARAM_NAMES:
        assert model.params[k].tobytes() == reference.params[k].tobytes(), k
        assert model.velocity[k].tobytes() == reference.velocity[k].tobytes(), k
    for k in ("W_r", "b_r"):
        assert model.params[k].tobytes() == initial.params[k].tobytes()
        assert model.velocity[k].tobytes() == np.zeros_like(model.velocity[k]).tobytes()


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        model = ToyModel(d_in=3, fd=4, fd_r=2, n_classes=3, seed=13)
        grads = {k: np.full_like(v, 0.1) for k, v in model.params.items()}
        model.sgd_step(grads, OptimizerConfig(0.05, 0.9))
        path = tmp_path / "model.ckpt"
        model.save(path)
        restored = ToyModel.load(path)
        assert restored.seed == model.seed
        for k in model.params:
            np.testing.assert_array_equal(restored.params[k], model.params[k])
            np.testing.assert_array_equal(restored.velocity[k], model.velocity[k])

    @pytest.mark.parametrize("name", ["param_b_g", "vel_b_g", "param_W_r", "vel_W_h"])
    def test_tampered_array_shape_rejected(self, tmp_path, name):
        path = tmp_path / "model.ckpt"
        ToyModel(d_in=3, fd=4, fd_r=2, n_classes=3, seed=13).save(path)
        with np.load(path) as data:
            arrays = {k: data[k] for k in data.files}
        arrays[name] = arrays[name].ravel()[:1]
        with open(path, "wb") as fh:
            np.savez(fh, **arrays)
        with pytest.raises(DimensionMismatch, match=name):
            ToyModel.load(path)


    @pytest.mark.parametrize("damage", [
        lambda raw, arrays: raw[:3000],
        lambda raw, arrays: b"",
        lambda raw, arrays: b"not a checkpoint",
        lambda raw, arrays: _npz_bytes({k: v for k, v in arrays.items() if k != "meta"}),
        lambda raw, arrays: _npz_bytes({k: v for k, v in arrays.items() if k != "vel_W_g"}),
        lambda raw, arrays: _npz_bytes(dict(arrays, meta=np.array("{}"))),
    ], ids=["truncated", "empty", "text", "no_meta", "no_array", "meta_without_keys"])
    def test_unreadable_checkpoint_is_malformed(self, tmp_path, damage):
        path = tmp_path / "model.ckpt"
        ToyModel(d_in=3, fd=4, fd_r=2, n_classes=3, seed=13).save(path)
        with np.load(path) as data:
            arrays = {k: data[k] for k in data.files}
        path.write_bytes(damage(path.read_bytes(), arrays))
        with pytest.raises(MalformedFile, match="model.ckpt is not a model checkpoint"):
            ToyModel.load(path)

    @pytest.mark.parametrize("edit,message", [
        (lambda meta: meta.update(d_in=None), "meta d_in must be int, got None"),
        (lambda meta: meta.update(d_in="20"), "meta d_in must be int, got '20'"),
        (lambda meta: meta.update(fd=2.5), "meta fd must be int, got 2.5"),
        (lambda meta: meta.update(n_classes=0), "meta n_classes must be >= 1, got 0"),
        (lambda meta: meta.update(seed=-1), "meta seed must be >= 0, got -1"),
    ], ids=["d_in_null", "d_in_str", "fd_float", "n_classes_zero", "seed_negative"])
    def test_bad_metadata_is_malformed(self, tmp_path, edit, message):
        path = tmp_path / "model.ckpt"
        ToyModel(d_in=3, fd=4, fd_r=2, n_classes=3, seed=13).save(path)
        with np.load(path) as data:
            arrays = {k: data[k] for k in data.files}
        meta = json.loads(str(arrays["meta"]))
        edit(meta)
        arrays["meta"] = np.array(json.dumps(meta))
        path.write_bytes(_npz_bytes(arrays))
        with pytest.raises(MalformedFile, match=re.escape(f"{path} is not a model checkpoint: "
                                                          f"{message}") + "$"):
            ToyModel.load(path)

    def test_oversized_metadata_rejected_before_allocating(self, tmp_path):
        # the file holds the arrays of d_in 3; its metadata claims 2,000,000
        path = tmp_path / "model.ckpt"
        ToyModel(d_in=3, fd=4, fd_r=2, n_classes=3, seed=13).save(path)
        with np.load(path) as data:
            arrays = {k: data[k] for k in data.files}
        meta = json.loads(str(arrays["meta"]))
        arrays["meta"] = np.array(json.dumps(dict(meta, d_in=2_000_000)))
        path.write_bytes(_npz_bytes(arrays))
        tracemalloc.start()
        try:
            with pytest.raises(DimensionMismatch, match="param_W_g"):
                ToyModel.load(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    @pytest.mark.parametrize("name,dtype", [
        ("param_W_g", np.int64), ("vel_b_h", "<U3"), ("param_b_r", ">f8"), ("vel_W_r", np.float32),
    ], ids=["int_param", "str_velocity", "big_endian_param", "float32_velocity"])
    def test_non_float64_array_is_malformed(self, tmp_path, name, dtype):
        # the model computes in native float64; an int or string array would
        # otherwise load and fail only at the first sgd_step
        path = tmp_path / "model.ckpt"
        ToyModel(d_in=3, fd=4, fd_r=2, n_classes=3, seed=13).save(path)
        with np.load(path) as data:
            arrays = {k: data[k] for k in data.files}
        arrays[name] = arrays[name].astype(dtype)
        path.write_bytes(_npz_bytes(arrays))
        with pytest.raises(MalformedFile, match=re.escape(
                f"{path} is not a model checkpoint: array {name} has dtype "
                f"{np.dtype(dtype)}, expected float64") + "$"):
            ToyModel.load(path)

    def test_unknown_version_is_malformed(self, tmp_path):
        path = tmp_path / "model.ckpt"
        ToyModel(d_in=3, fd=4, fd_r=2, n_classes=3, seed=13).save(path)
        with np.load(path) as data:
            arrays = {k: data[k] for k in data.files}
        meta = json.loads(str(arrays["meta"]))
        arrays["meta"] = np.array(json.dumps(dict(meta, format_version=99)))
        path.write_bytes(_npz_bytes(arrays))
        with pytest.raises(MalformedFile, match="unsupported checkpoint version 99"):
            ToyModel.load(path)

    def test_copy_is_independent(self):
        model = ToyModel(d_in=3, fd=4, fd_r=2, n_classes=3, seed=13)
        dup = model.copy()
        assert (dup.d_in, dup.fd, dup.fd_r, dup.n_classes, dup.seed) == (3, 4, 2, 3, 13)
        grads = {k: np.full_like(v, 0.1) for k, v in model.params.items()}
        dup.sgd_step(grads, OptimizerConfig(0.05, 0.9))
        for k in model.params:
            assert not np.array_equal(dup.params[k], model.params[k])
            assert not np.any(model.velocity[k])


@settings(max_examples=25, deadline=None)
@given(dims=st.tuples(*[st.integers(1, 6)] * 4), seed=st.integers(0, 2**32 - 1),
       steps=st.integers(0, 2))
def test_checkpoint_round_trip_is_exact(tmp_path_factory, dims, seed, steps):
    model = ToyModel(*dims, seed=seed)
    rng = np.random.default_rng(seed)
    for _ in range(steps):
        grads = {k: rng.standard_normal(v.shape) for k, v in model.params.items()}
        model.sgd_step(grads, OptimizerConfig(0.1, 0.9))
    path = tmp_path_factory.mktemp("ckpt") / "model.ckpt"
    model.save(path)
    back = ToyModel.load(path)
    assert vars(back).keys() == vars(model).keys()
    assert (back.d_in, back.fd, back.fd_r, back.n_classes, back.seed) == (*dims, seed)
    for store in ("params", "velocity"):
        for k in PARAM_NAMES:
            a, b = getattr(model, store)[k], getattr(back, store)[k]
            assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), (store, k)


def _npz_bytes(arrays):
    buf = io.BytesIO()
    np.savez(buf, **arrays)
    return buf.getvalue()


class TestAugment:
    def test_default_sigma_tracks_batch_std(self):
        rng = np.random.default_rng(3)
        x = 5.0 * rng.standard_normal((2000, 8))
        noisy = augment(x, np.random.default_rng(0))
        residual = noisy - x
        assert residual.std() == pytest.approx(0.1 * x.std(), rel=0.05)

    def test_explicit_sigma_and_determinism(self):
        x = np.zeros((10, 4))
        a = augment(x, np.random.default_rng(7), sigma=0.5)
        b = augment(x, np.random.default_rng(7), sigma=0.5)
        np.testing.assert_array_equal(a, b)
        assert a.std() == pytest.approx(0.5, rel=0.2)
