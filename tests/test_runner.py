"""Set-up sharing in run_sweep: setup_key names exactly the inputs of the
task and the source model, and a sweep builds each distinct set-up once.
A config edited in place is checked where a run uses it."""
import copy
import functools
import hashlib

import numpy as np
import pytest

from gmmadapt import runner
from gmmadapt.config import config_keys, load_config
from gmmadapt.errors import ConfigError, GmmAdaptError

TINY = {
    "seed": 5,
    "shift": {"kind": "OPDA", "n_shared": 2, "n_source_private": 1, "n_target_private": 1},
    "domain": {"d_in": 4, "class_sep": 5.0, "rotation_seed": 2, "rotation_strength": 1.0,
               "translation_scale": 1.0, "noise_sigma_source": 1.0, "noise_sigma_target": 1.3},
    "fd": 12, "fd_r": 4, "n_b": 8, "n_batches": 4, "n_init": 2,
    "source_epochs": 1, "n_source_train": 60, "n_source_holdout": 20,
}


def perturbed(path, typ, value):
    """A valid config document with the key at path moved off its TINY value."""
    doc = copy.deepcopy(TINY)
    if path == ("shift", "kind"):
        # no other kind is valid with these counts; PDA drops the target-private class
        doc["shift"].update(kind="PDA", n_target_private=0)
        return doc
    if typ is bool:
        new = not value
    elif typ is int:
        new = value + 1
    elif typ is float:
        new = 0.5 if value is None else value * 0.5
    else:
        new = {"loss_mode": "kld_only"}[path[-1]]
    owner = doc
    for key in path[:-1]:
        owner = owner.setdefault(key, {})
    owner[path[-1]] = new
    return doc


def setup_digest(cfg) -> str:
    setup = runner.prepare_setup(cfg)
    h = hashlib.sha256()
    for batch in setup.stream:
        h.update(batch.inputs.tobytes() + batch.true_labels.tobytes())
    for name in sorted(setup.model.params):
        h.update(setup.model.params[name].tobytes() + setup.model.velocity[name].tobytes())
    h.update(repr(setup.holdout_acc).encode())
    return h.hexdigest()


class TestSetupKey:
    def test_key_changes_exactly_when_setup_bytes_change(self):
        base = load_config(None, TINY)
        base_key, base_digest = runner.setup_key(base), setup_digest(base)
        values = base.to_dict()
        inside = []
        for path, typ in config_keys():
            value = functools.reduce(dict.__getitem__, path, values)
            cfg = load_config(None, perturbed(path, typ, value))
            key_moved = runner.setup_key(cfg) != base_key
            assert key_moved == (setup_digest(cfg) != base_digest), path
            if key_moved:
                inside.append(path[0])
        assert sorted(set(inside)) == sorted(runner.SETUP_KEYS)


class TestSweepParameters:
    def test_sweepable_set_pinned(self, tmp_path):
        # every top-level int or float key but seed, by key
        sweepable = ["augment_sigma", "fd", "fd_r", "jitter", "lambda", "lr", "momentum",
                     "n_b", "n_batches", "n_init", "n_source_holdout", "n_source_train",
                     "p_reject", "source_epochs", "source_lr", "temperature"]
        with pytest.raises(GmmAdaptError) as info:
            runner.run_sweep(load_config(None, TINY), "nope", [1], 1, tmp_path / "s")
        assert str(info.value) == f"unknown sweep parameter 'nope'; choose from {sweepable}"

    def test_repeated_values_rejected_before_any_cell(self, tmp_path):
        with pytest.raises(GmmAdaptError, match=r"^sweep values repeat: \[0\.1\]$"):
            runner.run_sweep(load_config(None, TINY), "temperature", [0.1, 0.1], 1, tmp_path / "s")
        assert not (tmp_path / "s").exists()


def counting(monkeypatch, name):
    calls = []
    fn = getattr(runner, name)

    def counted(*args, **kwargs):
        calls.append(args[0].seed)
        return fn(*args, **kwargs)

    monkeypatch.setattr(runner, name, counted)
    return calls


class TestSweepSetups:
    @pytest.mark.parametrize("parameter,values,n_setups", [
        ("p_reject", [40.0, 60.5], 2),
        ("fd_r", [4, 6], 4),
    ])
    def test_one_setup_per_distinct_key(self, tmp_path, monkeypatch, parameter, values,
                                        n_setups):
        trains = counting(monkeypatch, "train_source_model")
        builds = counting(monkeypatch, "build_task")
        runner.run_sweep(load_config(None, TINY), parameter, values, 2, tmp_path)
        assert len(trains) == len(builds) == n_setups
        assert sorted(trains) == sorted([5, 6] * (n_setups // 2))

    def test_shared_setup_cell_equals_run_alone(self, tmp_path):
        base = load_config(None, TINY)
        runner.run_sweep(base, "temperature", [0.1, 0.2], 1, tmp_path / "sweep")
        base.temperature = 0.2
        runner.run_adapt(base, tmp_path / "alone")
        for name in ("metrics.jsonl", "model.ckpt", "gmm.ckpt", "config.resolved.json"):
            cell = tmp_path / "sweep" / "temperature=0.2_rep0" / name
            assert cell.read_bytes() == (tmp_path / "alone" / name).read_bytes(), name

    def test_run_leaves_setup_unchanged(self, tmp_path):
        cfg = load_config(None, TINY)
        setup = runner.prepare_setup(cfg)
        params = {k: v.copy() for k, v in setup.model.params.items()}
        runner.run_adapt(cfg, tmp_path / "a", setup=setup)
        for name, value in params.items():
            np.testing.assert_array_equal(setup.model.params[name], value)
        runner.run_adapt(cfg, tmp_path / "b", setup=setup)
        assert ((tmp_path / "a" / "metrics.jsonl").read_bytes()
                == (tmp_path / "b" / "metrics.jsonl").read_bytes())


class NoBatches:
    """A target stream that fails the test if a batch is drawn."""

    def __iter__(self):
        raise AssertionError("a batch was drawn")


class TestConfigEditedInPlace:
    @pytest.mark.parametrize("start", [
        lambda cfg, setup: runner.prepare_setup(cfg),
        lambda cfg, setup: runner.adapt_stream(cfg, setup.model.copy(), NoBatches()),
    ], ids=["prepare_setup", "adapt_stream"])
    def test_nan_is_config_error_before_any_batch(self, start):
        cfg = load_config(None, TINY)
        setup = runner.prepare_setup(cfg)
        cfg.temperature = float("nan")
        with pytest.raises(ConfigError, match=r"^temperature must be finite, got nan$"):
            start(cfg, setup)

    def test_nan_is_config_error_before_run_adapt_writes(self, tmp_path):
        cfg = load_config(None, TINY)
        setup = runner.prepare_setup(cfg)
        cfg.temperature = float("nan")
        with pytest.raises(ConfigError, match=r"^temperature must be finite, got nan$"):
            runner.run_adapt(cfg, tmp_path / "run", setup=setup)
        assert not (tmp_path / "run").exists()
