import json
import math
import re
import reprlib
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from gmmadapt.config import RunConfig, config_keys, default_config, load_config
from gmmadapt.errors import ConfigError, InvalidSplit, declared_types
from gmmadapt.metrics import MemoryModelInputs
from gmmadapt.ood_gate import ThresholdState
from gmmadapt.runner import run_sweep
from gmmadapt.simulator import DomainSpec, ShiftSpec
from gmmadapt.toy_model import OptimizerConfig


class TestDefaults:
    def test_default_config_is_valid_opda_task(self):
        cfg = default_config()
        assert cfg.shift.kind == "OPDA"
        assert (cfg.shift.n_shared, cfg.shift.n_source_private,
                cfg.shift.n_target_private) == (6, 3, 3)
        assert (cfg.fd, cfg.fd_r, cfg.n_b) == (256, 64, 64)
        assert (cfg.p_reject, cfg.n_init) == (50.0, 30)
        assert (cfg.temperature, cfg.lam, cfg.momentum) == (0.1, 1.0, 0.9)
        assert cfg.n_batches == 200

    def test_round_trip_through_dict(self):
        cfg = default_config()
        doc = cfg.to_dict()
        again = RunConfig.from_dict(doc)
        assert json.dumps(again.to_dict()) == json.dumps(doc)

    def test_resolved_dict_carries_derived_values(self):
        doc = default_config().resolved_dict()
        assert doc["derived"]["n_source_classes"] == 9
        assert doc["derived"]["unknown_marker"] == 9
        assert doc["lambda"] == 1.0


class TestLoadConfig:
    def test_file_overrides_defaults_flags_override_file(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"seed": 5, "lr": 0.01}))
        cfg = load_config(str(path), {"lr": 0.5})
        assert cfg.seed == 5
        assert cfg.lr == 0.5

    def test_nested_domain_override(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"domain": {"class_sep": 3.0}}))
        cfg = load_config(str(path), {"domain": {"noise_sigma_target": 2.5}})
        assert cfg.domain.class_sep == 3.0
        assert cfg.domain.noise_sigma_target == 2.5
        assert cfg.domain.d_in == 20

    def test_translation_scale_resolves_vector(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"domain": {"translation_scale": 3.0}}))
        cfg = load_config(str(path))
        assert cfg.domain.translation_scale == 3.0
        assert np.linalg.norm(cfg.domain.translation()) == pytest.approx(3.0)
        np.testing.assert_array_equal(cfg.resolved_dict()["derived"]["shift_translation"],
                                      cfg.domain.translation())

    def test_translation_follows_seed_and_length(self):
        # a config overriding d_in or rotation_seed alone gets the default
        # scale along its own seeded direction, at its own length
        default = default_config().domain.translation()
        for override in ({"d_in": 12}, {"rotation_seed": 5}):
            dom = load_config(None, {"domain": override}).domain
            t = dom.translation()
            assert t.shape == (dom.d_in,)
            assert np.linalg.norm(t) == pytest.approx(2.0)
            assert not np.array_equal(t, default)

    def test_translation_vector_key_rejected(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"domain": {"shift_translation": [0.0] * 20}}))
        with pytest.raises(ConfigError, match=r"unexpected \['shift_translation'\]"):
            load_config(str(path))

    def test_lambda_key_mapping(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"lambda": 0.25}))
        assert load_config(str(path)).lam == 0.25

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"learning_rate": 0.1}))
        with pytest.raises(ConfigError):
            load_config(str(path))

    def test_non_object_section_rejected_under_a_flag(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"domain": 5}))
        with pytest.raises(ConfigError, match=r"^domain keys: missing \['class_sep', "):
            load_config(str(path), {"domain": {"translation_scale": 1.0}})

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            load_config(str(path))


FIELD_OF_KEY = {"lambda": "lam"}
RANGE_MESSAGES = {
    "p_reject": "p_reject must lie in (0, 100)",
    "n_init": "n_init must be positive",
    "temperature": "temperature must be positive",
    "lambda": "lambda must be nonnegative",
    "lr": "learning rates must be positive",
    "momentum": "momentum must lie in [0, 1)",
    "loss_mode": "loss_mode must be one of ('both', 'contrastive_only', 'kld_only', 'none')",
    "n_b": "batch size must be at least 4 (threshold calibration)",
    "jitter": "jitter must be nonnegative",
}
# A value of the wrong type, or a number that is not finite, is named in the
# words of a config file on every path.
TYPE_MESSAGES = {
    ("p_reject", "40"): "p_reject must be float, got '40'",
    ("n_b", "64"): "n_b must be int, got '64'",
    ("lr", None): "lr must be float, got None",
    ("temperature", math.nan): "temperature must be finite, got nan",
    ("lr", math.inf): "lr must be finite, got inf",
    ("n_b", 10**400): f"n_b must be finite, got {reprlib.repr(10**400)}",
}
BAD_SCALARS = [("p_reject", 0.0), ("p_reject", 100.0), ("n_init", 0), ("temperature", 0.0),
               ("lambda", -0.5), ("lr", 0.0), ("momentum", 1.0), ("loss_mode", "off"),
               ("n_b", 2), ("jitter", -1.0), *TYPE_MESSAGES]


class TestValidation:
    def test_single_source_class_rejected(self):
        doc = default_config().to_dict()
        doc["shift"] = {"kind": "ODA", "n_shared": 1, "n_source_private": 0,
                        "n_target_private": 2}
        with pytest.raises(ConfigError):
            RunConfig.from_dict(doc)

    # Every way of building a config checks the same ranges and value types
    # in the same words. A sweep validates every cell before it makes out.
    BUILDERS = {
        "from_dict": lambda key, value, out: RunConfig.from_dict(
            dict(default_config().to_dict(), **{key: value})),
        "constructor": lambda key, value, out: RunConfig(**{FIELD_OF_KEY.get(key, key): value}),
        "replace": lambda key, value, out: replace(default_config(),
                                                   **{FIELD_OF_KEY.get(key, key): value}),
        "sweep": lambda key, value, out: run_sweep(default_config(), key, [value], 1, out),
    }

    @pytest.mark.parametrize("key,value,path", [
        (key, value, path) for path in BUILDERS for key, value in BAD_SCALARS
        if (path, key) != ("sweep", "loss_mode")  # a str key is not sweepable
    ])
    def test_bad_scalars_rejected(self, key, value, path, tmp_path):
        out = tmp_path / "sweep"
        with pytest.raises(ConfigError) as info:
            self.BUILDERS[path](key, value, out)
        assert str(info.value) == TYPE_MESSAGES.get((key, value), RANGE_MESSAGES[key])
        assert not out.exists()

    def test_resolve_translation_zero_scale(self):
        cfg = load_config(None, {"domain": {"translation_scale": 0.0}})
        np.testing.assert_array_equal(cfg.domain.translation(), np.zeros(cfg.domain.d_in))

    @pytest.mark.parametrize("key", ["source_epochs", "n_source_train", "n_source_holdout"])
    @pytest.mark.parametrize("value", [0, -1])
    def test_setup_counts_must_be_positive(self, key, value):
        doc = default_config().to_dict()
        doc[key] = value
        with pytest.raises(ConfigError, match=f"^{key} must be positive$"):
            RunConfig.from_dict(doc)


def load_doc(tmp_path, doc):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(doc))
    return load_config(str(path))


SHIFT = {"kind": "OPDA", "n_shared": 6, "n_source_private": 3, "n_target_private": 3}


class TestValueTypes:
    @pytest.mark.parametrize("doc,message", [
        ({"fd_r": 8.5}, "fd_r must be int, got 8.5"),
        ({"shift": dict(SHIFT, n_shared=2.0)}, "shift.n_shared must be int, got 2.0"),
    ], ids=["fd_r", "shift.n_shared"])
    def test_int_key_rejects_float(self, tmp_path, doc, message):
        with pytest.raises(ConfigError, match=message):
            load_doc(tmp_path, doc)

    @pytest.mark.parametrize("doc", [{"n_b": True}, {"domain": {"rotation_seed": False}}],
                             ids=["n_b", "domain.rotation_seed"])
    def test_int_key_rejects_bool(self, tmp_path, doc):
        with pytest.raises(ConfigError, match="must be int"):
            load_doc(tmp_path, doc)

    def test_float_key_takes_int_or_float(self, tmp_path):
        cfg = load_doc(tmp_path, {"p_reject": 40, "temperature": 0.2,
                                  "domain": {"class_sep": 5}})
        got = (cfg.p_reject, cfg.temperature, cfg.domain.class_sep)
        assert got == (40, 0.2, 5)
        assert [type(value) for value in got] == [float, float, float]

    @pytest.mark.parametrize("doc", [{"p_reject": True}, {"lambda": "1"},
                                     {"domain": {"translation_scale": True}}],
                             ids=["p_reject", "lambda", "domain.translation_scale"])
    def test_float_key_rejects_bool_and_str(self, tmp_path, doc):
        with pytest.raises(ConfigError, match="must be float"):
            load_doc(tmp_path, doc)

    def test_optional_key_takes_null(self, tmp_path):
        cfg = load_doc(tmp_path, {"augment_sigma": None, "domain": {"rotation_seed": None}})
        assert cfg.augment_sigma is None and cfg.domain.rotation_seed is None

    @pytest.mark.parametrize("doc,message", [
        ({"fd": None}, "fd must be int, got None"),
        ({"unknown_positive_pairs": 1}, "unknown_positive_pairs must be bool, got 1"),
        ({"loss_mode": None}, "loss_mode must be str, got None"),
    ], ids=["fd", "unknown_positive_pairs", "loss_mode"])
    def test_required_key_rejects_null_and_other_types(self, tmp_path, doc, message):
        with pytest.raises(ConfigError, match=message):
            load_doc(tmp_path, doc)

    def test_optional_key_message_names_null(self, tmp_path):
        with pytest.raises(ConfigError, match="augment_sigma must be float or null, got '0.1'"):
            load_doc(tmp_path, {"augment_sigma": "0.1"})


class TestNegativeSeeds:
    @pytest.mark.parametrize("doc,message", [
        ({"seed": -1}, "seed must be nonnegative"),
        ({"domain": {"rotation_seed": -2}}, "domain.rotation_seed must be null or nonnegative"),
    ], ids=["seed", "domain.rotation_seed"])
    def test_negative_seed_rejected_in_file(self, tmp_path, doc, message):
        with pytest.raises(ConfigError, match=f"^{message}$"):
            load_doc(tmp_path, doc)

    def test_zero_seeds_accepted(self, tmp_path):
        cfg = load_doc(tmp_path, {"seed": 0, "domain": {"rotation_seed": 0}})
        assert (cfg.seed, cfg.domain.rotation_seed) == (0, 0)


class TestValidateReadsBack:
    def test_edited_config_in_the_benchmark_pattern_validates(self):
        cfg = default_config()
        cfg.seed = 7
        cfg.shift = ShiftSpec("OPDA", 50, 15, 10)
        assert cfg.validate() is cfg

    @pytest.mark.parametrize("edit,message", [
        (lambda cfg: setattr(cfg.domain, "class_sep", -1.0), "^domain.class_sep must be positive$"),
        (lambda cfg: setattr(cfg.shift, "kind", "XYZ"), "^shift.kind must be one of"),
        (lambda cfg: setattr(cfg, "shift", dict(SHIFT)),
         re.escape("config does not read back as itself: ['shift'] differ")),
        (lambda cfg: setattr(cfg, "seed", -1), "^seed must be nonnegative$"),
        (lambda cfg: setattr(cfg, "fd_r", 8.5), "^fd_r must be int, got 8.5$"),
    ], ids=["class_sep", "shift.kind", "shift_dict", "seed", "fd_r"])
    def test_edited_config_fails_validate(self, edit, message):
        cfg = default_config()
        edit(cfg)
        with pytest.raises(ConfigError, match=message):
            cfg.validate()

    @pytest.mark.parametrize("owner,name", [
        (lambda cfg: cfg, "n_batch"),
        (lambda cfg: cfg.domain, "shift_translation"),
        (lambda cfg: cfg.shift, "n_share"),
    ], ids=["n_batch", "domain.shift_translation", "shift.n_share"])
    def test_unknown_field_cannot_be_set(self, owner, name):
        with pytest.raises(AttributeError):
            setattr(owner(default_config()), name, 3)


FLOAT_KEYS = [path for path, typ in config_keys() if typ is float]


def with_value(path, value) -> dict:
    """A partial config document holding value at path."""
    doc = value
    for key in reversed(path):
        doc = {key: doc}
    return doc


class TestFiniteFloats:
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")],
                             ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("path", FLOAT_KEYS, ids=[".".join(p) for p in FLOAT_KEYS])
    def test_non_finite_float_rejected_in_file(self, tmp_path, path, value):
        # json writes NaN and Infinity, and reads them back as floats
        with pytest.raises(ConfigError, match=f"^{'.'.join(path)} must be finite, got"):
            load_doc(tmp_path, with_value(path, value))


# Each self-checking dataclass a run builds besides RunConfig: the error it
# raises, and the keyword arguments of a valid instance.
SELF_CHECKING = {
    ShiftSpec: (InvalidSplit, dict(kind="OPDA", n_shared=6, n_source_private=3,
                                   n_target_private=3)),
    DomainSpec: (ValueError, dict(d_in=20, class_sep=6.0, rotation_seed=1)),
    ThresholdState: (ValueError, dict(n_init=30, p_reject=50.0)),
    OptimizerConfig: (ValueError, dict(learning_rate=0.1)),
    MemoryModelInputs: (ValueError, {}),
}
NUMERIC_FIELDS = [(cls, name, typ) for cls in SELF_CHECKING
                  for name, (_, typ, _) in declared_types(cls).items() if typ in (int, float)]


@pytest.mark.parametrize("cls,name,typ", NUMERIC_FIELDS,
                         ids=[f"{cls.__name__}.{name}" for cls, name, _ in NUMERIC_FIELDS])
def test_bad_number_is_the_class_error_naming_the_field(cls, name, typ):
    error, valid = SELF_CHECKING[cls]
    cls(**valid)
    too_large = [10**400] if typ is int else []
    for value in [math.nan, math.inf, -math.inf, True, "1", *too_large]:
        with pytest.raises(error) as info:
            cls(**dict(valid, **{name: value}))
        assert type(info.value) is error and str(info.value).startswith(f"{name} must be "), value


README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_example_is_the_default_config(tmp_path):
    example = re.search(r"```jsonc\n(.*?)```", README.read_text(), re.S).group(1)
    doc = json.loads(re.sub(r"//[^\n]*", "", example))
    path = tmp_path / "run.json"
    path.write_text(json.dumps(doc))
    assert doc == default_config().to_dict()
    assert load_config(str(path)).to_dict() == default_config().to_dict()
